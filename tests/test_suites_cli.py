import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwick
import qwick.cli as cli
from qwick.fock import GradedVector
from qwick.scales import vage_ratio
from qwick.suites import (
    DEFAULT_SCALES,
    SUITE_NAMES,
    SUITES,
    Report,
    RunConfig,
    _trial_rng,
    run_suite,
)

SMALL = RunConfig(trials=25)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(q=1.5)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(scales=((1.0, 2.0, 2.0),))
    with pytest.raises(ValueError):
        RunConfig(scales=((2.0, 1.0, math.nan),))
    cfg = RunConfig()
    assert cfg.q == 0.5 and cfg.dim == 2 and cfg.max_degree == 6
    assert cfg.trials == 500 and cfg.seed == 1
    assert cfg.scales == DEFAULT_SCALES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_on_default_config(name):
    report = run_suite(name, SMALL)
    assert report.passed, report.violations[:3]
    assert report.suite == name
    assert report.trials > 0


@pytest.mark.parametrize("q", (-0.9, -0.5, 0.0, 0.9))
def test_suites_pass_across_q(q):
    cfg = RunConfig(q=q, trials=10, max_degree=5)
    for name in ("commutation", "positivity", "moments", "vage", "inverse"):
        report = run_suite(name, cfg)
        assert report.passed, (name, q, report.violations[:3])


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", SMALL)


def test_report_json_schema():
    report = run_suite("vage", RunConfig(trials=12))
    data = report.to_json_dict()
    assert set(data) == {
        "suite",
        "params",
        "trials",
        "max_residual",
        "max_ratio",
        "bound",
        "violations",
        "pass",
    }
    assert data["pass"] is True
    assert data["max_ratio"] <= data["bound"] + 1e-9
    assert isinstance(data["violations"], list)


def test_reports_are_deterministic():
    a = run_suite("vage", RunConfig(trials=30, seed=42))
    b = run_suite("vage", RunConfig(trials=30, seed=42))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )
    c = run_suite("vage", RunConfig(trials=30, seed=43))
    assert c.max_ratio != a.max_ratio  # the seed genuinely matters


def test_commutation_reports_argument_swapped_variant():
    report = run_suite("commutation", RunConfig(trials=10, dim=2))
    assert report.params["argument_swapped_variant_max_residual"] > 1e-3


def test_positivity_reports_negative_q_finding():
    report = run_suite("positivity", RunConfig(q=-0.5, trials=1))
    assert report.passed
    assert 2 in report.params["max_eig_exceeds_plain_q_factorial_at"]
    free = run_suite("positivity", RunConfig(q=0.5, trials=1))
    assert free.params["max_eig_exceeds_plain_q_factorial_at"] == []


def test_embedding_reports_plain_weight_failure_for_negative_q():
    report = run_suite("embedding", RunConfig(q=-0.5, trials=5))
    assert report.passed
    assert report.params["plain_q_weight_failure_residual"] > 0.1


def test_vage_report_per_scale_bounds():
    report = run_suite("vage", RunConfig(trials=30, scales=((2.0, 1.0, 2.0),)))
    assert report.bound == pytest.approx(math.sqrt(2.0))
    assert report.max_ratio <= report.bound + 1e-9
    assert report.params["per_scale"][0]["r"] == 2.0


def test_trial_replays_from_suite_key_and_index():
    cfg = RunConfig(trials=6, seed=11)
    report = run_suite("adjointness", cfg)
    replay = SUITES["adjointness"].trial(cfg.context(), _trial_rng(11, "adjointness", 3))
    assert replay == report.trial_values[3]


def test_scale_trial_indices_continue_across_pairs():
    cfg = RunConfig(trials=7, seed=4)  # split 3/2/2 over DEFAULT_SCALES
    assert cfg.scales == DEFAULT_SCALES
    report = run_suite("vage", cfg)
    ctx = cfg.context()
    ratios = []
    for i in (3, 4):
        rng = _trial_rng(4, "vage:4.0:1.0", i)
        f = GradedVector.random(ctx, rng)
        g = GradedVector.random(ctx, rng)
        ratios.append(vage_ratio(f, g, 4.0, 1.0)[0])
    assert max(ratios) == report.params["per_scale"][1]["max_ratio"]
    bound = math.sqrt(4.0 / 3.0)
    assert report.trial_values[3:5] == [max(0.0, ratio - bound) for ratio in ratios]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_verify_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(
        [
            "verify",
            "--suite",
            "macmahon",
            "--q",
            "-0.7",
            "--trials",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["max_residual"] <= 1e-12


def test_cli_verify_stdout_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    code = cli.main(
        ["verify", "--suite", "vage", "--trials", "12", "--seed", "7", "--csv", str(csv_path)]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["suite"] == "vage"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trial,value"
    assert len(lines) == 13


def test_cli_verify_unknown_suite_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--suite", "unknown"])
    assert excinfo.value.code == 2


def test_cli_verify_exit_one_on_violation(monkeypatch, capsys):
    failing = Report(
        suite="vage",
        params={},
        trials=1,
        max_residual=1.0,
        max_ratio=2.0,
        bound=1.0,
        violations=[{"trial": 0, "value": 2.0}],
        passed=False,
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: failing)
    assert cli.main(["verify", "--suite", "vage"]) == 1


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"q": -0.5, "trials": 7, "seed": 3, "dim": 2}))
    out = tmp_path / "report.json"
    code = cli.main(
        ["verify", "--suite", "adjointness", "--config", str(cfg_path), "--trials", "4", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["trials"] == 4  # flag wins
    assert data["params"]["q"] == -0.5  # file setting survives


def test_cli_verify_byte_identical_reports(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--suite", "lemma53", "--trials", "9", "--seed", "5"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_compute_moments_free_case(capsys):
    code = cli.main(["compute", "moments", "--q", "0", "--order", "14"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = [float(line.split()[1]) for line in lines[1:]]
    catalan = [1.0, 1.0, 2.0, 5.0, 14.0, 42.0, 132.0, 429.0]
    assert values == [c for n in catalan for c in (n, 0.0)][:15]


def test_cli_compute_wick_mul_neutral(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    ctx = QContext(0.5, 2, 4)
    f = GradedVector(ctx, {0: [2.0], 1: [0.5, -1.5], 3: np.arange(8.0).tolist()})
    omega = GradedVector.vacuum(ctx)
    fpath, opath = tmp_path / "f.json", tmp_path / "omega.json"
    fpath.write_text(f.to_json())
    opath.write_text(omega.to_json())
    out = tmp_path / "result.json"
    assert cli.main(["compute", "wick-mul", str(opath), str(fpath), "--out", str(out)]) == 0
    result = GradedVector.from_json(out.read_text())
    assert (result - f).max_abs() == 0.0


def test_cli_compute_wick_inv_and_exp(tmp_path):
    from qwick.fock import GradedVector, QContext
    from qwick.scales import graded_tensor

    ctx = QContext(0.3, 1, 5)
    f = GradedVector(ctx, {0: [1.0], 1: [0.5]})
    fpath = tmp_path / "f.json"
    fpath.write_text(f.to_json())
    inv_path = tmp_path / "inv.json"
    assert cli.main(["compute", "wick-inv", str(fpath), "--out", str(inv_path)]) == 0
    inv = GradedVector.from_json(inv_path.read_text())
    assert (graded_tensor(f, inv) - GradedVector.vacuum(ctx)).max_abs() == 0.0

    exp_path = tmp_path / "exp.json"
    zpath = tmp_path / "z.json"
    zpath.write_text(GradedVector(ctx, {1: [0.5]}).to_json())
    assert cli.main(["compute", "wick-exp", str(zpath), "--out", str(exp_path)]) == 0
    exp = GradedVector.from_json(exp_path.read_text())
    assert exp.component(2)[0] == pytest.approx(0.125, abs=1e-15)


def test_cli_compute_wick_inv_zero_vacuum_is_config_error(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    ctx = QContext(0.5, 2, 3)
    zpath = tmp_path / "z.json"
    zpath.write_text(GradedVector(ctx, {1: [1.0, 0.0]}).to_json())
    assert cli.main(["compute", "wick-inv", str(zpath)]) == 2
    assert "vacuum component" in capsys.readouterr().err


def test_cli_compute_norm(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext, basis_vector, elementary_tensor

    ctx = QContext(0.5, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {2: elementary_tensor([e1, e2])})
    fpath = tmp_path / "f.json"
    fpath.write_text(f.to_json())
    assert (
        cli.main(["compute", "norm", str(fpath), "--side", "dual", "--r", "1", "--alpha", "0"])
        == 0
    )
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_cli_bad_input_file_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["compute", "wick-inv", str(bad)]) == 2


@pytest.mark.parametrize(
    "argv, message",
    (
        (["verify", "--suite", "macmahon", "--dim", "0"], "dim >= 1"),
        (["verify", "--suite", "hermite", "--max-degree", "-3"], "max_degree >= 0"),
        (["compute", "moments", "--order", "41"], "--order"),
        (["compute", "moments", "--order", "-1"], "--order"),
        (["compute", "moments", "--dim", "3", "--order", "18"], "--order 18 at dim 3"),
        (["verify", "--suite", "vage", "--scales", "inf:1"], "inf > r > s >= 1"),
    ),
)
def test_cli_precondition_fails_before_output(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("out", (False, True))
def test_cli_moments_not_finite_fails_before_output(out, tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text("[1e200, 0]")
    argv = ["compute", "moments", "--phi", str(phi), "--order", "4"]
    if out:
        argv += ["--out", str(tmp_path / "moments.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err
    assert not (tmp_path / "moments.json").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_cli_moments_oracle_overflow_fails_before_output(tmp_path, capsys):
    # |phi|^2 = 1e200 is finite, but its square overflows in the order-4 oracle
    phi = tmp_path / "phi.json"
    phi.write_text("[1e100, 0]")
    assert cli.main(["compute", "moments", "--phi", str(phi), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def test_cli_wick_exp_names_its_scale_parameter(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    zpath = tmp_path / "z.json"
    zpath.write_text(GradedVector(QContext(0.3, 1, 3), {1: [0.5]}).to_json())
    for s in ("0.5", "nan"):
        assert cli.main(["compute", "wick-exp", str(zpath), "--s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"requires s >= 1, got {s}" in captured.err


@pytest.mark.parametrize(
    "flags, message",
    (
        pytest.param(["--side", "dual", "--weight-base", "q"], "abs_q", id="dual-q-base"),
        pytest.param(["--side", "dual", "--r", "nan"], "r must be >= 1", id="dual-nan-r"),
        pytest.param(["--side", "test", "--r", "nan"], "r must be >= 1", id="test-nan-r"),
    ),
)
def test_cli_norm_scale_preconditions(flags, message, tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    path = tmp_path / "f.json"
    path.write_text(GradedVector.vacuum(QContext(0.5, 2, 3)).to_json())
    assert cli.main(["compute", "norm", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


@pytest.mark.parametrize("operation", (["wick-inv"], ["norm", "--side", "dual"]))
def test_cli_rejects_non_finite_vector(operation, tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"q": 0.5, "dim": 1, "max_degree": 2, "components": {"0": [1.0], "1": [NaN]}}')
    assert cli.main(["compute", operation[0], str(path), *operation[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_cli_verify_past_degree_eight(capsys):
    code = cli.main(["verify", "--suite", "adjointness", "--max-degree", "9", "--trials", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_console_script_runs():
    # the child finds the same qwick as this process, installed or not
    src = str(Path(qwick.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-m", "qwick.cli", "verify", "--suite", "hermite", "--trials", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["pass"] is True
