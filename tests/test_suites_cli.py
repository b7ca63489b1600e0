import itertools
import json
import math
import os
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import qwick
import qwick.cli as cli
from qwick import fock
from qwick.fock import GradedVector
from qwick.scales import graded_tensor, vage_ratio
from qwick.series import wick_exp, wick_inverse
from qwick.suites import (
    DEFAULT_SCALES,
    EXACT_INVERSE_DEGREE,
    SUITE_NAMES,
    SUITES,
    Report,
    RunConfig,
    _random_exact_vector,
    _trial_rng,
    _vacuum_last_degrees,
    hermite_coefficients,
    run_suite,
    suite_streams,
)

from oracles import random_vector

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
    with pytest.raises(ValueError, match="scale pair"):
        RunConfig(scales=())
    with pytest.raises(ValueError, match="seed"):
        RunConfig(seed=-1)
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
    for name in ("commutation", "positivity", "moments", "vage", "duality", "inverse"):
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


@pytest.mark.parametrize("name", [name for name in SUITE_NAMES if SUITES[name].draw])
def test_checks_give_one_float_per_draw(name):
    cfg = RunConfig(trials=3, max_degree=4)
    ctx, streams = suite_streams(name, cfg)
    for key, _, _, _, check in streams:
        draws = [SUITES[name].draw(ctx, _trial_rng(cfg.seed, key, i)) for i in range(3)]
        values = check(ctx, draws)
        assert len(values) == len(draws)
        assert all(type(value) is float for value in values)


def test_all_infinite_bounds_still_name_a_ratio():
    """Near |q| = 1 every c1 overflows, so every margin is -inf; on that tie
    the first pair that ran supplies max_ratio and bound."""
    report = run_suite("theorem43", RunConfig(q=0.9999, trials=3))
    per_scale = report.params["per_scale"]
    assert [p["c1"] for p in per_scale] == [None] * 3  # an overflowed c1 is written null
    assert report.max_ratio == per_scale[0]["max_ratio"]
    assert report.max_ratio is not None
    assert report.bound == math.inf
    assert report.passed


def _refuse_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("q", ("0.99", "-0.999", "0.9999", "-0.9999"))
def test_duality_saturates_near_unit_q(q, capsys):
    # the saturating pair is built with the symmetrizer applied, not inverted,
    # so its gap stays at rounding while the symmetrizer nears singularity
    assert cli.main(["verify", "--suite", "duality", "--q", q, "--trials", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["saturation_gap"] < 1e-12


@pytest.mark.parametrize("flags", (["--q", "0.9999"], ["--scales", "1.0000000000000002:1"]))
def test_overflowed_c1_is_written_as_null(flags, capsys):
    # a passing report stays strict JSON when estimate_c1 overflows
    assert cli.main(["verify", "--suite", "theorem43", "--trials", "3", *flags]) == 0
    report = json.loads(capsys.readouterr().out, parse_constant=_refuse_constant)
    assert report["pass"] and report["bound"] is None and report["max_ratio"] > 0.0
    per_scale = report["params"]["per_scale"]
    assert per_scale and all(record["c1"] is None for record in per_scale)


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


def test_scale_records_name_the_exponent_each_suite_checks(tmp_path):
    # vage's bound holds at exponent 2 only; theorem43 runs at the configured one
    for name, alpha in (("vage", 2.0), ("theorem43", 3.0)):
        out = tmp_path / f"{name}.json"
        argv = ["verify", "--suite", name, "--scales", "2:1:3", "--trials", "2", "--out", str(out)]
        assert cli.main(argv) == 0
        assert [p["alpha"] for p in json.loads(out.read_text())["params"]["per_scale"]] == [alpha]


def test_hermite_coefficients_follow_the_three_term_recurrence():
    """He_(n+1) = x He_n - n He_(n-1), from He_0 = 1 and He_1 = x."""
    assert hermite_coefficients(0) == [1]
    assert hermite_coefficients(1) == [0, 1]
    assert hermite_coefficients(4) == [3, 0, -6, 0, 1]
    for n in range(1, 29):
        times_x = [0] + hermite_coefficients(n)
        lower = hermite_coefficients(n - 1) + [0, 0]
        assert hermite_coefficients(n + 1) == [a - n * b for a, b in zip(times_x, lower)]


def test_trial_replays_from_suite_key_and_index():
    """Every trial of every sampling suite is rebuilt from (seed, stream key,
    index) alone; each stream checks its rebuilt draws in one call, whose rows
    are the values the draws get alone (test_batching).  At 2 trials the third
    scale pair runs none, and at 7 the pairs split 3/2/2."""
    configs = (RunConfig(), RunConfig(trials=2), RunConfig(trials=7, seed=4))
    for cfg, name in itertools.product(configs, (n for n in SUITE_NAMES if SUITES[n].draw)):
        report = run_suite(name, cfg)
        ctx, streams = suite_streams(name, cfg)
        keys = [key for key, *_ in streams]
        assert len(set(keys)) == len(keys), keys
        assert [i for _, indices, *_ in streams for i in indices] == list(range(cfg.trials))
        records = iter(report.params.get("per_scale", ()))
        for key, indices, record, bound, check in streams:
            draws = [SUITES[name].draw(ctx, _trial_rng(cfg.seed, key, i)) for i in indices]
            outputs = check(ctx, draws) if draws else []
            if record is not None:
                assert next(records) == {**record, "max_ratio": max(outputs, default=None)}
                outputs = [max(0.0, ratio - bound) for ratio in outputs]
            assert outputs == [report.trial_values[i] for i in indices], (name, key)
        assert next(records, None) is None
    _, streams = suite_streams("theorem43", configs[2])
    assert [(key, list(indices)) for key, indices, *_ in streams] == [
        ("theorem43:2.0:1.0", [0, 1, 2]),
        ("theorem43:4.0:1.0", [3, 4]),
        ("theorem43:1.5:1.2", [5, 6]),
    ]


@pytest.mark.parametrize("index", (0, 499))
@pytest.mark.parametrize("key", ("vage", "theorem43:1.5:1.2"))
@pytest.mark.parametrize("seed", (0, 1, 2**32 - 1, 2**32, 2**64 + 5))
def test_trial_rng_is_the_readme_recipe(seed, key, index):
    # seeds of one word go to numpy as uint32 entropy, longer ones as the list
    ours = _trial_rng(seed, key, index)
    recipe = np.random.default_rng([seed, zlib.crc32(key.encode()), index])
    assert ours.bit_generator.state == recipe.bit_generator.state
    assert np.array_equal(ours.standard_normal(64), recipe.standard_normal(64))
    assert ours.bit_generator.state == recipe.bit_generator.state


def test_scale_trial_indices_continue_across_pairs():
    cfg = RunConfig(trials=7, seed=4)  # split 3/2/2 over DEFAULT_SCALES
    assert cfg.scales == DEFAULT_SCALES
    report = run_suite("vage", cfg)
    ctx = cfg.context()
    ratios = []
    for i in (3, 4):
        rng = _trial_rng(4, "vage:4.0:1.0", i)
        f = random_vector(ctx, rng)
        g = random_vector(ctx, rng)
        ratios.append(vage_ratio(f, g, 4.0, 1.0))
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
        max_ratio=math.inf,
        bound=1.0,
        violations=[{"trial": 0, "value": math.inf}],
        passed=False,
    )
    monkeypatch.setattr(cli, "run_suite", lambda name, cfg: failing)
    assert cli.main(["verify", "--suite", "vage"]) == 1
    # a failing suite's infinite value keeps JSON's extension
    assert '"max_ratio": Infinity' in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    (
        ["compute", "norm", "IN", "--out", "OUT"],
        ["compute", "moments", "--order", "4", "--out", "OUT"],
        ["compute", "wick-inv", "IN", "--out", "OUT"],
    ),
    ids=("norm", "moments", "wick-inv"),
)
def test_cli_compute_prints_nothing_when_its_file_fails(argv, tmp_path, capsys):
    vec = tmp_path / "f.json"
    vec.write_text(json.dumps(GradedVector.vacuum(fock.QContext(0.5, 2, 3)).to_json_dict()))
    out = tmp_path / "missing" / "out.json"
    swap = {"IN": str(vec), "OUT": str(out)}
    assert cli.main([swap.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("flag", ("--out", "--csv"))
@pytest.mark.parametrize("where", ("missing-directory", "directory"))
def test_cli_verify_checks_its_files_before_any_suite(flag, where, tmp_path, capsys):
    bad = tmp_path / "missing" / "r.txt" if where == "missing-directory" else tmp_path
    good = tmp_path / ("ok.csv" if flag == "--out" else "ok.json")
    other = "--csv" if flag == "--out" else "--out"
    argv = ["verify", "--suite", "macmahon", flag, str(bad), other, str(good)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")  # no suite's status line before it
    assert not good.exists()
    suite = "all" if flag == "--out" else "vage"  # --csv takes a single suite
    assert cli.main(["verify", "--suite", suite, "--trials", "2", flag, str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_commutation_catches_a_broken_kernel(monkeypatch, capsys):
    # slot i of the contraction carries weight q^i (1 + 1e-9): the exchange
    # blocks must show it, though both sides of the identity use the kernel
    contract = fock.contract
    monkeypatch.setattr(
        fock, "contract", lambda phi, t, n, q: contract(phi, t, n, q) * (1.0 + 1e-9)
    )
    report = run_suite("commutation", RunConfig(trials=8))
    assert report.violations and not report.passed
    assert cli.main(["verify", "--suite", "commutation", "--trials", "8"]) == 1


def _reversed_contract(phi, t, n, q):
    """contract with slot i weighted q^(n-1-i) in place of q^i."""
    t = np.asarray(t, dtype=float)
    d = phi.shape[-1]
    out = 0.0
    for i in range(n):
        view = t.reshape(t.shape[:-1] + (d**i, d, -1))
        slot = (phi[..., None, :, None] * view).sum(axis=-2)
        out = out + q ** (n - 1 - i) * slot.reshape(slot.shape[:-2] + (-1,))
    return out


def test_commutation_sees_reversed_slot_weights(monkeypatch):
    # the moments suite meets only symmetric tensors and cannot see slot
    # order; the basis blocks and every single trial must
    monkeypatch.setattr(fock, "contract", _reversed_contract)
    report = run_suite("commutation", RunConfig())
    tolerance, basis = report.params["tolerance"], report.params["basis_max_residual"]
    assert basis > tolerance
    assert {"trial": -1, "value": basis} in report.violations
    assert report.trials == 500 and min(report.trial_values) > tolerance
    assert len(report.violations) == report.trials + 1


def _reversed_slot_sum(t, n, dim, q):
    """slot_sum with slot k weighted q^(n-1-k) in place of q^k."""
    t = np.asarray(t, dtype=float)
    lead = t.shape[:-1]
    cube = t.reshape(lead + (dim,) * n + (-1,))
    moved = [q ** (n - 1 - k) * np.moveaxis(cube, len(lead) + k, len(lead)) for k in range(n)]
    return sum(moved).reshape(lead + (-1,))


def test_suites_see_reversed_weights_in_the_shared_kernel(monkeypatch):
    # slot_sum builds both P and a^-, so adjointness, which pairs them,
    # cannot see the kernel go wrong in both at once; positivity's
    # enumeration oracle and the commutation relation guard it
    monkeypatch.setattr(fock, "slot_sum", _reversed_slot_sum)
    fock._pq_cached.cache_clear()
    try:
        cfg = RunConfig(trials=40)
        positivity = run_suite("positivity", cfg)
        commutation = run_suite("commutation", cfg)
        adjointness = run_suite("adjointness", cfg)
    finally:
        fock._pq_cached.cache_clear()
    assert not positivity.passed
    assert round(positivity.params["permutation_sum_max_deviation"], 3) == 0.492
    assert not commutation.passed
    assert round(commutation.params["basis_max_residual"], 2) == 5.83
    assert adjointness.passed and adjointness.max_residual < 1e-12


@pytest.mark.parametrize("dim,max_degree", ((2, 6), (3, 5), (2, 8)))
def test_commutation_basis_blocks_cancel_exactly_at_dyadic_q(dim, max_degree):
    # at q = +-0.5 every product and sum in the blocks is exact, so any
    # deviation shows, down to one ulp; at q = 0.3 they only round
    for q in (0.5, -0.5, 0.3):
        cfg = RunConfig(q=q, dim=dim, max_degree=max_degree, trials=1)
        basis = run_suite("commutation", cfg).params["basis_max_residual"]
        assert basis == 0.0 if q != 0.3 else basis <= 1e-12


def test_cli_commutation_at_the_north_star_config(capsys):
    args = ["verify", "--suite", "commutation", "--dim", "3", "--max-degree", "6"]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["trials"] == 500 and report["params"]["basis_max_residual"] == 0.0


def test_cli_adjointness_without_shared_degrees(tmp_path, capsys):
    # at max_degree 0, creation and annihilation leave nothing in common with
    # the other argument, so each side of the pairing is a batch of zeros
    csv_path = tmp_path / "rows.csv"
    args = ["verify", "--suite", "adjointness", "--max-degree", "0", "--trials", "2"]
    assert cli.main(args + ["--csv", str(csv_path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["trials"], data["max_residual"], data["pass"]) == (2, 0.0, True)
    assert csv_path.read_text().splitlines() == ["trial,value", "0,0.0", "1,0.0"]


@pytest.mark.parametrize(
    "flags,commutation_degree",
    (
        (["--dim", "1"], 6),
        (["--max-degree", "0"], 1),
        (["--max-degree", "1"], 1),
        (["--max-degree", "2"], 2),
        # [n]_|q|! outgrows an absolute tolerance on the symmetrizer's norm
        (["--dim", "1", "--max-degree", "24"], 24),
        (["--dim", "1", "--q", "0.9", "--max-degree", "12"], 12),
        # the symmetrizer is nearly singular at |q| = 0.99
        (["--q", "0.99"], 6),
    ),
)
def test_cli_all_suites_on_tiny_configs(flags, commutation_degree, capsys):
    # d = 1 and N <= 1 are the degenerate shapes of the kernels; commutation
    # needs a degree to act on, so at N = 0 it runs at degree 1
    assert cli.main(["verify", "--suite", "all", "--trials", "3", *flags]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["suite"] for r in reports] == list(SUITE_NAMES)
    assert all(r["pass"] and r["trials"] > 0 for r in reports)
    assert reports[0]["params"]["max_degree"] == commutation_degree


def test_cli_inverse_stays_exact_at_degree_eleven(capsys):
    # past the degree where dyadic k/8 entries stay exact; this family must cancel
    assert cli.main(["verify", "--suite", "inverse", "--trials", "3", "--max-degree", "11"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] and report["trials"] == 3


@pytest.mark.parametrize("dim,max_degree", ((1, EXACT_INVERSE_DEGREE), (2, 12), (3, 7)))
def test_inverse_exact_family_cancels_up_to_its_cap(dim, max_degree):
    ctx = fock.QContext(0.5, dim, max_degree)
    vacuum = GradedVector.vacuum(ctx)
    for i in range(4):
        flat = _random_exact_vector(ctx, np.random.default_rng([4, i]))
        f = GradedVector._flat(ctx, flat, _vacuum_last_degrees(ctx))
        assert (graded_tensor(f, wick_inverse(f)) - vacuum).max_abs() == 0.0


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
    fpath.write_text(json.dumps(f.to_json_dict()))
    opath.write_text(json.dumps(omega.to_json_dict()))
    out = tmp_path / "result.json"
    assert cli.main(["compute", "wick-mul", str(opath), str(fpath), "--out", str(out)]) == 0
    result = GradedVector.from_json_dict(json.loads(out.read_text()))
    assert (result - f).max_abs() == 0.0


def test_cli_compute_wick_inv_and_exp(tmp_path):
    from qwick.fock import GradedVector, QContext
    from qwick.scales import graded_tensor

    ctx = QContext(0.3, 1, 5)
    f = GradedVector(ctx, {0: [1.0], 1: [0.5]})
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.to_json_dict()))
    inv_path = tmp_path / "inv.json"
    assert cli.main(["compute", "wick-inv", str(fpath), "--out", str(inv_path)]) == 0
    inv = GradedVector.from_json_dict(json.loads(inv_path.read_text()))
    assert (graded_tensor(f, inv) - GradedVector.vacuum(ctx)).max_abs() == 0.0

    exp_path = tmp_path / "exp.json"
    zpath = tmp_path / "z.json"
    zpath.write_text(json.dumps(GradedVector(ctx, {1: [0.5]}).to_json_dict()))
    assert cli.main(["compute", "wick-exp", str(zpath), "--out", str(exp_path)]) == 0
    exp = GradedVector.from_json_dict(json.loads(exp_path.read_text()))
    assert exp.component(2)[0] == pytest.approx(0.125, abs=1e-15)


def test_cli_compute_wick_inv_zero_vacuum_is_config_error(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    ctx = QContext(0.5, 2, 3)
    zpath = tmp_path / "z.json"
    zpath.write_text(json.dumps(GradedVector(ctx, {1: [1.0, 0.0]}).to_json_dict()))
    assert cli.main(["compute", "wick-inv", str(zpath)]) == 2
    assert "vacuum component" in capsys.readouterr().err


def test_cli_compute_norm(tmp_path, capsys):
    from qwick.fock import GradedVector, QContext, basis_vector, elementary_tensor

    ctx = QContext(0.5, 2, 3)
    e1, e2 = basis_vector(2, 0), basis_vector(2, 1)
    f = GradedVector(ctx, {2: elementary_tensor([e1, e2])})
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(f.to_json_dict()))
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
        (["verify", "--suite", "all", "--trials", "2", "--csv", "x.csv"], "single suite"),
        (["verify", "--suite", "macmahon", "--seed", "-1"], "seed >= 0"),
        (["verify", "--suite", "inverse", "--dim", "1", "--max-degree", "54"], "max_degree <= 53"),
        (["verify", "--suite", "all", "--dim", "1", "--max-degree", "54"], "max_degree <= 53"),
    ),
)
def test_cli_precondition_fails_before_output(argv, message, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("out", (False, True))
def test_cli_moments_dim_must_match_phi(out, tmp_path, capsys):
    phi = tmp_path / "phi.json"
    phi.write_text("[0.5, 0.25]")
    argv = ["compute", "moments", "--dim", "3", "--phi", str(phi), "--order", "4"]
    if out:
        argv += ["--out", str(tmp_path / "moments.json")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must have length 3" in captured.err
    assert not (tmp_path / "moments.json").exists()
    assert cli.main(argv[:2] + argv[4:]) == 0  # without --dim, phi sets it


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


def test_cli_moments_oracle_overflow_fails_before_output(tmp_path, capsys):
    # |phi|^2 = 1e200 is finite, but its square overflows in the order-4 oracle
    phi = tmp_path / "phi.json"
    phi.write_text("[1e100, 0]")
    assert cli.main(["compute", "moments", "--phi", str(phi), "--order", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not finite" in captured.err


def _huge_vector(path) -> str:
    """A d = 2, N = 2 vector file whose every entry is 1e308."""
    comps = {str(n): [1e308] * 2**n for n in range(3)}
    path.write_text(json.dumps({"q": 0.5, "dim": 2, "max_degree": 2, "components": comps}))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    (
        ["wick-mul", "BIG", "BIG"],  # the tensor product overflows
        ["wick-exp", "BIG"],  # so does exp of the vacuum part
        ["norm", "BIG", "--side", "dual", "--r", "1e308"],  # inf * 0.0 in the norm's sum
    ),
    ids=("wick-mul", "wick-exp", "norm"),
)
def test_cli_compute_overflow_prints_one_error_line(argv, tmp_path, capsys):
    # the test run turns qwick's RuntimeWarnings into errors, so a warning
    # numpy raised on the way would fail this test with a traceback
    big = _huge_vector(tmp_path / "big.json")
    assert cli.main(["compute"] + [big if arg == "BIG" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "RuntimeWarning" not in captured.err


@pytest.mark.parametrize("vacuum_part", (13.0, 200.0))
def test_cli_wick_exp_any_vacuum_part(vacuum_part, tmp_path, capsys):
    # exp(a Omega + t e) = e^a sum_k t^k e^(x k) / k!: no radius to certify
    fpath = tmp_path / "f.json"
    vec = {"q": 0.5, "dim": 1, "max_degree": 3, "components": {"0": [vacuum_part], "1": [0.5]}}
    fpath.write_text(json.dumps(vec))
    assert cli.main(["compute", "wick-exp", str(fpath)]) == 0
    out = GradedVector.from_json_dict(json.loads(capsys.readouterr().out))
    for k in range(4):
        want = math.exp(vacuum_part) * 0.5**k / math.factorial(k)
        assert out.component(k)[0] == pytest.approx(want, rel=1e-15)


def test_cli_wick_exp_keeps_components_below_the_tail_tolerance(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    vec = {"q": 0.5, "dim": 2, "max_degree": 4, "components": {"1": [1e-7, 0.0]}}
    fpath.write_text(json.dumps(vec))
    assert cli.main(["compute", "wick-exp", str(fpath)]) == 0
    out = GradedVector.from_json_dict(json.loads(capsys.readouterr().out))
    assert sorted(out.components) == [0, 1, 2, 3, 4]
    for k in range(5):
        want = np.zeros(2**k)
        want[0] = 1e-7**k / math.factorial(k)  # e_1 (x) ... (x) e_1 sits at index 0
        np.testing.assert_allclose(out.component(k), want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "flags, message",
    (
        pytest.param(["--side", "dual", "--weight-base", "q"], "abs_q", id="dual-q-base"),
        pytest.param(["--side", "dual", "--r", "nan"], "r must be >= 1", id="dual-nan-r"),
        pytest.param(["--side", "test", "--r", "nan"], "r must be >= 1", id="test-nan-r"),
        # the dual side once printed |f_0| and the test side blamed an overflow
        pytest.param(["--side", "dual", "--r", "inf"], "r must be >= 1 and finite", id="dual-inf-r"),
        pytest.param(["--side", "test", "--r", "inf"], "r must be >= 1 and finite", id="test-inf-r"),
        pytest.param(["--side", "dual", "--alpha", "nan"], "alpha must be finite", id="dual-nan-alpha"),
        pytest.param(["--side", "dual", "--alpha", "inf"], "alpha must be finite", id="dual-inf-alpha"),
        pytest.param(["--side", "test", "--alpha", "nan"], "alpha must be finite", id="test-nan-alpha"),
        pytest.param(["--side", "test", "--alpha", "inf"], "alpha must be finite", id="test-inf-alpha"),
    ),
)
def test_cli_norm_scale_preconditions(flags, message, tmp_path, capsys):
    from qwick.fock import GradedVector, QContext

    path = tmp_path / "f.json"
    path.write_text(json.dumps(GradedVector.vacuum(QContext(0.5, 2, 3)).to_json_dict()))
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


@pytest.mark.parametrize("key", ("q", "dim", "max_degree", "components"))
def test_cli_vector_file_without_a_key_names_it(key, tmp_path, capsys):
    # a missing key once printed only its KeyError text: "error: 'max_degree'"
    vec = {"q": 0.5, "dim": 1, "max_degree": 2, "components": {"0": [1.0]}}
    del vec[key]
    path = tmp_path / "f.json"
    path.write_text(json.dumps(vec))
    assert cli.main(["compute", "norm", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: vector file has no {key!r} key\n"


@pytest.mark.parametrize(
    "argv",
    (
        pytest.param(["compute", "norm", "{vector}", "--side", "test", "--r", "1e150"], id="test-r"),
        pytest.param(["compute", "norm", "{vector}", "--side", "dual", "--alpha=-1e308"], id="dual-alpha"),
        pytest.param(["verify", "--suite", "theorem43", "--scales", "2:1:400", "--trials", "2"], id="alpha-400"),
        pytest.param(["verify", "--suite", "all", "--scales", "2:1:400", "--trials", "2"], id="all-alpha-400"),
        pytest.param(["verify", "--suite", "theorem43", "--scales", "1e308:1", "--trials", "2"], id="r-1e308"),
        pytest.param(
            ["verify", "--suite", "theorem43", "--scales", "1e308:1", "--max-degree", "1", "--trials", "2"],
            id="norm-sum",
        ),
    ),
)
def test_cli_scale_weight_overflow_is_a_usage_error(argv, tmp_path, capsys):
    # r^n [n]!^alpha past a double once raised OverflowError, a traceback and
    # exit 1; a finite weight whose weighted sum overflows once warned, and
    # theorem43 then passed against an overflowed denominator
    from qwick.fock import GradedVector, QContext

    path = tmp_path / "f.json"
    vector = random_vector(QContext(0.5, 2, 4), np.random.default_rng(0))
    path.write_text(json.dumps(vector.to_json_dict()))
    assert cli.main([arg.format(vector=path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # a weight fixed by the config alone fails before any suite reports
    assert "[pass]" not in captured.err
    assert captured.err.startswith("error: ") and "overflows a double" in captured.err


@pytest.mark.parametrize("suite", ("commutation", "vage"))
def test_cli_scale_weight_overflow_only_stops_theorem43(suite, capsys):
    # commutation reads no scale, and vage checks every pair at exponent 2
    assert cli.main(["verify", "--suite", suite, "--scales", "2:1:400", "--trials", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_cli_verify_past_degree_eight(capsys):
    code = cli.main(["verify", "--suite", "adjointness", "--max-degree", "9", "--trials", "5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


@pytest.mark.parametrize("suite", ("positivity", "commutation", "adjointness"))
def test_cli_verify_past_numpy_axis_limit(suite, capsys):
    # a degree-70 tensor once took 72 axes in slot_sum, past numpy's 64
    argv = ["verify", "--suite", suite, "--dim", "1", "--max-degree", "70", "--trials", "5"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True


def _run_python(args, extra_env=(), **kwargs) -> subprocess.CompletedProcess:
    """Run a child interpreter, which finds the same qwick as this process,
    installed or not; an `extra_env` value of None removes that variable."""
    src = str(Path(qwick.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key, value in dict(extra_env).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, **kwargs)


def _run_cli(argv, extra_env=(), **kwargs) -> subprocess.CompletedProcess:
    return _run_python(["-m", "qwick.cli", *argv], extra_env, **kwargs)


def test_console_script_runs():
    result = _run_cli(["verify", "--suite", "hermite", "--trials", "1"])
    assert result.returncode == 0
    assert json.loads(result.stdout)["pass"] is True


FREEZE_PROBE = """
import gc
import qwick.cli
assert gc.get_freeze_count() == 0, "import froze the heap"
argv = ["compute", "moments", "--order", "2"]
assert qwick.cli.main(argv) == 0
frozen = gc.get_freeze_count()
assert frozen > 0, "main froze nothing"
live = [{"entry": [i]} for i in range(10000)]
assert qwick.cli.main(argv) == 0
assert gc.get_freeze_count() == frozen, "a second main froze again"
"""


def test_main_freezes_the_heap_once_per_process():
    result = _run_python(["-c", FREEZE_PROBE])
    assert result.returncode == 0, result.stderr


def test_cli_stdout_through_a_pipe_arrives_whole(tmp_path):
    # about 600 KB, more than a pipe buffer, written while teardown skips the frozen heap
    rng = np.random.default_rng(4)
    ctx = fock.QContext(0.5, 4, 7)
    vec = GradedVector(ctx, {n: (0.01 * rng.standard_normal(4**n)).tolist() for n in range(8)})
    path = tmp_path / "v.json"
    path.write_text(json.dumps(vec.to_json_dict()))
    result = _run_cli(["compute", "wick-exp", str(path)])
    assert result.returncode == 0, result.stderr
    stored = GradedVector.from_json_dict(json.loads(path.read_text()))
    expected = json.dumps(wick_exp(stored).to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert len(expected) > 1 << 19
    assert result.stdout == expected


def test_cli_report_and_csv_files_arrive_whole(tmp_path):
    out, csv = tmp_path / "report.json", tmp_path / "trials.csv"
    result = _run_cli(["verify", "--suite", "vage", "--trials", "5", "--out", str(out), "--csv", str(csv)])
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    report = run_suite("vage", RunConfig(trials=5))
    expected = json.dumps(report.to_json_dict(), indent=2, sort_keys=True, allow_nan=True) + "\n"
    assert out.read_bytes() == expected.encode()
    expected_csv = tmp_path / "expected.csv"
    report.write_csv(str(expected_csv))
    assert csv.read_bytes() == expected_csv.read_bytes()


def test_cli_usage_error_reaches_stderr():
    too_deep = str(EXACT_INVERSE_DEGREE + 1)
    result = _run_cli(["verify", "--suite", "inverse", "--dim", "1", "--max-degree", too_deep])
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and result.stderr.endswith("\n")


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
NO_THREAD_SETTING = dict.fromkeys(BLAS_THREAD_VARIABLES)


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "--suite", "positivity", "--max-degree", "8"],
        ["verify", "--suite", "duality", "--dim", "3", "--max-degree", "5", "--q", "-0.7",
         "--seed", "2", "--trials", "30"],
    ),
    ids=("positivity", "duality"),
)
def test_reports_do_not_depend_on_the_core_count(argv):
    # threaded OpenBLAS rounds these two reports by the host's core count
    unset = _run_cli(argv, NO_THREAD_SETTING)
    one_thread = _run_cli(argv, {**NO_THREAD_SETTING, "OPENBLAS_NUM_THREADS": "1"})
    assert unset.returncode == one_thread.returncode == 0
    assert unset.stdout == one_thread.stdout


ENVIRON_PROBE = """
import ctypes, os
before = dict(os.environ)
import qwick
getenv = ctypes.CDLL(None).getenv
getenv.argtypes, getenv.restype = [ctypes.c_char_p], ctypes.c_char_p
assert dict(os.environ) == before, "os.environ changed"
assert getenv(b"OPENBLAS_NUM_THREADS") == os.environb.get(b"OPENBLAS_NUM_THREADS")
"""


@pytest.mark.parametrize("preset", (None, "3"), ids=("unset", "caller-set"))
def test_import_leaves_the_environment_unchanged(preset):
    result = _run_python(["-c", ENVIRON_PROBE], {**NO_THREAD_SETTING, "OPENBLAS_NUM_THREADS": preset})
    assert result.returncode == 0, result.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_import_starts_no_blas_worker():
    probe = "import os, qwick; print(len(os.listdir('/proc/self/task')))"
    result = _run_python(["-c", probe], NO_THREAD_SETTING)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


ADDRESS_SPACE_LIMIT = 512 << 20  # bytes; numpy loads within it, the inputs below do not fit


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))


@pytest.mark.parametrize(
    "argv",
    (
        pytest.param(
            ["verify", "--suite", "adjointness", "--max-degree", "40", "--trials", "1"],
            id="verify-degree-40",
        ),
        # dim ** (order // 2) is 1 here, so the eigensolver cap lets it through
        pytest.param(["compute", "moments", "--dim", "10000000000", "--order", "1"], id="moments-dim-1e10"),
    ),
)
def test_cli_out_of_memory_is_a_usage_error(argv):
    # the address-space limit makes the allocation fail before it touches memory;
    # one BLAS thread keeps the import's own reservations under the limit
    result = _run_cli(
        argv, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, preexec_fn=_limit_address_space
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: too large to allocate")


def test_readme_library_example_runs():
    # a name the README still uses after it left the package fails here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", text, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
