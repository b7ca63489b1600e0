import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gate
import inputs
import run
import workloads
import qwick.cli

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

TINY_VERIFY = workloads.Call(
    "verify",
    ("verify", "--suite", "all", "--trials", "2", "--max-degree", "3", "--seed", "7", "--out", "report.json"),
    (),
    "report.json",
)


def _small_compute_outputs(tmp_path, monkeypatch, seed=3):
    """Run every compute-cold call in process on d=2, N=3 inputs; return the
    parsed inputs and each call's output bytes."""
    data = inputs.make_compute_inputs(seed, dim=2, max_degree=3)
    for name, value in data.items():
        (tmp_path / name).write_text(json.dumps(value))
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for call in workloads.calls(workloads.COMPUTE, seed):
        assert qwick.cli.main(list(call.argv)) == 0
        outputs[call.op] = (tmp_path / call.out).read_bytes()
    return data, outputs


def test_names_match_the_benchmark_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [*workloads.WORKLOADS, *run.END_TO_END, *run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_inputs_are_seeded():
    a = inputs.make_compute_inputs(5, dim=2, max_degree=3)
    assert a == inputs.make_compute_inputs(5, dim=2, max_degree=3)
    assert a != inputs.make_compute_inputs(6, dim=2, max_degree=3)
    exp_in = gate.components(a["expin.json"])
    assert gate.norm_dual_side(exp_in, inputs.Q, 2, 1.0, 2.0) == pytest.approx(inputs.EXP_DUAL_NORM)


def test_symmetrizer_reference_matches_its_matrix():
    from qwick.fock import pq_matrix

    t = np.random.default_rng(0).standard_normal(27)
    assert np.allclose(gate.symmetrize(t, 3, 3, -0.4), pq_matrix(3, 3, -0.4) @ t, rtol=0, atol=1e-13)


def test_gate_accepts_program_outputs(tmp_path, monkeypatch):
    data, outputs = _small_compute_outputs(tmp_path, monkeypatch)
    for op, output in outputs.items():
        assert gate.check_compute(op, output, data) is None, op


def test_gate_catches_corrupted_wick_inv(tmp_path, monkeypatch):
    data, outputs = _small_compute_outputs(tmp_path, monkeypatch)
    inverse = json.loads(outputs["wick-inv"])
    inverse["components"]["2"][1] *= 1.0 + 1e-6
    assert "degree" in gate.check_compute("wick-inv", json.dumps(inverse).encode(), data)


def test_gate_checks_verify_reports():
    report = {"suite": "moments", "trials": 9, "pass": True}
    assert gate.check_report(report, "moments", 9, 2, 6) is None
    assert "trials" in gate.check_report(report, "moments", 10, 2, 6)
    assert "pass" in gate.check_report({**report, "pass": False}, "moments", 9, 2, 6)
    assert gate.check_report(None, "moments", 9, 2, 6) == "no report"


def _verify_proc(exit_code: int, failing: tuple[str, ...]) -> workloads.Proc:
    cfg = workloads.VERIFY["verify-default"]
    reports = [
        {"suite": name, "pass": name not in failing,
         "trials": gate.expected_trials(name, cfg["trials"], cfg["dim"], cfg["max_degree"])}
        for name in gate.SUITE_NAMES
    ]
    call = workloads.calls("verify-default", 1)[0]
    return workloads.Proc(call, exit_code, 0.1, 1.0, 1.0, 40.0, json.dumps(reports).encode(), 0, 0, {})


def test_a_failing_suite_counts_once():
    attempted, failures, _ = run.judge("verify-default", [_verify_proc(1, ("moments",))], {}, None, {})
    assert attempted == len(gate.SUITE_NAMES)
    assert failures == ["moments: pass is False"]
    assert run.judge("verify-default", [_verify_proc(0, ())], {}, None, {})[1] == []
    # an exit code that no failing report explains fails every suite
    for code in (1, 2):
        assert len(run.judge("verify-default", [_verify_proc(code, ())], {}, None, {})[1]) == len(gate.SUITE_NAMES)


def test_tracing_is_transparent(tmp_path):
    env = workloads.child_env(ROOT)
    plain = workloads.run_call(TINY_VERIFY, tmp_path, env, trace=False)
    traced = workloads.run_call(TINY_VERIFY, tmp_path, env, trace=True)
    assert plain.exit_code == traced.exit_code == 0
    assert plain.output == traced.output
    assert "spans" not in plain.meta
    layers = run.layer_metrics([traced])
    assert {f"suites.{name}.wall_s" for name in gate.SUITE_NAMES} <= set(layers)
    assert layers["fock.pq_matrix.builds"] == traced.meta["caches"]["pq_matrix"]["misses"] > 0
    for _sid, parent, group, _name, start, end, self_s, _count in traced.meta["spans"]:
        assert end >= start and -1e-6 <= self_s <= end - start + 1e-9
        assert parent == -1 or group >= 0


def test_passes_alternate_and_are_scaled_by_calibration(tmp_path):
    env = workloads.child_env(ROOT)
    passes, cal = run.run_passes([TINY_VERIFY], tmp_path, env, until=0.0, trace=True)
    assert [one.traced for one in passes] == [False, True]
    assert len(cal) == 3 and min(cal) > 0
    for i, one in enumerate(passes):
        assert one.scale == pytest.approx(run.CAL_REFERENCE_S * 2 / (cal[i] + cal[i + 1]))


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
