"""The qwick benchmark: end-to-end and per-layer cost of the qwick CLI.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 30 --trace 0

Run from the root of a qwick checkout; it needs numpy and nothing else.  Each
pass runs the workload's CLI calls one at a time, each in a fresh interpreter
spawned by this process, for as many passes as fit in --seconds.  Every
output goes through the correctness gate (gate.py).

Workloads (workloads.py):
  verify-default  `verify --suite all` at q=0.5, d=2, N=6, 40 trials: the
                  headline config; moments, graded_tensor and commutation
                  dominate, the symmetrizer is cheap.
  verify-deep     the same at d=2, N=8, 12 trials: the only workload with cold
                  degree-7/8 symmetrizer builds over 8! permutations.
  compute-cold    wick-mul, wick-inv, wick-exp, dual and test norm, and
                  moments --order 12 --dim 3, one process each, on seeded
                  d=4, N=7 vectors (about 450 KB of JSON each): single-shot,
                  large-tensor and I/O-heavy, with a 4096^2 dense symmetrizer.

The host's speed drifts with other tenants' load, so a fixed calibration
child (calibrate.py) runs before the first pass and after each, and every
time a pass reports is scaled to a reference host speed by the calibration
times around it (CAL_REFERENCE_S).  Unscaled times and calibration times go
to the result record.

With --trace 0 the last line of stdout is one JSON object holding the
end-to-end metrics, medians over the passes; with --trace 1 untraced and
traced passes alternate, and it holds the per-layer metrics.  The lines
before it name every metric with its unit, the failed fraction of operations
and the environment; the full record, seed included, goes to
.bench_build/bench/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import gate
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# The host's speed drifts by up to 2x over minutes, with other tenants'
# load.  Each pass's times are therefore divided by the time calibrate.py
# took around it and multiplied by this: seconds on a host where calibrate.py
# takes 0.4 s from spawn to exit, about its median on a 2-vCPU x86_64 VM.
CAL_REFERENCE_S = 0.4

_TIMED = [
    "qcombinatorics.crossing_polynomial",
    "qcombinatorics.macmahon_residual",
    "fock.creation_matrix",
    "fock.annihilation_matrix",
    "fock.commutation_residual",
    "fock.pq_matrix",
    "fock.pq_spectrum",
    "fock.apply_pq",
    "fock.q_inner",
    "fock.create",
    "fock.annihilate",
    "wick.moment",
    "wick.wick_monomial",
    "wick.wick_mul_poly",
    "wick.field_mul",
    "wick.vacuum_vector",
    "scales.graded_tensor",
    "scales.f_dual_norm",
    "scales.g_norm",
    "scales.lemma53_residual",
    "scales.saturating_dual_partner",
    "series.wick_inverse",
    "series.wick_exp",
    "series.certify_radius",
    "series.wick_series",
    "cli.main",
]
PER_LAYER = {f"{name}.self_s": "s" for name in _TIMED}
PER_LAYER.update(
    {
        "qcombinatorics.crossing_polynomial.calls": "count",
        "qcombinatorics.pair_partitions": "count",
        "wick.moment.calls": "count",
        "fock.pq_matrix.builds": "count",
        "fock.apply_pq.calls": "count",
        "fock.apply_pq.entries": "count",
        "scales.graded_tensor.calls": "count",
        "scales.graded_tensor.entries_out": "count",
        "cli.bytes_in": "bytes",
        "cli.bytes_out": "bytes",
        "cli.report_bytes_changed": "count",
        "trace.overhead_frac": "ratio",
    }
)
PER_LAYER.update({f"suites.{name}.wall_s": "s" for name in gate.SUITE_NAMES})
# work counts recorded on spans, under the metric names they are published as
_WORK_COUNTS = {
    "qcombinatorics.crossing_polynomial": "qcombinatorics.pair_partitions",
    "fock.apply_pq": "fock.apply_pq.entries",
    "scales.graded_tensor": "scales.graded_tensor.entries_out",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


@dataclass
class Pass:
    """The processes of one pass, and the factor that scales its times to the
    reference host speed: CAL_REFERENCE_S over the mean of the calibration
    times just before and just after it."""

    traced: bool
    procs: list
    scale: float = 1.0


def pass_metrics(procs, scale: float = 1.0) -> dict[str, float]:
    return {
        "wall_s": scale * sum(p.wall_s for p in procs),
        "setup_s": scale * sum(p.setup_s for p in procs),
        "cpu_s": scale * sum(p.cpu_s for p in procs),
        "peak_rss_mb": max(p.rss_mb for p in procs),
    }


def layer_metrics(procs, scale: float = 1.0) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its processes, with
    times scaled by `scale`."""
    out: dict[str, float] = defaultdict(float)
    for proc in procs:
        for _sid, _parent, _group, name, start, end, self_s, count in proc.meta.get("spans", ()):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += scale * self_s
            out[f"{name}.wall_s"] += scale * (end - start)
            if name in _WORK_COUNTS:
                out[_WORK_COUNTS[name]] += count
        out["fock.pq_matrix.builds"] += proc.meta.get("caches", {}).get("pq_matrix", {}).get("misses", 0)
        out["cli.bytes_in"] += proc.bytes_in
        out["cli.bytes_out"] += proc.bytes_out
    return out


def load_reference(workload: str, seed: int) -> dict | None:
    """Digests and norms that record.py wrote for this seed, if any."""
    try:
        data = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None
    entry = data.get(workload)
    if not entry or entry.get("signature") != workloads.signature(workload):
        return None
    return entry["seeds"].get(str(seed))


def output_digests(procs) -> dict[str, str]:
    """Digest of every output of a pass: one per suite report, one per
    compute call."""
    out = {}
    for proc in procs:
        if proc.call.op == "verify":
            for report in gate.split_reports(proc.output):
                out[report["suite"]] = gate.report_digest(report)
        else:
            out[proc.call.op] = gate.digest(proc.output)
    return out


def judge(workload: str, procs, inputs: dict, recorded: dict | None, memo: dict):
    """Gate one pass: (operations attempted, failure messages, outputs whose
    bytes differ from the recorded digests)."""
    attempted, failures = 0, []
    for proc in procs:
        op = proc.call.op
        exit_problem = f"exit code {proc.exit_code}" if proc.exit_code != 0 else None
        if op == "verify":
            cfg = workloads.VERIFY[workload]
            reports = {r["suite"]: r for r in gate.split_reports(proc.output)}
            suite_problems = {
                name: gate.check_report(reports.get(name), name, cfg["trials"], cfg["dim"], cfg["max_degree"])
                for name in gate.SUITE_NAMES
            }
            # verify exits 1 when some suite fails: that suite's own report
            # carries the failure, the others stand as they are
            if proc.exit_code == 1 and any(suite_problems.values()):
                exit_problem = None
            for name, why in suite_problems.items():
                attempted += 1
                why = exit_problem or why
                if why:
                    failures.append(f"{name}: {why}")
            continue
        attempted += 1
        key = (op, gate.digest(proc.output))
        if key not in memo:
            memo[key] = gate.check_compute(op, proc.output, inputs)
            if memo[key] is None and recorded and op in recorded.get("norms", {}):
                memo[key] = gate.check_recorded_norm(proc.output, recorded["norms"][op])
        why = exit_problem or memo[key]
        if why:
            failures.append(f"{op}: {why}")
    digests = recorded["digests"] if recorded else {}
    changed = sum(d != digests[k] for k, d in output_digests(procs).items() if k in digests)
    return attempted, failures, changed


def _openblas_threads() -> int | None:
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(last_pass) -> dict:
    src = ROOT / "src" / "qwick"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "qwick_threads": "unset",
        "src_qwick_lines": sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))),
        "lazy_caches_at_exit": {p.call.op: p.meta.get("caches") for p in last_pass},
    }


def run_passes(calls, workdir, env, until: float, trace: bool) -> tuple[list[Pass], list[float]]:
    """Passes until the next one would end after `until`, with a calibration
    before the first and after each, and the calibration times.
    With `trace` the passes alternate untraced and traced, so both see the
    same host, and there is at least one of each."""
    passes, cal, longest = [], [workloads.calibrate(workdir, env)], 0.0
    while len(passes) < 1 + trace or time.monotonic() + longest <= until:
        begin = time.monotonic()
        traced = trace and len(passes) % 2 == 1
        passes.append(Pass(traced, workloads.run_pass(calls, workdir, env, traced)))
        cal.append(workloads.calibrate(workdir, env))
        longest = max(longest, time.monotonic() - begin)
    for i, one in enumerate(passes):
        one.scale = CAL_REFERENCE_S / ((cal[i] + cal[i + 1]) / 2)
    return passes, cal


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def per_layer_metrics(untraced: list[Pass], traced: list[Pass], changed: int) -> dict:
    """Medians over the traced passes, the tracing overhead as the median
    ratio of each traced pass to the untraced pass before it, and the count
    of changed outputs."""
    layers = [layer_metrics(t.procs, t.scale) for t in traced]
    ratios = [
        pass_metrics(t.procs, t.scale)["wall_s"] / pass_metrics(u.procs, u.scale)["wall_s"]
        for u, t in zip(untraced, traced)
    ]
    out = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_frac":
            value = statistics.median(ratios) - 1.0 if ratios else 0.0
        elif name == "cli.report_bytes_changed":
            value = changed
        else:
            value = statistics.median(layer.get(name, 0.0) for layer in layers)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "qwick" / "cli.py").is_file():
        print(f"error: no qwick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_build" / "bench"
    workdir = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path, out_dir: Path) -> int:
    env = workloads.child_env(ROOT)
    calls = workloads.calls(args.workload, args.seed)
    inputs = workloads.prepare(args.workload, args.seed, workdir)
    recorded = load_reference(args.workload, args.seed)
    workloads.warm_up(workdir, env)

    passes, cal = run_passes(calls, workdir, env, time.monotonic() + args.seconds, bool(args.trace))
    untraced = [one for one in passes if not one.traced]
    traced = [one for one in passes if one.traced]

    memo: dict = {}
    attempted, failures, changed = 0, [], []
    for one in passes:
        n, why, diff = judge(args.workload, one.procs, inputs, recorded, memo)
        attempted += n
        failures += why
        changed.append(diff)

    e2e = [pass_metrics(one.procs, one.scale) for one in untraced]
    raw = [pass_metrics(one.procs) for one in untraced]
    summary = {name: quartiles([m[name] for m in e2e]) for name in END_TO_END}
    metrics = {name: {"value": summary[name][1], "unit": unit} for name, unit in END_TO_END.items()}
    lines = [f"{args.workload} seed={args.seed}: {len(untraced)} untraced and {len(traced)} traced passes; "
             f"times scaled to calibrate.py taking {CAL_REFERENCE_S} s"]
    lines += [
        f"  {name:<12} {q2:.6g} {END_TO_END[name]}  (median of {len(e2e)}; quartiles {q1:.6g} .. {q3:.6g})"
        for name, (q1, q2, q3) in summary.items()
    ]
    lines.append(f"  unscaled wall_s {statistics.median(m['wall_s'] for m in raw):.6g} s and "
                 f"cpu_s {statistics.median(m['cpu_s'] for m in raw):.6g} s; calibration "
                 f"{statistics.median(cal):.6g} s (median of {len(cal)})")
    failed_frac = len(failures) / attempted
    lines.append(f"  {'failed_frac':<12} {failed_frac:.6g} ratio  ({len(failures)} of {attempted} operations)")
    if args.trace:
        metrics = per_layer_metrics(untraced, traced, max(changed))
        lines += [f"  {name:<44} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    if recorded is None:
        lines.append("  no reference recorded for this seed: cli.report_bytes_changed counts nothing")
    lines += [f"  FAILED {why}" for why in failures[:20]]
    env_record = environment(untraced[-1].procs)
    lines.append("env " + json.dumps(env_record, sort_keys=True))

    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    (out_dir / "results").mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env_record, "failures": failures, "passes": e2e, "unscaled_passes": raw,
              "calibration_s": cal, "result": result}
    (out_dir / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
