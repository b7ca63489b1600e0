"""The benchmark's workloads and the execution of one pass of each.

A pass runs its CLI calls one after another, each in a fresh interpreter (a
closed loop with one client), because a CLI user pays for qwick's lazy
caches on every invocation.  Every child is timed from spawn to exit, and
its CPU time and peak RSS come from wait4.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import inputs

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
CALIBRATE = BENCH_DIR / "calibrate.py"
CALL_TIMEOUT_S = 150.0

# verify-default is the headline config; verify-deep is the only one that
# reaches the cold degree-7/8 symmetrizer builds over 8! permutations.
VERIFY = {
    "verify-default": {"q": 0.5, "dim": 2, "max_degree": 6, "trials": 40},
    "verify-deep": {"q": 0.5, "dim": 2, "max_degree": 8, "trials": 12},
}
COMPUTE = "compute-cold"
WORKLOADS = (*VERIFY, COMPUTE)


@dataclass(frozen=True)
class Call:
    """One CLI invocation: an operation name for the gate, its arguments, the
    input files it reads and the file it writes."""

    op: str
    argv: tuple[str, ...]
    reads: tuple[str, ...]
    out: str


def _norm_call(op: str) -> Call:
    spec = gate.NORM_CALLS[op]
    argv = ("compute", "norm", "left.json", "--side", spec["side"], "--r", str(spec["r"]),
            "--alpha", str(spec["alpha"]), "--weights", spec["weights"], "--out", f"{op}.json")
    return Call(op, argv, ("left.json",), f"{op}.json")


def calls(workload: str, seed: int) -> list[Call]:
    if workload in VERIFY:
        cfg = VERIFY[workload]
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--out", "report.json"]
        for key, value in cfg.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        return [Call("verify", tuple(argv), (), "report.json")]
    return [
        Call("wick-mul", ("compute", "wick-mul", "left.json", "right.json", "--out", "wick-mul.json"),
             ("left.json", "right.json"), "wick-mul.json"),
        Call("wick-inv", ("compute", "wick-inv", "left.json", "--out", "wick-inv.json"),
             ("left.json",), "wick-inv.json"),
        Call("wick-exp", ("compute", "wick-exp", "expin.json", "--out", "wick-exp.json"),
             ("expin.json",), "wick-exp.json"),
        _norm_call("norm-dual"),
        _norm_call("norm-test"),
        Call("moments", ("compute", "moments", "--q", str(inputs.Q), "--order", str(gate.MOMENT_ORDER),
                         "--dim", str(gate.MOMENT_DIM), "--phi", "phi.json", "--out", "moments.json"),
             ("phi.json",), "moments.json"),
    ]


def signature(workload: str) -> str:
    """What a recorded reference depends on besides the seed."""
    if workload in VERIFY:
        return json.dumps(VERIFY[workload], sort_keys=True)
    return json.dumps(
        {"q": inputs.Q, "dim": inputs.DIM, "max_degree": inputs.MAX_DEGREE,
         "argv": [c.argv for c in calls(COMPUTE, 0)]}
    )


def prepare(workload: str, seed: int, workdir: Path) -> dict:
    """Write the workload's input files; return them parsed, for the gate."""
    if workload != COMPUTE:
        return {}
    data = inputs.make_compute_inputs(seed)
    for name, value in data.items():
        (workdir / name).write_text(json.dumps(value, sort_keys=True))
    return data


@dataclass
class Proc:
    """What one child process did."""

    call: Call
    exit_code: int
    setup_s: float
    wall_s: float
    cpu_s: float
    rss_mb: float
    output: bytes
    bytes_in: int
    bytes_out: int
    meta: dict


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment with qwick's thread setting unset and bytecode
    caching on, as for an installed CLI."""
    env = dict(os.environ)
    env.pop("QWICK_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_call(call: Call, workdir: Path, env: dict, trace: bool) -> Proc:
    meta_path = workdir / "meta.json"
    out_path = workdir / call.out
    for stale in (meta_path, out_path):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(meta_path), "1" if trace else "0", *call.argv]
    with open(workdir / "stdout.txt", "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        meta = {}
    output = out_path.read_bytes() if out_path.exists() else b""
    return Proc(
        call=call,
        exit_code=proc.returncode,
        # a child that never got qwick imported spent its whole life in set-up
        setup_s=meta.get("ready", end) - start,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        output=output,
        bytes_in=sum((workdir / name).stat().st_size for name in call.reads),
        bytes_out=len(output) + (workdir / "stdout.txt").stat().st_size,
        meta=meta,
    )


def run_pass(pass_calls: list[Call], workdir: Path, env: dict, trace: bool) -> list[Proc]:
    return [run_call(call, workdir, env, trace) for call in pass_calls]


def warm_up(workdir: Path, env: dict) -> None:
    """One small untimed call, so every pass finds qwick's bytecode compiled
    and its files in the page cache."""
    run_call(Call("warm-up", ("verify", "--suite", "hermite", "--trials", "1"), (), "warm.json"),
             workdir, env, trace=False)


def calibrate(workdir: Path, env: dict) -> float:
    """Seconds from spawn to exit of calibrate.py's fixed work."""
    start = time.monotonic()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would add to the time
    subprocess.run([sys.executable, str(CALIBRATE)], cwd=workdir, env=env, check=True)
    return time.monotonic() - start
