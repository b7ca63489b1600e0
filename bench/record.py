"""Record the reference outputs that cli.report_bytes_changed compares against.

    python3 bench/record.py --seeds 0-63

Runs one untraced pass of every workload for each seed and writes
bench/reference.json: the digest of every output (one per suite report, one
per compute call) and the two compute-cold norm values.  Run it at the commit
whose outputs are the reference, and again after changing a workload: a
workload whose recorded signature differs from the current one is not
compared.  A pass that fails the correctness gate is not recorded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range FIRST-LAST")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    env = workloads.child_env(run.ROOT)
    workdir = run.ROOT / ".bench_build" / "bench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for workload in workloads.WORKLOADS:
            seeds = {}
            for seed in range(first, last + 1):
                inputs = workloads.prepare(workload, seed, workdir)
                procs = workloads.run_pass(workloads.calls(workload, seed), workdir, env, trace=False)
                _, failures, _ = run.judge(workload, procs, inputs, None, {})
                if failures:
                    print(f"{workload} seed {seed}: not recorded: {failures}", file=sys.stderr)
                    return 1
                entry = {"digests": run.output_digests(procs)}
                norms = {p.call.op: json.loads(p.output)["norm"] for p in procs if p.call.op.startswith("norm-")}
                if norms:
                    entry["norms"] = norms
                seeds[str(seed)] = entry
            reference[workload] = {"signature": workloads.signature(workload), "seeds": seeds}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
