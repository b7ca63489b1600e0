"""Run one qwick CLI call in a fresh interpreter, for the benchmark.

    python3 child.py META TRACE ARG...

Calls qwick.cli.main(ARG...) and exits with its code.  At exit it writes META
as JSON: the monotonic time at which qwick.cli was imported and ready to parse
arguments, the state of qwick's lazy caches, and with TRACE=1 the spans
recorded around every layer call.
"""

import json
import sys
import time

import qwick.cli

READY = time.monotonic()


def _cache_state() -> dict:
    from qwick import fock, scales

    state = {}
    for name, fn in (
        ("pq_matrix", fock.pq_matrix),
        ("perm_actions", fock._perm_actions),
        ("weight_power", scales._weight_power),
    ):
        info = fn.cache_info()
        state[name] = {"misses": info.misses, "hits": info.hits, "size": info.currsize}
    return state


def main() -> int:
    meta_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    meta: dict = {"ready": READY}
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return qwick.cli.main(argv)
    finally:
        meta["caches"] = _cache_state()
        if tracer is not None:
            meta["spans"] = tracer.finished_spans()
        with open(meta_path, "w") as handle:
            json.dump(meta, handle, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
