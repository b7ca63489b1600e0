"""Span recorder for traced passes.

Wraps the public functions of each qwick layer in every module that binds
them: `from .fock import apply_pq` copies the name into scales, suites and
others, so patching fock alone would miss those callers.  Spans stay in
memory (id, parent id, group id, name, start, end, work count) and are
written out once, at exit, with their self time.  The group of a span is the
suite run or CLI call it belongs to.

Hot scalar helpers (q_integer, q_factorial, count_crossings, inversions) run
more than 100k times per pass and are left unwrapped, so the wrappers stay
cheap; their time counts toward the caller's self time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time


def _entries_out(result) -> int:
    return sum(arr.size for arr in result.components.values())


# module -> {function: work counter on the result, or None}
LAYERS = {
    "qcombinatorics": {"crossing_polynomial": sum, "macmahon_residual": None},
    "fock": {
        "creation_matrix": None,
        "annihilation_matrix": None,
        "commutation_residual": None,
        "pq_matrix": None,
        "pq_spectrum": None,
        "apply_pq": len,
        "q_inner": None,
        "create": None,
        "annihilate": None,
    },
    "wick": {
        "moment": None,
        "wick_monomial": None,
        "wick_mul_poly": None,
        "field_mul": None,
        "vacuum_vector": None,
    },
    "scales": {
        "graded_tensor": _entries_out,
        "f_dual_norm": None,
        "g_norm": None,
        "lemma53_residual": None,
        "saturating_dual_partner": None,
    },
    "series": {"wick_inverse": None, "wick_exp": None, "certify_radius": None, "wick_series": None},
    "suites": {"run_suite": None},
    "cli": {"main": None},
}
# spans of these start a new group; run_suite spans are named per suite
GROUP_ROOTS = {"suites.run_suite", "cli.main"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[tuple[int, int]] = []  # (span id, group id)
        self._ids = itertools.count()

    def wrap(self, name: str, fn, counter):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        group_root = name in GROUP_ROOTS
        per_suite = name == "suites.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent, group = stack[-1] if stack else (-1, sid)
            if group_root:
                group = sid
            stack.append((sid, group))
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                label = f"suites.{args[0]}" if per_suite else name
                count = counter(result) if counter and result is not None else 0
                spans.append([sid, parent, group, label, start, end, count])

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def install(self) -> None:
        """Replace each listed function by its wrapper wherever qwick binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "qwick" or n.startswith("qwick.")]
        for short, names in LAYERS.items():
            home = sys.modules[f"qwick.{short}"]
            for fname, counter in names.items():
                original = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def finished_spans(self) -> list[list]:
        """Spans as [id, parent, group, name, start, end, self_s, count]; a
        span's self time is its duration minus that of its child spans."""
        in_children: dict[int, float] = {}
        for sid, parent, _group, _name, start, end, _count in self.spans:
            in_children[parent] = in_children.get(parent, 0.0) + (end - start)
        return [
            [sid, parent, group, name, start, end, end - start - in_children.get(sid, 0.0), count]
            for sid, parent, group, name, start, end, count in self.spans
        ]
