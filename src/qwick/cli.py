"""Batch entry point: run verification suites and compute on stored vectors.

Exit codes: 0 success / all checks pass, 1 a suite reported violations,
2 usage, config, parse, or precondition errors, or a problem too large to
allocate.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .fock import (
    EIGENSOLVER_CAP,
    GradedVector,
    QContext,
    as_one_particle,
    basis_vector,
    json_numbers,
    json_value,
    unique_keys,
)
from .scales import WEIGHT_BASES, default_hplus_weights, f_dual_norm, g_norm, graded_tensor
from .series import wick_exp, wick_inverse
from .suites import SUITE_NAMES, Report, RunConfig, run_suite, suite_context
from .wick import MAX_MOMENT_ORDER, moments

# verify's settings, in RunConfig's order, each typed by its default: every
# field is a flag (`--max-degree` for max_degree), a config key and an override
SETTINGS = {f.name: type(f.default) for f in dataclasses.fields(RunConfig)}
# compute's vector -> vector operations: name -> (function, input names, help)
VECTOR_OPS = {
    "wick-mul": (graded_tensor, ("left", "right"), "graded tensor product of two stored vectors"),
    "wick-inv": (wick_inverse, ("input",), "tensor-multiplicative inverse"),
    "wick-exp": (wick_exp, ("input",), "tensor exponential"),
}


def _json_out(data: dict | list, path: str | None, allow_nan: bool = False) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=allow_nan)
    if path:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle, object_pairs_hook=unique_keys)


def _scale_pair(parts) -> tuple[float, float, float]:
    """(R, S) or (R, S, ALPHA) as floats; ALPHA defaults to 2."""
    if len(parts) not in (2, 3):
        raise ValueError(f"bad scale spec {parts!r}; expected R:S or R:S:ALPHA")
    r, s, *alpha = map(float, parts)
    return r, s, alpha[0] if alpha else 2.0


def _parse_scales(text: str) -> tuple[tuple[float, float, float], ...]:
    return tuple(_scale_pair(chunk.split(":")) for chunk in text.split(","))


def _config_value(name: str, value):
    """A config file's value of setting name, with the type its flag gives."""
    if name == "scales":
        pairs = json_value(value, list, "config scales")
        return tuple(_scale_pair(json_numbers(p, "config scale pair")) for p in pairs)
    kind = SETTINGS[name]
    return kind(json_value(value, kind, f"config {name}"))


def _config_file(path: str) -> dict:
    """The settings of a JSON config file, with the types the flags give."""
    data = json_value(_load_json(path), dict, "config file")
    unknown = sorted(set(data) - set(SETTINGS))
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}; known: {', '.join(SETTINGS)}")
    return {name: _config_value(name, data[name]) for name in SETTINGS if name in data}


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings = _config_file(args.config) if args.config else {}
    for name in SETTINGS:
        value = getattr(args, name)
        if value is not None:
            settings[name] = _parse_scales(value) if name == "scales" else value
    return RunConfig(**settings)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    if args.csv and len(names) != 1:
        raise ValueError("csv export needs a single suite")
    for name in names:
        suite_context(name, cfg)
    reports: list[Report] = []
    for name in names:
        report = run_suite(name, cfg)
        reports.append(report)
        status = "pass" if report.passed else "FAIL"
        print(
            f"[{status}] suite={report.suite} trials={report.trials} "
            f"max_residual={report.max_residual!r} max_ratio={report.max_ratio!r} "
            f"bound={report.bound!r}",
            file=sys.stderr,
        )
    payload = [r.to_json_dict() for r in reports]
    # a failing suite may record inf, so verify reports keep JSON's extension
    _json_out(payload[0] if len(payload) == 1 else payload, args.out, allow_nan=True)
    if args.csv:
        reports[0].write_csv(args.csv)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_moments(args: argparse.Namespace) -> int:
    if not 0 <= args.order <= MAX_MOMENT_ORDER:
        raise ValueError(f"--order must be in 0..{MAX_MOMENT_ORDER}, got {args.order}")
    dim, phi = args.dim, None
    if args.phi:
        phi = np.asarray(json_numbers(_load_json(args.phi), "--phi"), dtype=float)
        dim = phi.size
    ctx = QContext(args.q, dim, max(1, (args.order + 1) // 2))
    if dim ** (args.order // 2) > EIGENSOLVER_CAP:
        raise ValueError(
            f"--order {args.order} at dim {dim} walks tensors of {dim}**{args.order // 2} "
            f"entries, more than {EIGENSOLVER_CAP}"
        )
    phi = basis_vector(dim, 0) if phi is None else as_one_particle(phi, dim)
    rows = [
        {
            "k": report.order,
            "value": report.value,
            "oracle": report.oracle_value,
            "residual": report.residual,
        }
        for report in moments(phi, args.order, ctx)
    ]
    if not all(math.isfinite(v) for row in rows for v in row.values()):
        raise ValueError("moments are not finite; scale --phi down")
    print("k  value  oracle  residual")
    for row in rows:
        print(f"{row['k']}  {row['value']!r}  {row['oracle']!r}  {row['residual']!r}")
    if args.out:
        _json_out({"q": args.q, "phi": phi.tolist(), "moments": rows}, args.out)
    return 0


def _cmd_vector_op(args: argparse.Namespace) -> int:
    function, inputs, _ = VECTOR_OPS[args.operation]
    vectors = [GradedVector.from_json_dict(_load_json(getattr(args, name))) for name in inputs]
    _json_out(function(*vectors).to_json_dict(), args.out)
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    vec = GradedVector.from_json_dict(_load_json(args.input))
    weights = default_hplus_weights(vec.ctx.dim) if args.weights == "default" else None
    if args.side == "test":
        value = g_norm(vec, args.r, args.alpha, weights, args.weight_base)
    elif args.weight_base != "abs_q":
        raise ValueError("the dual side uses the abs_q weight base")
    else:
        value = f_dual_norm(vec, args.r, args.alpha, weights)
    if not math.isfinite(value):
        raise ValueError(f"norm is not finite: {value!r}")
    print(repr(value))
    if args.out:
        _json_out(
            {
                "norm": value,
                "side": args.side,
                "r": args.r,
                "alpha": args.alpha,
                "weight_base": args.weight_base,
                "weights": args.weights,
            },
            args.out,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwick",
        description="Verification suites and Wick-calculus computations on the "
        "truncated q-deformed Fock space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES + ("all",))
    for name, kind in SETTINGS.items():
        flag = "--" + name.replace("_", "-")
        if name == "scales":  # parsed by _build_config, so a bad spec is a config error
            verify.add_argument(flag, help="R:S:ALPHA pairs, comma separated")
        else:
            verify.add_argument(flag, type=kind)
    verify.add_argument("--config", default=None, help="JSON config file; flags override")
    verify.add_argument("--out", default=None, help="write the JSON report here")
    verify.add_argument("--csv", default=None, help="write per-trial values here")
    verify.set_defaults(func=_cmd_verify)

    compute = sub.add_parser("compute", help="evaluate an operation on stored vectors")
    ops = compute.add_subparsers(dest="operation", required=True)

    moments = ops.add_parser("moments", help="vacuum moments against the pairing oracle")
    moments.add_argument("--q", type=float, default=0.5)
    moments.add_argument("--dim", type=int, default=2)
    moments.add_argument("--order", type=int, default=8)
    moments.add_argument("--phi", default=None, help="JSON list with the test vector")
    moments.add_argument("--out", default=None)
    moments.set_defaults(func=_cmd_moments)

    for name, (_, inputs, text) in VECTOR_OPS.items():
        op = ops.add_parser(name, help=text)
        for input_name in inputs:
            op.add_argument(input_name)
        op.add_argument("--out", default=None)
        op.set_defaults(func=_cmd_vector_op)

    norm = ops.add_parser("norm", help="weighted scale norm of a stored vector")
    norm.add_argument("input")
    norm.add_argument("--side", choices=("test", "dual"), default="dual")
    norm.add_argument("--r", type=float, default=1.0)
    norm.add_argument("--alpha", type=float, default=2.0)
    norm.add_argument("--weight-base", choices=WEIGHT_BASES, default="abs_q")
    norm.add_argument("--weights", choices=("none", "default"), default="none")
    norm.add_argument("--out", default=None)
    norm.set_defaults(func=_cmd_norm)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: too large to allocate: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
