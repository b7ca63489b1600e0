"""Batch entry point: run verification suites and compute on stored vectors.

Exit codes: 0 success / all checks pass, 1 a suite reported violations,
2 usage, config, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .fock import GradedVector, QContext, as_one_particle, basis_vector
from .qcombinatorics import PAIRING_CAP
from .scales import NormScale, WeightedSpace, default_hplus_weights, f_dual_norm, g_norm, graded_tensor
from .series import wick_exp, wick_inverse
from .suites import SUITE_NAMES, Report, RunConfig, run_suite
from .wick import moment

COMPUTE_COMMANDS = ("moments", "wick-mul", "wick-inv", "wick-exp", "norm")


def _json_out(data: dict | list, path: str | None, allow_nan: bool = False) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=allow_nan)
    if path:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _parse_scales(text: str) -> tuple[tuple[float, float, float], ...]:
    scales = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) == 2:
            r, s, alpha = float(parts[0]), float(parts[1]), 2.0
        elif len(parts) == 3:
            r, s, alpha = (float(p) for p in parts)
        else:
            raise ValueError(f"bad scale spec {chunk!r}; expected R:S or R:S:ALPHA")
        scales.append((r, s, alpha))
    return tuple(scales)


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if args.config:
        file_cfg = _load_json(args.config)
        for key in ("q", "dim", "max_degree", "trials", "seed"):
            if key in file_cfg:
                settings[key] = file_cfg[key]
        if "scales" in file_cfg:
            settings["scales"] = tuple(tuple(map(float, s)) for s in file_cfg["scales"])
    for key, value in (
        ("q", args.q),
        ("dim", args.dim),
        ("max_degree", args.max_degree),
        ("trials", args.trials),
        ("seed", args.seed),
    ):
        if value is not None:
            settings[key] = value
    if args.scales is not None:
        settings["scales"] = _parse_scales(args.scales)
    return RunConfig(**settings)


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
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
        if len(reports) != 1:
            print("csv export needs a single suite", file=sys.stderr)
            return 2
        reports[0].write_csv(args.csv)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_moments(args: argparse.Namespace) -> int:
    if not 0 <= args.order <= PAIRING_CAP + 1:
        raise ValueError(f"--order must be in 0..{PAIRING_CAP + 1}, got {args.order}")
    dim, phi = args.dim, None
    if args.phi:
        phi = np.asarray(_load_json(args.phi), dtype=float).reshape(-1)
        dim = phi.size
    ctx = QContext(args.q, dim, max(1, (args.order + 1) // 2))
    phi = basis_vector(dim, 0) if phi is None else as_one_particle(phi, dim)
    rows = []
    print("k  value  oracle  residual")
    for k in range(args.order + 1):
        report = moment(phi, k, ctx)
        rows.append(
            {
                "k": k,
                "value": report.value,
                "oracle": report.oracle_value,
                "residual": report.residual,
            }
        )
        print(f"{k}  {report.value!r}  {report.oracle_value!r}  {report.residual!r}")
    if args.out:
        _json_out({"q": args.q, "phi": phi.tolist(), "moments": rows}, args.out)
    return 0


def _cmd_wick_mul(args: argparse.Namespace) -> int:
    left = GradedVector.from_json_dict(_load_json(args.left))
    right = GradedVector.from_json_dict(_load_json(args.right))
    _json_out(graded_tensor(left, right).to_json_dict(), args.out)
    return 0


def _cmd_wick_inv(args: argparse.Namespace) -> int:
    vec = GradedVector.from_json_dict(_load_json(args.input))
    _json_out(wick_inverse(vec).to_json_dict(), args.out)
    return 0


def _cmd_wick_exp(args: argparse.Namespace) -> int:
    vec = GradedVector.from_json_dict(_load_json(args.input))
    _json_out(wick_exp(vec, s=args.s).to_json_dict(), args.out)
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    vec = GradedVector.from_json_dict(_load_json(args.input))
    scale = NormScale(args.r, args.alpha, args.weight_base, args.side)
    weights = default_hplus_weights(vec.ctx.dim) if args.weights == "default" else None
    space = WeightedSpace(vec.ctx, scale, weights)
    value = g_norm(vec, space) if args.side == "test" else f_dual_norm(vec, space)
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
    verify.add_argument("--q", type=float, default=None)
    verify.add_argument("--dim", type=int, default=None)
    verify.add_argument("--max-degree", type=int, default=None)
    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--scales", default=None, help="R:S:ALPHA pairs, comma separated")
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

    mul = ops.add_parser("wick-mul", help="graded tensor product of two stored vectors")
    mul.add_argument("left")
    mul.add_argument("right")
    mul.add_argument("--out", default=None)
    mul.set_defaults(func=_cmd_wick_mul)

    inv = ops.add_parser("wick-inv", help="tensor-multiplicative inverse")
    inv.add_argument("input")
    inv.add_argument("--out", default=None)
    inv.set_defaults(func=_cmd_wick_inv)

    exp = ops.add_parser("wick-exp", help="tensor exponential")
    exp.add_argument("input")
    exp.add_argument("--s", type=float, default=1.0)
    exp.add_argument("--out", default=None)
    exp.set_defaults(func=_cmd_wick_exp)

    norm = ops.add_parser("norm", help="weighted scale norm of a stored vector")
    norm.add_argument("input")
    norm.add_argument("--side", choices=("test", "dual"), default="dual")
    norm.add_argument("--r", type=float, default=1.0)
    norm.add_argument("--alpha", type=float, default=2.0)
    norm.add_argument("--weight-base", choices=("q", "abs_q"), default="abs_q")
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


if __name__ == "__main__":
    sys.exit(main())
