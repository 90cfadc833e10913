"""Command line entry point.

``chernforms verify <scenario|all>`` runs the named scenario's checks and
writes a JSON or markdown report. The exit status reflects only gating
checks; informational scenarios may fail without failing the run. Invalid
settings (a negative seed, a non-positive quadrature order, a tolerance
scale that is not positive and finite) exit with status 2 before any
check runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .report import emit_report
from .scenarios import SCENARIO_NAMES, ScenarioConfig, run_scenario


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chernforms")
    sub = parser.add_subparsers(dest="command", required=True)
    verify = sub.add_parser("verify", help="run a verification scenario")
    verify.add_argument("scenario", choices=(*SCENARIO_NAMES, "all"))
    verify.add_argument("--seed", type=int, default=0, help="scenario RNG seed")
    verify.add_argument(
        "--tol-scale", type=float, default=1.0, help="multiply every tolerance"
    )
    verify.add_argument(
        "--quad-order",
        type=int,
        default=None,
        help="override the order of the compact box and fiber quadratures "
        "(default: per-check tuned orders; env CHERNFORMS_QUAD_ORDER also works)",
    )
    verify.add_argument("--format", choices=("json", "markdown"), default="json")
    verify.add_argument("--out", default=None, help="write the report to a file")
    return parser


def _config(args) -> ScenarioConfig:
    quad_order = args.quad_order
    if quad_order is None:
        env = os.environ.get("CHERNFORMS_QUAD_ORDER")
        if env:
            try:
                quad_order = int(env)
            except ValueError:
                raise ValueError(f"CHERNFORMS_QUAD_ORDER is not an integer: {env!r}") from None
    return ScenarioConfig(seed=args.seed, tol_scale=args.tol_scale, quad_order=quad_order)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config(args)
    except ValueError as exc:
        parser.exit(2, f"chernforms: error: {exc}\n")
    names = SCENARIO_NAMES if args.scenario == "all" else (args.scenario,)
    results = []
    for name in names:
        results.extend(run_scenario(name, config))
    payload = emit_report(results, format=args.format, scenario=args.scenario, seed=args.seed)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.write(b"\n")
    return 0 if all(r.passed for r in results if r.gating) else 1


if __name__ == "__main__":
    raise SystemExit(main())
