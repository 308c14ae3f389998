"""Command-line entry points.

Subcommands: verify, figure2, figure3, figure4, sweep, jarzynski. Every run is
deterministic in (--config, --seed); outputs land in --out as CSV + JSON plus
a small gnuplot script for the figure kinds. ``verify`` runs every suite at
its defaults, so only the per-kind subcommands take --config.

Exit codes: 0 pass, 1 verification failure, 2 configuration error,
3 numeric/domain error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, QfluxError
from .scenarios import default_config, run_scenario, verify_all

EXIT_PASS = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qflux",
        description="Verification suites and figure data for bosonic "
                    "fluctuation-relation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="master seed for all stochastic scenarios")
    common.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory (default ./out)")
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the scenario pass tolerance")
    verify = sub.add_parser("verify", parents=[common],
                            help="run every verification suite")
    verify.add_argument("--budget", type=float, default=600.0,
                        help="wall-clock budget in seconds")
    for kind in ("figure2", "figure3", "figure4", "sweep", "jarzynski"):
        run = sub.add_parser(kind, parents=[common], help=f"run the {kind} scenario")
        run.add_argument("--config", type=Path, default=None,
                         help="JSON scenario config (overrides defaults)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            seed = args.seed if args.seed is not None else 2024
            results = verify_all(seed=seed, budget_seconds=args.budget,
                                 out_dir=str(args.out), tolerance=args.tolerance)
            for kind, suite in results["suites"].items():
                summary = suite["summary"]
                flag = "PASS" if summary["all_passed"] else "FAIL"
                print(f"{flag} {kind}: {summary['passed']}/{summary['cases']} "
                      f"cases, max_rel_dev={summary['max_rel_dev']:.3e}")
                if summary["failed"]:
                    worst = max((c for c in suite["cases"] if not c["passed"]),
                                key=lambda c: c["rel_dev"])
                    print(f"     worst case {worst['key']}: "
                          f"simulated={worst['simulated']:.9g} "
                          f"expected={worst['closed_form']:.9g}")
            print(f"elapsed: {results['elapsed_seconds']}s")
            return EXIT_PASS if results["all_passed"] else EXIT_VERIFICATION_FAILURE
        config = default_config(args.command, args.config, seed=args.seed,
                                tolerance=args.tolerance, out_dir=str(args.out))
        report = run_scenario(config)
        summary = report.summary
        flag = "PASS" if report.all_passed else "FAIL"
        print(f"{flag} {report.kind}: {summary['passed']}/{summary['cases']} cases, "
              f"max_rel_dev={summary['max_rel_dev']:.3e}")
        for case in report.failing_cases()[:5]:
            print(f"     failing case {case['key']}: simulated={case['simulated']:.9g} "
                  f"expected={case['closed_form']:.9g}")
        return EXIT_PASS if report.all_passed else EXIT_VERIFICATION_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (QfluxError, ArithmeticError, MemoryError) as exc:
        print(f"numeric error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
