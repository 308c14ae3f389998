"""Benchmark workloads: what each one runs through qflux's public API, and
which verdict each report case is expected to carry.

Every workload is closed-loop: one process runs one job at a time. A job
takes its qflux seed from the benchmark's ``--seed`` and writes every report
into one output directory, which :func:`check` reads back afterwards.

This module imports qflux only inside :func:`prepare`, so run.py can list
the workloads without loading the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify", "ft-large", "transitions", "figures")

#: suites run by ``qflux verify``, in its order
VERIFY_SUITES = ("global-ft", "figure2", "figure3", "figure4", "sweep",
                 "harmonic-limit", "crooks-binomial-align",
                 "crooks-binomial-size", "crooks-added", "crooks-subtracted",
                 "jarzynski")

#: suites whose by-design failures make ``qflux verify`` exit 1 (README,
#: "Three checks fail by design"); sorted
BY_DESIGN_FAILING = ("crooks-added", "crooks-subtracted", "jarzynski")

CROOKS_KINDS = ("crooks-added", "crooks-subtracted")

#: global-ft as run by verify: its default case count and deviation bound
FT_CASES = 200
FT_MAX_ABS_DEV = 1e-8

TRANSITION_CHIS = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
JARZYNSKI_CHIS = (0.1, 0.25, 0.5, 1.0)

#: the documented chi range of the closed forms, and the figure grid size
CHI_RANGE = (1e-6, 50.0)
FIGURE_POINTS = 4000


def figure_chi_grid(seed: int) -> tuple[float, ...]:
    """FIGURE_POINTS log-spaced points on CHI_RANGE, shifted by a fraction of
    one grid step drawn from ``seed``: every seed gets a different grid of
    the same size."""
    import numpy as np

    lo, hi = CHI_RANGE
    shift = float(np.random.default_rng(seed).random())
    span = math.log(hi / lo)
    return tuple(min(hi, lo * math.exp(span * (k + shift) / FIGURE_POINTS))
                 for k in range(FIGURE_POINTS))


def suites(name: str, seed: int) -> list[tuple[str, dict]]:
    """(kind, config overrides) for every suite the workload runs through
    ``run_scenario``; ``verify`` runs its suites through the CLI instead."""
    if name == "verify":
        return [(kind, {}) for kind in VERIFY_SUITES]
    if name == "ft-large":
        # one forward/reverse check at joint dimension 2*12*48 = 1152, all of
        # it through dense q_quantity
        return [("crooks-binomial-align",
                 {"system_cutoff": 12, "ladder_dim": 48, "chi_grid": (0.5,),
                  "n_grid": (2, 4)})]
    if name == "transitions":
        crooks = {"system_cutoff": 16, "ladder_dim": 96,
                  "chi_grid": TRANSITION_CHIS}
        return [("crooks-added", crooks), ("crooks-subtracted", crooks),
                ("jarzynski", {"system_cutoff": 12, "ladder_dim": 128,
                               "chi_grid": JARZYNSKI_CHIS})]
    if name == "figures":
        grid = {"chi_grid": figure_chi_grid(seed)}
        return [(kind, grid) for kind in ("figure2", "figure3", "figure4", "sweep")]
    raise ValueError(f"unknown workload {name!r}")


def prepare(name: str, seed: int, out: Path) -> Callable[[], dict]:
    """Build everything the workload needs and return its job. The job runs
    the timed section and returns what it observed: the CLI exit code for
    ``verify`` and, per suite, the exception a suite raised."""
    if name == "verify":
        from qflux import cli

        argv = ["verify", "--seed", str(seed), "--out", str(out)]

        def job() -> dict:
            try:
                return {"exit_code": cli.main(argv), "raised": {}}
            except Exception as exc:  # counted as a failed run by check()
                return {"exit_code": None,
                        "raised": {"verify": f"{type(exc).__name__}: {exc}"}}
        return job

    from qflux import scenarios

    configs = [scenarios.default_config(kind, seed=seed, out_dir=str(out), **overrides)
               for kind, overrides in suites(name, seed)]

    def job() -> dict:
        raised = {}
        for config in configs:
            try:
                scenarios.run_scenario(config)
            except Exception as exc:  # counted as a failed suite by check()
                raised[config.kind] = f"{type(exc).__name__}: {exc}"
        return {"raised": raised}
    return job


def expected_pass(kind: str, key: str) -> bool:
    """The verdict a case should carry: the crooks ratio cases and the
    jarzynski averages fail by design, everything else passes."""
    if kind in CROOKS_KINDS:
        return False
    if kind == "jarzynski":
        return not key.endswith("-average")
    return True


def check(name: str, seed: int, out: Path, observed: dict) -> dict:
    """Read back the reports of one job and count verdicts.

    ``attempted`` counts every report case plus every suite run (and the
    verify run itself); ``failed`` counts those that raised, gave a verdict
    other than :func:`expected_pass`, or broke a suite-level condition.
    """
    attempted = failed = 0
    problems: list[str] = []
    cases: dict[str, int] = {}
    failing_suites = []
    ft_attempts = 0

    def fail(message: str) -> None:
        nonlocal failed
        failed += 1
        problems.append(message)

    for kind, _ in suites(name, seed):
        attempted += 1
        path = out / f"{kind}.json"
        if kind in observed["raised"] or not path.is_file():
            fail(f"{kind}: {observed['raised'].get(kind, 'no report written')}")
            continue
        report = json.loads(path.read_text())
        rows = report["cases"]
        cases[kind] = len(rows)
        attempted += len(rows)
        wrong = [c["key"] for c in rows if c["passed"] != expected_pass(kind, c["key"])]
        if wrong:
            failed += len(wrong)
            problems.append(f"{kind}: {len(wrong)} cases with an unexpected "
                            f"verdict, first {wrong[0]}")
        if not rows:
            fail(f"{kind}: no cases")
        if not report["summary"]["all_passed"]:
            failing_suites.append(kind)
        if kind == "global-ft":
            ft_attempts = report["provenance"]["attempts"]
            if {c["key"] for c in rows} != {f"case-{i:04d}" for i in range(FT_CASES)}:
                fail("global-ft: case keys differ from case-0000..case-0199")
            if not report["summary"]["max_abs_dev"] < FT_MAX_ABS_DEV:
                fail(f"global-ft: max_abs_dev {report['summary']['max_abs_dev']} "
                     f">= {FT_MAX_ABS_DEV}")

    if name == "verify":
        attempted += 1
        if "verify" in observed["raised"]:
            fail(f"verify raised {observed['raised']['verify']}")
        elif observed["exit_code"] != 1 or tuple(sorted(failing_suites)) != BY_DESIGN_FAILING:
            fail(f"verify: exit code {observed['exit_code']} with failing suites "
                 f"{sorted(failing_suites)}; expected 1 with {list(BY_DESIGN_FAILING)}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "cases": cases, "ft_attempts": ft_attempts}
