"""Every name ``qflux`` exports has a user.

``qflux verify --seed 2024`` runs under ``sys.setprofile``. An export passes
if the run enters one of its functions (for a class, one defined in its
body), if it is an exception class some ``raise`` in the package raises, or
if ``ALLOWED`` names the acceptance criterion or ROADMAP item that runs or
owns it. Entries only leave ``ALLOWED``: one that the run enters or that no
longer exists fails the gate until it is removed.
"""

import ast
import sys
import types
from pathlib import Path

import pytest

import qflux
from qflux import cli

ALLOWED = {
    "QfluxError": "ROADMAP item 6: the base of every exit-3 error, caught by cli.main",
    "conditional_photon_number": "acceptance criteria 2 and 9a; ROADMAP item 8",
    "number_operator": "acceptance criterion 2",
    "min_cutoff_for_tail": "acceptance criterion 2; ROADMAP item 10",
    "expectation": "acceptance criterion 6a",
    "gen_work_align": "acceptance criterion 10",
    "gen_work_align_expansion": "acceptance criterion 10",
    "gen_work_size": "acceptance criterion 10",
    "gen_work_size_expansion": "acceptance criterion 10",
    "work_distribution": "ROADMAP item 1: perfbench's tracer hooks it",
    "BinomialParams": "ROADMAP item 10",
    "partition_fn": "ROADMAP item 10",
    "binomial_energy": "ROADMAP item 10",
    "binomial_eff_potential": "ROADMAP item 10",
    "coherent_eff_potential": "ROADMAP items 10 and 12",
}


def _exports() -> dict:
    return {name: value for name, value in vars(qflux).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def _code_objects(value) -> set:
    """The code of a function, or of every function a class body defines
    (methods, static and class methods, property getters)."""
    members = vars(value).values() if isinstance(value, type) else [value]
    functions = [getattr(m, "__func__", getattr(m, "fget", m)) for m in members]
    return {f.__code__ for f in functions if hasattr(f, "__code__")}


def _raised_names() -> set:
    """The names every ``raise`` statement in the package raises."""
    names = set()
    for path in Path(qflux.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", getattr(exc, "attr", None)))
    return names


@pytest.fixture(scope="module")
def used(tmp_path_factory):
    """The exports that ``verify`` enters, or that are raised exception classes."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    out = tmp_path_factory.mktemp("verify")
    sys.setprofile(profile)
    try:
        status = cli.main(["verify", "--seed", "2024", "--out", str(out)])
    finally:
        sys.setprofile(None)
    assert status in (cli.EXIT_PASS, cli.EXIT_VERIFICATION_FAILURE)
    raised = _raised_names()
    return {name for name, value in _exports().items()
            if _code_objects(value) & entered
            or (isinstance(value, type) and issubclass(value, BaseException) and name in raised)}


def test_every_export_is_run_raised_or_allowed(used):
    unused = sorted(set(_exports()) - used - set(ALLOWED))
    assert unused == [], "exported, but verify never runs them and ALLOWED names no owner"


def test_allowed_entries_are_exported_and_unused(used):
    stale = sorted(name for name in ALLOWED if name not in _exports() or name in used)
    assert stale == [], "remove these from ALLOWED: they are run or no longer exported"
