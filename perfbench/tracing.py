"""Span tracing of qflux's layers, installed from outside the package.

Each layer is a set of public callables. :class:`Tracer` replaces the module
attributes through which qflux's own modules look those callables up (for
example ``qflux.dynamics.q_quantity``, which ``scenarios`` calls as
``dyn.q_quantity``); the package-level re-exports in ``qflux`` itself are
left alone. A call made while a span of the same layer is open, such as one
closed-form function calling another, runs unwrapped inside that span, so
``calls`` counts calls into a layer from outside it.

A span records its layer, start, end, parent span, the suite it ran in and
one computed amount (bytes, flops). Spans stay in memory until the workload
ends; :meth:`Tracer.write` then writes them out and :func:`summarize` reduces
them to per-layer metrics. A layer's self time is its spans' duration minus
the time their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

from workloads import CROOKS_KINDS, VERIFY_SUITES

#: bytes of one complex128 entry, and real flops of one complex multiply-add
COMPLEX_BYTES = 16
COMPLEX_MAC_FLOPS = 8


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _q_flops(args, kwargs, result):
    """Two dense complex d x d products: X @ U and rho @ U^dag."""
    d = _arg(args, kwargs, 2, "u").matrix.shape[0]
    return 2 * COMPLEX_MAC_FLOPS * d ** 3


def _u_bytes(args, kwargs, result):
    return COMPLEX_BYTES * result.matrix.shape[0] ** 2


def _file_bytes(args, kwargs, result):
    return Path(result).stat().st_size


def _read_bytes(args, kwargs, result):
    return Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _text_bytes(args, kwargs, result):
    return len(result.encode())


#: layer -> [(module, attribute, amount function or None)]; "closedform"
#: takes every public function of qflux.closedform
TARGETS = {
    "dynamics.build": [("qflux.dynamics", "build_joint_model", None),
                       ("qflux.dynamics", "spectral_blocks", None)],
    "dynamics.sample": [("qflux.dynamics", "sample_conserving_unitary", _u_bytes),
                        ("qflux.dynamics", "sample_translation_invariant_unitary",
                         _u_bytes)],
    "dynamics.q": [("qflux.dynamics", "q_quantity", _q_flops)],
    "dynamics.transition": [("qflux.dynamics", "transition_probability", None),
                            ("qflux.dynamics", "conditional_photon_number", None)],
    "dynamics.work": [("qflux.dynamics", "work_distribution", None)],
    "gibbs.map": [("qflux.gibbs", "gibbs_map", None)],
    "gibbs.potential": [("qflux.gibbs", "effective_potential", None)],
    "fock.state": [("qflux.fock", name, None)
                   for name in ("thermal_state", "photon_added_state",
                                "photon_subtracted_state", "binomial_state",
                                "coherent_state")],
    "closedform": [],
    "scenarios.report": [("qflux.scenarios", "VerificationReport.to_json", _text_bytes),
                         ("qflux.scenarios", "VerificationReport.write", _file_bytes)],
    "scenarios.csv": [("qflux.scenarios", "write_csv", _file_bytes),
                      ("qflux.scenarios", "read_csv", _read_bytes)],
    "scenarios.runner": [("qflux.scenarios", "run_scenario", None)],
    "scenarios.verify": [("qflux.scenarios", "verify_all", None)],
    "cli": [("qflux.cli", "main", None)],
}
LAYERS = tuple(TARGETS)

#: layer -> (metric suffix, unit) of the summed span amount
AMOUNTS = {"dynamics.sample": ("u_bytes", "B"), "dynamics.q": ("flops", "flop"),
           "scenarios.report": ("bytes", "B"), "scenarios.csv": ("bytes", "B")}

RUNNER = LAYERS.index("scenarios.runner")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric :func:`summarize` returns."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.calls", "count", "lower"))
        metrics.append((f"{layer}.self_s", "s", "lower"))
        if layer in AMOUNTS:
            suffix, unit = AMOUNTS[layer]
            metrics.append((f"{layer}.{suffix}", unit, "lower"))
    metrics += [(f"scenarios.suite.{kind}_s", "s", "lower") for kind in VERIFY_SUITES]
    metrics += [("scenarios.ft.yield", "share", "higher"),
                ("scenarios.crooks.yield", "share", "higher"),
                ("trace.overhead_s", "s", "lower"),
                ("trace.covered_share", "share", "higher")]
    return metrics


def _closedform_targets():
    module = importlib.import_module("qflux.closedform")
    return [("qflux.closedform", name, None) for name, value in sorted(vars(module).items())
            if callable(value) and not isinstance(value, type) and not name.startswith("_")
            and getattr(value, "__module__", None) == module.__name__]


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, start, end, parent, suite, amount]
        self.suites: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer_id, layer in enumerate(LAYERS):
            targets = _closedform_targets() if layer == "closedform" else TARGETS[layer]
            for module_name, attr, amount in targets:
                owner = importlib.import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, name)
                wrapper = self._wrap(original, layer_id, amount)
                self._patch(owner, name, wrapper)
                if path:
                    continue
                # names that other qflux modules imported directly (cli imports
                # run_scenario and verify_all from scenarios)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name.startswith("qflux.") and module is not owner:
                        for other, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, other, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _suite_id(self, kind: str) -> int:
        if kind not in self.suites:
            self.suites.append(kind)
        return self.suites.index(kind)

    def _wrap(self, fn, layer_id: int, amount):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_runner = layer_id == RUNNER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == layer_id:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            suite = (self._suite_id(args[0].kind) if is_runner
                     else spans[parent][4] if stack else -1)
            span = [layer_id, 0.0, 0.0, parent, suite, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if amount is not None:
                span[5] = amount(args, kwargs, result)
            return result
        return traced

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"layers": list(LAYERS), "suites": self.suites,
                                    "spans": self.spans}))


def summarize(doc: dict, cases: dict, ft_attempts: int, traced_wall: float,
              untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from written spans plus the traced job's report
    counts (``cases`` per suite, global-ft ``ft_attempts``)."""
    layers, suites, spans = doc["layers"], doc["suites"], doc["spans"]
    child = [0.0] * len(spans)
    for layer, start, end, parent, suite, amount in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = [0] * len(layers)
    self_s = [0.0] * len(layers)
    amounts = [0] * len(layers)
    suite_s = dict.fromkeys(VERIFY_SUITES, 0.0)
    crooks_candidate_calls = 0
    for (layer, start, end, parent, suite, amount), covered in zip(spans, child):
        calls[layer] += 1
        self_s[layer] += end - start - covered
        amounts[layer] += amount
        if layers[layer] == "scenarios.runner":
            suite_s[suites[suite]] += end - start
        if (layers[layer] == "dynamics.transition" and suite >= 0
                and suites[suite] in CROOKS_KINDS):
            crooks_candidate_calls += 1
    metrics: dict[str, float] = {}
    for i, layer in enumerate(layers):
        metrics[f"{layer}.calls"] = calls[i]
        metrics[f"{layer}.self_s"] = self_s[i]
        if layer in AMOUNTS:
            metrics[f"{layer}.{AMOUNTS[layer][0]}"] = amounts[i]
    for kind in VERIFY_SUITES:
        metrics[f"scenarios.suite.{kind}_s"] = suite_s[kind]
    ft_cases = cases.get("global-ft", 0)
    metrics["scenarios.ft.yield"] = ft_cases / ft_attempts if ft_attempts else 0.0
    # the crooks runners compute one forward and one reverse transition
    # probability per candidate (ratio, chi, level) triple
    crooks_cases = sum(cases.get(kind, 0) for kind in CROOKS_KINDS)
    candidates = crooks_candidate_calls / 2
    metrics["scenarios.crooks.yield"] = crooks_cases / candidates if candidates else 0.0
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.covered_share"] = sum(self_s) / traced_wall
    return metrics
