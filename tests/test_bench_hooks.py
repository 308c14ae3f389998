"""The qflux names the benchmark's tracer hooks into still exist.

``perfbench/tracing.py`` wraps qflux module attributes and reads a sampled
unitary through ``ConservingUnitary.matrix``. The perfbench tests are not
collected with these, so without this guard a change that dropped one of
those names would fail only a traced benchmark run. The module is loaded
from its file without writing bytecode next to it.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from qflux import dynamics as dyn
from qflux import fock, scenarios

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))      # tracing imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_reads_a_sampled_unitary(monkeypatch):
    tracing = load_tracing(monkeypatch)
    originals = (dyn.sample_conserving_unitary, dyn.sample_translation_invariant_unitary,
                 dyn.q_quantity, scenarios.read_csv)
    battery = dyn.SwitchedBattery(12, dyn.battery_spacing_for(1, 2))
    model = dyn.build_joint_model(1, 2, 4, battery)
    gamma = fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)
    blocks = dyn.spectral_blocks(model)
    eye_b = np.eye(battery.dim, dtype=complex)
    # reach 9 on a 20-level ladder: the middle level 9 is interior
    wide = dyn.build_joint_model(1, 2, 3, dyn.SwitchedBattery(20, battery.spacing))
    wide_blocks = dyn.spectral_blocks(wide)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert dyn.q_quantity is not originals[2]
        u = dyn.sample_conserving_unitary(blocks, 7)
        x = (np.eye(model.system_cutoff), eye_b)
        args = (x, (gamma, eye_b / battery.dim), u, model)
        q = dyn.q_quantity(*args)
        v = dyn.sample_translation_invariant_unitary(wide, wide_blocks, (9, 9), 7)
    finally:
        tracer.uninstall()
    assert (dyn.sample_conserving_unitary, dyn.sample_translation_invariant_unitary,
            dyn.q_quantity, scenarios.read_csv) == originals
    assert abs(q - 1.0) < 1e-12          # Tr[U rho U^dag] of a unit-trace rho
    layers = [tracing.LAYERS[span[0]] for span in tracer.spans]
    amounts = [span[5] for span in tracer.spans]
    assert layers == ["dynamics.sample", "dynamics.q", "dynamics.sample"]
    assert amounts == [tracing._u_bytes((), {}, u), tracing._q_flops(args, {}, q),
                       tracing._u_bytes((), {}, v)]
    assert all(amount > 0 for amount in amounts)
