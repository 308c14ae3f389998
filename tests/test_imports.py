"""What a qflux process loads: no scipy on the import path, and nothing new
on the first sample, Q and effective-potential calls.

Runs in a fresh interpreter, since this session's ``sys.modules`` already
holds whatever other tests imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import qflux

SCRIPT = """
import json, sys
from fractions import Fraction

import numpy as np

import qflux.cli
from qflux import dynamics as dyn, fock, gibbs
from qflux.scenarios import _binomial_battery_state

loaded = set(sys.modules)
scipy = sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))

# the crooks-binomial suites' 4 x 12 model and operators
battery = dyn.SwitchedBattery(12, dyn.battery_spacing_for(1, Fraction(3, 2)))
model = dyn.build_joint_model(1, Fraction(3, 2), 4, battery)
u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 7)
h_b = battery.energies
x_b = _binomial_battery_state(battery, 3, 0.4, dyn.SECTOR_FINAL)
rho_b = gibbs.gibbs_map(_binomial_battery_state(battery, 3, 0.6, dyn.SECTOR_INITIAL), h_b, 1.0)
gamma = fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)
x_s = fock.OperatorMatrix(model.system_mode(0).space, np.eye(model.system_cutoff))
eye_b = fock.OperatorMatrix(battery.space, np.eye(battery.dim))
dyn.q_quantity((x_s, x_b), (gamma, rho_b), u, model)   # vector battery factors
dyn.q_quantity((x_s, eye_b), (gamma, gibbs.gibbs_map(eye_b, h_b, 1.0)), u, model)   # diagonal ones
gibbs.effective_potential(1.0, h_b, x_b)
gibbs.effective_potential(1.0, h_b, x_b.projector())

print(json.dumps({"scipy": scipy, "new": sorted(set(sys.modules) - loaded)}))
"""


def test_no_scipy_and_no_lazy_imports_in_calls():
    src = str(Path(qflux.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    loaded = json.loads(out.stdout.splitlines()[-1])
    assert loaded == {"scipy": [], "new": []}
