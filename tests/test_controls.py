"""Negative controls: an exact check must fail when a premise it rests on breaks.

``global-ft`` checks ln Q_F - ln Q_R = beta (dW~ - dF~), which follows from
[U, H] = 0 and U = U^T. One ``global-ft`` case is rebuilt here from library
calls at 6 x 12, omega 1 -> 3/2, beta 0.7, with its operators drawn from the
suite's own families, and read through a U that breaks one premise by eps:

- time reversal: every block is exp(i K) with K = (A + A^T) / 2 +
  i eps (B - B^T) / 2, Hermitian but not real, so U != U^T;
- energy conservation: adjacent energy shells are merged pairwise into one
  block, and K's entries between the two shells are scaled by eps.

At eps = 0 the same draw gives a conserving, symmetric U and the check
passes. README ("Negative controls") tabulates the smallest eps each control
is detected at, at seeds 1-3.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_valid, padded_unitary

from qflux import dynamics as dyn
from qflux import gibbs
from qflux import scenarios as sc

BATTERY = dyn.SwitchedBattery(12, dyn.battery_spacing_for(1, Fraction(3, 2)))
MODEL = dyn.build_joint_model(1, Fraction(3, 2), 6, BATTERY)
BETA = 0.7
TOLERANCE = sc.SUITES["global-ft"].tolerance
SEEDS = (1, 2, 3)

#: operators: (system family, ladder family) of global-ft's zoo; energy
#: diagonal positive operators, or a dense system operator beside coherent states
FAMILIES = {"diagonal": (4, 3), "coherent": (5, 2)}
#: control -> the eps it must be detected at, and per operators the smallest
#: decade of eps detected at every seed (README, "Negative controls")
DETECTED = {"time-reversal": (1e-4, {"diagonal": 1e-6, "coherent": 1e-7}),
            "energy-conservation": (1e-2, {"diagonal": 1e-3, "coherent": 1e-6})}


def _exp_i(k):
    lam, vec = np.linalg.eigh(k)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def time_reversal_broken(seed, eps):
    rng = np.random.default_rng(seed)
    pairs = []
    for idx in dyn.spectral_blocks(MODEL):
        a, b = rng.standard_normal((2, idx.size, idx.size))
        pairs.append((idx, _exp_i((a + a.T) / 2 + 0.5j * eps * (b - b.T))))
    return padded_unitary(pairs)


def energy_conservation_broken(seed, eps):
    rng = np.random.default_rng(seed)
    shells = dyn.spectral_blocks(MODEL)
    pairs = []
    for lo in range(0, len(shells), 2):
        idx = np.concatenate(shells[lo:lo + 2])
        a = rng.standard_normal((idx.size, idx.size))
        k = (a + a.T) / 2
        first = shells[lo].size
        k[:first, first:] *= eps
        k[first:, :first] *= eps
        pairs.append((idx, _exp_i(k)))
    return padded_unitary(pairs)


BROKEN = {"time-reversal": time_reversal_broken,
          "energy-conservation": energy_conservation_broken}


def operators(seed, families):
    """X_S^i, X_S^f and X_B^i, X_B^f, each battery operator on its own sector."""
    system, ladder = FAMILIES[families]
    rng = np.random.default_rng([seed, 1])
    x_s = [sc._random_system_operator(rng, MODEL.system_cutoff, system) for _ in range(2)]
    x_b = [sc._on_sector(BATTERY, sc._random_ladder_operator(rng, BATTERY.ladder_dim, ladder),
                         sector) for sector in (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL)]
    return (*x_s, *x_b)


def deviation(u, ops):
    """|ln Q_F - ln Q_R - beta (dW~ - dF~)|, as ``global-ft`` records it."""
    x_s_i, x_s_f, x_b_i, x_b_f = ops
    h_i, h_f = (MODEL.system_mode(s).energies for s in (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL))
    h_b = BATTERY.energies
    rho_s_i = gibbs.gibbs_map(x_s_i, h_i, BETA).matrix
    rho_s_f = gibbs.gibbs_map(x_s_f, h_f, BETA).matrix
    rho_b_i, rho_b_f = (gibbs.gibbs_map(x, h_b, BETA) for x in (x_b_i, x_b_f))
    q_f, q_r = dyn.q_quantity((np.array((x_s_f, x_s_i)), (x_b_f, x_b_i)),
                              (np.array((rho_s_i, rho_s_f)), (rho_b_i, rho_b_f)),
                              u, MODEL).tolist()
    d_f_tilde = gibbs.gen_free_energy_diff(BETA, h_i, x_s_i, h_f, x_s_f)
    d_w_tilde = gibbs.gen_work_diff(BETA, h_b, x_b_i, x_b_f)
    return abs(math.log(q_f) - math.log(q_r) - BETA * (d_w_tilde - d_f_tilde))


CASES = pytest.mark.parametrize("control, families, seed", [
    (control, families, seed) for control in BROKEN for families in FAMILIES for seed in SEEDS])


@CASES
def test_check_passes_unbroken(control, families, seed):
    assert deviation(BROKEN[control](seed, 0.0), operators(seed, families)) <= TOLERANCE


@CASES
def test_check_fails_broken(control, families, seed):
    stated, smallest = DETECTED[control]
    ops = operators(seed, families)
    for eps in (stated, smallest[families]):
        assert deviation(BROKEN[control](seed, eps), ops) > TOLERANCE


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("control, match", [("time-reversal", "symmetric"),
                                            ("energy-conservation", "energies")])
def test_oracle_rejects_broken(control, match, seed):
    with pytest.raises(ValueError, match=match):
        assert_valid(BROKEN[control](seed, DETECTED[control][0]), MODEL)
