"""Gibbs rescaling between measurement operators and prepared states.

Houses the rescaling map, the effective potential, and the generalized
free-energy / work differences built from it. The package works in the
energy eigenbasis throughout, so every Hamiltonian is diagonal and is
passed as its 1-D real vector of energies, such as ``OscillatorMode.energies``;
beta below 1e-6 is rejected because the effective potential degenerates there.
A rank-one X = |v><v| may be passed as the ``PureState`` v: the map then
returns a ``PureState`` and the effective potential reads the weights |v|^2,
with no d x d array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMapError, DimensionError, DomainError
from .fock import DensityState, HilbertSpace, PureState

BETA_MIN = 1e-6
#: support weight threshold, relative to the largest diagonal entry
SUPPORT_RTOL = 1e-14
#: smallest shifted normalizer Tr[exp(-beta (H - E_0)) X] the map accepts
MIN_NORMALIZER = 1e-300

BOUNDS_SLACK = 1e-10


@dataclass(frozen=True)
class EffectivePotentialValue:
    """-(1/beta) ln Tr[exp(-beta H) X] together with the support bounds of X.

    For unit-weight X (states, rank-1 projectors) the value lies between the
    smallest and largest energies carrying weight in X; a general X shifts
    both bounds by -ln(total weight)/beta.
    """

    value: float
    beta: float
    e_min: float
    e_max: float
    weight_sum: float

    def __post_init__(self):
        shift = -np.log(self.weight_sum) / self.beta
        if not (self.e_min + shift - BOUNDS_SLACK
                <= self.value
                <= self.e_max + shift + BOUNDS_SLACK):
            raise ValueError(
                f"effective potential {self.value} violates support bounds "
                f"[{self.e_min + shift}, {self.e_max + shift}]"
            )

    def __float__(self) -> float:
        return self.value


def _as_matrix(op) -> np.ndarray:
    return op.matrix if hasattr(op, "matrix") else np.asarray(op, dtype=complex)


def _energies(h) -> np.ndarray:
    """``h`` checked as an energy vector: 1-D, real and finite."""
    energies = np.asarray(h)
    if energies.ndim != 1 or energies.dtype.kind not in "iuf":
        raise DimensionError(f"H must be a 1-D real energy vector, got "
                             f"{energies.dtype} of shape {energies.shape}")
    if not np.isfinite(energies).all():
        raise ValueError("energies must be finite")
    return energies


def _check_beta(beta: float) -> float:
    if beta < BETA_MIN:
        raise DomainError(f"beta must be >= {BETA_MIN}, got {beta}")
    return float(beta)


def gibbs_map(x, h, beta: float):
    """Map a measurement operator to its prepared state:
    T(exp(-beta H/2) X exp(-beta H/2)), normalized to unit trace.

    A ``PureState`` psi stands for X = |psi><psi| and maps to the
    ``PureState`` phi = conj(w psi) / ||w psi||, w = exp(-beta H/2): that
    state is positive by construction, so nothing is diagonalized. Any other
    X maps to a ``DensityState``, checked as one. The exponentials are
    shifted by the ground energy before normalization, so only a genuinely
    vanishing Tr[exp(-beta H) X] raises DegenerateMapError.
    """
    beta = _check_beta(beta)
    energies = _energies(h)
    pure = isinstance(x, PureState)
    xm = x.amplitudes if pure else _as_matrix(x)
    if xm.shape[0] != energies.size:
        raise DimensionError(f"dim mismatch {xm.shape[0]} vs {energies.size}")
    w = np.exp(-beta * (energies - energies.min()) / 2.0)
    if pure:
        mapped = w * xm
        norm = np.vdot(mapped, mapped).real
    else:
        mapped = np.multiply(xm.T, w[None, :], order="C")   # (w_b x_ba) w_a, C-ordered
        mapped *= w[:, None]
        norm = np.trace(mapped).real
    if not norm > MIN_NORMALIZER:
        raise DegenerateMapError(
            f"Tr[exp(-beta H) X] vanished (shifted normalizer {norm:.3e})"
        )
    space = x.space if hasattr(x, "space") else HilbertSpace(xm.shape[0], "mapped")
    if pure:
        return PureState(space, mapped.conj() / np.sqrt(norm))
    return DensityState(space, mapped / norm)


def effective_potential(beta: float, h, x) -> EffectivePotentialValue:
    """Effective potential -(1/beta) ln Tr[exp(-beta H) X].

    Only the diagonal of X contributes against a diagonal H: for a
    ``PureState`` v, X = |v><v|, its weights are |v|^2. The log-trace is
    taken as a max-shifted sum of exponentials so chi up to ~50 stays finite.
    """
    beta = _check_beta(beta)
    energies = _energies(h)
    if isinstance(x, PureState):   # the diagonal of |v><v|, entry by entry
        weights = (x.amplitudes * x.amplitudes.conj()).real
    else:
        weights = np.clip(np.real(np.diag(_as_matrix(x))), 0.0, None)
    if weights.size != energies.size:
        raise DimensionError(f"dim mismatch {weights.size} vs {energies.size}")
    total = weights.sum()
    if not total > 0:
        raise DegenerateMapError("X carries no weight on any energy level")
    # sum over the support only, shifted by its largest exponent: an
    # unweighted low level would push every weighted term below the double floor
    held = weights > 0
    exponents = -beta * energies[held]
    shift = exponents.max()
    log_trace = float(shift + np.log((weights[held] * np.exp(exponents - shift)).sum()))
    if not np.isfinite(log_trace):
        raise DegenerateMapError("Tr[exp(-beta H) X] underflowed to zero")
    support = weights > SUPPORT_RTOL * weights.max()
    return EffectivePotentialValue(
        value=-log_trace / beta,
        beta=beta,
        e_min=float(energies[support].min()),
        e_max=float(energies[support].max()),
        weight_sum=float(total),
    )


def gen_free_energy_diff(beta: float, h_i, x_i, h_f, x_f) -> float:
    """Generalized free-energy change: Etilde(final) - Etilde(initial)."""
    return (effective_potential(beta, h_f, x_f).value
            - effective_potential(beta, h_i, x_i).value)


def gen_work_diff(beta: float, h_battery, x_initial, x_final) -> float:
    """Generalized work supplied by the battery:
    Etilde(prepared side) - Etilde(measured side)."""
    return (effective_potential(beta, h_battery, x_initial).value
            - effective_potential(beta, h_battery, x_final).value)
