"""Truncated single-mode Fock spaces: operators and the state families used throughout.

Everything is dense and expressed in the number (energy) eigenbasis, with
hbar = k_B = 1; a mode's Hamiltonian is diagonal there and is kept as its
energy vector, ``OscillatorMode.energies``. Values are immutable after
construction and safe to share between concurrently evaluated scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionError, TruncationError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
NORM_TOL = 1e-12

DEFAULT_TAIL_TOL = 1e-10
DEFAULT_MAX_CUTOFF = 256


@dataclass(frozen=True)
class HilbertSpace:
    """A finite Hilbert space of dimension ``dim`` with a human-readable label.

    Product spaces record their factor dimensions so tensor bookkeeping stays
    checkable; the product of ``factors`` must equal ``dim``.
    """

    dim: int
    label: str = "space"
    factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1, got {self.dim}")
        if self.factors and math.prod(self.factors) != self.dim:
            raise DimensionError(f"factor dims {self.factors} do not multiply to {self.dim}")


@dataclass(frozen=True)
class OscillatorMode:
    """A truncated bosonic mode: energy quantum ``omega``, Fock levels 0..cutoff-1.

    ``omega`` may be a Fraction when exact energy bookkeeping matters downstream.
    """

    omega: Union[float, Fraction]
    cutoff: int

    def __post_init__(self):
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.cutoff < 1:
            raise ValueError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def space(self) -> HilbertSpace:
        return HilbertSpace(self.cutoff, "system")

    @property
    def energies(self) -> np.ndarray:
        """The Hamiltonian as its diagonal: omega (n + 1/2) for n = 0..cutoff-1."""
        return float(self.omega) * (np.arange(self.cutoff, dtype=float) + 0.5)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex operator on ``space``, expressed in the energy eigenbasis."""

    space: HilbertSpace
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"operator matrix must be square, got {m.shape}")
        if m.shape[0] != self.space.dim:
            raise DimensionError(f"matrix dim {m.shape[0]} != space dim {self.space.dim}")
        if not np.all(np.isfinite(m)):
            raise ValueError("operator entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim


def _check_density(matrix: np.ndarray) -> None:
    if np.abs(matrix - matrix.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = np.trace(matrix).real
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1 beyond 1e-10")
    diagonal = np.diagonal(matrix)   # the spectrum itself when nothing else is nonzero
    least = (diagonal.real.min() if np.count_nonzero(matrix) == np.count_nonzero(diagonal)
             else np.linalg.eigvalsh(matrix).min())
    if least < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {least:.3e}")


@dataclass(frozen=True)
class DensityState:
    """Validated density matrix. ``tail_mass`` records what truncation discarded
    for states of the thermal family (zero for exactly representable states)."""

    space: HilbertSpace
    matrix: np.ndarray
    tail_mass: float = 0.0
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.space.dim, self.space.dim):
            raise DimensionError(f"matrix shape {m.shape} incompatible with dim {self.space.dim}")
        if self.validate:
            _check_density(m)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True)
class PureState:
    """Normalized state vector on ``space``."""

    space: HilbertSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        if v.size != self.space.dim:
            raise DimensionError(f"amplitude count {v.size} != space dim {self.space.dim}")
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {nrm} deviates from 1 beyond 1e-12")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.space.dim

    def projector(self) -> OperatorMatrix:
        return OperatorMatrix(self.space, np.outer(self.amplitudes, self.amplitudes.conj()))

    def density(self) -> DensityState:
        return DensityState(self.space, np.outer(self.amplitudes, self.amplitudes.conj()),
                            validate=False)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------

def number_operator(mode: OscillatorMode) -> OperatorMatrix:
    return OperatorMatrix(mode.space, np.diag(np.arange(mode.cutoff, dtype=float)))


def identity(space: HilbertSpace) -> OperatorMatrix:
    return OperatorMatrix(space, np.eye(space.dim, dtype=complex))


# ---------------------------------------------------------------------------
# thermal-family states
# ---------------------------------------------------------------------------

def _family_tail(x: float, d: int, kind: str) -> float:
    """Weight a geometric-family state keeps beyond cutoff d, as a share of
    the whole untruncated state, in x = exp(-beta*omega)."""
    if kind == "thermal":
        # sum_{n>=d} x^n / sum_{n>=0} x^n = x^d
        return x ** d
    if kind == "added":
        # sum_{m>=d} m x^m = x^d (d(1-x)+x)/(1-x)^2 ; full = x/(1-x)^2
        return x ** (d - 1) * (d * (1 - x) + x)
    if kind == "subtracted":
        # sum_{n>=d}(n+1)x^n = x^d ((d+1)(1-x)+x)/(1-x)^2 ; full = 1/(1-x)^2
        return x ** d * ((d + 1) * (1 - x) + x)
    raise ValueError(f'kind must be "thermal", "added" or "subtracted", got {kind!r}')


def _thermal_family(beta: float, mode: OscillatorMode, tail_tol: float,
                    kind: str) -> DensityState:
    """Shared construction for thermal / photon-added / photon-subtracted states.

    All three are diagonal with geometric-family weights in x = exp(-beta*omega):

        thermal     w_n ∝ x^n          (n >= 0)
        added       w_n ∝ n x^n        (n >= 1; no vacuum component)
        subtracted  w_n ∝ (n+1) x^n    (n >= 0)

    The recorded tail mass is 1 - (truncated sum / exact infinite sum), using
    the closed forms of the geometric series and its first derivative.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    d = mode.cutoff
    omega = float(mode.omega)
    x = math.exp(-beta * omega)
    n = np.arange(d, dtype=float)
    # weights held as x^n * poly(n); the common factor exp(-beta*omega/2) cancels
    w = x ** n * {"thermal": 1.0, "added": n, "subtracted": n + 1}[kind]
    tail = _family_tail(x, d, kind)
    if tail > tail_tol:
        raise TruncationError(
            f"{kind} state at beta*omega={beta * omega:.4g} keeps tail mass "
            f"{tail:.3e} > tolerance {tail_tol:.3e} at cutoff {d}"
        )
    w = w / w.sum()
    return DensityState(mode.space, np.diag(w.astype(complex)), tail_mass=tail,
                        validate=False)


def thermal_state(beta: float, mode: OscillatorMode,
                  tail_tol: float = DEFAULT_TAIL_TOL) -> DensityState:
    """Gibbs state diag(exp(-beta*omega*(n+1/2)))/Z on the truncated ladder."""
    return _thermal_family(beta, mode, tail_tol, "thermal")


def photon_added_state(beta: float, mode: OscillatorMode,
                       tail_tol: float = DEFAULT_TAIL_TOL) -> DensityState:
    """Normalized a^dag exp(-beta H) a: thermal light with one quantum added."""
    return _thermal_family(beta, mode, tail_tol, "added")


def photon_subtracted_state(beta: float, mode: OscillatorMode,
                            tail_tol: float = DEFAULT_TAIL_TOL) -> DensityState:
    """Normalized a exp(-beta H) a^dag: thermal light with one quantum removed."""
    return _thermal_family(beta, mode, tail_tol, "subtracted")


def min_cutoff_for_tail(beta: float, omega: float,
                        tail_tol: float = DEFAULT_TAIL_TOL,
                        max_cutoff: int = DEFAULT_MAX_CUTOFF, *,
                        kind: str = "thermal") -> int:
    """Smallest cutoff >= 2 at which the ``kind`` state ("thermal", "added"
    or "subtracted", as in the constructors) keeps a tail mass <= tail_tol,
    capped at max_cutoff. The constructor of that state accepts the returned
    cutoff at tail_tol; the tail falls with the cutoff, so it rejects any
    smaller one."""
    if beta <= 0 or omega <= 0:
        raise ValueError("beta and omega must be positive")
    x = math.exp(-beta * omega)
    d = 2
    while d <= max_cutoff:
        if _family_tail(x, d, kind) <= tail_tol:
            return d
        d += 1
    raise TruncationError(
        f"no cutoff <= {max_cutoff} reaches tail tolerance {tail_tol:.3e} "
        f"for the {kind} state at beta*omega={beta * omega:.4g}"
    )


# ---------------------------------------------------------------------------
# pure-state families
# ---------------------------------------------------------------------------

def binomial_state(n: int, p: float, space: HilbertSpace,
                   phases: Optional[Sequence[float]] = None) -> PureState:
    """Superposition with amplitudes sqrt(C(n,k) p^k (1-p)^(n-k)) e^{i phi_k} on |k>.

    Amplitudes are assembled in log space so large n (hundreds) stays exact to
    rounding. Phases default to zero.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0,1], got {p}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n >= space.dim:
        raise DimensionError(f"binomial size n={n} needs dim > n, got {space.dim}")
    if phases is not None and len(phases) != n + 1:
        raise ValueError(f"need {n + 1} phases, got {len(phases)}")
    amp = np.zeros(space.dim, dtype=complex)
    if p == 0.0:
        amp[0] = 1.0
    elif p == 1.0:
        amp[n] = 1.0
    else:
        k = np.arange(n + 1)
        log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)   # ln k!
        logw = (log_fact[n] - log_fact - log_fact[::-1]
                + k * math.log(p) + (n - k) * math.log1p(-p))
        amp[: n + 1] = np.exp(0.5 * logw)
    if phases is not None:
        amp[: n + 1] *= np.exp(1j * np.asarray(phases, dtype=float))
    amp /= np.linalg.norm(amp)
    return PureState(space, amp)


def coherent_state(alpha: complex, space: HilbertSpace,
                   tail_tol: float = DEFAULT_TAIL_TOL) -> PureState:
    """Truncated coherent state exp(-|alpha|^2/2) alpha^k / sqrt(k!)."""
    amp = np.zeros(space.dim, dtype=complex)
    amp[0] = math.exp(-abs(alpha) ** 2 / 2)
    for k in range(1, space.dim):
        amp[k] = amp[k - 1] * alpha / math.sqrt(k)
    tail = 1.0 - float(np.sum(np.abs(amp) ** 2))
    if tail > tail_tol:
        raise TruncationError(
            f"coherent state |alpha|^2={abs(alpha) ** 2:.4g} keeps tail mass "
            f"{tail:.3e} > tolerance {tail_tol:.3e} at dim {space.dim}"
        )
    amp /= np.linalg.norm(amp)
    return PureState(space, amp)


# ---------------------------------------------------------------------------
# multilinear plumbing
# ---------------------------------------------------------------------------

def _product_space(a: HilbertSpace, b: HilbertSpace) -> HilbertSpace:
    fa = a.factors if a.factors else (a.dim,)
    fb = b.factors if b.factors else (b.dim,)
    return HilbertSpace(a.dim * b.dim, f"{a.label}*{b.label}", fa + fb)


def tensor(a, b):
    """Kronecker product preserving the operand kind (operator, density, pure)."""
    if isinstance(a, OperatorMatrix) and isinstance(b, OperatorMatrix):
        cls = type(a) if type(a) is type(b) else OperatorMatrix
        return cls(_product_space(a.space, b.space), np.kron(a.matrix, b.matrix))
    if isinstance(a, DensityState) and isinstance(b, DensityState):
        return DensityState(_product_space(a.space, b.space),
                            np.kron(a.matrix, b.matrix),
                            tail_mass=a.tail_mass + b.tail_mass, validate=False)
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(_product_space(a.space, b.space),
                         np.kron(a.amplitudes, b.amplitudes))
    raise DimensionError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def trace(op) -> complex:
    mat = op.matrix if hasattr(op, "matrix") else np.asarray(op)
    t = complex(np.trace(mat))
    return t


def expectation(op: OperatorMatrix, state) -> Union[float, complex]:
    """<X> in a PureState or DensityState; real part returned when imaginary
    content is at rounding level."""
    if isinstance(state, PureState):
        if state.dim != op.dim:
            raise DimensionError(f"dim mismatch {state.dim} vs {op.dim}")
        val = complex(state.amplitudes.conj() @ op.matrix @ state.amplitudes)
    elif isinstance(state, DensityState):
        if state.dim != op.dim:
            raise DimensionError(f"dim mismatch {state.dim} vs {op.dim}")
        val = complex(np.trace(op.matrix @ state.matrix))
    else:
        raise DimensionError(f"unsupported state type {type(state).__name__}")
    if abs(val.imag) < 1e-12 * max(1.0, abs(val.real)):
        return val.real
    return val


def state_fidelity(rho, sigma) -> float:
    """Uhlmann fidelity; accepts PureState or DensityState on matching spaces."""
    if isinstance(rho, PureState) and isinstance(sigma, PureState):
        return float(abs(np.vdot(rho.amplitudes, sigma.amplitudes)) ** 2)
    r = rho.density().matrix if isinstance(rho, PureState) else rho.matrix
    s = sigma.density().matrix if isinstance(sigma, PureState) else sigma.matrix
    if r.shape != s.shape:
        raise DimensionError("fidelity needs states on the same space")
    evals, vecs = np.linalg.eigh(r)
    evals = np.clip(evals, 0.0, None)
    sq = (vecs * np.sqrt(evals)) @ vecs.conj().T
    inner = sq @ s @ sq
    lam = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(lam)) ** 2)
