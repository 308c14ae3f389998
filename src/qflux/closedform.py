"""Closed-form scalar counterparts of the brute-force matrix machinery.

Conventions: hbar = k_B = 1, chi = beta*omega/2. Every chi-dependent
expression is written with expm1/log1p so the documented validity range
chi in [1e-6, 50] evaluates without overflow or catastrophic cancellation.
Explicit limit branches cover p = 0 and p = 1 where the generic formulas
have removable singularities; genuine singularities raise DomainError naming
the offending parameter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DomainError, UndefinedRatioError

CHI_MIN = 1e-6
CHI_MAX = 50.0


@dataclass(frozen=True)
class ScenarioParams:
    """Inverse temperature plus the initial and final oscillator frequencies.

    The thermal quantities every ratio of a chi point needs, ``nbar_i``,
    ``nbar_f`` and ``delta_F``, are computed on first use and kept; equality,
    hash and repr see only the three fields."""

    beta: float
    omega_i: float
    omega_f: float

    def __post_init__(self):
        if self.beta <= 0 or self.omega_i <= 0 or self.omega_f <= 0:
            raise DomainError("beta, omega_i, omega_f must all be positive")

    @property
    def chi_i(self) -> float:
        return self.beta * self.omega_i / 2.0

    @property
    def chi_f(self) -> float:
        return self.beta * self.omega_f / 2.0

    def __getattr__(self, name: str) -> float:
        """Compute a ``_THERMAL`` value on its first read and keep it in the
        instance dict, where later reads find it without a call or a lock
        (``functools.cached_property`` takes one under Python 3.11)."""
        if name not in _THERMAL:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = _THERMAL[name](self)
        return value


#: the thermal values a ScenarioParams computes on first read and keeps
_THERMAL = {"nbar_i": lambda params: mean_occupation(params.chi_i),
            "nbar_f": lambda params: mean_occupation(params.chi_f),
            "delta_F": lambda params: (_log_partition(params.chi_i)
                                       - _log_partition(params.chi_f)) / params.beta}


@dataclass(frozen=True)
class BinomialParams:
    """Binomial battery protocol parameters with the derived rescaled weight."""

    n: int
    p: float
    beta: float
    omega: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise DomainError(f"p must lie in [0,1], got {self.p}")
        if self.n < 0:
            raise DomainError("n must be nonnegative")
        if self.beta <= 0 or self.omega <= 0:
            raise DomainError("beta and omega must be positive")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def p_rescaled(self) -> float:
        return p_tilde(self.p, self.beta, self.omega)

    @property
    def variance(self) -> float:
        return self.n * self.p * self.q


def _check_chi(chi: float) -> float:
    if chi <= 0:
        raise DomainError(f"chi must be positive, got {chi}")
    return float(chi)


def partition_fn(chi: float) -> float:
    """Oscillator partition function exp(chi)/(exp(2 chi) - 1) = 1/(2 sinh chi)."""
    chi = _check_chi(chi)
    return 1.0 / (2.0 * math.sinh(chi))


def _log_partition(chi: float) -> float:
    # ln Z = -chi - ln(1 - e^{-2 chi}), stable at both ends
    if (tail := math.exp(-2.0 * chi)) == 1.0:
        raise DomainError(f"chi = {chi} is too small for ln Z in double precision")
    return -chi - math.log1p(-tail)


def mean_occupation(chi: float) -> float:
    """Thermal mean photon number 1/(exp(2 chi) - 1): exp(-2 chi), to which
    it rounds, past chi = 354.9, where exp(2 chi) overflows."""
    chi = _check_chi(chi)
    try:
        return 1.0 / math.expm1(2.0 * chi)
    except OverflowError:
        return math.exp(-2.0 * chi)


def delta_F(params: ScenarioParams) -> float:
    """Helmholtz free-energy change (1/beta) ln(Z_i / Z_f)."""
    return params.delta_F


def delta_E_vac(params: ScenarioParams) -> float:
    """Change of zero-point energy (omega_f - omega_i)/2."""
    return (params.omega_f - params.omega_i) / 2.0


def gen_free_energy_pm(params: ScenarioParams, sign: int) -> float:
    """Generalized free-energy change 2 dF + sign * dE_vac; sign=+1 for the
    photon-added protocol, -1 for photon-subtracted."""
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    return 2.0 * delta_F(params) + sign * delta_E_vac(params)


def prefactor_R(work: float, params: ScenarioParams, sign: int) -> float:
    """Photon-number prefactor n_R / n_F of the added/subtracted ratio:

        (omega_f/omega_i) * [omega_f (2 nbar_f + k) - W + dE_vac]
                          / [omega_i (2 nbar_i + 1/k) + W - dE_vac]

    with k = 1 for the added case and k = omega_i/omega_f for subtracted.
    W = E_bi - E_bf is the energy the battery gives the system, as in
    ``dynamics.work_distribution`` and the scenarios; energy bookkeeping then
    reads omega_f n_F = omega_i (2 nbar_i + 1/k) + W - dE_vac and
    omega_i n_R = omega_f (2 nbar_f + k) - W + dE_vac.
    Undefined (UndefinedRatioError) whenever either photon count would be
    nonpositive.
    """
    if sign not in (+1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    k = 1.0 if sign == +1 else params.omega_i / params.omega_f
    devac = delta_E_vac(params)
    num = params.omega_f * (2.0 * params.nbar_f + k) - work + devac
    den = params.omega_i * (2.0 * params.nbar_i + 1.0 / k) + work - devac
    if num <= 0 or den <= 0:
        raise UndefinedRatioError(
            f"prefactor undefined at W={work}: photon counts (n_F, n_R) = "
            f"({den / params.omega_f:.3g}, {num / params.omega_i:.3g}) not both positive"
        )
    return (params.omega_f / params.omega_i) * num / den


def crooks_rhs_pm(work: float, params: ScenarioParams, sign: int) -> float:
    """Predicted forward/reverse transition-probability ratio
    R_pm(W) * exp(beta (W - sign*dE_vac - 2 dF)), with W = E_bi - E_bf the
    energy the battery gives the system."""
    expo = params.beta * (work - sign * delta_E_vac(params) - 2.0 * delta_F(params))
    return prefactor_R(work, params, sign) * math.exp(expo)


def jarzynski_rhs(params: ScenarioParams, sign: int) -> float:
    """exp(-beta (2 dF + sign*dE_vac))."""
    return math.exp(-params.beta * gen_free_energy_pm(params, sign))


# ---------------------------------------------------------------------------
# binomial battery formulas
# ---------------------------------------------------------------------------

def p_tilde(p: float, beta: float, omega: float) -> float:
    """Rescaled binomial weight p e^{-beta omega} / (p e^{-beta omega} + 1 - p)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0,1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    x = math.exp(-beta * omega)
    return p * x / (p * x + (1.0 - p))


def _log_moment(p: float, beta: float, omega: float) -> float:
    """ln(p e^{-beta omega} + q), the single-level log-moment; exact at p in {0,1}."""
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return -beta * omega
    return math.log1p(p * math.expm1(-beta * omega))


def binomial_energy(n: int, p: float, omega: float) -> float:
    """Mean energy omega (n p + 1/2) of an n-level binomial superposition."""
    return omega * (n * p + 0.5)


def binomial_eff_potential(n: int, p: float, beta: float, omega: float) -> float:
    """Effective potential omega/2 - (n/beta) ln(p e^{-beta omega} + q)."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p must lie in [0,1], got {p}")
    return omega / 2.0 - (n / beta) * _log_moment(p, beta, omega)


def gen_work_align(n: int, p_i: float, p_f: float, beta: float, omega: float) -> float:
    """Generalized work flow at fixed size n between weights p_i and p_f:
    (n/beta) [ln(p_f e^{-bw} + q_f) - ln(p_i e^{-bw} + q_i)]."""
    if p_i <= 0.0 or p_f <= 0.0:
        raise DomainError("realignment flow needs p_i > 0 and p_f > 0")
    return (n / beta) * (_log_moment(p_f, beta, omega) - _log_moment(p_i, beta, omega))


def gen_work_align_expansion(n: int, p_i: float, p_f: float,
                             beta: float, omega: float) -> float:
    """Second-order high-temperature expansion of the realignment flow:
    omega n (p_i - p_f) - (beta omega^2 / 2)(sigma_i^2 - sigma_f^2)."""
    x = beta * omega
    var_i = n * p_i * (1.0 - p_i)
    var_f = n * p_f * (1.0 - p_f)
    return (x * n * (p_i - p_f) - x ** 2 / 2.0 * (var_i - var_f)) / beta


def gen_work_size(n_i: int, n_f: int, p: float, beta: float, omega: float) -> float:
    """Generalized work flow at fixed weight p between sizes n_i and n_f:
    ((n_f - n_i)/beta) ln(p e^{-bw} + q). Exactly linear in (n_f - n_i)."""
    if p <= 0.0:
        raise DomainError("resizing flow needs p > 0")
    return ((n_f - n_i) / beta) * _log_moment(p, beta, omega)


def gen_work_size_expansion(n_i: int, n_f: int, p: float,
                            beta: float, omega: float) -> float:
    """Second-order high-temperature expansion of the resizing flow."""
    x = beta * omega
    var = p * (1.0 - p)
    return (x * (n_i - n_f) * p - x ** 2 / 2.0 * (n_i - n_f) * var) / beta


def w_q_align(n: int, p_i: float, p_f: float, beta: float, omega: float) -> float:
    """Symmetrized energy flow (dE_+ - dE_-)/2 of the realignment protocol:
    (omega n / 2) [(ptil_i + p_i) - (ptil_f + p_f)]."""
    return omega * n / 2.0 * ((p_tilde(p_i, beta, omega) + p_i)
                              - (p_tilde(p_f, beta, omega) + p_f))


def w_q_size(n_i: int, n_f: int, p: float, beta: float, omega: float) -> float:
    """Symmetrized energy flow of the resizing protocol:
    (omega/2)(n_i - n_f)(ptil + p)."""
    return omega / 2.0 * (n_i - n_f) * (p_tilde(p, beta, omega) + p)


def q_align(p_i: float, p_f: float, chi: float) -> float:
    """Realignment distortion factor (size-independent):

        (1/chi) [ln(ptil_f/p_f) - ln(ptil_i/p_i)] / [(ptil_f - ptil_i) + (p_f - p_i)]

    Requires p_i, p_f > 0 and p_i != p_f.
    """
    chi = _check_chi(chi)
    if p_i <= 0.0 or p_f <= 0.0:
        raise DomainError("q_align needs p_i > 0 and p_f > 0")
    if p_i == p_f:
        raise DomainError("q_align undefined at p_i == p_f (0/0)")
    return q_align_longform(p_i, p_f, chi)


def q_align_longform(p_i: float, p_f: float, chi: float) -> float:
    """Long-form realignment factor
    (1/chi) ln[(p_i e^{-2chi} + q_i)/(p_f e^{-2chi} + q_f)] / [(ptil_f - ptil_i) + (p_f - p_i)],
    defined also when one of the weights vanishes."""
    chi = _check_chi(chi)
    if p_i == p_f:
        raise DomainError("realignment factor undefined at p_i == p_f")
    beta_omega = 2.0 * chi
    num = _log_moment(p_i, beta_omega, 1.0) - _log_moment(p_f, beta_omega, 1.0)
    den = ((p_tilde(p_f, beta_omega, 1.0) - p_tilde(p_i, beta_omega, 1.0))
           + (p_f - p_i))
    return num / (chi * den)


def q_size(p: float, chi: float) -> float:
    """Resizing distortion factor (1/chi)(ln(ptil/p) + 2 chi)/(ptil + p)."""
    chi = _check_chi(chi)
    if p <= 0.0:
        raise DomainError("q_size needs p > 0")
    beta_omega = 2.0 * chi
    num = -_log_moment(p, beta_omega, 1.0)
    return num / (chi * (p_tilde(p, beta_omega, 1.0) + p))


def q_harmonic(chi: float) -> float:
    """Large-size limit of both distortion factors: tanh(chi)/chi."""
    chi = _check_chi(chi)
    return math.tanh(chi) / chi


def coherent_eff_potential(lam: float, beta: float, omega: float) -> float:
    """Effective potential of a coherent superposition with mean excitation lam:
    omega/2 + lam (1 - e^{-beta omega})/beta."""
    if lam < 0:
        raise DomainError("lam must be nonnegative")
    return omega / 2.0 - lam * math.expm1(-beta * omega) / beta


def char_fn_binomial(n: int, p: float, omega: float, t: float) -> complex:
    """Energy characteristic function of |n,p>:
    e^{i omega t / 2} (1 + p (e^{i omega t} - 1))^n."""
    phase = cmath.exp(1j * omega * t / 2.0)
    base = 1.0 + p * (cmath.exp(1j * omega * t) - 1.0)
    return phase * base ** n


def char_fn_coherent(lam: float, omega: float, t: float) -> complex:
    """Energy characteristic function of the coherent limit:
    exp(lam (e^{i omega t} - 1) + i omega t / 2)."""
    z = lam * (cmath.exp(1j * omega * t) - 1.0) + 1j * omega * t / 2.0
    return cmath.exp(z)
