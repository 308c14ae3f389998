import inspect
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qflux import closedform as cf
from qflux import fock, gibbs
from qflux.errors import DomainError, UndefinedRatioError


def series_partition(chi, terms=6000):
    n = np.arange(terms)
    return float(np.sum(np.exp(-2.0 * chi * (n + 0.5))))


def series_mean_occupation(chi, terms=6000):
    n = np.arange(terms)
    w = np.exp(-2.0 * chi * n)
    return float((n * w).sum() / w.sum())


class TestPartitionAndOccupation:
    def test_partition_at_chi_ln2(self):
        chi = math.log(2.0)
        assert series_partition(chi) == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert cf.partition_fn(chi) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_partition_against_series(self):
        for chi in (0.01, 0.3, 1.0, 4.0):
            assert cf.partition_fn(chi) == pytest.approx(series_partition(chi),
                                                         rel=1e-13)

    def test_partition_ground_state_asymptote(self):
        chi = 30.0
        assert cf.partition_fn(chi) == pytest.approx(math.exp(-chi), rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            cf.partition_fn(0.0)

    def test_mean_occupation_values(self):
        assert cf.mean_occupation(math.log(2.0)) == pytest.approx(1.0 / 3.0)
        for chi in (0.05, 0.7, 2.0):
            assert cf.mean_occupation(chi) == pytest.approx(
                series_mean_occupation(chi), rel=1e-10)
        assert cf.mean_occupation(25.0) < 1e-21

    def test_mean_occupation_past_the_overflow_of_exp(self):
        # e^(2 chi) overflows past chi = 354.9; 1/(e^(2 chi) - 1) rounds to
        # e^(-2 chi) there, a subnormal and then 0
        for chi in (354.9, 355.0, 372.0, 400.0, 1e4):
            with pytest.raises(OverflowError):
                math.expm1(2.0 * chi)
            assert cf.mean_occupation(chi) == math.exp(-2.0 * chi)
        assert cf.mean_occupation(354.89) == 1.0 / math.expm1(2.0 * 354.89)
        assert 0.0 < cf.mean_occupation(355.0) < cf.mean_occupation(354.89)
        assert cf.mean_occupation(math.inf) == 0.0

    def test_mean_occupation_high_temperature_divergence(self):
        chi = 1e-5
        assert cf.mean_occupation(chi) * 2 * chi == pytest.approx(1.0, abs=1e-4)


class TestFreeEnergyPieces:
    def test_delta_f_vanishes_at_equal_frequencies(self):
        params = cf.ScenarioParams(1.0, 2.0, 2.0)
        assert cf.delta_F(params) == 0.0

    def test_delta_f_low_temperature_limit(self):
        params = cf.ScenarioParams(60.0, 1.0, 1.5)
        assert cf.delta_F(params) == pytest.approx(cf.delta_E_vac(params), abs=1e-12)

    def test_delta_f_matches_effective_potential_route(self):
        beta, w_i, w_f, cutoff = 1.5, 1.0, 2.5, 80
        params = cf.ScenarioParams(beta, w_i, w_f)
        h_i = fock.OscillatorMode(w_i, cutoff).energies
        h_f = fock.OscillatorMode(w_f, cutoff).energies
        eye = fock.identity(fock.HilbertSpace(cutoff, "s"))
        brute = gibbs.gen_free_energy_diff(beta, h_i, eye, h_f, eye)
        assert cf.delta_F(params) == pytest.approx(brute, abs=1e-12)

    def test_delta_e_vac(self):
        assert cf.delta_E_vac(cf.ScenarioParams(1.0, 1.0, 1.5)) == pytest.approx(0.25)
        assert cf.delta_E_vac(cf.ScenarioParams(1.0, 2.0, 2.0)) == 0.0
        fwd = cf.delta_E_vac(cf.ScenarioParams(1.0, 1.0, 3.0))
        rev = cf.delta_E_vac(cf.ScenarioParams(1.0, 3.0, 1.0))
        assert fwd == -rev

    def test_gen_free_energy_pm_limits(self):
        high_t = cf.ScenarioParams(2e-4, 1.0, 1.5)   # chi_i = 1e-4
        for sign in (+1, -1):
            gap = cf.gen_free_energy_pm(high_t, sign) - 2 * cf.delta_F(high_t)
            assert abs(gap) == pytest.approx(cf.delta_E_vac(high_t), abs=1e-12)
            # in thermal units the vacuum piece is negligible at high T
            assert high_t.beta * abs(gap) < 1e-3
        low_t = cf.ScenarioParams(40.0, 1.0, 1.5)    # chi_i = 20
        assert cf.gen_free_energy_pm(low_t, -1) == pytest.approx(
            cf.delta_F(low_t), abs=1e-10)

    def test_gen_free_energy_pm_partition_square_route(self):
        # alternative route through Z~ = Z^2 exp(-+chi)
        params = cf.ScenarioParams(1.7, 1.0, 2.0)
        for sign in (+1, -1):
            direct = cf.gen_free_energy_pm(params, sign)

            def log_ztilde(chi):
                return 2.0 * math.log(cf.partition_fn(chi)) - sign * chi

            alt = (log_ztilde(params.chi_i) - log_ztilde(params.chi_f)) / params.beta
            assert direct == pytest.approx(alt, abs=1e-12)

    def test_delta_f_rejects_chi_too_small_for_double_precision(self):
        # e^(-2 chi) rounds to 1 below chi ~ 5.5e-17, so ln Z has no value
        with pytest.raises(DomainError):
            cf.delta_F(cf.ScenarioParams(2e-17, 1.0, 1.0))
        assert math.isfinite(cf.delta_F(cf.ScenarioParams(2e-16, 1.0, 1.5)))

    def test_gen_free_energy_pm_sign_guard(self):
        with pytest.raises(DomainError):
            cf.gen_free_energy_pm(cf.ScenarioParams(1.0, 1.0, 1.5), 2)


class TestPrefactorAndRatios:
    def test_high_temperature_reduction(self):
        params = cf.ScenarioParams(2e-4, 1.0, 1.5)
        for sign in (+1, -1):
            value = cf.prefactor_R(0.0, params, sign) * math.exp(
                -params.beta * cf.delta_F(params))
            assert abs(value - 1.0) < 1e-3

    def test_symmetric_configuration(self):
        params = cf.ScenarioParams(1.0, 2.0, 2.0)
        for sign in (+1, -1):
            assert cf.prefactor_R(0.0, params, sign) == pytest.approx(1.0)
            assert cf.crooks_rhs_pm(0.0, params, sign) == pytest.approx(1.0)

    def test_undefined_ratio(self):
        params = cf.ScenarioParams(4.0, 1.0, 5.0)   # chi_i = 2: nbar_i small
        with pytest.raises(UndefinedRatioError):
            cf.prefactor_R(10.0, params, +1)

    def test_crooks_rhs_monotone_in_work(self):
        # W = E_bi - E_bf feeds n_F and drains n_R, so the prefactor
        # n_R/n_F falls as W grows; once the Boltzmann factor exp(beta W)
        # is divided out, the predicted ratio must fall with it
        params = cf.ScenarioParams(1.0, 1.0, 1.5)
        works = np.linspace(-0.5, 1.5, 21)
        for sign in (+1, -1):
            prefactors = [cf.prefactor_R(w, params, sign) for w in works]
            assert all(b < a for a, b in zip(prefactors, prefactors[1:]))
            stripped = [cf.crooks_rhs_pm(w, params, sign) * math.exp(-params.beta * w)
                        for w in works]
            assert all(b < a for a, b in zip(stripped, stripped[1:]))

    def test_jarzynski_rhs(self):
        assert cf.jarzynski_rhs(cf.ScenarioParams(1.0, 2.0, 2.0), +1) == 1.0
        params = cf.ScenarioParams(0.8, 1.0, 1.5)
        for sign in (+1, -1):
            assert cf.jarzynski_rhs(params, sign) == pytest.approx(
                math.exp(-0.8 * cf.gen_free_energy_pm(params, sign)), rel=1e-14)


def _outcome(call):
    """A closed form's value as its exact bits, or the error it raised."""
    try:
        return call().hex()
    except UndefinedRatioError as exc:
        return repr(exc)


class TestCachedParams:
    """nbar_i, nbar_f and dF are computed once per ScenarioParams and kept."""

    CHIS = np.logspace(-6, math.log10(50.0), 41).tolist()
    WORKS = (-3.0, 0.0, 0.75, 2.0, 10.0)

    def _calls(self, params):
        calls = [lambda: cf.delta_F(params)]
        calls += [lambda s=sign: cf.jarzynski_rhs(params, s) for sign in (+1, -1)]
        for work in self.WORKS:
            for sign in (+1, -1):
                calls.append(lambda w=work, s=sign: cf.prefactor_R(w, params, s))
                calls.append(lambda w=work, s=sign: cf.crooks_rhs_pm(w, params, s))
        return calls

    @pytest.mark.parametrize("omega_f", [1.5, 5.0])
    def test_reused_params_give_the_bits_of_fresh_ones(self, omega_f):
        for chi in self.CHIS:
            reused = cf.ScenarioParams(2.0 * chi, 1.0, omega_f)
            for _ in range(2):   # the second pass reads only kept values
                for n, call in enumerate(self._calls(reused)):
                    fresh = self._calls(cf.ScenarioParams(2.0 * chi, 1.0, omega_f))[n]
                    assert _outcome(call) == _outcome(fresh), (chi, n)

    def test_kept_values_are_the_closed_forms(self):
        for chi in self.CHIS:
            params = cf.ScenarioParams(2.0 * chi, 1.0, 1.5)
            assert params.nbar_i == cf.mean_occupation(params.chi_i)
            assert params.nbar_f == cf.mean_occupation(params.chi_f)
            assert cf.delta_F(params) == (cf._log_partition(params.chi_i)
                                          - cf._log_partition(params.chi_f)) / params.beta

    def test_values_are_computed_on_first_read(self, monkeypatch):
        # chi_f = 400: nbar_f is computed once, at its first read
        chis = []
        monkeypatch.setattr(cf, "mean_occupation",
                            lambda chi: chis.append(chi) or math.exp(-2.0 * chi))
        params = cf.ScenarioParams(100.0, 1.0, 8.0)
        assert math.isfinite(cf.delta_F(params))
        assert "nbar_f" not in vars(params) and chis == []
        assert params.nbar_f == params.nbar_f == math.exp(-800.0)
        assert chis == [params.chi_f] and vars(params)["nbar_f"] == 0.0
        with pytest.raises(AttributeError, match="nbar"):
            params.nbar

    def test_identity_sees_only_the_fields(self):
        used, fresh = cf.ScenarioParams(1.3, 1.0, 1.5), cf.ScenarioParams(1.3, 1.0, 1.5)
        cf.crooks_rhs_pm(0.5, used, +1)
        assert {"nbar_i", "nbar_f", "delta_F"} <= set(vars(used))
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh) == "ScenarioParams(beta=1.3, omega_i=1.0, omega_f=1.5)"
        assert used != cf.ScenarioParams(1.3, 1.0, 2.0)
        for name in ("beta", "omega_i", "omega_f", "delta_F"):
            with pytest.raises(FrozenInstanceError):
                setattr(used, name, 2.0)


class TestBinomialFormulas:
    def test_p_tilde_values(self):
        assert cf.p_tilde(0.4, 0.0, 1.0) == pytest.approx(0.4)   # beta -> 0
        assert cf.p_tilde(0.5, math.log(2.0), 1.0) == pytest.approx(1.0 / 3.0)
        assert cf.p_tilde(0.9, 80.0, 1.0) < 1e-30                # chi -> inf
        assert cf.p_tilde(0.0, 1.0, 1.0) == 0.0
        assert cf.p_tilde(1.0, 1.0, 1.0) == 1.0

    def test_p_tilde_matches_gibbs_map(self):
        beta, omega, n, p = 1.3, 1.0, 4, 0.45
        space = fock.HilbertSpace(12, "b")
        h = fock.OscillatorMode(omega, 12).energies
        mapped = gibbs.gibbs_map(fock.binomial_state(n, p, space).projector(), h, beta)
        target = fock.binomial_state(n, cf.p_tilde(p, beta, omega), space)
        assert fock.state_fidelity(target, mapped) > 1 - 1e-13

    def test_binomial_energy(self):
        assert cf.binomial_energy(3, 0.0, 2.0) == pytest.approx(1.0)
        assert cf.binomial_energy(2, 0.5, 1.0) == pytest.approx(1.5)
        space = fock.HilbertSpace(9, "b")
        mode = fock.OscillatorMode(1.7, 9)
        state = fock.binomial_state(5, 0.3, space)
        assert cf.binomial_energy(5, 0.3, 1.7) == pytest.approx(
            fock.expectation(fock.OperatorMatrix(mode.space, np.diag(mode.energies)), state),
            abs=1e-12)

    def test_binomial_eff_potential(self):
        assert cf.binomial_eff_potential(1, 1.0, 2.0, 1.0) == pytest.approx(1.5)
        assert cf.binomial_eff_potential(6, 0.0, 2.0, 1.0) == pytest.approx(0.5)
        beta, omega, n, p = 1.9, 1.2, 6, 0.35
        space = fock.HilbertSpace(14, "b")
        h = fock.OscillatorMode(omega, 14).energies
        brute = gibbs.effective_potential(
            beta, h, fock.binomial_state(n, p, space).projector()).value
        assert cf.binomial_eff_potential(n, p, beta, omega) == pytest.approx(
            brute, abs=1e-10)


class TestBinomialParams:
    def test_rescaled_weight_invariant(self):
        for p in (0.0, 0.2, 0.7, 1.0):
            params = cf.BinomialParams(n=6, p=p, beta=1.4, omega=1.0)
            assert 0.0 <= params.p_rescaled <= params.p <= 1.0
            assert params.q == pytest.approx(1.0 - p)
            assert params.variance == pytest.approx(6 * p * (1 - p))

    def test_field_validation(self):
        with pytest.raises(DomainError):
            cf.BinomialParams(n=3, p=1.5, beta=1.0, omega=1.0)
        with pytest.raises(DomainError):
            cf.BinomialParams(n=-1, p=0.5, beta=1.0, omega=1.0)


class TestWorkFlows:
    def test_align_vanishes_for_equal_weights(self):
        assert cf.gen_work_align(5, 0.4, 0.4, 1.0, 1.0) == 0.0

    def test_align_matches_effective_potential_difference(self):
        beta, omega, n = 1.4, 1.0, 6
        p_i, p_f = 0.25, 0.7
        space = fock.HilbertSpace(10, "b")
        h = fock.OscillatorMode(omega, 10).energies
        offset = omega / 2.0   # ladder Hamiltonian carries the zero-point shift
        e_i = gibbs.effective_potential(
            beta, h, fock.binomial_state(n, p_i, space).projector()).value
        e_f = gibbs.effective_potential(
            beta, h, fock.binomial_state(n, p_f, space).projector()).value
        assert cf.gen_work_align(n, p_i, p_f, beta, omega) == pytest.approx(
            e_i - e_f, abs=1e-12)
        assert offset == 0.5

    def test_align_zero_weight_guard(self):
        with pytest.raises(DomainError):
            cf.gen_work_align(5, 0.0, 0.5, 1.0, 1.0)

    def test_align_second_order_expansion(self):
        beta, omega, n = 0.01, 1.0, 5
        p_i, p_f = 0.2, 0.7
        exact = cf.gen_work_align(n, p_i, p_f, beta, omega)
        approx = cf.gen_work_align_expansion(n, p_i, p_f, beta, omega)
        assert abs(exact - approx) / abs(exact) < 1e-4

    def test_size_linear_in_step(self):
        beta, omega, p = 1.2, 1.0, 0.6
        base = cf.gen_work_size(3, 4, p, beta, omega)
        for k in (2, 3, 7):
            assert cf.gen_work_size(3, 3 + k, p, beta, omega) == pytest.approx(
                k * base, rel=1e-14)

    def test_size_matches_effective_potential_difference(self):
        beta, omega, p = 0.9, 1.0, 0.55
        n_i, n_f = 3, 8
        space = fock.HilbertSpace(12, "b")
        h = fock.OscillatorMode(omega, 12).energies
        e_i = gibbs.effective_potential(
            beta, h, fock.binomial_state(n_i, p, space).projector()).value
        e_f = gibbs.effective_potential(
            beta, h, fock.binomial_state(n_f, p, space).projector()).value
        assert cf.gen_work_size(n_i, n_f, p, beta, omega) == pytest.approx(
            e_i - e_f, abs=1e-12)

    def test_size_second_order_expansion(self):
        beta, omega, p = 0.01, 1.0, 0.35
        exact = cf.gen_work_size(2, 9, p, beta, omega)
        approx = cf.gen_work_size_expansion(2, 9, p, beta, omega)
        assert abs(exact - approx) / abs(exact) < 1e-4


class TestSymmetrizedFlow:
    def test_symmetric_protocol_vanishes(self):
        assert cf.w_q_align(4, 0.5, 0.5, 1.0, 1.0) == 0.0
        assert cf.w_q_size(5, 5, 0.4, 1.0, 1.0) == 0.0

    def test_high_temperature_limit(self):
        beta, omega, n = 1e-8, 1.0, 4
        value = cf.w_q_align(n, 0.7, 0.2, beta, omega)
        assert value == pytest.approx(omega * n * (0.7 - 0.2), rel=1e-6)

    def test_assembled_from_mean_energies(self):
        # W_q = (dE_+ - dE_-)/2 with the four mean energies taken from
        # binomial_energy and the rescaled weights
        beta, omega, n = 1.5, 1.0, 6
        p_i, p_f = 0.3, 0.8
        pt_i = cf.p_tilde(p_i, beta, omega)
        pt_f = cf.p_tilde(p_f, beta, omega)
        de_plus = cf.binomial_energy(n, pt_i, omega) - cf.binomial_energy(n, p_f, omega)
        de_minus = cf.binomial_energy(n, pt_f, omega) - cf.binomial_energy(n, p_i, omega)
        assert cf.w_q_align(n, p_i, p_f, beta, omega) == pytest.approx(
            (de_plus - de_minus) / 2.0, abs=1e-13)

    def test_size_assembled_from_mean_energies(self):
        beta, omega, p = 0.8, 1.0, 0.6
        n_i, n_f = 2, 7
        pt = cf.p_tilde(p, beta, omega)
        de_plus = cf.binomial_energy(n_i, pt, omega) - cf.binomial_energy(n_f, p, omega)
        de_minus = cf.binomial_energy(n_f, pt, omega) - cf.binomial_energy(n_i, p, omega)
        assert cf.w_q_size(n_i, n_f, p, beta, omega) == pytest.approx(
            (de_plus - de_minus) / 2.0, abs=1e-13)


class TestDistortionFactors:
    def test_classical_limit(self):
        chi = 1e-4
        assert abs(cf.q_align(0.3, 0.8, chi) - 1.0) < 1e-3
        assert abs(cf.q_size(0.5, chi) - 1.0) < 1e-3

    def test_symmetry_in_weights(self):
        for chi in (0.2, 1.0, 6.0):
            assert cf.q_align(0.25, 0.9, chi) == pytest.approx(
                cf.q_align(0.9, 0.25, chi), rel=1e-14)

    def test_definitional_ratio(self):
        # q * W_q must reassemble the generalized work flow exactly
        beta, omega, n = 2.6, 1.0, 7
        chi = beta * omega / 2.0
        p_i, p_f = 0.35, 0.75
        lhs = cf.q_align(p_i, p_f, chi) * cf.w_q_align(n, p_i, p_f, beta, omega)
        assert lhs == pytest.approx(cf.gen_work_align(n, p_i, p_f, beta, omega),
                                    abs=1e-12)
        lhs = cf.q_size(0.4, chi) * cf.w_q_size(3, 9, 0.4, beta, omega)
        assert lhs == pytest.approx(cf.gen_work_size(3, 9, 0.4, beta, omega),
                                    abs=1e-12)

    def test_factors_agree_when_one_weight_vanishes(self):
        # long-form realignment factor with p_i = 0 coincides with the
        # resizing factor evaluated at the surviving weight
        for chi in (0.3, 1.0, 4.0):
            for p in (0.2, 0.6, 0.95):
                assert cf.q_align_longform(0.0, p, chi) == pytest.approx(
                    cf.q_size(p, chi), rel=1e-12)

    def test_zero_weight_guard(self):
        with pytest.raises(DomainError):
            cf.q_align(0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            cf.q_size(0.0, 1.0)
        with pytest.raises(DomainError):
            cf.q_align(0.5, 0.5, 1.0)

    def test_factors_take_no_size_argument(self):
        assert "n" not in inspect.signature(cf.q_align).parameters
        assert "n" not in inspect.signature(cf.q_size).parameters

    def test_brute_force_ratio_is_size_invariant(self):
        beta, omega = 1.8, 1.0
        chi = beta * omega / 2.0
        p_i, p_f = 0.3, 0.7
        ratios = []
        for n in (2, 5, 11):
            ratios.append(cf.gen_work_align(n, p_i, p_f, beta, omega)
                          / cf.w_q_align(n, p_i, p_f, beta, omega))
        assert max(ratios) - min(ratios) < 1e-10
        assert ratios[0] == pytest.approx(cf.q_align(p_i, p_f, chi), abs=1e-12)


class TestHarmonicLimit:
    def test_q_harmonic_values(self):
        assert cf.q_harmonic(1e-8) == pytest.approx(1.0, abs=1e-8)
        assert cf.q_harmonic(1.0) == pytest.approx(math.tanh(1.0), rel=1e-14)

    def test_binomial_factors_converge_to_harmonic(self):
        n = 10_000
        for chi in (0.5, 1.5):
            value = cf.q_align(0.5 / n, 1.5 / n, chi)
            assert abs(value - cf.q_harmonic(chi)) < 1e-3

    def test_coherent_eff_potential(self):
        assert cf.coherent_eff_potential(0.0, 1.0, 1.3) == pytest.approx(0.65)
        lam, beta, omega = 1.7, 0.9, 1.0
        n = 2_000_000
        binom = cf.binomial_eff_potential(n, lam / n, beta, omega)
        assert cf.coherent_eff_potential(lam, beta, omega) == pytest.approx(
            binom, abs=1e-5)
        assert cf.coherent_eff_potential(lam, 1e-9, omega) == pytest.approx(
            omega * (lam + 0.5), rel=1e-6)


class TestCharacteristicFunctions:
    def test_t_zero(self):
        assert cf.char_fn_binomial(5, 0.4, 1.0, 0.0) == pytest.approx(1.0)
        assert cf.char_fn_coherent(1.2, 1.0, 0.0) == pytest.approx(1.0)

    def test_modulus_bounded(self):
        for t in np.linspace(0, 12, 40):
            assert abs(cf.char_fn_binomial(6, 0.3, 1.0, t)) <= 1 + 1e-12
            assert abs(cf.char_fn_coherent(0.8, 1.0, t)) <= 1 + 1e-12

    def test_binomial_matches_state_expectation(self):
        # oracle: <n,p| e^{i H t} |n,p> from the explicit state
        n, p, omega, t = 6, 0.35, 1.0, 0.9
        space = fock.HilbertSpace(10, "b")
        state = fock.binomial_state(n, p, space)
        energies = omega * (np.arange(10) + 0.5)
        oracle = np.sum(np.abs(state.amplitudes) ** 2 * np.exp(1j * energies * t))
        assert cf.char_fn_binomial(n, p, omega, t) == pytest.approx(oracle, abs=1e-12)

    def test_sup_gap_decreasing_in_size(self):
        lam = 1.0
        t_grid = np.linspace(0.0, 6.0, 100)
        gaps = []
        for n in (8, 32, 128):
            gaps.append(max(abs(cf.char_fn_binomial(n, lam / n, 1.0, t)
                                - cf.char_fn_coherent(lam, 1.0, t)) for t in t_grid))
        assert gaps[0] > gaps[1] > gaps[2]


class TestOracleEquivalenceGrid:
    def test_closed_forms_match_truncated_traces(self):
        # dense-grid agreement between scalar formulas and matrix computation
        for chi in (0.2, 0.8, 2.5, 8.0):
            beta = 1.0
            omega = 2.0 * chi / beta
            cutoff = max(fock.min_cutoff_for_tail(beta, omega, 1e-14, 2000), 12) + 40
            mode = fock.OscillatorMode(omega, cutoff)
            z_brute = float(np.sum(np.exp(-beta * mode.energies)))
            assert cf.partition_fn(chi) == pytest.approx(z_brute, rel=1e-10)
            n_brute = fock.expectation(fock.number_operator(mode),
                                       fock.thermal_state(beta, mode, 1e-12))
            assert cf.mean_occupation(chi) == pytest.approx(n_brute, abs=1e-10)
