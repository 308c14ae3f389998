import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflux import fock
from qflux.errors import DimensionError, TruncationError


def geometric_mean_occupation(beta, omega, terms=4000):
    """Series oracle for the thermal mean photon number."""
    n = np.arange(terms)
    w = np.exp(-beta * omega * n)
    return float((n * w).sum() / w.sum())


class TestHamiltonian:
    def test_unit_frequency_two_levels(self):
        h = fock.OscillatorMode(1.0, 2).energies
        assert np.allclose(h, [0.5, 1.5])

    def test_spectrum_values(self):
        h = fock.OscillatorMode(1.5, 3).energies
        expected = [1.5 * (n + 0.5) for n in range(3)]
        assert np.allclose(h, expected)

    def test_vacuum_energy(self):
        mode = fock.OscillatorMode(2.0, 4)
        h = fock.OperatorMatrix(mode.space, np.diag(mode.energies))
        vac = fock.PureState(mode.space, np.array([1, 0, 0, 0], dtype=complex))
        assert fock.expectation(h, vac) == pytest.approx(1.0)


class TestThermalState:
    def test_mean_occupation_at_chi_ln2(self):
        # chi = ln 2 means e^{2 chi} = 4, nbar = 1/3; oracle sums the series
        beta, omega = 2.0 * math.log(2.0), 1.0
        mode = fock.OscillatorMode(omega, 80)
        state = fock.thermal_state(beta, mode)
        n_op = fock.number_operator(mode)
        oracle = geometric_mean_occupation(beta, omega)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert fock.expectation(n_op, state) == pytest.approx(oracle, abs=1e-10)

    def test_ground_state_limit(self):
        mode = fock.OscillatorMode(1.0, 10)
        state = fock.thermal_state(40.0, mode)   # chi = 20
        vac = np.zeros(10, dtype=complex); vac[0] = 1.0
        ground = fock.PureState(mode.space, vac)
        assert fock.state_fidelity(ground, state) > 1.0 - 1e-8

    def test_trace_one_on_grid(self):
        for beta in (0.05, 0.5, 5.0, 20.0):
            for omega in (0.5, 1.0, 5.0):
                cutoff = fock.min_cutoff_for_tail(beta, omega, 1e-8, max_cutoff=2000)
                state = fock.thermal_state(beta, fock.OscillatorMode(omega, cutoff), 1e-8)
                assert abs(np.trace(state.matrix).real - 1.0) < 1e-12

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            fock.thermal_state(0.1, fock.OscillatorMode(1.0, 4), 1e-10)


class TestPhotonAddedSubtracted:
    def test_added_mean_is_doubled_plus_one(self):
        beta, omega = 1.2, 1.0
        mode = fock.OscillatorMode(omega, 60)
        state = fock.photon_added_state(beta, mode)
        nbar = geometric_mean_occupation(beta, omega)
        mean = fock.expectation(fock.number_operator(mode), state)
        assert mean == pytest.approx(2 * nbar + 1, abs=10 * max(state.tail_mass, 1e-14))

    def test_subtracted_mean_is_doubled(self):
        beta, omega = 1.2, 1.0
        mode = fock.OscillatorMode(omega, 60)
        state = fock.photon_subtracted_state(beta, mode)
        nbar = geometric_mean_occupation(beta, omega)
        mean = fock.expectation(fock.number_operator(mode), state)
        assert mean == pytest.approx(2 * nbar, abs=10 * max(state.tail_mass, 1e-14))

    def test_added_no_vacuum_weight(self):
        state = fock.photon_added_state(0.7, fock.OscillatorMode(1.0, 40))
        assert state.matrix[0, 0] == 0.0

    def test_low_temperature_limits(self):
        mode = fock.OscillatorMode(1.0, 8)
        added = fock.photon_added_state(40.0, mode)
        subtracted = fock.photon_subtracted_state(40.0, mode)
        one = np.zeros(8, dtype=complex); one[1] = 1.0
        vac = np.zeros(8, dtype=complex); vac[0] = 1.0
        assert fock.state_fidelity(fock.PureState(mode.space, one), added) > 1 - 1e-8
        assert fock.state_fidelity(fock.PureState(mode.space, vac), subtracted) > 1 - 1e-8

    def test_spectra_shift_by_one_level(self):
        # same weight multiset, with the added state shifted one level up
        mode = fock.OscillatorMode(1.0, 50)
        added = fock.photon_added_state(1.0, mode)
        subtracted = fock.photon_subtracted_state(1.0, mode)
        w_added = np.diag(added.matrix).real
        w_sub = np.diag(subtracted.matrix).real
        assert np.allclose(w_added[1:], w_sub[:-1], atol=1e-12)

    def test_diagonal_in_number_basis(self):
        mode = fock.OscillatorMode(2.0, 30)
        for state in (fock.thermal_state(0.8, mode),
                      fock.photon_added_state(0.8, mode),
                      fock.photon_subtracted_state(0.8, mode)):
            off = state.matrix - np.diag(np.diag(state.matrix))
            assert np.abs(off).max() < 1e-14


class TestMinCutoffForTail:
    CONSTRUCTORS = {"thermal": fock.thermal_state,
                    "added": fock.photon_added_state,
                    "subtracted": fock.photon_subtracted_state}

    @pytest.mark.parametrize("kind", ["thermal", "added", "subtracted"])
    def test_constructor_accepts_cutoff_and_rejects_one_less(self, kind):
        make = self.CONSTRUCTORS[kind]
        for beta in (0.05, 0.4, 1.0, 4.0):
            for omega in (0.5, 1.0, 3.0):
                for tol in (1e-4, 1e-8, 1e-12):
                    c = fock.min_cutoff_for_tail(beta, omega, tol, 4000, kind=kind)
                    state = make(beta, fock.OscillatorMode(omega, c), tail_tol=tol)
                    assert state.tail_mass <= tol
                    if c > 2:
                        with pytest.raises(TruncationError):
                            make(beta, fock.OscillatorMode(omega, c - 1), tail_tol=tol)

    def test_photon_added_state_at_its_own_cutoff(self):
        # the thermal bound (cutoff 7) leaves the added state a 2.6e-10 tail
        assert fock.min_cutoff_for_tail(4.0, 1.0, 1e-12) == 7
        with pytest.raises(TruncationError):
            fock.photon_added_state(4.0, fock.OscillatorMode(1, 7), tail_tol=1e-12)
        c = fock.min_cutoff_for_tail(4.0, 1.0, 1e-12, kind="added")
        assert c > 7
        fock.photon_added_state(4.0, fock.OscillatorMode(1, c), tail_tol=1e-12)

    def test_thermal_default_is_geometric_tail(self):
        for beta, omega, tol in ((0.3, 1.0, 1e-6), (2.0, 0.5, 1e-12), (8.0, 2.0, 1e-3)):
            x = math.exp(-beta * omega)
            expected = next(d for d in range(2, 4000) if x ** d <= tol)
            assert fock.min_cutoff_for_tail(beta, omega, tol, 4000) == expected
            assert fock.min_cutoff_for_tail(beta, omega, tol, 4000, kind="thermal") == expected

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            fock.min_cutoff_for_tail(1.0, 1.0, kind="coherent")


class TestBinomialState:
    def test_two_level_amplitudes(self):
        space = fock.HilbertSpace(4, "s")
        for p in (0.2, 0.5, 0.77):
            state = fock.binomial_state(1, p, space)
            assert state.amplitudes[0] == pytest.approx(math.sqrt(1 - p))
            assert state.amplitudes[1] == pytest.approx(math.sqrt(p))

    def test_degenerate_cases(self):
        space = fock.HilbertSpace(6, "s")
        top = fock.binomial_state(4, 1.0, space)
        assert abs(top.amplitudes[4]) == pytest.approx(1.0)
        bottom = fock.binomial_state(4, 0.0, space)
        assert abs(bottom.amplitudes[0]) == pytest.approx(1.0)

    def test_weights_from_binomial_coefficients(self):
        space = fock.HilbertSpace(5, "s")
        state = fock.binomial_state(2, 0.5, space)
        weights = np.abs(state.amplitudes[:3]) ** 2
        assert np.allclose(weights, [0.25, 0.5, 0.25])

    def test_amplitudes_against_exact_binomial_coefficients(self):
        n, p = 200, 0.3
        state = fock.binomial_state(n, p, fock.HilbertSpace(n + 1, "s"))
        ref = np.array([math.sqrt(math.comb(n, k) * p ** k * (1 - p) ** (n - k))
                        for k in range(n + 1)])
        assert np.abs(state.amplitudes - ref).max() <= 1e-13
        assert (np.abs(state.amplitudes - ref) / ref).max() <= 1e-12

    def test_large_n_stays_normalized(self):
        n = 10 ** 4
        state = fock.binomial_state(n, 0.3, fock.HilbertSpace(n + 1, "s"))
        assert np.isfinite(state.amplitudes).all()
        assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(DimensionError):
            fock.binomial_state(5, 0.5, fock.HilbertSpace(5, "s"))

    def test_phases_applied(self):
        space = fock.HilbertSpace(3, "s")
        state = fock.binomial_state(1, 0.5, space, phases=[0.0, math.pi / 2])
        assert state.amplitudes[1] == pytest.approx(1j * math.sqrt(0.5))

    @given(n=st.integers(1, 16), p=st.floats(0.01, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_sub_poissonian_statistics(self, n, p):
        space = fock.HilbertSpace(n + 1, "s")
        state = fock.binomial_state(n, p, space)
        k = np.arange(n + 1)
        w = np.abs(state.amplitudes) ** 2
        mean = float((k * w).sum())
        var = float(((k - mean) ** 2 * w).sum())
        assert mean == pytest.approx(n * p, abs=1e-9)
        assert var == pytest.approx(n * p * (1 - p), abs=1e-9)
        assert var < mean + 1e-12


class TestCoherentState:
    def test_alpha_zero_is_vacuum(self):
        state = fock.coherent_state(0.0, fock.HilbertSpace(5, "s"))
        assert abs(state.amplitudes[0]) == pytest.approx(1.0)

    def test_poisson_mean(self):
        # oracle: direct Poisson series for <N>
        alpha = 1.3
        dim = 60
        state = fock.coherent_state(alpha, fock.HilbertSpace(dim, "s"))
        k = np.arange(dim)
        oracle = sum(k * abs(alpha) ** (2 * k) / (math.gamma(k + 1))
                     for k in range(dim)) * math.exp(-abs(alpha) ** 2)
        mean = float((k * np.abs(state.amplitudes) ** 2).sum())
        assert mean == pytest.approx(oracle, abs=1e-10)
        assert mean == pytest.approx(abs(alpha) ** 2, abs=1e-8)

    def test_binomial_overlap_grows_with_size(self):
        lam = 1.0
        overlaps = []
        for n in (8, 32, 128):
            space = fock.HilbertSpace(n + 2, "s")
            coh = fock.coherent_state(math.sqrt(lam), space, tail_tol=0.5)
            binom = fock.binomial_state(n, lam / n, space)
            overlaps.append(abs(np.vdot(coh.amplitudes, binom.amplitudes)) ** 2)
        assert overlaps[0] < overlaps[1] < overlaps[2]

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            fock.coherent_state(3.0, fock.HilbertSpace(5, "s"))


class TestAlgebraPlumbing:
    def test_thermal_energy_matches_log_partition_derivative(self):
        # -d ln Z / d beta via central finite difference on the truncated sum
        beta, omega, cutoff = 0.9, 1.3, 70
        mode = fock.OscillatorMode(omega, cutoff)
        h = fock.OperatorMatrix(mode.space, np.diag(mode.energies))

        def log_z(b):
            return math.log(np.sum(np.exp(-b * mode.energies)))

        step = 1e-5
        oracle = -(log_z(beta + step) - log_z(beta - step)) / (2 * step)
        energy = fock.expectation(h, fock.thermal_state(beta, mode))
        assert energy == pytest.approx(oracle, abs=1e-7)

    @pytest.mark.parametrize("matrix", [np.diag([1.2, -0.2, 0.0]),
                                        np.array([[0.5, 0.9, 0], [0.9, 0.5, 0], [0, 0, 0]])],
                                ids=["diagonal", "off-diagonal"])
    def test_density_with_a_negative_eigenvalue(self, matrix):
        # unit trace and Hermitian, with eigenvalue -0.2 or -0.4
        with pytest.raises(ValueError, match="negative eigenvalue"):
            fock.DensityState(fock.HilbertSpace(3, "s"), matrix.astype(complex))

    def test_expectation_dimension_guard(self):
        mode = fock.OscillatorMode(1.0, 4)
        other = fock.thermal_state(2.0, fock.OscillatorMode(1.0, 5), 1e-2)
        with pytest.raises(DimensionError):
            fock.expectation(fock.OperatorMatrix(mode.space, np.diag(mode.energies)), other)


class TestFamilyInvariantsOnGrid:
    @pytest.mark.parametrize("beta", [0.05, 0.5, 5.0, 20.0])
    @pytest.mark.parametrize("omega", [0.5, 5.0])
    def test_thermal_family_valid(self, beta, omega):
        cutoff = fock.min_cutoff_for_tail(beta, omega, 1e-8, max_cutoff=2000) + 20
        mode = fock.OscillatorMode(omega, cutoff)
        for maker in (fock.thermal_state, fock.photon_added_state,
                      fock.photon_subtracted_state):
            state = maker(beta, mode, 1e-6)
            m = state.matrix
            assert abs(np.trace(m).real - 1) < 1e-12
            assert np.abs(m - m.conj().T).max() < 1e-12
            assert np.diag(m).real.min() >= 0.0

    def test_cutoff_increase_stability(self):
        beta, omega = 1.0, 1.0
        small = fock.thermal_state(beta, fock.OscillatorMode(omega, 40))
        large = fock.thermal_state(beta, fock.OscillatorMode(omega, 80))
        mean_small = fock.expectation(fock.number_operator(fock.OscillatorMode(omega, 40)), small)
        mean_large = fock.expectation(fock.number_operator(fock.OscillatorMode(omega, 80)), large)
        assert abs(mean_small - mean_large) <= 100 * small.tail_mass + 1e-14


class TestFidelity:
    def test_pure_pure(self):
        space = fock.HilbertSpace(2, "s")
        up = fock.PureState(space, np.array([1, 0], dtype=complex))
        plus = fock.PureState(space, np.array([1, 1], dtype=complex) / math.sqrt(2))
        assert fock.state_fidelity(up, plus) == pytest.approx(0.5)

    def test_mixed_equal_states(self):
        mode = fock.OscillatorMode(1.0, 15)
        rho = fock.thermal_state(1.0, mode, 1e-4)
        assert fock.state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
