import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qflux import dynamics as dyn, fock, gibbs
from qflux.errors import (DegenerateMapError, DimensionError, DomainError,
                          GibbsOverflowError)
from qflux.scenarios import _binomial_battery_state


@pytest.fixture
def mode():
    return fock.OscillatorMode(1.0, 40)


@pytest.fixture
def h(mode):
    return mode.energies


class TestGibbsMap:
    def test_identity_gives_thermal(self, mode, h):
        beta = 1.4
        mapped = gibbs.gibbs_map(fock.identity(mode.space), h, beta)
        thermal = fock.thermal_state(beta, mode, 1e-6)
        assert np.abs(mapped.matrix - thermal.matrix).max() < 1e-14

    def test_eigenprojector_fixed(self, mode, h):
        proj = np.zeros((40, 40), dtype=complex)
        proj[7, 7] = 1.0
        mapped = gibbs.gibbs_map(proj, h, 2.0)
        assert mapped.matrix[7, 7] == pytest.approx(1.0)

    def test_number_operator_gives_photon_added(self, mode, h):
        beta = 0.9
        mapped = gibbs.gibbs_map(fock.number_operator(mode), h, beta)
        added = fock.photon_added_state(beta, mode, 1e-6)
        assert np.abs(mapped.matrix - added.matrix).max() < 1e-14

    def test_binomial_projector_rescales_weight(self, mode, h):
        # Gibbs rescaling keeps binomial statistics, moving p to
        # p e^{-beta omega} / (p e^{-beta omega} + q)
        beta, p, n = 1.1, 0.6, 5
        state = fock.binomial_state(n, p, mode.space)
        mapped = gibbs.gibbs_map(state.projector(), h, beta)
        x = math.exp(-beta * 1.0)
        p_resc = p * x / (p * x + (1 - p))
        target = fock.binomial_state(n, p_resc, mode.space)
        assert fock.state_fidelity(target, mapped) > 1 - 1e-13

    def test_binomial_battery_projector_maps_c_ordered(self):
        # a C-ordered map, bit for bit the entries (w_b x_ba) w_a / Tr
        battery = dyn.SwitchedBattery(32, dyn.battery_spacing_for(1, 1))
        h_b = battery.energies
        for sector in (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL):
            x = _binomial_battery_state(battery, 6, 0.4, sector).projector().matrix
            mapped = gibbs.gibbs_map(x, h_b, 0.7).matrix
            assert mapped.flags.c_contiguous
            w = np.exp(-0.7 * (h_b - h_b.min()) / 2.0)
            old = (w[:, None] * x * w[None, :]).T
            assert np.array_equal(mapped, old / np.trace(old).real)

    def test_degenerate_map(self, mode, h):
        with pytest.raises(DegenerateMapError):
            gibbs.gibbs_map(np.zeros((40, 40), dtype=complex), h, 1.0)

    def test_beta_floor(self, mode, h):
        with pytest.raises(DomainError):
            gibbs.gibbs_map(fock.identity(mode.space), h, 0.0)


def battery_states():
    """Rank-one battery operators as states: the binomial suites' |n, p> on
    either switch sector, a binomial ladder state with phases, and a
    coherent one."""
    battery = dyn.SwitchedBattery(32, dyn.battery_spacing_for(1, 1))
    space = battery.ladder_space
    phased = fock.binomial_state(5, 0.35, space, phases=np.linspace(0.0, 2.5, 6))
    return battery.energies, [
        _binomial_battery_state(battery, 6, 0.4, dyn.SECTOR_INITIAL),
        _binomial_battery_state(battery, 6, 0.4, dyn.SECTOR_FINAL),
        fock.PureState(battery.space, np.repeat(phased.amplitudes, 2) / math.sqrt(2.0)),
        fock.PureState(battery.space,
                       np.kron(fock.coherent_state(1.1 + 0.4j, space, tail_tol=0.5).amplitudes,
                               [0.6, 0.8j]))]


class TestPureStates:
    """A rank-one X given as its state: mapped as a vector, read as |v|^2."""

    @pytest.mark.parametrize("beta", [0.05, 0.7, 6.0])
    def test_map_matches_the_projector_map_without_eigvalsh(self, monkeypatch, beta):
        h_b, states = battery_states()
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        for state in states:
            mapped = gibbs.gibbs_map(state, h_b, beta)
            assert isinstance(mapped, fock.PureState) and mapped.space == state.space
            assert calls == []
            dense = gibbs.gibbs_map(state.projector(), h_b, beta).matrix
            assert len(calls) == 1   # the projector's map checks its spectrum
            calls.clear()
            assert np.abs(mapped.projector().matrix - dense).max() <= 1e-14

    def test_vanishing_map_raises(self):
        # all weight past the double floor of the shifted exponentials
        h = np.array([0.0, 1e4])
        with pytest.raises(DegenerateMapError):
            gibbs.gibbs_map(fock.PureState(fock.HilbertSpace(2), [0.0, 1.0]), h, 1.0)

    @pytest.mark.parametrize("x", [np.diag([1.0, -0.5, 0.25]),
                                   np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])],
                             ids=["diagonal", "dense"])
    def test_a_matrix_that_is_not_positive_still_raises(self, x):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            gibbs.gibbs_map(x.astype(complex), np.array([0.5, 1.5, 2.5]), 0.3)

    @pytest.mark.parametrize("beta", [0.05, 0.7, 6.0])
    def test_potentials_and_work_equal_the_projectors(self, beta):
        h_b, states = battery_states()
        for state in states:
            pure = gibbs.effective_potential(beta, h_b, state)
            dense = gibbs.effective_potential(beta, h_b, state.projector())
            assert (pure.e_min, pure.e_max) == (dense.e_min, dense.e_max)
            assert pure.value == pytest.approx(dense.value, rel=1e-14, abs=1e-14)
            assert pure.weight_sum == pytest.approx(dense.weight_sum, rel=1e-14)
        for x_i, x_f in zip(states, states[1:]):
            assert gibbs.gen_work_diff(beta, h_b, x_i, x_f) == pytest.approx(
                gibbs.gen_work_diff(beta, h_b, x_i.projector(), x_f.projector()), abs=1e-14)


class TestGibbsMapInverse:
    def test_photon_added_recovers_number_operator(self, mode, h):
        beta = 1.0
        added = fock.photon_added_state(beta, mode, 1e-6)
        recovered = gibbs.gibbs_map_inverse(added, h, beta)
        target = fock.number_operator(mode).matrix / (mode.cutoff - 1)
        assert np.abs(recovered.matrix - target).max() < 1e-10

    def test_photon_subtracted_recovers_number_plus_one(self, mode, h):
        beta = 1.0
        subtracted = fock.photon_subtracted_state(beta, mode, 1e-6)
        recovered = gibbs.gibbs_map_inverse(subtracted, h, beta)
        target = np.diag(np.arange(1, 41, dtype=complex)) / 40.0
        assert np.abs(recovered.matrix - target).max() < 1e-10

    def test_thermal_recovers_identity(self, mode, h):
        beta = 0.8
        thermal = fock.thermal_state(beta, mode, 1e-6)
        recovered = gibbs.gibbs_map_inverse(thermal, h, beta)
        assert np.abs(recovered.matrix - np.eye(40)).max() < 1e-10

    def test_amplification_guard(self, h, mode):
        thermal = fock.thermal_state(18.0, mode, 1e-12)
        with pytest.raises(GibbsOverflowError):
            gibbs.gibbs_map_inverse(thermal, h, 18.0)   # beta*span = 18*39 >> bound

    @pytest.mark.parametrize("family", ["thermal", "added", "subtracted",
                                        "binomial", "coherent"])
    def test_round_trip_fidelity(self, mode, h, family):
        beta = 1.3
        if family == "thermal":
            rho = fock.thermal_state(beta, mode, 1e-6)
        elif family == "added":
            rho = fock.photon_added_state(beta, mode, 1e-6)
        elif family == "subtracted":
            rho = fock.photon_subtracted_state(beta, mode, 1e-6)
        elif family == "binomial":
            rho = fock.binomial_state(6, 0.35, mode.space).density()
        else:
            rho = fock.coherent_state(0.9, mode.space).density()
        recovered = gibbs.gibbs_map(gibbs.gibbs_map_inverse(rho, h, beta), h, beta)
        assert fock.state_fidelity(rho, recovered) >= 1 - 1e-10

    def test_round_trip_satisfies_density_invariants(self, mode, h):
        rho = fock.coherent_state(0.7, mode.space).density()
        out = gibbs.gibbs_map(gibbs.gibbs_map_inverse(rho, h, 0.9), h, 0.9)
        assert isinstance(out, fock.DensityState)   # validation ran in constructor


class TestEffectivePotential:
    def test_eigenprojector_gives_eigenvalue(self, mode, h):
        proj = np.zeros((40, 40), dtype=complex)
        proj[5, 5] = 1.0
        value = gibbs.effective_potential(2.0, h, proj).value
        assert value == pytest.approx(5.5, abs=1e-12)

    def test_identity_gives_free_energy(self, mode, h):
        beta = 1.7
        value = gibbs.effective_potential(beta, h, fock.identity(mode.space)).value
        z_direct = np.sum(np.exp(-beta * h))
        assert value == pytest.approx(-math.log(z_direct) / beta, abs=1e-12)

    def test_binomial_closed_form(self, mode, h):
        # direct-series oracle for a binomial superposition
        beta, n, p = 2.2, 7, 0.4
        state = fock.binomial_state(n, p, mode.space)
        value = gibbs.effective_potential(beta, h, state.projector()).value
        weights = np.abs(state.amplitudes) ** 2
        oracle = -math.log(np.sum(weights * np.exp(-beta * h))) / beta
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_extreme_chi_no_overflow(self, mode, h):
        # chi = beta*omega/2 = 50: naive trace underflows, logsumexp survives
        value = gibbs.effective_potential(100.0, h, fock.identity(mode.space)).value
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_extreme_chi_weight_on_high_level(self):
        # chi = 50 with all weight on |40>: the log-trace must be shifted by
        # the largest exponent over the support, not over every level, or
        # exp(-beta E_40) underflows against the unweighted ground level
        mode = fock.OscillatorMode(1.0, 64)
        proj = np.zeros((64, 64), dtype=complex)
        proj[40, 40] = 1.0
        assert gibbs.effective_potential(100.0, mode.energies, proj).value == 40.5

    def test_bounds_for_unit_weight_operators(self, mode, h):
        rng = np.random.default_rng(8)
        for _ in range(25):
            v = rng.normal(size=40) + 1j * rng.normal(size=40)
            v /= np.linalg.norm(v)
            proj = np.outer(v, v.conj())
            ep = gibbs.effective_potential(1.1, h, proj)
            support = np.abs(v) ** 2 > 1e-14
            assert h[support].min() - 1e-10 <= ep.value
            assert ep.value <= h[support].max() + 1e-10

    def test_scaled_operator_shifts_by_log_weight(self, mode, h):
        proj = np.zeros((40, 40), dtype=complex)
        proj[3, 3] = 2.0   # weight-2 projector
        beta = 1.0
        ep = gibbs.effective_potential(beta, h, proj)
        assert ep.value == pytest.approx(3.5 - math.log(2.0) / beta, abs=1e-12)

    def test_unitary_invariance_on_degenerate_block(self):
        # H with an exactly degenerate pair; any block unitary commutes
        space = fock.HilbertSpace(4, "s")
        h = np.array([0.5, 1.5, 1.5, 3.0])
        rng = np.random.default_rng(5)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(g)
        u = np.eye(4, dtype=complex)
        u[1:3, 1:3] = q
        assert np.abs(u @ np.diag(h) - np.diag(h) @ u).max() < 1e-12
        rho = fock.binomial_state(3, 0.5, space).projector().matrix
        rotated = u @ rho @ u.conj().T
        e1 = gibbs.effective_potential(1.3, h, rho).value
        e2 = gibbs.effective_potential(1.3, h, rotated).value
        assert abs(e1 - e2) < 1e-10

    def test_float_conversion(self, mode, h):
        ep = gibbs.effective_potential(1.0, h, fock.identity(mode.space))
        assert float(ep) == ep.value


_ENTRY_POINTS = {
    "gibbs_map": lambda h, x: gibbs.gibbs_map(x, h, 1.0),
    "gibbs_map_inverse": lambda h, x: gibbs.gibbs_map_inverse(x, h, 1.0),
    "effective_potential": lambda h, x: gibbs.effective_potential(1.0, h, x),
    "gen_free_energy_diff": lambda h, x: gibbs.gen_free_energy_diff(1.0, h, x, h, x),
    "gen_work_diff": lambda h, x: gibbs.gen_work_diff(1.0, h, x, x),
}


_FORMS = pytest.mark.parametrize("form,error,match", [
    ("matrix", DimensionError, "1-D real energy vector"),
    ("operator", DimensionError, "1-D real energy vector"),
    ("complex", DimensionError, "1-D real energy vector"),
    ("short", DimensionError, "dim mismatch"),
    ("nan", ValueError, "finite"), ("inf", ValueError, "finite")])


def _energy_form(form, mode):
    e = mode.energies
    return {"matrix": np.diag(e),
            "operator": fock.OperatorMatrix(mode.space, np.diag(e)),
            "complex": e.astype(complex),
            "short": e[:3],
            "nan": np.array([0.5, np.nan, 2.5, 3.5]),
            "inf": np.array([0.5, 1.5, np.inf, 3.5])}[form]


class TestEnergyVectorCheck:
    """Every gibbs entry point takes H as its 1-D real, finite energy vector."""

    @pytest.mark.parametrize("entry", _ENTRY_POINTS)
    @_FORMS
    def test_rejects(self, entry, form, error, match):
        mode = fock.OscillatorMode(1.0, 4)
        x = fock.thermal_state(1.0, mode, tail_tol=1.0)
        with pytest.raises(error, match=match):
            _ENTRY_POINTS[entry](_energy_form(form, mode), x)

    # gibbs_map_inverse maps a state back to an operator: it takes no PureState
    @pytest.mark.parametrize("entry", [e for e in _ENTRY_POINTS if e != "gibbs_map_inverse"])
    @_FORMS
    def test_rejects_beside_a_pure_state(self, entry, form, error, match):
        mode = fock.OscillatorMode(1.0, 4)
        x = fock.binomial_state(2, 0.5, mode.space)
        with pytest.raises(error, match=match):
            _ENTRY_POINTS[entry](_energy_form(form, mode), x)


class TestRescaledWeightMonotonicity:
    @given(p=st.floats(0.001, 0.999), chi=st.floats(1e-4, 30.0))
    @settings(max_examples=80, deadline=None)
    def test_mapped_weight_never_exceeds_original(self, p, chi):
        x = math.exp(-2.0 * chi)
        p_resc = p * x / (p * x + 1 - p)
        assert p_resc <= p + 1e-15


class TestGeneralizedDifferences:
    def test_identity_pair_reduces_to_free_energy_difference(self):
        beta = 2.0
        mode_i = fock.OscillatorMode(1.0, 40)
        mode_f = fock.OscillatorMode(1.5, 40)
        h_i, h_f = mode_i.energies, mode_f.energies
        diff = gibbs.gen_free_energy_diff(beta, h_i, fock.identity(mode_i.space),
                                          h_f, fock.identity(mode_f.space))
        z_i = np.sum(np.exp(-beta * h_i))
        z_f = np.sum(np.exp(-beta * h_f))
        assert diff == pytest.approx(math.log(z_i / z_f) / beta, abs=1e-12)

    @pytest.mark.parametrize("offset,sign", [(0, +1), (1, -1)])
    def test_number_operator_pair(self, offset, sign):
        # X = N (offset 0) -> 2 dF + dE_vac; X = N + 1 -> 2 dF - dE_vac
        beta, w_i, w_f, cutoff = 2.0, 1.0, 1.5, 60
        mode_i = fock.OscillatorMode(w_i, cutoff)
        mode_f = fock.OscillatorMode(w_f, cutoff)
        h_i, h_f = mode_i.energies, mode_f.energies
        x_i = np.diag(np.arange(offset, cutoff + offset, dtype=complex))
        diff = gibbs.gen_free_energy_diff(beta, h_i, x_i, h_f, x_i)
        def log_z(w):
            return math.log(1.0 / (2.0 * math.sinh(beta * w / 2.0)))
        delta_f = (log_z(w_i) - log_z(w_f)) / beta
        expected = 2.0 * delta_f + sign * (w_f - w_i) / 2.0
        assert diff == pytest.approx(expected, abs=1e-12)

    def test_work_diff_between_eigenstates(self):
        h_b = 0.5 * np.arange(10)
        proj = lambda k: np.diag(np.eye(10)[k]).astype(complex)
        work = gibbs.gen_work_diff(1.1, h_b, proj(7), proj(3))
        assert work == pytest.approx(0.5 * (7 - 3), abs=1e-12)

    def test_work_diff_equal_operators_vanishes(self):
        space = fock.HilbertSpace(6, "b")
        h_b = np.arange(6.0)
        x = fock.binomial_state(4, 0.3, space).projector()
        assert gibbs.gen_work_diff(0.7, h_b, x, x) == pytest.approx(0.0, abs=1e-13)

    def test_work_diff_binomial_realignment_matches_scalar_flow(self):
        from qflux import closedform as cf
        beta, omega, n = 1.2, 1.0, 5
        p_i, p_f = 0.2, 0.65
        space = fock.HilbertSpace(9, "b")
        h_b = fock.OscillatorMode(omega, 9).energies
        flow = gibbs.gen_work_diff(beta, h_b,
                                   fock.binomial_state(n, p_i, space).projector(),
                                   fock.binomial_state(n, p_f, space).projector())
        assert flow == pytest.approx(cf.gen_work_align(n, p_i, p_f, beta, omega),
                                     abs=1e-12)
