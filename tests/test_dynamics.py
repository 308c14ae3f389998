import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import assert_valid, block_pairs, padded_unitary

from qflux import closedform as cf
from qflux import dynamics as dyn
from qflux import fock, gibbs
from qflux.errors import (DimensionError, DomainError, IncommensurateError,
                          UndefinedRatioError, WindowError)
from qflux.scenarios import _binomial_battery_state


def small_model(omega_i=1, omega_f=2, cutoff=4, ladder=10):
    spacing = dyn.battery_spacing_for(omega_i, omega_f)
    battery = dyn.SwitchedBattery(ladder, spacing)
    return dyn.build_joint_model(omega_i, omega_f, cutoff, battery)


def dense_unitary(u):
    """U as a d x d array, scattered from the padded block layout."""
    um = np.zeros((u.dim, u.dim), dtype=complex)
    for idx, mat, s in zip(u.indices, u.matrices, u.size):
        um[np.ix_(idx[:s], idx[:s])] = mat[:s, :s]
    return um


def identity_unitary(model):
    """The identity as a conserving unitary: an identity matrix on every block."""
    return padded_unitary([(b, np.eye(b.size, dtype=complex))
                           for b in dyn.spectral_blocks(model)])


class TestBatterySpacing:
    def test_gcd_examples(self):
        assert dyn.battery_spacing_for(1, 2) == Fraction(1, 2)
        assert dyn.battery_spacing_for(1, Fraction(3, 2)) == Fraction(1, 4)
        assert dyn.battery_spacing_for(Fraction(2, 3), Fraction(1, 2)) == Fraction(1, 12)


class TestBuildJointModel:
    def test_cross_sector_degeneracy_doubled_frequency(self):
        # omega_f = 2 omega_i, delta = omega_i / 2: the i-sector state at
        # system level 2 is degenerate with the f-sector state one system
        # level down and one battery level down, both at 2.5 + delta*w.
        model = small_model()
        levels = model.levels.reshape(model.system_cutoff, -1, 2)   # (n, w, s), row-major
        e_i = int(levels[2, 5, dyn.SECTOR_INITIAL]) * model.energy_unit
        e_f = int(levels[1, 4, dyn.SECTOR_FINAL]) * model.energy_unit
        assert e_i == e_f == Fraction(5, 2) + Fraction(1, 2) * 5

    def test_equal_frequencies_pair_every_state(self):
        model = small_model(1, 1, 3, 6)
        for n in range(3):
            for w in range(6):
                e0 = model.levels[(n * 6 + w) * 2]
                e1 = model.levels[(n * 6 + w) * 2 + 1]
                assert e0 == e1

    def test_irrational_ratio_raises(self):
        battery = dyn.SwitchedBattery(12, Fraction(1, 2))
        with pytest.raises(IncommensurateError):
            dyn.build_joint_model(1, math.sqrt(2), 5, battery)

    def test_min_crossings_configurable(self):
        battery = dyn.SwitchedBattery(12, Fraction(1, 2))
        model = dyn.build_joint_model(1, math.sqrt(2), 5, battery,
                                      min_cross_degeneracies=0)
        assert model.dim == 5 * 24

    def test_eq3_assembly(self):
        # H = 1 x H_B + H_i x P_i + H_f x P_f reproduces the stored diagonal;
        # every term is diagonal, so its Kronecker products are the vectors'
        model = small_model(1, Fraction(3, 2), 3, 5)
        battery = model.battery
        h_b = battery.energies
        p_i, p_f = (np.tile(np.eye(2)[sector], battery.ladder_dim)   # b = 2 w + s
                    for sector in (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL))
        h_i = model.system_mode(dyn.SECTOR_INITIAL).energies
        h_f = model.system_mode(dyn.SECTOR_FINAL).energies
        eye_s = np.ones(3)
        assembled = (np.kron(eye_s, h_b) + np.kron(h_i, p_i) + np.kron(h_f, p_f))
        stored = model.levels * float(model.energy_unit)
        assert np.abs(assembled - stored).max() == 0.0

    @pytest.mark.parametrize("omega_f", [Fraction(3, 2), Fraction(1, 3)])
    def test_system_hamiltonian_is_mode_hamiltonian(self, omega_f):
        model = small_model(1, omega_f, 4, 6)
        for sector in (dyn.SECTOR_INITIAL, dyn.SECTOR_FINAL):
            omega = float(model.omega_i if sector == dyn.SECTOR_INITIAL else omega_f)
            mode = model.system_mode(sector)
            assert mode.space == fock.HilbertSpace(4, "system")
            assert np.array_equal(mode.energies, omega * (np.arange(4.0) + 0.5))


class TestSpectralBlocks:
    def test_partition_property(self):
        model = small_model()
        blocks = dyn.spectral_blocks(model)
        seen = sorted(i for b in blocks for i in b)
        assert seen == list(range(model.dim))
        energies = [int(model.levels[b[0]]) * model.energy_unit for b in blocks]
        assert energies == sorted(energies)

    def test_all_singletons_without_resonance(self):
        battery = dyn.SwitchedBattery(6, Fraction(1, 97))   # spacing breaks matches
        model = dyn.build_joint_model(1, Fraction(3, 2), 3, battery,
                                      min_cross_degeneracies=0)
        blocks = dyn.spectral_blocks(model)
        assert all(b.size == 1 for b in blocks)

    def test_multiplicities_match_hand_enumeration(self):
        # cutoff 2, ladder 3, omega_f = 2, delta = 1/2: twelve states with
        # energies (in halves) i-sector: 1,2,3 / 3,4,5 ; f-sector: 2,3,4 / 6,7,8
        model = small_model(1, 2, 2, 3)
        blocks = dyn.spectral_blocks(model)
        counted = {float(int(model.levels[b[0]]) * model.energy_unit): b.size
                   for b in blocks}
        expected = {0.5: 1, 1.0: 2, 1.5: 3, 2.0: 2, 2.5: 1, 3.0: 1, 3.5: 1, 4.0: 1}
        assert counted == expected


class TestConservingUnitary:
    def test_determinism(self):
        model = small_model()
        blocks = dyn.spectral_blocks(model)
        u1 = dyn.sample_conserving_unitary(blocks, 11)
        u2 = dyn.sample_conserving_unitary(blocks, 11)
        assert all(np.array_equal(i1, i2) and np.array_equal(m1, m2)
                   for (i1, m1), (i2, m2) in zip(block_pairs(u1), block_pairs(u2)))
        u3 = dyn.sample_conserving_unitary(blocks, 12)
        assert not all(np.array_equal(m1, m3)
                       for (_, m1), (_, m3) in zip(block_pairs(u1), block_pairs(u3)))

    @pytest.mark.parametrize("seed", range(12))
    def test_invariants_across_seeds(self, seed):
        model = small_model(1, Fraction(3, 2), 4, 8)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), seed)
        assert_valid(u, model)

    def test_symmetry_sweep(self):
        model = small_model()
        blocks = dyn.spectral_blocks(model)
        worst = max(np.abs(um - um.T).max()
                    for um in (dense_unitary(dyn.sample_conserving_unitary(blocks, s))
                               for s in range(100)))
        assert worst < 1e-12

    def test_singleton_blocks_give_diagonal_unitary(self):
        battery = dyn.SwitchedBattery(6, Fraction(1, 97))
        model = dyn.build_joint_model(1, Fraction(3, 2), 3, battery,
                                      min_cross_degeneracies=0)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 5)
        assert all(len(idx) == 1 for idx, _ in block_pairs(u))
        dense = u.entries(np.arange(model.dim), np.arange(model.dim))
        assert np.abs(dense - np.diag(np.diag(dense))).max() == 0.0
        # no population transfer between distinct basis states
        gamma = fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)
        b_i = model.battery.basis_index(3, 0)
        b_f = model.battery.basis_index(2, 1)
        assert dyn.transition_probability(b_f, gamma, b_i, u, model) < 1e-28

    def test_validation_rejects_nonunitary(self):
        model = small_model(1, 1, 2, 3)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 0)
        broken = padded_unitary([(idx, mat * 1.001) for idx, mat in block_pairs(u)])
        with pytest.raises(ValueError):
            assert_valid(broken, model)


class TestTranslationInvariantUnitary:
    def test_shift_identity_for_interior_levels(self):
        model = small_model(1, 2, 4, 36)
        blocks = dyn.spectral_blocks(model)
        reach = dyn.translation_reach(model)
        window = (reach, 35 - reach)
        u = dyn.sample_translation_invariant_unitary(model, blocks, window, 21)
        assert_valid(u, model)
        gamma = fock.photon_added_state(0.8, model.system_mode(0), tail_tol=1.0)
        k0, k1 = window[0], window[0] + 2
        b0 = model.battery.basis_index(k0, 0)
        b1 = model.battery.basis_index(k1, 0)
        for shift in range(-4, 5):
            p0 = dyn.transition_probability(
                model.battery.basis_index(k0 + shift, 1), gamma, b0, u, model)
            p1 = dyn.transition_probability(
                model.battery.basis_index(k1 + shift, 1), gamma, b1, u, model)
            assert abs(p0 - p1) < 1e-10

    def test_window_validation(self):
        model = small_model(1, 2, 4, 36)
        blocks = dyn.spectral_blocks(model)
        reach = dyn.translation_reach(model)
        with pytest.raises(WindowError):
            dyn.sample_translation_invariant_unitary(model, blocks,
                                                     (reach - 1, 20), 0)
        with pytest.raises(WindowError):
            dyn.sample_translation_invariant_unitary(model, blocks, (30, 20), 0)

    def test_identity_unitary_trivially_invariant(self):
        model = small_model(1, 2, 3, 20)
        u = identity_unitary(model)
        assert_valid(u, model)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        for level in (8, 11):
            dist = dyn.work_distribution("F", gamma, level, u, model)
            assert dist[Fraction(0)] == pytest.approx(1.0)


class TestQQuantity:
    def test_identity_measurement_is_trace(self):
        model = small_model(1, 1, 3, 6)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 4)
        rho_s = fock.thermal_state(2.0, model.system_mode(0), 1e-1)
        rho_b = np.eye(model.battery.dim)[model.battery.basis_index(2, 0)]   # a vector
        eye = (np.eye(3, dtype=complex), np.eye(model.battery.dim, dtype=complex))
        assert dyn.q_quantity(eye, (rho_s, rho_b), u, model) == pytest.approx(1.0, abs=1e-12)

    def test_identity_unitary_eigenstate(self):
        model = small_model(1, 1, 3, 6)
        u = identity_unitary(model)
        proj_s = np.zeros((3, 3), dtype=complex)
        proj_s[1, 1] = 1.0
        proj_b = np.diag(np.eye(model.battery.dim)[model.battery.basis_index(3, 0)])
        assert dyn.q_quantity((proj_s, proj_b), (proj_s, proj_b), u, model) == \
            pytest.approx(1.0)

    def test_dimension_guard(self):
        model = small_model(1, 1, 3, 6)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 1)
        eye_b = np.eye(model.battery.dim)
        with pytest.raises(DimensionError):
            dyn.q_quantity((np.eye(4), eye_b), (np.eye(3) / 3, eye_b / eye_b.shape[0]),
                           u, model)

    def test_global_fluctuation_identity_random_scenario(self):
        # the master equality with operators mapped through the Gibbs rescale
        model = small_model(1, Fraction(3, 2), 5, 14)
        beta = 1.1
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 77)
        h_i = model.system_mode(0).energies
        h_f = model.system_mode(1).energies
        h_b = model.battery.energies
        x_s_i = np.diag(np.arange(5, dtype=complex))          # N
        x_s_f = np.diag(np.arange(1, 6, dtype=complex))       # N + 1
        x_b_i = _binomial_battery_state(model.battery, 3, 0.4, dyn.SECTOR_INITIAL)   # a vector
        level_7 = model.battery.basis_index(7, dyn.SECTOR_FINAL)
        x_b_f = np.diag(np.eye(model.battery.dim)[level_7])   # a diagonal
        rho_f = (gibbs.gibbs_map(x_s_i, h_i, beta), gibbs.gibbs_map(x_b_i, h_b, beta))
        rho_r = (gibbs.gibbs_map(x_s_f, h_f, beta), gibbs.gibbs_map(x_b_f, h_b, beta))
        q_f = dyn.q_quantity((x_s_f, x_b_f), rho_f, u, model)
        q_r = dyn.q_quantity((x_s_i, x_b_i), rho_r, u, model)
        assert q_f > 1e-12 and q_r > 1e-12
        lhs = math.log(q_f / q_r)
        rhs = beta * (gibbs.gen_work_diff(beta, h_b, x_b_i, x_b_f)
                      - gibbs.gen_free_energy_diff(beta, h_i, x_s_i, h_f, x_s_f))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestQTermGroups:
    """q_quantity reads a stack in groups of _PAIR_CHUNK // 2L terms, each
    group's battery sides built for its own read."""

    def test_align_terms_at_ladder_4096(self):
        # the 36 terms crooks-binomial-align reads at 4 x 4096, chi 0.5: with
        # 2L = 8192 every term is a group of its own, so the stack holds no
        # (36, 8192) side array; it reads each term's single-call bits
        battery = dyn.SwitchedBattery(4096, dyn.battery_spacing_for(1, 1))
        model = dyn.build_joint_model(1, 1, 4, battery)
        beta = 2 * 0.5 / float(battery.spacing)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 2024)
        grid = (0.2, 0.5, 0.8)
        x_b, rho_b = [], []
        for n, p_i, p_f in ((n, a, b) for n in (2, 4, 6) for a in grid for b in grid if a != b):
            x_b += (_binomial_battery_state(battery, n, p_f, dyn.SECTOR_FINAL),
                    _binomial_battery_state(battery, n, p_i, dyn.SECTOR_INITIAL))
            rho_b += (gibbs.gibbs_map(x_b[-1], battery.energies, beta),
                      gibbs.gibbs_map(x_b[-2], battery.energies, beta))
        eye = np.eye(4, dtype=complex)
        gamma = fock.thermal_state(beta, model.system_mode(0), tail_tol=1.0).matrix
        tracemalloc.start()
        try:
            stacked = dyn.q_quantity((np.array([eye] * 36), x_b), (np.array([gamma] * 36), rho_b),
                                     u, model)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20
        single = [dyn.q_quantity((eye, x), (gamma, r), u, model) for x, r in zip(x_b, rho_b)]
        assert np.array_equal(_bits(stacked), _bits(single))

    def test_vector_diagonal_stack_over_three_groups(self, monkeypatch):
        # 2L = 20: groups of 409 terms, so 855 terms read in three groups;
        # each group gives the bits of a call on its terms alone, and every
        # term its single call's Q to rounding: within a group, where a pair
        # chunk cuts a term's label pairs moves its last bits (README, "Bits")
        model = small_model()
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 3)
        group, rng = dyn._PAIR_CHUNK // model.battery.dim, np.random.default_rng(5)
        terms = 2 * group + 37
        a, c = (rng.standard_normal((terms, 4, 4, 2)) @ [1, 1j] for _ in range(2))
        x_s, rho_s = a @ a.conj().transpose(0, 2, 1), c @ c.conj().transpose(0, 2, 1)
        vectors = rng.standard_normal((terms, 20, 2)) @ [1, 1j]
        diagonals = [np.diag(d) for d in rng.random((terms, 20)) * (rng.random((terms, 20)) < 0.7)]
        reads, real = [], dyn._reduced_read

        def counted(x, r, sides, *rest):
            reads.append(len(sides))
            return real(x, r, sides, *rest)

        monkeypatch.setattr(dyn, "_reduced_read", counted)
        stacked = dyn.q_quantity((x_s, vectors), (rho_s, diagonals), u, model)
        assert reads == [group, group, 37]
        by_group = np.concatenate([
            dyn.q_quantity((x_s[lo:lo + group], vectors[lo:lo + group]),
                           (rho_s[lo:lo + group], diagonals[lo:lo + group]), u, model)
            for lo in range(0, terms, group)])
        assert np.array_equal(_bits(stacked), _bits(by_group))
        single = [dyn.q_quantity((x_s[t], vectors[t]), (rho_s[t], diagonals[t]), u, model)
                  for t in range(terms)]
        assert min(single) > 0.0
        np.testing.assert_allclose(stacked, single, rtol=1e-13)


class TestTransitionProbability:
    def test_completeness(self):
        model = small_model(1, 2, 4, 10)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 9)
        gamma = fock.thermal_state(0.9, model.system_mode(0), 1e-1)
        b_i = model.battery.basis_index(5, 0)
        total = sum(dyn.transition_probability(b_f, gamma, b_i, u, model)
                    for b_f in range(model.battery.dim))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_identity_unitary_is_kronecker_delta(self):
        model = small_model(1, 2, 3, 8)
        u = identity_unitary(model)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        b_i = model.battery.basis_index(4, 0)
        for b_f in range(model.battery.dim):
            expected = 1.0 if b_f == b_i else 0.0
            assert dyn.transition_probability(b_f, gamma, b_i, u, model) == \
                pytest.approx(expected, abs=1e-13)

    def test_thermal_system_classical_ratio(self):
        # thermal preparation: forward/reverse ratio is exp(beta (W - dF))
        # with dF taken on the same truncated spaces
        model = small_model(1, 2, 6, 16)
        beta = 0.9
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 31)
        gamma_i = fock.thermal_state(beta, model.system_mode(0), tail_tol=1.0)
        gamma_f = fock.thermal_state(beta, model.system_mode(1), tail_tol=1.0)
        h_i = model.system_mode(0).energies
        h_f = model.system_mode(1).energies
        eye = np.eye(model.system_cutoff, dtype=complex)
        delta_f = gibbs.gen_free_energy_diff(beta, h_i, eye, h_f, eye)
        w0 = 8
        b_i = model.battery.basis_index(w0, 0)
        checked = 0
        for w in range(16):
            b_f = model.battery.basis_index(w, 1)
            p_fwd = dyn.transition_probability(b_f, gamma_i, b_i, u, model)
            p_rev = dyn.transition_probability(b_i, gamma_f, b_f, u, model)
            if p_fwd < 1e-12 or p_rev < 1e-12:
                continue
            work = float(model.battery.spacing) * (w0 - w)
            assert p_fwd / p_rev == pytest.approx(
                math.exp(beta * (work - delta_f)), rel=1e-10)
            checked += 1
        assert checked >= 3


class TestConditionalPhotonNumber:
    def test_identity_unitary_photon_added(self):
        model = small_model(1, 1, 30, 6)
        beta = 1.0
        u = identity_unitary(model)
        gamma = fock.photon_added_state(beta, model.system_mode(0), 1e-8)
        b = model.battery.basis_index(3, 0)
        mean, prob = dyn.conditional_photon_number(b, gamma, b, u, model)
        truncated_mean = fock.expectation(
            fock.number_operator(model.system_mode(0)), gamma)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert mean == pytest.approx(truncated_mean, abs=1e-12)
        nbar = cf.mean_occupation(beta / 2.0)
        assert mean == pytest.approx(2 * nbar + 1, abs=1e-6)

    def test_zero_probability_branch(self):
        model = small_model(1, 2, 3, 8)
        u = identity_unitary(model)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        with pytest.raises(UndefinedRatioError):
            dyn.conditional_photon_number(model.battery.basis_index(1, 1), gamma,
                                          model.battery.basis_index(4, 0), u, model)

    def test_single_shell_energy_bookkeeping(self):
        # for a sharp initial shell the measured mean obeys energy
        # conservation exactly: omega_f (m + 1/2) = omega_i (n + 1/2) + W
        model = small_model(1, 2, 8, 20)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 13)
        n0 = 3
        shell = np.zeros(8, dtype=complex); shell[n0] = 1.0
        state = fock.PureState(model.system_mode(0).space, shell)
        w0 = 10
        b_i = model.battery.basis_index(w0, 0)
        found = 0
        for w in range(20):
            b_f = model.battery.basis_index(w, 1)
            try:
                mean, prob = dyn.conditional_photon_number(b_f, state, b_i, u, model)
            except UndefinedRatioError:
                continue
            work = float(model.battery.spacing) * (w0 - w)
            assert 2.0 * (mean + 0.5) == pytest.approx(1.0 * (n0 + 0.5) + work,
                                                       abs=1e-9)
            found += 1
        assert found >= 1

    def test_measured_factorization_reassembles_crooks(self):
        # exact identity: P_F/P_R = (n_R/n_F) exp(beta (W - dFtilde^+)) with
        # the conditional means measured from the same dynamics
        model = small_model(1, 2, 8, 20)
        beta = 1.0
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 55)
        gamma_i = fock.photon_added_state(beta, model.system_mode(0), tail_tol=1.0)
        gamma_f = fock.photon_added_state(beta, model.system_mode(1), tail_tol=1.0)
        h_i = model.system_mode(0).energies
        h_f = model.system_mode(1).energies
        number = np.diag(np.arange(8, dtype=complex))
        d_f_tilde = gibbs.gen_free_energy_diff(beta, h_i, number, h_f, number)
        w0 = 10
        b_i = model.battery.basis_index(w0, 0)
        checked = 0
        for w in range(20):
            b_f = model.battery.basis_index(w, 1)
            try:
                n_fwd, p_fwd = dyn.conditional_photon_number(b_f, gamma_i, b_i,
                                                             u, model)
                n_rev, p_rev = dyn.conditional_photon_number(b_i, gamma_f, b_f,
                                                             u, model)
            except UndefinedRatioError:
                continue
            if n_fwd == 0.0 or p_rev < 1e-12:
                continue
            work = float(model.battery.spacing) * (w0 - w)
            lhs = p_fwd / p_rev
            rhs = (n_rev / n_fwd) * math.exp(beta * (work - d_f_tilde))
            assert lhs == pytest.approx(rhs, rel=1e-8)
            checked += 1
        assert checked >= 3


def _transition_reads(e_f, state, e_i, u, model):
    """Every read of U at a battery transition, by name."""
    return {
        "transition": lambda: dyn.transition_probability(e_f, state, e_i, u, model),
        "photon-number": lambda: dyn.conditional_photon_number(e_f, state, e_i, u, model),
        "photon-number-N+1": lambda: dyn.conditional_photon_number(
            e_f, state, e_i, u, model, "N+1"),
    }


class TestTransitionReadGuards:
    """Every read validates its battery indices and system state; an index
    of -1 used to alias the last battery state, and 2L or a state of the
    wrong size escaped as a numpy IndexError or ValueError."""

    MODEL = dict(omega_i=1, omega_f=2, cutoff=4, ladder=12)

    def model_and_unitary(self):
        model = small_model(**self.MODEL)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 3)
        return model, u, fock.thermal_state(1.0, model.system_mode(0), tail_tol=1.0)

    @pytest.mark.parametrize("read", ["transition", "photon-number", "photon-number-N+1"])
    @pytest.mark.parametrize("e_f, e_i", [(-1, 7), (7, -1), (24, 7), (7, 24), (-24, 7)])
    def test_battery_index_out_of_range(self, read, e_f, e_i):
        model, u, gamma = self.model_and_unitary()
        assert model.battery.dim == 24
        with pytest.raises(DimensionError):
            _transition_reads(e_f, gamma, e_i, u, model)[read]()

    # 2L would alias the joint rows of the next system level
    @pytest.mark.parametrize("bad", [-1, 24, -24])
    @pytest.mark.parametrize("side", ["e_f", "e_i"])
    def test_battery_index_array_with_one_bad_entry(self, side, bad):
        model, u, gamma = self.model_and_unitary()
        stack = np.array([0, 7, bad, 23])
        args = (stack, gamma, 7) if side == "e_f" else (7, gamma, stack)
        with pytest.raises(DimensionError):
            dyn.transition_probability(*args, u, model)

    @pytest.mark.parametrize("e_f, e_i", [([1, 2], [7, 8]), ([[1, 2]], 7), (7, [[1, 2]])])
    def test_battery_index_arrays_on_both_sides_or_not_1d(self, e_f, e_i):
        model, u, gamma = self.model_and_unitary()
        with pytest.raises(DimensionError):
            dyn.transition_probability(np.array(e_f), gamma, np.array(e_i), u, model)

    # one 1-D index is a stacked read (test_block_oracle.py, TestStackedReads)
    @pytest.mark.parametrize("which", ["N", "N+1"])
    @pytest.mark.parametrize("e_f, e_i", [([1, 3], [7, 8]), ([[1, 3]], 7), (7, [[1]])])
    def test_photon_number_of_two_arrays_or_a_2d_index(self, which, e_f, e_i):
        model, u, gamma = self.model_and_unitary()
        with pytest.raises(DimensionError):
            dyn.conditional_photon_number(np.array(e_f), gamma, np.array(e_i), u, model, which)

    @pytest.mark.parametrize("side", ["e_f", "e_i"])
    def test_empty_battery_index_array(self, side):
        model, u, gamma = self.model_and_unitary()
        empty = np.array([], dtype=int)
        args = (empty, gamma, 7) if side == "e_f" else (7, gamma, empty)
        read = dyn.transition_probability(*args, u, model)
        assert isinstance(read, np.ndarray) and read.shape == (0,)

    # -1 used to alias U[d - 1, d - 1] and d escaped as a numpy IndexError
    @pytest.mark.parametrize("rows, cols", [([-1], [95]), ([96], [0]), ([0], [96]),
                                            ([3, 5], [0, -96]), ([], [96]), ([-1], [])])
    def test_entries_outside_unitary(self, rows, cols):
        model, u, _ = self.model_and_unitary()
        assert model.dim == 96
        with pytest.raises(DimensionError):
            u.entries(rows, cols)

    # an empty list is float64 to numpy and used to escape as an IndexError
    @pytest.mark.parametrize("rows, cols, shape", [([], [0], (0, 1)), ([95], [], (1, 0)),
                                                   ([], [], (0, 0))])
    def test_entries_of_empty_index_list(self, rows, cols, shape):
        _, u, _ = self.model_and_unitary()
        out = u.entries(rows, cols)
        assert out.shape == shape and out.dtype == complex

    @pytest.mark.parametrize("read", ["transition", "photon-number", "photon-number-N+1",
                                      "work"])
    @pytest.mark.parametrize("shape", [(3, 3), (5, 5), (4, 3), (4,)], ids=str)
    def test_system_state_of_wrong_shape(self, read, shape):
        model, u, _ = self.model_and_unitary()
        state = np.full(shape, 0.25, dtype=complex)
        reads = _transition_reads(1, state, 7, u, model)
        reads["work"] = lambda: dyn.work_distribution("F", state, 6, u, model)
        with pytest.raises(DimensionError):
            reads[read]()


class TestWorkDistribution:
    def test_identity_unitary_point_mass(self):
        model = small_model(1, 2, 3, 12)
        u = identity_unitary(model)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        dist = dyn.work_distribution("F", gamma, 6, u, model)
        assert dist[Fraction(0)] == pytest.approx(1.0)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)

    def test_normalization_random_unitary(self):
        model = small_model(1, 2, 4, 14)
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 3)
        gamma = fock.photon_subtracted_state(0.7, model.system_mode(0), tail_tol=1.0)
        dist = dyn.work_distribution("F", gamma, 7, u, model)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)

    def test_reference_level_independence_in_window(self):
        model = small_model(1, 2, 4, 36)
        blocks = dyn.spectral_blocks(model)
        reach = dyn.translation_reach(model)
        window = (reach, 35 - reach)
        u = dyn.sample_translation_invariant_unitary(model, blocks, window, 17)
        gamma = fock.photon_added_state(0.9, model.system_mode(0), tail_tol=1.0)
        d1 = dyn.work_distribution("F", gamma, window[0], u, model)
        d2 = dyn.work_distribution("F", gamma, window[1], u, model)
        common = set(d1) & set(d2)
        assert max(abs(d1[w] - d2[w]) for w in common) < 1e-10

    def test_window_guard(self):
        model = small_model(1, 2, 4, 36)
        blocks = dyn.spectral_blocks(model)
        reach = dyn.translation_reach(model)
        u = dyn.sample_translation_invariant_unitary(
            model, blocks, (reach, 35 - reach), 2)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        with pytest.raises(WindowError):
            dyn.work_distribution("F", gamma, 1, u, model)

    def test_direction_guard(self):
        model = small_model(1, 2, 3, 10)
        u = identity_unitary(model)
        gamma = fock.thermal_state(1.0, model.system_mode(0), 1e-1)
        with pytest.raises(DomainError):
            dyn.work_distribution("X", gamma, 5, u, model)


class TestBinomialBatteryCrooks:
    def test_measured_ratio_matches_distortion_product(self):
        # thermal system with equal sector spectra (dF = 0), binomial battery
        # projectors as their vectors: measured ratio equals exp(beta q(chi) W_q)
        # exactly
        spacing = dyn.battery_spacing_for(1, 1)
        battery = dyn.SwitchedBattery(12, spacing)
        model = dyn.build_joint_model(1, 1, 4, battery)
        beta = 1.6
        chi_b = beta * float(spacing) / 2.0
        u = dyn.sample_conserving_unitary(dyn.spectral_blocks(model), 41)
        gamma = fock.thermal_state(beta, model.system_mode(0), tail_tol=1.0)
        h_b = battery.energies
        n, p_i, p_f = 5, 0.3, 0.8

        x_b_i = _binomial_battery_state(battery, n, p_i, dyn.SECTOR_INITIAL)
        x_b_f = _binomial_battery_state(battery, n, p_f, dyn.SECTOR_FINAL)
        rho_b_i = gibbs.gibbs_map(x_b_i, h_b, beta)
        rho_b_f = gibbs.gibbs_map(x_b_f, h_b, beta)
        eye_s = np.eye(4, dtype=complex)
        p_fwd = dyn.q_quantity((eye_s, x_b_f), (gamma, rho_b_i), u, model)
        p_rev = dyn.q_quantity((eye_s, x_b_i), (gamma, rho_b_f), u, model)
        assert p_fwd > 1e-12 and p_rev > 1e-12
        predicted = math.exp(beta * cf.q_align(p_i, p_f, chi_b)
                             * cf.w_q_align(n, p_i, p_f, beta, float(spacing)))
        assert p_fwd / p_rev == pytest.approx(predicted, rel=1e-8)
