"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see every verdict.

Criteria 2, 6b and 9a assert the equalities the lattice dynamics satisfy
exactly, and keep the closed forms where those are exact:

- 2: P_F/P_R = (n_R/n_F) exp(beta (W - dF~)) on every transition of the
  crooks suites' grid that clears their probability floor, with conditional photon numbers and dF~ taken on the same
  truncated spaces; the closed-form ratio is checked between the dominant
  shells at chi = 9, and the closed-form dF~ against a cutoff whose tail is
  below 1e-12.
- 6b: q_align(p_i, 1, chi) reaches 2/(2 - p_i) at its stated rate
  ln(1 - p_i) / (chi (2 - p_i)).
- 9a: the Crooks-like equality summed over the switch-flipping outcomes of
  the jarzynski suite's dynamics.

The closed-form prefactor R_pm replaces the conditional photon numbers with
unconditional thermal means; the crooks and jarzynski suites still compare
against it and report that gap (see the repository README).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qflux import closedform as cf
from qflux import dynamics as dyn
from qflux import fock, gibbs
from qflux import scenarios as sc
from qflux.errors import UndefinedRatioError


def _verdict(number: int, ok: bool, detail: str) -> bool:
    label = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} [{label}] {detail}", flush=True)
    return ok


def test_criterion_01_global_fluctuation_theorem():
    t0 = time.perf_counter()
    config = sc.default_config("global-ft", cases=200, seed=424242,
                               system_cutoff=12, ladder_dim=24)
    report = sc.run_scenario(config)
    elapsed = time.perf_counter() - t0
    max_dev = report.summary["max_abs_dev"]
    ok = (report.summary["cases"] >= 200 and max_dev < 1e-8 and elapsed < 60.0)
    _verdict(1, ok, f"global equality over {report.summary['cases']} random "
                    f"scenarios: max |ln Q_F - ln Q_R - beta(dW~-dF~)| = "
                    f"{max_dev:.3e} (< 1e-8), runtime {elapsed:.1f}s (< 60s)")
    assert report.summary["cases"] >= 200
    assert max_dev < 1e-8
    assert elapsed < 60.0


def _photon_d_f_tilde(beta, mode_i, mode_f, sign):
    """dF~ of the photon protocol on the modes' truncated spaces: X = N for
    added states, N + 1 for subtracted ones."""
    def x(mode):
        return fock.number_operator(mode).matrix + (sign == -1) * np.eye(mode.cutoff)
    return gibbs.gen_free_energy_diff(beta, mode_i.energies, x(mode_i),
                                      mode_f.energies, x(mode_f))


RATIOS = tuple(omega_f for _, omega_f in sc._CROOKS_FREQUENCIES)


def _scan(config, frequencies, **options):
    """The (model, chi, beta, U) points the suite of ``config`` draws: the
    runners' own scan, filling a scratch report."""
    report = sc.VerificationReport(config.kind, 0.0, {})
    return sc._dynamics_scan(config, report, (), frequencies, config.chi_grid, **options)


def _crooks_transitions(config, sign):
    """Yield (omega_f, beta, W, P_F, n_F, P_R, n_R, dF~) for every battery level
    whose forward and reverse probabilities clear the crooks suite's 1e-10
    floor, at every (ratio, chi) point of the suite's scan, on the model and
    unitary its runner draws there."""
    which = "N" if sign == +1 else "N+1"
    w0 = config.ladder_dim // 2
    for model, _, beta, u in _scan(config, sc._CROOKS_FREQUENCIES):
        battery = model.battery
        gamma_i, gamma_f = sc._photon_states(model, beta, sign)
        d_f_tilde = _photon_d_f_tilde(beta, model.system_mode(dyn.SECTOR_INITIAL),
                                      model.system_mode(dyn.SECTOR_FINAL), sign)
        b_i = battery.basis_index(w0, dyn.SECTOR_INITIAL)
        for w in range(config.ladder_dim):
            b_f = battery.basis_index(w, dyn.SECTOR_FINAL)
            try:
                n_f, p_f = dyn.conditional_photon_number(b_f, gamma_i, b_i, u, model,
                                                         which, prob_floor=1e-10)
                n_r, p_r = dyn.conditional_photon_number(b_i, gamma_f, b_f, u, model,
                                                         which, prob_floor=1e-10)
            except UndefinedRatioError:
                continue
            yield (model.omega_f, beta, float(battery.spacing * (w0 - w)),
                   p_f, n_f, p_r, n_r, d_f_tilde)


def test_criterion_02_photon_crooks_closed_form():
    pairs = 0
    max_rel = 0.0
    for kind, sign in (("crooks-added", +1), ("crooks-subtracted", -1)):
        config = sc.default_config(kind, seed=7, chi_grid=(0.1, 0.5, 1.0, 2.0))
        for _, beta, work, p_f, n_f, p_r, n_r, d_f_tilde in _crooks_transitions(
                config, sign):
            exact = (n_r / n_f) * math.exp(beta * (work - d_f_tilde))
            max_rel = max(max_rel, abs(p_f / p_r / exact - 1.0))
            pairs += 1
    # at chi = 9 the system starts in one shell (n = 1 added, n = 0
    # subtracted) and the closed form is exact up to e^(-2 chi) on the
    # transitions between the dominant shells, W = (omega_f - omega_i)(n + 1/2)
    dominant = 0
    max_rel_cf = 0.0
    for kind, sign in (("crooks-added", +1), ("crooks-subtracted", -1)):
        config = sc.default_config(kind, seed=7, chi_grid=(9.0,))
        shell = 1 if sign == +1 else 0
        for ratio, beta, work, p_f, _, p_r, _, _ in _crooks_transitions(config, sign):
            params = cf.ScenarioParams(beta, 1.0, float(ratio))
            if work == float((ratio - 1) * Fraction(2 * shell + 1, 2)):
                max_rel_cf = max(max_rel_cf, abs(
                    p_f / p_r / cf.crooks_rhs_pm(work, params, sign) - 1.0))
                dominant += 1
    # the closed-form dF~ is the untruncated one: it holds once the cutoff
    # leaves a tail below 1e-12
    max_df_gap = 0.0
    for ratio in RATIOS:
        for chi in (0.1, 0.5, 1.0, 2.0):
            beta = 2.0 * chi
            params = cf.ScenarioParams(beta, 1.0, float(ratio))
            cutoff = fock.min_cutoff_for_tail(beta, 1.0, 1e-12)
            mode_i = fock.OscillatorMode(1, cutoff)
            mode_f = fock.OscillatorMode(ratio, cutoff)
            for sign in (+1, -1):
                d_f_tilde = _photon_d_f_tilde(beta, mode_i, mode_f, sign)
                max_df_gap = max(max_df_gap, beta * abs(
                    d_f_tilde - cf.gen_free_energy_pm(params, sign)))
    ok = (pairs >= 50 and max_rel < 1e-6 and dominant == 6
          and max_rel_cf < 1e-6 and max_df_gap <= 3e-10)
    _verdict(2, ok, f"added/subtracted P_F/P_R vs (n_R/n_F) e^(beta(W-dF~)) "
                    f"over {pairs} (E_i,E_f) pairs: max relative deviation "
                    f"{max_rel:.3e} (< 1e-6); closed form at chi=9 on "
                    f"{dominant} dominant-shell pairs {max_rel_cf:.3e} "
                    f"(< 1e-6); closed-form beta dF~ gap {max_df_gap:.2e} "
                    f"(<= 3e-10)")
    assert pairs >= 50
    assert max_rel < 1e-6
    assert dominant == 6
    assert max_rel_cf < 1e-6
    assert max_df_gap <= 3e-10


def test_criterion_03_generalized_free_energy_asymptotes():
    omega_i, omega_f = 1.0, 1.5
    # high-temperature end, energies expressed in units of k_B T
    chi = 1e-3
    params = cf.ScenarioParams(2.0 * chi / omega_i, omega_i, omega_f)
    high_t_gap = max(abs(params.beta * (cf.gen_free_energy_pm(params, s)
                                        - 2.0 * cf.delta_F(params)))
                     for s in (+1, -1))
    # low-temperature end, natural energy units
    chi = 20.0
    params = cf.ScenarioParams(2.0 * chi / omega_i, omega_i, omega_f)
    minus_gap = abs(cf.gen_free_energy_pm(params, -1) - cf.delta_F(params))
    plus_gap = abs(cf.gen_free_energy_pm(params, +1)
                   - 3.0 * cf.delta_E_vac(params))
    ok = high_t_gap < 1e-2 and minus_gap < 1e-6 * omega_i and \
        plus_gap < 1e-6 * omega_i
    _verdict(3, ok, f"asymptotes at omega_f=1.5 omega_i: high-T gap (k_B T "
                    f"units) {high_t_gap:.2e} (< 1e-2); low-T gaps "
                    f"{minus_gap:.2e} / {plus_gap:.2e} (< 1e-6)")
    assert high_t_gap < 1e-2
    assert minus_gap < 1e-6 * omega_i
    assert plus_gap < 1e-6 * omega_i


def test_criterion_04_prefactor_high_temperature_limit():
    params = cf.ScenarioParams(2e-4, 1.0, 1.5)   # chi = 1e-4
    gaps = [abs(cf.prefactor_R(0.0, params, s)
                * math.exp(-params.beta * cf.delta_F(params)) - 1.0)
            for s in (+1, -1)]
    ok = max(gaps) < 1e-3
    _verdict(4, ok, f"R_pm(0) e^(-beta dF) at chi=1e-4: deviations from 1 are "
                    f"{gaps[0]:.2e} / {gaps[1]:.2e} (< 1e-3)")
    assert max(gaps) < 1e-3


def test_criterion_05_binomial_gibbs_rescaling():
    worst = 1.0
    space = fock.HilbertSpace(16, "ladder")
    h = fock.OscillatorMode(1.0, 16).energies
    for n in (1, 2, 4, 8, 12):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            for chi in (0.1, 1.0, 5.0):
                beta = 2.0 * chi
                mapped = gibbs.gibbs_map(
                    fock.binomial_state(n, p, space).projector(), h, beta)
                target = fock.binomial_state(n, cf.p_tilde(p, beta, 1.0), space)
                worst = min(worst, fock.state_fidelity(target, mapped))
    ok = worst >= 1.0 - 1e-12
    _verdict(5, ok, f"Gibbs-rescaled binomial projectors: worst fidelity to "
                    f"the reweighted state 1 - {1.0 - worst:.2e} (>= 1-1e-12)")
    assert worst >= 1.0 - 1e-12


def test_criterion_06a_distortion_factors_against_brute_force():
    omega = 1.0
    ladder = 16
    space = fock.HilbertSpace(ladder, "ladder")
    h = fock.OscillatorMode(omega, ladder).energies
    h_op = fock.OperatorMatrix(space, np.diag(h))
    worst = 0.0
    sym_worst = 0.0
    for chi in (0.2, 1.0, 4.0):
        beta = 2.0 * chi / omega
        for p_i, p_f in ((0.1, 0.6), (0.3, 0.9), (0.45, 0.5)):
            n = 6
            proj_i = fock.binomial_state(n, p_i, space).projector()
            proj_f = fock.binomial_state(n, p_f, space).projector()
            flow = gibbs.gen_work_diff(beta, h, proj_i, proj_f)
            mapped_i = gibbs.gibbs_map(proj_i, h, beta)
            mapped_f = gibbs.gibbs_map(proj_f, h, beta)
            energy = lambda state: fock.expectation(h_op, state)
            de_plus = energy(mapped_i) - energy(
                fock.binomial_state(n, p_f, space).density())
            de_minus = energy(mapped_f) - energy(
                fock.binomial_state(n, p_i, space).density())
            w_q = (de_plus - de_minus) / 2.0
            brute = flow / w_q
            worst = max(worst, abs(brute - cf.q_align(p_i, p_f, chi)))
            sym_worst = max(sym_worst, abs(cf.q_align(p_i, p_f, chi)
                                           - cf.q_align(p_f, p_i, chi)))
        for p in (0.25, 0.75):
            n_i, n_f = 3, 9
            proj_i = fock.binomial_state(n_i, p, space).projector()
            proj_f = fock.binomial_state(n_f, p, space).projector()
            flow = gibbs.gen_work_diff(beta, h, proj_i, proj_f)
            mapped_i = gibbs.gibbs_map(proj_i, h, beta)
            mapped_f = gibbs.gibbs_map(proj_f, h, beta)
            energy = lambda state: fock.expectation(h_op, state)
            de_plus = energy(mapped_i) - energy(
                fock.binomial_state(n_f, p, space).density())
            de_minus = energy(mapped_f) - energy(
                fock.binomial_state(n_i, p, space).density())
            w_q = (de_plus - de_minus) / 2.0
            worst = max(worst, abs(flow / w_q - cf.q_size(p, chi)))
    ok = worst < 1e-10 and sym_worst < 1e-14
    _verdict(6, ok, f"distortion factors vs matrix-assembled flow ratio: max "
                    f"gap {worst:.2e} (< 1e-10); symmetry gap {sym_worst:.1e}")
    assert worst < 1e-10
    assert sym_worst < 1e-14


def test_criterion_06b_realignment_limit_at_weight_one():
    # q_align(p_i, 1, chi) = 2/(2-p_i) + ln(1-p_i)/(chi (2-p_i)) + O(e^(-2 chi)):
    # the weight-one limit is reached as chi -> inf, at that rate
    chi = 50.0
    gaps = {p_i: abs(chi * (2.0 - p_i) * (cf.q_align(p_i, 1.0, chi)
                                          - 2.0 / (2.0 - p_i))
                     - math.log1p(-p_i))
            for p_i in (0.1, 0.3, 0.5, 0.7, 0.9)}
    worst = max(gaps.values())
    ok = worst < 1e-10
    _verdict(6, ok, f"q_align(chi=50, p_f=1) approaches 2/(2-p_i) as "
                    f"ln(1-p_i) / (chi (2-p_i)): max gap of the scaled "
                    f"deviation {worst:.2e} (< 1e-10)")
    assert worst < 1e-10


@pytest.mark.parametrize("regime", ["align", "size"])
def test_criterion_07_binomial_crooks_through_dynamics(regime):
    config = sc.default_config(f"crooks-binomial-{regime}", seed=31)
    report = sc.run_scenario(config)
    max_rel = report.summary["max_rel_dev"]
    ok = report.summary["cases"] >= 10 and max_rel < 1e-6
    _verdict(7, ok, f"binomial-battery ratio ({regime}) vs "
                    f"exp(beta(q W_q - dF)) over {report.summary['cases']} "
                    f"protocols: max relative deviation {max_rel:.3e} (< 1e-6)")
    assert report.summary["cases"] >= 10
    assert max_rel < 1e-6


def test_criterion_08_harmonic_limit():
    lam = 1.0
    defects = []
    gaps = []
    t_grid = np.linspace(0.0, 6.0, 121)
    for n in (8, 32, 128):
        space = fock.HilbertSpace(n + 2, "ladder")
        coherent = fock.coherent_state(math.sqrt(lam), space, tail_tol=0.5)
        binomial = fock.binomial_state(n, lam / n, space)
        defects.append(1.0 - fock.state_fidelity(coherent, binomial))
        gaps.append(max(abs(cf.char_fn_binomial(n, lam / n, 1.0, t)
                            - cf.char_fn_coherent(lam, 1.0, t)) for t in t_grid))
    monotone = defects[0] > defects[1] > defects[2]
    char_monotone = gaps[0] > gaps[1] > gaps[2]
    n_large = 10_000
    q_gap = max(abs(cf.q_align(0.5 / n_large, 1.5 / n_large, chi)
                    - cf.q_harmonic(chi)) for chi in (0.5, 1.0, 2.0))
    ok = monotone and defects[2] < 1e-2 and char_monotone and q_gap < 1e-3
    _verdict(8, ok, f"harmonic limit: overlap defects {defects[0]:.2e} > "
                    f"{defects[1]:.2e} > {defects[2]:.2e} (last < 1e-2); "
                    f"char-fn gaps decreasing {char_monotone}; distortion vs "
                    f"tanh(chi)/chi gap {q_gap:.2e} (< 1e-3)")
    assert monotone
    assert defects[2] < 1e-2
    assert char_monotone
    assert q_gap < 1e-3


def test_criterion_09a_jarzynski_closed_form_average():
    # the Crooks-like equality P_F n_F e^(-beta W) = e^(-beta dF~) P_R n_R,
    # divided by n_R and summed over the switch-flipping outcomes with
    # n_R > 0, on the jarzynski suite's model and unitaries
    config = sc.default_config("jarzynski", seed=5150, chi_grid=(0.25, 0.5))
    max_rel = 0.0
    max_shift = 0.0
    averages = 0
    for model, _, beta, u in _scan(config, [(config.omega_i, config.omega_f)],
                                     translation_invariant=True):
        battery = model.battery
        level = u.window[0]
        b_ref_i = battery.basis_index(level, dyn.SECTOR_INITIAL)
        b_ref_f = battery.basis_index(level, dyn.SECTOR_FINAL)
        for sign in (+1, -1):
            gamma_i, gamma_f = sc._photon_states(model, beta, sign)
            d_f_tilde = _photon_d_f_tilde(
                beta, model.system_mode(dyn.SECTOR_INITIAL),
                model.system_mode(dyn.SECTOR_FINAL), sign)
            which = "N" if sign == +1 else "N+1"
            forward = 0.0
            reverse = 0.0
            reverse_all = 0.0
            reverse_flip = 0.0
            for w in range(battery.ladder_dim):
                b_f = battery.basis_index(w, dyn.SECTOR_FINAL)
                reverse_all += dyn.transition_probability(b_ref_i, gamma_f, b_f,
                                                          u, model)
                reverse_flip += dyn.transition_probability(
                    battery.basis_index(w, dyn.SECTOR_INITIAL), gamma_f, b_ref_f,
                    u, model)
                try:
                    n_r, p_r = dyn.conditional_photon_number(b_ref_i, gamma_f, b_f,
                                                             u, model, which)
                except UndefinedRatioError:
                    continue
                if n_r <= 0.0:
                    continue
                try:
                    n_f, p_f = dyn.conditional_photon_number(
                        b_f, gamma_i, b_ref_i, u, model, which, prob_floor=0.0)
                except UndefinedRatioError:
                    n_f, p_f = 0.0, 0.0
                work = float(battery.spacing * (level - w))
                forward += p_f * n_f / n_r * math.exp(-beta * work)
                reverse += p_r
            max_rel = max(max_rel, abs(forward / (math.exp(-beta * d_f_tilde)
                                                  * reverse) - 1.0))
            # translation invariance: the reverse runs from every final-sector
            # level into the reference level carry the switch-flipping part
            # of the reverse distribution that criterion 9b normalizes
            max_shift = max(max_shift, abs(reverse_all - reverse_flip))
            averages += 1
    ok = averages == 4 and max_rel < 1e-6 and max_shift < 1e-12
    _verdict(9, ok, f"<(n_F/n_R) e^(-beta W)>_F = e^(-beta dF~) <1>_R over the "
                    f"switch-flipping outcomes across {averages} cases: max "
                    f"|ratio - 1| = {max_rel:.3e} (< 1e-6); translation gap "
                    f"{max_shift:.1e} (< 1e-12)")
    assert averages == 4
    assert max_rel < 1e-6
    assert max_shift < 1e-12


def test_criterion_09b_reverse_work_distribution_normalization():
    config = sc.default_config("jarzynski", seed=5150)
    report = sc.run_scenario(config)
    norms = [c for c in report.to_dict()["cases"] if c["key"].endswith("-normalization")]
    max_gap = max(c["abs_dev"] for c in norms)
    ok = bool(norms) and max_gap < 1e-10
    _verdict(9, ok, f"reverse work distribution normalization across "
                    f"{len(norms)} cases: max |sum - 1| = {max_gap:.2e} "
                    f"(< 1e-10)")
    assert norms
    assert max_gap < 1e-10


def test_criterion_10_high_temperature_expansions():
    beta_omega = 0.01
    rel_align = abs(cf.gen_work_align(6, 0.2, 0.7, beta_omega, 1.0)
                    - cf.gen_work_align_expansion(6, 0.2, 0.7, beta_omega, 1.0)) \
        / abs(cf.gen_work_align(6, 0.2, 0.7, beta_omega, 1.0))
    rel_size = abs(cf.gen_work_size(2, 9, 0.35, beta_omega, 1.0)
                   - cf.gen_work_size_expansion(2, 9, 0.35, beta_omega, 1.0)) \
        / abs(cf.gen_work_size(2, 9, 0.35, beta_omega, 1.0))
    ok = rel_align < 1e-4 and rel_size < 1e-4
    _verdict(10, ok, f"second-order flows at beta*omega=0.01: relative errors "
                     f"{rel_align:.2e} (align), {rel_size:.2e} (size) (< 1e-4)")
    assert rel_align < 1e-4
    assert rel_size < 1e-4


def test_criterion_11_figure_regeneration(tmp_path):
    timings = {}
    all_ok = True
    for kind in ("figure2", "figure3", "figure4"):
        t0 = time.perf_counter()
        report = sc.run_scenario(sc.default_config(kind, seed=1,
                                                   out_dir=str(tmp_path)))
        timings[kind] = time.perf_counter() - t0
        all_ok = all_ok and report.all_passed and timings[kind] < 10.0
        assert (tmp_path / f"{kind}.csv").exists()
    _verdict(11, all_ok, "figure CSVs recompute from their closed forms: " +
             ", ".join(f"{k} {v * 1000:.0f}ms" for k, v in timings.items()) +
             " (each < 10s)")
    assert all_ok
