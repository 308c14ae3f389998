"""qflux: Fock-space fluctuation-relation toolkit.

Builds truncated system-battery models, samples energy-conserving
time-reversal-invariant unitaries, and verifies closed-form forward/reverse
equalities against brute-force matrix computation.
"""

# set before the submodules load: scenarios stamps it into every report
__version__ = "0.1.0"

from . import closedform, dynamics, fock, gibbs, scenarios
from .errors import (BudgetExceededError, ConfigError, DegenerateMapError,
                     DimensionError, DomainError, IncommensurateError,
                     QfluxError, TruncationError, UndefinedRatioError,
                     WindowError)
from .fock import (DensityState, HilbertSpace, OperatorMatrix, OscillatorMode,
                   PureState, binomial_state, coherent_state, expectation,
                   min_cutoff_for_tail, number_operator, photon_added_state,
                   photon_subtracted_state, state_fidelity, thermal_state)
from .gibbs import (EffectivePotentialValue, effective_potential,
                    gen_free_energy_diff, gen_work_diff, gibbs_map)
from .dynamics import (ConservingUnitary, JointModel,
                       SwitchedBattery, battery_spacing_for, build_joint_model,
                       conditional_photon_number, q_quantity,
                       sample_conserving_unitary,
                       sample_translation_invariant_unitary, spectral_blocks,
                       transition_probability, translation_reach,
                       work_distribution)
from .closedform import (BinomialParams, ScenarioParams, binomial_eff_potential,
                         binomial_energy, char_fn_binomial, char_fn_coherent,
                         coherent_eff_potential, crooks_rhs_pm, delta_E_vac,
                         delta_F, gen_free_energy_pm, gen_work_align,
                         gen_work_align_expansion, gen_work_size,
                         gen_work_size_expansion, jarzynski_rhs,
                         mean_occupation, p_tilde, partition_fn, prefactor_R,
                         q_align, q_align_longform, q_harmonic, q_size,
                         w_q_align, w_q_size)
from .scenarios import ScenarioConfig, VerificationReport, run_scenario, verify_all
