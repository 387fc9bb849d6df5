"""gravpulse: gravitational redshift deformation of light-pulse wavepackets.

The package separates the classical rigid redshift of a propagating pulse
from its genuine spectral distortion by maximizing the overlap between the
expected and the received wavepacket over a rigid spectral shift, for pure
and completely mixed single-photon states and their multi-photon
extensions.
"""

from .analytic import (comb_linear_near_earth_optimal, comb_quadratic_optimal,
                       estimate_zeta, gaussian_linear_closed, gaussian_linear_lambda,
                       gaussian_linear_near_earth, gaussian_linear_optimal,
                       gaussian_quadratic_closed, gaussian_quadratic_coefficients,
                       gaussian_quadratic_deficit_coefficient,
                       gaussian_quadratic_near_earth, gaussian_quadratic_optimal,
                       relative_change)
from .errors import (ConfigError, GridMismatchError, NonConvergenceError,
                     SupportEscapeError, ValidityError)
from .multiphoton import (PhotonKind, PhotonStatistics, coherent_overlap,
                          fock_overlap, squeezed_overlap, squeezing_parameter)
from .optimize import (FlatObjectiveWarning, OptimizationResult, maximize_shift,
                       naive_corrected_overlap)
from .overlap import (OverlapResult, SubPeak, evaluate_overlap, lambda_pure,
                      overlap_batch, overlap_mixed, overlap_multipeak, overlap_pure)
from .profiles import (DimensionfulFrame, Profile, ProfileKind, comb,
                       comb_tooth_positions, evaluate, gaussian_linear,
                       gaussian_quadratic, jacobi_theta3, modulus, normalization,
                       phase, phase_difference)
from .scenario import (Scenario, SweepSpec, dump_scenario, load_preset,
                       parse_scenario, preset_names)
from .spacetime import (EARTH_RADIUS_M, EARTH_SCHWARZSCHILD_RADIUS_M,
                        RedshiftFactor, SpacetimeConfig, classical_redshift,
                        delta_expansion, delta_near_limit, kappa,
                        kappa_from_delta, redshift_factor)
from .states import (DiscreteState, FrequencyGrid, StateKind, apply_redshift,
                     fidelity, mixed_state, pure_state, purity,
                     sharp_frequency_diagonal_trace)

__version__ = "0.1.0"
