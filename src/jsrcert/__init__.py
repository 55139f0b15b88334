"""Probabilistic JSR certification for black-box switched linear systems.

From sampled trajectory endpoints alone, this package computes an upper
bound on the joint spectral radius that holds with a user-chosen
confidence, via sampled quadratic or sum-of-squares Lyapunov programs.
"""

from .bounds import CertificateReport, bound_B, combine_bound, f_correction, jsr_upper_bound
from .caps import (
    CapParams,
    ConfidenceBudget,
    beta_from_eps,
    cap_params,
    delta_cap,
    eps_cover,
    eps_one,
    inv_reg_inc_beta,
    min_samples_finite,
    reg_inc_beta,
)
from .certifier import (
    LyapunovCandidate,
    SolveOptions,
    SolverStallError,
    solve_gamma,
    solve_lambda,
)
from .cli import certify_run
from .lift import (
    LiftedVector,
    MatrixMetrics,
    MultiIndex,
    SymMatrix,
    d_lift_matrix,
    d_lift_vector,
    ellipsoidal_norm,
    kron_power,
    lift_coefficient_matrix,
    lift_dimension,
    matrix_metrics,
    multi_index_set,
)
from .oracles import (
    ProductEnumeration,
    cap_measure_mc,
    enumerate_products,
    exact_B,
    jsr_lower_bound,
    support_constraints,
    whitebox_gamma,
)
from .sampling import (
    ModeSet,
    ObservationSet,
    TrajectoryFormatError,
    cap_membership,
    load_modes,
    load_observations,
    sample_mode_sequence,
    sample_unit_sphere,
    save_modes,
    save_observations,
    simulate,
)

__version__ = "0.1.0"
