"""Minimum-energy steering toolkit.

Builds stable linear control models, computes controllability Gramians
and the finite-energy reachability space, evaluates and synthesizes
minimum-energy steering problems (equilibrium in the far past to an
arbitrary target now), and certifies the associated non-standard
algebraic Riccati equation: canonical solutions, the complete solution
set in the selfadjoint commuting case, maximality of the identity, and
the truncated heat-equation example.
"""

__version__ = "0.1.0"

from .energy import (
    AuxiliaryCost,
    AuxiliaryValue,
    ControlSignal,
    Trajectory,
    bcle_residual,
    default_grid,
    energy_of,
    feedback_residual,
    optimal_control_infinite,
    optimal_trajectory_infinite,
    sample_signal,
    simulate_mild,
    steering_control_finite,
    time_reversal_check,
    value_auxiliary,
    value_finite,
    value_infinite,
)
from .gramian import (
    Gramian,
    HSpace,
    a0_operator,
    gramian_finite,
    gramian_infinite,
    h_inner,
    h_space,
    lyapunov_residual,
    null_controllability_check,
    reachable_membership,
    semigroup_transpose_identity,
    t_max,
)
from .landau import (
    LGModel,
    build_lg_model,
    inverse_gramian_identity,
    l2_norm_sq,
    lg_equilibrium,
    lg_value_check,
    synthesize_profile,
)
from .operators import (
    ControlProblem,
    PseudoInverse,
    SpectralModel,
    apply_control_weight,
    expm,
    load_model,
    make_dense_model,
    make_spectral_model,
    model_from_dict,
    pseudo_inverse,
)
from .riccati import (
    CandidateSolution,
    SolutionReport,
    are_residual_H,
    are_residual_X,
    commuting_residual,
    comparison_check,
    differential_riccati_residual,
    enumerate_commuting_solutions,
    maximality_check,
    projection_family_2d,
    verify_canonical_solutions,
)
