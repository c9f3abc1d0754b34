"""Inertial block Bregman proximal optimization.

A small library for minimizing f(x) + sum_i g_i(x_i) over block-structured
variables by cyclic inertial Bregman proximal updates, together with a
complete symmetric nonnegative tri-factorization application (X ~ U V U^T)
whose block subproblems are solved in closed form.
"""

from .blocks import (
    BlockKernel,
    BlockProblem,
    BlockVector,
    DomainError,
    NonsmoothBlock,
    ParameterError,
    block_bregman_distance,
    model_value,
    nonnegative_indicator,
    phi_value,
    squared_norm_kernel,
    zero_term,
)
from .diagnostics import (
    RateFit,
    audit_trace,
    finite_difference_block_grad,
    fit_rate,
    numeric_subproblem_oracle,
    verify_relative_smoothness,
)
from .solver import (
    ConfigurationError,
    InfeasibleError,
    IterationRecord,
    SolveResult,
    StepSchedule,
    derive_schedule,
    lyapunov_value,
    run,
    solve_block_subproblem,
    stationarity_residual,
    trace_to_json,
    validate_schedule,
)
from .symtrinmf import (
    FactorPair,
    SymTriInstance,
    as_block_problem,
    community_assignment,
    cubic_positive_root,
    f_value,
    grad_U,
    grad_V,
    initial_factors,
    relative_error,
    solve_instance,
    update_U,
    update_V,
)

__version__ = "0.1.0"
