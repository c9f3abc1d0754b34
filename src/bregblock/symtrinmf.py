"""Symmetric nonnegative matrix tri-factorization X ~ U V U^T.

The objective f(U, V) = ||X - U V U^T||_F^2 / 2 is block relatively smooth
with respect to the two polynomial kernels below, and both block
subproblems admit closed-form minimizers: the U update reduces to an
elementwise clamp followed by a scalar cubic root, the V update to a
clamped scaled gradient step.  Plugged into the generic solver this gives
a monotone (in the Lyapunov sense) scheme for community-detection style
factorizations.  Factor shapes are checked where factors enter
(pack_factors, relative_error, and run through the problem's block
shapes); the objective, gradients, kernels and updates trust them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .blocks import (
    Array,
    BlockKernel,
    BlockProblem,
    BlockVector,
    ParameterError,
    nonnegative_indicator,
)
from .solver import SolveResult, StepSchedule, derive_schedule, run

UNASSIGNED = -1


def _sq_norm(A: Array) -> float:
    return float(np.vdot(A, A))


@dataclass(frozen=True, eq=False)
class SymTriInstance:
    """Data matrix with factorization rank and kernel parameters.

    Derived constants (set in __post_init__): the smallest admissible
    relative-smoothness bounds L1 = max(6/a1, 2/b1) and L2 = 1/a2, the
    strong-convexity moduli sigma1 = b1*eps1 and sigma2 = a2*eps2, and the
    cached Frobenius norm of X.  Entries must be finite.  Asymmetric input
    is accepted with a warning; pass symmetrize=True to replace X by
    (X + X^T)/2.
    """

    X: Array
    r: int
    a1: float = 6.0
    b1: float = 2.0
    a2: float = 1.0
    eps1: float = 1.0
    eps2: float = 1.0
    symmetrize: InitVar[bool] = False
    L1: float = field(init=False)
    L2: float = field(init=False)
    sigma1: float = field(init=False)
    sigma2: float = field(init=False)
    norm_X: float = field(init=False)

    def __post_init__(self, symmetrize: bool) -> None:
        X = np.array(self.X, dtype=float, copy=True)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ParameterError(f"X must be square, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ParameterError("X has NaN or infinite entries")
        m = X.shape[0]
        if not 1 <= int(self.r) <= m:
            raise ParameterError(f"rank must lie in [1, {m}], got {self.r}")
        for name in ("a1", "b1", "a2", "eps1", "eps2"):
            if not float(getattr(self, name)) > 0:
                raise ParameterError(f"{name} must be positive, got {getattr(self, name)}")
        gap = float(np.linalg.norm(X - X.T))
        if gap > 1e-12 * max(float(np.linalg.norm(X)), 1e-30):
            warnings.warn(
                "input matrix is not symmetric; gradients remain exact, but "
                "pass symmetrize=True to work with (X + X^T)/2",
                stacklevel=2,
            )
            if symmetrize:
                X = 0.5 * (X + X.T)
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "L1", max(6.0 / self.a1, 2.0 / self.b1))
        object.__setattr__(self, "L2", 1.0 / self.a2)
        object.__setattr__(self, "sigma1", self.b1 * self.eps1)
        object.__setattr__(self, "sigma2", self.a2 * self.eps2)
        object.__setattr__(self, "norm_X", float(np.linalg.norm(X)))

    @property
    def m(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class FactorPair:
    """Nonnegative factor matrices U (m x r) and V (r x r)."""

    U: Array
    V: Array

    def __post_init__(self) -> None:
        U = np.array(self.U, dtype=float, copy=True)
        V = np.array(self.V, dtype=float, copy=True)
        if U.ndim != 2 or V.ndim != 2 or V.shape[0] != V.shape[1] or U.shape[1] != V.shape[0]:
            raise ParameterError(f"incompatible factor shapes {U.shape} and {V.shape}")
        if (U < 0).any() or (V < 0).any():
            raise ParameterError("factors must be entrywise nonnegative")
        U.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "V", V)


def _check_shapes(inst: SymTriInstance, U: Array, V: Array) -> tuple[Array, Array]:
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != (inst.m, inst.r):
        raise ParameterError(f"U must be {inst.m}x{inst.r}, got {U.shape}")
    if V.shape != (inst.r, inst.r):
        raise ParameterError(f"V must be {inst.r}x{inst.r}, got {V.shape}")
    return U, V


def f_value(inst: SymTriInstance, U: Array, V: Array) -> float:
    """Fit term ||X - U V U^T||_F^2 / 2."""
    R = inst.X - U @ V @ U.T
    return 0.5 * _sq_norm(R)


def grad_U(inst: SymTriInstance, U: Array, V: Array) -> Array:
    """Gradient of the fit term in U; exact for asymmetric X as well:
    -X U V^T - X^T U V + U V U^T U V^T + U V^T U^T U V."""
    X = inst.X
    UV = U @ V
    UVt = U @ V.T
    return -X @ UVt - X.T @ UV + UV @ (U.T @ UVt) + UVt @ (U.T @ UV)


def grad_V(inst: SymTriInstance, U: Array, V: Array) -> Array:
    """Gradient of the fit term in V: U^T (U V U^T - X) U."""
    UtU = U.T @ U
    return UtU @ V @ UtU - U.T @ inst.X @ U


def kernel_h1_value(inst: SymTriInstance, U: Array, V: Array) -> float:
    """(a1/4)||V||^2 ||U||^4 + (b1/2)(||X|| ||V|| + eps1) ||U||^2."""
    u2 = _sq_norm(U)
    v2 = _sq_norm(V)
    return 0.25 * inst.a1 * v2 * u2 * u2 + 0.5 * inst.b1 * (
        inst.norm_X * math.sqrt(v2) + inst.eps1
    ) * u2


def kernel_h1_grad(inst: SymTriInstance, U: Array, V: Array) -> Array:
    u2 = _sq_norm(U)
    v2 = _sq_norm(V)
    return (inst.a1 * u2 * v2 + inst.b1 * (inst.norm_X * math.sqrt(v2) + inst.eps1)) * U


def kernel_h2_value(inst: SymTriInstance, U: Array, V: Array) -> float:
    """(a2/2)(||U||^4 + eps2) ||V||^2."""
    u2 = _sq_norm(U)
    return 0.5 * inst.a2 * (u2 * u2 + inst.eps2) * _sq_norm(V)


def kernel_h2_grad(inst: SymTriInstance, U: Array, V: Array) -> Array:
    u2 = _sq_norm(U)
    return inst.a2 * (u2 * u2 + inst.eps2) * V


def cubic_positive_root(tau1: float, tau2: float) -> float:
    """Unique positive root of t^3 - tau1 t^2 - tau2 = 0 (tau1, tau2 >= 0,
    not both zero), via the depressed-cubic radical formula with
    discriminant tau2^2 + (4/27) tau2 tau1^3, then Newton polish.

    The radical form cancels badly when tau1^3/27 dwarfs (or is dwarfed by)
    tau2; two Newton steps restore the residual to rounding level.
    """
    tau1 = float(tau1)
    tau2 = float(tau2)
    if tau1 < 0 or tau2 < 0:
        raise ParameterError(f"cubic coefficients must be nonnegative, got ({tau1}, {tau2})")
    if tau1 == 0.0 and tau2 == 0.0:
        raise ParameterError("degenerate cubic: tau1 = tau2 = 0 has only the root t = 0")
    cube = tau1 * tau1 * tau1 / 27.0
    disc = tau2 * tau2 + (4.0 / 27.0) * tau2 * tau1 ** 3
    sq = math.sqrt(disc)
    t = tau1 / 3.0 + float(np.cbrt((tau2 + sq) / 2.0 + cube)) + float(
        np.cbrt((tau2 - sq) / 2.0 + cube)
    )
    for _ in range(2):
        slope = t * (3.0 * t - 2.0 * tau1)
        if not (slope > 0.0 and math.isfinite(slope)):
            break
        t -= (t * t * (t - tau1) - tau2) / slope
    return t


def update_U(
    inst: SymTriInstance,
    gamma1: float,
    alpha1: float,
    U_k: Array,
    U_prev: Array,
    V_k: Array,
) -> Array:
    """Closed-form minimizer of the block-U model.

    Clamp G = grad_U h1(U_k, V_k) - gamma1 grad_U f(U_k, V_k)
              + alpha1 (U_k - U_prev)
    to P = max(G, 0); the stationarity condition forces
    t = a1 ||U+||^2 ||V_k||^2 + b1 (||X|| ||V_k|| + eps1), which makes t the
    positive root of t^3 - tau1 t^2 - tau2 with tau1 = b1(||X|| ||V_k|| + eps1)
    and tau2 = a1 ||V_k||^2 ||P||^2, and U+ = P / t.
    """
    G = kernel_h1_grad(inst, U_k, V_k) - gamma1 * grad_U(inst, U_k, V_k)
    G += alpha1 * (U_k - U_prev)
    P = np.maximum(G, 0.0)
    v2 = _sq_norm(V_k)
    tau1 = inst.b1 * (inst.norm_X * math.sqrt(v2) + inst.eps1)
    tau2 = inst.a1 * v2 * _sq_norm(P)
    t = cubic_positive_root(tau1, tau2)
    return P / t


def update_V(
    inst: SymTriInstance,
    gamma2: float,
    alpha2: float,
    U_next: Array,
    V_k: Array,
    V_prev: Array,
) -> Array:
    """Closed-form minimizer of the block-V model.

    The V kernel is quadratic with curvature eta = a2(||U_next||^4 + eps2),
    so the model minimizer is the clamped step
    max(V_k + (alpha2 (V_k - V_prev) - gamma2 grad_V f(U_next, V_k)) / eta, 0).
    """
    u2 = _sq_norm(U_next)
    eta = inst.a2 * (u2 * u2 + inst.eps2)
    step = alpha2 * (V_k - V_prev) - gamma2 * grad_V(inst, U_next, V_k)
    return np.maximum(V_k + step / eta, 0.0)


def _own_block_only(i_expected: int, fn):
    def wrapped(i: int, x: BlockVector):
        if i != i_expected:
            raise ParameterError(f"kernel exposes only block {i_expected}, asked for {i}")
        return fn(x)

    return wrapped


def as_block_problem(inst: SymTriInstance) -> BlockProblem:
    """Bind the instance into the generic two-block problem: the blocks are
    U (m x r) and V (r x r) in their natural shapes, the nonsmooth terms
    are nonnegativity indicators, and the exact subproblem solvers are the
    closed-form updates."""

    def fg(i: int, x: BlockVector) -> Array:
        if i == 0:
            return grad_U(inst, *x.blocks)
        if i == 1:
            return grad_V(inst, *x.blocks)
        raise ParameterError(f"block index {i} out of range")

    kernel1 = BlockKernel(
        value=lambda x: kernel_h1_value(inst, *x.blocks),
        block_grad=_own_block_only(0, lambda x: kernel_h1_grad(inst, *x.blocks)),
        sigma=inst.sigma1,
    )
    kernel2 = BlockKernel(
        value=lambda x: kernel_h2_value(inst, *x.blocks),
        block_grad=_own_block_only(1, lambda x: kernel_h2_grad(inst, *x.blocks)),
        sigma=inst.sigma2,
    )

    def u_solver(problem, schedule, i, x_cur, x_prev):
        U_k, V_k = x_cur.blocks
        return update_U(inst, schedule.gamma[0], schedule.alpha[0], U_k, x_prev.block(0), V_k)

    def v_solver(problem, schedule, i, x_cur, x_prev):
        U_next, V_k = x_cur.blocks
        return update_V(inst, schedule.gamma[1], schedule.alpha[1], U_next, V_k, x_prev.block(1))

    g = (
        replace(nonnegative_indicator(), solver=u_solver),
        replace(nonnegative_indicator(), solver=v_solver),
    )
    return BlockProblem(
        shapes=((inst.m, inst.r), (inst.r, inst.r)),
        f_value=lambda x: f_value(inst, *x.blocks),
        f_block_grad=fg,
        kernels=(kernel1, kernel2),
        L=(inst.L1, inst.L2),
        g=g,
    )


def initial_factors(inst: SymTriInstance, seed: int = 0) -> tuple[Array, Array]:
    """U0 with iid uniform[0, 1) entries and V0 = c I_r with c chosen so
    ||U0 V0 U0^T|| = ||X|| (left at 1 when either norm vanishes)."""
    rng = np.random.default_rng(seed)
    U0 = rng.random((inst.m, inst.r))
    prod = float(np.linalg.norm(U0 @ U0.T))
    c = inst.norm_X / prod if inst.norm_X > 0 and prod > 0 else 1.0
    return U0, c * np.eye(inst.r)


def pack_factors(inst: SymTriInstance, U: Array, V: Array) -> BlockVector:
    """The point (U, V), after checking both shapes against the instance."""
    return BlockVector(_check_shapes(inst, U, V))


def unpack_factors(x: BlockVector) -> FactorPair:
    return FactorPair(*x.blocks)


def relative_error(inst: SymTriInstance, U: Array, V: Array) -> float:
    """||X - U V U^T|| / ||X|| (absolute residual norm when ||X|| = 0)."""
    U, V = _check_shapes(inst, U, V)
    num = float(np.linalg.norm(inst.X - U @ V @ U.T))
    return num / inst.norm_X if inst.norm_X > 0 else num


def community_assignment(U: Array) -> Array:
    """Per-row argmax community labels; ties go to the lowest index and
    all-zero rows get the UNASSIGNED sentinel (-1)."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ParameterError(f"U must be a matrix, got shape {U.shape}")
    if (U < 0).any():
        raise ParameterError("membership matrix must be nonnegative")
    labels = np.argmax(U, axis=1).astype(int)
    labels[np.all(U == 0.0, axis=1)] = UNASSIGNED
    return labels


def solve_instance(
    inst: SymTriInstance,
    kappa: float = 0.0,
    rho: float = 0.9,
    seed: int = 0,
    max_iters: int = 5000,
    residual_tol: float = 1e-8,
    stall_tol: float = 0.0,
    x0: BlockVector | None = None,
    schedule: StepSchedule | None = None,
) -> tuple[SolveResult, FactorPair]:
    """Run the generic solver on the instance with its closed-form updates."""
    problem = as_block_problem(inst)
    if schedule is None:
        schedule = derive_schedule(
            (inst.L1, inst.L2), (inst.sigma1, inst.sigma2), kappa=kappa, rho=rho
        )
    if x0 is None:
        U0, V0 = initial_factors(inst, seed)
        x0 = pack_factors(inst, U0, V0)
    result = run(
        problem,
        schedule,
        x0,
        max_iters=max_iters,
        residual_tol=residual_tol,
        stall_tol=stall_tol,
    )
    return result, unpack_factors(result.x_final)
