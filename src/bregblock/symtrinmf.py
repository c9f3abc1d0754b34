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

X is exactly symmetric (:class:`SymTriInstance` refuses any other X), so
every m^2 r product lives in :func:`products`: the objective and both block
gradients are cheap functions of XU, U^T X U and G = U^T U, which they take
as an optional last argument and otherwise compute.  ``products`` remembers
nothing; :func:`as_block_problem` keeps a record of the last point it met,
made when the problem meets the point: the products and ||U||^2 of its U
block, ||V||^2 of its V block (the ``norms`` of update_U, update_V and the
kernel distances) and its G V G (the ``gvg`` of grad_V and f_value), each
block's entries taken over from the last record when the point shares the
block, whose identity names its values since a BlockVector's blocks cannot
change.  The kernels' block gradients, which only checks call, compute
their own norms.  A sweep meets (U_k, V_k), (U+, V_k) and (U+, V+), so it
pays one X-product, which the rest of the sweep, the residual and the
Lyapunov value reuse, and far from the fit five squared norms: ||U+||^2,
||V+||^2 (the next sweep's ||U_k||^2 and ||V_k||^2) and those of the
clamped score and the two block steps in the distances; and G V G twice, at
(U+, V_k) and (U+, V+).  The generic sweep hands the updates the block
gradients it has already evaluated, so a sweep computes grad_U once and
grad_V twice.  The hot path multiplies with ndarray.dot, not @: at r-sized
shapes @ costs about 1 us more per call, for the same BLAS result.

The closed forms also certify the sweep.  Each update takes its block
gradient of f and returns, with the new block, the subgradient its
first-order condition exhibits: min(G, 0) / gamma1 from the score G the U
update clamps, and (c / gamma2) min(W, 0), c the V kernel's curvature,
from the step W the V update clamps.  Each kernel supplies its exact
Bregman distance as a sum of nonnegative terms (:func:`kernel_h1_distance`,
:func:`kernel_h2_distance`), so a gap never cancels to rounding noise.  A
sweep then evaluates one kernel function, the grad_U h1 inside update_U.

The objective uses the trace identity
f = (||X||^2 - 2 <U^T X U, V> + <G V G, V>) / 2.  Its rounding error is a
few eps ||X||^2, so below FIT_CANCELLATION ||X||^2 f_value forms the dense
residual instead; :func:`dense_fit` is the direct reference for all three
formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .blocks import (
    Array,
    BlockKernel,
    BlockProblem,
    BlockVector,
    ParameterError,
    nonnegative_indicator,
)
from .solver import SolveResult, check_integer, derive_schedule, run

UNASSIGNED = -1

# f_value trusts the trace identity only for f >= FIT_CANCELLATION ||X||^2,
# that is for a relative fit error ||X - U V U^T|| / ||X|| above ~4.5%.
# The identity's rounding error is about 1e-14 ||X||^2 at m = 1000, so its
# relative error there stays near 1e-11, inside the 1e-10 slack of
# audit_trace; closer fits pay one dense m x m residual per evaluation.
FIT_CANCELLATION = 1e-3


def _sq_norm(A: Array) -> float:
    return float(np.vdot(A, A))


def check_kernel_parameters(a1: float, eps1: float, eps2: float) -> tuple[float, float, float, float]:
    """The checks SymTriInstance makes on its kernel parameters
    (ParameterError): each must be positive (NaN is not) and finite, and so
    must the constants 6/a1 and 2 eps1 they give.  Returns
    (L1, L2, sigma1, sigma2) = (max(6/a1, 1), 1, 2 eps1, eps2)."""
    for name, value in (("a1", a1), ("eps1", eps1), ("eps2", eps2)):
        if not 0.0 < float(value) < math.inf:
            raise ParameterError(f"{name} must be {'finite' if value > 0 else 'positive'}, got {value}")
    L1, sigma1 = 6.0 / a1, 2.0 * eps1
    for name, value in (("6/a1", L1), ("2*eps1", sigma1)):
        if not 0.0 < value < math.inf:
            raise ParameterError(f"{name} must be finite and positive, got {value}")
    return max(L1, 1.0), 1.0, sigma1, float(eps2)


@dataclass(frozen=True, eq=False)
class SymTriInstance:
    """Data matrix with factorization rank and kernel parameters.

    Derived constants (set in __post_init__): the smallest admissible
    relative-smoothness bounds L1 = max(6/a1, 1) and L2 = 1, the
    strong-convexity moduli sigma1 = 2 eps1 and sigma2 = eps2, and the
    cached Frobenius norm of X.  Entries and the norm of X must be finite,
    X must equal X^T entry for entry, with no tolerance, and r must be an
    integer in [1, m] (ParameterError).  The kernels fix b1 = 2 and a2 = 1:
    scaling a kernel by c scales its sigma by c and its L by 1/c and leaves
    every iterate as it is, so kernels with (a1, b1, a2) give the run of
    a1' = 2 a1 / b1.
    """

    X: Array
    r: int
    a1: float = 6.0
    eps1: float = 1.0
    eps2: float = 1.0
    L1: float = field(init=False)
    L2: float = field(init=False)
    sigma1: float = field(init=False)
    sigma2: float = field(init=False)
    norm_X: float = field(init=False)

    def __post_init__(self) -> None:
        X = np.array(self.X, dtype=float, copy=True)
        if X.ndim != 2 or X.shape[0] != X.shape[1]:
            raise ParameterError(f"X must be square, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ParameterError("X has NaN or infinite entries")
        m = X.shape[0]
        r = check_integer("r", self.r)
        if not 1 <= r <= m:
            raise ParameterError(f"rank must lie in [1, {m}], got {r}")
        L1, L2, sigma1, sigma2 = check_kernel_parameters(self.a1, self.eps1, self.eps2)
        norm = float(np.linalg.norm(X))
        if not math.isfinite(norm):
            # then f = ||X - U V U^T||^2 / 2 overflows at every point
            raise ParameterError(
                "the Frobenius norm of X overflows; X must be rescaled (for example "
                "divided by its largest absolute entry) before solving"
            )
        if not (X == X.T).all():
            raise ParameterError("X is not symmetric; pass (X + X^T)/2 (--symmetrize to "
                                 "bregblock solve or check)")
        X.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "L1", L1)
        object.__setattr__(self, "L2", L2)
        object.__setattr__(self, "sigma1", sigma1)
        object.__setattr__(self, "sigma2", sigma2)
        object.__setattr__(self, "norm_X", norm)

    @property
    def m(self) -> int:
        return self.X.shape[0]


class FactorPair(NamedTuple):
    """The factors U (m x r) and V (r x r) of a solve: its final iterate's blocks."""

    U: Array
    V: Array


def _check_shapes(inst: SymTriInstance, U: Array, V: Array) -> tuple[Array, Array]:
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != (inst.m, inst.r):
        raise ParameterError(f"U must be {inst.m}x{inst.r}, got {U.shape}")
    if V.shape != (inst.r, inst.r):
        raise ParameterError(f"V must be {inst.r}x{inst.r}, got {V.shape}")
    return U, V


Products = tuple[Array, Array, Array]


def products(inst: SymTriInstance, U: Array) -> Products:
    """(XU, U^T X U, U^T U), read-only."""
    XU = inst.X.dot(U)
    out = (XU, U.T.dot(XU), U.T.dot(U))
    for a in out:
        a.setflags(write=False)
    return out


def _residual(inst: SymTriInstance, U: Array, V: Array) -> Array:
    return inst.X - U.dot(V).dot(U.T)


def _gvg(G: Array, V: Array) -> Array:
    return G.dot(V).dot(G)


def f_value(inst: SymTriInstance, U: Array, V: Array, prods: Products | None = None,
            gvg: Array | None = None) -> float:
    """Fit term ||X - U V U^T||_F^2 / 2, by the trace identity
    (||X||^2 - 2 <U^T X U, V> + <G V G, V>) / 2 with G = U^T U, or from the
    dense residual where the identity cancels (below FIT_CANCELLATION ||X||^2).
    ``prods`` is products(inst, U) and ``gvg`` is G V G, each computed here
    when not given."""
    _, UtXU, G = prods or products(inst, U)
    x2 = inst.norm_X**2
    GVG = _gvg(G, V) if gvg is None else gvg
    f = 0.5 * (x2 - 2.0 * float(np.vdot(UtXU, V)) + float(np.vdot(GVG, V)))
    if f >= FIT_CANCELLATION * x2:
        return f
    return 0.5 * _sq_norm(_residual(inst, U, V))


def grad_U(inst: SymTriInstance, U: Array, V: Array, prods: Products | None = None) -> Array:
    """Gradient of the fit term in U:
    -X U V^T - X U V + U (V G V^T + V^T G V) with G = U^T U."""
    XU, _, G = prods or products(inst, U)
    return U.dot(V.dot(G).dot(V.T) + V.T.dot(G).dot(V)) - XU.dot(V.T) - XU.dot(V)


def grad_V(inst: SymTriInstance, U: Array, V: Array, prods: Products | None = None,
           gvg: Array | None = None) -> Array:
    """Gradient of the fit term in V: G V G - U^T X U with G = U^T U;
    ``prods`` and ``gvg`` as in f_value."""
    _, UtXU, G = prods or products(inst, U)
    return (_gvg(G, V) if gvg is None else gvg) - UtXU


def dense_fit(inst: SymTriInstance, U: Array, V: Array) -> tuple[float, Array, Array]:
    """Direct reference for f_value, grad_U and grad_V through the dense
    residual R = X - U V U^T: (||R||^2 / 2, -(R U V^T + R^T U V), -U^T R U).
    Costs an m x m temporary and several m^2 r products; only checks call it."""
    R = _residual(inst, U, V)
    return 0.5 * _sq_norm(R), -(R @ (U @ V.T) + R.T @ (U @ V)), -(U.T @ R @ U)


def kernel_h1_value(inst: SymTriInstance, U: Array, V: Array) -> float:
    """(a1/4)||V||^2 ||U||^4 + (||X|| ||V|| + eps1) ||U||^2."""
    u2 = _sq_norm(U)
    v2 = _sq_norm(V)
    return 0.25 * inst.a1 * v2 * u2 * u2 + (inst.norm_X * math.sqrt(v2) + inst.eps1) * u2


Norms = tuple[float, float]


def kernel_h1_grad(inst: SymTriInstance, U: Array, V: Array, norms: Norms | None = None) -> Array:
    """(a1 ||U||^2 ||V||^2 + 2 (||X|| ||V|| + eps1)) U; ``norms`` is
    (||U||^2, ||V||^2), computed here when not given."""
    u2, v2 = norms or (_sq_norm(U), _sq_norm(V))
    return (inst.a1 * u2 * v2 + 2.0 * (inst.norm_X * math.sqrt(v2) + inst.eps1)) * U


def kernel_h1_distance(inst: SymTriInstance, U: Array, V: Array, Y: Array,
                       norms: Norms | None = None) -> float:
    """Bregman distance of h1 from (U, V) to (Y, V):
    A <D, Y + U>^2 + (2 A ||U||^2 + B) ||D||^2 with D = Y - U,
    A = a1 ||V||^2 / 4 and B = ||X|| ||V|| + eps1, a sum of
    nonnegative terms (h1 is A ||U||^4 + B ||U||^2 along U).  ``norms`` as
    in kernel_h1_grad."""
    u2, v2 = norms or (_sq_norm(U), _sq_norm(V))
    A = 0.25 * inst.a1 * v2
    B = inst.norm_X * math.sqrt(v2) + inst.eps1
    D = Y - U
    s = float(np.vdot(D, Y + U))
    return A * s * s + (2.0 * A * u2 + B) * _sq_norm(D)


def kernel_h2_value(inst: SymTriInstance, U: Array, V: Array) -> float:
    """(1/2)(||U||^4 + eps2) ||V||^2."""
    u2 = _sq_norm(U)
    return 0.5 * (u2 * u2 + inst.eps2) * _sq_norm(V)


def kernel_h2_grad(inst: SymTriInstance, U: Array, V: Array) -> Array:
    u2 = _sq_norm(U)
    return (u2 * u2 + inst.eps2) * V


def kernel_h2_distance(inst: SymTriInstance, U: Array, V: Array, W: Array,
                       norms: Norms | None = None) -> float:
    """Bregman distance of h2 from (U, V) to (U, W): h2 is quadratic in V,
    so it is (1/2)(||U||^4 + eps2) ||W - V||^2.  ``norms`` as in
    kernel_h1_grad; only its ||U||^2 is read."""
    u2 = norms[0] if norms else _sq_norm(U)
    return 0.5 * (u2 * u2 + inst.eps2) * _sq_norm(W - V)


def cubic_positive_root(tau1: float, tau2: float) -> float:
    """Unique positive root of t^3 - tau1 t^2 - tau2 = 0 (tau1, tau2 >= 0,
    not both zero), via the depressed-cubic radical formula with
    discriminant tau2^2 + (4/27) tau2 tau1^3, then Newton polish.

    The radical form cancels badly when tau1^3/27 dwarfs (or is dwarfed by)
    tau2; two Newton steps restore the residual to rounding level.  Where
    the formula overflows it raises OverflowError: X must then be rescaled,
    or a1 or eps1 made smaller (tau1 grows with ||X|| and eps1, tau2 with
    a1).  On the m=30 acceptance instance (||X|| = 85) that happens from X
    scaled by 1e25, and with eps1 = 1e140 or a1 = 1e250.
    """
    tau1 = float(tau1)
    tau2 = float(tau2)
    if tau1 < 0 or tau2 < 0:
        raise ParameterError(f"cubic coefficients must be nonnegative, got ({tau1}, {tau2})")
    if tau1 == 0.0 and tau2 == 0.0:
        raise ParameterError("degenerate cubic: tau1 = tau2 = 0 has only the root t = 0")
    cube = tau1 * tau1 * tau1 / 27.0
    try:
        disc = tau2 * tau2 + (4.0 / 27.0) * tau2 * tau1 ** 3
    except OverflowError:  # float ** raises where * gives inf
        disc = math.inf
    sq = math.sqrt(disc)
    # np.cbrt, never math.cbrt: the two differ in the last bit on about half
    # of all random doubles, so a swap would change every iterate
    t = tau1 / 3.0 + float(np.cbrt((tau2 + sq) / 2.0 + cube)) + float(
        np.cbrt((tau2 - sq) / 2.0 + cube)
    )
    if not math.isfinite(t):  # an inf discriminant gives inf - inf
        raise OverflowError(
            f"the U update's cubic t^3 - tau1 t^2 - tau2 overflows (tau1 = {tau1:.3g}, tau2 = "
            f"{tau2:.3g}); X must be rescaled (for example divided by its largest absolute "
            "entry), or the kernel parameter a1 or eps1 made smaller, before solving"
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
    *,
    f_grad: Array,
    norms: Norms | None = None,
) -> tuple[Array, Array]:
    """Closed-form minimizer of the block-U model, with its subgradient.

    Clamp G = grad_U h1(U_k, V_k) - gamma1 f_grad + alpha1 (U_k - U_prev),
    f_grad = grad_U f(U_k, V_k), to P = max(G, 0); the stationarity
    condition forces t = a1 ||U+||^2 ||V_k||^2 + 2 (||X|| ||V_k|| + eps1),
    which makes t the positive root of t^3 - tau1 t^2 - tau2 with
    tau1 = 2 (||X|| ||V_k|| + eps1) and tau2 = a1 ||V_k||^2 ||P||^2, and
    U+ = P / t.  Returns (U+, eta): since grad_U h1(U+, V_k) = P, the
    first-order condition exhibits eta = (G - P) / gamma1 = min(G, 0) / gamma1
    in the normal cone of the orthant at U+.  ``norms`` is
    (||U_k||^2, ||V_k||^2), computed here when not given; U+ is read-only.
    """
    norms = norms or (_sq_norm(U_k), _sq_norm(V_k))
    G = kernel_h1_grad(inst, U_k, V_k, norms) - gamma1 * f_grad
    if alpha1:  # a zero term would change no bit of U+ or ||eta||
        G += alpha1 * (U_k - U_prev)
    P = np.maximum(G, 0.0)
    v2 = norms[1]
    tau1 = 2.0 * (inst.norm_X * math.sqrt(v2) + inst.eps1)
    tau2 = inst.a1 * v2 * _sq_norm(P)
    t = cubic_positive_root(tau1, tau2)
    U_next = P / t
    U_next.setflags(write=False)
    return U_next, np.minimum(G, 0.0) / gamma1


def update_V(
    inst: SymTriInstance,
    gamma2: float,
    alpha2: float,
    U_next: Array,
    V_k: Array,
    V_prev: Array,
    *,
    f_grad: Array,
    norms: Norms | None = None,
) -> tuple[Array, Array]:
    """Closed-form minimizer of the block-V model, with its subgradient.

    The V kernel is quadratic with curvature c = ||U_next||^4 + eps2,
    so the model minimizer is the clamped step V+ = max(W, 0) with
    W = V_k + (alpha2 (V_k - V_prev) - gamma2 f_grad) / c,
    f_grad = grad_V f(U_next, V_k).  Returns (V+, (c/gamma2) min(W, 0)),
    the element of the orthant's normal cone at V+ that the first-order
    condition exhibits.  ``norms`` as in update_U, at (U_next, V_k); only
    its ||U_next||^2 is read.  V+ is read-only.
    """
    u2 = norms[0] if norms else _sq_norm(U_next)
    curvature = u2 * u2 + inst.eps2
    step = alpha2 * (V_k - V_prev) - gamma2 * f_grad if alpha2 else -gamma2 * f_grad  # as in update_U
    W = V_k + step / curvature
    V_next = np.maximum(W, 0.0)
    V_next.setflags(write=False)
    return V_next, (curvature / gamma2) * np.minimum(W, 0.0)


class _Record(NamedTuple):
    """What a block problem keeps of a point x = (U, V) it meets: the
    products of U, (||U||^2, ||V||^2) and G V G."""

    x: BlockVector
    prods: Products
    norms: Norms
    gvg: Array


def as_block_problem(inst: SymTriInstance) -> BlockProblem:
    """Bind the instance into the generic two-block problem: the blocks are
    U (m x r) and V (r x r) in their natural shapes, the nonsmooth terms
    are nonnegativity indicators, and the exact subproblem solvers are the
    closed-form updates.  The problem keeps the record of the last point it
    met, which every evaluation at that point reads."""
    last = None

    def record(x: BlockVector) -> _Record:
        nonlocal last
        if last is None or last.x is not x:
            U, V = x.blocks
            old_U, old_V = last.x.blocks if last else (None, None)
            prods, u2 = (last.prods, last.norms[0]) if U is old_U else (products(inst, U), _sq_norm(U))
            v2 = last.norms[1] if V is old_V else _sq_norm(V)
            last = _Record(x, prods, (u2, v2), _gvg(prods[2], V))
        return last

    def fg(i: int, x: BlockVector) -> Array:
        if i == 0:
            return grad_U(inst, *x.blocks, record(x).prods)
        if i == 1:
            rec = record(x)
            return grad_V(inst, *x.blocks, rec.prods, rec.gvg)
        raise ParameterError(f"block index {i} out of range")

    def fit(x: BlockVector) -> float:
        rec = record(x)
        return f_value(inst, *x.blocks, rec.prods, rec.gvg)

    kernel1 = BlockKernel(
        value=lambda x: kernel_h1_value(inst, *x.blocks),
        block_grad=lambda x: kernel_h1_grad(inst, *x.blocks),
        distance=lambda x, Y: kernel_h1_distance(inst, *x.blocks, Y, record(x).norms),
        sigma=inst.sigma1,
    )
    kernel2 = BlockKernel(
        value=lambda x: kernel_h2_value(inst, *x.blocks),
        block_grad=lambda x: kernel_h2_grad(inst, *x.blocks),
        distance=lambda x, W: kernel_h2_distance(inst, *x.blocks, W, record(x).norms),
        sigma=inst.sigma2,
    )

    def u_solver(problem, schedule, i, x_cur, x_prev, f_grad):
        U_k, V_k = x_cur.blocks
        return update_U(inst, schedule.gamma[0], schedule.alpha[0], U_k, x_prev.block(0), V_k,
                        f_grad=f_grad, norms=record(x_cur).norms)

    def v_solver(problem, schedule, i, x_cur, x_prev, f_grad):
        U_next, V_k = x_cur.blocks
        return update_V(inst, schedule.gamma[1], schedule.alpha[1], U_next, V_k, x_prev.block(1),
                        f_grad=f_grad, norms=record(x_cur).norms)

    g = (
        replace(nonnegative_indicator(), solver=u_solver),
        replace(nonnegative_indicator(), solver=v_solver),
    )
    return BlockProblem(
        shapes=((inst.m, inst.r), (inst.r, inst.r)),
        f_value=fit,
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


def relative_error(inst: SymTriInstance, U: Array, V: Array) -> float:
    """||X - U V U^T|| / ||X|| (absolute residual norm when ||X|| = 0) as
    sqrt(2 f_value), which on a solve's factors is its final phi's."""
    U, V = _check_shapes(inst, U, V)
    num = math.sqrt(2.0 * f_value(inst, U, V))
    return num / inst.norm_X if inst.norm_X > 0 else num


def community_assignment(U: Array) -> Array:
    """Per-row argmax community labels; ties go to the lowest index and
    all-zero rows get the UNASSIGNED sentinel (-1).  U must be finite and
    nonnegative (ParameterError): a NaN would win its row's argmax."""
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ParameterError(f"U must be a matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ParameterError("membership matrix has NaN or infinite entries")
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
    x0: BlockVector | None = None,
) -> tuple[SolveResult, FactorPair]:
    """Run the generic solver on the instance with its closed-form updates."""
    problem = as_block_problem(inst)
    schedule = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=rho)
    if x0 is None:
        U0, V0 = initial_factors(inst, seed)
        x0 = pack_factors(inst, U0, V0)
    result = run(problem, schedule, x0, max_iters=max_iters, residual_tol=residual_tol)
    return result, FactorPair(*result.x_final.blocks)
