"""Inertial block Bregman proximal solver.

One iteration is a cyclic Gauss-Seidel sweep: block i is updated by
minimizing a linearized model built at the freshest partial iterate, plus a
Bregman proximity term and the block's nonsmooth term, with an inertial
pull towards the previous full iterate.  Progress is monitored through a
Lyapunov function (objective plus delta-weighted Bregman gaps) which is
provably nonincreasing under the step-size conditions encoded in
:func:`derive_schedule`.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blocks import (
    Array,
    BlockProblem,
    BlockVector,
    ParameterError,
    block_bregman_distance,
    full_gradient,
    phi_value,
)


class ConfigurationError(RuntimeError):
    """A block has no exact subproblem solver, or its solver returned an
    infeasible point."""


class InfeasibleError(ValueError):
    """The starting point violates a nonsmooth term."""


TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_STALL = "lyapunov_stall"
TERMINATION_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class StepSchedule:
    """Per-block step sizes gamma_i, inertia weights alpha_i, and the
    Lyapunov weights delta_i with their descent coefficients a_i, b_i."""

    gamma: tuple[float, ...]
    alpha: tuple[float, ...]
    delta: tuple[float, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "delta", "a", "b"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        N = len(self.gamma)
        if not (len(self.alpha) == len(self.delta) == len(self.a) == len(self.b) == N):
            raise ParameterError("schedule fields must all have the same length")
        if any(not g > 0 for g in self.gamma):
            raise ParameterError(f"all gamma_i must be positive, got {self.gamma}")
        if any(v < 0 for v in self.delta + self.a + self.b):
            raise ParameterError("delta, a, b must be nonnegative")

    @property
    def N(self) -> int:
        return len(self.gamma)


def derive_schedule(
    L: Sequence[float],
    sigma: Sequence[float],
    kappa: float = 0.0,
    rho: float = 0.9,
) -> StepSchedule:
    """Build an admissible schedule from smoothness and convexity constants.

    Per block: alpha_i = kappa * sigma_i / 2 (so kappa < 1 keeps the inertia
    strictly admissible), gamma_i = rho * (sigma_i - 2|alpha_i|) / (sigma_i L_i),
    and delta_i is the midpoint of its admissible interval, which maximizes
    min(a_i, b_i).  With rho < 1 both descent coefficients are strictly
    positive; rho = 1 is allowed but makes them vanish, so it is flagged.
    """
    if not 0.0 <= kappa < 1.0:
        raise ParameterError(f"kappa must lie in [0, 1), got {kappa}")
    if not 0.0 < rho <= 1.0:
        raise ParameterError(f"rho must lie in (0, 1], got {rho}")
    L = tuple(float(v) for v in L)
    sigma = tuple(float(v) for v in sigma)
    if len(L) != len(sigma):
        raise ParameterError("L and sigma must have the same length")
    if any(not v > 0 for v in L) or any(not v > 0 for v in sigma):
        raise ParameterError("all L_i and sigma_i must be positive")
    if rho == 1.0:
        warnings.warn(
            "rho=1 puts the step size on the admissibility boundary; the "
            "descent coefficients a_i, b_i vanish and the Lyapunov decrease "
            "bound becomes vacuous",
            stacklevel=2,
        )
    gamma, alpha, delta, a, b = [], [], [], [], []
    for Li, si in zip(L, sigma):
        al = kappa * si / 2.0
        ga = rho * (si - 2.0 * al) / (si * Li)
        lo = al / (si * ga)
        hi = (1.0 - ga * Li) / ga - lo
        de = 0.5 * (lo + hi)
        alpha.append(al)
        gamma.append(ga)
        delta.append(de)
        a.append(max(hi - de, 0.0))
        b.append(max(de - lo, 0.0))
    return StepSchedule(tuple(gamma), tuple(alpha), tuple(delta), tuple(a), tuple(b))


def validate_schedule(
    schedule: StepSchedule, L: Sequence[float], sigma: Sequence[float]
) -> None:
    """Check the admissibility conditions; raise ParameterError on violation."""
    L = tuple(float(v) for v in L)
    sigma = tuple(float(v) for v in sigma)
    if schedule.N != len(L) or schedule.N != len(sigma):
        raise ParameterError("schedule length does not match the problem")
    for i, (ga, al, de, ai, bi, Li, si) in enumerate(
        zip(schedule.gamma, schedule.alpha, schedule.delta, schedule.a, schedule.b, L, sigma)
    ):
        if not abs(al) < si / 2.0:
            raise ParameterError(f"block {i}: |alpha|={abs(al)} must be < sigma/2={si / 2.0}")
        gmax = (si - 2.0 * abs(al)) / (si * Li)
        if not 0.0 < ga <= gmax * (1.0 + 1e-12):
            raise ParameterError(f"block {i}: gamma={ga} outside (0, {gmax}]")
        lo = abs(al) / (si * ga)
        hi = (1.0 - ga * Li) / ga - lo
        tol = 1e-12 * (1.0 + abs(hi))
        if not lo - tol <= de <= hi + tol:
            raise ParameterError(f"block {i}: delta={de} outside [{lo}, {hi}]")
        if abs(ai - (hi - de)) > 1e-9 * (1.0 + abs(hi)) or abs(bi - (de - lo)) > 1e-9 * (1.0 + abs(hi)):
            raise ParameterError(f"block {i}: a/b inconsistent with gamma, alpha, delta")


@dataclass(frozen=True)
class IterationRecord:
    """One trace row: objective, Lyapunov value, stationarity residual, and
    the per-block Bregman gaps of the sweep that produced this iterate."""

    k: int
    phi: float
    lyapunov: float
    residual_norm: float
    gaps: tuple[float, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class SolveResult:
    x_final: BlockVector
    x_prev: BlockVector
    trace: list[IterationRecord]
    termination: str


def solve_block_subproblem(
    problem: BlockProblem,
    schedule: StepSchedule,
    i: int,
    x_current: BlockVector,
    x_prev: BlockVector,
) -> Array:
    """Minimize the block-i model with the block's exact solver."""
    term = problem.g[i]
    z = np.asarray(term.solver(problem, schedule, i, x_current, x_prev), dtype=float)
    if math.isinf(float(term.value(z))):
        raise ConfigurationError(f"block {i}: subproblem solver returned an infeasible point")
    return z


def sweep_with_partials(
    problem: BlockProblem,
    schedule: StepSchedule,
    x_k: BlockVector,
    x_prev: BlockVector,
) -> tuple[BlockVector, list[float], list[BlockVector]]:
    """Cyclic pass over all blocks, keeping every partial iterate.

    Block i sees the freshest partial iterate for its gradient and model,
    but the inertial difference is always taken against the lagged full
    iterate x_prev.  Returns (x_next, gaps, partials) where partials has
    N+1 entries from x_k through x_next.
    """
    cur = x_k
    partials = [x_k]
    gaps: list[float] = []
    for i in range(problem.N):
        z = solve_block_subproblem(problem, schedule, i, cur, x_prev)
        gaps.append(block_bregman_distance(problem.kernels[i], i, cur, z))
        cur = cur.with_block(i, z)
        partials.append(cur)
    return cur, gaps, partials


def lyapunov_value(
    problem: BlockProblem,
    schedule: StepSchedule,
    x_next: BlockVector,
    gaps: Sequence[float],
) -> float:
    """Objective at x_next plus the delta-weighted Bregman gaps of its sweep."""
    if len(gaps) != schedule.N:
        raise ParameterError(f"expected {schedule.N} gaps, got {len(gaps)}")
    return phi_value(problem, x_next) + sum(d * g for d, g in zip(schedule.delta, gaps))


def stationarity_residual(
    problem: BlockProblem,
    schedule: StepSchedule,
    partials: Sequence[BlockVector],
    x_k: BlockVector,
    x_prev: BlockVector,
    x_next: BlockVector,
) -> float:
    """Norm of an explicit element of the composite subdifferential at x_next.

    The first-order condition of the block-i subproblem exhibits
    eta_i = (grad_i h_i(pre) - grad_i h_i(post)) / gamma_i
            + (alpha_i/gamma_i)(x_k_i - x_prev_i) - grad_i f(pre)
    as a subgradient of g_i at the new block, so stacking
    grad_i f(x_next) + eta_i over blocks gives a certified residual vector.
    """
    if len(partials) != problem.N + 1:
        raise ParameterError("partials must contain N+1 iterates from one sweep")
    parts = []
    for j in range(problem.N):
        pre, post = partials[j], partials[j + 1]
        kern = problem.kernels[j]
        gh_pre = kern.block_grad(j, pre)
        gh_post = kern.block_grad(j, post)
        ga, al = schedule.gamma[j], schedule.alpha[j]
        eta = (gh_pre - gh_post) / ga
        eta += (al / ga) * (x_k.block(j) - x_prev.block(j))
        eta -= problem.f_block_grad(j, pre)
        parts.append(np.ravel(problem.f_block_grad(j, x_next) + eta))
    return float(np.linalg.norm(np.concatenate(parts)))


def run(
    problem: BlockProblem,
    schedule: StepSchedule,
    x0: BlockVector,
    max_iters: int = 1000,
    residual_tol: float = 1e-9,
    stall_tol: float = 0.0,
) -> SolveResult:
    """Iterate sweeps from x0 until a stopping rule fires.

    Stops when the stationarity residual falls below
    residual_tol * (1 + ||grad f(x0)||), when consecutive Lyapunov values
    agree to stall_tol * (1 + |L^k|) (stall_tol = 0 disables this test:
    float quantization of L produces exact plateaus long before the
    residual bottoms out), or after max_iters sweeps.  The lagged iterate
    is initialized to x0, so the first sweep has no inertial pull.
    The k=0 record carries ||grad f(x0)|| as its residual (the certified
    residual needs a completed sweep); stopping only consults k >= 1.

    Before the first sweep it checks the limits, the schedule and x0's
    block shapes against ``problem.shapes`` (ParameterError), an exact
    solver on every block (ConfigurationError) and the feasibility of x0
    (InfeasibleError); the sweeps then check no shapes.
    """
    if max_iters < 0:
        raise ParameterError(f"max_iters must be nonnegative, got {max_iters}")
    if not (residual_tol >= 0 and stall_tol >= 0):
        raise ParameterError(
            f"tolerances must be nonnegative, got residual_tol={residual_tol}, "
            f"stall_tol={stall_tol}"
        )
    validate_schedule(schedule, problem.L, problem.sigma)
    shapes = tuple(b.shape for b in x0.blocks)
    if shapes != problem.shapes:
        raise ParameterError(f"x0 has block shapes {shapes}, expected {problem.shapes}")
    for i, term in enumerate(problem.g):
        if term.solver is None:
            raise ConfigurationError(f"block {i} has no exact subproblem solver")
        if math.isinf(float(term.value(x0.block(i)))):
            raise InfeasibleError(f"x0 is infeasible for nonsmooth block {i}")

    start = time.perf_counter()
    scale = 1.0 + float(np.linalg.norm(full_gradient(problem, x0)))
    phi0 = phi_value(problem, x0)
    zeros = tuple(0.0 for _ in range(problem.N))
    trace = [
        IterationRecord(
            k=0,
            phi=phi0,
            lyapunov=phi0,
            residual_norm=scale - 1.0,
            gaps=zeros,
            elapsed_seconds=time.perf_counter() - start,
        )
    ]

    x_prev, x = x0, x0
    termination = TERMINATION_MAX_ITERS
    for k in range(int(max_iters)):
        x_next, gaps, partials = sweep_with_partials(problem, schedule, x, x_prev)
        residual = stationarity_residual(problem, schedule, partials, x, x_prev, x_next)
        lyap = lyapunov_value(problem, schedule, x_next, gaps)
        if not math.isfinite(lyap):
            raise ArithmeticError(f"Lyapunov value is not finite at iteration {k + 1}")
        trace.append(
            IterationRecord(
                k=k + 1,
                phi=phi_value(problem, x_next),
                lyapunov=lyap,
                residual_norm=residual,
                gaps=tuple(gaps),
                elapsed_seconds=time.perf_counter() - start,
            )
        )
        prev_lyap = trace[-2].lyapunov
        x_prev, x = x, x_next
        if residual <= residual_tol * scale:
            termination = TERMINATION_RESIDUAL
            break
        if stall_tol > 0.0 and abs(prev_lyap - lyap) <= stall_tol * (1.0 + abs(prev_lyap)):
            termination = TERMINATION_STALL
            break
    return SolveResult(x_final=x, x_prev=x_prev, trace=trace, termination=termination)


def trace_to_json(trace: Sequence[IterationRecord], with_timing: bool = True) -> str:
    """Serialize a trace as a JSON array with keys k, phi, lyapunov,
    residual, gaps, seconds.  ``with_timing=False`` zeroes the seconds field
    so identical runs serialize byte-identically."""
    rows = [
        {
            "k": r.k,
            "phi": r.phi,
            "lyapunov": r.lyapunov,
            "residual": r.residual_norm,
            "gaps": list(r.gaps),
            "seconds": r.elapsed_seconds if with_timing else 0.0,
        }
        for r in trace
    ]
    return json.dumps(rows, indent=2)
