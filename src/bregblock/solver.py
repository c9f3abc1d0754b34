"""Inertial block Bregman proximal solver.

One iteration is a cyclic Gauss-Seidel sweep: block i is updated by
minimizing a linearized model built at the freshest partial iterate, plus a
Bregman proximity term and the block's nonsmooth term, with an inertial
pull towards the previous full iterate.  Progress is monitored through a
Lyapunov function (objective plus delta-weighted Bregman gaps) which is
provably nonincreasing under the step-size conditions that every
:class:`StepSchedule` checks when it is built.
"""

from __future__ import annotations

import json
import math
import operator
import time
import warnings
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Sequence

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
    """A block has no exact subproblem solver, or its solver returned
    something other than a feasible (z, eta) pair in the block's shape."""


class InfeasibleError(ValueError):
    """The starting point violates a nonsmooth term."""


TERMINATION_RESIDUAL = "residual_tol"
TERMINATION_MAX_ITERS = "max_iters"


@dataclass(frozen=True)
class StepSchedule:
    """Per-block step sizes gamma_i, inertia weights alpha_i and Lyapunov
    weights delta_i, admissible for the constants L_i, sigma_i they are
    made for, and the descent coefficients a_i, b_i they give.  Every
    construction, ``dataclasses.replace`` included, checks admissibility
    (ParameterError) and derives a and b."""

    gamma: tuple[float, ...]
    alpha: tuple[float, ...]
    delta: tuple[float, ...]
    L: tuple[float, ...]
    sigma: tuple[float, ...]
    a: tuple[float, ...] = field(init=False)
    b: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        for name in ("gamma", "alpha", "delta", "L", "sigma"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        if not len(self.gamma) == len(self.alpha) == len(self.delta) == len(self.L) == len(self.sigma):
            raise ParameterError("schedule fields must all have the same length")
        if any(not v > 0 for v in self.L + self.sigma):
            raise ParameterError("all L_i and sigma_i must be positive")
        if any(not g > 0 for g in self.gamma):
            raise ParameterError(f"all gamma_i must be positive, got {self.gamma}")
        a, b = [], []
        rows = zip(self.gamma, self.alpha, self.delta, self.L, self.sigma)
        for i, (ga, al, de, Li, si) in enumerate(rows):
            if not abs(al) < si / 2.0:
                raise ParameterError(f"block {i}: |alpha|={abs(al)} must be < sigma/2={si / 2.0}")
            gmax = (si - 2.0 * abs(al)) / _product(i, "sigma*L", si, Li)
            if not ga <= gmax * (1.0 + 1e-12):
                raise ParameterError(f"block {i}: gamma={ga} outside (0, {gmax}]")
            lo, hi = _delta_interval(i, Li, si, al, ga)
            tol = 1e-12 * (1.0 + abs(hi))
            if not max(lo - tol, 0.0) <= de <= hi + tol:
                raise ParameterError(f"block {i}: delta={de} outside [{lo}, {hi}]")
            a.append(max(hi - de, 0.0))
            b.append(max(de - lo, 0.0))
        object.__setattr__(self, "a", tuple(a))
        object.__setattr__(self, "b", tuple(b))

    @property
    def N(self) -> int:
        return len(self.gamma)


def _product(i: int, name: str, a: float, b: float) -> float:
    """a * b, a divisor of block i's schedule: positive and finite, or ParameterError."""
    if not 0.0 < a * b < math.inf:
        raise ParameterError(f"block {i}: {name} = {a!r} * {b!r} = {a * b} is out of range")
    return a * b


def _delta_interval(i: int, Li: float, si: float, al: float, ga: float) -> tuple[float, float]:
    """The admissible delta interval [lo, hi] of block i at step ga: finite, or ParameterError."""
    lo = abs(al) / _product(i, "sigma*gamma", si, ga)
    hi = (1.0 - ga * Li) / ga - lo
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError(f"block {i}: the delta interval [{lo}, {hi}] at gamma={ga} is not finite")
    return lo, hi


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
    kappa outside [0, 1) and rho outside (0, 1] are refused (ParameterError).
    """
    if not 0.0 <= kappa < 1.0:
        raise ParameterError(f"kappa must lie in [0, 1), got {kappa}")
    if not 0.0 < rho <= 1.0:
        raise ParameterError(f"rho must lie in (0, 1], got {rho}")
    L = tuple(float(v) for v in L)
    sigma = tuple(float(v) for v in sigma)
    if rho == 1.0:
        warnings.warn(
            "rho=1 puts the step size on the admissibility boundary; the "
            "descent coefficients a_i, b_i vanish and the Lyapunov decrease "
            "bound becomes vacuous",
            stacklevel=2,
        )
    gamma, alpha, delta = [], [], []
    for i, (Li, si) in enumerate(zip(L, sigma)):
        al = kappa * si / 2.0
        ga = rho * (si - 2.0 * abs(al)) / _product(i, "sigma*L", si, Li)
        lo, hi = _delta_interval(i, Li, si, al, ga)
        alpha.append(al)
        gamma.append(ga)
        delta.append(0.5 * (lo + hi))
    return StepSchedule(tuple(gamma), tuple(alpha), tuple(delta), L, sigma)


class IterationRecord(NamedTuple):
    """One trace row: objective, Lyapunov value, stationarity residual, and
    the per-block Bregman gaps of the sweep that produced this iterate.  An
    immutable named tuple (a third of a frozen dataclass's cost to build)."""

    k: int
    phi: float
    lyapunov: float
    residual_norm: float
    gaps: tuple[float, ...]
    elapsed_seconds: float


@dataclass(frozen=True)
class SolveResult:
    x_final: BlockVector
    trace: list[IterationRecord]
    termination: str


def solve_block_subproblem(
    problem: BlockProblem,
    schedule: StepSchedule,
    i: int,
    x_current: BlockVector,
    x_prev: BlockVector,
    *,
    f_grad: Array,
) -> tuple[Array, Array]:
    """Minimize the block-i model with the block's exact solver, handing it
    f_grad = grad_i f(x_current), and check its result: a pair of arrays in
    the block's shape with a feasible z (ConfigurationError).  Returns the
    minimizer z and the subgradient of g_i at z that the solver exhibits.
    ``run`` calls it once per block, at x0; sweeps call the solvers bare."""
    term = problem.g[i]
    out = term.solver(problem, schedule, i, x_current, x_prev, f_grad=f_grad)
    if not (isinstance(out, tuple) and len(out) == 2):
        raise ConfigurationError(f"block {i}: subproblem solver must return a (z, eta) pair")
    z, eta = np.asarray(out[0], dtype=float), np.asarray(out[1], dtype=float)
    if z.shape != problem.shapes[i] or eta.shape != problem.shapes[i]:
        raise ConfigurationError(
            f"block {i}: subproblem solver returned z of shape {z.shape} and eta of shape "
            f"{eta.shape}, expected {problem.shapes[i]}"
        )
    if math.isinf(float(term.value(z))):
        raise ConfigurationError(f"block {i}: subproblem solver returned an infeasible point")
    return z, eta


def sweep_with_partials(
    problem: BlockProblem,
    schedule: StepSchedule,
    x_k: BlockVector,
    x_prev: BlockVector,
    f_grad0: Array,
) -> tuple[BlockVector, list[float], list[Array]]:
    """Cyclic pass over all blocks: the new iterate, the gaps and, per
    block, the subgradient of g_i that its first-order condition exhibits.

    Block i sees the freshest partial iterate (pre) for its gradient and
    model, but the inertial difference is always taken against the lagged
    full iterate x_prev.  grad_i f(pre) is evaluated once (``f_grad0`` is
    grad_0 f(x_k), which the caller already has) and made read-only before
    the block solver sees it.  The solver, whose contract ``run`` checked
    at x0, returns the new block with eta_i, and the gap is the kernel's
    exact distance D_{h_i}(post, pre); the sweep evaluates no kernel value
    or gradient itself.  Returns (x_next, gaps, etas).
    """
    cur = x_k
    gaps: list[float] = []
    etas: list[Array] = []
    for i, (term, kernel) in enumerate(zip(problem.g, problem.kernels)):
        gf = problem.f_block_grad(i, cur) if i else f_grad0
        gf.setflags(write=False)
        z, eta = term.solver(problem, schedule, i, cur, x_prev, f_grad=gf)
        gaps.append(block_bregman_distance(kernel, cur, z))
        etas.append(eta)
        cur = cur.with_block(i, z)
    return cur, gaps, etas


def lyapunov_value(schedule: StepSchedule, phi: float, gaps: Sequence[float]) -> float:
    """The objective value ``phi`` at a sweep's result plus the
    delta-weighted Bregman gaps of that sweep."""
    if len(gaps) != schedule.N:
        raise ParameterError(f"expected {schedule.N} gaps, got {len(gaps)}")
    return phi + sum(map(operator.mul, schedule.delta, gaps))


def stationarity_residual(
    problem: BlockProblem, x_next: BlockVector, etas: Sequence[Array]
) -> tuple[float, list[Array]]:
    """Norm of an explicit element of the composite subdifferential at
    x_next, and the block gradients grad_j f(x_next) it is built from.

    ``etas`` are the subgradients of the g_j at the new blocks that
    ``sweep_with_partials`` returns, so the blocks grad_j f(x_next) + eta_j
    form a certified residual vector; its norm is taken from the per-block
    squared norms.
    """
    grads = [problem.f_block_grad(j, x_next) for j in range(problem.N)]
    total = 0.0
    for gj, eta in zip(grads, etas, strict=True):
        part = gj + eta
        total += float(np.vdot(part, part))
    return math.sqrt(total), grads


def check_integer(name: str, value) -> int:
    """value as an int; ParameterError unless an integer (numpy's too), not a bool."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        return operator.index(value)
    raise ParameterError(f"{name} must be an integer, got {value!r}")


def check_run_limits(max_iters: int, residual_tol: float) -> None:
    """The checks run makes on its limits (ParameterError): max_iters must be a
    nonnegative integer, residual_tol nonnegative (a NaN tolerance is not)."""
    if check_integer("max_iters", max_iters) < 0:
        raise ParameterError(f"max_iters must be nonnegative, got {max_iters}")
    if not residual_tol >= 0:
        raise ParameterError(f"residual_tol must be nonnegative, got {residual_tol}")


def run(
    problem: BlockProblem,
    schedule: StepSchedule,
    x0: BlockVector,
    max_iters: int = 1000,
    residual_tol: float = 1e-9,
) -> SolveResult:
    """Iterate sweeps from x0 until a stopping rule fires.

    Stops when the stationarity residual falls below
    residual_tol * (1 + ||grad f(x0)||), or after max_iters sweeps: the
    termination is TERMINATION_RESIDUAL or TERMINATION_MAX_ITERS.  A run
    with max_iters = k is, bit for bit but for its timings, the first k
    sweeps of every longer run from the same inputs.  The lagged iterate
    is initialized to x0, so the first sweep has no inertial pull.
    The k=0 record carries ||grad f(x0)|| as its residual (the certified
    residual needs a completed sweep); stopping only consults k >= 1.
    grad_0 f at each sweep's start is the one the residual evaluated at
    the end of the previous sweep (at x0, the one in ||grad f(x0)||).

    Before the first sweep it checks the limits, that the schedule was made
    for the problem's L and sigma (a StepSchedule is admissible for its own),
    and x0's block shapes against ``problem.shapes`` (ParameterError), an exact
    solver on every block (ConfigurationError) and the feasibility of x0
    (InfeasibleError).  Then, max_iters = 0 included, it checks each block
    solver's (z, eta) once, at x0, through solve_block_subproblem
    (ConfigurationError); the sweeps trust the solvers and check nothing.
    """
    check_run_limits(max_iters, residual_tol)
    if (schedule.L, schedule.sigma) != (problem.L, problem.sigma):
        raise ParameterError(f"schedule made for L={schedule.L}, sigma={schedule.sigma}, not "
                             f"the problem's L={problem.L}, sigma={problem.sigma}")
    shapes = tuple(b.shape for b in x0.blocks)
    if shapes != problem.shapes:
        raise ParameterError(f"x0 has block shapes {shapes}, expected {problem.shapes}")
    for i, term in enumerate(problem.g):
        if term.solver is None:
            raise ConfigurationError(f"block {i} has no exact subproblem solver")
        if math.isinf(float(term.value(x0.block(i)))):
            raise InfeasibleError(f"x0 is infeasible for nonsmooth block {i}")

    start = time.perf_counter()
    grad0 = full_gradient(problem, x0)
    norm0 = float(np.linalg.norm(grad0))
    scale = 1.0 + norm0
    grad0.setflags(write=False)
    parts = np.split(grad0, np.cumsum([math.prod(s) for s in problem.shapes])[:-1])
    for i, part in enumerate(parts):
        solve_block_subproblem(problem, schedule, i, x0, x0, f_grad=part.reshape(problem.shapes[i]))
    f_grad0 = parts[0].reshape(problem.shapes[0])
    phi0 = phi_value(problem, x0)
    zeros = tuple(0.0 for _ in range(problem.N))
    trace = [
        IterationRecord(
            k=0,
            phi=phi0,
            lyapunov=phi0,
            residual_norm=norm0,
            gaps=zeros,
            elapsed_seconds=time.perf_counter() - start,
        )
    ]

    x_prev, x = x0, x0
    termination = TERMINATION_MAX_ITERS
    for k in range(max_iters):
        x_next, gaps, etas = sweep_with_partials(problem, schedule, x, x_prev, f_grad0)
        residual, grads = stationarity_residual(problem, x_next, etas)
        f_grad0 = grads[0]
        phi = phi_value(problem, x_next)
        lyap = lyapunov_value(schedule, phi, gaps)
        if not math.isfinite(lyap):
            raise ArithmeticError(f"Lyapunov value is not finite at iteration {k + 1}: phi = {phi}")
        trace.append(
            IterationRecord(
                k=k + 1,
                phi=phi,
                lyapunov=lyap,
                residual_norm=residual,
                gaps=tuple(gaps),
                elapsed_seconds=time.perf_counter() - start,
            )
        )
        x_prev, x = x, x_next
        if residual <= residual_tol * scale:
            termination = TERMINATION_RESIDUAL
            break
    return SolveResult(x_final=x, trace=trace, termination=termination)


# rows per chunk of the trace JSON, which bounds the lists of numbers and
# their encodings
_TRACE_ROWS = 1024


def trace_to_json(trace: Sequence[IterationRecord], with_timing: bool = True) -> str:
    """Serialize a trace as a JSON array with keys k, phi, lyapunov,
    residual, gaps, seconds.  ``with_timing=False`` zeroes the seconds field
    so identical runs serialize byte-identically.

    The text is that of ``json.dumps(rows, indent=2)`` with one dict per
    row, which runs json's pure-Python encoder.  Here the numbers of a run
    of rows with equally many gaps go through one unindented ``json.dumps``
    (the C encoder, with the same number formats) and fill a template of
    that run's layout."""
    parts = []
    for start in range(0, len(trace), _TRACE_ROWS):
        for n_gaps, group in groupby(trace[start:start + _TRACE_ROWS], key=lambda r: len(r.gaps)):
            group = list(group)
            numbers = [
                x
                for r in group
                for x in (r.k, r.phi, r.lyapunov, r.residual_norm, *r.gaps,
                          r.elapsed_seconds if with_timing else 0.0)
            ]
            template = ",\n".join([_row_template(n_gaps)] * len(group))
            parts.append(template % tuple(json.dumps(numbers)[1:-1].split(", ")))
    return "[\n" + ",\n".join(parts) + "\n]" if parts else "[]"


def _row_template(n_gaps: int) -> str:
    gaps = "[\n" + ",\n".join(["      %s"] * n_gaps) + "\n    ]" if n_gaps else "[]"
    return ('  {\n    "k": %s,\n    "phi": %s,\n    "lyapunov": %s,\n    "residual": %s,\n'
            '    "gaps": ' + gaps + ',\n    "seconds": %s\n  }')
