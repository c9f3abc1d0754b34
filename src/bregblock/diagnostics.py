"""Independent verification machinery.

Nothing in here trusts the closed forms it checks: gradients are compared
against central finite differences, the relative-smoothness constants are
certified on sampled pairs, block subproblems are re-solved by projected
gradient descent, solver traces are audited against the quantified descent
bound, and Lyapunov decay curves are classified empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .blocks import (
    Array,
    BlockProblem,
    BlockVector,
    _block_model,
    block_bregman_distance,
)

if TYPE_CHECKING:
    from .solver import IterationRecord, StepSchedule


FD_STEP = 1e-5


def finite_difference_block_grad(func: Callable[[BlockVector], float], i: int, x: BlockVector) -> Array:
    """Central finite differences of ``func`` with step FD_STEP along the
    coordinates of block i, in the block's shape."""
    base = np.array(x.block(i))
    grad = np.empty(base.shape)
    for j in np.ndindex(base.shape):
        plus = base.copy()
        plus[j] += FD_STEP
        minus = base.copy()
        minus[j] -= FD_STEP
        grad[j] = (func(x.with_block(i, plus)) - func(x.with_block(i, minus))) / (2.0 * FD_STEP)
    return grad


SAMPLE_SCALES = (1.0, 10.0, 0.1)
SMOOTHNESS_SLACK = 1e-9
ORACLE_ITERS = 20000
ORACLE_TOL = 1e-11


def _sampled_pair(
    problem: BlockProblem, i: int, rng: np.random.Generator, s: int
) -> tuple[BlockVector, Array]:
    """One sampled pair differing only in block i.

    Entries are uniform[0, 1) scaled per block: the varied block uses
    SAMPLE_SCALES[s % 3] and the frozen blocks SAMPLE_SCALES[(s // 3) % 3],
    so consecutive samples cycle through all scale combinations.
    """
    scale_varied = SAMPLE_SCALES[s % 3]
    scale_fixed = SAMPLE_SCALES[(s // 3) % 3]
    x = BlockVector(tuple(
        (scale_varied if b == i else scale_fixed) * rng.random(shape)
        for b, shape in enumerate(problem.shapes)
    ))
    y_i = scale_varied * rng.random(problem.shapes[i])
    return x, y_i


def verify_relative_smoothness(
    problem: BlockProblem,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Certify the (L_i, h_i) pairs on sampled single-block perturbations.

    Each sample checks both characterizations of block relative smoothness:
    the descent-type upper bound
        f(y) <= f(x) + <grad_i f(x), y_i - x_i> + L_i D_{h_i}(y, x)
    and the gradient-monotonicity bound
        <grad_i f(x) - grad_i f(y), x_i - y_i>
            <= L_i <grad_i h_i(x) - grad_i h_i(y), x_i - y_i>.
    Violations are excesses beyond SMOOTHNESS_SLACK (absolute).  The descent
    bound takes D_{h_i} from the kernel's closed form, so each sample also
    compares it with the direct formula h_i(y) - h_i(x) - <grad_i h_i(x),
    y_i - x_i>, relative to the sum of the magnitudes of those three terms
    (the scale at which the direct formula cancels).  Returns a dict with
    keys ``violations``, ``worst_slack`` and ``bregman_max_rel_gap``.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    N = problem.N
    violations = 0
    worst = -math.inf
    breg_gap = 0.0
    for s in range(samples):
        rng = np.random.default_rng((int(seed), s))
        i = s % N
        x, y_i = _sampled_pair(problem, i, rng, s)
        y = x.with_block(i, y_i)
        diff = y_i - x.block(i)
        Li = problem.L[i]
        kern = problem.kernels[i]

        gx = problem.f_block_grad(i, x)
        breg = block_bregman_distance(kern, x, y_i)
        descent_gap = float(problem.f_value(y)) - (
            float(problem.f_value(x)) + float(np.vdot(gx, diff)) + Li * breg
        )

        gy = problem.f_block_grad(i, y)
        hx = kern.block_grad(x)
        hy = kern.block_grad(y)
        mono_gap = float(np.vdot(gx - gy, -diff)) - Li * float(np.vdot(hx - hy, -diff))

        terms = (float(kern.value(y)), -float(kern.value(x)), -float(np.vdot(hx, diff)))
        scale = sum(abs(t) for t in terms) or 1.0
        breg_gap = max(breg_gap, abs(breg - sum(terms)) / scale)

        worst = max(worst, descent_gap, mono_gap)
        if descent_gap > SMOOTHNESS_SLACK or mono_gap > SMOOTHNESS_SLACK:
            violations += 1
    return {"violations": violations, "worst_slack": worst, "bregman_max_rel_gap": breg_gap}


def numeric_subproblem_oracle(
    problem: BlockProblem,
    schedule: "StepSchedule",
    i: int,
    x: BlockVector,
    x_prev: BlockVector,
) -> Array:
    """Projected gradient descent on the block-i model, ``model_value``.

    Independent of any closed-form update: it only touches the block
    gradients of f and h_i plus the Euclidean projection of g_i (which must
    therefore be the indicator of a projectable convex set).  The step size
    is one over a local Lipschitz estimate maintained by backtracking; the
    loop stops when an iterate moves at most ORACLE_TOL, or after ORACLE_ITERS.
    Every point it evaluates is a projection, where g_i is 0, so it
    evaluates the model without its g_i term."""
    term = problem.g[i]
    if term.project is None:
        raise ValueError(f"block {i} has no projection; the oracle cannot run")
    gamma = schedule.gamma[i]
    alpha = schedule.alpha[i]
    kern = problem.kernels[i]
    xi = np.array(x.block(i))
    drift, smooth = _block_model(problem, gamma, alpha, i, x, x_prev, problem.f_block_grad(i, x))
    gh_at_x = kern.block_grad(x)

    def smooth_grad(z: Array) -> Array:
        return drift + (kern.block_grad(x.with_block(i, z)) - gh_at_x) / gamma

    z = term.project(xi)
    fz = smooth(z)
    lip = 1.0
    for _ in range(ORACLE_ITERS):
        gz = smooth_grad(z)
        while True:
            cand = term.project(z - gz / lip)
            d = cand - z
            quad = fz + float(np.vdot(gz, d)) + 0.5 * lip * float(np.vdot(d, d))
            fc = smooth(cand)
            if fc <= quad + 1e-15 * (1.0 + abs(fz)) or lip > 1e16:
                break
            lip *= 2.0
        move = float(np.linalg.norm(cand - z))
        z, fz = cand, fc
        if move <= ORACLE_TOL:
            break
        lip = max(lip * 0.9, 1e-12)
    return np.asarray(z, dtype=float)


def audit_trace(trace: Sequence["IterationRecord"], schedule: "StepSchedule") -> dict:
    """Check a solver trace against the Lyapunov descent guarantees.

    Per consecutive pair of records (slack 1e-10 * (1 + |L^k|)):
      * L^{k+1} <= L^k,
      * L^{k+1} - L^k <= -sum_i (a_i D_i^{k} + b_i D_i^{k-1}) with D taken
        from the recorded gaps,
      * the per-sweep objective bound
        Phi^{k+1} - Phi^k <= sum_i (-(a_i+delta_i) D_i^k + (delta_i-b_i) D_i^{k-1}).
    Returns pass/fail with the first offending record index and the final
    maximum gap (which should vanish on converged runs).
    """
    records = list(trace)
    first_fail = None
    worst = 0.0
    for k in range(len(records) - 1):
        cur, nxt = records[k], records[k + 1]
        slack = 1e-10 * (1.0 + abs(cur.lyapunov))
        diff = nxt.lyapunov - cur.lyapunov
        bound = -sum(
            a * gn + b * go
            for a, b, gn, go in zip(schedule.a, schedule.b, nxt.gaps, cur.gaps)
        )
        phi_slack = 1e-10 * (1.0 + abs(cur.phi))
        phi_bound = sum(
            -(a + d) * gn + (d - b) * go
            for a, b, d, gn, go in zip(schedule.a, schedule.b, schedule.delta, nxt.gaps, cur.gaps)
        )
        excess = max(diff - slack, diff - bound - slack, (nxt.phi - cur.phi) - phi_bound - phi_slack)
        worst = max(worst, excess)
        if excess > 0.0 and first_fail is None:
            first_fail = nxt.k
    final_gap = max(records[-1].gaps) if records else 0.0
    return {
        "passed": first_fail is None,
        "first_fail_k": first_fail,
        "worst_violation": worst,
        "final_max_gap": final_gap,
    }


REGIME_FINITE = "finite"
REGIME_GEOMETRIC = "geometric"
REGIME_SUBLINEAR = "sublinear"
REGIME_INCONCLUSIVE = "inconclusive"

R_SQUARED_THRESHOLD = 0.9


@dataclass(frozen=True)
class RateFit:
    """Empirical decay classification of a nonincreasing Lyapunov series."""

    regime: str
    tau: float | None
    exponent: float | None
    r_squared: float


def _linear_fit(xs: Array, ys: Array) -> tuple[float, float]:
    """Least-squares slope and r-squared of ys against xs."""
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    total = ys - ys.mean()
    ss_tot = float(np.dot(total, total))
    if ss_tot == 0.0:
        return float(slope), 1.0
    return float(slope), 1.0 - float(np.dot(resid, resid)) / ss_tot


def fit_rate(lyapunov_series: Sequence[float]) -> RateFit:
    """Classify the decay of a nonincreasing series towards its last value.

    S_k = L^k - L^final serves as the gap proxy (the true limit is
    unknown); trailing exact zeros are stripped and the last 5% of the
    iterations are dropped from the fits to blunt the proxy bias.  A
    geometric fit regresses log S_k on k, a sublinear (power) fit regresses
    log S_k on log k over k >= 1; the regime with the higher r-squared wins
    unless both fall below 0.9, which reports ``inconclusive``.  A series
    that reaches its limit exactly before the trailing window is ``finite``.
    """
    series = np.asarray(lyapunov_series, dtype=float)
    n = series.size
    if n < 10:
        raise ValueError(f"need at least 10 points to fit a rate, got {n}")
    if np.any(np.diff(series) > 1e-12 * (1.0 + np.abs(series[:-1]))):
        raise ValueError("series must be nonincreasing")
    gaps = np.maximum(series - series[-1], 0.0)
    tail_allow = max(1, math.ceil(0.05 * n))
    nonpos = np.nonzero(gaps <= 0.0)[0]
    pos_len = int(nonpos[0]) if nonpos.size else n
    trailing_zeros = n - pos_len
    if trailing_zeros > tail_allow:
        return RateFit(REGIME_FINITE, tau=None, exponent=None, r_squared=1.0)

    keep = pos_len - max(1, int(0.05 * n))
    if keep < 5:
        return RateFit(REGIME_INCONCLUSIVE, tau=None, exponent=None, r_squared=0.0)
    ks = np.arange(keep, dtype=float)
    logs = np.log(gaps[:keep])

    geo_slope, geo_r2 = _linear_fit(ks, logs)
    if geo_slope >= 0.0:
        geo_r2 = -math.inf
    pow_slope, pow_r2 = _linear_fit(np.log(ks[1:]), logs[1:])
    if pow_slope >= 0.0:
        pow_r2 = -math.inf

    if geo_r2 >= pow_r2:
        regime, r2 = REGIME_GEOMETRIC, geo_r2
        tau, exponent = math.exp(geo_slope), None
    else:
        regime, r2 = REGIME_SUBLINEAR, pow_r2
        tau, exponent = None, pow_slope
    if not math.isfinite(r2) or r2 < R_SQUARED_THRESHOLD:
        reported = max(r2, 0.0) if math.isfinite(r2) else 0.0
        return RateFit(REGIME_INCONCLUSIVE, tau=None, exponent=None, r_squared=reported)
    return RateFit(regime, tau=tau, exponent=exponent, r_squared=r2)
