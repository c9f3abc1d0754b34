import dataclasses
import json
import math
import re

import numpy as np
import pytest

from bregblock import (
    BlockProblem,
    BlockVector,
    ConfigurationError,
    DomainError,
    InfeasibleError,
    IterationRecord,
    NonsmoothBlock,
    ParameterError,
    StepSchedule,
    SymTriInstance,
    audit_trace,
    block_bregman_distance,
    derive_schedule,
    lyapunov_value,
    model_value,
    nonnegative_indicator,
    phi_value,
    run,
    solve_block_subproblem,
    stationarity_residual,
    trace_to_json,
)
from bregblock import symtrinmf as stf
from bregblock.blocks import full_gradient
from bregblock.diagnostics import numeric_subproblem_oracle
from bregblock.io import synth_instance
from bregblock.solver import check_run_limits, sweep_with_partials
from points import flat, point, squared_norm_kernel, zero_term


def euclidean_step_solver():
    """Exact minimizer of the block model for a Euclidean kernel:
    z = x_i - gamma * grad_i f(x) + alpha * (x_i - x_prev_i).  g == 0, so
    its subgradient is 0."""

    def solver(problem, schedule, i, x_cur, x_prev, f_grad):
        ga, al = schedule.gamma[i], schedule.alpha[i]
        xi = x_cur.block(i)
        z = xi - ga * f_grad + al * (xi - x_prev.block(i))
        return z, np.zeros_like(z)

    return solver


def sweep(problem, schedule, x, x_prev):
    """One ``sweep_with_partials`` from x, with grad_0 f(x) evaluated here."""
    return sweep_with_partials(problem, schedule, x, x_prev, problem.f_block_grad(0, x))


def recompute_everything_run(problem, schedule, x0, sweeps):
    """Reference for ``run``: the same sweeps with every gradient evaluated
    afresh at each use.  Each block solver gets a gradient evaluated for
    it alone and returns its subgradient; each residual term evaluates its
    own gradient.  Returns (x_final, rows) with one (phi, lyapunov,
    residual, gaps) row per sweep, the k=0 row holding phi(x0) and
    ||grad f(x0)||."""
    phi0 = phi_value(problem, x0)
    rows = [(phi0, phi0, float(np.linalg.norm(full_gradient(problem, x0))), (0.0,) * problem.N)]
    x_prev, x = x0, x0
    for _ in range(sweeps):
        cur, gaps, etas = x, [], []
        for i in range(problem.N):
            gf = problem.f_block_grad(i, cur)
            z, eta = problem.g[i].solver(problem, schedule, i, cur, x_prev, f_grad=gf)
            gaps.append(block_bregman_distance(problem.kernels[i], cur, z))
            etas.append(eta)
            cur = cur.with_block(i, z)
        total = 0.0
        for j, eta in enumerate(etas):
            part = problem.f_block_grad(j, cur) + eta
            total += float(np.vdot(part, part))
        phi = phi_value(problem, cur)
        rows.append((phi, lyapunov_value(schedule, phi, gaps), math.sqrt(total), tuple(gaps)))
        x_prev, x = x, cur
    return x, rows


def assert_run_matches_reference(problem, schedule, x0, sweeps):
    result = run(problem, schedule, x0, max_iters=sweeps, residual_tol=0.0)
    x_final, rows = recompute_everything_run(problem, schedule, x0, sweeps)
    got = [(r.phi, r.lyapunov, r.residual_norm, r.gaps) for r in result.trace]
    assert len(got) == sweeps + 1
    for k, (a, b) in enumerate(zip(got, rows)):
        assert a == b, f"sweep {k}: {a} != {b}"  # bitwise: == on floats
    for a, b in zip(result.x_final.blocks, x_final.blocks):
        assert a.tobytes() == b.tobytes()


def kernel_difference_gap(kern, i, x, y_i):
    """The gap as a difference of kernel values, h(y) - h(x) - <grad_i h(x),
    y_i - x_i>, with negative roundoff down to 1e-12 times the terms
    clamped to 0."""
    hx = float(kern.value(x))
    hy = float(kern.value(x.with_block(i, y_i)))
    inner = float(np.vdot(kern.block_grad(x), y_i - x.block(i)))
    d = hy - hx - inner
    if -1e-12 * (abs(hx) + abs(hy) + abs(inner) + 1.0) <= d < 0.0:
        return 0.0
    return d


def kernel_formula_run(problem, schedule, x0, max_iters, residual_tol):
    """Reference for ``run`` that forms the certificates from kernel
    evaluations instead of the solvers' subgradients and the kernels'
    closed-form distances: each gap by ``kernel_difference_gap``, each
    eta_i = (grad_i h_i(pre) - grad_i h_i(post)) / gamma_i
            + (alpha_i/gamma_i)(x_k_i - x_prev_i) - grad_i f(pre),
    the residual as the norm of the concatenated blocks.  It stops by run's
    residual rule.  Returns (x_final, termination, records)."""
    norm0 = float(np.linalg.norm(full_gradient(problem, x0)))
    phi0 = phi_value(problem, x0)
    rows = [IterationRecord(0, phi0, phi0, norm0, (0.0,) * problem.N, 0.0)]
    x_prev, x = x0, x0
    termination = "max_iters"
    for k in range(1, max_iters + 1):
        cur, gaps, etas = x, [], []
        for i in range(problem.N):
            kern, ga, al = problem.kernels[i], schedule.gamma[i], schedule.alpha[i]
            gf = problem.f_block_grad(i, cur)
            z, _ = problem.g[i].solver(problem, schedule, i, cur, x_prev, f_grad=gf)
            nxt = cur.with_block(i, z)
            gaps.append(kernel_difference_gap(kern, i, cur, z))
            eta = (kern.block_grad(cur) - kern.block_grad(nxt)) / ga
            eta += (al / ga) * (x.block(i) - x_prev.block(i))
            etas.append(eta - gf)
            cur = nxt
        parts = [np.ravel(problem.f_block_grad(j, cur) + eta) for j, eta in enumerate(etas)]
        residual = float(np.linalg.norm(np.concatenate(parts)))
        phi = phi_value(problem, cur)
        rows.append(IterationRecord(k, phi, lyapunov_value(schedule, phi, gaps), residual,
                                    tuple(gaps), 0.0))
        x_prev, x = x, cur
        if residual <= residual_tol * (1.0 + norm0):
            termination = "residual_tol"
            break
    return x, termination, rows


def quadratic_problem(A, b, dims, exact=True):
    """f(x) = ||A x - b||^2 / 2 split into vector blocks of the given sizes."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    cuts = np.cumsum((0,) + tuple(dims))
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])

    def fv(x):
        r = A @ flat(x) - b
        return 0.5 * float(np.dot(r, r))

    def fg(i, x):
        return A[:, cuts[i]:cuts[i + 1]].T @ (A @ flat(x) - b)

    term = dataclasses.replace(zero_term(), solver=euclidean_step_solver()) if exact else zero_term()
    return BlockProblem(
        shapes=tuple((d,) for d in dims),
        f_value=fv,
        f_block_grad=fg,
        kernels=tuple(squared_norm_kernel(i) for i in range(len(dims))),
        L=tuple(L for _ in dims),
        g=tuple(term for _ in dims),
    )


class TestDeriveSchedule:
    def test_single_block_with_inertia(self):
        s = derive_schedule([1.0], [2.0], kappa=0.5, rho=0.9)
        assert s.alpha[0] == pytest.approx(0.5, abs=0.0)
        assert s.gamma[0] == pytest.approx(0.9 * (2.0 - 1.0) / 2.0, abs=0.0)  # 0.45
        assert s.a[0] > 0 and s.b[0] > 0
        assert (s.L, s.sigma) == ((1.0,), (2.0,))

    def test_no_inertia_boundary(self):
        with pytest.warns(UserWarning):
            s = derive_schedule([1.0], [1.0], kappa=0.0, rho=1.0)
        assert s.alpha == (0.0,)
        assert s.gamma == (1.0,)
        assert s.delta == (0.0,)
        assert s.a == (0.0,)
        assert s.b == (0.0,)

    def test_second_block(self):
        s = derive_schedule([1.0, 1.0], [2.0, 1.0], kappa=0.5, rho=0.9)
        assert s.alpha[1] == pytest.approx(0.25, abs=0.0)
        assert s.gamma[1] == pytest.approx(0.9 * (1.0 - 0.5) / 1.0, abs=0.0)  # 0.45
        assert (s.L, s.sigma) == ((1.0, 1.0), (2.0, 1.0))

    def test_midpoint_balances_coefficients(self):
        for kappa in (0.0, 0.3, 0.7):
            for rho in (0.5, 0.9):
                s = derive_schedule([2.0, 0.5], [1.0, 3.0], kappa=kappa, rho=rho)
                for ai, bi in zip(s.a, s.b):
                    assert ai == pytest.approx(bi, rel=1e-12)
                    assert ai > 0

    @pytest.mark.parametrize("kappa,rho", [(-0.1, 0.9), (1.0, 0.9), (0.5, 0.0), (0.5, 1.1)])
    def test_invalid_parameters(self, kappa, rho):
        with pytest.raises(ParameterError):
            derive_schedule([1.0], [1.0], kappa=kappa, rho=rho)

    def test_validate_catches_bad_schedules(self):
        good = derive_schedule([1.0], [2.0], kappa=0.5, rho=0.9)
        for patch in (
            {"alpha": (1.5,)},               # |alpha| >= sigma/2
            {"gamma": (0.6,)},               # above (sigma - 2|alpha|)/(sigma L)
            {"delta": (5.0,)},               # outside the admissible interval
            {"L": (2.0,)},                   # gamma too long for a larger L
            {"sigma": (2.0, 2.0)},           # two moduli for one block
        ):
            with pytest.raises(ParameterError):
                dataclasses.replace(good, **patch)

    def test_schedule_field_validation(self):
        with pytest.raises(ParameterError):
            StepSchedule((0.0,), (0.0,), (0.0,), (0.0,), (0.0,))
        with pytest.raises(ParameterError):
            StepSchedule((1.0,), (0.0, 0.0), (0.0,), (0.0,), (0.0,))
        with pytest.raises(ParameterError, match=r"block 0: sigma\*gamma = "):
            StepSchedule((1e-200,), (0.0,), (0.0,), (1.0,), (1e-200,))  # sigma gamma underflows

    def test_closed_form_bitwise(self):
        # the docstring's formulas, evaluated in the same order, give the
        # schedule bit for bit
        L, sigma, kappa, rho = [3.7, 0.013], [0.21, 41.0], 0.55, 0.83
        s = derive_schedule(L, sigma, kappa=kappa, rho=rho)
        for i, (Li, si) in enumerate(zip(L, sigma)):
            al = kappa * si / 2.0
            ga = rho * (si - 2.0 * al) / (si * Li)
            lo = al / (si * ga)
            hi = (1.0 - ga * Li) / ga - lo
            de = 0.5 * (lo + hi)
            assert (s.gamma[i], s.alpha[i], s.delta[i], s.a[i], s.b[i]) == (ga, al, de, hi - de, de - lo)

    def test_replace_derives_fresh_descent_coefficients(self):
        base = derive_schedule([2.0, 0.5], [1.0, 3.0], kappa=0.4, rho=0.9)
        for patch in ({"alpha": (0.1, -0.3)}, {"gamma": (0.25, 1.0)}, {"delta": (0.8, 0.2)},
                      {"gamma": (0.3, 0.9), "alpha": (0.0, 0.0), "delta": (0.1, 0.2)}):
            s = dataclasses.replace(base, **patch)
            for Li, si, ga, al, de, ai, bi in zip(s.L, s.sigma, s.gamma, s.alpha, s.delta, s.a, s.b):
                lo = abs(al) / (si * ga)
                hi = (1.0 - ga * Li) / ga - lo
                assert (ai, bi) == (max(hi - de, 0.0), max(de - lo, 0.0))
            assert (s.a, s.b) != (base.a, base.b)

    @pytest.mark.parametrize("L, sigma, product", [
        (1e-200, 1e-200, "sigma*L"),      # sigma L underflows to 0
        (1e300, 1e300, "sigma*L"),        # sigma L overflows
        (1e200, 1e-200, "sigma*gamma"),   # gamma ~ 1/L, so sigma gamma underflows
    ])
    def test_out_of_range_products_are_parameter_errors(self, L, sigma, product):
        with pytest.raises(ParameterError, match=rf"block 1: {re.escape(product)} = "):
            derive_schedule([1.0, L], [1.0, sigma])
        # a schedule built by hand for those constants is refused too
        good = derive_schedule([1.0, 1.0], [1.0, 1.0])
        with pytest.raises(ParameterError):
            dataclasses.replace(good, L=(1.0, L), sigma=(1.0, sigma))

    @pytest.mark.parametrize("kappa, interval", [(0.0, "[0.0, inf]"), (0.5, "[inf, nan]")])
    def test_infinite_delta_interval_is_refused(self, kappa, interval):
        # at rho = 1e-310, 1/gamma overflows (and |alpha|/(sigma gamma) too
        # with inertia): delta, a and b would be inf or nan
        with pytest.raises(ParameterError, match=re.escape(f"block 0: the delta interval {interval}")):
            derive_schedule([1.0, 1.0], [2.0, 1.0], kappa=kappa, rho=1e-310)
        # a schedule built by hand with such a step is refused too
        good = derive_schedule([1.0, 1.0], [2.0, 1.0])
        with pytest.raises(ParameterError, match=r"block 1: the delta interval \[0\.0, inf\]"):
            dataclasses.replace(good, gamma=(good.gamma[0], 1e-310), delta=(good.delta[0], 0.0))

    @pytest.mark.parametrize("L, sigma, message", [
        ([-1.0], [-1.0], "all L_i and sigma_i must be positive"),
        ([0.0], [1.0], "block 0: sigma*L = 1.0 * 0.0 = 0.0 is out of range"),
        ([1.0], [-1.0], "block 0: sigma*L = -1.0 * 1.0 = -1.0 is out of range"),
        ([math.nan], [1.0], "block 0: sigma*L = 1.0 * nan = nan is out of range"),
        ([1.0], [math.inf], "block 0: sigma*L = inf * 1.0 = inf is out of range"),
        ([1.0, 1.0], [1.0], "schedule fields must all have the same length"),
    ])
    def test_derive_rejects_bad_constants(self, L, sigma, message):
        with pytest.raises(ParameterError, match=re.escape(message)):
            derive_schedule(L, sigma)

    @pytest.mark.parametrize("L, sigma", [((0.0,), (1.0,)), ((1.0,), (-1.0,)),
                                          ((math.nan,), (1.0,)), ((1.0,), (math.nan,))])
    def test_schedule_checks_its_constants_before_its_steps(self, L, sigma):
        # gamma is positive and the constants are not: the constants are named
        with pytest.raises(ParameterError, match="all L_i and sigma_i must be positive"):
            StepSchedule((0.5,), (0.0,), (0.5,), L, sigma)

    def test_descent_coefficients_are_not_arguments(self):
        base = derive_schedule([1.0], [2.0], kappa=0.5, rho=0.9)
        with pytest.raises(TypeError):
            StepSchedule((0.45,), (0.5,), (0.5,), (1.0,), (2.0,), (0.1,), (0.1,))
        with pytest.raises(ValueError):
            dataclasses.replace(base, a=(0.1,))


class TestSubproblem:
    def test_euclidean_gradient_step_via_oracle(self):
        rng = np.random.default_rng(0)
        problem = quadratic_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), (4,), exact=False)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        z = numeric_subproblem_oracle(problem, schedule, 0, x, x)
        expected = flat(x) - schedule.gamma[0] * problem.f_block_grad(0, x)
        assert np.allclose(z, expected, atol=1e-8)

    def test_exact_solver_dispatch(self):
        rng = np.random.default_rng(1)
        problem = quadratic_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), (4,), exact=True)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.3, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        xp = point(problem.shapes, rng.standard_normal(4))
        z, eta = solve_block_subproblem(problem, schedule, 0, x, xp,
                                        f_grad=problem.f_block_grad(0, x))
        ga, al = schedule.gamma[0], schedule.alpha[0]
        expected = flat(x) - ga * problem.f_block_grad(0, x) + al * (flat(x) - flat(xp))
        assert np.array_equal(z, expected)
        assert np.array_equal(eta, np.zeros(4))

    def test_no_solver_no_projection(self):
        # run() needs an exact solver on every block and says so before
        # the first sweep; a projection alone is not enough
        exact = dataclasses.replace(zero_term(), solver=euclidean_step_solver())
        for bare in (NonsmoothBlock(value=lambda z: 0.0), zero_term()):
            problem = BlockProblem(
                shapes=((2,), (2, 2)),
                f_value=lambda x: 0.0,
                f_block_grad=lambda i, x: np.zeros_like(x.block(i)),
                kernels=(squared_norm_kernel(0), squared_norm_kernel(1)),
                L=(1.0, 1.0),
                g=(exact, bare),
            )
            schedule = derive_schedule((1.0, 1.0), (1.0, 1.0))
            x = BlockVector((np.zeros(2), np.zeros((2, 2))))
            with pytest.raises(ConfigurationError, match="block 1"):
                run(problem, schedule, x)

    @staticmethod
    def with_block_one_solver(solver, g=None):
        """The (2,)+(2,) quadratic problem with block 1's solver (and, when
        given, its nonsmooth term) replaced."""
        rng = np.random.default_rng(12)
        problem = quadratic_problem(rng.standard_normal((3, 4)), rng.standard_normal(3), (2, 2))
        term = dataclasses.replace(g or problem.g[1], solver=solver)
        return dataclasses.replace(problem, g=(problem.g[0], term))

    @pytest.mark.parametrize("result, message", [
        (lambda z: z, "must return a \\(z, eta\\) pair"),
        (lambda z: (z, np.zeros(1)), "eta of shape \\(1,\\), expected \\(2,\\)"),
        (lambda z: (z[:1], np.zeros(2)), "z of shape \\(1,\\)"),
    ])
    def test_malformed_solver_result(self, result, message):
        # z alone would unpack into two scalars, and an eta of shape (1,)
        # would broadcast into the residual: both are refused, naming the
        # block, before any sweep
        exact = euclidean_step_solver()

        def solver(*args, **kwargs):
            return result(exact(*args, **kwargs)[0])

        problem = self.with_block_one_solver(solver)
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = point(problem.shapes, np.ones(4))
        for max_iters in (0, 3):
            with pytest.raises(ConfigurationError, match=f"block 1: .*{message}"):
                run(problem, schedule, x0, max_iters=max_iters)

    def test_infeasible_solver_result(self):
        def solver(problem, schedule, i, x_cur, x_prev, f_grad):
            return -np.ones(2), np.zeros(2)

        problem = self.with_block_one_solver(solver, g=nonnegative_indicator())
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = point(problem.shapes, np.ones(4))
        for max_iters in (0, 3):
            with pytest.raises(ConfigurationError,
                               match="block 1: subproblem solver returned an infeasible point"):
                run(problem, schedule, x0, max_iters=max_iters)

    @pytest.mark.parametrize("bad, error, message", [
        (math.nan, DomainError, "Bregman distance is nan: a point is NaN"),
        (-1.0, ArithmeticError, "Lyapunov value is not finite at iteration 3: phi = inf"),
    ])
    def test_solver_that_breaks_after_the_check_at_x0(self, bad, error, message):
        # run checks each solver once, at x0, and the sweeps trust it: a
        # block-1 solver that is right at x0 and on sweeps 1 and 2, then
        # returns a NaN or an infeasible block, still ends the run in an
        # error, never in a result
        calls = []

        def solver(problem, schedule, i, x_cur, x_prev, f_grad):
            # the projected Euclidean step and its normal-cone element
            ga, al = schedule.gamma[i], schedule.alpha[i]
            xi = x_cur.block(i)
            y = xi - ga * f_grad + al * (xi - x_prev.block(i))
            calls.append(i)
            z = np.maximum(y, 0.0) if len(calls) <= 3 else np.full(2, bad)
            return z, (y - z) / ga

        problem = self.with_block_one_solver(solver, g=nonnegative_indicator())
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.3)
        x0 = point(problem.shapes, np.ones(4))
        assert run(problem, schedule, x0, max_iters=2, residual_tol=0.0).trace[-1].k == 2
        calls.clear()
        with pytest.raises(error, match=message):
            run(problem, schedule, x0, max_iters=5, residual_tol=0.0)
        assert len(calls) == 4

    def test_never_increases_model(self):
        rng = np.random.default_rng(2)
        raw = rng.random((4, 4))
        inst = SymTriInstance(0.5 * (raw + raw.T), 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.4, rho=0.9)
        for _ in range(20):
            x = stf.pack_factors(inst, rng.random((4, 2)), rng.random((2, 2)))
            xp = stf.pack_factors(inst, rng.random((4, 2)), rng.random((2, 2)))
            for i in (0, 1):
                gf = problem.f_block_grad(i, x)
                z, _ = solve_block_subproblem(problem, schedule, i, x, xp, f_grad=gf)
                ga, al = schedule.gamma[i], schedule.alpha[i]
                m_new = model_value(problem, ga, al, i, x, xp, z, f_grad=gf)
                m_old = model_value(problem, ga, al, i, x, xp, x.block(i), f_grad=gf)
                assert m_new <= m_old + 1e-12


class TestSweep:
    def test_single_block_is_gradient_descent(self):
        rng = np.random.default_rng(3)
        problem = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        x_next, gaps, _ = sweep(problem, schedule, x, x)
        expected = flat(x) - schedule.gamma[0] * full_gradient(problem, x)
        assert np.array_equal(flat(x_next), expected)
        assert gaps[0] == pytest.approx(
            0.5 * float(np.dot(flat(x_next) - flat(x), flat(x_next) - flat(x))), rel=1e-12
        )

    def test_fixed_point(self):
        # at the unconstrained minimizer every block model is minimized at
        # the current point, so the sweep is stationary with zero gaps
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 5))
        b = rng.standard_normal(6)
        xstar = np.linalg.lstsq(A, b, rcond=None)[0]
        problem = quadratic_problem(A, b, (3, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
        x = point(problem.shapes, xstar)
        x_next, gaps, _ = sweep(problem, schedule, x, x)
        assert np.allclose(flat(x_next), xstar, atol=1e-12)
        # the kernel's closed-form distance does not cancel: the gaps are
        # of the order of the squared step, not eps * |h|
        assert max(gaps) <= 1e-26

    def test_matches_direct_factor_updates(self):
        rng = np.random.default_rng(5)
        raw = rng.random((5, 5))
        inst = SymTriInstance(0.5 * (raw + raw.T), 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
        U_k, V_k = rng.random((5, 2)), rng.random((2, 2))
        U_p, V_p = rng.random((5, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U_k, V_k)
        xp = stf.pack_factors(inst, U_p, V_p)
        x_next, _, _ = sweep(problem, schedule, x, xp)
        U_direct, _ = stf.update_U(inst, schedule.gamma[0], schedule.alpha[0], U_k, U_p, V_k,
                                   f_grad=stf.grad_U(inst, U_k, V_k))
        V_direct, _ = stf.update_V(inst, schedule.gamma[1], schedule.alpha[1], U_direct, V_k, V_p,
                                   f_grad=stf.grad_V(inst, U_direct, V_k))
        assert np.array_equal(x_next.block(0), U_direct)
        assert np.array_equal(x_next.block(1), V_direct)


class TestLyapunov:
    def test_zero_delta_is_phi(self):
        rng = np.random.default_rng(6)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = StepSchedule((0.5,), (0.0,), (0.0,), (1.0,), (1.0,))
        x = point(problem.shapes, rng.standard_normal(3))
        phi = phi_value(problem, x)
        assert lyapunov_value(schedule, phi, [3.7]) == pytest.approx(phi, rel=1e-15)

    @pytest.mark.parametrize("gaps", [[], [0.0, 0.0]])
    def test_gap_count_must_match_the_blocks(self, gaps):
        schedule = derive_schedule([1.0], [1.0])
        with pytest.raises(ParameterError, match=f"expected 1 gaps, got {len(gaps)}"):
            lyapunov_value(schedule, 0.0, gaps)

    def test_zero_gaps_is_phi(self):
        rng = np.random.default_rng(7)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(3))
        phi = phi_value(problem, x)
        assert lyapunov_value(schedule, phi, [0.0]) == phi


class TestStationarityResidual:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        xstar = np.linalg.lstsq(A, b, rcond=None)[0]
        problem = quadratic_problem(A, b, (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, xstar)
        x_next, _, etas = sweep(problem, schedule, x, x)
        res, _ = stationarity_residual(problem, x_next, etas)
        assert res <= 1e-10

    def test_euclidean_gradient_step_value(self):
        # exact Euclidean step with g == 0 makes eta vanish identically, so
        # the residual is exactly ||grad f(x^{k+1})||
        rng = np.random.default_rng(9)
        problem = quadratic_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        x_next, _, etas = sweep(problem, schedule, x, x)
        res, _ = stationarity_residual(problem, x_next, etas)
        assert res == pytest.approx(float(np.linalg.norm(full_gradient(problem, x_next))), rel=1e-9)

    @pytest.mark.parametrize("count", [1, 3])
    def test_one_eta_per_block_is_required(self, count):
        # a missing eta would drop its block from the norm the run stops on
        rng = np.random.default_rng(11)
        problem = quadratic_problem(rng.standard_normal((7, 5)), rng.standard_normal(7), (3, 2))
        x = point(problem.shapes, rng.standard_normal(5))
        etas = [np.zeros(3), np.zeros(2), np.zeros(2)][:count]
        with pytest.raises(ValueError, match="zip"):
            stationarity_residual(problem, x, etas)

    def test_matches_independent_assembly(self):
        rng = np.random.default_rng(10)
        problem = quadratic_problem(rng.standard_normal((7, 5)), rng.standard_normal(7), (3, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.4, rho=0.8)
        x = point(problem.shapes, rng.standard_normal(5))
        xp = point(problem.shapes, rng.standard_normal(5))
        x_next, _, etas = sweep(problem, schedule, x, xp)
        res, _ = stationarity_residual(problem, x_next, etas)
        partials = [x, x.with_block(0, x_next.block(0)), x_next]
        pieces = []
        for j in range(2):
            pre, post = partials[j], partials[j + 1]
            eta = (pre.block(j) - post.block(j)) / schedule.gamma[j]
            eta = eta + (schedule.alpha[j] / schedule.gamma[j]) * (x.block(j) - xp.block(j))
            eta = eta - problem.f_block_grad(j, pre)
            pieces.append(problem.f_block_grad(j, x_next) + eta)
        assert res == pytest.approx(float(np.linalg.norm(np.concatenate(pieces))), rel=1e-12)


class TestCarriedFirstOrderData:
    """run evaluates each block gradient once per sweep and carries it to
    every use; it must reproduce the recompute-everything loop bit for bit."""

    @pytest.mark.parametrize("kappa", [0.0, 0.6])
    @pytest.mark.parametrize("m", [10, 30])
    def test_symtrinmf_matches_recompute_everything(self, m, kappa):
        X, _, _ = synth_instance(m, 3, noise_level=0.0 if m == 30 else 0.1, seed=7)
        inst = SymTriInstance(X, 3)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=0.9)
        x0 = stf.pack_factors(inst, *stf.initial_factors(inst, seed=0))
        assert_run_matches_reference(problem, schedule, x0, 300)

    def test_generic_problem_matches_recompute_everything(self):
        rng = np.random.default_rng(30)
        problem = quadratic_problem(rng.standard_normal((9, 6)), rng.standard_normal(9), (2, 3, 1))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.4, rho=0.9)
        x0 = point(problem.shapes, rng.standard_normal(6))
        assert_run_matches_reference(problem, schedule, x0, 60)

    def test_carried_gradient_reaches_block_zero(self):
        # a stale f_grad0 must change the first block's update
        rng = np.random.default_rng(32)
        problem = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (2, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        g0 = problem.f_block_grad(0, x)
        assert g0.flags.writeable
        same, _, _ = sweep_with_partials(problem, schedule, x, x, g0)
        assert not g0.flags.writeable  # the sweep used g0 itself, not a copy
        other, _, _ = sweep_with_partials(problem, schedule, x, x, g0 + 1.0)
        assert not np.array_equal(other.block(0), same.block(0))

    @pytest.mark.parametrize("name", ["f_grad"])
    def test_solver_cannot_write_into_the_carried_gradients(self, name):
        # grad_0 f is carried from the residual into the next sweep, so a
        # solver that scales it in place must fail, not corrupt it
        rng = np.random.default_rng(33)
        raw = rng.random((6, 6))
        inst = SymTriInstance(0.5 * (raw + raw.T), 2)
        problem = stf.as_block_problem(inst)
        exact = problem.g[0].solver

        def scaling_solver(problem, schedule, i, x_cur, x_prev, **first_order):
            first_order[name] *= 2.0
            return exact(problem, schedule, i, x_cur, x_prev, **first_order)

        term = dataclasses.replace(problem.g[0], solver=scaling_solver)
        problem = dataclasses.replace(problem, g=(term, problem.g[1]))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.4, rho=0.9)
        x0 = stf.pack_factors(inst, rng.random((6, 2)), rng.random((2, 2)))
        with pytest.raises(ValueError, match="read-only"):
            run(problem, schedule, x0, max_iters=2)


class TestClosedFormCertificates:
    """The solvers' subgradients and the kernels' closed-form distances
    leave the iterates alone and agree with the certificates formed from
    kernel evaluations, up to the latter's cancellation."""

    @pytest.mark.parametrize("kappa", [0.0, 0.6])
    @pytest.mark.parametrize("m, r", [(30, 3), (300, 8)])
    def test_trace_matches_kernel_formulas(self, m, r, kappa):
        X, _, _ = synth_instance(m, r, noise_level=0.0, seed=7)
        inst = SymTriInstance(X, r)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=0.9)
        x0 = stf.pack_factors(inst, *stf.initial_factors(inst, seed=0))
        # 1e-2 fires at sweep 827, 2,040 and 1,777 on three of the cases
        result = run(problem, schedule, x0, max_iters=2100, residual_tol=1e-2)
        x_final, termination, rows = kernel_formula_run(problem, schedule, x0, 2100, 1e-2)
        assert result.termination == termination and len(result.trace) == len(rows)
        for a, b in zip(result.x_final.blocks, x_final.blocks):
            assert a.tobytes() == b.tobytes()
        for got, ref in zip(result.trace, rows):
            assert got.phi == ref.phi
            assert abs(got.residual_norm - ref.residual_norm) <= 1e-6 * ref.residual_norm
            for g, h in zip(got.gaps, ref.gaps):
                assert abs(g - h) <= 1e-9 * (1.0 + abs(ref.lyapunov))
        assert audit_trace(result.trace, schedule)["passed"]
        assert audit_trace(rows, schedule)["passed"]


class TestRun:
    def test_zero_iterations(self):
        rng = np.random.default_rng(11)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = point(problem.shapes, rng.standard_normal(3))
        result = run(problem, schedule, x0, max_iters=0)
        assert result.termination == "max_iters"
        assert len(result.trace) == 1
        assert result.trace[0].k == 0
        assert result.trace[0].phi == phi_value(problem, x0)
        assert result.trace[0].lyapunov == result.trace[0].phi
        assert result.trace[0].gaps == (0.0,)

    def test_converges_to_least_squares(self):
        rng = np.random.default_rng(12)
        A = rng.standard_normal((8, 5))
        b = rng.standard_normal(8)
        xstar = np.linalg.lstsq(A, b, rcond=None)[0]  # independent oracle
        problem = quadratic_problem(A, b, (2, 3))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.3, rho=0.9)
        x0 = point(problem.shapes, np.zeros(5))
        result = run(problem, schedule, x0, max_iters=20000, residual_tol=1e-9)
        assert result.termination == "residual_tol"
        assert np.allclose(flat(result.x_final), xstar, atol=1e-8)

    def test_lyapunov_nonincreasing(self):
        rng = np.random.default_rng(13)
        problem = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (2, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.6, rho=0.9)
        x0 = point(problem.shapes, rng.standard_normal(4))
        result = run(problem, schedule, x0, max_iters=200)
        lyap = [r.lyapunov for r in result.trace]
        for prev, nxt in zip(lyap, lyap[1:]):
            assert nxt <= prev + 1e-10 * (1.0 + abs(prev))

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        A, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        x0_data = rng.standard_normal(4)
        traces = []
        for _ in range(2):
            problem = quadratic_problem(A, b, (2, 2))
            schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
            x0 = point(problem.shapes, x0_data)
            result = run(problem, schedule, x0, max_iters=100)
            traces.append([(r.k, r.phi, r.lyapunov, r.residual_norm, r.gaps) for r in result.trace])
        assert traces[0] == traces[1]

    def test_no_inertia_bitwise_reduction(self):
        rng = np.random.default_rng(15)
        A, b = rng.standard_normal((6, 4)), rng.standard_normal(6)
        problem = quadratic_problem(A, b, (2, 2))
        base = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        forced = dataclasses.replace(base, alpha=(0.0, 0.0))
        x0 = point(problem.shapes, rng.standard_normal(4))
        r1 = run(problem, base, x0, max_iters=50)
        r2 = run(problem, forced, x0, max_iters=50)
        assert np.array_equal(flat(r1.x_final), flat(r2.x_final))
        assert [(t.phi, t.lyapunov, t.gaps) for t in r1.trace] == [
            (t.phi, t.lyapunov, t.gaps) for t in r2.trace
        ]

    def test_a_stalled_run_is_its_max_iters_run(self):
        # run has no Lyapunov-stall stop: the run such a stop ended at the
        # first sweep k with |L_{k-1} - L_k| <= tol (1 + |L_{k-1}|) is the
        # run with max_iters = k, the first k sweeps of a longer run
        rng = np.random.default_rng(19)
        base = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (2, 2))
        schedule = derive_schedule(base.L, base.sigma, kappa=0.5, rho=0.9)
        x0 = point(base.shapes, rng.standard_normal(4))

        def logged(seen):  # f is evaluated last on each sweep's new iterate
            return dataclasses.replace(base, f_value=lambda x: seen.append(flat(x)) or base.f_value(x))

        long_seen, short_seen = [], []
        long = run(logged(long_seen), schedule, x0, max_iters=10000, residual_tol=0.0)
        lyap = [r.lyapunov for r in long.trace]
        k = next(k for k in range(1, len(lyap))
                 if abs(lyap[k - 1] - lyap[k]) <= 1e-6 * (1.0 + abs(lyap[k - 1])))
        assert 1 < k < 10000
        short = run(logged(short_seen), schedule, x0, max_iters=k, residual_tol=0.0)
        assert short.termination == "max_iters"
        assert trace_to_json(short.trace, with_timing=False) == trace_to_json(
            long.trace[: k + 1], with_timing=False)
        assert np.array_equal(short_seen[-1], flat(short.x_final))
        assert all(np.array_equal(a, b) for a, b in zip(short_seen, long_seen, strict=False))

    def test_infeasible_start(self):
        rng = np.random.default_rng(16)
        inst = SymTriInstance(np.eye(3), 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = BlockVector(tuple(-np.ones(s) for s in problem.shapes))
        with pytest.raises(InfeasibleError):
            run(problem, schedule, x0)

    def test_rejects_a_schedule_made_for_other_constants(self):
        rng = np.random.default_rng(17)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        x0 = point(problem.shapes, rng.standard_normal(3))
        (L,), (sigma,) = problem.L, problem.sigma
        for other_L, other_sigma in (([2.0 * L], [sigma]), ([L], [0.5 * sigma]),
                                     ([L * (1.0 + 1e-12)], [sigma]), ([L, L], [sigma, sigma])):
            with pytest.raises(ParameterError, match="schedule made for"):
                run(problem, derive_schedule(other_L, other_sigma), x0, max_iters=1)
        run(problem, derive_schedule([L], [sigma]), x0, max_iters=1)

    def test_non_finite_lyapunov_value_is_an_error(self):
        # f is finite at x0 and NaN everywhere else, so the first sweep's
        # Lyapunov value is NaN
        rng = np.random.default_rng(18)
        base = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        x0 = point(base.shapes, rng.standard_normal(3))
        problem = dataclasses.replace(
            base, f_value=lambda x: base.f_value(x) if x is x0 else math.nan)
        schedule = derive_schedule(problem.L, problem.sigma)
        with pytest.raises(ArithmeticError, match="Lyapunov value is not finite at iteration 1"):
            run(problem, schedule, x0, max_iters=5)

    def test_rejects_negative_limits(self):
        # library callers get the same checks as the CLI, before any sweep
        inst = SymTriInstance(np.eye(3), 2)
        for limits in ({"max_iters": -3}, {"residual_tol": -1e-8}, {"residual_tol": float("nan")}):
            with pytest.raises(ParameterError):
                stf.solve_instance(inst, **limits)

    @pytest.mark.parametrize("max_iters", [2.5, float("inf"), True, "3", None])
    def test_max_iters_must_be_an_integer(self, max_iters):
        # refused before any sweep, not truncated (2.5 ran 2 sweeps) or
        # converted (inf raised OverflowError from int())
        inst = SymTriInstance(np.eye(3), 2)
        with pytest.raises(ParameterError, match=f"max_iters must be an integer, got {max_iters!r}"):
            stf.solve_instance(inst, max_iters=max_iters)
        with pytest.raises(ParameterError, match="max_iters must be an integer"):
            check_run_limits(max_iters, 1e-8)

    def test_numpy_integer_max_iters_runs_its_sweeps(self):
        inst = SymTriInstance(np.eye(3), 2)
        for max_iters in (np.int64(3), np.uint8(3)):
            result, _ = stf.solve_instance(inst, max_iters=max_iters, residual_tol=0.0)
            assert [row.k for row in result.trace] == [0, 1, 2, 3]

    def test_a_trace_row_is_immutable(self):
        row = trace_rows([2])[0]
        with pytest.raises(AttributeError):
            row.phi = 0.0
        changed = row._replace(phi=0.0)
        assert changed.phi == 0.0 and changed.k == row.k and row.phi != 0.0

    def test_trace_json_schema(self):
        rng = np.random.default_rng(18)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = point(problem.shapes, rng.standard_normal(3))
        result = run(problem, schedule, x0, max_iters=5)
        rows = json.loads(trace_to_json(result.trace))
        assert len(rows) == len(result.trace)
        for row, rec in zip(rows, result.trace):
            assert sorted(row) == ["gaps", "k", "lyapunov", "phi", "residual", "seconds"]
            assert row["k"] == rec.k
            assert row["phi"] == rec.phi
            assert row["lyapunov"] == rec.lyapunov
            assert row["residual"] == rec.residual_norm
            assert row["gaps"] == list(rec.gaps)
        # byte determinism once timing is stripped
        assert trace_to_json(result.trace, with_timing=False) == trace_to_json(
            result.trace, with_timing=False
        )


def indented_trace_json(trace, with_timing=True):
    """The reference writer: one dict per row through json's indented dump."""
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


def trace_rows(gap_counts, seed=0):
    rng = np.random.default_rng(seed)
    odd = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e300, np.float64(0.1), np.float64(-7.0)]
    return [
        IterationRecord(
            k=k,
            phi=float(rng.standard_normal()),
            lyapunov=odd[k % len(odd)],
            residual_norm=np.float64(rng.random()) if k % 2 else float(rng.random()),
            gaps=tuple(float(g) for g in rng.random(n)) + ((np.float64(1e-17),) if n > 2 else ()),
            elapsed_seconds=float(rng.random()),
        )
        for k, n in enumerate(gap_counts)
    ]


class TestTraceJson:
    @pytest.mark.parametrize(
        "gap_counts",
        [[], [0], [1], [2], [0, 2, 2, 2], [0, 3, 3], [2, 2, 1, 1, 2], [0, 1, 2, 3, 0, 3]],
    )
    @pytest.mark.parametrize("with_timing", [True, False])
    def test_bytes_of_the_indented_dump(self, gap_counts, with_timing):
        trace = trace_rows(gap_counts)
        assert trace_to_json(trace, with_timing) == indented_trace_json(trace, with_timing)

    def test_runs_across_row_chunks(self, monkeypatch):
        # a change of gap count and the end of a chunk of rows, apart and together
        from bregblock import solver

        trace = trace_rows([0] + [2] * 10 + [3] * 7 + [2] * 4)
        for rows in (1, 3, 10, 11, 1024):
            monkeypatch.setattr(solver, "_TRACE_ROWS", rows)
            assert trace_to_json(trace) == indented_trace_json(trace)
        assert json.loads(trace_to_json(trace))[12]["gaps"][3] == 1e-17

    def test_a_solver_trace(self):
        inst = SymTriInstance(synth_instance(12, 2, seed=3)[0], 2)
        result, _ = stf.solve_instance(inst, max_iters=1500)
        for with_timing in (True, False):
            text = trace_to_json(result.trace, with_timing)
            assert text == indented_trace_json(result.trace, with_timing)
