import dataclasses
import json

import numpy as np
import pytest

from bregblock import (
    BlockProblem,
    BlockVector,
    ConfigurationError,
    InfeasibleError,
    NonsmoothBlock,
    ParameterError,
    StepSchedule,
    SymTriInstance,
    derive_schedule,
    lyapunov_value,
    model_value,
    phi_value,
    run,
    solve_block_subproblem,
    squared_norm_kernel,
    stationarity_residual,
    trace_to_json,
    validate_schedule,
    zero_term,
)
from bregblock import symtrinmf as stf
from bregblock.blocks import full_gradient
from bregblock.diagnostics import numeric_subproblem_oracle
from bregblock.solver import sweep_with_partials
from points import flat, point


def euclidean_step_solver():
    """Exact minimizer of the block model for a Euclidean kernel:
    z = x_i - gamma * grad_i f(x) + alpha * (x_i - x_prev_i)."""

    def solver(problem, schedule, i, x_cur, x_prev):
        ga, al = schedule.gamma[i], schedule.alpha[i]
        xi = x_cur.block(i)
        return xi - ga * problem.f_block_grad(i, x_cur) + al * (xi - x_prev.block(i))

    return solver


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
        kernels=tuple(squared_norm_kernel() for _ in dims),
        L=tuple(L for _ in dims),
        g=tuple(term for _ in dims),
    )


class TestDeriveSchedule:
    def test_single_block_with_inertia(self):
        s = derive_schedule([1.0], [2.0], kappa=0.5, rho=0.9)
        assert s.alpha[0] == pytest.approx(0.5, abs=0.0)
        assert s.gamma[0] == pytest.approx(0.9 * (2.0 - 1.0) / 2.0, abs=0.0)  # 0.45
        assert s.a[0] > 0 and s.b[0] > 0
        validate_schedule(s, [1.0], [2.0])

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
        validate_schedule(s, [1.0, 1.0], [2.0, 1.0])

    def test_midpoint_balances_coefficients(self):
        for kappa in (0.0, 0.3, 0.7):
            for rho in (0.5, 0.9):
                s = derive_schedule([2.0, 0.5], [1.0, 3.0], kappa=kappa, rho=rho)
                validate_schedule(s, [2.0, 0.5], [1.0, 3.0])
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
            {"a": (good.a[0] + 0.1,)},       # inconsistent with the definition
        ):
            with pytest.raises(ParameterError):
                validate_schedule(dataclasses.replace(good, **patch), [1.0], [2.0])

    def test_schedule_field_validation(self):
        with pytest.raises(ParameterError):
            StepSchedule((0.0,), (0.0,), (0.0,), (0.0,), (0.0,))
        with pytest.raises(ParameterError):
            StepSchedule((1.0,), (0.0, 0.0), (0.0,), (0.0,), (0.0,))


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
        z = solve_block_subproblem(problem, schedule, 0, x, xp)
        ga, al = schedule.gamma[0], schedule.alpha[0]
        expected = flat(x) - ga * problem.f_block_grad(0, x) + al * (flat(x) - flat(xp))
        assert np.array_equal(z, expected)

    def test_no_solver_no_projection(self):
        # run() needs an exact solver on every block and says so before
        # the first sweep; a projection alone is not enough
        exact = dataclasses.replace(zero_term(), solver=euclidean_step_solver())
        for bare in (NonsmoothBlock(value=lambda z: 0.0), zero_term()):
            problem = BlockProblem(
                shapes=((2,), (2, 2)),
                f_value=lambda x: 0.0,
                f_block_grad=lambda i, x: np.zeros_like(x.block(i)),
                kernels=(squared_norm_kernel(), squared_norm_kernel()),
                L=(1.0, 1.0),
                g=(exact, bare),
            )
            schedule = derive_schedule((1.0, 1.0), (1.0, 1.0))
            x = BlockVector((np.zeros(2), np.zeros((2, 2))))
            with pytest.raises(ConfigurationError, match="block 1"):
                run(problem, schedule, x)

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
                z = solve_block_subproblem(problem, schedule, i, x, xp)
                ga, al = schedule.gamma[i], schedule.alpha[i]
                m_new = model_value(problem, ga, al, i, x, xp, z)
                m_old = model_value(problem, ga, al, i, x, xp, x.block(i))
                assert m_new <= m_old + 1e-12


class TestSweep:
    def test_single_block_is_gradient_descent(self):
        rng = np.random.default_rng(3)
        problem = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        x_next, gaps, _ = sweep_with_partials(problem, schedule, x, x)
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
        x_next, gaps, _ = sweep_with_partials(problem, schedule, x, x)
        assert np.allclose(flat(x_next), xstar, atol=1e-12)
        # the three-term Bregman formula carries an absolute cancellation
        # floor of about eps * |h|, so "zero" means 1e-14 here
        assert max(gaps) <= 1e-14

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
        x_next, _, _ = sweep_with_partials(problem, schedule, x, xp)
        U_direct = stf.update_U(inst, schedule.gamma[0], schedule.alpha[0], U_k, U_p, V_k)
        V_direct = stf.update_V(inst, schedule.gamma[1], schedule.alpha[1], U_direct, V_k, V_p)
        assert np.array_equal(x_next.block(0), U_direct)
        assert np.array_equal(x_next.block(1), V_direct)


class TestLyapunov:
    def test_zero_delta_is_phi(self):
        rng = np.random.default_rng(6)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = StepSchedule((0.5,), (0.0,), (0.0,), (0.1,), (0.0,))
        x = point(problem.shapes, rng.standard_normal(3))
        assert lyapunov_value(problem, schedule, x, [3.7]) == pytest.approx(
            phi_value(problem, x), rel=1e-15
        )

    def test_zero_gaps_is_phi(self):
        rng = np.random.default_rng(7)
        problem = quadratic_problem(rng.standard_normal((4, 3)), rng.standard_normal(4), (3,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(3))
        assert lyapunov_value(problem, schedule, x, [0.0]) == phi_value(problem, x)


class TestStationarityResidual:
    def test_zero_at_stationary_point(self):
        rng = np.random.default_rng(8)
        A = rng.standard_normal((6, 4))
        b = rng.standard_normal(6)
        xstar = np.linalg.lstsq(A, b, rcond=None)[0]
        problem = quadratic_problem(A, b, (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, xstar)
        x_next, gaps, partials = sweep_with_partials(problem, schedule, x, x)
        res = stationarity_residual(problem, schedule, partials, x, x, x_next)
        assert res <= 1e-10

    def test_euclidean_gradient_step_value(self):
        # exact Euclidean step with g == 0 makes eta vanish identically, so
        # the residual is exactly ||grad f(x^{k+1})||
        rng = np.random.default_rng(9)
        problem = quadratic_problem(rng.standard_normal((5, 4)), rng.standard_normal(5), (4,))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x = point(problem.shapes, rng.standard_normal(4))
        x_next, gaps, partials = sweep_with_partials(problem, schedule, x, x)
        res = stationarity_residual(problem, schedule, partials, x, x, x_next)
        assert res == pytest.approx(float(np.linalg.norm(full_gradient(problem, x_next))), rel=1e-9)

    def test_matches_independent_assembly(self):
        rng = np.random.default_rng(10)
        problem = quadratic_problem(rng.standard_normal((7, 5)), rng.standard_normal(7), (3, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.4, rho=0.8)
        x = point(problem.shapes, rng.standard_normal(5))
        xp = point(problem.shapes, rng.standard_normal(5))
        x_next, gaps, partials = sweep_with_partials(problem, schedule, x, xp)
        res = stationarity_residual(problem, schedule, partials, x, xp, x_next)
        pieces = []
        for j in range(2):
            pre, post = partials[j], partials[j + 1]
            eta = (pre.block(j) - post.block(j)) / schedule.gamma[j]
            eta = eta + (schedule.alpha[j] / schedule.gamma[j]) * (x.block(j) - xp.block(j))
            eta = eta - problem.f_block_grad(j, pre)
            pieces.append(problem.f_block_grad(j, x_next) + eta)
        assert res == pytest.approx(float(np.linalg.norm(np.concatenate(pieces))), rel=1e-12)


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

    def test_stall_termination(self):
        rng = np.random.default_rng(19)
        problem = quadratic_problem(rng.standard_normal((6, 4)), rng.standard_normal(6), (2, 2))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9)
        x0 = point(problem.shapes, rng.standard_normal(4))
        result = run(problem, schedule, x0, max_iters=10000, residual_tol=0.0, stall_tol=1e-6)
        assert result.termination == "lyapunov_stall"
        last, prev = result.trace[-1].lyapunov, result.trace[-2].lyapunov
        assert abs(prev - last) <= 1e-6 * (1.0 + abs(prev))

    def test_infeasible_start(self):
        rng = np.random.default_rng(16)
        inst = SymTriInstance(np.eye(3), 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma)
        x0 = BlockVector(tuple(-np.ones(s) for s in problem.shapes))
        with pytest.raises(InfeasibleError):
            run(problem, schedule, x0)

    def test_rejects_negative_limits(self):
        # library callers get the same checks as the CLI, before any sweep
        inst = SymTriInstance(np.eye(3), 2)
        for limits in ({"max_iters": -3}, {"residual_tol": -1e-8}, {"stall_tol": -1.0},
                       {"residual_tol": float("nan")}):
            with pytest.raises(ParameterError):
                stf.solve_instance(inst, **limits)

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
