import dataclasses

import numpy as np
import pytest

from bregblock import (
    BlockProblem,
    BlockVector,
    SymTriInstance,
    audit_trace,
    derive_schedule,
    fit_rate,
    nonnegative_indicator,
    run,
)
from bregblock import symtrinmf as stf
from bregblock.diagnostics import (
    finite_difference_block_grad,
    numeric_subproblem_oracle,
    verify_relative_smoothness,
)
from bregblock.io import synth_instance
from bregblock.solver import IterationRecord
from points import flat, point, squared_norm_kernel, zero_term


def quadratic_problem(A, b, dims, g=None):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    cuts = np.cumsum((0,) + tuple(dims))
    L = float(np.linalg.eigvalsh(A.T @ A)[-1])
    term = g if g is not None else zero_term()
    return BlockProblem(
        shapes=tuple((d,) for d in dims),
        f_value=lambda x: 0.5 * float(np.dot(A @ flat(x) - b, A @ flat(x) - b)),
        f_block_grad=lambda i, x: A[:, cuts[i]:cuts[i + 1]].T @ (A @ flat(x) - b),
        kernels=tuple(squared_norm_kernel(i) for i in range(len(dims))),
        L=tuple(L for _ in dims),
        g=tuple(term for _ in dims),
    )


class TestFiniteDifferences:
    def test_linear_function_exact(self):
        # the gradient comes back in the block's shape
        shapes = ((3,), (1, 2))
        c = np.array([1.0, -2.0, 0.5, 4.0, 0.0])
        x = point(shapes, np.zeros(5))
        for i in range(2):
            fd = finite_difference_block_grad(lambda v: float(np.dot(c, flat(v))), i, x)
            assert fd.shape == shapes[i]
            assert np.allclose(fd, point(shapes, c).block(i), atol=1e-9)

    def test_quadratic_at_three(self):
        x = BlockVector(([3.0],))
        fd = finite_difference_block_grad(lambda v: 0.5 * float(np.dot(flat(v), flat(v))), 0, x)
        assert fd[0] == pytest.approx(3.0, abs=1e-9)


class TestVerifyRelativeSmoothness:
    def test_euclidean_lipschitz_case(self):
        # classical descent lemma: quadratic f with L = lambda_max(A^T A)
        rng = np.random.default_rng(0)
        problem = quadratic_problem(rng.standard_normal((6, 5)), rng.standard_normal(6), (3, 2))
        report = verify_relative_smoothness(problem, samples=200, seed=1)
        assert report["violations"] == 0
        assert report["worst_slack"] <= 1e-9

    def test_negative_control_catches_halved_constant(self):
        # an indefinite data matrix makes the halved L1 bound fail on samples
        X = np.array([[0.0, 4.0], [4.0, 0.0]])
        problem = stf.as_block_problem(SymTriInstance(X, 1))
        ok = verify_relative_smoothness(problem, samples=200, seed=1)
        assert ok["violations"] == 0
        halved = dataclasses.replace(problem, L=(problem.L[0] / 2.0, problem.L[1]))
        bad = verify_relative_smoothness(halved, samples=200, seed=1)
        assert bad["violations"] >= 1

    def test_zero_violations_across_seeds(self):
        X = np.array([[0.0, 4.0], [4.0, 0.0]])
        problem = stf.as_block_problem(SymTriInstance(X, 1))
        for seed in range(1, 6):
            assert verify_relative_smoothness(problem, samples=100, seed=seed)["violations"] == 0

    def test_requires_samples(self):
        problem = stf.as_block_problem(SymTriInstance(np.eye(2), 1))
        with pytest.raises(ValueError):
            verify_relative_smoothness(problem, samples=0)


class TestNumericOracle:
    def test_projection_clamps_to_zero(self):
        # 1-d model with unconstrained minimum at -2: nonnegativity clamps to 0
        problem = BlockProblem(
            shapes=((1,),),
            f_value=lambda x: 2.0 * float(x.block(0)[0]),
            f_block_grad=lambda i, x: np.array([2.0]),
            kernels=(squared_norm_kernel(0),),
            L=(1.0,),
            g=(nonnegative_indicator(),),
        )
        schedule = derive_schedule((1.0,), (1.0,), kappa=0.0, rho=0.9)
        x = BlockVector(([0.0],))
        z = numeric_subproblem_oracle(problem, schedule, 0, x, x)
        assert z[0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_v_model(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        problem = stf.as_block_problem(inst)
        schedule = dataclasses.replace(
            derive_schedule(problem.L, problem.sigma, kappa=0.0, rho=0.9),
            gamma=(0.45, 0.9),
        )
        x = stf.pack_factors(inst, np.array([[1.0]]), np.array([[0.0]]))
        z = numeric_subproblem_oracle(problem, schedule, 1, x, x)
        assert z[0, 0] == pytest.approx(1.8, abs=1e-8)

    @pytest.mark.parametrize("i", [0, 1])
    def test_one_block_gradient_per_run(self, i):
        # the oracle's model holds grad_i f at its fixed point; its hundreds
        # of model evaluations do not evaluate it again
        inst = SymTriInstance(synth_instance(6, 2, noise_level=0.3, seed=2)[0], 2)
        problem = stf.as_block_problem(inst)
        calls = []

        def counted(j, x):
            calls.append(j)
            return problem.f_block_grad(j, x)

        counting = dataclasses.replace(problem, f_block_grad=counted)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5)
        rng = np.random.default_rng(3)
        x = stf.pack_factors(inst, rng.random((6, 2)), rng.random((2, 2)))
        x_prev = stf.pack_factors(inst, rng.random((6, 2)), rng.random((2, 2)))
        z = numeric_subproblem_oracle(counting, schedule, i, x, x_prev)
        assert calls == [i]
        assert np.array_equal(z, numeric_subproblem_oracle(problem, schedule, i, x, x_prev))

    @pytest.mark.parametrize("i", [0, 1])
    def test_projected_points_are_not_tested_against_g(self, i):
        # every point the oracle evaluates is a projection onto dom g_i
        inst = SymTriInstance(synth_instance(6, 2, noise_level=0.3, seed=2)[0], 2)
        problem = stf.as_block_problem(inst)
        tested = []
        terms = list(problem.g)
        terms[i] = dataclasses.replace(terms[i], value=lambda z: tested.append(z) or 0.0)
        counting = dataclasses.replace(problem, g=tuple(terms))
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5)
        rng = np.random.default_rng(4)
        x = stf.pack_factors(inst, rng.random((6, 2)), rng.random((2, 2)))
        x_prev = stf.pack_factors(inst, rng.random((6, 2)), rng.random((2, 2)))
        z = numeric_subproblem_oracle(counting, schedule, i, x, x_prev)
        assert tested == []
        assert np.array_equal(z, numeric_subproblem_oracle(problem, schedule, i, x, x_prev))

    def test_unprojectable_block(self):
        problem = quadratic_problem(np.eye(1), np.zeros(1), (1,),
                                    g=dataclasses.replace(zero_term(), project=None))
        schedule = derive_schedule(problem.L, problem.sigma)
        x = BlockVector(([0.0],))
        with pytest.raises(ValueError):
            numeric_subproblem_oracle(problem, schedule, 0, x, x)


def constant_record(k, value, gaps=(0.0, 0.0)):
    return IterationRecord(k=k, phi=value, lyapunov=value, residual_norm=0.0,
                           gaps=gaps, elapsed_seconds=0.0)


class TestAuditTrace:
    def test_constant_trace_passes(self):
        schedule = derive_schedule((1.0, 1.0), (2.0, 1.0), kappa=0.3, rho=0.9)
        trace = [constant_record(k, 5.0) for k in range(10)]
        report = audit_trace(trace, schedule)
        assert report["passed"] and report["first_fail_k"] is None

    def test_solver_trace_passes(self):
        X, _, _ = synth_instance(8, 2, noise_level=0.4, density=1.0, seed=2)
        inst = SymTriInstance(X, 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.6, rho=0.9)
        U0, V0 = stf.initial_factors(inst, seed=0)
        result = run(problem, schedule, stf.pack_factors(inst, U0, V0), max_iters=150)
        report = audit_trace(result.trace, schedule)
        assert report["passed"], report

    def test_adversarial_bump_fails_at_five(self):
        schedule = derive_schedule((1.0, 1.0), (2.0, 1.0), kappa=0.3, rho=0.9)
        trace = [constant_record(k, 10.0 - 0.01 * k) for k in range(12)]
        trace[5] = trace[5]._replace(lyapunov=trace[5].lyapunov + 1.0, phi=trace[5].phi + 1.0)
        report = audit_trace(trace, schedule)
        assert not report["passed"]
        assert report["first_fail_k"] == 5

    def test_doctored_solver_trace_fails(self):
        X, _, _ = synth_instance(6, 2, noise_level=0.2, density=1.0, seed=3)
        inst = SymTriInstance(X, 2)
        problem = stf.as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.3, rho=0.9)
        U0, V0 = stf.initial_factors(inst, seed=0)
        result = run(problem, schedule, stf.pack_factors(inst, U0, V0), max_iters=20)
        doctored = list(result.trace)
        rec = doctored[5]
        # large enough to exceed the natural decrease, so monotonicity flips
        bump = 1.0 + (doctored[4].lyapunov - rec.lyapunov)
        doctored[5] = rec._replace(lyapunov=rec.lyapunov + bump)
        report = audit_trace(doctored, schedule)
        assert not report["passed"]
        assert report["first_fail_k"] == 5


class TestFitRate:
    def test_exact_geometric(self):
        series = [100.0 * 0.5**k for k in range(41)] + [0.0]
        fit = fit_rate(series)
        assert fit.regime == "geometric"
        assert fit.tau == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared > 0.999

    def test_exact_power_law(self):
        series = [2.0] + [k**-2.0 for k in range(1, 61)] + [0.0]
        fit = fit_rate(series)
        assert fit.regime == "sublinear"
        assert fit.exponent == pytest.approx(-2.0, abs=1e-9)
        assert fit.r_squared > 0.999

    def test_finite_regime(self):
        series = [1.0, 0.5, 0.25] + [0.0] * 12
        assert fit_rate(series).regime == "finite"

    def test_inconclusive(self):
        series = [10.0 - 9.0 * k / 10 for k in range(10)] + [0.99**k for k in range(40)] + [0.0]
        fit = fit_rate(series)
        assert fit.regime == "inconclusive"
        assert fit.r_squared < 0.9

    def test_scale_invariance(self):
        series = [100.0 * 0.5**k for k in range(41)] + [0.0]
        base = fit_rate(series)
        scaled = fit_rate([1e6 * v for v in series])
        assert scaled.regime == base.regime
        assert abs(scaled.tau - base.tau) <= 1e-9
        assert abs(scaled.r_squared - base.r_squared) <= 1e-9

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5])
        with pytest.raises(ValueError):
            fit_rate([1.0, 2.0] + [0.0] * 10)

    def test_report_keys(self):
        series = [100.0 * 0.5**k for k in range(41)] + [0.0]
        payload = dataclasses.asdict(fit_rate(series))
        assert sorted(payload) == ["exponent", "r_squared", "regime", "tau"]
