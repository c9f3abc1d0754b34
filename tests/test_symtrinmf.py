import numpy as np
import pytest

from bregblock import (
    ParameterError,
    SymTriInstance,
    as_block_problem,
    community_assignment,
    cubic_positive_root,
    derive_schedule,
    f_value,
    grad_U,
    grad_V,
    initial_factors,
    model_value,
    phi_value,
    run,
    update_U,
    update_V,
)
from bregblock import symtrinmf as stf
from bregblock.diagnostics import (
    finite_difference_block_grad,
    numeric_subproblem_oracle,
    verify_relative_smoothness,
)
from bregblock.io import synth_instance
from bregblock.symtrinmf import (
    FactorPair,
    kernel_h1_grad,
    kernel_h1_value,
    kernel_h2_grad,
    kernel_h2_value,
    relative_error,
)


def random_instance(seed, m=4, r=2):
    rng = np.random.default_rng(seed)
    raw = rng.random((m, m))
    return SymTriInstance(0.5 * (raw + raw.T), r), rng


def rel_err(a, b):
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-12)


def bisect_cubic(tau1, tau2, iters=200):
    lo = max(tau1, tau2 ** (1.0 / 3.0))
    hi = tau1 + tau2 ** (1.0 / 3.0) + 1e-12
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid * mid * (mid - tau1) - tau2 > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestInstance:
    def test_derived_constants_defaults(self):
        inst = SymTriInstance(np.eye(3), 2)
        assert inst.L1 == 1.0 and inst.L2 == 1.0
        assert inst.sigma1 == 2.0 and inst.sigma2 == 1.0
        assert inst.norm_X == pytest.approx(np.sqrt(3.0))

    def test_derived_constants_custom(self):
        inst = SymTriInstance(np.eye(2), 1, a1=3.0, b1=0.5, a2=4.0, eps1=2.0, eps2=0.5)
        assert inst.L1 == max(6.0 / 3.0, 2.0 / 0.5)  # = 4
        assert inst.L2 == 0.25
        assert inst.sigma1 == 0.5 * 2.0
        assert inst.sigma2 == 4.0 * 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        X = np.eye(3)
        X[0, 1] = X[1, 0] = bad
        with pytest.raises(ParameterError, match="NaN or infinite"):
            SymTriInstance(X, 2)

    def test_accepts_huge_finite(self):
        # ||X|| overflows to inf here, but every entry is finite
        with np.errstate(over="ignore"):
            inst = SymTriInstance(np.eye(3) * 1e200, 2)
        assert np.isfinite(inst.X).all()

    def test_validation(self):
        with pytest.raises(ParameterError):
            SymTriInstance(np.zeros((2, 3)), 1)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 0)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 3)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 1, a1=-1.0)

    def test_asymmetric_warns_and_symmetrizes(self):
        X = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.warns(UserWarning):
            kept = SymTriInstance(X, 1)
        assert np.array_equal(kept.X, X)  # accepted as-is
        with pytest.warns(UserWarning):
            fixed = SymTriInstance(X, 1, symmetrize=True)
        assert np.array_equal(fixed.X, 0.5 * (X + X.T))
        assert np.linalg.norm(fixed.X - fixed.X.T) <= 1e-12 * np.linalg.norm(fixed.X)

    def test_factor_pair_validation(self):
        FactorPair(np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ParameterError):
            FactorPair(-np.ones((3, 2)), np.ones((2, 2)))
        with pytest.raises(ParameterError):
            FactorPair(np.ones((3, 2)), np.ones((3, 3)))


class TestObjective:
    def test_zero_data_zero_factor(self):
        inst = SymTriInstance(np.zeros((2, 2)), 1)
        assert f_value(inst, np.zeros((2, 1)), np.array([[5.0]])) == 0.0

    def test_exact_factorization(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        assert f_value(inst, np.array([[1.0]]), np.array([[4.0]])) == 0.0

    def test_scalar_misfit(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        assert f_value(inst, np.array([[1.0]]), np.array([[0.0]])) == 8.0

    def test_shape_mismatch(self):
        # shapes are checked where factors enter: pack_factors, relative_error
        inst = SymTriInstance(np.eye(3), 2)
        for check in (stf.pack_factors, relative_error):
            with pytest.raises(ParameterError):
                check(inst, np.ones((3, 3)), np.ones((2, 2)))
            with pytest.raises(ParameterError):
                check(inst, np.ones((3, 2)), np.ones((3, 3)))


class TestGradients:
    def test_grad_u_vanishes_without_v(self):
        inst, rng = random_instance(0)
        U = rng.random((4, 2))
        assert np.array_equal(grad_U(inst, U, np.zeros((2, 2))), np.zeros((4, 2)))

    def test_grad_u_scalar(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        g = grad_U(inst, np.array([[1.0]]), np.array([[1.0]]))
        assert g[0, 0] == pytest.approx(-6.0, abs=0.0)  # -4 - 4 + 1 + 1

    def test_grad_v_vanishes_without_u(self):
        inst, rng = random_instance(1)
        V = rng.random((2, 2))
        assert np.array_equal(grad_V(inst, np.zeros((4, 2)), V), np.zeros((2, 2)))

    def test_grad_v_scalar_sign(self):
        # the oracle-certified sign: grad_V = U^T(U V U^T - X)U, so at
        # X=4, U=1, V=0 the value is -4 (a +4 here would reject descent)
        inst = SymTriInstance(np.array([[4.0]]), 1)
        g = grad_V(inst, np.array([[1.0]]), np.array([[0.0]]))
        assert g[0, 0] == pytest.approx(-4.0, abs=0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_grad_u_finite_differences(self, seed):
        inst, rng = random_instance(seed)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        fd = finite_difference_block_grad(problem.f_value, 0, x, step=1e-5)
        assert rel_err(grad_U(inst, U, V), fd) <= 1e-6

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_grad_v_finite_differences(self, seed):
        inst, rng = random_instance(seed)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        fd = finite_difference_block_grad(problem.f_value, 1, x, step=1e-5)
        assert rel_err(grad_V(inst, U, V), fd) <= 1e-6

    def test_gradients_exact_for_asymmetric_data(self):
        rng = np.random.default_rng(6)
        with pytest.warns(UserWarning):
            inst = SymTriInstance(rng.random((4, 4)), 2)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        for i, grad in enumerate((grad_U(inst, U, V), grad_V(inst, U, V))):
            fd = finite_difference_block_grad(problem.f_value, i, x, step=1e-5)
            assert rel_err(grad, fd) <= 1e-6


class TestKernels:
    def test_h1_example_values(self):
        inst = SymTriInstance(np.zeros((1, 1)), 1)  # a1=6, b1=2, eps1=1, X=0
        U, V = np.array([[1.0]]), np.array([[1.0]])
        assert kernel_h1_value(inst, U, V) == pytest.approx(2.5, abs=0.0)
        assert kernel_h1_grad(inst, U, V)[0, 0] == pytest.approx(8.0, abs=0.0)
        assert kernel_h1_value(inst, np.zeros((1, 1)), V) == 0.0
        assert np.array_equal(kernel_h1_grad(inst, np.zeros((1, 1)), V), np.zeros((1, 1)))

    def test_h2_example_values(self):
        inst = SymTriInstance(np.zeros((1, 1)), 1)  # a2=1, eps2=1
        U, V = np.array([[1.0]]), np.array([[3.0]])
        assert kernel_h2_value(inst, U, V) == pytest.approx(9.0, abs=0.0)
        assert kernel_h2_grad(inst, U, V)[0, 0] == pytest.approx(6.0, abs=0.0)
        assert kernel_h2_value(inst, U, np.zeros((1, 1))) == 0.0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_kernel_grads_finite_differences(self, seed):
        inst, rng = random_instance(seed, m=3, r=2)
        problem = as_block_problem(inst)
        x = stf.pack_factors(inst, rng.random((3, 2)), rng.random((2, 2)))
        for i, kern in enumerate(problem.kernels):
            fd = finite_difference_block_grad(kern.value, i, x, step=1e-5)
            assert rel_err(np.asarray(kern.block_grad(i, x)), fd) <= 1e-6

    def test_block_strong_convexity_moduli(self):
        inst, rng = random_instance(11, m=3, r=2)
        for _ in range(50):
            V = rng.random((2, 2)) * rng.choice([0.1, 1.0, 10.0])
            U, Up = rng.random((3, 2)), rng.random((3, 2))
            lhs = float(np.vdot(kernel_h1_grad(inst, U, V) - kernel_h1_grad(inst, Up, V), U - Up))
            assert lhs >= inst.sigma1 * float(np.vdot(U - Up, U - Up)) * (1 - 1e-9)
            Uf = rng.random((3, 2))
            V1, V2 = rng.random((2, 2)), rng.random((2, 2))
            lhs = float(np.vdot(kernel_h2_grad(inst, Uf, V1) - kernel_h2_grad(inst, Uf, V2), V1 - V2))
            assert lhs >= inst.sigma2 * float(np.vdot(V1 - V2, V1 - V2)) * (1 - 1e-9)


class TestCubicRoot:
    def test_zero_constant_term(self):
        assert cubic_positive_root(2.0, 0.0) == pytest.approx(2.0, rel=1e-15)

    def test_pure_cube_root(self):
        assert cubic_positive_root(0.0, 8.0) == pytest.approx(2.0, rel=1e-15)

    def test_against_bisection(self):
        t = cubic_positive_root(1.0, 2.0)
        assert t == pytest.approx(bisect_cubic(1.0, 2.0), rel=1e-12)
        assert t == pytest.approx(1.695620769, abs=1e-9)

    def test_residual_over_random_range(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            t1, t2 = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), size=2))
            t = cubic_positive_root(t1, t2)
            assert abs(t * t * (t - t1) - t2) <= 1e-10 * max(1.0, t1**3, t2)

    def test_degenerate_and_negative(self):
        with pytest.raises(ParameterError):
            cubic_positive_root(0.0, 0.0)
        with pytest.raises(ParameterError):
            cubic_positive_root(-1.0, 1.0)


class TestUpdateU:
    def test_fixed_point_without_data(self):
        # X=0 and V=0 reduce the model to the Bregman term, minimized at U_k
        inst = SymTriInstance(np.zeros((1, 1)), 1)
        U = np.array([[1.0]])
        out = update_U(inst, 0.45, 0.0, U, U, np.zeros((1, 1)))
        assert np.array_equal(out, U)

    def test_clamp_kills_nonpositive_scores(self):
        # U_k = 0 with inertia pulling negative makes the clamped score zero
        inst = SymTriInstance(np.zeros((2, 2)), 1)
        out = update_U(inst, 0.4, 0.3, np.zeros((2, 1)), np.ones((2, 1)), np.ones((1, 1)))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_scale_consistency_identity(self):
        for seed in range(10):
            inst, r = random_instance(seed, m=5, r=2)
            U_k, U_p = r.random((5, 2)), r.random((5, 2))
            V_k = r.random((2, 2))
            out = update_U(inst, 0.45, 0.2, U_k, U_p, V_k)
            score = kernel_h1_grad(inst, U_k, V_k) - 0.45 * grad_U(inst, U_k, V_k)
            score += 0.2 * (U_k - U_p)
            clamped = np.maximum(score, 0.0)
            v2 = float(np.vdot(V_k, V_k))
            tau1 = inst.b1 * (inst.norm_X * np.sqrt(v2) + inst.eps1)
            t = cubic_positive_root(tau1, inst.a1 * v2 * float(np.vdot(clamped, clamped)))
            t_implied = inst.a1 * float(np.vdot(out, out)) * v2 + tau1
            assert abs(t - t_implied) <= 1e-8 * max(1.0, abs(t))

    def test_matches_numeric_oracle(self):
        for seed in range(1, 8):
            inst, rng = random_instance(seed, m=5, r=2)
            problem = as_block_problem(inst)
            sched = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
            x = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            xp = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            closed = problem.g[0].solver(problem, sched, 0, x, xp)
            oracle = numeric_subproblem_oracle(problem, sched, 0, x, xp)
            mc = model_value(problem, sched.gamma[0], sched.alpha[0], 0, x, xp, closed)
            mo = model_value(problem, sched.gamma[0], sched.alpha[0], 0, x, xp, oracle)
            assert mc <= mo + 1e-8
            assert abs(mc - mo) <= 1e-8


class TestUpdateV:
    def test_fixed_point_without_gradient(self):
        inst = SymTriInstance(np.zeros((2, 2)), 1)
        V = np.array([[0.7]])
        out = update_V(inst, 0.45, 0.0, np.zeros((2, 1)), V, V)
        assert np.array_equal(out, V)

    def test_scalar_model_minimizer(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        out = update_V(inst, 0.9, 0.0, np.array([[1.0]]), np.zeros((1, 1)), np.zeros((1, 1)))
        assert out[0, 0] == pytest.approx(1.8, rel=1e-15)

    def test_matches_numeric_oracle(self):
        for seed in range(8, 15):
            inst, rng = random_instance(seed, m=5, r=2)
            problem = as_block_problem(inst)
            sched = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
            x = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            xp = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            closed = problem.g[1].solver(problem, sched, 1, x, xp)
            oracle = numeric_subproblem_oracle(problem, sched, 1, x, xp)
            mc = model_value(problem, sched.gamma[1], sched.alpha[1], 1, x, xp, closed)
            mo = model_value(problem, sched.gamma[1], sched.alpha[1], 1, x, xp, oracle)
            assert mc <= mo + 1e-8
            assert abs(mc - mo) <= 1e-8


class TestBlockProblemBinding:
    def test_phi_equals_f_on_feasible_points(self):
        inst, rng = random_instance(16)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        assert phi_value(problem, x) == f_value(inst, U, V)

    def test_engine_reproduces_direct_alternation(self):
        X, _, _ = synth_instance(6, 2, noise_level=0.3, density=1.0, seed=3)
        inst = SymTriInstance(X, 2)
        problem = as_block_problem(inst)
        sched = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
        U0, V0 = initial_factors(inst, seed=4)
        x0 = stf.pack_factors(inst, U0, V0)
        result = run(problem, sched, x0, max_iters=10)

        U, V = U0, V0
        U_prev, V_prev = U0, V0
        phis = [f_value(inst, U, V)]
        for _ in range(10):
            U_next = update_U(inst, sched.gamma[0], sched.alpha[0], U, U_prev, V)
            V_next = update_V(inst, sched.gamma[1], sched.alpha[1], U_next, V, V_prev)
            U_prev, V_prev = U, V
            U, V = U_next, V_next
            phis.append(f_value(inst, U, V))
        assert [r.phi for r in result.trace] == phis
        assert np.array_equal(result.x_final.block(0), U)
        assert np.array_equal(result.x_final.block(1), V)

    def test_residual_tiny_at_planted_solution(self):
        X, U_star, V_star = synth_instance(8, 2, noise_level=0.0, density=1.0, seed=5)
        inst = SymTriInstance(X, 2)
        assert f_value(inst, U_star, V_star) == 0.0
        result, factors = stf.solve_instance(
            inst, kappa=0.0, max_iters=1, x0=stf.pack_factors(inst, U_star, V_star)
        )
        assert result.trace[-1].residual_norm <= 1e-8

    def test_nonnegativity_preserved_exactly(self):
        X, _, _ = synth_instance(6, 2, noise_level=0.5, density=0.7, seed=6)
        inst = SymTriInstance(X, 2)
        result, factors = stf.solve_instance(inst, kappa=0.6, seed=1, max_iters=50)
        assert (factors.U >= 0).all() and (factors.V >= 0).all()
        assert all((b >= 0).all() for b in result.x_final.blocks)


class TestRelativeSmoothness:
    def test_default_constants_certify(self):
        inst, _ = random_instance(17, m=3, r=2)
        problem = as_block_problem(inst)
        report = verify_relative_smoothness(problem, samples=200, seed=0)
        assert report["violations"] == 0


class TestCommunityAssignment:
    def test_indicator_matrix(self):
        U = np.zeros((4, 3))
        for j, c in enumerate([2, 0, 1, 2]):
            U[j, c] = 1.0
        assert community_assignment(U).tolist() == [2, 0, 1, 2]

    def test_zero_row_unassigned(self):
        U = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert community_assignment(U).tolist() == [-1, 0]

    def test_tie_breaks_low(self):
        U = np.array([[0.5, 0.5, 0.2]])
        assert community_assignment(U).tolist() == [0]

    def test_rejects_negative(self):
        with pytest.raises(ParameterError):
            community_assignment(np.array([[-1.0, 0.0]]))


class TestInitialFactors:
    def test_product_norm_matches_data(self):
        inst, _ = random_instance(18, m=6, r=3)
        U0, V0 = initial_factors(inst, seed=0)
        assert np.linalg.norm(U0 @ V0 @ U0.T) == pytest.approx(inst.norm_X, rel=1e-10)
        U1, V1 = initial_factors(inst, seed=0)
        assert np.array_equal(U0, U1) and np.array_equal(V0, V1)

    def test_zero_data_safe(self):
        inst = SymTriInstance(np.zeros((3, 3)), 2)
        U0, V0 = initial_factors(inst, seed=1)
        assert np.isfinite(U0).all() and np.isfinite(V0).all()

    def test_relative_error_helper(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        assert relative_error(inst, np.array([[1.0]]), np.array([[4.0]])) == 0.0
        assert relative_error(inst, np.array([[1.0]]), np.array([[0.0]])) == 1.0
