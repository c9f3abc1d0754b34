import inspect
import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bregblock import (
    BlockVector,
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
from bregblock.solver import full_gradient, sweep_with_partials
from bregblock.symtrinmf import (
    kernel_h1_distance,
    kernel_h1_grad,
    kernel_h1_value,
    kernel_h2_distance,
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
        inst = SymTriInstance(np.eye(2), 1, a1=3.0, eps1=2.0, eps2=0.5)
        assert inst.L1 == 6.0 / 3.0
        assert inst.L2 == 1.0
        assert inst.sigma1 == 2.0 * 2.0
        assert inst.sigma2 == 0.5
        assert SymTriInstance(np.eye(2), 1, a1=12.0).L1 == 1.0  # max(6/a1, 1)

    @pytest.mark.parametrize("gone", ["b1", "a2"])
    def test_kernel_constants_b1_and_a2_are_not_parameters(self, gone):
        with pytest.raises(TypeError, match=gone):
            SymTriInstance(np.eye(2), 1, **{gone: 2.0})
        with pytest.raises(TypeError, match=gone):
            stf.check_kernel_parameters(**dict(a1=6.0, eps1=1.0, eps2=1.0), **{gone: 2.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        X = np.eye(3)
        X[0, 1] = X[1, 0] = bad
        with pytest.raises(ParameterError, match="NaN or infinite"):
            SymTriInstance(X, 2)

    def test_huge_x_accepted_until_its_norm_overflows(self):
        inst = SymTriInstance(np.eye(3) * 1e150, 2)
        assert np.isfinite(inst.X).all() and inst.norm_X == pytest.approx(np.sqrt(3.0) * 1e150)
        # every entry is finite, but ||X|| overflows to inf, and with it the
        # objective and initial_factors' V0 = (||X|| / ||U0 U0^T||) I
        X, _, _ = synth_instance(30, 3, seed=7)
        with np.errstate(over="ignore"):
            for huge in (np.eye(3) * 1e200, X * 1e200):
                with pytest.raises(ParameterError, match="X must be rescaled"):
                    SymTriInstance(huge, 2)

    def test_validation(self):
        with pytest.raises(ParameterError):
            SymTriInstance(np.zeros((2, 3)), 1)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 0)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 3)
        with pytest.raises(ParameterError):
            SymTriInstance(np.eye(2), 1, a1=-1.0)

    @pytest.mark.parametrize("params,named", [
        (dict(a1=np.inf), "a1 must be finite"),
        (dict(eps1=np.inf), "eps1 must be finite"),
        (dict(eps2=np.inf), "eps2 must be finite"),
        (dict(eps1=np.nan), "eps1 must be positive"),
        (dict(eps2=-1.0), "eps2 must be positive"),
        (dict(a1=1e-320), "6/a1 must be finite and positive"),
        (dict(eps1=1e308), "2\\*eps1 must be finite and positive"),
    ])
    def test_rejects_kernel_parameters_with_non_finite_constants(self, params, named):
        with pytest.raises(ParameterError, match=named):
            SymTriInstance(np.eye(2), 1, **params)
        with pytest.raises(ParameterError, match=named):
            stf.check_kernel_parameters(**{**dict(a1=6.0, eps1=1.0, eps2=1.0), **params})

    def test_kernel_constants_come_from_the_parameter_check(self):
        params = dict(a1=0.3, eps1=0.013, eps2=41.0)
        inst = SymTriInstance(np.eye(2), 1, **params)
        assert (inst.L1, inst.L2, inst.sigma1, inst.sigma2) == stf.check_kernel_parameters(**params)
        assert (inst.L1, inst.L2, inst.sigma1, inst.sigma2) == (6.0 / 0.3, 1.0, 2.0 * 0.013, 41.0)

    def test_asymmetric_x_is_refused_naming_the_remedy(self):
        X = np.array([[1.0, 2.0], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused, with no warning first
            with pytest.raises(ParameterError) as refused:
                SymTriInstance(X, 1)
        assert str(refused.value) == ("X is not symmetric; pass (X + X^T)/2 (--symmetrize to "
                                      "bregblock solve or check)")
        assert "symmetrize" not in inspect.signature(SymTriInstance).parameters
        assert "symmetric" not in {f.name for f in fields(SymTriInstance)}

    @pytest.mark.parametrize("r", [2.5, "3", True, 2.0, None])
    def test_rank_must_be_an_integer(self, r):
        # refused where it enters, not truncated or converted
        with pytest.raises(ParameterError, match=f"r must be an integer, got {r!r}"):
            SymTriInstance(np.eye(3), r)

    def test_numpy_integer_rank_is_a_python_int(self):
        for r in (np.int64(2), np.uint8(2), np.array(2)):
            inst = SymTriInstance(np.eye(3), r)
            assert inst.r == 2 and type(inst.r) is int

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e-170])
    def test_asymmetry_is_seen_at_any_scale(self, scale):
        # symmetric means X == X^T entry for entry: at 1e-150 a relative
        # bound on ||X - X^T|| sat under its 1e-30 floor, and at 1e-170 the
        # squares underflow, so ||X - X^T|| is 0; one asymmetric entry is enough
        X = np.random.default_rng(24).random((6, 6))
        X = 0.5 * (X + X.T) * scale
        SymTriInstance(X, 2)
        X[4, 1] *= 2.0
        with pytest.raises(ParameterError, match=r"pass \(X \+ X\^T\)/2 \(--symmetrize"):
            SymTriInstance(X, 2)

    def test_one_ulp_of_asymmetry_is_refused(self):
        X, _, _ = synth_instance(8, 2, noise_level=0.1, seed=3)
        X[0, 1] = np.nextafter(X[0, 1], np.inf)
        with pytest.raises(ParameterError, match="X is not symmetric"):
            SymTriInstance(X, 2)

    def test_exactly_symmetric_x_is_kept_bitwise_without_warning(self):
        X, _, _ = synth_instance(8, 2, noise_level=0.1, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = SymTriInstance(X, 2)
        assert inst.X.tobytes() == X.tobytes()


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
        fd = finite_difference_block_grad(problem.f_value, 0, x)
        assert rel_err(grad_U(inst, U, V), fd) <= 1e-6

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_grad_v_finite_differences(self, seed):
        inst, rng = random_instance(seed)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        x = stf.pack_factors(inst, U, V)
        fd = finite_difference_block_grad(problem.f_value, 1, x)
        assert rel_err(grad_V(inst, U, V), fd) <= 1e-6

    def test_gradients_exact_for_asymmetric_v(self):
        # X is symmetric and V is not: grad_U's X U V^T and X U V differ
        inst, rng = random_instance(6)
        problem = as_block_problem(inst)
        U, V = rng.random((4, 2)), np.array([[1.0, 3.0], [0.0, 2.0]])
        x = stf.pack_factors(inst, U, V)
        for i, grad in enumerate((grad_U(inst, U, V), grad_V(inst, U, V))):
            fd = finite_difference_block_grad(problem.f_value, i, x)
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
            fd = finite_difference_block_grad(kern.value, i, x)
            assert rel_err(np.asarray(kern.block_grad(x)), fd) <= 1e-6

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

    @pytest.mark.parametrize("tau1, tau2", [(9.4e52, 2.6e161), (9.4e102, math.inf), (1e103, 1.0)])
    def test_overflow_is_an_accurate_error(self, tau1, tau2):
        # tau2^2 overflows to a NaN root; tau1 ** 3 raises; tau2 is already inf
        with pytest.raises(OverflowError, match="cubic .* overflows .* X must be rescaled"):
            cubic_positive_root(tau1, tau2)

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
        V = np.zeros((1, 1))
        out, _ = update_U(inst, 0.45, 0.0, U, U, V, f_grad=grad_U(inst, U, V))
        assert np.array_equal(out, U)

    def test_clamp_kills_nonpositive_scores(self):
        # U_k = 0 with inertia pulling negative makes the clamped score zero
        inst = SymTriInstance(np.zeros((2, 2)), 1)
        U, V = np.zeros((2, 1)), np.ones((1, 1))
        out, _ = update_U(inst, 0.4, 0.3, U, np.ones((2, 1)), V, f_grad=grad_U(inst, U, V))
        assert np.array_equal(out, np.zeros((2, 1)))

    def test_scale_consistency_identity(self):
        for seed in range(10):
            inst, r = random_instance(seed, m=5, r=2)
            U_k, U_p = r.random((5, 2)), r.random((5, 2))
            V_k = r.random((2, 2))
            out, _ = update_U(inst, 0.45, 0.2, U_k, U_p, V_k, f_grad=grad_U(inst, U_k, V_k))
            score = kernel_h1_grad(inst, U_k, V_k) - 0.45 * grad_U(inst, U_k, V_k)
            score += 0.2 * (U_k - U_p)
            clamped = np.maximum(score, 0.0)
            v2 = float(np.vdot(V_k, V_k))
            tau1 = 2.0 * (inst.norm_X * np.sqrt(v2) + inst.eps1)
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
            gf = problem.f_block_grad(0, x)
            closed, _ = problem.g[0].solver(problem, sched, 0, x, xp, f_grad=gf)
            oracle = numeric_subproblem_oracle(problem, sched, 0, x, xp)
            ga, al = sched.gamma[0], sched.alpha[0]
            mc = model_value(problem, ga, al, 0, x, xp, closed, f_grad=gf)
            mo = model_value(problem, ga, al, 0, x, xp, oracle, f_grad=gf)
            assert mc <= mo + 1e-8
            assert abs(mc - mo) <= 1e-8


class TestUpdateV:
    def test_fixed_point_without_gradient(self):
        inst = SymTriInstance(np.zeros((2, 2)), 1)
        V = np.array([[0.7]])
        U = np.zeros((2, 1))
        out, _ = update_V(inst, 0.45, 0.0, U, V, V, f_grad=grad_V(inst, U, V))
        assert np.array_equal(out, V)

    def test_scalar_model_minimizer(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        U, V = np.array([[1.0]]), np.zeros((1, 1))
        out, _ = update_V(inst, 0.9, 0.0, U, V, V, f_grad=grad_V(inst, U, V))
        assert out[0, 0] == pytest.approx(1.8, rel=1e-15)

    def test_matches_numeric_oracle(self):
        for seed in range(8, 15):
            inst, rng = random_instance(seed, m=5, r=2)
            problem = as_block_problem(inst)
            sched = derive_schedule(problem.L, problem.sigma, kappa=0.5, rho=0.9)
            x = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            xp = stf.pack_factors(inst, rng.random((5, 2)), rng.random((2, 2)))
            gf = problem.f_block_grad(1, x)
            closed, _ = problem.g[1].solver(problem, sched, 1, x, xp, f_grad=gf)
            oracle = numeric_subproblem_oracle(problem, sched, 1, x, xp)
            ga, al = sched.gamma[1], sched.alpha[1]
            mc = model_value(problem, ga, al, 1, x, xp, closed, f_grad=gf)
            mo = model_value(problem, ga, al, 1, x, xp, oracle, f_grad=gf)
            assert mc <= mo + 1e-8
            assert abs(mc - mo) <= 1e-8


def with_inertial_term(inst, gamma, alpha, block, k, prev, other, f_grad):
    """update_U (block 0, other = V_k) or update_V (block 1, other = U_next)
    written out with the inertial term alpha (x_k - x_prev) that the updates
    skip at alpha = 0."""
    if block == 0:
        u2, v2 = stf._sq_norm(k), stf._sq_norm(other)
        G = kernel_h1_grad(inst, k, other, (u2, v2)) - gamma * f_grad
        G += alpha * (k - prev)
        P = np.maximum(G, 0.0)
        tau1 = 2.0 * (inst.norm_X * math.sqrt(v2) + inst.eps1)
        t = cubic_positive_root(tau1, inst.a1 * v2 * stf._sq_norm(P))
        return P / t, np.minimum(G, 0.0) / gamma
    u2 = stf._sq_norm(other)
    curvature = u2 * u2 + inst.eps2
    W = k + (alpha * (k - prev) - gamma * f_grad) / curvature
    return np.maximum(W, 0.0), (curvature / gamma) * np.minimum(W, 0.0)


class TestZeroInertia:
    """At alpha = 0 the updates form no inertial term: its +-0 entries could
    change only the sign of a zero in the clamped score, which neither clamp
    passes on, so the new block and ||eta||^2 keep every bit."""

    # exact zeros of both signs, in the blocks and in the gradient
    NONNEGATIVE = st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 2.0))
    ANY = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-3.0, 3.0))

    @settings(max_examples=200, deadline=None)
    @given(block=st.sampled_from([0, 1]), m=st.integers(1, 5), r=st.integers(1, 3),
           gamma=st.floats(0.01, 2.0), data=st.data())
    def test_no_inertial_term_keeps_every_bit(self, block, m, r, gamma, data):
        r = min(r, m)
        inst, _ = random_instance(m, m=m, r=r)
        shape = (m, r) if block == 0 else (r, r)
        draw = lambda elements, s: np.array(data.draw(st.lists(elements, min_size=s[0] * s[1],
                                                               max_size=s[0] * s[1]))).reshape(s)
        k = draw(self.NONNEGATIVE, shape)
        # x_prev shares some entries with x_k, -0.0 among them (the first
        # sweep's x_prev is x0), and differs from it at entry j at least
        prev = draw(self.NONNEGATIVE, shape)
        shared = draw(st.booleans(), shape)
        prev[shared] = k[shared]
        j = data.draw(st.integers(0, k.size - 1))
        prev.flat[j] = k.flat[j] + 0.5
        other = draw(self.NONNEGATIVE, (r, r) if block == 0 else (m, r))
        f_grad = draw(self.ANY, shape)
        update = update_U if block == 0 else update_V
        args = (k, prev, other) if block == 0 else (other, k, prev)
        z, eta = update(inst, gamma, 0.0, *args, f_grad=f_grad)
        z_ref, eta_ref = with_inertial_term(inst, gamma, 0.0, block, k, prev, other, f_grad)
        assert z.tobytes() == z_ref.tobytes()
        assert stf._sq_norm(eta).hex() == stf._sq_norm(eta_ref).hex()
        assert np.array_equal(eta, eta_ref)  # -0.0 == 0.0: only a zero's sign may differ

    @pytest.mark.parametrize("block", [0, 1])
    def test_negative_zeros_in_both_points(self, block):
        # -0.0 in x_k and x_prev with a zero gradient puts -0.0 in the score
        # the update clamps, where the inertial term would have put +0.0
        inst, rng = random_instance(41, m=4, r=2)
        shape, other = ((4, 2), rng.random((2, 2))) if block == 0 else ((2, 2), rng.random((4, 2)))
        k, f_grad = np.full(shape, -0.0), np.zeros(shape)
        args = (k, k.copy(), other) if block == 0 else (other, k, k.copy())
        z, eta = (update_U, update_V)[block](inst, 0.5, 0.0, *args, f_grad=f_grad)
        z_ref, eta_ref = with_inertial_term(inst, 0.5, 0.0, block, k, k.copy(), other, f_grad)
        assert not np.signbit(z_ref).any() and z.tobytes() == z_ref.tobytes()
        assert stf._sq_norm(eta).hex() == stf._sq_norm(eta_ref).hex() == (0.0).hex()

    def test_inertial_term_is_formed_when_alpha_is_not_zero(self):
        inst, rng = random_instance(40, m=5, r=2)
        for block, shape, other in ((0, (5, 2), (2, 2)), (1, (2, 2), (5, 2))):
            k, prev, f_grad = rng.random(shape), rng.random(shape), rng.standard_normal(shape)
            o = rng.random(other)
            args = (k, prev, o) if block == 0 else (o, k, prev)
            z, eta = (update_U, update_V)[block](inst, 0.3, 0.2, *args, f_grad=f_grad)
            z_ref, eta_ref = with_inertial_term(inst, 0.3, 0.2, block, k, prev, o, f_grad)
            assert z.tobytes() == z_ref.tobytes() and eta.tobytes() == eta_ref.tobytes()


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
            U_next, _ = update_U(inst, sched.gamma[0], sched.alpha[0], U, U_prev, V,
                                 f_grad=grad_U(inst, U, V))
            V_next, _ = update_V(inst, sched.gamma[1], sched.alpha[1], U_next, V, V_prev,
                                 f_grad=grad_V(inst, U_next, V))
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

    @pytest.mark.parametrize("kappa", [0.0, 0.6])
    @pytest.mark.parametrize("m", [10, 30])
    def test_sweep_subgradients_lie_in_the_normal_cone(self, m, kappa):
        # the certificate's eta_i must be a subgradient of the orthant
        # indicator at the new block: exactly 0 where an entry is positive,
        # <= 0 where it is 0.  The updates form it from the clamped score
        # (eta_U = min(G, 0)/gamma1, eta_V = (eta/gamma2) min(W, 0)), so
        # nothing cancels and the tolerance is 0
        X, _, _ = synth_instance(m, 3, noise_level=0.0 if m == 30 else 0.1, seed=7)
        inst = SymTriInstance(X, 3)
        problem = as_block_problem(inst)
        sched = derive_schedule(problem.L, problem.sigma, kappa=kappa, rho=0.9)
        x_prev = x = stf.pack_factors(inst, *initial_factors(inst, seed=0))
        for _ in range(50):
            x_next, _, etas = sweep_with_partials(
                problem, sched, x, x_prev, problem.f_block_grad(0, x)
            )
            for i, eta in enumerate(etas):
                positive = x_next.block(i) > 0
                assert not eta[positive].any()
                assert eta[~positive].max(initial=0.0) <= 0.0
            x_prev, x = x, x_next


def direct_distances(inst, U, V, Y, W):
    """D_h1 from (U, V) to (Y, V) and D_h2 from (U, V) to (U, W) by the
    three-term formula, each with the sum of its terms' magnitudes."""
    h1 = (kernel_h1_value(inst, Y, V), -kernel_h1_value(inst, U, V),
          -float(np.vdot(kernel_h1_grad(inst, U, V), Y - U)))
    h2 = (kernel_h2_value(inst, U, W), -kernel_h2_value(inst, U, V),
          -float(np.vdot(kernel_h2_grad(inst, U, V), W - V)))
    return [(sum(terms), sum(abs(t) for t in terms)) for terms in (h1, h2)]


class TestKernelDistances:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 6),
        r=st.integers(1, 6),
        exponents=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
    )
    def test_closed_forms_match_the_direct_formula(self, seed, m, r, exponents):
        # log-uniformly scaled X, U, V and trial blocks Y, W
        r = min(r, m)
        rng = np.random.default_rng(seed)
        cx, cu, cv, cy, cw = (10.0**e for e in exponents)
        raw = rng.random((m, m))
        inst = SymTriInstance(cx * (raw + raw.T), r)
        U, Y = cu * rng.random((m, r)), cy * rng.random((m, r))
        V, W = cv * rng.random((r, r)), cw * rng.random((r, r))
        closed = (kernel_h1_distance(inst, U, V, Y), kernel_h2_distance(inst, U, V, W))
        for d, (direct, scale) in zip(closed, direct_distances(inst, U, V, Y, W)):
            assert d >= 0.0
            assert abs(d - direct) <= 1e-10 * scale
        assert kernel_h1_distance(inst, U, V, U) == 0.0
        assert kernel_h2_distance(inst, U, V, V) == 0.0

    def test_closed_forms_stay_positive_where_the_direct_formula_cancels(self):
        # a step of 1e-11 per entry: the true gaps (~1e-20) lie far below the
        # direct formula's rounding error (~eps |h|), which goes negative on
        # some of the steps, while the closed forms stay at least the strong
        # convexity bound (sigma/2) ||step||^2
        inst, rng = random_instance(31)
        U, V = rng.random((4, 2)), rng.random((2, 2))
        negative = 0
        for _ in range(20):
            dU, dV = 1e-11 * rng.random((4, 2)), 1e-11 * rng.random((2, 2))
            closed = (kernel_h1_distance(inst, U, V, U + dU), kernel_h2_distance(inst, U, V, V + dV))
            direct = direct_distances(inst, U, V, U + dU, V + dV)
            for d, sigma, step in zip(closed, (inst.sigma1, inst.sigma2), (dU, dV)):
                assert d >= 0.5 * sigma * float(np.vdot(step, step)) > 0.0
            negative += sum(value < 0.0 for value, _ in direct)
        assert negative > 0


class TestRelativeSmoothness:
    def test_default_constants_certify(self):
        inst, _ = random_instance(17, m=3, r=2)
        problem = as_block_problem(inst)
        report = verify_relative_smoothness(problem, samples=200, seed=0)
        assert report["violations"] == 0

    @pytest.mark.parametrize("a1,L1", [(3.0, 2.0), (6.0, 1.0), (12.0, 1.0)])
    def test_each_a1_certifies(self, a1, L1):
        # with b1 and a2 fixed, a1 alone sets the balance of h1's two terms
        X, _, _ = synth_instance(8, 2, noise_level=0.25, density=1.0, seed=1)
        inst = SymTriInstance(X, 2, a1=a1, eps1=0.3, eps2=2.5)
        assert (inst.L1, inst.L2) == (L1, 1.0)
        report = verify_relative_smoothness(as_block_problem(inst), samples=200, seed=1)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN would win argmax and label its row 0
        with pytest.raises(ParameterError, match="NaN or infinite"):
            community_assignment(np.array([[1.0, 0.0], [bad, 1.0]]))


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


def scaled_rel_err(a, b):
    """rel_err on both arrays divided by max|b|, so that norms of entries
    near the float64 limits neither overflow nor underflow."""
    s = float(np.abs(b).max()) or 1.0
    return rel_err(np.asarray(a) / s, np.asarray(b) / s)


def record_calls(monkeypatch, *names):
    """Wrap each named symtrinmf function so that it records its calls;
    returns name -> list of the positional arguments of each call."""
    calls = {name: [] for name in names}

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(stf, name, recording(name, getattr(stf, name)))
    return calls


class TestProductForm:
    """f_value, grad_U and grad_V run on the products of U; dense_fit is
    the direct reference.  At points without cancellation the two agree to
    a few eps; the tolerances below are fixed from float64, not fitted."""

    @staticmethod
    def assert_matches_dense(inst, U, V, tol=1e-12):
        f, gU, gV = stf.dense_fit(inst, U, V)
        assert f_value(inst, U, V) == pytest.approx(f, rel=tol)
        assert scaled_rel_err(grad_U(inst, U, V), gU) <= tol
        assert scaled_rel_err(grad_V(inst, U, V), gV) <= tol

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetric_random_points(self, seed):
        inst, rng = random_instance(seed, m=15, r=3)
        for _ in range(3):
            self.assert_matches_dense(inst, rng.random((15, 3)), rng.random((3, 3)))

    def test_asymmetric_v(self):
        # the dense reference's R^T U V term is grad_U's X U V term
        inst, rng = random_instance(21, m=15, r=3)
        XU, UtXU, G = stf.products(inst, rng.random((15, 3)))
        assert XU.shape == (15, 3) and UtXU.shape == G.shape == (3, 3)
        for _ in range(3):
            V = rng.random((3, 3))
            assert not np.array_equal(V, V.T)
            self.assert_matches_dense(inst, rng.random((15, 3)), V)

    def test_symmetrize_makes_x_exactly_symmetric(self):
        # (X + X^T)/2, which --symmetrize passes, is symmetric entry for entry
        rng = np.random.default_rng(22)
        X = rng.random((6, 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = SymTriInstance(0.5 * (X + X.T), 2)
        assert np.array_equal(inst.X, inst.X.T)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scales(self, scale):
        # f(sX, U, sV) = s^2 f(X, U, V), grad_U scales by s^2 and grad_V by s
        inst, rng = random_instance(23, m=15, r=3)
        big = SymTriInstance(scale * inst.X, 3)
        U, V = rng.random((15, 3)), rng.random((3, 3))
        self.assert_matches_dense(big, U, scale * V)
        f = f_value(big, U, scale * V)
        assert math.isfinite(f) and f == pytest.approx(scale**2 * f_value(inst, U, V), rel=1e-12)
        assert scaled_rel_err(grad_U(big, U, scale * V), scale**2 * grad_U(inst, U, V)) <= 1e-12
        assert scaled_rel_err(grad_V(big, U, scale * V), scale * grad_V(inst, U, V)) <= 1e-12

    @pytest.mark.parametrize("t, dense", [(0.1, False), (0.01, True), (0.0, True)])
    def test_fallback_threshold(self, monkeypatch, t, dense):
        # at (U*, (1 + t) V*) the fit is f = t^2 ||X||^2 / 2: 5e-3 ||X||^2
        # lies above FIT_CANCELLATION ||X||^2, 5e-5 ||X||^2 and 0 below it
        X, U, V = synth_instance(12, 2, noise_level=0.0, density=1.0, seed=4)
        inst = SymTriInstance(X, 2)
        V = (1.0 + t) * V
        f_ref = stf.dense_fit(inst, U, V)[0]
        assert (f_ref < stf.FIT_CANCELLATION * inst.norm_X**2) == dense
        calls = record_calls(monkeypatch, "_residual")
        f = f_value(inst, U, V)
        assert bool(calls["_residual"]) == dense
        if dense:
            assert f == f_ref  # the same dense formula; exactly 0 at t = 0
        else:
            assert f == pytest.approx(f_ref, rel=1e-12)

    def test_trace_phi_near_zero_is_the_dense_fit(self):
        # a noiseless planted run ends at f ~ 1e-16 ||X||^2, where the trace
        # identity has no correct digits and audit_trace's absolute slack
        # cannot see the error; the trace must carry the dense fit
        X, _, _ = synth_instance(10, 2, noise_level=0.0, density=1.0, seed=1)
        inst = SymTriInstance(X, 2)
        result, factors = stf.solve_instance(inst, max_iters=20000)
        assert result.termination == "residual_tol"
        f_ref = stf.dense_fit(inst, factors.U, factors.V)[0]
        assert 0.0 < f_ref < stf.FIT_CANCELLATION * inst.norm_X**2
        assert result.trace[-1].phi == pytest.approx(f_ref, rel=1e-12, abs=0.0)

    def test_writable_array_changed_in_place_gets_fresh_products(self):
        inst, rng = random_instance(25, m=8, r=2)
        U, V = rng.random((8, 2)), rng.random((2, 2))
        before = f_value(inst, U, V)
        U *= 2.0
        self.assert_matches_dense(inst, U, V)
        assert f_value(inst, U, V) != before

    def test_read_only_view_of_writable_array_is_not_remembered(self):
        inst, rng = random_instance(26, m=8, r=2)
        base, V = rng.random((8, 2)), rng.random((2, 2))
        view = base.view()
        view.setflags(write=False)
        f_value(inst, view, V)
        base += 1.0
        self.assert_matches_dense(inst, view, V)

    def test_instances_never_share_entries(self):
        # two block problems evaluated at one point each use their own X
        a, rng = random_instance(27, m=8, r=2)
        b, _ = random_instance(28, m=8, r=2)
        x = BlockVector((rng.random((8, 2)), rng.random((2, 2))))
        problems = {inst: as_block_problem(inst) for inst in (a, b)}
        for _ in range(2):
            for inst in (a, b, a):
                got = problems[inst].f_block_grad(1, x)
                assert got.tobytes() == grad_V(inst, *x.blocks).tobytes()

    def test_memo_keeps_the_last_one(self, monkeypatch):
        # a block problem keeps the products of the last U block it met:
        # every evaluation at that U reuses them, whatever V, and any other
        # U computes them afresh
        inst, rng = random_instance(29, m=8, r=2)
        problem = as_block_problem(inst)
        V = rng.random((2, 2))
        x1, x2 = (BlockVector((rng.random((8, 2)), V)) for _ in range(2))
        calls = record_calls(monkeypatch, "products")
        for x in (x1, x1, x2, x2, x2, x1, x2):
            problem.f_value(x)
            problem.f_block_grad(0, x)
            problem.f_block_grad(1, x.with_block(1, 2.0 * V))
        made = [args[1] for args in calls["products"]]
        assert [id(U) for U in made] == [id(x.block(0)) for x in (x1, x2, x1, x2)]

    def test_a_new_u_block_with_the_same_values_gets_its_own_record(self, monkeypatch):
        # x2's U is another array holding x1's values, so a record taken over
        # from the wrong point would give the same numbers: only the calls of
        # products show that each change of U block makes them afresh
        inst, rng = random_instance(31, m=8, r=2)
        problem = as_block_problem(inst)
        x1 = BlockVector((rng.random((8, 2)), rng.random((2, 2))))
        x2 = x1.with_block(0, x1.block(0).copy())
        assert x2.block(0) is not x1.block(0) and x2.block(1) is x1.block(1)
        U, V = x1.blocks
        direct = (f_value(inst, U, V), grad_U(inst, U, V), grad_V(inst, U, V),
                  kernel_h1_grad(inst, U, V))
        calls = record_calls(monkeypatch, "products")
        for x in (x1, x2, x1):
            got = (problem.f_value(x), problem.f_block_grad(0, x), problem.f_block_grad(1, x),
                   problem.kernels[0].block_grad(x))
            assert got[0].hex() == direct[0].hex()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1:], direct[1:]))
        made = [args[1] for args in calls["products"]]
        assert [id(U) for U in made] == [id(x.block(0)) for x in (x1, x2, x1)]

    @pytest.mark.parametrize("kappa", [0.0, 0.6])
    def test_one_x_product_per_sweep(self, monkeypatch, kappa):
        X, _, _ = synth_instance(20, 3, noise_level=0.2, density=1.0, seed=5)
        inst = SymTriInstance(X, 3)
        calls = record_calls(monkeypatch, "products")
        for sweeps in (7, 19):
            calls["products"].clear()
            result, _ = stf.solve_instance(inst, kappa=kappa, max_iters=sweeps, residual_tol=0.0)
            assert result.trace[-1].k == sweeps
            # one at start-up (the gradient at x0), then one per sweep
            assert len(calls["products"]) == sweeps + 1

    @pytest.mark.parametrize("kappa", [0.0, 0.6])
    def test_each_block_gradient_once_per_sweep(self, monkeypatch, kappa):
        # the run stays far from the fit, so f_value never forms the dense
        # residual and its squared norm
        X, _, _ = synth_instance(20, 3, noise_level=0.2, density=1.0, seed=5)
        inst = SymTriInstance(X, 3)
        counted = ("grad_U", "grad_V", "kernel_h1_grad", "kernel_h2_grad",
                   "kernel_h1_value", "kernel_h2_value", "products", "_sq_norm", "_gvg")
        calls = record_calls(monkeypatch, *counted)
        calls["indicator"] = []
        indicator = stf.nonnegative_indicator

        def counting_indicator():
            term = indicator()
            return replace(term, value=lambda z: calls["indicator"].append(z) or term.value(z))

        monkeypatch.setattr(stf, "nonnegative_indicator", counting_indicator)
        totals = []
        for sweeps in (7, 19):
            for made in calls.values():
                made.clear()
            result, _ = stf.solve_instance(inst, kappa=kappa, max_iters=sweeps, residual_tol=0.0)
            assert result.trace[-1].k == sweeps
            assert result.trace[-1].phi > stf.FIT_CANCELLATION * inst.norm_X**2
            totals.append({name: len(made) for name, made in calls.items()})
        per_sweep = {name: (totals[1][name] - totals[0][name]) / 12 for name in calls}
        # the one kernel call is grad_U h1 inside update_U: the updates
        # return the subgradients and the kernels their closed-form distances.
        # The squared norms are ||V_k||^2, ||U+||^2 (the next sweep's
        # ||U_k||^2) and those of P, U+ - U_k and V+ - V_k; G V G is formed
        # at (U+, V_k) and (U+, V+); g_i is evaluated at the new blocks only
        assert per_sweep == {
            "grad_U": 1, "grad_V": 2, "kernel_h1_grad": 1, "kernel_h2_grad": 0,
            "kernel_h1_value": 0, "kernel_h2_value": 0, "products": 1, "_sq_norm": 5,
            "_gvg": 2, "indicator": 2,
        }
        # start-up: grad f(x0) for the stopping scale, whose U part the
        # first sweep reuses, g_i(x0_i) for the feasibility check, and the
        # check of both block solvers at x0: x0's record keeps ||U0||^2 and
        # ||V0||^2 for the first sweep, update_U forms grad_U h1 and ||P||^2
        # there, and g_i is evaluated at both results.  phi(x0) evaluates
        # g_i(x0_i) again.  The last point's record forms ||V+||^2, which no
        # later sweep reads: one squared norm more than the sweeps count
        startup = {name: totals[0][name] - 7 * per_sweep[name] for name in calls}
        assert startup == dict.fromkeys(calls, 0) | {
            "grad_U": 1, "grad_V": 1, "kernel_h1_grad": 1, "products": 1, "_gvg": 1,
            "indicator": 6, "_sq_norm": 3}

    def test_checks_never_make_a_record(self, monkeypatch):
        # the kernels' block gradients, which only checks call, take their
        # own norms: the oracle evaluates grad h1 at a new point on every
        # iteration, and a record there would cost an X-product each
        inst, rng = random_instance(32, m=8, r=2)
        problem = as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5)
        x, x_prev = (BlockVector((rng.random((8, 2)), rng.random((2, 2)))) for _ in range(2))
        calls = record_calls(monkeypatch, "products", "kernel_h1_grad")
        got = problem.kernels[0].block_grad(x)
        assert not calls["products"]
        assert got.tobytes() == kernel_h1_grad(inst, *x.blocks).tobytes()
        calls["kernel_h1_grad"].clear()
        numeric_subproblem_oracle(problem, schedule, 0, x, x_prev)
        # one record, at x, for grad_U f and the model's Bregman distance
        assert len(calls["products"]) == 1 and len(calls["kernel_h1_grad"]) > 10

    def test_kept_norms_and_gvg_are_the_direct_ones(self, monkeypatch):
        # the squared block norms the block problem hands the kernels and
        # the updates, and the G V G it hands grad_V and f_value, equal the
        # direct _sq_norm and G @ V @ G bit for bit; a new U or V block
        # computes them afresh
        inst, rng = random_instance(30, m=8, r=2)
        calls = record_calls(monkeypatch, "_sq_norm", "_gvg", "_residual", "kernel_h1_grad",
                             "kernel_h1_distance", "kernel_h2_distance", "grad_V", "f_value")
        problem = as_block_problem(inst)
        schedule = derive_schedule(problem.L, problem.sigma, kappa=0.5)
        x11 = BlockVector((rng.random((8, 2)), rng.random((2, 2))))
        x12 = x11.with_block(1, rng.random((2, 2)))
        x22 = x12.with_block(0, rng.random((8, 2)))
        counts = []
        for x in (x11, x11, x12, x22, x22):
            for made in calls.values():
                made.clear()
            problem.g[0].solver(problem, schedule, 0, x, x, f_grad=np.zeros((8, 2)))
            problem.kernels[0].distance(x, x22.block(0))
            problem.kernels[1].distance(x, x11.block(1))
            problem.f_block_grad(1, x)
            problem.f_value(x)
            counts.append((len(calls["_sq_norm"]), len(calls["_gvg"]), len(calls["_residual"])))
            U, V = x.blocks
            norms = (stf._sq_norm(U).hex(), stf._sq_norm(V).hex())
            for name in ("kernel_h1_grad", "kernel_h1_distance", "kernel_h2_distance"):
                (args,) = calls[name]
                assert tuple(v.hex() for v in args[-1]) == norms, name
            G = U.T @ U
            for name in ("grad_V", "f_value"):
                (args,) = calls[name]
                assert args[-1].tobytes() == (G @ V @ G).tobytes(), name
        # ||P||^2, ||D||^2 and ||W - V||^2 are made at every call, ||U||^2
        # and ||V||^2 once per block, G V G once per (U, V)
        assert counts == [(5, 1, 0), (3, 0, 0), (4, 1, 0), (4, 1, 0), (3, 0, 0)]


class TestSolveFactors:
    """The factors of a solve are its final iterate, and their relative
    error is the solve's own final phi."""

    def test_factors_are_the_final_iterates_read_only_blocks(self):
        X, _, _ = synth_instance(20, 3, noise_level=0.2, density=1.0, seed=5)
        result, factors = stf.solve_instance(SymTriInstance(X, 3), max_iters=7)
        assert factors.U is result.x_final.blocks[0]
        assert factors.V is result.x_final.blocks[1]
        for block in factors:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("start", [None, 1.01])
    def test_relative_error_of_the_factors_is_the_final_phi(self, monkeypatch, start):
        # a noisy run far from the fit (the trace identity), and one started
        # at (U*, 1.01 V*) that stays near it (the dense residual)
        X, U_star, V_star = synth_instance(20, 3, noise_level=0.0 if start else 0.3,
                                           density=1.0, seed=5)
        inst = SymTriInstance(X, 3)
        x0 = stf.pack_factors(inst, U_star, start * V_star) if start else None
        result, factors = stf.solve_instance(inst, max_iters=19, residual_tol=0.0, x0=x0)
        near = result.trace[-1].phi < stf.FIT_CANCELLATION * inst.norm_X**2
        assert near == bool(start)
        calls = record_calls(monkeypatch, "products", "_residual")
        rel = relative_error(inst, *factors)
        # a direct call computes the factors' products once: the solve's
        # block problem kept them, not the instance
        assert len(calls["products"]) == 1 and bool(calls["_residual"]) == near
        assert rel == math.sqrt(2.0 * result.trace[-1].phi) / inst.norm_X

    @pytest.mark.parametrize("t", [1.0, 0.1, 0.01])
    def test_relative_error_matches_the_dense_fit(self, t):
        # at (U*, (1 + t) V*) the relative error is t: the trace identity
        # serves t = 1 and 0.1, the dense residual t = 0.01
        X, U, V = synth_instance(12, 2, noise_level=0.0, density=1.0, seed=4)
        inst = SymTriInstance(X, 2)
        V = (1.0 + t) * V
        f_ref = stf.dense_fit(inst, U, V)[0]
        assert (f_ref < stf.FIT_CANCELLATION * inst.norm_X**2) == (t == 0.01)
        ref = math.sqrt(2.0 * f_ref) / inst.norm_X
        assert relative_error(inst, U, V) == pytest.approx(ref, rel=1e-12)
        assert ref == pytest.approx(t, rel=1e-12)


class TestScaledInput:
    """The acceptance instance scaled by c: where the solve cannot be made
    it says so, and the k=0 record holds ||grad f(x0)|| at every scale."""

    def test_k0_record_is_the_initial_gradient_norm(self):
        X, _, _ = synth_instance(30, 3, seed=7)
        inst = SymTriInstance(1e-8 * X, 3)
        result, _ = stf.solve_instance(inst, max_iters=1)
        problem = as_block_problem(inst)
        x0 = stf.pack_factors(inst, *initial_factors(inst, 0))
        # (1 + norm) - 1 would lose about 1e-11 relative here
        assert result.trace[0].residual_norm == float(np.linalg.norm(full_gradient(problem, x0)))

    @pytest.mark.parametrize("params", [dict(eps1=1e140), dict(a1=1e250)])
    def test_kernel_parameter_overflow_names_a1_and_eps1(self, params):
        # ||X|| = 85, but eps1 (in tau1) or a1 (in tau2) overflows the cubic
        X, _, _ = synth_instance(30, 3, seed=7)
        inst = SymTriInstance(X, 3, **params)
        with pytest.raises(OverflowError, match="X must be rescaled .* a1 or eps1 made smaller"):
            stf.solve_instance(inst, max_iters=5)

    @pytest.mark.parametrize("c", [1e25, 1e100])
    def test_overflow_is_an_error_not_a_misdiagnosis(self, c):
        # the closed form's cubic overflows: an infeasible-point
        # ConfigurationError or a certificate at rel_error 1 would misdiagnose it
        X, _, _ = synth_instance(30, 3, seed=7)
        inst = SymTriInstance(c * X, 3)
        try:
            with np.errstate(over="ignore"):  # ||grad f(x0)|| overflows at 1e100
                result, factors = stf.solve_instance(inst)
        except ArithmeticError as exc:
            assert "X must be rescaled" in str(exc)
            return
        assert relative_error(inst, *factors) <= 1e-3
