import math

import numpy as np
import pytest

from bregblock import (
    BlockKernel,
    BlockProblem,
    BlockVector,
    DomainError,
    ParameterError,
    SymTriInstance,
    block_bregman_distance,
    derive_schedule,
    model_value,
    nonnegative_indicator,
    phi_value,
    run,
    squared_norm_kernel,
    zero_term,
)
from bregblock import symtrinmf as stf
from points import flat, point


def linear_problem(shapes, c, g=None):
    """f(x) = <c, x> with Euclidean kernels on every block."""
    c = np.asarray(c, dtype=float)
    N = len(shapes)
    return BlockProblem(
        shapes=shapes,
        f_value=lambda x: float(np.dot(c, flat(x))),
        f_block_grad=lambda i, x: point(shapes, c).block(i).copy(),
        kernels=tuple(squared_norm_kernel() for _ in range(N)),
        L=tuple(1.0 for _ in range(N)),
        g=tuple(g if g is not None else zero_term() for _ in range(N)),
    )


class TestBlockVector:
    def test_scatter_gather_bitwise(self):
        rng = np.random.default_rng(0)
        blocks = (rng.standard_normal(3), rng.standard_normal((5, 2)), rng.standard_normal((2, 2)))
        x = BlockVector(blocks)
        for i, b in enumerate(blocks):
            assert x.block(i) is x.blocks[i]
            assert x.block(i).shape == b.shape
            assert x.block(i).tobytes() == b.tobytes()
        assert all(a is b for a, b in zip(BlockVector(x.blocks).blocks, x.blocks))

    def test_with_block_roundtrip(self):
        x = BlockVector((np.arange(6.0).reshape(3, 2), np.arange(4.0).reshape(2, 2)))
        values = np.array([[9.5, -1.25], [0.0, 3.0]])
        y = x.with_block(1, values)
        assert np.array_equal(y.block(1), values)
        assert y.block(0) is x.block(0)  # shared, not copied
        assert np.array_equal(x.block(1), np.arange(4.0).reshape(2, 2))  # original untouched
        with pytest.raises(IndexError):
            x.with_block(2, values)

    def test_immutable(self):
        source = np.zeros((2, 2))
        x = BlockVector((source,))
        with pytest.raises(ValueError):
            x.block(0)[0, 0] = 1.0
        source[0, 0] = 1.0
        assert x.block(0)[0, 0] == 0.0  # the caller's array was copied
        with pytest.raises(ValueError):
            x.with_block(0, source).block(0)[0, 0] = 2.0

    def test_bad_sizes(self):
        # shapes are checked where points enter: pack_factors and run
        inst = SymTriInstance(np.eye(3), 2)
        with pytest.raises(ParameterError):
            stf.pack_factors(inst, np.ones((3, 3)), np.ones((2, 2)))
        problem = linear_problem(((2,), (2, 1)), np.zeros(4))
        schedule = derive_schedule(problem.L, problem.sigma)
        for blocks in ((np.zeros(2), np.zeros(2)), (np.zeros(2),), (np.zeros(3), np.zeros((2, 1)))):
            with pytest.raises(ParameterError):
                run(problem, schedule, BlockVector(blocks), max_iters=1)


class TestBregmanDistance:
    def test_quadratic_kernel(self):
        x = BlockVector(([1.0],))
        d = block_bregman_distance(squared_norm_kernel(), 0, x, np.array([3.0]))
        assert d == pytest.approx(2.0, abs=0.0)

    def test_identity_case(self):
        x = BlockVector((np.arange(2.0), np.arange(6.0).reshape(2, 3)))
        for kern in (squared_norm_kernel(),):
            for i in range(2):
                assert block_bregman_distance(kern, i, x, x.block(i)) == 0.0

    def test_tri_factorization_kernel_value(self):
        # h1 with a1=6, b1=2, eps1=1, X=0, scalar factors: distance from
        # (u=0, v=1) to u=1 equals h1(1,1) - h1(0,1) - 0 = 2.5
        inst = SymTriInstance(np.zeros((1, 1)), 1)
        problem = stf.as_block_problem(inst)
        x = stf.pack_factors(inst, np.array([[0.0]]), np.array([[1.0]]))
        d = block_bregman_distance(problem.kernels[0], 0, x, np.array([[1.0]]))
        assert d == pytest.approx(2.5, rel=1e-15)

    def test_nonnegative_on_samples(self):
        rng = np.random.default_rng(1)
        raw = rng.random((3, 3))
        inst = SymTriInstance(0.5 * (raw + raw.T), 2)
        problem = stf.as_block_problem(inst)
        for _ in range(50):
            scale = rng.choice([0.1, 1.0, 10.0])
            x = BlockVector(tuple(rng.random(s) * scale for s in problem.shapes))
            for i in range(problem.N):
                y_i = rng.random(problem.shapes[i])
                assert block_bregman_distance(problem.kernels[i], i, x, y_i) >= 0.0

    def test_strong_convexity_lower_bound(self):
        # strictly (indeed strongly) convex kernels separate distinct points
        rng = np.random.default_rng(2)
        raw = rng.random((3, 3))
        inst = SymTriInstance(0.5 * (raw + raw.T), 2)
        problem = stf.as_block_problem(inst)
        for _ in range(50):
            x = BlockVector(tuple(rng.random(s) for s in problem.shapes))
            for i in range(problem.N):
                y_i = rng.random(problem.shapes[i])
                diff = float(np.linalg.norm(y_i - x.block(i)))
                d = block_bregman_distance(problem.kernels[i], i, x, y_i)
                sigma = problem.kernels[i].sigma
                assert d >= 0.5 * sigma * diff**2 * (1.0 - 1e-9) - 1e-15

    def test_domain_error(self):
        # the log barrier is +inf off its domain (0, inf)
        def value(x):
            t = float(x.block(0)[0])
            return -math.log(t) if t > 0 else math.inf

        kern = BlockKernel(value=value, block_grad=lambda i, x: -1.0 / x.block(0), sigma=1.0)
        inside = BlockVector(([1.0],))
        with pytest.raises(DomainError):
            block_bregman_distance(kern, 0, inside, np.array([-1.0]))
        with pytest.raises(DomainError):
            block_bregman_distance(kern, 0, BlockVector(([-1.0],)), np.array([1.0]))


class TestPhiValue:
    def test_indicator_feasible(self):
        shapes = ((2,), (1, 2))
        problem = linear_problem(shapes, np.zeros(4), g=nonnegative_indicator())
        assert phi_value(problem, point(shapes, [0.0, 1.0, 2.0, 3.0])) == 0.0

    def test_indicator_infeasible(self):
        shapes = ((2,), (1, 2))
        problem = linear_problem(shapes, np.zeros(4), g=nonnegative_indicator())
        assert phi_value(problem, point(shapes, [0.0, 1.0, -0.5, 3.0])) == math.inf

    def test_tri_factorization_scalar(self):
        inst = SymTriInstance(np.array([[4.0]]), 1)
        problem = stf.as_block_problem(inst)
        x = stf.pack_factors(inst, np.array([[1.0]]), np.array([[0.0]]))
        assert phi_value(problem, x) == pytest.approx(8.0, abs=0.0)

    def test_invariant_under_decomposition(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal(6)
        c = rng.standard_normal(6)
        whole = linear_problem(((6,),), c)
        split = linear_problem(((2,), (2, 2)), c)
        assert phi_value(whole, point(whole.shapes, data)) == pytest.approx(
            phi_value(split, point(split.shapes, data)), rel=1e-15
        )


class TestModelValue:
    def test_zero_at_current_block(self):
        rng = np.random.default_rng(4)
        shapes = ((3,),)
        problem = linear_problem(shapes, rng.standard_normal(3))
        x = point(shapes, rng.standard_normal(3))
        xp = point(shapes, rng.standard_normal(3))
        assert model_value(problem, 0.5, 0.2, 0, x, xp, x.block(0)) == 0.0

    def test_euclidean_analytic_form(self):
        # alpha=0, h = ||.||^2/2, f linear with gradient c, gamma=1:
        # model(z) = <c, z - x> + ||z - x||^2 / 2
        rng = np.random.default_rng(5)
        shapes = ((2, 2),)
        c = rng.standard_normal(4)
        problem = linear_problem(shapes, c)
        x = point(shapes, rng.standard_normal(4))
        for _ in range(10):
            z = rng.standard_normal((2, 2))
            d = (z - x.block(0)).ravel()
            expected = float(np.dot(c, d)) + 0.5 * float(np.dot(d, d))
            assert model_value(problem, 1.0, 0.0, 0, x, x, z) == pytest.approx(expected, rel=1e-12)

    def test_tri_factorization_v_block_minimum(self):
        # scalar case X=4, U=1, V_k=0, alpha=0, gamma=0.9, a2=eps2=1:
        # model(z) = -4z + z^2/0.9, minimized at z*=1.8 with value -3.6
        inst = SymTriInstance(np.array([[4.0]]), 1)
        problem = stf.as_block_problem(inst)
        x = stf.pack_factors(inst, np.array([[1.0]]), np.array([[0.0]]))
        at_min = model_value(problem, 0.9, 0.0, 1, x, x, np.array([[1.8]]))
        assert at_min == pytest.approx(-3.6, rel=1e-12)
        for z in (1.7, 1.9):
            assert model_value(problem, 0.9, 0.0, 1, x, x, np.array([[z]])) > at_min

    def test_infeasible_returns_inf(self):
        problem = linear_problem(((2,),), np.zeros(2), g=nonnegative_indicator())
        x = BlockVector(([1.0, 1.0],))
        assert model_value(problem, 1.0, 0.0, 0, x, x, np.array([-1.0, 0.0])) == math.inf

    def test_invalid_gamma(self):
        problem = linear_problem(((2,),), np.zeros(2))
        x = BlockVector(([0.0, 0.0],))
        with pytest.raises(ParameterError):
            model_value(problem, 0.0, 0.0, 0, x, x, np.zeros(2))
