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
)
from bregblock import symtrinmf as stf
from points import flat, point, squared_norm_kernel, zero_term


def linear_problem(shapes, c, g=None):
    """f(x) = <c, x> with Euclidean kernels on every block."""
    c = np.asarray(c, dtype=float)
    N = len(shapes)
    return BlockProblem(
        shapes=shapes,
        f_value=lambda x: float(np.dot(c, flat(x))),
        f_block_grad=lambda i, x: point(shapes, c).block(i).copy(),
        kernels=tuple(squared_norm_kernel(i) for i in range(N)),
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

    def test_with_block_shares_a_read_only_block(self):
        # a read-only block is shared, not copied a second time (a block
        # problem keys the products of U by its identity); a writable block
        # is copied
        x = BlockVector((np.zeros(3), np.zeros((2, 2)), np.zeros(1)))
        y = x.with_block(1, np.ones((2, 2)))
        assert not y.block(1).flags.writeable
        z = x.with_block(1, y.block(1))
        assert z.block(1) is y.block(1)
        assert z.block(0) is x.block(0) and z.block(2) is x.block(2)

    def test_with_block_shares_a_read_only_block_that_owns_its_memory(self):
        # a closed-form update returns such a block; a writable array or a
        # read-only view of one is copied
        x = BlockVector((np.zeros(3), np.zeros((2, 2))))
        owner = np.ones((2, 2))
        owner.setflags(write=False)
        writable = np.ones((2, 2))
        view = writable.view()
        view.setflags(write=False)
        assert x.with_block(1, owner).block(1) is owner
        made = [x.with_block(1, values) for values in (writable, view)]
        writable[0, 0] = 5.0
        for y in made:
            assert y.block(0) is x.block(0)
            assert not y.block(1).flags.writeable and np.array_equal(y.block(1), np.ones((2, 2)))

    def test_with_block_checks_only_the_new_block(self, monkeypatch):
        from bregblock import blocks

        x = BlockVector((np.zeros(3), np.zeros((2, 2)), np.zeros(1)))
        checked = []
        real = blocks._readonly
        monkeypatch.setattr(blocks, "_readonly", lambda a: checked.append(a) or real(a))
        values = np.ones((2, 2))
        y = x.with_block(1, values)
        assert len(checked) == 1 and checked[0] is values
        assert type(y) is BlockVector and y.block(0) is x.block(0) and y.block(2) is x.block(2)
        assert not y.block(1).flags.writeable and y.block(1) is not values
        with pytest.raises(AttributeError):  # a frozen dataclass
            y.blocks = x.blocks
        BlockVector(y.blocks)  # the constructor still checks every block
        assert len(checked) == 4

    def test_immutable(self):
        source = np.zeros((2, 2))
        x = BlockVector((source,))
        with pytest.raises(ValueError):
            x.block(0)[0, 0] = 1.0
        source[0, 0] = 1.0
        assert x.block(0)[0, 0] == 0.0  # the caller's array was copied
        with pytest.raises(ValueError):
            x.with_block(0, source).block(0)[0, 0] = 2.0

    def test_read_only_view_of_a_writable_array_is_copied(self):
        # a read-only view still sees every write to its writable base
        base = np.zeros((3, 2))
        views = (base.view(), base.T, base[::2])
        for view in views:
            view.setflags(write=False)
        x = BlockVector(views)
        base[0, 0] = 5.0
        assert all(b is not v for b, v in zip(x.blocks, views))
        assert all(not b.any() and not b.flags.writeable for b in x.blocks)
        assert [b.shape for b in x.blocks] == [(3, 2), (2, 3), (2, 2)]

    def test_memory_of_read_only_arrays_is_shared(self):
        owner = np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])
        owner.setflags(write=False)
        views = (owner, owner.T, owner[1:])
        x = BlockVector(views)
        assert all(b is v for b, v in zip(x.blocks, views))
        # memory a writable buffer owns is copied
        buffered = np.frombuffer(bytearray(16))
        buffered.setflags(write=False)
        assert BlockVector((buffered,)).block(0) is not buffered

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
        d = block_bregman_distance(squared_norm_kernel(0), x, np.array([3.0]))
        assert d == pytest.approx(2.0, abs=0.0)

    def test_kernel_distance_is_used(self):
        # the distance is the kernel's closed form, with no kernel value or
        # gradient evaluated
        rng = np.random.default_rng(3)
        x = BlockVector((rng.random(2), rng.random(3)))

        def unused(*args):
            raise AssertionError("block_bregman_distance evaluated the kernel")

        for i in range(2):
            kern = BlockKernel(value=unused, block_grad=unused,
                               distance=lambda x, y_i: 0.25 + i, sigma=1.0)
            assert block_bregman_distance(kern, x, rng.random(x.block(i).shape)) == 0.25 + i

    def test_identity_case(self):
        x = BlockVector((np.arange(2.0), np.arange(6.0).reshape(2, 3)))
        for i in range(2):
            assert block_bregman_distance(squared_norm_kernel(i), x, x.block(i)) == 0.0

    def test_tri_factorization_kernel_value(self):
        # h1 with a1=6, b1=2, eps1=1, X=0, scalar factors: distance from
        # (u=0, v=1) to u=1 equals h1(1,1) - h1(0,1) - 0 = 2.5
        inst = SymTriInstance(np.zeros((1, 1)), 1)
        problem = stf.as_block_problem(inst)
        x = stf.pack_factors(inst, np.array([[0.0]]), np.array([[1.0]]))
        d = block_bregman_distance(problem.kernels[0], x, np.array([[1.0]]))
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
                assert block_bregman_distance(problem.kernels[i], x, y_i) >= 0.0

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
                d = block_bregman_distance(problem.kernels[i], x, y_i)
                sigma = problem.kernels[i].sigma
                assert d >= 0.5 * sigma * diff**2 * (1.0 - 1e-9) - 1e-15

    def test_domain_error(self):
        # the log barrier is +inf off its domain (0, inf)
        def value(x):
            t = float(x.block(0)[0])
            return -math.log(t) if t > 0 else math.inf

        def distance(x, y_i):
            s, t = float(x.block(0)[0]), float(y_i[0])
            return t / s - math.log(t / s) - 1.0 if s > 0 and t > 0 else math.inf

        kern = BlockKernel(value=value, block_grad=lambda x: -1.0 / x.block(0),
                           distance=distance, sigma=1.0)
        inside = BlockVector(([1.0],))
        with pytest.raises(DomainError, match="Bregman distance is inf: "):
            block_bregman_distance(kern, inside, np.array([-1.0]))
        with pytest.raises(DomainError, match="Bregman distance is inf: "):
            block_bregman_distance(kern, BlockVector(([-1.0],)), np.array([1.0]))
        # a NaN block is inside no domain, and the error says it is NaN
        with pytest.raises(DomainError, match="Bregman distance is nan: a point is NaN"):
            block_bregman_distance(squared_norm_kernel(0), inside, np.array([math.nan]))


class TestPhiValue:
    def test_indicator_feasible(self):
        shapes = ((2,), (1, 2))
        problem = linear_problem(shapes, np.zeros(4), g=nonnegative_indicator())
        assert phi_value(problem, point(shapes, [0.0, 1.0, 2.0, 3.0])) == 0.0

    def test_indicator_infeasible(self):
        shapes = ((2,), (1, 2))
        problem = linear_problem(shapes, np.zeros(4), g=nonnegative_indicator())
        assert phi_value(problem, point(shapes, [0.0, 1.0, -0.5, 3.0])) == math.inf

    @pytest.mark.parametrize(
        "z, value",
        [
            ([0.0, 1.0], 0.0),
            ([-0.0, math.inf], 0.0),
            ([], 0.0),
            ([1.0, math.nan], math.inf),
            ([math.nan, 1.0], math.inf),
            ([2.0, -1e-300], math.inf),
            ([-math.inf], math.inf),
        ],
    )
    def test_indicator_values(self, z, value):
        assert nonnegative_indicator().value(np.array(z)) == value

    def test_one_block_per_term_is_required(self):
        # a missing block would drop its g-term from phi; the count is checked
        # before any value, so an infeasible first block does not give inf
        shapes = ((2,), (1, 2))
        problem = linear_problem(shapes, np.zeros(4), g=nonnegative_indicator())
        for blocks in ((np.zeros(2),), (-np.ones(2),),
                       (np.zeros(2), np.zeros((1, 2)), np.zeros(1))):
            with pytest.raises(ValueError, match=f"the point has {len(blocks)} blocks and the problem 2"):
                phi_value(problem, BlockVector(blocks))

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
        gf = problem.f_block_grad(0, x)
        assert model_value(problem, 0.5, 0.2, 0, x, xp, x.block(0), f_grad=gf) == 0.0

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
            got = model_value(problem, 1.0, 0.0, 0, x, x, z, f_grad=problem.f_block_grad(0, x))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_tri_factorization_v_block_minimum(self):
        # scalar case X=4, U=1, V_k=0, alpha=0, gamma=0.9, a2=eps2=1:
        # model(z) = -4z + z^2/0.9, minimized at z*=1.8 with value -3.6
        inst = SymTriInstance(np.array([[4.0]]), 1)
        problem = stf.as_block_problem(inst)
        x = stf.pack_factors(inst, np.array([[1.0]]), np.array([[0.0]]))
        gf = problem.f_block_grad(1, x)
        at_min = model_value(problem, 0.9, 0.0, 1, x, x, np.array([[1.8]]), f_grad=gf)
        assert at_min == pytest.approx(-3.6, rel=1e-12)
        for z in (1.7, 1.9):
            assert model_value(problem, 0.9, 0.0, 1, x, x, np.array([[z]]), f_grad=gf) > at_min

    def test_infeasible_returns_inf(self):
        problem = linear_problem(((2,),), np.zeros(2), g=nonnegative_indicator())
        x = BlockVector(([1.0, 1.0],))
        z = np.array([-1.0, 0.0])
        assert model_value(problem, 1.0, 0.0, 0, x, x, z, f_grad=np.zeros(2)) == math.inf

    def test_invalid_gamma(self):
        problem = linear_problem(((2,),), np.zeros(2))
        x = BlockVector(([0.0, 0.0],))
        with pytest.raises(ParameterError):
            model_value(problem, 0.0, 0.0, 0, x, x, np.zeros(2), f_grad=np.zeros(2))


class TestConstructionChecks:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan])
    def test_kernel_modulus_must_be_positive(self, sigma):
        base = squared_norm_kernel(0)
        with pytest.raises(ParameterError, match=f"sigma must be positive, got {sigma}"):
            BlockKernel(value=base.value, block_grad=base.block_grad, distance=base.distance,
                        sigma=sigma)

    @pytest.mark.parametrize("field, value, message", [
        ("kernels", (), "kernels/L/g must all have length 2, got 0/2/2"),
        ("L", (1.0,), "kernels/L/g must all have length 2, got 2/1/2"),
        ("g", (zero_term(),) * 3, "kernels/L/g must all have length 2, got 2/2/3"),
        ("L", (1.0, 0.0), r"all L_i must be positive, got \(1.0, 0.0\)"),
        ("L", (-2.0, 1.0), r"all L_i must be positive, got \(-2.0, 1.0\)"),
        ("L", (1.0, math.nan), r"all L_i must be positive, got \(1.0, nan\)"),
    ])
    def test_problem_checks_lengths_and_constants(self, field, value, message):
        good = linear_problem(((2,), (1,)), np.zeros(3))
        fields = dict(shapes=good.shapes, f_value=good.f_value, f_block_grad=good.f_block_grad,
                      kernels=good.kernels, L=good.L, g=good.g)
        with pytest.raises(ParameterError, match=message):
            BlockProblem(**{**fields, field: value})
