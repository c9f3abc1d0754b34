"""Block-structured points, kernels, and Bregman distances.

A point x = (x_1, ..., x_N) is a tuple of N blocks, each an array in its
natural shape (a vector, a matrix).  Everything downstream (the solver,
the applications, the diagnostics) speaks this vocabulary: kernels and
nonsmooth terms are attached per block, and the Bregman distance is always
taken along a single block while the others stay frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


class DomainError(ValueError):
    """A point lies outside a kernel's domain."""


class ParameterError(ValueError):
    """A numeric parameter or shape is outside its admissible range."""


def _readonly(a) -> Array:
    """``a`` as a read-only float array; one that already is one is shared."""
    if isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BlockVector:
    """Immutable point (x_1, ..., x_N); every block is a read-only array."""

    blocks: tuple[Array, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(_readonly(b) for b in self.blocks))

    def block(self, i: int) -> Array:
        return self.blocks[i]

    def with_block(self, i: int, values: Array) -> "BlockVector":
        """New point with block i replaced by ``values``; the other blocks
        are shared, not copied."""
        blocks = list(self.blocks)
        blocks[i] = values
        return BlockVector(tuple(blocks))


@dataclass(frozen=True)
class BlockKernel:
    """One kernel h with its per-block gradient.

    ``sigma`` is the block strong-convexity modulus supplied by the
    application layer.  ``block_grad(i, x)`` returns the gradient of h with
    respect to block i, in the block's shape; kernels may support only
    their own block.  ``value`` is +inf (or any non-finite value) outside
    the kernel's domain.
    """

    value: Callable[[BlockVector], float]
    block_grad: Callable[[int, BlockVector], Array]
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class NonsmoothBlock:
    """Nonsmooth term g_i on one block.

    ``value`` returns an extended real (math.inf outside the domain).
    ``solver`` returns the exact minimizer of the block model and is called
    as ``solver(problem, schedule, i, x_current, x_prev)``; ``run`` needs
    one on every block.  ``project``, a Euclidean projection onto dom g_i,
    serves only the projected-gradient reference oracle in diagnostics.
    """

    value: Callable[[Array], float]
    solver: Callable | None = None
    project: Callable[[Array], Array] | None = None


def zero_term() -> NonsmoothBlock:
    """g == 0 with the identity projection."""
    return NonsmoothBlock(value=lambda z: 0.0, project=lambda z: np.asarray(z, dtype=float))


def nonnegative_indicator() -> NonsmoothBlock:
    """Indicator of the nonnegative orthant with its exact projection."""

    def value(z: Array) -> float:
        return 0.0 if np.all(np.asarray(z) >= 0.0) else math.inf

    def project(z: Array) -> Array:
        return np.maximum(np.asarray(z, dtype=float), 0.0)

    return NonsmoothBlock(value=value, project=project)


@dataclass(frozen=True)
class BlockProblem:
    """Everything the solver needs: f, its block gradients, kernels, g terms.

    ``shapes[i]`` is the shape of block i; ``L[i]`` is the
    relative-smoothness constant of f with respect to ``kernels[i]`` along
    block i.
    """

    shapes: tuple[tuple[int, ...], ...]
    f_value: Callable[[BlockVector], float]
    f_block_grad: Callable[[int, BlockVector], Array]
    kernels: tuple[BlockKernel, ...]
    L: tuple[float, ...]
    g: tuple[NonsmoothBlock, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shapes", tuple(tuple(int(d) for d in s) for s in self.shapes))
        object.__setattr__(self, "kernels", tuple(self.kernels))
        object.__setattr__(self, "L", tuple(float(v) for v in self.L))
        object.__setattr__(self, "g", tuple(self.g))
        N = self.N
        if not (len(self.kernels) == len(self.L) == len(self.g) == N):
            raise ParameterError(
                f"kernels/L/g must all have length {N}, got "
                f"{len(self.kernels)}/{len(self.L)}/{len(self.g)}"
            )
        if any(not v > 0 for v in self.L):
            raise ParameterError(f"all L_i must be positive, got {self.L}")

    @property
    def N(self) -> int:
        return len(self.shapes)

    @property
    def sigma(self) -> tuple[float, ...]:
        return tuple(k.sigma for k in self.kernels)


def block_bregman_distance(kernel: BlockKernel, i: int, x: BlockVector, y_i: Array) -> float:
    """Bregman distance from x to (x with block i replaced by y_i).

    Returns h(x | x_i <- y_i) - h(x) - <grad_i h(x), y_i - x_i>.  For
    block-convex kernels the result is nonnegative; cancellation-level
    negative roundoff is clamped to zero, anything larger is returned as is.
    """
    hx = float(kernel.value(x))
    hy = float(kernel.value(x.with_block(i, y_i)))
    if not (math.isfinite(hx) and math.isfinite(hy)):
        raise DomainError("kernel value is not finite: a point lies outside its domain")
    inner = float(np.vdot(kernel.block_grad(i, x), y_i - x.block(i)))
    d = hy - hx - inner
    if d < 0.0:
        slack = 1e-12 * (abs(hx) + abs(hy) + abs(inner) + 1.0)
        if d >= -slack:
            return 0.0
    return d


def phi_value(problem: BlockProblem, x: BlockVector) -> float:
    """Composite objective f(x) + sum_i g_i(x_i), +inf when any g_i is."""
    total = 0.0
    for i, term in enumerate(problem.g):
        gi = float(term.value(x.block(i)))
        if math.isinf(gi):
            return math.inf
        total += gi
    return total + float(problem.f_value(x))


def model_value(
    problem: BlockProblem,
    gamma: float,
    alpha: float,
    i: int,
    x_k: BlockVector,
    x_prev: BlockVector,
    z: Array,
) -> float:
    """Value of the inertial linearized block model at trial point z.

    <grad_i f(x_k) - (alpha/gamma)(x_k_i - x_prev_i), z - x_k_i>
      + (1/gamma) * D_{h_i}(x_k | block i <- z, x_k) + g_i(z)
    """
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    gz = float(problem.g[i].value(z))
    if math.isinf(gz):
        return math.inf
    xi = x_k.block(i)
    step = problem.f_block_grad(i, x_k) - (alpha / gamma) * (xi - x_prev.block(i))
    lin = float(np.vdot(step, z - xi))
    breg = block_bregman_distance(problem.kernels[i], i, x_k, z)
    return lin + breg / gamma + gz


def full_gradient(problem: BlockProblem, x: BlockVector) -> Array:
    """The block gradients of f at x, flattened and concatenated."""
    return np.concatenate([np.ravel(problem.f_block_grad(i, x)) for i in range(problem.N)])


def squared_norm_kernel() -> BlockKernel:
    """The Euclidean kernel h(x) = ||x||^2 / 2 (modulus 1 on every block)."""
    return BlockKernel(
        value=lambda x: 0.5 * sum(float(np.vdot(b, b)) for b in x.blocks),
        block_grad=lambda i, x: np.array(x.block(i)),
        sigma=1.0,
    )
