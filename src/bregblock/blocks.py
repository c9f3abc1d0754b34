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
    """A point lies outside a kernel's domain, or is NaN."""


class ParameterError(ValueError):
    """A numeric parameter or shape is outside its admissible range."""


def _readonly(a) -> Array:
    """``a`` as a read-only float array that shares memory with read-only
    arrays only: a read-only view of a writable array is copied."""
    owner = a if isinstance(a, np.ndarray) and a.dtype == np.float64 else None
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        if owner.base is None:
            return a
        owner = owner.base
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class BlockVector:
    """Immutable point (x_1, ..., x_N).  Every block is a read-only array
    whose memory no writable array shares, so a block's identity names its
    values: applications may key what they derive from a point by it."""

    blocks: tuple[Array, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "blocks", tuple(_readonly(b) for b in self.blocks))

    def block(self, i: int) -> Array:
        return self.blocks[i]

    def with_block(self, i: int, values: Array) -> "BlockVector":
        """New point with block i replaced by ``values``, the only block it
        checks: the others passed when this point was made and are shared, and
        so is ``values`` when it is a read-only array that owns its memory."""
        blocks = list(self.blocks)
        blocks[i] = _readonly(values)
        point = object.__new__(BlockVector)
        object.__setattr__(point, "blocks", tuple(blocks))
        return point


@dataclass(frozen=True)
class BlockKernel:
    """The kernel h_i of one block i, fixed by its place in
    ``BlockProblem.kernels``.

    ``sigma`` is its strong-convexity modulus along block i, supplied by
    the application layer.  ``block_grad(x)`` returns grad_i h_i(x), in the
    block's shape.  ``distance(x, y_i)`` returns the exact Bregman distance
    D_{h_i}(x | x_i <- y_i, x) along block i, in a form that does not
    cancel as the two points approach each other; it is not finite (NaN or
    inf) when a point lies outside the kernel's domain.  ``value`` is +inf
    (or any non-finite value) outside the domain; only checks and
    references evaluate it.
    """

    value: Callable[[BlockVector], float]
    block_grad: Callable[[BlockVector], Array]
    distance: Callable[[BlockVector, Array], float]
    sigma: float

    def __post_init__(self) -> None:
        if not self.sigma > 0:
            raise ParameterError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class NonsmoothBlock:
    """Nonsmooth term g_i on one block.

    ``value`` returns an extended real (math.inf outside the domain).
    ``solver`` is the block's exact subproblem solver; ``run`` needs one on
    every block.  It is called as ``solver(problem, schedule, i, x_current,
    x_prev, f_grad=...)`` with f_grad = grad_i f(x_current), passed
    read-only, and returns (z, eta): the exact minimizer z of the block
    model and the element of the subdifferential of g_i at z that the
    model's first-order condition exhibits,
        eta = (grad_i h_i(x_current) - grad_i h_i(z)) / gamma_i
              + (alpha_i/gamma_i)(x_current_i - x_prev_i) - grad_i f(x_current).
    ``run`` checks once, at x0, that it returns such a pair in the block's
    shape with a feasible z; the sweeps trust it from then on.
    ``project``, a Euclidean projection onto dom g_i, serves only the
    projected-gradient reference oracle in diagnostics.
    """

    value: Callable[[Array], float]
    solver: Callable | None = None
    project: Callable[[Array], Array] | None = None


def nonnegative_indicator() -> NonsmoothBlock:
    """Indicator of the nonnegative orthant with its exact projection."""

    def value(z: Array) -> float:
        # a NaN minimum compares false, so NaN entries are infeasible
        return 0.0 if np.asarray(z).min(initial=0.0) >= 0.0 else math.inf

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


def block_bregman_distance(kernel: BlockKernel, x: BlockVector, y_i: Array) -> float:
    """Bregman distance of the kernel of block i from x to (x with block i
    replaced by y_i): h_i(x | x_i <- y_i) - h_i(x) - <grad_i h_i(x), y_i - x_i>,
    as the kernel's exact ``distance``.  Raises DomainError, with the value,
    when it is not finite."""
    d = float(kernel.distance(x, y_i))
    if not math.isfinite(d):
        raise DomainError(f"Bregman distance is {d}: a point is NaN or outside the kernel's domain")
    return d


def phi_value(problem: BlockProblem, x: BlockVector) -> float:
    """Composite objective f(x) + sum_i g_i(x_i), +inf when any g_i is.  x
    must have one block per g_i (ValueError)."""
    if len(x.blocks) != len(problem.g):
        raise ValueError(f"the point has {len(x.blocks)} blocks and the problem {len(problem.g)}")
    total = 0.0
    for term, block in zip(problem.g, x.blocks):
        gi = float(term.value(block))
        if math.isinf(gi):
            return math.inf
        total += gi
    return total + float(problem.f_value(x))


def model_value(problem: BlockProblem, gamma: float, alpha: float, i: int, x_k: BlockVector,
                x_prev: BlockVector, z: Array, *, f_grad: Array) -> float:
    """Value of the inertial linearized block model at trial point z, with
    f_grad = grad_i f(x_k):
    <f_grad - (alpha/gamma)(x_k_i - x_prev_i), z - x_k_i>
      + (1/gamma) * D_{h_i}(x_k | block i <- z, x_k) + g_i(z)."""
    smooth = _block_model(problem, gamma, alpha, i, x_k, x_prev, f_grad)[1]
    gz = float(problem.g[i].value(z))
    return math.inf if math.isinf(gz) else smooth(z) + gz


def _block_model(problem: BlockProblem, gamma: float, alpha: float, i: int, x_k: BlockVector,
                 x_prev: BlockVector, f_grad: Array) -> tuple[Array, Callable[[Array], float]]:
    """The linear coefficient f_grad - (alpha/gamma)(x_k_i - x_prev_i) of
    model_value, formed once, and the model without its g_i term as a
    function of z."""
    if not gamma > 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    xi = x_k.block(i)
    step = f_grad - (alpha / gamma) * (xi - x_prev.block(i))

    def smooth(z: Array) -> float:
        lin = float(np.vdot(step, z - xi))
        return lin + block_bregman_distance(problem.kernels[i], x_k, z) / gamma

    return step, smooth


def full_gradient(problem: BlockProblem, x: BlockVector) -> Array:
    """The block gradients of f at x, flattened and concatenated."""
    return np.concatenate([np.ravel(problem.f_block_grad(i, x)) for i in range(problem.N)])
