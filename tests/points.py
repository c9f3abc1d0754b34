"""Build block points from flat data and back, and the Euclidean kernel and
zero nonsmooth term, for tests over vector blocks."""

import numpy as np

from bregblock import BlockKernel, BlockVector, NonsmoothBlock


def point(shapes, data):
    """The point whose blocks, flattened and concatenated, are ``data``."""
    cuts = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
    parts = np.split(np.asarray(data, dtype=float), cuts)
    return BlockVector(tuple(p.reshape(s) for p, s in zip(parts, shapes)))


def flat(x):
    """The blocks of x, flattened and concatenated."""
    return np.concatenate([b.ravel() for b in x.blocks])


def zero_term():
    """g == 0 with the identity projection."""
    return NonsmoothBlock(value=lambda z: 0.0, project=lambda z: np.asarray(z, dtype=float))


def squared_norm_kernel(i):
    """The Euclidean kernel h_i(x) = ||x_i||^2 / 2 of block i (modulus 1)."""
    return BlockKernel(
        value=lambda x: 0.5 * float(np.vdot(x.block(i), x.block(i))),
        block_grad=lambda x: np.array(x.block(i)),
        distance=lambda x, y_i: 0.5 * float(np.vdot(y_i - x.block(i), y_i - x.block(i))),
        sigma=1.0,
    )
