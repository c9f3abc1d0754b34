"""Build block points from flat data and back, for tests over vector blocks."""

import numpy as np

from bregblock import BlockVector


def point(shapes, data):
    """The point whose blocks, flattened and concatenated, are ``data``."""
    cuts = np.cumsum([int(np.prod(s)) for s in shapes])[:-1]
    parts = np.split(np.asarray(data, dtype=float), cuts)
    return BlockVector(tuple(p.reshape(s) for p, s in zip(parts, shapes)))


def flat(x):
    """The blocks of x, flattened and concatenated."""
    return np.concatenate([b.ravel() for b in x.blocks])
