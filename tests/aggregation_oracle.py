"""The sample-order aggregations, kept only as the tests' oracle.

Each function below takes the engine's arguments (g, lw, h_u, idx, u, h_v,
v) and reduces row f over all S samples of idx[f], in sample order, one
full-width step per sample: a node drawn c times enters the sum c times.
The engine folds over a row's distinct samples instead, weighted by their
draw counts, so the two agree up to rounding, and gspool's max bit for bit.
"""

import functools

import numpy as np

from circgnn import activation
from circgnn.gnn import matvec
from circgnn.graph import degrees


def _over_samples(op, idx, term):
    """op-fold of term(s, idx[:, s]) over the samples, in sample order."""
    return functools.reduce(op, (term(s, col) for s, col in enumerate(idx.T)))


def aggregate_gcn(g, lw, h_u, idx, u, h_v, v):
    deg = np.maximum(degrees(g), 1)
    norm = np.sqrt(deg[u][idx] * deg[v][:, None])
    return _over_samples(np.add, idx, lambda s, col: h_u[col] / norm[:, s, None])


def aggregate_gspool(g, lw, h_u, idx, u, h_v, v):
    pooled = activation("relu", matvec(lw.W_pool, h_u) + lw.b)
    return _over_samples(np.maximum, idx, lambda s, col: pooled[col])


def aggregate_ggcn(g, lw, h_u, idx, u, h_v, v):
    neighbor = matvec(lw.W_H, h_u)
    center = matvec(lw.W_C, h_v)
    return _over_samples(
        np.add, idx, lambda s, col: activation("sigmoid", neighbor[col] + center) * h_u[col]
    )


def aggregate_gat(g, lw, h_u, idx, u, h_v, v):
    heads = []
    for c, e in lw.attention_folds:
        center = np.matmul(h_v[:, None, :], c)[:, 0]
        neighbor = np.matmul(h_u[:, None, :], e)[:, 0]
        scores = activation("leaky_relu", center[:, None] + neighbor[idx])
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = weights / _over_samples(np.add, idx, lambda s, col: weights[:, s, None])
        heads.append(_over_samples(np.add, idx, lambda s, col: alpha[:, s, None] * h_u[col]))
    return np.concatenate(heads, axis=-1)
