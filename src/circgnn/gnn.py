"""Sample-based GNN inference over dense or block-circulant weights.

Every layer splits into aggregation (pull a fixed-size neighbor sample into
one vector) and combination (one weight multiply plus a nonlinearity).
Four variants are supported:

  gcn     a_v = sum_u h_u / sqrt(deg(u) deg(v));      combine Relu(W a_v)
  gspool  a_v = elementwise-max_u Relu(W_pool h_u+b); combine Relu(W [a_v, h_v])
  ggcn    a_v = sum_u sigmoid(W_H h_u + W_C h_v)*h_u; combine Relu(W a_v)
  gat     per head: alpha = softmax_j LeakyRelu(att @ [W_att h_v, W_att h_j]),
          head output sum_j alpha_j h_j over the raw neighbor features,
          heads concatenated;                          combine Elu(W a_v)

Neighbor samples are drawn with replacement, GraphSAGE style, and the
per-node sample seed is derived from (batch seed, layer, node).  ``forward``
evaluates a batch layer by layer (GraphSAGE minibatch scheme), so each
weight multiplies each distinct node that needs it once per layer, and
every output row is bit-identical whatever else is in the batch.

Which weights a layer holds is decided in one place, ``weight_shapes``;
validation, random initialisation, densification, serialization and the
CLI's compression all walk a layer's weights through it and ``map_slots``.
Any weight matrix, the attention projections included, may be dense or
block-circulant; bias and attention scoring vectors are always dense.
Weight multiplies dispatch on type: a numpy array multiplies densely, a
BlockCirculantMatrix goes through the spectral path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .circulant import BlockCirculantMatrix, bc_matvec, new_random, require_power_of_two, to_dense
from .errors import SchemaError
from .graph import Graph, degrees, sample_neighbors


class Variant(str, Enum):
    GCN = "gcn"
    GS_POOL = "gspool"
    G_GCN = "ggcn"
    GAT = "gat"


_LEAKY_SLOPE = 0.2


def activation(kind: str, x):
    """Element-wise nonlinearity: relu, elu, sigmoid, exp, or leaky_relu."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "elu":
        return np.where(x > 0, x, np.expm1(x))
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-x))
    if kind == "exp":
        return np.exp(x)
    if kind == "leaky_relu":
        return np.where(x > 0, x, _LEAKY_SLOPE * x)
    raise SchemaError(f"unknown activation {kind!r}")


def matvec(weight, x) -> np.ndarray:
    """Multiply a vector, or each row of a (B, cols) batch, by a dense or block-circulant weight.

    Dense weights run one product per row, never one gemm over the batch,
    whose rounding would depend on which rows share it.
    """
    if isinstance(weight, BlockCirculantMatrix):
        return bc_matvec(weight, x)
    weight = np.asarray(weight)
    x = np.asarray(x, dtype=np.float64)
    if weight.ndim != 2 or x.ndim not in (1, 2) or weight.shape[1] != x.shape[-1]:
        raise SchemaError(f"cannot multiply {weight.shape} by {x.shape}")
    return np.matmul(x[..., None, :], weight.T)[..., 0, :]


@dataclass(frozen=True)
class GnnModelConfig:
    """Model hyperparameters; dims[k] is the (input, output) pair of layer k."""

    variant: Variant
    dims: tuple[tuple[int, int], ...]
    sample_sizes: tuple[int, ...]
    block_size: int = 1  # 1 means dense weights
    gat_heads: int = 1
    gat_head_dim: int = 0

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "dims", tuple(tuple(d) for d in self.dims))
        object.__setattr__(self, "sample_sizes", tuple(self.sample_sizes))
        if not self.dims:
            raise SchemaError("model needs at least one layer")
        counts = [*sum(self.dims, ()), *self.sample_sizes, self.block_size, self.gat_heads,
                  self.gat_head_dim]
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in counts):
            raise SchemaError("dims, sample sizes, block_size and gat fields must be integers")
        if len(self.sample_sizes) != len(self.dims):
            raise SchemaError("need one sample size per layer")
        for k, (din, dout) in enumerate(self.dims):
            if din < 1 or dout < 1:
                raise SchemaError(f"layer {k}: dims must be positive")
            if k > 0 and din != self.dims[k - 1][1]:
                raise SchemaError(
                    f"layer {k}: input dim {din} != previous output {self.dims[k - 1][1]}"
                )
        if any(s < 1 for s in self.sample_sizes):
            raise SchemaError("sample sizes must be >= 1")
        require_power_of_two(self.block_size, 1)
        if self.variant is Variant.GAT:
            if self.gat_heads < 1 or self.gat_head_dim < 1:
                raise SchemaError("gat variant needs gat_heads >= 1 and gat_head_dim >= 1")

    @property
    def num_layers(self) -> int:
        return len(self.dims)


@dataclass
class LayerWeights:
    """Named weights of one layer; unused slots stay None.

    W is the combination weight for every variant.  gspool adds W_pool and
    bias b; ggcn adds the gate weights W_H (neighbor) and W_C (center); gat
    replaces aggregation weights with per-head attention projections W_att
    and scoring vectors a_att (the scoring vectors are always dense).
    """

    W: object
    W_pool: object = None
    b: np.ndarray | None = None
    W_H: object = None
    W_C: object = None
    W_att: list | None = None
    a_att: list[np.ndarray] | None = None


# Slots that hold one entry per attention head, and slots that hold vectors.
PER_HEAD_SLOTS = frozenset({"W_att", "a_att"})
VECTOR_SLOTS = frozenset({"b", "a_att"})


def weight_shapes(config: GnnModelConfig, layer: int) -> dict[str, tuple[int, ...]]:
    """The slots a layer of the configured variant fills, in draw order, with their shapes.

    A per-head slot maps to the shape of one head.  This table is the one
    place that says which weights a variant holds.
    """
    din, dout = config.dims[layer]
    v = config.variant
    if v is Variant.GCN:
        return {"W": (dout, din)}
    if v is Variant.GS_POOL:
        return {"W": (dout, 2 * din), "W_pool": (din, din), "b": (din,)}
    if v is Variant.G_GCN:
        return {"W": (dout, din), "W_H": (din, din), "W_C": (din, din)}
    hd = config.gat_head_dim
    return {"W": (dout, config.gat_heads * din), "W_att": (hd, din), "a_att": (2 * hd,)}


def map_slots(slots, fn) -> dict:
    """fn(slot, label, weight) for every filled slot of a mapping, head by head.

    ``slots`` is a LayerWeights' ``vars`` or a weight file's layer object;
    slots outside LayerWeights are ignored.  The label names the weight as
    reports print it: the slot, or ``W_att[i]`` for head i.
    """
    out = {}
    for f in fields(LayerWeights):
        value = slots.get(f.name)
        if value is None:
            continue
        if f.name not in PER_HEAD_SLOTS:
            out[f.name] = fn(f.name, f.name, value)
        elif isinstance(value, list):
            out[f.name] = [fn(f.name, f"{f.name}[{i}]", w) for i, w in enumerate(value)]
        else:
            raise SchemaError(f"{f.name} must be a list with one entry per head")
    return out


def validate_layer_weights(config: GnnModelConfig, layer: int, lw: LayerWeights) -> None:
    """Check that one layer holds exactly the slots and shapes the variant implies."""
    shapes = weight_shapes(config, layer)
    filled = {f.name for f in fields(LayerWeights) if getattr(lw, f.name) is not None}
    if filled != set(shapes):
        raise SchemaError(
            f"layer {layer}: {config.variant.value} needs weights {sorted(shapes)}, "
            f"got {sorted(filled)}"
        )
    for slot in PER_HEAD_SLOTS & filled:
        if len(getattr(lw, slot)) != config.gat_heads:
            raise SchemaError(f"layer {layer}: gat needs {config.gat_heads} heads of {slot}")

    def check(slot, label, w):
        got = w.shape if isinstance(w, BlockCirculantMatrix) else np.shape(w)
        if tuple(got) != shapes[slot]:
            raise SchemaError(
                f"layer {layer}: weight {label} has shape {tuple(got)}, expected {shapes[slot]}"
            )

    map_slots(vars(lw), check)


@dataclass
class GnnModel:
    config: GnnModelConfig
    layers: list[LayerWeights]

    def __post_init__(self):
        if len(self.layers) != self.config.num_layers:
            raise SchemaError(
                f"model has {len(self.layers)} weight layers for "
                f"{self.config.num_layers} configured layers"
            )
        for k, lw in enumerate(self.layers):
            validate_layer_weights(self.config, k, lw)


def _random_weight(shape: tuple[int, ...], block_size: int, rng):
    bound = 1.0 / np.sqrt(shape[-1])
    if len(shape) == 1 or block_size == 1:
        return rng.uniform(-bound, bound, size=shape)
    return new_random(*shape, block_size, int(rng.integers(0, 2**63 - 1)))


def random_weights(config: GnnModelConfig, seed: int) -> list[LayerWeights]:
    """Random weights for a config, uniform in +-1/sqrt(cols) (vectors: +-1/sqrt(len)).

    Matrices are block-circulant unless block_size is 1; vectors are always dense.
    """
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(config.num_layers):
        slots = {}
        for slot, shape in weight_shapes(config, k).items():
            count = config.gat_heads if slot in PER_HEAD_SLOTS else 1
            drawn = [_random_weight(shape, config.block_size, rng) for _ in range(count)]
            slots[slot] = drawn if slot in PER_HEAD_SLOTS else drawn[0]
        layers.append(LayerWeights(**slots))
    return layers


def densify_weights(layers: list[LayerWeights]) -> list[LayerWeights]:
    """Expand every compressed weight to its exactly-equivalent dense form."""

    def dense(slot, label, w):
        return to_dense(w) if isinstance(w, BlockCirculantMatrix) else w

    return [LayerWeights(**map_slots(vars(lw), dense)) for lw in layers]


# --- aggregation -----------------------------------------------------------
#
# Aggregations take ``h``, one row per distinct sampled node of the layer,
# and ``idx[f, s]``, the row of the s-th sample of frontier node f.  Results
# are reduced over the samples one column of ``idx`` at a time, in sample
# order, so no (frontier, samples, dim) array is ever built.


def _over_samples(op, idx: np.ndarray, term) -> np.ndarray:
    """op-fold of term(s, idx[:, s]) over the samples, in sample order."""
    return functools.reduce(op, (term(s, col) for s, col in enumerate(idx.T)))


def aggregate_gcn(g: Graph, h, idx: np.ndarray, u, v) -> np.ndarray:
    """Degree-normalized sum: row f is sum_s h[idx[f, s]] / sqrt(deg(u_s) deg(v_f)).

    u holds the node IDs of the rows of h, v the frontier node IDs.  Degrees
    come from the full graph; zero degrees count as one so isolated nodes
    (which sample themselves) stay well defined.
    """
    deg = np.maximum(degrees(g), 1)
    norm = np.sqrt(deg[u][idx] * deg[v][:, None])
    return _over_samples(np.add, idx, lambda s, col: h[col] / norm[:, s, None])


def aggregate_gspool(h, idx: np.ndarray, w_pool, b) -> np.ndarray:
    """Element-wise max over the samples of Relu(W_pool h_u + b); order independent."""
    pooled = activation("relu", matvec(w_pool, h) + b)
    return _over_samples(np.maximum, idx, lambda s, col: pooled[col])


def aggregate_ggcn(h, idx: np.ndarray, h_v, w_h, w_c) -> np.ndarray:
    """Gated sum: row f is sum_s sigmoid(W_H h_u + W_C h_v) * h_u with u = idx[f, s].

    The gate dimension equals the feature dimension, so the sigmoid output
    multiplies h_u element-wise.  W_H runs once per distinct sampled node
    and W_C once per frontier node.
    """
    neighbor = matvec(w_h, h)
    center = matvec(w_c, h_v)
    if neighbor.shape != h.shape:
        raise SchemaError("ggcn gate dimension must equal the feature dimension")
    return _over_samples(
        np.add, idx, lambda s, col: activation("sigmoid", neighbor[col] + center) * h[col]
    )


def aggregate_gat(h, idx: np.ndarray, h_v, lw: LayerWeights) -> np.ndarray:
    """Multi-head attention over the samples, heads concatenated.

    Scores use projected features, e_s = LeakyRelu(a @ [W_att h_v, W_att h_s]),
    softmax-normalized over the samples; the attention weights then mix the
    raw neighbor features h_s, and each head contributes a vector of the
    input width.
    """
    heads = []
    for w_att, a_att in zip(lw.W_att, lw.a_att):
        hd = a_att.shape[0] // 2
        # per-row products and explicit folds: a gemv or numpy reduction over
        # many rows may sum in an order that depends on their number and layout
        center = np.matmul(matvec(w_att, h_v)[:, None, :], a_att[:hd])[:, 0]
        neighbor = np.matmul(matvec(w_att, h)[:, None, :], a_att[hd:])[:, 0]
        scores = activation("leaky_relu", center[:, None] + neighbor[idx])
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        alpha = weights / _over_samples(np.add, idx, lambda s, col: weights[:, s, None])
        heads.append(_over_samples(np.add, idx, lambda s, col: alpha[:, s, None] * h[col]))
    return np.concatenate(heads, axis=-1)


# --- combination and the forward pass --------------------------------------


def combine(variant: Variant, a_v: np.ndarray, h_v: np.ndarray, w) -> np.ndarray:
    """Apply the combination weight and the variant's nonlinearity, row by row."""
    variant = Variant(variant)
    x = np.asarray(a_v, dtype=np.float64)
    if variant is Variant.GS_POOL:
        x = np.concatenate([x, np.asarray(h_v, dtype=np.float64)], axis=-1)
    return activation("elu" if variant is Variant.GAT else "relu", matvec(w, x))


def derived_seed(seed: int, layer: int, node: int) -> int:
    """Stable per-(layer, node) sampling seed; independent of visit order."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(layer, node))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def forward(model: GnnModel, g: Graph, batch, seed: int) -> np.ndarray:
    """Embeddings of the batch nodes after all layers; shape (len(batch), out_dim).

    The frontier is expanded from the distinct batch nodes outward, sampling
    every frontier node of layer k once; then the layers run bottom-up over
    row batches.  Each output row depends only on its own node, bit for bit,
    because sampling seeds depend only on (seed, layer, node).
    """
    cfg = model.config
    if g.feature_dim != cfg.dims[0][0]:
        raise SchemaError(
            f"graph features have dim {g.feature_dim}, model expects {cfg.dims[0][0]}"
        )
    batch = np.asarray(batch, dtype=np.int64).reshape(-1)
    if batch.size == 0 or batch.min() < 0 or batch.max() >= g.num_nodes:
        raise SchemaError(f"batch must be nonempty, with nodes in [0, {g.num_nodes})")

    # frontier[k]: sorted nodes whose layer-k output is needed; samples[k]
    # holds the layer-(k + 1) samples of frontier[k + 1], one row per node
    frontier, samples = [np.unique(batch)], []
    for k in range(cfg.num_layers, 0, -1):
        drawn = np.stack([
            sample_neighbors(g, int(v), cfg.sample_sizes[k - 1], derived_seed(seed, k, int(v)))
            for v in frontier[0]
        ])
        samples.insert(0, drawn)
        frontier.insert(0, np.union1d(frontier[0], drawn))

    h = g.features[frontier[0]]
    for k, lw in enumerate(model.layers):
        below, centers = frontier[k], frontier[k + 1]
        u, idx = np.unique(samples[k], return_inverse=True)
        idx = idx.reshape(samples[k].shape)
        h_u = h[np.searchsorted(below, u)]
        h_v = h[np.searchsorted(below, centers)]
        if cfg.variant is Variant.GCN:
            a_v = aggregate_gcn(g, h_u, idx, u, centers)
        elif cfg.variant is Variant.GS_POOL:
            a_v = aggregate_gspool(h_u, idx, lw.W_pool, lw.b)
        elif cfg.variant is Variant.G_GCN:
            a_v = aggregate_ggcn(h_u, idx, h_v, lw.W_H, lw.W_C)
        else:
            a_v = aggregate_gat(h_u, idx, h_v, lw)
        h = combine(cfg.variant, a_v, h_v, lw.W)
    return h[np.searchsorted(frontier[-1], batch)]
