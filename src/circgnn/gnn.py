"""Sample-based GNN inference over dense or block-circulant weights.

Every layer splits into aggregation (pull a fixed-size neighbor sample into
one vector) and combination (one weight multiply plus a nonlinearity).  All
four variants' aggregations take the same arguments, (g, lw, h_u, idx, u,
h_v, v), so every layer runs one ``aggregate_<variant>`` and one ``combine``:

  gcn     a_v = sum_u h_u / sqrt(deg(u) deg(v));      combine Relu(W a_v)
  gspool  a_v = elementwise-max_u Relu(W_pool h_u+b); combine Relu(W [a_v, h_v])
  ggcn    a_v = sum_u sigmoid(W_H h_u + W_C h_v)*h_u; combine Relu(W a_v)
  gat     per head: alpha = softmax_j LeakyRelu(att @ [W_att h_v, W_att h_j]),
          head output sum_j alpha_j h_j over the raw neighbor features,
          heads concatenated;                          combine Elu(W a_v)

Neighbor samples are drawn with replacement, GraphSAGE style, and the
per-node sample seed is derived from (batch seed, layer, node).  Draws
repeat, so every aggregation folds over a row's distinct samples in
ascending order, each term weighted by its draw count.  ``forward``
evaluates a batch layer by layer (GraphSAGE minibatch scheme), so each
weight multiplies each distinct node that needs it once per layer, and
every output row is bit-identical whatever else is in the batch.

Which weights a layer holds is decided in one place, ``weight_shapes``;
validation, random initialisation, densification, serialization and the
CLI's compression all walk a layer's weights through it and ``map_slots``.
Any weight matrix, the attention projections included, may be dense or
block-circulant at the config's block size; bias and attention scoring
vectors are always dense.
Weight multiplies dispatch on type: a BlockCirculantMatrix goes through the
spectral path, and a numpy array multiplies each row by the weight columns
of its nonzero inputs, read from the column-major copy ``GnnModel`` stores.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .circulant import BlockCirculantMatrix, bc_matvec, new_random, require_power_of_two, to_dense
from .errors import InternalConsistencyError, SchemaError
from .graph import Graph, sample_neighbors


class Variant(str, Enum):
    GCN = "gcn"
    GS_POOL = "gspool"
    G_GCN = "ggcn"
    GAT = "gat"


_LEAKY_SLOPE = 0.2
# Largest sample size a layer may draw: sampling holds that many node IDs per
# frontier node, and a size near the int64 range cannot even be allocated.
MAX_SAMPLE_SIZE = 2**16
# Bytes of dense weight per panel of ``matvec``: small enough to stay in L2
# while every dense row of the batch streams through it.
_PANEL_BYTES = 512 * 1024
# A row with at most cols / _SPARSE_CUT nonzeros multiplies only their weight
# columns.  Gathering them beat the panelled product below about 10% nonzeros
# for 128-row weights and 14% for 1433 x 1433 (64-row batches, one BLAS
# thread); 1/16 stays under both.
_SPARSE_CUT = 16


def activation(kind: str, x):
    """Element-wise nonlinearity: relu, elu, sigmoid, or leaky_relu."""
    x = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "elu":
        return np.where(x > 0, x, np.expm1(x))
    if kind == "sigmoid":
        with np.errstate(over="ignore"):  # exp(-x) = inf gives the exact limit 0
            return 1.0 / (1.0 + np.exp(-x))
    if kind == "leaky_relu":
        return np.where(x > 0, x, _LEAKY_SLOPE * x)
    raise SchemaError(f"unknown activation {kind!r}")


def matvec(weight, x) -> np.ndarray:
    """Multiply a vector, or each row of a (B, cols) batch, by a dense or block-circulant weight.

    A dense weight multiplies one row at a time, never in one gemm over the
    batch, whose rounding would depend on which rows share it.  It is read
    column-major, as ``GnnModel`` stores it, so that the weight columns of
    input j are row j of ``W.T``, contiguous in memory.  A row with at most
    cols / ``_SPARSE_CUT`` nonzeros multiplies only the rows of ``W.T`` at
    its nonzeros; every other row is multiplied by ``W.T`` in panels of
    ``_PANEL_BYTES`` worth of its rows, which stay in cache while the dense
    rows of the batch stream through, and the panel products are summed in
    panel order.  Which way a row goes, and every sum it takes, depend only
    on that row and on the weight's shape, so each output row is
    bit-identical whatever else is in the batch.
    """
    if isinstance(weight, BlockCirculantMatrix):
        return bc_matvec(weight, x)
    weight = np.asfortranarray(weight)  # a no-op for the weights of a GnnModel
    x = np.asarray(x, dtype=np.float64)
    if weight.ndim != 2 or x.ndim not in (1, 2) or weight.shape[1] != x.shape[-1]:
        raise SchemaError(f"cannot multiply {weight.shape} by {x.shape}")
    rows, cols = weight.shape
    by_input = weight.T
    x2 = x.reshape(-1, cols)
    out = np.empty((len(x2), rows))
    sparse = np.count_nonzero(x2, axis=1) * _SPARSE_CUT <= cols
    for i in np.flatnonzero(sparse):
        nz = np.flatnonzero(x2[i])
        out[i] = x2[i, nz] @ by_input[nz]
    dense = x2[~sparse]
    acc = np.zeros((len(dense), rows))
    step = max(1, _PANEL_BYTES // (8 * rows))
    for s in range(0, cols, step):
        acc += np.matmul(dense[:, None, s : s + step], by_input[s : s + step])[:, 0]
    out[~sparse] = acc
    return out.reshape(x.shape[:-1] + (rows,))


@dataclass(frozen=True)
class GnnModelConfig:
    """Model hyperparameters; dims[k] is the (input, output) pair of layer k."""

    variant: Variant
    dims: tuple[tuple[int, int], ...]
    sample_sizes: tuple[int, ...]
    block_size: int = 1  # of every block-circulant weight; dense weights are legal at any
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
        if any(not 1 <= s <= MAX_SAMPLE_SIZE for s in self.sample_sizes):
            raise SchemaError(f"sample sizes must lie in [1, {MAX_SAMPLE_SIZE}]")
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

    @functools.cached_property
    def attention_folds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per head, a_att folded through W_att: (W_att^T a_att[:hd], W_att^T a_att[hd:]).

        A score a_att @ [W_att h_v, W_att h_j] equals h_v @ c + h_j @ e for
        this pair (c, e), so scoring needs no W_att product per row.  Derived
        on first use and cached, like a compressed weight's spectra.
        """
        folds = []
        for w_att, a_att in zip(self.W_att, self.a_att):
            dense = to_dense(w_att) if isinstance(w_att, BlockCirculantMatrix) else w_att
            hd = a_att.shape[0] // 2
            folds.append((dense.T @ a_att[:hd], dense.T @ a_att[hd:]))
        return folds


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
    """Check that one layer holds exactly the slots and shapes the variant implies.

    A block-circulant weight must also have the config's block size.
    """
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
        if isinstance(w, BlockCirculantMatrix) and w.block_size != config.block_size:
            raise SchemaError(
                f"layer {layer}: weight {label} has block size {w.block_size}, "
                f"the model config says {config.block_size}"
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
            # dense matrices are stored column-major, the layout ``matvec`` reads;
            # the layer is updated in place so that its row-major originals can be freed
            vars(lw).update(map_slots(vars(lw), _column_major))


def _column_major(slot, label, w):
    if slot in VECTOR_SLOTS or isinstance(w, BlockCirculantMatrix):
        return w
    return np.asfortranarray(w)


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
# Every aggregation takes (g, lw, h_u, idx, u, h_v, v) and reads its own
# weights from the layer's ``lw``.  Row i of ``h_u`` belongs to sampled node
# u[i], row f of ``h_v`` to frontier node v[f], and idx[f, s] is the h_u row
# of v[f]'s s-th sample.  Each row is reduced over its distinct samples in
# ascending order, each term weighted by its draw count, one slot at a time
# and in place over the rows that have that slot, so no (frontier, samples,
# dim) array is ever built.


def _distinct_samples(idx: np.ndarray):
    """Run-length encode the rows of idx, most distinct samples first: (order, cols, counts).

    Row i of the (F, K) cols and counts is row order[i] of idx: its distinct
    samples, ascending, with their draw counts, then slots of count 0.
    """
    ordered = np.sort(idx, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    order = np.argsort(-first.sum(axis=1), kind="stable")
    ordered, first = ordered[order], first[order]
    at = (np.arange(len(ordered))[:, None], np.cumsum(first, axis=1) - 1)  # each draw's slot
    cols, counts = np.zeros((2, len(ordered), at[1][0, -1] + 1), dtype=np.int64)
    cols[at] = ordered  # a slot's draws all write the same node
    np.add.at(counts, at, 1)
    return order, cols, counts


def _over_samples(op, order: np.ndarray, counts: np.ndarray, term) -> np.ndarray:
    """op-fold of term(s, m) over the slots s, rows :m live at s; rows return in idx's order."""
    acc = np.array(term(0, len(counts)))  # a copy: the fold never writes into a view of an input
    for s, m in enumerate(np.count_nonzero(counts, axis=0).tolist()[1:], 1):
        op(acc[:m], term(s, m), out=acc[:m])
    return acc[np.argsort(order)]


def aggregate_gcn(g: Graph, lw: LayerWeights, h_u, idx: np.ndarray, u, h_v, v) -> np.ndarray:
    """Degree-normalized sum: row f is sum_s h_u[idx[f, s]] / sqrt(deg(u_s) deg(v_f)).

    Degrees come from the full graph; zero degrees count as one so isolated
    nodes (which sample themselves) stay well defined.  A sample drawn c
    times adds h_u / (norm / c): for c = 1 that is the sample-order term.
    """
    deg_u, deg_v = (np.maximum(g.csr_offsets[n + 1] - g.csr_offsets[n], 1) for n in (u, v))
    order, cols, counts = _distinct_samples(idx)
    norm = np.sqrt(deg_u[cols] * deg_v[order, None]) / np.maximum(counts, 1)
    return _over_samples(np.add, order, counts, lambda s, m: h_u[cols[:m, s]] / norm[:m, s, None])


def aggregate_gspool(g: Graph, lw: LayerWeights, h_u, idx: np.ndarray, u, h_v, v) -> np.ndarray:
    """Element-wise max over the samples of Relu(W_pool h_u + b); order and repeats ignored."""
    pooled = activation("relu", matvec(lw.W_pool, h_u) + lw.b)
    order, cols, counts = _distinct_samples(idx)
    return _over_samples(np.maximum, order, counts, lambda s, m: pooled[cols[:m, s]])


def aggregate_ggcn(g: Graph, lw: LayerWeights, h_u, idx: np.ndarray, u, h_v, v) -> np.ndarray:
    """Gated sum: row f is sum_s sigmoid(W_H h_u + W_C h_v) * h_u over the samples u.

    The gate dimension equals the feature dimension, so the sigmoid output
    multiplies h_u element-wise.  W_H runs once per distinct sampled node
    and W_C once per frontier node.
    """
    order, cols, counts = _distinct_samples(idx)
    neighbor = matvec(lw.W_H, h_u)
    center = matvec(lw.W_C, h_v[order])  # rows in encoded order
    if neighbor.shape != h_u.shape:
        raise SchemaError("ggcn gate dimension must equal the feature dimension")
    return _over_samples(np.add, order, counts, lambda s, m: activation(
        "sigmoid", neighbor[cols[:m, s]] + center[:m]) * h_u[cols[:m, s]] * counts[:m, s, None])


def aggregate_gat(g: Graph, lw: LayerWeights, h_u, idx: np.ndarray, u, h_v, v) -> np.ndarray:
    """Multi-head attention over the samples, heads concatenated.

    Scores use projected features, e_s = LeakyRelu(a @ [W_att h_v, W_att h_s]),
    softmax-normalized over the samples; the attention weights then mix the
    raw neighbor features h_s, and each head contributes a vector of the
    input width.  Each score is computed as h_v @ c + h_s @ e with the
    head's ``attention_folds``, so no W_att product runs.
    """
    order, cols, counts = _distinct_samples(idx)
    heads = []
    for c, e in lw.attention_folds:
        # per-row products and explicit folds: a gemv or numpy reduction over
        # many rows may sum in an order that depends on their number and layout
        center = np.matmul(h_v[order, None, :], c)[:, 0]
        neighbor = np.matmul(h_u[:, None, :], e)[:, 0]
        scores = activation("leaky_relu", center[:, None] + neighbor[cols])
        scores[counts == 0] = -np.inf  # empty slots; scores is a fresh array
        weights = np.exp(scores - scores.max(axis=1, keepdims=True)) * counts
        total = _over_samples(np.add, order, counts, lambda s, m: weights[:m, s, None])
        alpha = weights / total[order]
        heads.append(_over_samples(
            np.add, order, counts, lambda s, m: alpha[:m, s, None] * h_u[cols[:m, s]]))
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
    because sampling seeds depend only on (seed, layer, node).  Each
    layer's output must be finite, or InternalConsistencyError is raised;
    the arithmetic runs with numpy's floating-point warnings off, so that
    check, not a warning, reports an overflow.
    """
    cfg = model.config
    if g.feature_dim != cfg.dims[0][0]:
        raise SchemaError(
            f"graph features have dim {g.feature_dim}, model expects {cfg.dims[0][0]}"
        )
    batch = np.asarray(batch, dtype=object).reshape(-1)  # Python ints until range-checked
    if not all(isinstance(b, (int, np.integer)) and not isinstance(b, bool) for b in batch):
        raise SchemaError("batch node IDs must be integers")
    if batch.size == 0:
        raise SchemaError("batch must be nonempty")
    inside = ((batch >= 0) & (batch < g.num_nodes)).astype(bool)
    if not inside.all():
        raise SchemaError(f"batch node {batch[~inside][0]} out of range [0, {g.num_nodes})")
    batch = batch.astype(np.int64)

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
        with np.errstate(all="ignore"):
            # looked up per call, so a wrapper swapped onto the module attribute is called
            a_v = globals()[f"aggregate_{cfg.variant.value}"](g, lw, h_u, idx, u, h_v, centers)
            h = combine(cfg.variant, a_v, h_v, lw.W)
        if not np.isfinite(h).all():
            raise InternalConsistencyError(f"layer {k}: non-finite output")
    return h[np.searchsorted(frontier[-1], batch)]
