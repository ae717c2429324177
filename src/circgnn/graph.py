"""Graph storage and sampling.

Graphs are directed and stored in CSR form: ``csr_offsets`` has one entry
per node plus a terminator, ``csr_neighbors`` holds the out-neighbors of
node v in the half-open slice ``csr_offsets[v]:csr_offsets[v+1]``.
Datasets that are logically undirected are expected to list both arcs.
Node features, when present, sit in a dense (num_nodes, feature_dim) array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputParseError, SchemaError


@dataclass(frozen=True)
class GraphStats:
    """Dataset summary used by the cost model and profiler without loading full data."""

    num_nodes: int
    num_edges: int
    feature_dim: int
    num_labels: int

    def __post_init__(self):
        for name in ("num_nodes", "num_edges", "feature_dim", "num_labels"):
            if getattr(self, name) < 0:
                raise SchemaError(f"GraphStats.{name} must be non-negative")


# Published statistics of common node-classification benchmarks.  Edge counts
# are directed-arc counts (undirected datasets contribute two arcs per edge).
DATASET_STATS = {
    "cora": GraphStats(num_nodes=2_708, num_edges=10_556, feature_dim=1_433, num_labels=7),
    "citeseer": GraphStats(num_nodes=3_327, num_edges=4_732, feature_dim=3_703, num_labels=6),
    "pubmed": GraphStats(num_nodes=19_717, num_edges=44_338, feature_dim=500, num_labels=3),
    "reddit": GraphStats(num_nodes=232_965, num_edges=11_606_919, feature_dim=602, num_labels=41),
}


@dataclass
class Graph:
    """Immutable directed graph in CSR form with optional node features."""

    num_nodes: int
    csr_offsets: np.ndarray
    csr_neighbors: np.ndarray
    features: np.ndarray  # shape (num_nodes, feature_dim); feature_dim may be 0

    def __post_init__(self):
        self.csr_offsets = np.asarray(self.csr_offsets, dtype=np.int64)
        self.csr_neighbors = np.asarray(self.csr_neighbors, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.num_nodes < 1:
            raise SchemaError("graph must have at least one node")
        if self.csr_offsets.shape != (self.num_nodes + 1,):
            raise SchemaError("csr_offsets must have num_nodes + 1 entries")
        if self.csr_offsets[0] != 0 or self.csr_offsets[-1] != self.csr_neighbors.size:
            raise SchemaError("csr_offsets must start at 0 and end at len(csr_neighbors)")
        if np.any(np.diff(self.csr_offsets) < 0):
            raise SchemaError("csr_offsets must be non-decreasing")
        if self.csr_neighbors.size and (
            self.csr_neighbors.min() < 0 or self.csr_neighbors.max() >= self.num_nodes
        ):
            raise SchemaError("neighbor IDs out of range")
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise SchemaError("features must be (num_nodes, feature_dim)")
        for arr in (self.csr_offsets, self.csr_neighbors, self.features):
            arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return int(self.csr_neighbors.size)

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.num_nodes:
            raise IndexError(f"node {v} out of range [0, {self.num_nodes})")
        return self.csr_neighbors[self.csr_offsets[v] : self.csr_offsets[v + 1]]


def _build_csr(num_nodes: int, pairs: np.ndarray, features: np.ndarray | None) -> Graph:
    # pairs: (E, 2) array of distinct (src, dst), sorted by src and then dst
    counts = np.bincount(pairs[:, 0], minlength=num_nodes)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    if features is None:
        features = np.zeros((num_nodes, 0))
    return Graph(num_nodes, offsets, pairs[:, 1].copy(), features)


def load_edge_list(path, feature_path=None) -> Graph:
    """Load a directed graph from a text edge list, optionally with CSV features.

    Edge-list format: one ``src dst`` pair of integers in [0, 2**63) per line,
    whitespace separated.  Blank lines and lines starting with ``#`` are
    ignored.  Duplicate arcs collapse to one.  Node count is the largest ID
    seen plus one.  The feature file, when given, must hold one CSV row of
    reals per node.
    """
    src, dst = [], []
    for lineno, text in _content_lines(path, "edge list"):
        tokens = text.split()
        if len(tokens) != 2:
            raise InputParseError(f"{path}:{lineno}: expected 'src dst', got {text!r}")
        try:
            s, d = int(tokens[0]), int(tokens[1])
        except ValueError as exc:
            raise InputParseError(f"{path}:{lineno}: non-integer node ID in {text!r}") from exc
        if not (0 <= s < 2**63 and 0 <= d < 2**63):  # IDs are stored as int64
            raise InputParseError(f"{path}:{lineno}: node ID outside [0, 2**63) in {text!r}")
        src.append(s)
        dst.append(d)
    if not src:
        raise InputParseError(f"{path}: empty edge list describes no graph")

    pairs = np.unique(np.column_stack([src, dst]), axis=0)
    num_nodes = int(pairs.max()) + 1

    features = None
    if feature_path is not None:
        features = _load_feature_csv(feature_path)
        if features.shape[0] != num_nodes:
            raise SchemaError(
                f"{feature_path}: {features.shape[0]} feature rows for {num_nodes} nodes"
            )
    return _build_csr(num_nodes, pairs, features)


def _content_lines(path, what: str):
    """Yield (line number, stripped text) of each line that is not blank or a ``#`` comment."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {what} {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if text and not text.startswith("#"):
            yield lineno, text


def _load_feature_csv(path) -> np.ndarray:
    rows = []
    width = None
    for lineno, text in _content_lines(path, "features"):
        try:
            row = np.array(text.split(","), dtype=np.float64)
        except ValueError as exc:
            raise InputParseError(f"{path}:{lineno}: non-numeric feature value") from exc
        if not np.isfinite(row).all():
            raise InputParseError(f"{path}:{lineno}: non-finite feature value")
        if width is None:
            width = row.size
        elif row.size != width:
            raise InputParseError(
                f"{path}:{lineno}: row has {row.size} values, expected {width}"
            )
        rows.append(row)
    if not rows:
        raise InputParseError(f"{path}: empty feature file")
    return np.vstack(rows)


def degrees(g: Graph) -> np.ndarray:
    """Out-degree of every node; sums to g.num_edges."""
    return np.diff(g.csr_offsets)


def sample_neighbors(g: Graph, v: int, sample_size: int, seed: int) -> np.ndarray:
    """Draw ``sample_size`` neighbors of v uniformly at random with replacement.

    Deterministic per (graph, v, sample_size, seed).  A node with no
    out-neighbors falls back to sampling itself, so downstream aggregation
    always sees exactly ``sample_size`` rows.
    """
    if sample_size < 1:
        raise SchemaError("sample_size must be >= 1")
    nbrs = g.neighbors(v)
    if nbrs.size == 0:
        return np.full(sample_size, v, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return nbrs[rng.integers(0, nbrs.size, size=sample_size)]


def synthetic_graph(num_nodes: int, avg_degree: float, feature_dim: int, seed: int) -> Graph:
    """Random directed graph with the given expected out-degree, for desk-scale tests.

    Each ordered pair (u, v), u != v, becomes an arc independently with
    probability avg_degree / (num_nodes - 1).  Features are uniform [-1, 1].
    """
    if num_nodes < 1:
        raise SchemaError("num_nodes must be >= 1")
    if avg_degree < 0 or avg_degree > num_nodes - 1:
        raise SchemaError("avg_degree must lie in [0, num_nodes - 1]")
    rng = np.random.default_rng(seed)
    if num_nodes == 1:
        pairs = np.zeros((0, 2), dtype=np.int64)
    else:
        p = avg_degree / (num_nodes - 1)
        mask = rng.random((num_nodes, num_nodes)) < p
        np.fill_diagonal(mask, False)
        srcs, dsts = np.nonzero(mask)
        pairs = np.column_stack([srcs, dsts])
    features = rng.uniform(-1.0, 1.0, size=(num_nodes, feature_dim))
    return _build_csr(num_nodes, pairs, features)
