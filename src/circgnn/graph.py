"""Graph storage and sampling.

Graphs are directed and stored in CSR form: ``csr_offsets`` has one entry
per node plus a terminator, ``csr_neighbors`` holds the out-neighbors of
node v in the half-open slice ``csr_offsets[v]:csr_offsets[v+1]``.
Datasets that are logically undirected are expected to list both arcs.
Node features, when present, sit in a dense (num_nodes, feature_dim) array:
float32 when every value is exactly a float32, as 0/1 features are, and
float64 otherwise; ``gnn.forward`` widens layer 0's rows to float64 as it
gathers them.  Both text formats go through one reader: it parses chunks of
whole lines in bulk and walks line by line only a chunk that the bulk parse
rejects, keeping lenient tokens and naming a bad line.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputParseError, SchemaError


# Characters of text per chunk of ``_read_rows``: bounds its temporaries.
_BULK_CHUNK = 1 << 18


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
        features = np.asarray(self.features)  # float32 stays: forward widens as it gathers
        if features.dtype != np.float32:
            features = np.asarray(features, dtype=np.float64)
        self.features = features
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
    pairs = np.unique(_load_arcs(path), axis=0)
    num_nodes = int(pairs.max()) + 1

    features = None
    if feature_path is not None:
        features = _load_feature_csv(feature_path)
        if features.shape[0] != num_nodes:
            raise SchemaError(
                f"{feature_path}: {features.shape[0]} feature rows for {num_nodes} nodes"
            )
    return _build_csr(num_nodes, pairs, features)


def _load_arcs(path) -> np.ndarray:
    rows = _read_rows(path, "edge list", np.int64, None, _arc_row)
    if rows is None:
        raise InputParseError(f"{path}: empty edge list describes no graph")
    return rows


def _arc_row(path, lineno: int, text: str, width) -> tuple[int, int]:
    tokens = text.split()
    if len(tokens) != 2:
        raise InputParseError(f"{path}:{lineno}: expected 'src dst', got {text!r}")
    try:
        s, d = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise InputParseError(f"{path}:{lineno}: non-integer node ID in {text!r}") from exc
    if not (0 <= s < 2**63 and 0 <= d < 2**63):  # IDs are stored as int64
        raise InputParseError(f"{path}:{lineno}: node ID outside [0, 2**63) in {text!r}")
    return s, d


def _load_feature_csv(path) -> np.ndarray:
    rows = _read_rows(path, "features", np.float64, ",", _feature_row)
    if rows is None:
        raise InputParseError(f"{path}: empty feature file")
    return rows


def _feature_row(path, lineno: int, text: str, width) -> np.ndarray:
    try:
        row = np.array(text.split(","), dtype=np.float64)
    except ValueError as exc:
        raise InputParseError(f"{path}:{lineno}: non-numeric feature value") from exc
    if not np.isfinite(row).all():
        raise InputParseError(f"{path}:{lineno}: non-finite feature value")
    if width is not None and row.size != width:
        raise InputParseError(f"{path}:{lineno}: row has {row.size} values, expected {width}")
    return row


def _read_rows(path, what: str, dtype, delimiter, parse_line) -> np.ndarray | None:
    """The rows of a text table, blank and ``#`` lines dropped, or None if it has none.

    ``loadtxt`` parses each chunk of whole lines from the lines, never a name
    (numpy would try .gz siblings and URLs).  A chunk it rejects, or whose rows
    fail the format's checks, is walked with ``parse_line(path, lineno, text,
    width)``, which returns the row or raises naming the line.
    """
    out, first = np.empty((0, 0), bool), 1  # bool promotes to any row dtype
    try:
        with open(path) as fh:
            while lines := fh.readlines(_BULK_CHUNK):
                kept = [line for line in lines if not line.lstrip().startswith("#")]
                try:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")  # loadtxt warns on a chunk with no data
                        rows = np.loadtxt(kept, dtype, delimiter=delimiter, comments=None, ndmin=2)
                    ok = out.shape[1] in (0, rows.shape[1]) and (
                        np.isfinite(rows).all() if rows.dtype.kind == "f"  # features
                        else rows.shape[1] == 2 and rows.min() >= 0)  # node IDs
                except (ValueError, Warning):
                    ok = False
                if not ok:  # lenient tokens such as 1_0 load here; a bad line is named
                    rows, width = [], out.shape[1] or None
                    for lineno, line in enumerate(lines, start=first):
                        if (text := line.strip()) and not text.startswith("#"):
                            rows.append(parse_line(path, lineno, text, width))
                            width = len(rows[-1])
                    rows = np.array(rows, dtype)
                first += len(lines)
                if rows.dtype.kind == "f":
                    with np.errstate(over="ignore"):  # past float32's range is inf: not exact
                        narrow = rows.astype(np.float32)
                    rows = narrow if (narrow == rows).all() else rows
                if len(rows):  # out grows by realloc: no parts list and joined copy coexist
                    out = out.astype(np.result_type(out, rows), copy=False)
                    out.resize((len(out) + len(rows), rows.shape[1]), refcheck=False)
                    out[-len(rows):] = rows
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {what} {path}: {exc}") from exc
    return out if len(out) else None


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


# --- numpy's seeded streams, replayed for many seeds at once ------------------
# Numpy integer arithmetic over all rows at once of what SeedSequence and
# ``default_rng(seed).integers`` compute per seed: SeedSequence's hash-mix, PCG64's
# seeding and XSL-RR output (O'Neill 2014), and numpy's draw below 2**32, Lemire's
# multiply-shift (ACM TOMACS 2019) on each output's 32-bit halves, low half first.
# NumPy does not promise these streams stay fixed (NEP 19); tests compare both paths.

_M32 = 0xFFFFFFFF
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_DRAW_CHUNK = 2**18  # rows times outputs per pass of ``bounded_draws``: bounds its temporaries


@functools.lru_cache(maxsize=16)
def _hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """(steps + 1, 1) constants of SeedSequence's hash steps; step i uses rows i and i + 1."""
    consts = itertools.accumulate(range(steps), lambda c, _: c * mult & _M32, initial=init)
    return np.array(list(consts), dtype=np.uint32)[:, None]


def _hash(value, consts):
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ value >> 16


def _mix(x, y):
    x = 0xCA01F9DD * x - 0x4973F715 * y
    return x ^ x >> 16


def _generate_state(pool: np.ndarray, count: int) -> np.ndarray:
    """SeedSequence.generate_state(count, np.uint64) of each row's pool: (count, rows)."""
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * count)
    words = _hash(pool[np.arange(2 * count) % 4], consts).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def spawned_seeds(entropy: int, spawn_key: tuple, last) -> np.ndarray:
    """Row i: SeedSequence(entropy, spawn_key=(*spawn_key, last[i])).generate_state(1, np.uint64)[0]

    ``spawn_key`` must be nonempty and each last[i] lie in [0, 2**32).  numpy
    mixes the shared words once; only last[i] is mixed per row.
    """
    shared = np.random.SeedSequence(entropy, spawn_key=tuple(spawn_key))
    count = [(max(int(n).bit_length(), 1) + 31) // 32 for n in (entropy, *spawn_key)]
    words = max(count[0], 4) + sum(count[1:])  # 32-bit entropy words mixed into shared.pool
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * words + 4)[4 * words:]
    row_words = _hash(np.asarray(last, dtype=np.uint32), consts)
    return _generate_state(_mix(shared.pool[:, None], row_words), 1)[0]


@functools.lru_cache(maxsize=16)
def _jump_consts(outputs: int) -> tuple:
    """(high, low) uint64 halves of M^(k+1) and 1 + M + ... + M^(k+1), for k = 1..outputs."""
    power, geometric, table = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(outputs):
        power, geometric = power * _PCG_MULT % 2**128, (geometric * _PCG_MULT + 1) % 2**128
        table.append([power >> 64, power & 2**64 - 1, geometric >> 64, geometric & 2**64 - 1])
    return np.array(table, dtype=np.uint64).T.reshape(2, 2, -1)


def _mul128(a, b):
    """(a * b) mod 2**128 of (high, low) uint64 halves, the low product from 32-bit limbs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    x0, x1, y0, y1 = a_lo & _M32, a_lo >> 32, b_lo & _M32, b_lo >> 32
    cross0, cross1 = x1 * y0, x0 * y1
    carry = ((x0 * y0 >> 32) + (cross0 & _M32) + (cross1 & _M32)) >> 32
    high = x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + carry + a_lo * b_hi + a_hi * b_lo
    return high, a_lo * b_lo


def bounded_draws(seeds: np.ndarray, n: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row i is default_rng(seeds[i]).integers(0, n[i], size) unless flagged: (draws, flagged).

    A row is flagged, its draws meaningless, if a draw would be rejected or
    n[i] exceeds 2**32.  Every n[i] must be at least 1.
    """
    seeds, n = np.asarray(seeds, dtype=np.uint64), np.asarray(n, dtype=np.uint64)
    outputs = (size + 1) // 2  # 64-bit PCG64 outputs per row
    if len(seeds) * outputs > _DRAW_CHUNK:
        step = max(1, _DRAW_CHUNK // outputs)
        parts = [bounded_draws(seeds[i : i + step], n[i : i + step], size)
                 for i in range(0, len(seeds), step)]
        return tuple(np.concatenate(p) for p in zip(*parts))
    # SeedSequence over each seed's words (a missing high word hashes as a zero
    # one); a mixing round's hash steps are independent, so each is one operation
    consts = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
    words = np.zeros((4, len(seeds)), np.uint32)
    words[0], words[1] = seeds & _M32, seeds >> 32
    pool = _hash(words, consts[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = _mix(pool[dst], _hash(pool[src], consts[4 + 3 * src : 8 + 3 * src]))
    # PCG64 takes 4 of its words (state high, low; sequence high, low), and
    # output k (from 1) reads state M^(k+1) s + (1 + M + ... + M^(k+1)) inc
    s_hi, s_lo, q_hi, q_lo = _generate_state(pool, 4)[:, :, None]
    a_hi, a_lo = _mul128(_jump_consts(outputs)[0], (s_hi, s_lo))
    b_hi, b_lo = _mul128(_jump_consts(outputs)[1], (q_hi << 1 | q_lo >> 63, q_lo << 1 | 1))
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    x, rot = hi ^ lo, hi >> 58
    out = x >> rot | x << (64 - rot & 63)  # XSL-RR: rotate right by the top 6 state bits
    halves = np.stack([out & _M32, out >> 32], axis=-1).reshape(len(seeds), -1)[:, :size]
    m = halves * n[:, None]
    rejected = (m & _M32) < (2**32 - n[:, None]) % n[:, None]
    return (m >> 32).astype(np.int64), rejected.any(axis=1) | (n > 2**32)


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
