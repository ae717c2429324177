"""Edge-list loading, CSR adjacency, neighbor sampling."""

import contextlib
import gzip
import io
import os
import urllib.request
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import graph
from circgnn.errors import InputParseError, SchemaError
from circgnn.graph import (
    DATASET_STATS,
    Graph,
    GraphStats,
    bounded_draws,
    load_edge_list,
    sample_neighbors,
    spawned_seeds,
    synthetic_graph,
)
from aggregation_oracle import degrees


def write_edges(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def feature_outcomes(path):
    """(bulk parse, line walker alone) outcome of loading path: ("ok", values) or ("error", message)."""

    def outcome():
        try:
            return "ok", graph._load_feature_csv(path).tolist()
        except InputParseError as exc:
            return "error", str(exc)

    bulk = outcome()
    with mock.patch.object(graph.np, "loadtxt", side_effect=ValueError):
        return bulk, outcome()


def edge_outcomes(path):
    """(bulk parse, line walker alone) outcome of reading arcs: ("ok", pairs) or ("error", text)."""

    def outcome():
        try:
            return "ok", graph._load_arcs(path).tolist()
        except InputParseError as exc:
            return "error", str(exc)

    bulk = outcome()
    with mock.patch.object(graph.np, "loadtxt", side_effect=ValueError):
        return bulk, outcome()


class TestLoader:
    def test_basic_load_with_comments_and_dedupe(self, tmp_path):
        path = write_edges(
            tmp_path,
            "# a header comment\n0 1\n1 2\n0 1\n2 0\n\n# trailing comment\n",
        )
        g = load_edge_list(path)
        assert g.num_nodes == 3
        assert g.num_edges == 3  # duplicate 0->1 collapsed
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == [0]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_edges(tmp_path, "0 1\n1 2 3\n")
        with pytest.raises(InputParseError, match=r"(?:edges\.txt|feats\.csv):2"):
            load_edge_list(path)

    def test_non_integer_reports_line_number(self, tmp_path):
        path = write_edges(tmp_path, "0 1\nfoo 2\n")
        with pytest.raises(InputParseError, match=r"(?:edges\.txt|feats\.csv):2"):
            load_edge_list(path)

    def test_negative_id_rejected(self, tmp_path):
        path = write_edges(tmp_path, "0 1\n-1 2\n")
        with pytest.raises(InputParseError, match=r"(?:edges\.txt|feats\.csv):2"):
            load_edge_list(path)

    def test_id_beyond_int64_rejected(self, tmp_path):
        path = write_edges(tmp_path, "0 1\n1 9223372036854775808\n")
        with pytest.raises(InputParseError, match=r"edges\.txt:2"):
            load_edge_list(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_edges(tmp_path, "# only a comment\n")
        with pytest.raises(InputParseError):
            load_edge_list(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InputParseError):
            load_edge_list(tmp_path / "nope.txt")

    def test_node_count_is_max_id_plus_one(self, tmp_path):
        path = write_edges(tmp_path, "0 5\n")
        g = load_edge_list(path)
        assert g.num_nodes == 6
        assert degrees(g)[3] == 0

    def test_feature_row_count_mismatch(self, tmp_path):
        edges = write_edges(tmp_path, "0 1\n1 0\n")
        feats = tmp_path / "feats.csv"
        feats.write_text("1.0,2.0\n")  # one row for two nodes
        with pytest.raises(SchemaError):
            load_edge_list(edges, feature_path=feats)

    def test_feature_width_mismatch(self, tmp_path):
        edges = write_edges(tmp_path, "0 1\n1 0\n")
        feats = tmp_path / "feats.csv"
        feats.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(InputParseError, match=r"(?:edges\.txt|feats\.csv):2"):
            load_edge_list(edges, feature_path=feats)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, value):
        edges = write_edges(tmp_path, "0 1\n1 0\n")
        feats = tmp_path / "feats.csv"
        feats.write_text(f"1.0,2.0\n3.0,{value}\n")
        with pytest.raises(InputParseError, match=r"feats\.csv:2"):
            load_edge_list(edges, feature_path=feats)

    def test_features_loaded(self, tmp_path):
        edges = write_edges(tmp_path, "0 1\n1 0\n")
        feats = tmp_path / "feats.csv"
        feats.write_text("1.0,2.0\n3.0,4.0\n")
        g = load_edge_list(edges, feature_path=feats)
        assert g.feature_dim == 2
        assert np.array_equal(g.features, [[1.0, 2.0], [3.0, 4.0]])

    def test_well_formed_features_skip_the_line_walker(self, tmp_path, monkeypatch):
        feats = tmp_path / "feats.csv"
        feats.write_text("1.0,2\n-3.5,4e2\n")
        monkeypatch.setattr(graph, "_feature_row", None)  # a walker call would fail
        assert np.array_equal(graph._load_feature_csv(feats), [[1.0, 2.0], [-3.5, 400.0]])

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(["0", "1", "-2.5", " 3 ", "1e3", "nan", "-inf", "", "x", "1_0",
                                  "#1", "2 #c", "\t"]), min_size=1, max_size=3).map(",".join)
        | st.sampled_from(["", "  ", "# note", "\x0c", "\ufeff1"]),
        max_size=6,
    ))
    def test_bulk_feature_parse_matches_the_line_walker(self, tmp_path_factory, lines):
        feats = tmp_path_factory.mktemp("feats") / "feats.csv"
        feats.write_text("\n".join(lines) + "\n")
        bulk, walker = feature_outcomes(feats)
        assert bulk == walker  # same values or the same message

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(["0", "1", "7", "+1", "-1", "-0", "1_0", "1.0", "x", "#", "#c",
                                  "1#", "\t", "\x0c", "\xa0", "9223372036854775807",
                                  "9223372036854775808", "-9223372036854775809"]),
                 min_size=1, max_size=3).map(" ".join)
        | st.sampled_from(["", "  ", "\t", "# header", "  # indented", "0 1 # inline",
                           "\ufeff0 1"]),
        max_size=6,
    ))
    def test_bulk_edge_parse_matches_the_line_walker(self, tmp_path_factory, lines):
        edges = tmp_path_factory.mktemp("edges") / "edges.txt"
        edges.write_text("\n".join(lines) + "\n")
        bulk, walker = edge_outcomes(edges)
        assert bulk == walker  # same arcs or the same message

    def test_well_formed_edges_skip_the_line_walker(self, tmp_path, monkeypatch):
        edges = write_edges(tmp_path, "# header\n0 1\n\n  # note\n2 9223372036854775807\n")
        monkeypatch.setattr(graph, "_arc_row", None)  # a walker call would fail
        assert graph._load_arcs(edges).tolist() == [[0, 1], [2, 2**63 - 1]]

    @pytest.mark.parametrize("walker", [False, True], ids=["bulk", "walker"])
    def test_binary_features_load_as_float32(self, tmp_path, walker):
        edges = write_edges(tmp_path, "0 1\n1 2\n")
        feats = tmp_path / "feats.csv"
        feats.write_text("# a comment\n0,1\n1,0\n-0,1\n")
        walk = mock.patch.object(graph.np, "loadtxt", side_effect=ValueError)
        with walk if walker else contextlib.nullcontext():
            g = load_edge_list(edges, feature_path=feats)
        assert g.features.dtype == np.float32
        assert g.features.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("value", ["0.1", "5e-324", "1e300"])
    def test_features_float32_cannot_hold_load_as_float64(self, tmp_path, value):
        feats = tmp_path / "feats.csv"
        feats.write_text(f"1,0.5\n{value},2\n")
        rows = graph._load_feature_csv(feats)
        assert rows.dtype == np.float64
        assert rows.tolist() == [[1.0, 0.5], [float(value), 2.0]]

    def test_a_later_inexact_chunk_widens_every_row(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "_BULK_CHUNK", 8)  # a line or two per chunk
        values = [[0.0, 1.0], [1.0, 0.0], [0.25, 3.0], [1.0, 1.0], [0.1, 0.0], [2.0, 1e-300]]
        feats = tmp_path / "feats.csv"
        feats.write_text("".join(f"{a!r},{b!r}\n" for a, b in values))
        monkeypatch.setattr(graph, "_feature_row", None)  # the bulk path must do it
        rows = graph._load_feature_csv(feats)
        assert rows.dtype == np.float64
        assert rows.tolist() == values

    def test_a_later_chunk_of_another_width_reaches_the_line_walker(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph, "_BULK_CHUNK", 8)  # a line or two per chunk
        feats = tmp_path / "feats.csv"
        feats.write_text("0,1\n1,0\n0,0\n1\n")
        bulk, walker = feature_outcomes(feats)
        assert bulk == walker == ("error", f"{feats}:4: row has 1 values, expected 2")

    def test_features_from_a_pipe_load(self):
        read, write = os.pipe()
        os.write(write, b"0,1\n1,0.5\n")
        os.close(write)
        try:
            rows = graph._load_feature_csv(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert rows.dtype == np.float32 and rows.tolist() == [[0.0, 1.0], [1.0, 0.5]]

    def test_edges_from_a_pipe_load(self):
        read, write = os.pipe()
        os.write(write, b"# header\n0 1\n2 0\n")
        os.close(write)
        try:
            pairs = graph._load_arcs(f"/dev/fd/{read}")
        finally:
            os.close(read)
        assert pairs.dtype == np.int64 and pairs.tolist() == [[0, 1], [2, 0]]

    @pytest.mark.parametrize("load, good, bad, message", [
        (graph._load_arcs, "0 1", "1 x", "non-integer node ID in '1 x'"),
        (graph._load_feature_csv, "0,1", "1,x", "non-numeric feature value"),
    ], ids=["edges", "features"])
    def test_a_bad_line_in_a_later_chunk_is_named_by_its_line_in_the_file(
        self, tmp_path, monkeypatch, load, good, bad, message
    ):
        monkeypatch.setattr(graph, "_BULK_CHUNK", 8)  # two lines per chunk
        path = tmp_path / "table.txt"
        path.write_text("# header\n" + f"{good}\n" * 20 + f"{bad}\n{good}\n")
        with pytest.raises(InputParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}:22: {message}"

    @pytest.mark.parametrize("load, parser, row, last", [
        (graph._load_arcs, "_arc_row", lambda i: f"{i} {i + 1}", "1_0 3"),
        (graph._load_feature_csv, "_feature_row", lambda i: f"{i % 2},0.5", "1_0,0.5"),
    ], ids=["edges", "features"])
    def test_only_the_chunk_loadtxt_rejects_is_walked(
        self, tmp_path, monkeypatch, load, parser, row, last
    ):
        monkeypatch.setattr(graph, "_BULK_CHUNK", 32)
        path = tmp_path / "table.txt"
        path.write_text("".join(f"{row(i)}\n" for i in range(40)) + f"# note\n{last}\n")
        with open(path) as fh:
            chunks = list(iter(lambda: fh.readlines(graph._BULK_CHUNK), []))
        assert len(chunks) > 3
        first = sum(map(len, chunks[:-1])) + 1  # the last chunk's first line number
        with mock.patch.object(graph, parser, wraps=getattr(graph, parser)) as walked:
            rows = load(path)
        assert [c.args[1] for c in walked.call_args_list] == [
            first + i for i, text in enumerate(chunks[-1]) if not text.startswith("#")
        ]
        with mock.patch.object(graph.np, "loadtxt", side_effect=ValueError):
            walker = load(path)
        assert rows.dtype == walker.dtype and rows.tolist() == walker.tolist()
        assert rows[-1, 0] == 10

    def test_gzip_features_are_not_decompressed(self, tmp_path):
        feats = tmp_path / "feats.csv.gz"
        feats.write_bytes(gzip.compress(b"1.0,2.0\n3.0,4.0\n"))
        bulk, walker = feature_outcomes(feats)
        assert bulk == walker and bulk[0] == "error"

    def test_missing_features_do_not_fall_back_to_a_gz_sibling(self, tmp_path):
        (tmp_path / "feats.csv.gz").write_bytes(gzip.compress(b"1.0,2.0\n3.0,4.0\n"))
        bulk, walker = feature_outcomes(tmp_path / "feats.csv")
        assert bulk == walker and bulk[0] == "error"
        assert "cannot read features" in bulk[1]

    def test_url_features_are_not_fetched(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # where numpy would cache a download
        fetched = []

        def fake_urlopen(url, *args, **kwargs):
            fetched.append(url)
            return io.BytesIO(b"1.0,2.0\n3.0,4.0\n")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        bulk, walker = feature_outcomes("http://localhost/feats.csv")
        assert bulk == walker and bulk[0] == "error"
        assert "cannot read features" in bulk[1]
        assert fetched == [] and list(tmp_path.iterdir()) == []


class TestGraphStructure:
    def test_degrees_sum_to_edge_count(self, tmp_path):
        path = write_edges(tmp_path, "0 1\n0 2\n1 2\n2 0\n3 1\n")
        g = load_edge_list(path)
        assert sum(degrees(g)[v] for v in range(g.num_nodes)) == g.num_edges

    def test_stats_dataclass(self, tmp_path):
        path = write_edges(tmp_path, "0 1\n1 0\n")
        feats = tmp_path / "f.csv"
        feats.write_text("1,2,3\n4,5,6\n")
        g = load_edge_list(path, feature_path=feats)
        assert GraphStats(g.num_nodes, g.num_edges, g.feature_dim, 2) == GraphStats(2, 2, 3, 2)

    def test_stats_validation(self):
        with pytest.raises(SchemaError):
            GraphStats(-1, 0, 0, 0)

    def test_arrays_read_only(self, tmp_path):
        g = load_edge_list(write_edges(tmp_path, "0 1\n1 0\n"))
        with pytest.raises(ValueError):
            g.csr_neighbors[0] = 5

    def test_float32_features_stay_float32_and_others_become_float64(self):
        offsets, neighbors = [0, 1, 2], [1, 0]
        kept = {np.float32: np.float32, np.float64: np.float64, np.float16: np.float64,
                np.int64: np.float64, bool: np.float64}
        for given_dtype, kept_dtype in kept.items():
            g = Graph(2, offsets, neighbors, np.ones((2, 3), dtype=given_dtype))
            assert g.features.dtype == kept_dtype and g.features.tolist() == [[1.0] * 3] * 2

    def test_bad_csr_rejected(self):
        with pytest.raises(SchemaError):
            Graph(
                num_nodes=2,
                csr_offsets=np.array([0, 2, 1]),  # not monotone
                csr_neighbors=np.array([1, 0]),
                features=np.zeros((2, 0)),
            )
        with pytest.raises(SchemaError):
            Graph(
                num_nodes=2,
                csr_offsets=np.array([0, 1, 2]),
                csr_neighbors=np.array([1, 5]),  # neighbor out of range
                features=np.zeros((2, 0)),
            )

    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=60
        )
    )
    @settings(max_examples=50)
    def test_csr_roundtrip_property(self, edges, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("glob")
        text = "\n".join(f"{u} {v}" for u, v in edges) + "\n"
        g = load_edge_list(write_edges(tmp, text))
        expect = sorted(set(edges))
        got = [(u, v) for u in range(g.num_nodes) for v in g.neighbors(u)]
        assert got == expect


class TestSampling:
    def test_deterministic_given_seed(self, tmp_path):
        g = load_edge_list(write_edges(tmp_path, "0 1\n0 2\n0 3\n1 0\n2 0\n3 0\n"))
        a = sample_neighbors(g, 0, 5, seed=123)
        b = sample_neighbors(g, 0, 5, seed=123)
        assert np.array_equal(a, b)
        c = sample_neighbors(g, 0, 5, seed=124)
        assert a.shape == c.shape == (5,)

    def test_samples_are_neighbors(self, tmp_path):
        g = load_edge_list(write_edges(tmp_path, "0 1\n0 2\n0 3\n"))
        got = sample_neighbors(g, 0, 50, seed=9)
        assert set(got) <= {1, 2, 3}

    def test_isolated_node_falls_back_to_self(self, tmp_path):
        g = load_edge_list(write_edges(tmp_path, "0 5\n"))
        got = sample_neighbors(g, 3, 4, seed=0)
        assert np.array_equal(got, [3, 3, 3, 3])

    def test_sample_size_must_be_positive(self, tmp_path):
        g = load_edge_list(write_edges(tmp_path, "0 1\n"))
        with pytest.raises(SchemaError):
            sample_neighbors(g, 0, 0, seed=0)

    def test_uniformity_five_sigma(self, tmp_path):
        # star center with 50 leaves, 25 draws per trial, 1e4 trials:
        # each leaf expects 10_000 * 25 / 50 = 5000 hits, sd = sqrt(N p (1-p)) ~ 70
        lines = "".join(f"0 {v}\n" for v in range(1, 51))
        g = load_edge_list(write_edges(tmp_path, lines))
        counts = np.zeros(51, dtype=np.int64)
        for trial in range(10_000):
            got = sample_neighbors(g, 0, 25, seed=trial)
            counts += np.bincount(got, minlength=51)
        leaf_counts = counts[1:]
        assert counts[0] == 0
        assert np.all(np.abs(leaf_counts - 5000) < 5 * 70)


class TestVectorizedStreams:
    @settings(max_examples=50, deadline=None)
    @given(
        entropy=st.one_of(st.integers(0, 2**40), st.integers(0, 2**200)),
        key=st.lists(st.integers(0, 2**70), min_size=1, max_size=3),
        last=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=20),
    )
    def test_spawned_seeds_match_seed_sequence(self, entropy, key, last):
        want = [np.random.SeedSequence(entropy, spawn_key=(*key, v)).generate_state(1, np.uint64)[0]
                for v in last]
        assert np.array_equal(spawned_seeds(entropy, tuple(key), np.array(last)), want)

    def test_bounded_draws_flag_exactly_the_rows_with_a_rejection(self):
        # bounds in (2**31, 2**32) reject a 32-bit draw with probability up to 1/2
        rng = np.random.default_rng(5)
        seeds = rng.integers(0, 2**64, 400, dtype=np.uint64)
        bounds = rng.integers(2**31 + 1, 2**32, 400)
        size = 3
        draws, flagged = bounded_draws(seeds, bounds, size)
        assert 0.3 < flagged.mean() < 0.7
        for seed, bound, row, flag in zip(seeds.tolist(), bounds.tolist(), draws, flagged):
            raw = np.random.default_rng(seed).bit_generator.random_raw((size + 1) // 2)
            halves = np.stack([raw & 0xFFFFFFFF, raw >> 32], axis=-1).ravel()[:size]  # low first
            assert flag == ((halves * bound & 0xFFFFFFFF) < 2**32 % bound).any()
            if not flag:
                assert np.array_equal(row, np.random.default_rng(seed).integers(0, bound, size))

    @pytest.mark.parametrize("bound", [1, 2, 3, 1000, 2**32])
    def test_bounded_draws_at_edge_bounds(self, bound):
        draws, flagged = bounded_draws(np.arange(50, dtype=np.uint64), np.full(50, bound), 7)
        assert not flagged.any()
        assert np.array_equal(draws, [np.random.default_rng(s).integers(0, bound, 7)
                                      for s in range(50)])

    def test_bounds_above_two_to_the_32_are_flagged(self):
        assert bounded_draws(np.arange(4, dtype=np.uint64), np.full(4, 2**32 + 1), 5)[1].all()

    def test_chunked_draws_equal_one_pass(self, monkeypatch):
        seeds, bounds = np.arange(30, dtype=np.uint64), np.arange(1, 31)
        whole = bounded_draws(seeds, bounds, 9)
        monkeypatch.setattr(graph, "_DRAW_CHUNK", 11)
        for got, want in zip(bounded_draws(seeds, bounds, 9), whole):
            assert np.array_equal(got, want)


class TestSynthetic:
    def test_shape_and_determinism(self):
        g1 = synthetic_graph(100, avg_degree=6.0, feature_dim=8, seed=3)
        g2 = synthetic_graph(100, avg_degree=6.0, feature_dim=8, seed=3)
        assert g1.num_nodes == 100
        assert g1.feature_dim == 8
        assert g1.num_edges == g2.num_edges
        assert np.array_equal(g1.features, g2.features)
        # no self loops
        for v in range(100):
            assert v not in g1.neighbors(v)

    def test_average_degree_in_plausible_band(self):
        g = synthetic_graph(400, avg_degree=10.0, feature_dim=2, seed=1)
        mean_deg = g.num_edges / g.num_nodes
        assert 8.0 < mean_deg < 12.0


class TestDatasetStats:
    def test_table_of_published_sizes(self):
        assert DATASET_STATS["cora"] == GraphStats(2708, 10556, 1433, 7)
        assert DATASET_STATS["citeseer"] == GraphStats(3327, 4732, 3703, 6)
        assert DATASET_STATS["pubmed"] == GraphStats(19717, 44338, 500, 3)
        assert DATASET_STATS["reddit"] == GraphStats(232965, 11606919, 602, 41)

    def test_citation_scale_fixture_loads_to_cora_shape(self, citation_scale_files):
        edge_path, feat_path = citation_scale_files
        g = load_edge_list(edge_path, feature_path=feat_path)
        assert GraphStats(g.num_nodes, g.num_edges, g.feature_dim, 7) == DATASET_STATS["cora"]
