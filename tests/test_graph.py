"""Edge-list loading, CSR adjacency, neighbor sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import (
    DATASET_STATS,
    Graph,
    GraphStats,
    InputParseError,
    SchemaError,
    load_edge_list,
    sample_neighbors,
    synthetic_graph,
)
from circgnn.graph import degrees


def write_edges(tmp_path, text, name="edges.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


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
