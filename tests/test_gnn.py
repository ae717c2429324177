"""Variant semantics, sampling determinism, compressed-vs-dense agreement."""

import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import (
    BlockCirculantMatrix,
    GnnModel,
    GnnModelConfig,
    InternalConsistencyError,
    LayerWeights,
    SchemaError,
    Variant,
    activation,
    aggregate_gat,
    aggregate_gcn,
    aggregate_ggcn,
    aggregate_gspool,
    combine,
    densify_weights,
    derived_seed,
    forward,
    load_edge_list,
    new_random,
    op_counts,
    random_weights,
    reset_op_counts,
    sample_neighbors,
    synthetic_graph,
    to_dense,
    weight_entry,
)
from circgnn import gnn
from circgnn.graph import degrees

import aggregation_oracle


class TestActivation:
    def test_relu(self):
        assert np.array_equal(activation("relu", [-2.0, 0.0, 3.0]), [0.0, 0.0, 3.0])

    def test_elu_negative_branch(self):
        assert activation("elu", -1.0) == pytest.approx(-0.6321205588285577, abs=1e-15)
        assert activation("elu", 2.0) == 2.0

    def test_sigmoid_midpoint_and_tails(self):
        assert activation("sigmoid", 0.0) == 0.5
        assert activation("sigmoid", 50.0) == pytest.approx(1.0)
        assert activation("sigmoid", -3.0) == pytest.approx(1 / (1 + np.exp(3.0)))

    def test_sigmoid_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = activation("sigmoid", [-800.0, 800.0, -np.inf, np.inf, np.nan])
        assert np.array_equal(got[:4], [0.0, 1.0, 0.0, 1.0])
        assert np.isnan(got[4])

    def test_sigmoid_equals_the_plain_formula_wherever_that_is_finite(self):
        edge = -np.log(np.finfo(np.float64).max)  # the last x whose exp(-x) is finite
        x = np.concatenate([np.linspace(-700.0, 700.0, 20001), [edge, np.nextafter(edge, 0)]])
        assert np.array_equal(activation("sigmoid", x), 1.0 / (1.0 + np.exp(-x)))

    def test_leaky_relu_slope(self):
        assert activation("leaky_relu", -5.0) == pytest.approx(-1.0)
        assert activation("leaky_relu", 4.0) == 4.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchemaError):
            activation("tanh", 1.0)


@pytest.fixture
def five_node_graph(tmp_path):
    text = "0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n3 4\n4 3\n4 0\n0 4\n0 2\n2 0\n1 3\n3 1\n"
    path = tmp_path / "ring.txt"
    path.write_text(text)
    return load_edge_list(path)


class TestAggregateGcn:
    def test_direct_summation_oracle(self, five_node_graph):
        g = five_node_graph
        rng = np.random.default_rng(0)
        h = rng.normal(size=(5, 4))  # row u is node u
        v = np.array([0, 4])
        idx = np.array([[1, 2, 2], [0, 3, 3]])  # repeats allowed, sampling is with replacement
        got = aggregate_gcn(g, None, h, idx, np.arange(5), None, v)
        for f in range(2):
            dv = degrees(g)[v[f]]
            want = sum(h[u] / np.sqrt(degrees(g)[u] * dv) for u in idx[f])
            assert np.max(np.abs(got[f] - want)) < 1e-12

    def test_zero_degree_counts_as_one(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 3\n")  # nodes 1, 2 isolated
        g = load_edge_list(path)
        h = np.eye(4)
        got = aggregate_gcn(g, None, h[[1]], np.array([[0]]), np.array([1]), None, np.array([1]))
        assert np.array_equal(got[0], h[1])  # 1/sqrt(1*1) weight


class TestAggregateGspool:
    def test_single_sample_reduces_to_pooled_vector(self):
        rng = np.random.default_rng(1)
        w_pool = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        h = rng.normal(size=(1, 4))
        lw = LayerWeights(W=None, W_pool=w_pool, b=b)
        got = aggregate_gspool(None, lw, h, np.array([[0]]), None, None, None)
        assert np.allclose(got[0], np.maximum(w_pool @ h[0] + b, 0.0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        w_pool = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        h = rng.normal(size=(5, 6))
        lw = LayerWeights(W=None, W_pool=w_pool, b=b)
        base = aggregate_gspool(None, lw, h, np.array([[0, 1, 2, 3, 4]]), None, None, None)
        shuffled = aggregate_gspool(None, lw, h, np.array([[4, 2, 0, 3, 1]]), None, None, None)
        assert np.array_equal(base, shuffled)

    def test_max_dominates(self):
        # one strongly positive row must win every coordinate it dominates
        w_pool = np.eye(3)
        b = np.zeros(3)
        h = np.array([[5.0, -1.0, 0.0], [1.0, 2.0, -4.0]])
        lw = LayerWeights(W=None, W_pool=w_pool, b=b)
        got = aggregate_gspool(None, lw, h, np.array([[0, 1]]), None, None, None)
        assert np.array_equal(got, [[5.0, 2.0, 0.0]])


class TestAggregateGgcn:
    def test_gate_oracle(self):
        rng = np.random.default_rng(3)
        w_h = rng.normal(size=(4, 4))
        w_c = rng.normal(size=(4, 4))
        h_v = rng.normal(size=(2, 4))
        h = rng.normal(size=(3, 4))
        idx = np.array([[0, 1, 2], [2, 2, 0]])
        lw = LayerWeights(W=None, W_H=w_h, W_C=w_c)
        got = aggregate_ggcn(None, lw, h, idx, None, h_v, None)
        for f in range(2):
            want = np.zeros(4)
            for row in h[idx[f]]:
                gate = 1.0 / (1.0 + np.exp(-(w_h @ row + w_c @ h_v[f])))
                want += gate * row
            assert np.max(np.abs(got[f] - want)) < 1e-12

    def test_center_term_shared_across_samples(self):
        # sum over duplicated rows must be exactly twice the single-row sum
        rng = np.random.default_rng(4)
        w_h, w_c = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        h_v = rng.normal(size=(1, 4))
        row = rng.normal(size=(1, 4))
        lw = LayerWeights(W=None, W_H=w_h, W_C=w_c)
        single = aggregate_ggcn(None, lw, row, np.array([[0]]), None, h_v, None)
        double = aggregate_ggcn(None, lw, row, np.array([[0, 0]]), None, h_v, None)
        assert np.max(np.abs(double - 2 * single)) < 1e-12


class TestAggregateGat:
    def _weights(self, rng, heads, head_dim, din):
        return LayerWeights(
            W=rng.normal(size=(din, heads * din)),
            W_att=[rng.normal(size=(head_dim, din)) for _ in range(heads)],
            a_att=[rng.normal(size=2 * head_dim) for _ in range(heads)],
        )

    def test_two_head_step_by_step_oracle(self):
        rng = np.random.default_rng(5)
        heads, hd, din, s = 2, 3, 4, 5
        lw = self._weights(rng, heads, hd, din)
        h_v = rng.normal(size=(1, din))
        h = rng.normal(size=(s, din))
        got = aggregate_gat(None, lw, h, np.arange(s)[None, :], None, h_v, None)
        parts = []
        for w_att, a_att in zip(lw.W_att, lw.a_att):
            pv = w_att @ h_v[0]
            raw = np.array(
                [a_att[:hd] @ pv + a_att[hd:] @ (w_att @ h[j]) for j in range(s)]
            )
            scores = np.where(raw > 0, raw, 0.2 * raw)
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            # attention mixes the raw neighbor features, not the projections
            parts.append(sum(alpha[j] * h[j] for j in range(s)))
        want = np.concatenate(parts)
        assert got.shape == (1, heads * din)
        assert np.max(np.abs(got[0] - want)) < 1e-9

    def test_attention_sums_to_one(self):
        # unit-vector features make the single head's output its attention weights
        rng = np.random.default_rng(6)
        lw = self._weights(rng, 1, 4, 7)
        h_v = rng.normal(size=(1, 7))
        alpha = aggregate_gat(None, lw, np.eye(7), np.arange(7)[None, :], None, h_v, None)[0]
        assert alpha.shape == (7,)
        assert np.all(alpha > 0)
        assert abs(alpha.sum() - 1.0) < 1e-12

    def test_uniform_scores_give_uniform_weights(self):
        # zero scoring vector makes every score zero, so attention is 1/s
        lw = LayerWeights(W=None, W_att=[np.eye(4)], a_att=[np.zeros(8)])
        h_v = np.ones((1, 4))
        alpha = aggregate_gat(None, lw, np.eye(4), np.arange(4)[None, :], None, h_v, None)[0]
        assert np.allclose(alpha, 0.25)

    @pytest.mark.parametrize("block_size", [1, 4], ids=["dense", "compressed"])
    def test_folds_are_the_scoring_vectors_through_w_att(self, block_size):
        cfg = GnnModelConfig("gat", ((16, 8),), (3,), block_size, gat_heads=3, gat_head_dim=8)
        lw = random_weights(cfg, seed=8)[0]
        folds = lw.attention_folds
        assert len(folds) == 3 and lw.attention_folds is folds  # derived once
        for (c, e), w_att, a_att in zip(folds, lw.W_att, lw.a_att):
            dense = to_dense(w_att) if block_size > 1 else w_att
            assert np.max(np.abs(c - dense.T @ a_att[:8])) <= 1e-12
            assert np.max(np.abs(e - dense.T @ a_att[8:])) <= 1e-12


class TestAggregateRows:
    @pytest.mark.parametrize("block_size", [1, 4], ids=["dense", "compressed"])
    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_a_subset_of_frontier_rows_gives_those_rows(self, variant, block_size):
        # each frontier row depends only on its own inputs, so rows may be split freely
        g, cfg = _graph_and_config(variant, block_size=block_size, samples=(9, 2))
        lw = GnnModel(cfg, random_weights(cfg, seed=37)).layers[0]
        samples = np.random.default_rng(41).integers(0, g.num_nodes, size=(12, 9))
        u, idx = np.unique(samples, return_inverse=True)
        idx = idx.reshape(samples.shape)
        v = np.arange(12)
        h_u, h_v = g.features[u], g.features[v]
        aggregate = getattr(gnn, f"aggregate_{variant}")
        full = aggregate(g, lw, h_u, idx, u, h_v, v)
        for r in (np.array([3]), np.array([11, 0, 5]), np.arange(1, 12, 2)):
            assert np.array_equal(aggregate(g, lw, h_u, idx[r], u, h_v[r], v[r]), full[r])


def _repeating_layer_inputs(variant, block_size):
    # 12 frontier rows of 25 samples, row f drawn from its own widths[f] nodes,
    # so samples repeat and the rows' distinct counts and smallest samples differ
    g, cfg = _graph_and_config(variant, block_size=block_size, samples=(25, 2))
    lw = GnnModel(cfg, random_weights(cfg, seed=43)).layers[0]
    rng = np.random.default_rng(47)
    widths = [1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 20]
    samples = np.stack([rng.choice(rng.choice(20, w, replace=False), 25) for w in widths])
    u, idx = np.unique(samples, return_inverse=True)
    v = rng.permutation(g.num_nodes)[:12]
    return g, lw, g.features[u], idx.reshape(samples.shape), u, g.features[v], v


class TestDistinctSampleFold:
    @given(
        data=st.data(),
        rows=st.integers(1, 8),
        samples=st.integers(1, 30),
        nodes=st.integers(1, 12),
    )
    def test_encoding_rebuilds_each_row(self, data, rows, samples, nodes):
        row = st.lists(st.integers(0, nodes - 1), min_size=samples, max_size=samples)
        idx = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))
        order, cols, counts = gnn._distinct_samples(idx)
        k = np.count_nonzero(counts, axis=1)
        assert cols.shape == counts.shape == (rows, k.max())
        assert np.array_equal(np.sort(order), np.arange(rows))
        assert np.all(np.diff(k) <= 0)  # most distinct samples first
        for i, f in enumerate(order):
            assert np.array_equal(counts[i] > 0, np.arange(k.max()) < k[i])  # a prefix
            assert np.all(np.diff(cols[i, : k[i]]) > 0)  # strictly ascending
            assert counts[i].sum() == samples
            assert np.array_equal(np.repeat(cols[i, : k[i]], counts[i, : k[i]]), np.sort(idx[f]))

    @pytest.mark.parametrize("block_size", [1, 4], ids=["dense", "compressed"])
    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_equals_the_sample_order_fold(self, variant, block_size):
        args = _repeating_layer_inputs(variant, block_size)
        got = getattr(gnn, f"aggregate_{variant}")(*args)
        want = getattr(aggregation_oracle, f"aggregate_{variant}")(*args)
        assert got.shape == want.shape
        if variant == "gspool":
            assert np.array_equal(got, want)  # a max ignores order and repeats
        else:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_rows_of_ascending_distinct_samples_equal_the_sample_order_fold(self, variant):
        # every count is 1 and the slots run in sample order, so each term and
        # each partial sum is the sample-order fold's, bit for bit
        g, lw, h_u, _, u, h_v, v = _repeating_layer_inputs(variant, 1)
        rng = np.random.default_rng(53)
        idx = np.sort([rng.choice(len(u), 8, replace=False) for _ in v], axis=1)
        args = (g, lw, h_u, idx, u, h_v, v)
        got = getattr(gnn, f"aggregate_{variant}")(*args)
        assert np.array_equal(got, getattr(aggregation_oracle, f"aggregate_{variant}")(*args))

    def test_gcn_doubles_a_sample_drawn_twice_exactly(self):
        g, lw, h_u, idx, u, h_v, v = _repeating_layer_inputs("gcn", 1)
        once = gnn.aggregate_gcn(g, lw, h_u, idx[:, :1], u, h_v, v)
        assert np.array_equal(gnn.aggregate_gcn(g, lw, h_u, idx[:, [0, 0]], u, h_v, v), 2 * once)

    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_read_only_inputs_are_never_written(self, variant):
        # a fold that accumulated into a view of its inputs would raise here
        g, lw, h_u, idx, u, h_v, v = _repeating_layer_inputs(variant, 1)
        want = getattr(gnn, f"aggregate_{variant}")(g, lw, h_u, idx, u, h_v, v)
        arrays = [h_u, idx, u, h_v, v, lw.W_pool, lw.b, lw.W_H, lw.W_C]
        arrays += [*(lw.W_att or ()), *(lw.a_att or ())]
        arrays += [x for fold in (lw.attention_folds if lw.W_att else ()) for x in fold]
        for x in arrays:
            if x is not None:
                x.setflags(write=False)
        got = getattr(gnn, f"aggregate_{variant}")(g, lw, h_u, idx, u, h_v, v)
        assert np.array_equal(got, want)


class TestCombine:
    def test_gspool_concatenates_aggregate_and_self(self):
        w = np.arange(12, dtype=float).reshape(2, 6)
        a_v = np.array([1.0, 0.0, 2.0])
        h_v = np.array([0.0, 1.0, 1.0])
        got = combine(Variant.GS_POOL, a_v, h_v, w)
        assert np.allclose(got, np.maximum(w @ np.concatenate([a_v, h_v]), 0.0))

    def test_gat_uses_elu(self):
        w = -np.eye(2)
        got = combine(Variant.GAT, np.array([1.0, 2.0]), None, w)
        assert np.allclose(got, np.expm1([-1.0, -2.0]))

    def test_others_use_relu(self):
        w = -np.eye(2)
        for variant in (Variant.GCN, Variant.G_GCN):
            assert np.array_equal(combine(variant, np.array([1.0, 2.0]), None, w), [0.0, 0.0])


class TestDerivedSeed:
    def test_stable_and_distinct(self):
        seen = {derived_seed(7, k, v) for k in range(4) for v in range(100)}
        assert len(seen) == 400
        assert derived_seed(7, 1, 3) == derived_seed(7, 1, 3)
        assert derived_seed(7, 1, 3) != derived_seed(8, 1, 3)


class TestWeightValidation:
    def test_config_dim_chaining(self):
        with pytest.raises(SchemaError):
            GnnModelConfig("gcn", dims=((4, 8), (4, 2)), sample_sizes=(2, 2))

    def test_block_size_power_of_two(self):
        with pytest.raises(SchemaError):
            GnnModelConfig("gcn", dims=((4, 4),), sample_sizes=(2,), block_size=6)

    def test_sample_sizes_are_capped(self):
        GnnModelConfig("gcn", dims=((4, 4),), sample_sizes=(gnn.MAX_SAMPLE_SIZE,))
        for s in (gnn.MAX_SAMPLE_SIZE + 1, 10**20):
            with pytest.raises(SchemaError, match="sample sizes"):
                GnnModelConfig("gcn", dims=((4, 4),), sample_sizes=(s,))

    def test_gat_requires_head_fields(self):
        with pytest.raises(SchemaError):
            GnnModelConfig("gat", dims=((4, 4),), sample_sizes=(2,))

    def test_wrong_combiner_shape_rejected(self):
        cfg = GnnModelConfig("gcn", dims=((4, 4),), sample_sizes=(2,))
        with pytest.raises(SchemaError):
            GnnModel(cfg, [LayerWeights(W=np.zeros((4, 5)))])

    def test_gspool_needs_pool_weights(self):
        cfg = GnnModelConfig("gspool", dims=((4, 4),), sample_sizes=(2,))
        with pytest.raises(SchemaError):
            GnnModel(cfg, [LayerWeights(W=np.zeros((4, 8)))])

    def test_random_weights_validate_clean(self):
        for variant, extra in [
            ("gcn", {}),
            ("gspool", {}),
            ("ggcn", {}),
            ("gat", {"gat_heads": 2, "gat_head_dim": 4}),
        ]:
            cfg = GnnModelConfig(
                variant, dims=((8, 8), (8, 8)), sample_sizes=(3, 2), block_size=4, **extra
            )
            GnnModel(cfg, random_weights(cfg, seed=11))  # must not raise

    def test_dense_weights_validate_at_any_block_size(self):
        cfg = GnnModelConfig("ggcn", dims=((32, 16),), sample_sizes=(2,), block_size=16)
        GnnModel(cfg, densify_weights(random_weights(cfg, seed=11)))  # must not raise

    def test_slot_the_variant_lacks_rejected(self):
        cfg = GnnModelConfig("gcn", dims=((4, 4),), sample_sizes=(2,))
        with pytest.raises(SchemaError, match="W_H"):
            GnnModel(cfg, [LayerWeights(W=np.zeros((4, 4)), W_H=np.zeros((4, 4)))])

    def test_head_shape_error_names_the_head(self):
        cfg = GnnModelConfig("gat", dims=((4, 4),), sample_sizes=(2,), gat_heads=2, gat_head_dim=2)
        lw = random_weights(cfg, seed=3)[0]
        lw.W_att[1] = np.zeros((3, 4))
        with pytest.raises(SchemaError, match=r"W_att\[1\]"):
            GnnModel(cfg, [lw])


class TestRandomWeights:
    def test_draws_are_pinned(self):
        # sha256 of every slot and head, computed before the slot table existed;
        # benchmark inputs are drawn by random_weights and must not move
        digest = hashlib.sha256()
        for variant in ("gcn", "gspool", "ggcn", "gat"):
            for n in (1, 4, 16):
                extra = {"gat_heads": 3, "gat_head_dim": 8} if variant == "gat" else {}
                cfg = GnnModelConfig(variant, ((32, 16), (16, 8)), (3, 2), block_size=n, **extra)
                for lw in random_weights(cfg, 7):
                    for name in ("W", "W_pool", "b", "W_H", "W_C", "W_att", "a_att"):
                        value = getattr(lw, name)
                        if value is None:
                            continue
                        for w in value if isinstance(value, list) else [value]:
                            digest.update(name.encode())
                            digest.update(json.dumps(weight_entry(w)).encode())
        assert digest.hexdigest() == (
            "a7bd75c51cef818eb69caf8dcc35b3586188310161379baf45ee793fbd2e2851"
        )


def _graph_and_config(variant, block_size=8, dims=((16, 16), (16, 16)), samples=(3, 2)):
    g = synthetic_graph(20, avg_degree=5.0, feature_dim=dims[0][0], seed=17)
    extra = {"gat_heads": 2, "gat_head_dim": 8} if variant == "gat" else {}
    cfg = GnnModelConfig(variant, dims=dims, sample_sizes=samples, block_size=block_size, **extra)
    return g, cfg


def _binary_graph_and_config(variant):
    # 0/1 features at about 1% density, as in bag-of-words data, and dense weights
    g, cfg = _graph_and_config(variant, block_size=1, dims=((400, 16), (16, 16)))
    rng = np.random.default_rng(19)
    return dataclasses.replace(g, features=rng.random(g.features.shape) < 0.01), cfg


class TestDenseMatvec:
    @pytest.mark.parametrize("shape", [(200, 700), (37, 6000), (1433, 1433)])
    def test_panels_keep_rows_exact(self, shape):
        rows, cols = shape
        panel_inputs = max(1, gnn._PANEL_BYTES // (8 * rows))
        assert cols > 2 * panel_inputs  # a dense row spans at least three panels
        rng = np.random.default_rng(rows)
        w = rng.uniform(-1, 1, size=shape) / np.sqrt(cols)
        cut = cols // gnn._SPARSE_CUT  # the most nonzeros a row may have to be gathered
        # rows of 0, 1, about 1% and either side of the cut nonzeros, between dense rows
        nonzeros = [cols, 0, cols, 1, max(2, cols // 100), cols, cut, cut + 1, cols]
        x = np.zeros((len(nonzeros), cols))
        for row, count in zip(x, nonzeros):
            at = rng.choice(cols, size=count, replace=False)
            row[at] = rng.uniform(-1, 1, size=count)
        batch = gnn.matvec(w, x)
        assert batch.shape == (len(x), rows)
        assert np.max(np.abs(batch - x @ w.T)) <= 1e-12
        assert np.array_equal(gnn.matvec(w, x[::-1]), batch[::-1])
        assert np.array_equal(gnn.matvec(np.asfortranarray(w), x), batch)
        for i in range(len(x)):
            assert np.array_equal(gnn.matvec(w, x[i]), batch[i])
            assert np.array_equal(gnn.matvec(w, x[i : i + 1])[0], batch[i])


def _overflowing_model(variant, block_size):
    # features x 1e10 and every combination weight x 1e300: layer 0 overflows
    g, cfg = _graph_and_config(variant, block_size=block_size)
    g = dataclasses.replace(g, features=g.features * 1e10)
    layers = random_weights(cfg, seed=23)
    for lw in layers:
        if block_size == 1:
            lw.W = lw.W * 1e300
        else:
            lw.W = BlockCirculantMatrix(*lw.W.shape, block_size, lw.W.defining_vectors * 1e300)
    return g, GnnModel(cfg, layers)


class TestForward:
    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_compressed_path_matches_dense_expansion(self, variant):
        g, cfg = _graph_and_config(variant)
        layers = random_weights(cfg, seed=23)
        model = GnnModel(cfg, layers)
        dense_cfg = GnnModelConfig(
            cfg.variant, cfg.dims, cfg.sample_sizes, 1, cfg.gat_heads, cfg.gat_head_dim
        )
        dense_model = GnnModel(dense_cfg, densify_weights(layers))
        batch = list(range(10))
        a = forward(model, g, batch, seed=31)
        b = forward(dense_model, g, batch, seed=31)
        assert a.shape == (10, cfg.dims[-1][1])
        assert np.max(np.abs(a - b)) < 1e-6

    def test_repeat_calls_bit_identical(self):
        g, cfg = _graph_and_config("ggcn")
        model = GnnModel(cfg, random_weights(cfg, seed=2))
        a = forward(model, g, [0, 5, 9], seed=41)
        b = forward(model, g, [0, 5, 9], seed=41)
        assert np.array_equal(a, b)

    def test_batch_order_and_membership_invariance(self):
        for g, cfg in (_graph_and_config("gcn"), _binary_graph_and_config("gcn")):
            model = GnnModel(cfg, random_weights(cfg, seed=3))
            whole = forward(model, g, [2, 7, 11], seed=5)
            flipped = forward(model, g, [11, 2, 7], seed=5)
            assert np.array_equal(whole[0], flipped[1])
            assert np.array_equal(whole[1], flipped[2])
            solo = forward(model, g, [7], seed=5)
            assert np.array_equal(whole[1], solo[0])

    def test_batch_split_bit_identical(self):
        for g, cfg in (_graph_and_config("gspool"), _binary_graph_and_config("gspool")):
            model = GnnModel(cfg, random_weights(cfg, seed=4))
            batch = list(range(12))
            whole = forward(model, g, batch, seed=6)
            halves = np.vstack(
                [forward(model, g, batch[:6], seed=6), forward(model, g, batch[6:], seed=6)]
            )
            assert np.array_equal(whole, halves)
            assert np.array_equal(forward(model, g, batch[::-1], seed=6), whole[::-1])

    @pytest.mark.parametrize("dense", [False, True], ids=["compressed", "dense"])
    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    @given(batch=st.lists(st.integers(0, 19), min_size=1, max_size=12))
    @settings(max_examples=15)
    def test_rows_do_not_depend_on_the_rest_of_the_batch(self, variant, dense, batch):
        # nine samples: past the eight terms where numpy's summation turns pairwise
        g, cfg = _graph_and_config(variant, samples=(9, 2))
        layers = random_weights(cfg, seed=29)
        if dense:
            cfg = GnnModelConfig(
                cfg.variant, cfg.dims, cfg.sample_sizes, 1, cfg.gat_heads, cfg.gat_head_dim
            )
            layers = densify_weights(layers)
        model = GnnModel(cfg, layers)
        batch = batch + batch[:1]  # at least one duplicate
        whole = forward(model, g, batch, seed=13)
        for v, row in zip(batch, whole):
            assert np.array_equal(row, forward(model, g, [v], seed=13)[0])

    def test_seed_changes_output(self):
        g, cfg = _graph_and_config("gcn")
        model = GnnModel(cfg, random_weights(cfg, seed=4))
        a = forward(model, g, [0], seed=1)
        b = forward(model, g, [0], seed=2)
        assert not np.array_equal(a, b)

    def test_feature_dim_mismatch_rejected(self):
        g, cfg = _graph_and_config("gcn")
        bad = GnnModelConfig("gcn", dims=((8, 8),), sample_sizes=(2,), block_size=8)
        model = GnnModel(bad, random_weights(bad, seed=0))
        with pytest.raises(SchemaError):
            forward(model, g, [0], seed=0)

    def test_matvec_count_tracks_sample_size(self):
        # one gspool layer on node 0: one W_pool matvec over the distinct
        # sampled nodes, one W matvec over node 0
        g = synthetic_graph(10, avg_degree=4.0, feature_dim=8, seed=9)
        for s in (3, 5, 12):
            cfg = GnnModelConfig("gspool", dims=((8, 8),), sample_sizes=(s,), block_size=4)
            model = GnnModel(cfg, random_weights(cfg, seed=1))
            pool, comb = model.layers[0].W_pool, model.layers[0].W
            pool.spectral(), comb.spectral()
            distinct = np.unique(sample_neighbors(g, 0, s, derived_seed(2, 1, 0))).size
            reset_op_counts()
            forward(model, g, [0], seed=2)
            counts = op_counts()
            assert counts.matvec_calls == 2
            assert counts.fft_calls == pool.q * distinct + comb.q * 1
            assert counts.ifft_calls == pool.p * distinct + comb.p * 1
        assert distinct < s  # at s = 12 samples repeat, and repeats cost nothing

    def test_gat_runs_only_the_combination_matvec(self):
        g, cfg = _graph_and_config("gat", block_size=4)
        model = GnnModel(cfg, random_weights(cfg, seed=3))
        reset_op_counts()
        forward(model, g, [0, 7], seed=2)
        assert op_counts().matvec_calls == cfg.num_layers  # W only, no W_att

    def test_nan_in_cached_spectra_raises(self):
        g, cfg = _graph_and_config("gcn", block_size=4)
        model = GnnModel(cfg, random_weights(cfg, seed=5))
        model.layers[1].W.spectral()[2, 0, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InternalConsistencyError, match="layer 1"):
                forward(model, g, [0, 7], seed=2)

    @pytest.mark.parametrize("block_size", [1, 4], ids=["dense", "compressed"])
    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_overflow_raises_instead_of_returning_nan(self, variant, block_size):
        g, model = _overflowing_model(variant, block_size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InternalConsistencyError):
                forward(model, g, list(range(20)), seed=31)

    @pytest.mark.parametrize("variant", ["gcn", "gspool", "ggcn", "gat"])
    def test_layers_call_the_module_attributes(self, variant, monkeypatch):
        # a traced run swaps these attributes for wrappers, and reads W from combine's args
        g, cfg = _graph_and_config(variant)
        model = GnnModel(cfg, random_weights(cfg, seed=7))
        calls = []

        def counting(name):
            fn = getattr(gnn, name)

            def wrapper(*args):
                calls.append((name, args))
                return fn(*args)

            return wrapper

        for name in ("combine", *(f"aggregate_{v.value}" for v in Variant)):
            monkeypatch.setattr(gnn, name, counting(name))
        forward(model, g, [0, 7], seed=2)
        assert cfg.num_layers == 2
        assert [name for name, _ in calls] == [f"aggregate_{variant}", "combine"] * 2
        for lw, (_, args) in zip(model.layers, calls[1::2]):
            assert args[3] is lw.W

    def test_out_of_range_batch_node_rejected(self):
        g, cfg = _graph_and_config("gcn")
        model = GnnModel(cfg, random_weights(cfg, seed=0))
        for batch in ([0, 20], [-1], [], [1.5], [True], [1.0]):
            with pytest.raises(SchemaError):
                forward(model, g, batch, seed=0)
