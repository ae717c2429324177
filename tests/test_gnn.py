"""Variant semantics, sampling determinism, compressed-vs-dense agreement."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import (
    GnnModel,
    GnnModelConfig,
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
        got = aggregate_gcn(g, h, idx, np.arange(5), v)
        for f in range(2):
            dv = g.degree(v[f])
            want = sum(h[u] / np.sqrt(g.degree(u) * dv) for u in idx[f])
            assert np.max(np.abs(got[f] - want)) < 1e-12

    def test_zero_degree_counts_as_one(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("0 3\n")  # nodes 1, 2 isolated
        g = load_edge_list(path)
        h = np.eye(4)
        got = aggregate_gcn(g, h[[1]], np.array([[0]]), np.array([1]), np.array([1]))
        assert np.array_equal(got[0], h[1])  # 1/sqrt(1*1) weight


class TestAggregateGspool:
    def test_single_sample_reduces_to_pooled_vector(self):
        rng = np.random.default_rng(1)
        w_pool = rng.normal(size=(4, 4))
        b = rng.normal(size=4)
        h = rng.normal(size=(1, 4))
        got = aggregate_gspool(h, np.array([[0]]), w_pool, b)
        assert np.allclose(got[0], np.maximum(w_pool @ h[0] + b, 0.0))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        w_pool = rng.normal(size=(6, 6))
        b = rng.normal(size=6)
        h = rng.normal(size=(5, 6))
        base = aggregate_gspool(h, np.array([[0, 1, 2, 3, 4]]), w_pool, b)
        shuffled = aggregate_gspool(h, np.array([[4, 2, 0, 3, 1]]), w_pool, b)
        assert np.array_equal(base, shuffled)

    def test_max_dominates(self):
        # one strongly positive row must win every coordinate it dominates
        w_pool = np.eye(3)
        b = np.zeros(3)
        h = np.array([[5.0, -1.0, 0.0], [1.0, 2.0, -4.0]])
        got = aggregate_gspool(h, np.array([[0, 1]]), w_pool, b)
        assert np.array_equal(got, [[5.0, 2.0, 0.0]])


class TestAggregateGgcn:
    def test_gate_oracle(self):
        rng = np.random.default_rng(3)
        w_h = rng.normal(size=(4, 4))
        w_c = rng.normal(size=(4, 4))
        h_v = rng.normal(size=(2, 4))
        h = rng.normal(size=(3, 4))
        idx = np.array([[0, 1, 2], [2, 2, 0]])
        got = aggregate_ggcn(h, idx, h_v, w_h, w_c)
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
        single = aggregate_ggcn(row, np.array([[0]]), h_v, w_h, w_c)
        double = aggregate_ggcn(row, np.array([[0, 0]]), h_v, w_h, w_c)
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
        got = aggregate_gat(h, np.arange(s)[None, :], h_v, lw)
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
        alpha = aggregate_gat(np.eye(7), np.arange(7)[None, :], rng.normal(size=(1, 7)), lw)[0]
        assert alpha.shape == (7,)
        assert np.all(alpha > 0)
        assert abs(alpha.sum() - 1.0) < 1e-12

    def test_uniform_scores_give_uniform_weights(self):
        # zero scoring vector makes every score zero, so attention is 1/s
        lw = LayerWeights(W=None, W_att=[np.eye(4)], a_att=[np.zeros(8)])
        alpha = aggregate_gat(np.eye(4), np.arange(4)[None, :], np.ones((1, 4)), lw)[0]
        assert np.allclose(alpha, 0.25)


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
        g, cfg = _graph_and_config("gcn")
        model = GnnModel(cfg, random_weights(cfg, seed=3))
        whole = forward(model, g, [2, 7, 11], seed=5)
        flipped = forward(model, g, [11, 2, 7], seed=5)
        assert np.array_equal(whole[0], flipped[1])
        assert np.array_equal(whole[1], flipped[2])
        solo = forward(model, g, [7], seed=5)
        assert np.array_equal(whole[1], solo[0])

    def test_batch_split_bit_identical(self):
        g, cfg = _graph_and_config("gspool")
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

    def test_out_of_range_batch_node_rejected(self):
        g, cfg = _graph_and_config("gcn")
        model = GnnModel(cfg, random_weights(cfg, seed=0))
        for batch in ([0, 20], [-1], []):
            with pytest.raises(SchemaError):
                forward(model, g, batch, seed=0)
