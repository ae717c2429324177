"""JSON round-trips for configs and weights."""

import json
import tracemalloc

import numpy as np
import pytest

from circgnn.circulant import BlockCirculantMatrix, new_random, to_dense
from circgnn.errors import InputParseError, SchemaError
from circgnn.gnn import GnnModelConfig, LayerWeights, random_weights
from circgnn.modelio import (
    load_model_config,
    load_weights,
    parse_weight_entry,
    save_model_config,
    save_weights,
    weight_entry,
)


class TestConfigIo:
    def test_roundtrip_all_variants(self, tmp_path):
        configs = [
            GnnModelConfig("gcn", ((8, 4),), (3,), block_size=4),
            GnnModelConfig("gspool", ((8, 8), (8, 2)), (3, 2), block_size=2),
            GnnModelConfig("gat", ((8, 8),), (3,), block_size=4, gat_heads=2, gat_head_dim=4),
        ]
        for i, cfg in enumerate(configs):
            path = tmp_path / f"cfg{i}.json"
            save_model_config(cfg, path)
            assert load_model_config(path) == cfg

    def test_unknown_variant_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "sage", "dims": [[4, 4]], "sample_sizes": [2]}))
        with pytest.raises(SchemaError):
            load_model_config(path)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "gcn", "dims": [[4, 4]]}))
        with pytest.raises(SchemaError, match="sample_sizes"):
            load_model_config(path)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("dims", 4, "dims must be a list of [in, out] pairs"),
            ("dims", [[4]], "dims must be a list of [in, out] pairs"),
            ("sample_sizes", 2, "sample_sizes must be a list"),
            ("dims", [["4", 4]], "dims, sample sizes, block_size and gat fields must be integers"),
        ],
    )
    def test_malformed_shape_fields_are_named(self, tmp_path, field, value, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "gcn", "dims": [[4, 4]], "sample_sizes": [2],
                                    field: value}))
        with pytest.raises(SchemaError) as exc:
            load_model_config(path)
        assert message in str(exc.value)

    @pytest.mark.parametrize("field, value", [("dims", 4), ("sample_sizes", [0]), ("dims", [])])
    def test_config_schema_errors_name_the_file(self, tmp_path, field, value):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"variant": "gcn", "dims": [[4, 4]], "sample_sizes": [2],
                                    field: value}))
        with pytest.raises(SchemaError) as exc:
            load_model_config(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert exc.value.exit_code == 3

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(InputParseError):
            load_model_config(path)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(InputParseError):
            load_model_config(tmp_path / "nothing.json")


class TestWeightEntries:
    def test_block_circulant_roundtrip(self):
        w = new_random(10, 7, 4, seed=1)
        entry = weight_entry(w)
        back = parse_weight_entry(entry, "t")
        assert isinstance(back, BlockCirculantMatrix)
        assert np.array_equal(back.defining_vectors, w.defining_vectors)
        assert np.array_equal(to_dense(back), to_dense(w))

    def test_dense_sentinel_roundtrip(self):
        arr = np.arange(6, dtype=float).reshape(2, 3)
        entry = weight_entry(arr)
        assert entry["block_size"] == 1
        back = parse_weight_entry(entry, "t")
        assert isinstance(back, np.ndarray)
        assert np.array_equal(back, arr)

    def test_vector_roundtrip(self):
        vec = np.array([1.0, -2.0, 3.0])
        entry = weight_entry(vec)
        assert entry["cols"] == 1
        back = parse_weight_entry(entry, "t", as_vector=True)
        assert back.shape == (3,)
        assert np.array_equal(back, vec)

    def test_wrong_payload_size_rejected(self):
        entry = {"rows": 4, "cols": 4, "block_size": 2, "defining_vectors": [1.0, 2.0]}
        with pytest.raises(SchemaError, match="expected 8"):
            parse_weight_entry(entry, "t")

    def test_vector_must_be_dense(self):
        entry = {"rows": 4, "cols": 4, "block_size": 2,
                 "defining_vectors": [0.0] * 8}
        with pytest.raises(SchemaError):
            parse_weight_entry(entry, "t", as_vector=True)

    @pytest.mark.parametrize("values", [["1.5", "2"], [True, False], [[1.0], [2.0]],
                                        [None, 1.0], [[1.0, 2.0], [3.0]]])
    def test_values_that_are_not_a_flat_list_of_numbers_rejected(self, values):
        entry = {"rows": 2, "cols": 1, "block_size": 1, "defining_vectors": values}
        with pytest.raises(InputParseError, match="flat list of numbers"):
            parse_weight_entry(entry, "t")

    def test_integer_values_load_as_floats(self):
        entry = {"rows": 2, "cols": 1, "block_size": 1, "defining_vectors": [1, -2]}
        back = parse_weight_entry(entry, "t", as_vector=True)
        assert back.dtype == np.float64
        assert np.array_equal(back, [1.0, -2.0])

    def test_context_appears_in_errors(self):
        with pytest.raises(SchemaError, match="layer 3: W_H"):
            parse_weight_entry({"rows": 1}, "layer 3: W_H")


class TestWeightFiles:
    @pytest.mark.parametrize(
        "variant,extra",
        [
            ("gcn", {}),
            ("gspool", {}),
            ("ggcn", {}),
            ("gat", {"gat_heads": 2, "gat_head_dim": 4}),
        ],
    )
    def test_roundtrip_per_variant(self, tmp_path, variant, extra):
        cfg = GnnModelConfig(variant, ((8, 8),), (2,), block_size=4, **extra)
        layers = random_weights(cfg, seed=13)
        path = tmp_path / "w.json"
        save_weights(layers, path)
        back = load_weights(path)
        assert len(back) == 1
        got, want = back[0], layers[0]
        assert np.array_equal(to_dense(got.W), to_dense(want.W))
        if variant == "gspool":
            assert np.array_equal(got.b, want.b)
            assert np.array_equal(to_dense(got.W_pool), to_dense(want.W_pool))
        if variant == "ggcn":
            assert np.array_equal(to_dense(got.W_H), to_dense(want.W_H))
            assert np.array_equal(to_dense(got.W_C), to_dense(want.W_C))
        if variant == "gat":
            for a, b in zip(got.W_att, want.W_att):
                assert np.array_equal(to_dense(a), to_dense(b))
            for a, b in zip(got.a_att, want.a_att):
                assert np.array_equal(a, b)

    def test_mixed_dense_and_compressed(self, tmp_path):
        cfg = GnnModelConfig("gspool", ((8, 8),), (2,), block_size=4)
        layers = random_weights(cfg, seed=13)
        layers[0].W_pool = to_dense(layers[0].W_pool)
        path = tmp_path / "w.json"
        save_weights(layers, path)
        back = load_weights(path)
        assert isinstance(back[0].W, BlockCirculantMatrix)
        assert isinstance(back[0].W_pool, np.ndarray)

    def test_missing_combination_weight_rejected(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"layers": [{"b": {"rows": 1, "cols": 1,
                        "block_size": 1, "defining_vectors": [0.0]}}]}))
        with pytest.raises(SchemaError, match="layer 0"):
            load_weights(path)

    def test_layer_index_in_error_context(self, tmp_path):
        good = weight_entry(np.zeros((2, 2)))
        bad = {"rows": 2, "cols": 2, "block_size": 1, "defining_vectors": [1.0]}
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"layers": [{"W": good}, {"W": bad}]}))
        with pytest.raises(SchemaError, match="layer 1"):
            load_weights(path)

    @pytest.mark.parametrize("values", [[1.0, True], [None, 1.0], ["1.5", 2.0], [[1.0], [2.0]],
                                        [[1.0, 2.0], [3.0]]])
    @pytest.mark.parametrize("where", ["next layer", "same layer"])
    def test_bad_entry_after_a_valid_one_gives_the_same_message(self, tmp_path, values, where):
        good = weight_entry(np.ones((2, 1)))
        bad = {"rows": 2, "cols": 1, "block_size": 1, "defining_vectors": values}
        layers = [{"W": good}, {"W": bad}] if where == "next layer" else [{"W": good, "W_C": bad}]
        label = "layer 1: W" if where == "next layer" else "layer 0: W_C"
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"layers": layers}))
        with pytest.raises(InputParseError) as exc:
            load_weights(path)
        message = "defining_vectors must be a flat list of numbers"
        assert str(exc.value) == f"{path}: {label}: {message}"
        assert exc.value.exit_code == 2

    def test_only_one_entry_of_python_floats_is_alive_at_a_time(self, tmp_path):
        # short values, so that the Python floats of a matrix (a 24-byte float and an
        # 8-byte list slot per value) outweigh the text they are decoded from
        values = (np.arange(120 * 120) % 13 / 4).reshape(120, 120)
        path = tmp_path / "w.json"
        save_weights([LayerWeights(W=values) for _ in range(4)], path)
        floats, array = values.size * (24 + 8), values.size * 8
        tracemalloc.start()
        try:
            back = load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(lw.W, values) for lw in back)
        # the text, two matrices' worth of Python floats and the four arrays; building
        # the arrays only after the whole file is decoded holds four matrices' floats
        assert peak < path.stat().st_size + 2 * floats + 4 * array
