"""End-to-end CLI runs through a real subprocess, plus one in-process fuzz of the count options."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from circgnn import GnnModel, GnnModelConfig, Variant, load_weights, random_weights, save_weights
from circgnn.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(*args, check=False):
    proc = subprocess.run(
        [sys.executable, "-m", "circgnn", *map(str, args)],
        capture_output=True,
        text=True,
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}):\n{proc.stderr}")
    return proc


def infer_args(report_path, seed=7, extra=()):
    return [
        "infer",
        "--model", DATA / "five_nodes_model.json",
        "--weights", DATA / "five_nodes_weights.json",
        "--graph", DATA / "five_nodes_edges.txt",
        "--features", DATA / "five_nodes_features.csv",
        "--seed", seed,
        "--report", report_path,
        *extra,
    ]


class TestInfer:
    def test_matches_committed_golden_digest(self, tmp_path):
        report_path = tmp_path / "report.json"
        run_cli(*infer_args(report_path), check=True)
        report = json.loads(report_path.read_text())
        golden = json.loads((DATA / "five_nodes_golden.json").read_text())
        for key in ("mean", "max"):
            got = np.array(report["outputs"]["digest"][key])
            want = np.array(golden["digest"][key])
            assert np.max(np.abs(got - want)) < 1e-9

    def test_report_payload_repeats_exactly(self, tmp_path):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(*infer_args(a_path), check=True)
        run_cli(*infer_args(b_path), check=True)
        a = json.loads(a_path.read_text())
        b = json.loads(b_path.read_text())
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b

    def test_batch_order_does_not_change_digest(self, tmp_path):
        order = [3, 0, 4, 1, 2]
        runs = []
        for name, batch in (("a", "0,1,2,3,4"), ("b", ",".join(map(str, order)))):
            report_path, csv_path = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            run_cli(*infer_args(report_path, extra=["--batch", batch, "--out", csv_path]),
                    check=True)
            digest = json.loads(report_path.read_text())["outputs"]["digest"]
            runs.append((digest, np.loadtxt(csv_path, delimiter=",")))
        (a_digest, a_rows), (b_digest, b_rows) = runs
        assert np.array_equal(a_rows[order], b_rows)
        assert a_digest == b_digest

    def test_out_csv_has_batch_shape(self, tmp_path):
        report_path = tmp_path / "r.json"
        csv_path = tmp_path / "emb.csv"
        run_cli(*infer_args(report_path, extra=["--out", csv_path]), check=True)
        rows = np.loadtxt(csv_path, delimiter=",")
        assert rows.shape == (5, 4)

    def test_explicit_batch_subset(self, tmp_path):
        report_path = tmp_path / "r.json"
        run_cli(*infer_args(report_path, extra=["--batch", "0,2"]), check=True)
        report = json.loads(report_path.read_text())
        assert report["outputs"]["batch_size"] == 2

    def test_out_of_range_batch_node_exits_3(self, tmp_path):
        proc = run_cli(*infer_args(tmp_path / "r.json", extra=["--batch", "0,99"]))
        assert proc.returncode == 3
        assert "99 out of range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_graph_exits_2(self, tmp_path):
        proc = run_cli(
            "infer",
            "--model", DATA / "five_nodes_model.json",
            "--weights", DATA / "five_nodes_weights.json",
            "--graph", tmp_path / "missing.txt",
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_malformed_graph_exits_2_with_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1\n1 nope\n")
        proc = run_cli(
            "infer",
            "--model", DATA / "five_nodes_model.json",
            "--weights", DATA / "five_nodes_weights.json",
            "--graph", bad,
        )
        assert proc.returncode == 2
        assert ":2" in proc.stderr

    def test_feature_mismatch_exits_3(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("1.0,2.0,3.0,4.0\n")  # one row for five nodes
        proc = run_cli(
            "infer",
            "--model", DATA / "five_nodes_model.json",
            "--weights", DATA / "five_nodes_weights.json",
            "--graph", DATA / "five_nodes_edges.txt",
            "--features", feats,
        )
        assert proc.returncode == 3


class TestCompress:
    @pytest.fixture
    def dense_weights(self, tmp_path):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(4, 4))
        path = tmp_path / "dense.json"
        path.write_text(json.dumps({"layers": [{"W": {
            "rows": 4, "cols": 4, "block_size": 1,
            "defining_vectors": w.ravel().tolist(),
        }}]}))
        return path, w

    def test_projection_report_and_output_file(self, tmp_path, dense_weights):
        path, w = dense_weights
        out = tmp_path / "compressed.json"
        report_path = tmp_path / "r.json"
        run_cli("compress", "--weights", path, "--block-size", 2,
                "--out", out, "--report", report_path, check=True)
        report = json.loads(report_path.read_text())
        row = report["outputs"]["per_matrix"][0]
        assert row["storage_reduction"] == 2.0
        assert row["frobenius_error"] > 0
        saved = json.loads(out.read_text())
        assert saved["layers"][0]["W"]["block_size"] == 2

    def test_block_one_passthrough(self, tmp_path, dense_weights):
        path, _ = dense_weights
        report_path = tmp_path / "r.json"
        run_cli("compress", "--weights", path, "--block-size", 1,
                "--report", report_path, check=True)
        row = json.loads(report_path.read_text())["outputs"]["per_matrix"][0]
        assert row["frobenius_error"] == 0.0
        assert row["compute_reduction"] == 1.0

    def test_already_compressed_input_exits_3(self, tmp_path):
        proc = run_cli("compress", "--weights", DATA / "five_nodes_weights.json",
                       "--block-size", 2)
        assert proc.returncode == 3
        assert "dense" in proc.stderr

    def test_attention_heads_are_compressed(self, tmp_path):
        cfg = GnnModelConfig("gat", ((8, 8),), (2,), gat_heads=2, gat_head_dim=4)
        path, out, report_path = tmp_path / "gat.json", tmp_path / "c.json", tmp_path / "r.json"
        save_weights(random_weights(cfg, seed=3), path)
        run_cli("compress", "--weights", path, "--block-size", 4,
                "--out", out, "--report", report_path, check=True)
        rows = json.loads(report_path.read_text())["outputs"]["per_matrix"]
        assert [row["name"] for row in rows] == ["W", "W_att[0]", "W_att[1]"]
        saved = json.loads(out.read_text())["layers"][0]
        assert [w["block_size"] for w in saved["W_att"]] == [4, 4]
        assert [a["block_size"] for a in saved["a_att"]] == [1, 1]
        compressed = GnnModelConfig("gat", ((8, 8),), (2,), block_size=4,
                                    gat_heads=2, gat_head_dim=4)
        GnnModel(compressed, load_weights(out))  # must validate


def _weights_with(**fields):
    entry = {"rows": 4, "cols": 4, "block_size": 2, "defining_vectors": [0.1] * 8}
    return {"layers": [{"W": {**entry, **fields}}]}


MODEL = json.loads((DATA / "five_nodes_model.json").read_text())
NAN, INF = float("nan"), float("inf")
MALFORMED = {
    "non-numeric vectors": ("weights", _weights_with(defining_vectors=["a"] * 8), 2),
    "ragged vectors": ("weights", _weights_with(defining_vectors=[[0.1] * 4, [0.1] * 3]), 2),
    "text number vectors": ("weights", _weights_with(defining_vectors=["1.5"] * 8), 2),
    "boolean vectors": ("weights", _weights_with(defining_vectors=[True, False] * 4), 2),
    "nested vectors": ("weights", _weights_with(defining_vectors=[[0.1]] * 8), 2),
    "null in vectors": ("weights", _weights_with(defining_vectors=[None] + [0.1] * 7), 2),
    "null rows": ("weights", _weights_with(rows=None), 2),
    "text rows": ("weights", _weights_with(rows="four"), 2),
    "nan dense": ("weights", _weights_with(block_size=1, defining_vectors=[0.1] * 15 + [NAN]), 2),
    "nan compressed": ("weights", _weights_with(defining_vectors=[0.1] * 7 + [NAN]), 2),
    "inf compressed": ("weights", _weights_with(defining_vectors=[INF] + [0.1] * 7), 2),
    "boolean among floats": ("weights", _weights_with(defining_vectors=[1.5, True] + [0.1] * 6), 2),
    "boolean among integers": ("weights", _weights_with(defining_vectors=[0, 1, True] + [2] * 5), 2),
    "null sample size": ("model", {**MODEL, "sample_sizes": [None]}, 3),
    "text block size": ("model", {**MODEL, "block_size": "two"}, 3),
    "fractional sample size": ("model", {**MODEL, "sample_sizes": [2.5]}, 3),
    "fractional dims": ("model", {**MODEL, "dims": [[4.0, 4]]}, 3),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_exits_with_documented_code(tmp_path, case):
    kind, doc, code = MALFORMED[case]
    files = {"model": DATA / "five_nodes_model.json", "weights": DATA / "five_nodes_weights.json"}
    files[kind] = tmp_path / f"{kind}.json"
    files[kind].write_text(json.dumps(doc))
    proc = run_cli("infer", "--model", files["model"], "--weights", files["weights"],
                   "--graph", DATA / "five_nodes_edges.txt",
                   "--features", DATA / "five_nodes_features.csv")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


SEARCH_CONFIG = {
    "num_nodes": 2708,
    "block_size": 128,
    "layers": [
        {"samples": 25, "in_dim": 512, "out_dim": 512},
        {"samples": 10, "in_dim": 512, "out_dim": 512},
    ],
}


class TestSearch:
    def test_report_fields(self, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps(SEARCH_CONFIG))
        report_path = tmp_path / "r.json"
        run_cli("search", "--config", cfg, "--report", report_path, check=True)
        out = json.loads(report_path.read_text())["outputs"]
        assert out["dsp_usage"] <= out["dsp_budget"] == 900
        assert out["dsp_utilization"] >= 0.9
        assert out["total_cycles"] == out["per_node_cycles"] * 2708
        assert len(out["layers"]) == 2
        for lc in out["layers"]:
            assert lc["bottleneck"] in {"fft", "mac", "ifft", "vpu"}
            assert lc["peak_cycles"] == max(
                lc["fft_cycles"], lc["mac_cycles"], lc["ifft_cycles"], lc["vpu_cycles"]
            )
        assert out["explored"] > 0
        assert out["search_seconds"] < 60

    def test_infeasible_budget_exits_4(self, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({**SEARCH_CONFIG, "dsp_budget": 100}))
        proc = run_cli("search", "--config", cfg)
        assert proc.returncode == 4
        assert "116" in proc.stderr

    def test_custom_coefficients(self, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({
            **SEARCH_CONFIG,
            "block_size": 64,
            "coefficients": {
                "transform_cycles": 200, "fft_channel_dsp": 10,
                "pe_dsp_per_pack": 8, "vpu_lane_dsp": 32, "dsp_budget": 500,
            },
        }))
        report_path = tmp_path / "r.json"
        run_cli("search", "--config", cfg, "--report", report_path, check=True)
        out = json.loads(report_path.read_text())["outputs"]
        assert out["dsp_budget"] == 500

    def test_uncalibrated_block_size_without_coefficients_exits_3(self, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({**SEARCH_CONFIG, "block_size": 64}))
        proc = run_cli("search", "--config", cfg)
        assert proc.returncode == 3

    def test_missing_config_field_exits_3(self, tmp_path):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({"num_nodes": 5}))
        proc = run_cli("search", "--config", cfg)
        assert proc.returncode == 3

    @pytest.mark.parametrize("fields", [
        {"num_nodes": "abc"},
        {"num_nodes": "100"},
        {"num_nodes": 2.7},
        {"num_nodes": True},
        {"block_size": 128.0},
        {"dsp_budget": None},
        {"max_pe_rows": 0},
        {"max_pe_cols": 4.5},
        {"layers": [{"samples": 2.5, "in_dim": 512, "out_dim": 512}]},
        {"layers": [{"samples": 25, "in_dim": "512", "out_dim": 512}]},
        {"layers": [7]},
        {"layers": "abc"},
        {"coefficients": {"transform_cycles": 200, "fft_channel_dsp": 10, "pe_dsp_per_pack": 8,
                          "vpu_lane_dsp": False, "dsp_budget": 500}},
        {"coefficients": [200, 10, 8, 32, 500]},
    ], ids=repr)
    def test_counts_that_are_not_integers_exit_3(self, tmp_path, fields):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({**SEARCH_CONFIG, **fields}))
        proc = run_cli("search", "--config", cfg)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr


class TestProfile:
    def test_dataset_grid(self, tmp_path):
        report_path = tmp_path / "r.json"
        run_cli("profile", "--dataset", "reddit", "--report", report_path, check=True)
        grid = json.loads(report_path.read_text())["outputs"]["grid"]
        assert len(grid) == 8
        by_key = {(r["variant"], r["phase"]): r for r in grid}
        assert by_key[("gcn", "aggregation")]["intensity"] < 10

    def test_zero_node_graph_reports_zeros(self, tmp_path):
        report_path = tmp_path / "r.json"
        run_cli("profile", "--nodes", 0,
                "--report", report_path, check=True)
        grid = json.loads(report_path.read_text())["outputs"]["grid"]
        for row in grid:
            assert row["flops"] == 0
            assert row["intensity"] is None

    def test_compressed_column_appears_with_block_size(self, tmp_path):
        report_path = tmp_path / "r.json"
        run_cli("profile", "--dataset", "cora", "--block-size", 128,
                "--report", report_path, check=True)
        grid = json.loads(report_path.read_text())["outputs"]["grid"]
        for row in grid:
            assert "compressed_flops" in row
            assert row["compressed_flops"] <= row["flops"]

    def test_single_variant_selection(self, tmp_path):
        report_path = tmp_path / "r.json"
        run_cli("profile", "--dataset", "cora", "--variant", "gcn",
                "--report", report_path, check=True)
        grid = json.loads(report_path.read_text())["outputs"]["grid"]
        assert {r["variant"] for r in grid} == {"gcn"}
        assert len(grid) == 2

    def test_memory_bound_mark(self):
        proc = run_cli("profile", "--dataset", "reddit", check=True)
        marked = [line.split()[:2] for line in proc.stdout.splitlines() if "memory bound" in line]
        assert marked == [["gcn", "aggregation"]]

    @pytest.mark.parametrize("args", [
        ("--variant", "gat", "--heads", "-2"),
        ("--variant", "gcn", "--heads", "0"),
        ("--head-dim", "0"),
        ("--block-size", "0"),
        ("--block-size", "-8"),
    ])
    def test_counts_below_one_exit_3(self, args):
        proc = run_cli("profile", "--dataset", "cora", *args)
        assert proc.returncode == 3, proc.stdout
        assert "Traceback" not in proc.stderr


PROFILE_COUNTS = ("--nodes", "--samples", "--in-dim", "--out-dim", "--heads", "--head-dim",
                  "--block-size")


def _count_is_valid(option, value):
    if option == "--block-size":
        return value >= 1 and bin(value).count("1") == 1
    return value >= (0 if option == "--nodes" else 1)


@pytest.fixture(scope="module")
def dense_weights_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "dense.json"
    cfg = GnnModelConfig("gspool", ((4, 4),), (2,))
    save_weights(random_weights(cfg, seed=0), path)
    return path


@given(
    counts=st.dictionaries(st.sampled_from(PROFILE_COUNTS), st.integers(-2**20, 2**20)),
    variant=st.sampled_from(["all", *(v.value for v in Variant)]),
    # projection time grows as n^3, so larger sizes only slow the run down
    block_size=st.integers(-64, 64),
)
def test_count_options_exit_0_only_when_every_count_is_valid(
    dense_weights_file, counts, variant, block_size
):
    profile = ["profile", "--variant", variant]
    for option, value in counts.items():
        profile += [option, str(value)]
    compress = ["compress", "--weights", str(dense_weights_file), "--block-size", str(block_size)]
    runs = [
        (profile, all(_count_is_valid(o, v) for o, v in counts.items())),
        (compress, _count_is_valid("--block-size", block_size)),
    ]
    for argv, valid in runs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the command line
            assert exc.code == 2, argv
        else:
            assert code == (0 if valid else 3), argv
