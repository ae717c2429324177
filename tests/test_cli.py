"""End-to-end CLI runs through a real subprocess.

The count-option fuzz, the overflow cases, the input-file fuzz and the
UTF-8 cases call ``main`` in process.
"""

import hashlib
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import graph
from circgnn.circulant import BlockCirculantMatrix
from circgnn.cli import build_parser, main
from circgnn.gnn import GnnModel, GnnModelConfig, Variant, random_weights
from circgnn.modelio import load_weights, save_model_config, save_weights

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

    def test_negative_seed_exits_3(self, tmp_path):
        proc = run_cli(*infer_args(tmp_path / "r.json", seed=-1))
        assert proc.returncode == 3
        assert "seed -1 must be non-negative" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_dims_that_are_not_pairs_exit_3(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"variant": "gcn", "dims": [[4]], "sample_sizes": [2]}))
        args = infer_args(tmp_path / "r.json")
        args[args.index("--model") + 1] = model
        proc = run_cli(*args)
        assert proc.returncode == 3
        assert "dims must be a list of [in, out] pairs" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("batch", ["-1", "0,18446744073709551616", "-99999999999999999999"])
    def test_negative_or_huge_batch_node_exits_3(self, tmp_path, capsys, batch):
        assert main([str(a) for a in infer_args(tmp_path / "r.json")] + [f"--batch={batch}"]) == 3
        assert f"node {batch.split(',')[-1]} out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", [["--batch", "-1,2"], ["--batch=-1,2"], ["--batch", "-1"]])
    def test_bad_batch_node_exits_3_however_spelled(self, tmp_path, capsys, spelling):
        assert main([str(a) for a in infer_args(tmp_path / "r.json")] + spelling) == 3
        assert "batch node -1 out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", [["--bat", "-1,2"], ["--bat=-1,2"], ["--bat", "1"]])
    def test_abbreviated_option_is_a_usage_error(self, tmp_path, capsys, spelling):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in infer_args(tmp_path / "r.json")] + spelling)
        assert exc.value.code == 2
        assert "unrecognized arguments: --bat" in capsys.readouterr().err

    def test_digest_is_the_same_in_every_batch_order(self, tmp_path):
        digests = set()
        for order in itertools.permutations(range(5)):
            report_path = tmp_path / "r.json"
            extra = ["--batch", ",".join(map(str, order))]
            assert main([str(a) for a in infer_args(report_path, extra=extra)]) == 0
            digests.add(json.dumps(json.loads(report_path.read_text())["outputs"]["digest"]))
        assert len(digests) == 1

    def test_infer_without_features_is_a_usage_error(self, tmp_path):
        args = [str(a) for a in infer_args(tmp_path / "r.json")]
        at = args.index("--features")
        with pytest.raises(SystemExit) as exc:
            main(args[:at] + args[at + 2 :])
        assert exc.value.code == 2
        assert not (tmp_path / "r.json").exists()

    def test_missing_graph_exits_2(self, tmp_path):
        proc = run_cli(
            "infer",
            "--model", DATA / "five_nodes_model.json",
            "--weights", DATA / "five_nodes_weights.json",
            "--graph", tmp_path / "missing.txt",
            "--features", DATA / "five_nodes_features.csv",
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
            "--features", DATA / "five_nodes_features.csv",
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

    def test_block_size_past_the_limit_exits_3_before_counting(
        self, dense_weights, capsys, no_projection_counts
    ):
        path, _ = dense_weights
        assert main(["compress", "--weights", str(path), "--block-size", str(2**40)]) == 3
        assert f"block size must be at most {2**16}, got {2**40}" in capsys.readouterr().err

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
    "dense block size for n=2 weights": ("model", {**MODEL, "block_size": 1}, 3),
    "block size 1024 for n=2 weights": ("model", {**MODEL, "block_size": 1024}, 3),
    "block size 2**64 for n=2 weights": ("model", {**MODEL, "block_size": 2**64}, 3),
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


@pytest.mark.parametrize("block_size", [1, 2], ids=["dense", "compressed"])
@pytest.mark.parametrize("variant", [v.value for v in Variant])
def test_overflow_exits_5(tmp_path, capsys, variant, block_size):
    # features x 1e10 and combination weights x 1e300 overflow layer 0
    extra = {"gat_heads": 2, "gat_head_dim": 2} if variant == "gat" else {}
    cfg = GnnModelConfig(variant, ((4, 4), (4, 4)), (2, 2), block_size=block_size, **extra)
    layers = random_weights(cfg, seed=23)
    for lw in layers:
        if block_size == 1:
            lw.W = lw.W * 1e300
        else:
            lw.W = BlockCirculantMatrix(*lw.W.shape, block_size, lw.W.defining_vectors * 1e300)
    model, weights, feats = tmp_path / "m.json", tmp_path / "w.json", tmp_path / "f.csv"
    save_model_config(cfg, model)
    save_weights(layers, weights)
    np.savetxt(feats, np.loadtxt(DATA / "five_nodes_features.csv", delimiter=",") * 1e10,
               delimiter=",")
    code = main(["infer", "--model", str(model), "--weights", str(weights),
                 "--graph", str(DATA / "five_nodes_edges.txt"), "--features", str(feats)])
    assert code == 5
    assert "non-finite" in capsys.readouterr().err


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

    @pytest.mark.parametrize("budget", ["abc", 1400])
    def test_budget_beside_coefficients_exits_3(self, tmp_path, budget):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({
            **SEARCH_CONFIG,
            "dsp_budget": budget,
            "coefficients": {
                "transform_cycles": 200, "fft_channel_dsp": 10,
                "pe_dsp_per_pack": 8, "vpu_lane_dsp": 32, "dsp_budget": 250,
            },
        }))
        proc = run_cli("search", "--config", cfg)
        assert proc.returncode == 3, proc.stderr
        assert "dsp_budget" in proc.stderr
        assert "Traceback" not in proc.stderr

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


def test_cost_model_reports_are_pinned(tmp_path, capsys):
    # sha256 of the search and profile outputs and summaries, timings left out,
    # computed before the cost model gave each of its facts one owner
    report = tmp_path / "r.json"
    cora = [{"samples": 25, "in_dim": 1433, "out_dim": 128},
            {"samples": 10, "in_dim": 128, "out_dim": 16}]
    runs = []
    for layers in (SEARCH_CONFIG["layers"], cora):
        cfg = tmp_path / "search.json"
        cfg.write_text(json.dumps({**SEARCH_CONFIG, "layers": layers}))
        runs.append(["search", "--config", str(cfg), "--report", str(report)])
    runs.append(["profile", "--dataset", "reddit", "--block-size", "128", "--report", str(report)])
    digest = hashlib.sha256()
    for argv in runs:
        assert main(argv) == 0
        outputs = json.loads(report.read_text())["outputs"]
        outputs.pop("search_seconds", None)
        summary = re.sub(r" in \d+\.\d+s", "", capsys.readouterr().out)
        digest.update(json.dumps([outputs, summary], sort_keys=True).encode())
    assert digest.hexdigest() == "c50d1e77d63976c5f3f31c221987deefda496cfd57483a8396b4328a66927ad5"


def test_infer_and_compress_summaries_are_pinned(tmp_path, capsys):
    # sha256 of the infer and compress outputs and summaries, computed while
    # the summaries were still printed from the report rather than by each command
    weights = tmp_path / "gspool.json"
    cfg = GnnModelConfig("gspool", ((8, 8), (8, 4)), (2, 2))
    save_weights(random_weights(cfg, seed=11), weights)
    report = tmp_path / "r.json"
    runs = [[str(a) for a in infer_args(report)],
            ["compress", "--weights", str(weights), "--block-size", "4", "--report", str(report)]]
    digest = hashlib.sha256()
    for argv in runs:
        assert main(argv) == 0
        outputs = json.loads(report.read_text())["outputs"]
        digest.update(json.dumps([outputs, capsys.readouterr().out], sort_keys=True).encode())
    assert digest.hexdigest() == "fd11e7711f8d067d62b2a2baf07474f9200475c89fa70ee1c472aeb602456637"


def test_weight_files_are_pinned(tmp_path):
    # sha256 of the file save_weights writes from a loaded model and of the file
    # compress writes from that, computed while models kept their weights row-major
    cfg = GnnModelConfig("gat", ((8, 8), (8, 4)), (2, 2), gat_heads=2, gat_head_dim=4)
    dense = tmp_path / "dense.json"
    save_weights(random_weights(cfg, seed=11), dense)
    model = GnnModel(cfg, load_weights(dense))
    assert model.layers[0].W.flags.f_contiguous and model.layers[0].W_att[1].flags.f_contiguous
    saved, compressed = tmp_path / "saved.json", tmp_path / "compressed.json"
    save_weights(model.layers, saved)
    assert main(["compress", "--weights", str(saved), "--block-size", "4",
                 "--out", str(compressed)]) == 0
    digest = hashlib.sha256(saved.read_bytes() + compressed.read_bytes()).hexdigest()
    assert digest == "b4322cd5a8317474d8911c9a5ae566b93ec24f0f78a1df8f2ff28a253745421a"


@pytest.mark.parametrize("command", ["infer", "compress", "search", "profile"])
def test_report_echoes_every_option(tmp_path, dense_weights_file, command):
    search = tmp_path / "search.json"
    search.write_text(json.dumps(SEARCH_CONFIG))
    report = tmp_path / "r.json"
    argv = {
        "infer": infer_args(report, extra=["--batch", "0,2", "--out", tmp_path / "o.csv"]),
        "compress": ["compress", "--weights", dense_weights_file, "--block-size", 2,
                     "--out", tmp_path / "c.json", "--report", report],
        "search": ["search", "--config", search, "--report", report],
        "profile": ["profile", "--nodes", 5, "--in-dim", 64, "--variant", "gat",
                    "--report", report],
    }[command]
    argv = [str(a) for a in argv]
    assert main(argv) == 0
    inputs = json.loads(report.read_text())["inputs"]
    parsed = vars(build_parser().parse_args(argv))
    for option in set(parsed) - {"command", "func", "seed", "report"}:
        assert inputs[option] == parsed[option], option


@pytest.mark.parametrize("command, option, name", [
    ("infer", "--out", "missing/x.csv"),
    ("infer", "--out", "."),
    ("infer", "--report", "missing/r.json"),
    ("compress", "--out", "missing/c.json"),
    ("infer", "--out", ""),
    ("infer", "--report", ""),
    ("compress", "--out", ""),
])
def test_unwritable_output_exits_2(tmp_path, capsys, dense_weights_file, command, option, name):
    argv = {  # a repeated option takes its last value, so --report may follow infer_args'
        "infer": [str(a) for a in infer_args(tmp_path / "r.json")],
        "compress": ["compress", "--weights", str(dense_weights_file), "--block-size", "2"],
    }[command]
    if not name:  # an empty path is a usage error, which argparse reports by option
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, ""])
        assert exc.value.code == 2
        assert f"error: argument {option}: expected a file path" in capsys.readouterr().err
        return
    path = str(tmp_path / name)
    assert main(argv + [option, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


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

    @pytest.mark.parametrize("graph", [["--dataset", "cora", "--nodes", "5"],
                                       ["--nodes", "0", "--dataset", "cora"]])
    def test_dataset_excludes_nodes(self, capsys, graph):
        with pytest.raises(SystemExit) as exc:
            main(["profile", *graph])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

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
    block_size=st.integers(-4096, 4096),
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


LOADED_FILES = {
    "--model": DATA / "five_nodes_model.json",
    "--weights": DATA / "five_nodes_weights.json",
    "--graph": DATA / "five_nodes_edges.txt",
    "--features": DATA / "five_nodes_features.csv",
}
# What a mutation may insert: separators, signs and digits, non-numbers,
# JSON atoms and containers, an integer beyond int64 and a byte that is not
# UTF-8.  Spans are cut before anything is inserted, so no run of digits
# grows into a size that would allocate gigabytes.
FRAGMENTS = ("", " ", ",", "\n", "#", ":", "-", ".", "0", "1", "7", "-1", "2.5", "1e400",
             "nan", "inf", "true", "null", '"x"', "[]", "{}", "[1]", "99999999999999999999",
             "\xff")


def _infer_with(option, path):
    """In-process ``infer`` on the five-node files, with ``path`` for one of them."""
    files = {**LOADED_FILES, option: path}
    return main(["infer"] + [str(a) for option_file in files.items() for a in option_file])


@settings(max_examples=100)
@given(
    option=st.sampled_from(sorted(LOADED_FILES)),
    cuts=st.lists(st.tuples(st.floats(0, 1), st.integers(1, 12)), max_size=2),
    inserts=st.lists(st.tuples(st.floats(0, 1), st.sampled_from(FRAGMENTS)), max_size=3),
)
def test_mutated_input_files_exit_with_a_documented_code(tmp_path_factory, option, cuts, inserts):
    data = LOADED_FILES[option].read_bytes()
    for where, length in cuts:
        at = int(where * len(data))
        data = data[:at] + data[at + length :]
    for where, fragment in inserts:
        at = int(where * len(data))
        data = data[:at] + fragment.encode("latin-1") + data[at:]
    mutated = tmp_path_factory.getbasetemp() / f"mutated{LOADED_FILES[option].suffix}"
    mutated.write_bytes(data)
    assert _infer_with(option, mutated) in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("option", sorted(LOADED_FILES))
def test_file_that_is_not_utf8_exits_2(tmp_path, option):
    latin1 = tmp_path / "latin1"
    latin1.write_bytes(b"\xff" + LOADED_FILES[option].read_bytes())
    assert _infer_with(option, latin1) == 2


@pytest.mark.parametrize("option", ["--graph", "--features"])
def test_invalid_utf8_after_a_valid_first_chunk_exits_2(tmp_path, monkeypatch, capsys, option):
    monkeypatch.setattr(graph, "_BULK_CHUNK", 64)
    late = tmp_path / "late"  # text is decoded 8 KiB at a time: the bad byte lies past that
    late.write_bytes(b"# padding\n" * 1000 + LOADED_FILES[option].read_bytes() + b"\xff\n")
    with mock.patch.object(graph.np, "loadtxt", wraps=np.loadtxt) as parsed:
        assert _infer_with(option, late) == 2
    assert parsed.called  # a chunk was parsed before the bad byte was read
    what = "edge list" if option == "--graph" else "features"
    assert f"error: cannot read {what} {late}" in capsys.readouterr().err
