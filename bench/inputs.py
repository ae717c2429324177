"""Seeded input files for the benchmark workloads.

Everything a workload reads is written here, before any timing, from the
workload seed alone: the same seed gives byte-identical files.

  cora-c16-b1     edges.txt, features.csv, <variant>.c16.config.json and
                  <variant>.c16.json (every weight block-circulant, n = 16)
  cora-dense-b32  the same files plus <variant>.dense.config.json and
                  <variant>.dense.json, where every weight is to_dense() of
                  the compressed one
  dse-sweep       sweep.json, the seeded design-search parameters

The graph repeats the citation-scale generator of the test suite (2708
nodes, 10556 arcs, 1433 sparse binary features) with the workload seed in
place of its fixed one.  Run as a script it writes one workload's files:

    python3 bench/inputs.py --workload cora-c16-b1 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from circgnn import gnn, modelio  # noqa: E402
from circgnn.graph import DATASET_STATS  # noqa: E402

NUM_NODES, NUM_EDGES, FEATURE_DIM = 2708, 10556, 1433
DIMS = ((FEATURE_DIM, 128), (128, 16))
SAMPLE_SIZES = (25, 10)
BLOCK_SIZE = 16
GAT_HEADS, GAT_HEAD_DIM = 2, 32
VARIANTS = ("gcn", "gspool", "ggcn", "gat")

SWEEP_LEN = 512
SWEEP_ROUND = 16
SWEEP_BLOCK_SIZE = 128
SWEEP_BUDGETS = (600, 1400)
SWEEP_HIDDEN = (128, 256, 512)
SWEEP_SAMPLES = ((25, 10), (10, 25), (15, 15), (25, 25))


def model_config(variant: str, block_size: int) -> gnn.GnnModelConfig:
    gat = {"gat_heads": GAT_HEADS, "gat_head_dim": GAT_HEAD_DIM} if variant == "gat" else {}
    return gnn.GnnModelConfig(variant, DIMS, SAMPLE_SIZES, block_size=block_size, **gat)


def write_graph(out: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    codes = rng.choice(NUM_NODES * NUM_NODES, size=3 * NUM_EDGES, replace=False)
    src, dst = codes // NUM_NODES, codes % NUM_NODES
    keep = src != dst
    pairs = np.column_stack([src[keep], dst[keep]])
    # the sentinel arc guarantees that the top node ID appears
    sentinel = np.array([NUM_NODES - 1, 0])
    pairs = pairs[~np.all(pairs == sentinel, axis=1)][: NUM_EDGES - 1]
    pairs = np.vstack([pairs, sentinel])
    if np.unique(pairs, axis=0).shape[0] != NUM_EDGES:
        raise RuntimeError(f"seed {seed}: generator produced duplicate arcs")
    with open(out / "edges.txt", "w") as fh:
        fh.write("# synthetic citation-scale graph\n")
        fh.writelines(f"{s} {d}\n" for s, d in pairs)
    sparse = rng.random((NUM_NODES, FEATURE_DIM)) < 0.012
    with open(out / "features.csv", "w") as fh:
        for row in sparse:
            fh.write(",".join("1" if v else "0" for v in row))
            fh.write("\n")


def save_weights(layers: list[gnn.LayerWeights], path: Path) -> None:
    """The document modelio.save_weights writes, encoded by one json.dumps call.

    json.dump streams through the pure-Python encoder, which needs about ten
    seconds for the 150 MB of dense weights; json.dumps uses the C encoder.
    """
    doc = []
    for lw in layers:
        entry = {
            key: modelio.weight_entry(getattr(lw, key))
            for key in ("W", "W_pool", "W_H", "W_C", "b")
            if getattr(lw, key) is not None
        }
        for key in ("W_att", "a_att"):
            if getattr(lw, key) is not None:
                entry[key] = [modelio.weight_entry(w) for w in getattr(lw, key)]
        doc.append(entry)
    with open(path, "w") as fh:
        fh.write(json.dumps({"layers": doc}))


def write_models(out: Path, seeds, dense: bool) -> None:
    for variant, seed in zip(VARIANTS, seeds):
        config = model_config(variant, BLOCK_SIZE)
        weights = gnn.random_weights(config, int(seed))
        modelio.save_model_config(config, out / f"{variant}.c16.config.json")
        save_weights(weights, out / f"{variant}.c16.json")
        if dense:
            modelio.save_model_config(model_config(variant, 1), out / f"{variant}.dense.config.json")
            save_weights(gnn.densify_weights(weights), out / f"{variant}.dense.json")


def write_sweep(out: Path, seed: int) -> None:
    """Searches in rounds of SWEEP_ROUND; datasets cycle, budgets are stratified.

    Search time grows with the DSP budget, so every round draws one budget
    from each of SWEEP_ROUND equal strata of the budget range, in seeded
    order.  Each round then costs about the same on every seed.
    """
    rng = np.random.default_rng(seed)
    names = sorted(DATASET_STATS)
    lo, hi = SWEEP_BUDGETS
    sweep = []
    for _ in range(SWEEP_LEN // SWEEP_ROUND):
        strata = rng.permutation(SWEEP_ROUND) + rng.random(SWEEP_ROUND)
        for i, stratum in enumerate(strata):
            sweep.append({
                "dataset": names[i % len(names)],
                "budget": int(lo + (hi - lo) * stratum / SWEEP_ROUND),
                "hidden": int(rng.choice(SWEEP_HIDDEN)),
                "samples": list(SWEEP_SAMPLES[int(rng.integers(len(SWEEP_SAMPLES)))]),
            })
    with open(out / "sweep.json", "w") as fh:
        json.dump({"block_size": SWEEP_BLOCK_SIZE, "searches": sweep}, fh, indent=1)


def write_inputs(workload: str, seed: int, out: Path) -> None:
    graph_seed, *weight_seeds = np.random.SeedSequence(seed).generate_state(1 + len(VARIANTS))
    if workload == "dse-sweep":
        write_sweep(out, int(graph_seed))
        return
    write_graph(out, int(graph_seed))
    write_models(out, weight_seeds, dense=workload == "cora-dense-b32")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("cora-c16-b1", "cora-dense-b32", "dse-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
