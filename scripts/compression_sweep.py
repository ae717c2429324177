"""Projection error and output drift across block sizes.

Draws a random dense model, projects its weights to block-circulant form at
each block size, and measures (a) the relative Frobenius error of the
projection and (b) how far inference outputs move on a synthetic graph.
Storage shrinks by n; the question this script answers is what that costs.
"""

import argparse
import dataclasses

import numpy as np

from circgnn import (
    GnnModel,
    GnnModelConfig,
    LayerWeights,
    Variant,
    compression_stats,
    forward,
    project_to_block_circulant,
    random_weights,
    synthetic_graph,
    to_dense,
)
from circgnn.gnn import VECTOR_SLOTS, map_slots


def project_layers(layers, block_size):
    """Every weight matrix projected to block-circulant form, and the relative
    Frobenius error of the projection over all of them; vectors stay dense."""
    err = norm = 0.0

    def project(slot, label, w):
        nonlocal err, norm
        if slot in VECTOR_SLOTS:
            return w
        projected = project_to_block_circulant(w, block_size)
        err += float(np.linalg.norm(w - to_dense(projected))) ** 2
        norm += float(np.linalg.norm(w)) ** 2
        return projected

    projected = [LayerWeights(**map_slots(vars(lw), project)) for lw in layers]
    return projected, np.sqrt(err / norm)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--variant", default="gspool", choices=[v.value for v in Variant])
    ap.add_argument("--dim", type=int, default=64)
    ap.add_argument("--nodes", type=int, default=50)
    ap.add_argument("--block-sizes", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    heads = {"gat_heads": 2, "gat_head_dim": args.dim // 4} if args.variant == "gat" else {}
    cfg = GnnModelConfig(
        args.variant, dims=((args.dim, args.dim), (args.dim, args.dim)),
        sample_sizes=(5, 3), block_size=1, **heads,
    )
    dense_layers = random_weights(cfg, seed=args.seed)
    g = synthetic_graph(args.nodes, avg_degree=6.0, feature_dim=args.dim, seed=args.seed)
    batch = list(range(args.nodes))
    baseline = forward(GnnModel(cfg, dense_layers), g, batch, seed=args.seed)
    base_norm = float(np.linalg.norm(baseline))

    print(f"{args.variant}, dim {args.dim}, {args.nodes} nodes")
    print(f"{'n':>4} {'storage':>8} {'weight err':>11} {'output drift':>13}")
    for n in args.block_sizes:
        proj, werr = project_layers(dense_layers, n)
        pcfg = dataclasses.replace(cfg, block_size=n)
        out = forward(GnnModel(pcfg, proj), g, batch, seed=args.seed)
        drift = float(np.linalg.norm(out - baseline)) / base_norm
        sr = compression_stats(args.dim, args.dim, n).storage_reduction
        print(f"{n:>4} {sr:>7.0f}x {werr:>11.4f} {drift:>13.4f}")


if __name__ == "__main__":
    main()
