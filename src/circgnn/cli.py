"""Command-line front end: infer | compress | search | profile.

Every run produces a RunReport that echoes the effective configuration and
carries the command's structured outputs; --report writes it as JSON.  Exit
codes: 0 on success, 2 for unreadable or malformed input, 3 for schema and
dimension violations, 4 for an infeasible search budget, 5 for failed
internal consistency checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import modelio
from .circulant import (
    BlockCirculantMatrix,
    compression_stats,
    project_to_block_circulant,
    require_power_of_two,
    to_dense,
)
from .errors import CircGnnError, InputParseError, SchemaError
from .gnn import VECTOR_SLOTS, GnnModel, LayerWeights, Variant, forward, map_slots
from .graph import DATASET_STATS, GraphStats, load_edge_list
from .perfmodel import (
    CostCoefficients,
    WorkloadLayer,
    WorkloadSpec,
    default_coefficients,
    dsp_usage,
    search_optimal,
)
from .profiler import compressed_flops, profile_grid


@dataclass
class RunReport:
    """Structured record of one CLI invocation."""

    command: str
    seed: int
    inputs: dict
    outputs: dict
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


def _parse_batch(spec: str, num_nodes: int) -> list[int]:
    if spec == "all":
        return list(range(num_nodes))
    try:
        batch = [int(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise InputParseError(f"--batch must be 'all' or comma-separated IDs: {exc}") from exc
    if not batch:
        raise InputParseError("--batch selected no nodes")
    outside = [v for v in batch if not 0 <= v < num_nodes]
    if outside:
        raise SchemaError(f"--batch node {outside[0]} out of range [0, {num_nodes})")
    return batch


def _cmd_infer(args) -> RunReport:
    config = modelio.load_model_config(args.model)
    layers = modelio.load_weights(args.weights)
    model = GnnModel(config, layers)
    g = load_edge_list(args.graph, args.features)
    batch = _parse_batch(args.batch, g.num_nodes)
    out = forward(model, g, batch, seed=args.seed)
    if args.out:
        np.savetxt(args.out, out, delimiter=",")
    digest = {
        "mean": out.mean(axis=0).tolist(),
        "max": out.max(axis=0).tolist(),
    }
    return RunReport(
        command="infer",
        seed=args.seed,
        inputs={
            "model": str(args.model),
            "weights": str(args.weights),
            "graph": str(args.graph),
            "features": None if args.features is None else str(args.features),
            "batch": args.batch,
            "variant": config.variant.value,
            "dims": [list(d) for d in config.dims],
            "sample_sizes": list(config.sample_sizes),
        },
        outputs={
            "batch_size": len(batch),
            "output_dim": int(out.shape[1]),
            "digest": digest,
            "out_csv": None if not args.out else str(args.out),
        },
        wall_time_s=0.0,
    )


def _cmd_compress(args) -> RunReport:
    n = args.block_size
    require_power_of_two(n, 1, "--block-size")
    layers = modelio.load_weights(args.weights)

    per_matrix = []
    for k, lw in enumerate(layers):

        def project(slot, label, w):
            if slot in VECTOR_SLOTS:
                return w
            if isinstance(w, BlockCirculantMatrix):
                raise SchemaError(
                    f"{args.weights}: layer {k}: {label}: input must be dense (block_size 1)"
                )
            projected = w if n == 1 else project_to_block_circulant(w, n)
            error = 0.0 if n == 1 else float(np.linalg.norm(to_dense(projected) - w))
            dense_norm = float(np.linalg.norm(w))
            stats = compression_stats(w.shape[0], w.shape[1], n)
            per_matrix.append(
                {
                    "layer": k,
                    "name": label,
                    "rows": int(w.shape[0]),
                    "cols": int(w.shape[1]),
                    "frobenius_error": error,
                    "relative_error": error / dense_norm if dense_norm > 0 else 0.0,
                    "compute_reduction": stats.theoretical_compute_reduction,
                    "storage_reduction": stats.storage_reduction,
                    "stored_reals": stats.stored_reals,
                }
            )
            return projected

        layers[k] = LayerWeights(**map_slots(vars(lw), project))

    if args.out:
        modelio.save_weights(layers, args.out)
    return RunReport(
        command="compress",
        seed=args.seed,
        inputs={"weights": str(args.weights), "block_size": n,
                "out": None if not args.out else str(args.out)},
        outputs={"per_matrix": per_matrix},
        wall_time_s=0.0,
    )


def _load_search_config(path) -> tuple[WorkloadSpec, CostCoefficients, int, int]:
    doc = modelio._read_json(path)
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: search config must be an object")

    def count(obj, key, default=None):
        if key not in obj and default is None:
            raise SchemaError(f"{path}: missing field {key!r}")
        value = obj.get(key, default)
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"{path}: {key} must be an integer, got {value!r}")
        return value

    def counts(cls, obj):
        names = [f.name for f in fields(cls)]
        if not isinstance(obj, dict):
            raise SchemaError(f"{path}: expected an object of {', '.join(names)}, got {obj!r}")
        return cls(*(count(obj, name) for name in names))

    if not isinstance(doc.get("layers"), list):
        raise SchemaError(f"{path}: layers must be a list of objects")
    layers = tuple(counts(WorkloadLayer, l) for l in doc["layers"])
    workload = WorkloadSpec(count(doc, "num_nodes"), count(doc, "block_size"), layers)
    if "coefficients" in doc:
        coeffs = counts(CostCoefficients, doc["coefficients"])
    else:
        coeffs = default_coefficients(workload.block_size, count(doc, "dsp_budget", 900))
    return workload, coeffs, count(doc, "max_pe_rows", 32), count(doc, "max_pe_cols", 32)


def _cmd_search(args) -> RunReport:
    workload, coeffs, max_r, max_c = _load_search_config(args.config)
    started = time.perf_counter()
    result = search_optimal(workload, coeffs, max_r, max_c)
    search_seconds = time.perf_counter() - started
    best = result.best
    return RunReport(
        command="search",
        seed=args.seed,
        inputs={
            "config": str(args.config),
            "num_nodes": workload.num_nodes,
            "block_size": workload.block_size,
            "layers": [asdict(l) for l in workload.layers],
            "coefficients": asdict(coeffs),
            "max_pe_rows": max_r,
            "max_pe_cols": max_c,
        },
        outputs={
            "best": asdict(best),
            "dsp_usage": result.dsp_usage,
            "dsp_budget": coeffs.dsp_budget,
            "dsp_utilization": result.dsp_usage / coeffs.dsp_budget,
            "total_cycles": result.estimate.total_cycles,
            "per_node_cycles": result.estimate.per_node_cycles,
            "layers": [
                {
                    "fft_cycles": lc.fft_cycles,
                    "mac_cycles": lc.mac_cycles,
                    "ifft_cycles": lc.ifft_cycles,
                    "vpu_cycles": lc.vpu_cycles,
                    "peak_cycles": lc.peak_cycles,
                    "bottleneck": lc.bottleneck.value,
                }
                for lc in result.estimate.layers
            ],
            "explored": result.explored,
            "search_seconds": search_seconds,
        },
        wall_time_s=0.0,
    )


def _cmd_profile(args) -> RunReport:
    require_power_of_two(args.block_size, 1, "--block-size")
    if args.heads < 1 or args.head_dim < 1:
        raise SchemaError("--heads and --head-dim must be >= 1")
    if args.dataset is not None:
        stats = DATASET_STATS[args.dataset]
    else:
        stats = GraphStats(args.nodes, 0, args.in_dim, 0)
    variants = list(Variant) if args.variant == "all" else [Variant(args.variant)]
    grid = profile_grid(
        stats,
        args.in_dim,
        args.out_dim,
        args.samples,
        heads=args.heads,
        head_dim=args.head_dim,
        variants=variants,
    )
    grid_rows = []
    for (v, ph), prof in grid.items():
        row = {
            "variant": v.value,
            "phase": ph.value,
            "flops": prof.flops,
            "matvec_flops": prof.matvec_flops,
            "bytes_moved": prof.bytes_moved,
            "intensity": prof.intensity,
        }
        if args.block_size > 1:
            row["compressed_flops"] = compressed_flops(
                v, ph, stats, args.in_dim, args.out_dim, args.samples,
                args.block_size, heads=args.heads, head_dim=args.head_dim,
            )
        grid_rows.append(row)
    return RunReport(
        command="profile",
        seed=args.seed,
        inputs={
            "dataset": args.dataset,
            "num_nodes": stats.num_nodes,
            "in_dim": args.in_dim,
            "out_dim": args.out_dim,
            "samples": args.samples,
            "heads": args.heads,
            "head_dim": args.head_dim,
            "block_size": args.block_size,
            "variant": args.variant,
        },
        outputs={"grid": grid_rows},
        wall_time_s=0.0,
    )


# Arithmetic intensity (flops per byte) below which a profiled phase is marked memory bound.
_MEMORY_BOUND_BELOW = 10


def _print_summary(report: RunReport) -> None:
    out = report.outputs
    if report.command == "infer":
        print(f"infer: {out['batch_size']} nodes -> dim {out['output_dim']}")
        mean = out["digest"]["mean"]
        print("digest mean[:8]:", " ".join(f"{v:.6g}" for v in mean[:8]))
    elif report.command == "compress":
        for row in out["per_matrix"]:
            print(
                f"layer {row['layer']:>2} {row['name']:<7} {row['rows']}x{row['cols']}"
                f"  err {row['frobenius_error']:.6g}"
                f"  compute x{row['compute_reduction']:.2f}"
                f"  storage x{row['storage_reduction']:.0f}"
            )
    elif report.command == "search":
        best = out["best"]
        print(
            "best: fft_channels={fft_channels} ifft_channels={ifft_channels} "
            "pe={pe_rows}x{pe_cols} pack={pack_size} lanes={vpu_lanes}".format(**best)
        )
        print(
            f"dsp {out['dsp_usage']}/{out['dsp_budget']}"
            f" ({100 * out['dsp_utilization']:.1f}%)"
            f"  total cycles {out['total_cycles']:,}"
            f"  explored {out['explored']:,} configs"
            f"  in {out['search_seconds']:.2f}s"
        )
        for i, lc in enumerate(out["layers"]):
            print(
                f"layer {i}: fft {lc['fft_cycles']} mac {lc['mac_cycles']}"
                f" ifft {lc['ifft_cycles']} vpu {lc['vpu_cycles']}"
                f" -> {lc['peak_cycles']} ({lc['bottleneck']})"
            )
    elif report.command == "profile":
        for row in out["grid"]:
            intensity = row["intensity"]
            text = "undefined" if intensity is None else f"{intensity:.2f}"
            line = (
                f"{row['variant']:<7} {row['phase']:<12}"
                f" flops {row['flops']:.3e} bytes {row['bytes_moved']:.3e}"
                f" intensity {text}"
            )
            if "compressed_flops" in row:
                line += f" compressed {row['compressed_flops']:.3e}"
            if intensity is not None and intensity < _MEMORY_BOUND_BELOW:
                line += "  memory bound"
            print(line)


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="base RNG seed")
    shared.add_argument("--report", default=None, help="write the JSON run report here")

    parser = argparse.ArgumentParser(prog="circgnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", parents=[shared], help="run forward inference on a graph")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--batch", default="all")
    p.add_argument("--out", default=None, help="write batch outputs as CSV")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("compress", parents=[shared], help="project dense weights to block-circulant")
    p.add_argument("--weights", required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_compress)

    p = sub.add_parser("search", parents=[shared], help="search accelerator parameters")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("profile", parents=[shared], help="closed-form FLOP/intensity profile")
    p.add_argument("--dataset", default=None, choices=sorted(DATASET_STATS))
    p.add_argument("--nodes", type=int, default=0)
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--in-dim", type=int, default=512)
    p.add_argument("--out-dim", type=int, default=512)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--head-dim", type=int, default=128)
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--variant", default="all",
                   choices=["all"] + [v.value for v in Variant])
    p.set_defaults(func=_cmd_profile)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report: RunReport = args.func(args)
    except CircGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    report.wall_time_s = time.perf_counter() - started
    _print_summary(report)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
