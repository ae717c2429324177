"""Command-line front end: infer | compress | search | profile.

Each command prints its own summary.  Every run produces a RunReport whose
inputs echo every parsed option plus what the command derived from them, and
which carries the command's structured outputs; --report writes it as JSON.
Options must be spelled in full.  Exit codes: 0 on success, 2 for a usage
error (an empty output path among them), for unreadable or malformed input
and for an output file that cannot be written, 3 for schema and dimension
violations, 4 for an infeasible search budget, 5 for failed internal
consistency checks.
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
    DSP_BUDGET,
    PE_LIMIT,
    CostCoefficients,
    WorkloadLayer,
    WorkloadSpec,
    default_coefficients,
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
    return batch


def _cmd_infer(args) -> tuple[dict, dict]:
    config = modelio.load_model_config(args.model)
    layers = modelio.load_weights(args.weights)
    model = GnnModel(config, layers)
    g = load_edge_list(args.graph, args.features)
    batch = _parse_batch(args.batch, g.num_nodes)
    out = forward(model, g, batch, seed=args.seed)
    if args.out is not None:
        np.savetxt(args.out, out, delimiter=",")
    # in node-ID order: a float sum depends on the order of its terms
    by_node = out[np.argsort(batch, kind="stable")]
    digest = {"mean": by_node.mean(axis=0).tolist(), "max": by_node.max(axis=0).tolist()}
    print(f"infer: {len(batch)} nodes -> dim {out.shape[1]}")
    print("digest mean[:8]:", " ".join(f"{v:.6g}" for v in digest["mean"][:8]))
    derived = {"variant": config.variant.value, "dims": [list(d) for d in config.dims],
               "sample_sizes": list(config.sample_sizes)}
    outputs = {"batch_size": len(batch), "output_dim": int(out.shape[1]), "digest": digest,
               "out_csv": args.out}
    return derived, outputs


def _cmd_compress(args) -> tuple[dict, dict]:
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

    if args.out is not None:
        modelio.save_weights(layers, args.out)
    for row in per_matrix:
        print(f"layer {row['layer']:>2} {row['name']:<7} {row['rows']}x{row['cols']}"
              f"  err {row['frobenius_error']:.6g}  compute x{row['compute_reduction']:.2f}"
              f"  storage x{row['storage_reduction']:.0f}")
    return {}, {"per_matrix": per_matrix}


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
        if "dsp_budget" in doc:
            raise SchemaError(f"{path}: give dsp_budget once, inside coefficients")
        coeffs = counts(CostCoefficients, doc["coefficients"])
    else:
        coeffs = default_coefficients(workload.block_size, count(doc, "dsp_budget", DSP_BUDGET))
    return (workload, coeffs, count(doc, "max_pe_rows", PE_LIMIT),
            count(doc, "max_pe_cols", PE_LIMIT))


def _cmd_search(args) -> tuple[dict, dict]:
    workload, coeffs, max_r, max_c = _load_search_config(args.config)
    started = time.perf_counter()
    result = search_optimal(workload, coeffs, max_r, max_c)
    search_seconds = time.perf_counter() - started
    best, estimate = result.best, result.estimate
    utilization = result.dsp_usage / coeffs.dsp_budget
    print(f"best: fft_channels={best.fft_channels} ifft_channels={best.ifft_channels}"
          f" pe={best.pe_rows}x{best.pe_cols} pack={best.pack_size} lanes={best.vpu_lanes}")
    print(f"dsp {result.dsp_usage}/{coeffs.dsp_budget} ({100 * utilization:.1f}%)"
          f"  total cycles {estimate.total_cycles:,}"
          f"  explored {result.explored:,} configs  in {search_seconds:.2f}s")
    for i, lc in enumerate(estimate.layers):
        print(f"layer {i}: fft {lc.fft_cycles} mac {lc.mac_cycles} ifft {lc.ifft_cycles}"
              f" vpu {lc.vpu_cycles} -> {lc.peak_cycles} ({lc.bottleneck.value})")
    derived = {
        **asdict(workload),  # num_nodes, block_size, layers
        "coefficients": asdict(coeffs),
        "max_pe_rows": max_r,
        "max_pe_cols": max_c,
    }
    outputs = {
        "best": asdict(best),
        "dsp_usage": result.dsp_usage,
        "dsp_budget": coeffs.dsp_budget,
        "dsp_utilization": utilization,
        "total_cycles": estimate.total_cycles,
        "per_node_cycles": estimate.per_node_cycles,
        "layers": [{**asdict(lc), "bottleneck": lc.bottleneck.value} for lc in estimate.layers],
        "explored": result.explored,
        "search_seconds": search_seconds,
    }
    return derived, outputs


# Arithmetic intensity (flops per byte) below which a profiled phase is marked memory bound.
_MEMORY_BOUND_BELOW = 10


def _cmd_profile(args) -> tuple[dict, dict]:
    require_power_of_two(args.block_size, 1, "--block-size")
    if args.heads < 1 or args.head_dim < 1:
        raise SchemaError("--heads and --head-dim must be >= 1")
    if args.dataset is not None:
        stats = DATASET_STATS[args.dataset]
    else:
        stats = GraphStats(args.nodes or 0, 0, args.in_dim, 0)
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
        row = {"variant": v.value, "phase": ph.value, **asdict(prof)}
        intensity = "undefined" if prof.intensity is None else f"{prof.intensity:.2f}"
        line = (f"{v.value:<7} {ph.value:<12} flops {prof.flops:.3e}"
                f" bytes {prof.bytes_moved:.3e} intensity {intensity}")
        if args.block_size > 1:
            row["compressed_flops"] = compressed_flops(
                v, ph, stats, args.in_dim, args.out_dim, args.samples,
                args.block_size, heads=args.heads, head_dim=args.head_dim,
            )
            line += f" compressed {row['compressed_flops']:.3e}"
        if prof.intensity is not None and prof.intensity < _MEMORY_BOUND_BELOW:
            line += "  memory bound"
        grid_rows.append(row)
        print(line)  # compressed_flops repeats checks already passed: no later row can fail
    return {"num_nodes": stats.num_nodes}, {"grid": grid_rows}


def _path(text: str) -> str:
    """An output path; argparse names the option when this rejects one."""
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got an empty string")
    return text


def build_parser() -> argparse.ArgumentParser:
    # no abbreviations: each option has one spelling, which main's --batch join relies on
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    shared.add_argument("--seed", type=int, default=0, help="base RNG seed")
    shared.add_argument("--report", type=_path, default=None,
                        help="write the JSON run report here")

    parser = argparse.ArgumentParser(prog="circgnn", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, parents=[shared], help=help, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("infer", _cmd_infer, "run forward inference on a graph")
    p.add_argument("--model", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--batch", default="all")
    p.add_argument("--out", type=_path, default=None, help="write batch outputs as CSV")

    p = command("compress", _cmd_compress, "project dense weights to block-circulant")
    p.add_argument("--weights", required=True)
    p.add_argument("--block-size", type=int, required=True)
    p.add_argument("--out", type=_path, default=None)

    p = command("search", _cmd_search, "search accelerator parameters")
    p.add_argument("--config", required=True)

    p = command("profile", _cmd_profile, "closed-form FLOP/intensity profile")
    graph = p.add_mutually_exclusive_group()
    graph.add_argument("--dataset", default=None, choices=sorted(DATASET_STATS))
    # default None, not 0: argparse counts an option as given only if its value is not the default
    graph.add_argument("--nodes", type=int, default=None, help="graph size (default 0)")
    p.add_argument("--samples", type=int, default=25)
    p.add_argument("--in-dim", type=int, default=512)
    p.add_argument("--out-dim", type=int, default=512)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--head-dim", type=int, default=128)
    p.add_argument("--block-size", type=int, default=1)
    p.add_argument("--variant", default="all",
                   choices=["all"] + [v.value for v in Variant])
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a separate value such as "-1,2" as an option; "--batch=-1,2" it does not
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--batch":
            argv[i:i + 2] = [f"--batch={argv[i + 1]}"]
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    options = {k: v for k, v in vars(args).items()
               if k not in ("command", "func", "seed", "report")}
    try:
        derived, outputs = args.func(args)
        report = RunReport(args.command, args.seed, {**options, **derived}, outputs,
                           time.perf_counter() - started)
        if args.report is not None:
            with open(args.report, "w") as fh:
                fh.write(report.to_json())
    except CircGnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # every reader raises InputParseError, so this is a write
        print(f"error: {exc}", file=sys.stderr)
        return InputParseError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
