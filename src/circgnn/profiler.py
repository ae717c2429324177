"""Closed-form FLOP and memory-traffic accounting for the GNN variants.

Conventions, applied uniformly:

  * one multiply-accumulate counts as 2 FLOPs;
  * activations, gate functions and max-pool comparisons cost 1 FLOP per
    element;
  * values are 4-byte reals;
  * per node visit, traffic covers the feature vectors read and the result
    vector written; weights are loaded once per layer and amortize over the
    whole graph (re-streaming them per node would make every variant look
    memory bound, which contradicts measured behavior); a graph with no
    nodes loads nothing, so its intensity is undefined;
  * sampling S neighbors per node, every node visited once per layer.

The gated variant charges both gate matvecs per sampled neighbor, and the
attention variant charges both endpoint projections per neighbor per head.
The attention variant's combination is modeled at the declared layer width;
per-head bookkeeping stays inside aggregation.

``compressed_flops`` scales only the weight-matvec share of a phase by
log2(n)/n, the block-circulant multiply reduction; everything else is
unaffected by compression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .circulant import require_power_of_two
from .errors import SchemaError
from .gnn import Variant
from .graph import GraphStats

_BYTES_PER_REAL = 4


class Phase(str, Enum):
    AGGREGATION = "aggregation"
    COMBINATION = "combination"


@dataclass(frozen=True)
class PhaseProfile:
    """Whole-graph cost of one (variant, phase) pair for a single layer."""

    flops: int
    matvec_flops: int  # share of flops spent in weight matvecs
    bytes_moved: int
    intensity: float | None  # flops per byte; None when nothing moves


def _per_node_costs(
    variant: Variant,
    phase: Phase,
    in_dim: int,
    out_dim: int,
    samples: int,
    heads: int,
    head_dim: int,
):
    """Returns (matvec_flops, other_flops, feature_bytes, output_bytes, weight_reals)."""
    m, n_out, s = in_dim, out_dim, samples
    if phase is Phase.AGGREGATION:
        if variant is Variant.GCN:
            # scale by the degree norm and accumulate; no weights at all
            return 0, s * 2 * m, s * m, m, 0
        if variant is Variant.GS_POOL:
            # S pooling matvecs plus bias add, relu and the running max
            return s * 2 * m * m, s * 3 * m, s * m, m, m * m
        if variant is Variant.G_GCN:
            # neighbor and center gate matvecs per sample, then gate+mix+sum
            return s * 4 * m * m, s * 4 * m, (s + 1) * m, m, 2 * m * m
        if variant is Variant.GAT:
            if head_dim < 1:
                raise SchemaError("attention profiling needs head_dim >= 1")
            proj = s * heads * 2 * (2 * head_dim * m)  # both endpoints, per head
            scores = s * heads * (2 * (2 * head_dim) + 1)  # dot products + slope
            softmax = heads * 3 * s
            mix = heads * s * 2 * m  # attention-weighted sum of raw features
            weight_reals = heads * (head_dim * m + 2 * head_dim)
            return proj, scores + softmax + mix, (s + 1) * m, m, weight_reals
        raise SchemaError(f"unknown variant {variant}")
    if phase is Phase.COMBINATION:
        width = 2 * m if variant is Variant.GS_POOL else m
        return 2 * width * n_out, n_out, m, n_out, width * n_out
    raise SchemaError(f"unknown phase {phase}")


def _whole_graph(stats: GraphStats, per_node, weight_reals: int):
    matvec, other, feat, out = per_node
    v = stats.num_nodes
    flops = v * (matvec + other)
    weights = weight_reals if v > 0 else 0
    bytes_moved = (v * (feat + out) + weights) * _BYTES_PER_REAL
    return v * matvec, flops, bytes_moved


def profile_phase(
    variant: Variant,
    phase: Phase,
    stats: GraphStats,
    in_dim: int,
    out_dim: int,
    samples: int,
    heads: int = 1,
    head_dim: int = 0,
) -> PhaseProfile:
    """Whole-graph profile of one layer phase under the stated setup."""
    variant, phase = Variant(variant), Phase(phase)
    if in_dim < 1 or out_dim < 1 or samples < 1:
        raise SchemaError("profiling dims and sample size must be >= 1")
    mv, other, feat, out, wr = _per_node_costs(
        variant, phase, in_dim, out_dim, samples, heads, head_dim
    )
    matvec_flops, flops, bytes_moved = _whole_graph(stats, (mv, other, feat, out), wr)
    intensity = flops / bytes_moved if bytes_moved > 0 else None
    return PhaseProfile(flops, matvec_flops, bytes_moved, intensity)


def compressed_flops(
    variant: Variant,
    phase: Phase,
    stats: GraphStats,
    in_dim: int,
    out_dim: int,
    samples: int,
    block_size: int,
    heads: int = 1,
    head_dim: int = 0,
) -> float:
    """FLOPs after block-circulant compression of every weight matvec.

    Matvec FLOPs scale by log2(n)/n; non-matvec work is unchanged.
    block_size 1 returns the dense count.
    """
    require_power_of_two(block_size, 1)
    prof = profile_phase(variant, phase, stats, in_dim, out_dim, samples, heads, head_dim)
    if block_size == 1:
        return float(prof.flops)
    factor = math.log2(block_size) / block_size
    return prof.matvec_flops * factor + (prof.flops - prof.matvec_flops)


def profile_grid(
    stats: GraphStats,
    in_dim: int,
    out_dim: int,
    samples: int,
    heads: int = 1,
    head_dim: int = 0,
    variants=tuple(Variant),
) -> dict[tuple[Variant, Phase], PhaseProfile]:
    """Profiles of every requested variant and both phases, for reporting."""
    grid = {}
    for variant in variants:
        for phase in Phase:
            grid[(Variant(variant), phase)] = profile_phase(
                variant, phase, stats, in_dim, out_dim, samples, heads, head_dim
            )
    return grid
