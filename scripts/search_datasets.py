"""Design-space search on the four dataset workloads.

Runs the exhaustive accelerator search per dataset (sampling 25 then 10
neighbors, hidden width 512, block size 128) and compares the result with
the reference configurations those workloads are usually paired with.
"""

import argparse
import time

from circgnn.graph import DATASET_STATS
from circgnn.perfmodel import (
    DSP_BUDGET,
    HardwareConfig,
    WorkloadLayer,
    WorkloadSpec,
    default_coefficients,
    dsp_usage,
    search_optimal,
    total_cycles,
)

REFERENCE = {
    "cora": (18, 7, 6, 4, 1, 1),
    "citeseer": (21, 4, 6, 4, 1, 1),
    "pubmed": (14, 15, 4, 4, 1, 1),
    "reddit": (15, 13, 5, 4, 1, 1),
}


def workload(name: str, hidden: int, samples) -> WorkloadSpec:
    stats = DATASET_STATS[name]
    layers = [WorkloadLayer(samples[0], stats.feature_dim, hidden)]
    for s in samples[1:]:
        layers.append(WorkloadLayer(s, hidden, hidden))
    return WorkloadSpec(stats.num_nodes, 128, tuple(layers))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=int, default=DSP_BUDGET)
    ap.add_argument("--hidden", type=int, default=512)
    ap.add_argument("--samples", type=int, nargs="+", default=[25, 10])
    args = ap.parse_args()

    coeffs = default_coefficients(128, dsp_budget=args.budget)
    header = (
        f"{'dataset':<10} {'best config':<22} {'cycles':>12} {'ref cycles':>12}"
        f" {'speedup':>8} {'dsp':>5} {'util':>6} {'time':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(DATASET_STATS):
        wl = workload(name, args.hidden, args.samples)
        started = time.perf_counter()
        res = search_optimal(wl, coeffs)
        elapsed = time.perf_counter() - started
        ref_hw = HardwareConfig(*REFERENCE[name], 128)
        ref = total_cycles(wl, ref_hw, coeffs).total_cycles
        print(
            f"{name:<10} {str(res.best.as_tuple()):<22}"
            f" {res.estimate.total_cycles:>12,} {ref:>12,}"
            f" {ref / res.estimate.total_cycles:>7.3f}x"
            f" {res.dsp_usage:>5} {res.dsp_usage / args.budget:>6.1%}"
            f" {elapsed:>6.2f}s"
        )


if __name__ == "__main__":
    main()
