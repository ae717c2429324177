"""The three benchmark workloads: set-up, one closed-loop request, output checks.

A workload reads only the files ``inputs.py`` wrote and drives the package
through its public functions.  Requests are numbered; request i is fully
determined by i and the workload seed, so a traced replay of request i does
exactly the work the untraced one did.  Requests come in rounds of
``workload.round`` (one per model variant, or one per budget stratum of the
sweep), and the loop only stops at a round boundary, so every run measures
the same mix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from circgnn import circulant, gnn, graph, modelio, perfmodel, profiler
from circgnn.graph import DATASET_STATS

from inputs import GAT_HEAD_DIM, GAT_HEADS, NUM_NODES, SWEEP_ROUND, VARIANTS

TOLERANCE = 1e-9  # largest |difference| between an embedding and its oracle
CHECKS_PER_BATCH = 2  # nodes of each dense batch re-embedded with compressed weights

# Reduced grid for the brute-force cross-check of the search (acceptance
# criterion 6): a DSP budget this small keeps every dimension in range.
BRUTE_BUDGET = 250
BRUTE_PE = 8
BRUTE_LANES = 3


def weight_matrices(model: gnn.GnnModel):
    for lw in model.layers:
        yield from (w for w in (lw.W, lw.W_pool, lw.W_H, lw.W_C) if w is not None)
        yield from lw.W_att or ()


def load_models(inputs: Path, kind: str) -> list[gnn.GnnModel]:
    """The four models of one kind, "c16" (compressed) or "dense"."""
    return [
        gnn.GnnModel(
            modelio.load_model_config(inputs / f"{v}.{kind}.config.json"),
            modelio.load_weights(inputs / f"{v}.{kind}.json"),
        )
        for v in VARIANTS
    ]


class Inference:
    """Round-robin forward requests over the four variants on one graph.

    ``compressed`` selects the block-circulant weights (n = 16); otherwise
    every weight is the dense twin of the compressed one.  Each workload
    checks its outputs against the other representation, which computes
    the same embeddings because sampling is keyed by (seed, layer, node).
    """

    round = len(VARIANTS)

    def __init__(self, seed: int, batch_size: int, compressed: bool):
        self.seed = seed
        self.batch_size = batch_size
        self.items_per_request = batch_size  # batch nodes
        self.compressed = compressed
        self.order = np.random.default_rng([seed, 1]).permutation(NUM_NODES)
        self.graph = None
        self.models = None

    def batch(self, i: int) -> np.ndarray:
        return self.order[(i * self.batch_size + np.arange(self.batch_size)) % NUM_NODES]

    def setup(self, inputs: Path) -> None:
        """Load graph, configs and weights, build models, warm lazy spectra."""
        self.graph = graph.load_edge_list(inputs / "edges.txt", inputs / "features.csv")
        self.models = load_models(inputs, "c16" if self.compressed else "dense")
        for model in self.models:
            for w in weight_matrices(model):
                if isinstance(w, circulant.BlockCirculantMatrix):
                    w.spectral()

    def request(self, i: int) -> np.ndarray:
        return gnn.forward(self.models[i % self.round], self.graph, self.batch(i), self.seed)

    def check(self, outputs: list, inputs: Path) -> list[bool]:
        """Per request: does every checked embedding match the oracle within TOLERANCE?"""
        if self.compressed:
            oracles = [
                gnn.GnnModel(m.config, gnn.densify_weights(m.layers)) for m in self.models
            ]
        else:
            oracles = load_models(inputs, "c16")
        pick = np.random.default_rng([self.seed, 2])
        ok = []
        for i, out in enumerate(outputs):
            if not isinstance(out, np.ndarray):
                ok.append(False)
                continue
            batch = self.batch(i)
            rows = np.arange(len(batch))
            if not self.compressed:
                rows = np.sort(pick.choice(rows, size=CHECKS_PER_BATCH, replace=False))
            want = gnn.forward(oracles[i % self.round], self.graph, batch[rows], self.seed)
            ok.append(out.shape == (len(batch), want.shape[1]) and bool(
                np.max(np.abs(out[rows] - want)) <= TOLERANCE
            ))
        return ok

    def same(self, a, b) -> bool:
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)


@dataclass(frozen=True)
class SearchCase:
    dataset: str
    hidden: int
    samples: tuple[int, int]
    spec: perfmodel.WorkloadSpec
    coeffs: perfmodel.CostCoefficients


def _layers(dataset: str, hidden: int, samples) -> tuple[perfmodel.WorkloadLayer, ...]:
    stats = DATASET_STATS[dataset]
    return (
        perfmodel.WorkloadLayer(samples[0], stats.feature_dim, hidden),
        perfmodel.WorkloadLayer(samples[1], hidden, hidden),
    )


class DesignSweep:
    """Design-space searches at n = 128, each followed by a profile of the same dataset."""

    round = SWEEP_ROUND
    items_per_request = 1  # searches

    def __init__(self, seed: int):
        self.seed = seed
        self.cases = None

    def setup(self, inputs: Path) -> None:
        """Read the sweep and build every workload spec and coefficient set."""
        with open(inputs / "sweep.json") as fh:
            doc = json.load(fh)
        n = doc["block_size"]
        self.cases = [
            SearchCase(
                s["dataset"],
                s["hidden"],
                tuple(s["samples"]),
                perfmodel.WorkloadSpec(
                    DATASET_STATS[s["dataset"]].num_nodes,
                    n,
                    _layers(s["dataset"], s["hidden"], s["samples"]),
                ),
                perfmodel.default_coefficients(n, dsp_budget=s["budget"]),
            )
            for s in doc["searches"]
        ]

    def request(self, i: int):
        case = self.cases[i % len(self.cases)]
        result = perfmodel.search_optimal(case.spec, case.coeffs)
        stats = DATASET_STATS[case.dataset]
        args = (stats, stats.feature_dim, case.hidden, case.samples[0])  # first layer
        grid = profiler.profile_grid(*args, heads=GAT_HEADS, head_dim=GAT_HEAD_DIM)
        flops = {
            key: profiler.compressed_flops(
                *key, *args, case.spec.block_size, heads=GAT_HEADS, head_dim=GAT_HEAD_DIM
            )
            for key in grid
        }
        return result, grid, flops

    def check(self, outputs: list, inputs: Path) -> list[bool]:
        """Budget, recomputed DSPs and cycles, recomputed compressed FLOPs; one brute force."""
        ok = []
        for i, out in enumerate(outputs):
            if not isinstance(out, tuple):
                ok.append(False)
                continue
            case = self.cases[i % len(self.cases)]
            result, grid, flops = out
            good = (
                result.dsp_usage <= case.coeffs.dsp_budget
                and perfmodel.dsp_usage(result.best, case.coeffs) == result.dsp_usage
                and perfmodel.total_cycles(case.spec, result.best, case.coeffs) == result.estimate
            )
            factor = math.log2(case.spec.block_size) / case.spec.block_size
            for key, prof in grid.items():
                want = prof.matvec_flops * factor + (prof.flops - prof.matvec_flops)
                good = good and math.isclose(flops[key], want, rel_tol=1e-12)
            ok.append(good)
        if outputs:
            sample = int(np.random.default_rng([self.seed, 2]).integers(len(outputs)))
            ok[sample] = ok[sample] and self._brute_force_agrees(self.cases[sample % len(self.cases)])
        return ok

    def _brute_force_agrees(self, case: SearchCase) -> bool:
        """Search and an independent exhaustive loop agree on a reduced budget."""
        small = perfmodel.CostCoefficients(
            case.coeffs.transform_cycles,
            case.coeffs.fft_channel_dsp,
            case.coeffs.pe_dsp_per_pack,
            case.coeffs.vpu_lane_dsp,
            BRUTE_BUDGET,
        )
        n = case.spec.block_size
        got = perfmodel.search_optimal(case.spec, small, max_pe_rows=BRUTE_PE, max_pe_cols=BRUTE_PE)
        chans = range(1, BRUTE_BUDGET // small.fft_channel_dsp + 1)
        packs = [1 << k for k in range(n.bit_length()) if 1 << k <= n]
        best = None
        for x, y, r, c, pack, lanes in itertools.product(
            chans, chans, range(1, BRUTE_PE + 1), range(1, BRUTE_PE + 1), packs,
            range(1, BRUTE_LANES + 1),
        ):
            dsp = (
                small.fft_channel_dsp * (x + y)
                + r * c * small.pe_dsp_per_pack * pack
                + lanes * small.vpu_lane_dsp
            )
            if dsp > BRUTE_BUDGET:
                continue
            hw = perfmodel.HardwareConfig(x, y, r, c, pack, lanes, n)
            key = (perfmodel.total_cycles(case.spec, hw, small).per_node_cycles, dsp) + hw.as_tuple()
            if best is None or key < best:
                best = key
        return best == (got.estimate.per_node_cycles, got.dsp_usage) + got.best.as_tuple()

    def same(self, a, b) -> bool:
        return (
            isinstance(a, tuple)
            and isinstance(b, tuple)
            and (a[0].best, a[0].dsp_usage, a[0].estimate) == (b[0].best, b[0].dsp_usage, b[0].estimate)
        )


WORKLOADS = {
    "cora-c16-b1": lambda seed: Inference(seed, batch_size=1, compressed=True),
    "cora-dense-b32": lambda seed: Inference(seed, batch_size=32, compressed=False),
    "dse-sweep": DesignSweep,
}
