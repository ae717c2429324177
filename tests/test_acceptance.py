"""Acceptance gate: one numbered criterion per test, one printed line each.

Each test prints exactly one [PASS]/[FAIL] line to the real terminal
(bypassing capture) so a full run gives a nine-line scoreboard.  Tolerances
are pinned in the assertions; nothing here is adaptive.
"""

import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circgnn
from circgnn import (
    CostCoefficients,
    GnnModel,
    GnnModelConfig,
    HardwareConfig,
    WorkloadLayer,
    WorkloadSpec,
    bc_matvec,
    compression_stats,
    cycle_fft,
    cycle_ifft,
    cycle_mac,
    cycle_vpu,
    default_coefficients,
    densify_weights,
    dsp_usage,
    forward,
    new_random,
    op_counts,
    random_weights,
    reset_op_counts,
    search_optimal,
    synthetic_graph,
    to_dense,
    total_cycles,
)
from circgnn.graph import DATASET_STATS
from circgnn.profiler import Phase, profile_phase
from circgnn.gnn import Variant
from spectral_oracle import bc_matvec_per_block

COEFFS = default_coefficients(128)
CFG_CR = HardwareConfig(18, 7, 6, 4, 1, 1, 128)
PUBLISHED_CONFIGS = {
    "cora": (18, 7, 6, 4, 1, 1),
    "citeseer": (21, 4, 6, 4, 1, 1),
    "pubmed": (14, 15, 4, 4, 1, 1),
    "reddit": (15, 13, 5, 4, 1, 1),
}


def announce(capsys, number, title, ok, detail):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {title} ({detail})")
    assert ok, f"criterion {number} ({title}): {detail}"


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(2024)
    sizes = [4, 8, 16, 31, 64, 100, 127, 128, 200, 256, 400, 512]
    block_sizes = [2, 4, 8, 16, 32, 64, 128]
    started = time.perf_counter()
    worst = 0.0
    for case in range(200):
        rows = int(rng.choice(sizes))
        cols = int(rng.choice(sizes))
        n = int(rng.choice(block_sizes))
        w = new_random(rows, cols, n, seed=case)
        x = rng.normal(size=cols)
        got = bc_matvec(w, x)
        ref = to_dense(w) @ x
        worst = max(worst, float(np.max(np.abs(got - ref))))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-9 and elapsed < 30.0
    announce(capsys, 1, "spectral matvec equals dense expansion",
             ok, f"200 cases, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_ifft_count(capsys):
    w = new_random(96, 80, 16, seed=2)
    w.spectral()
    x = np.random.default_rng(2).normal(size=80)
    reset_op_counts()
    merged = bc_matvec(w, x)
    merged_calls = op_counts().ifft_calls
    reset_op_counts()
    per_block = bc_matvec_per_block(w, x)
    per_block_calls = op_counts().ifft_calls
    err = float(np.max(np.abs(merged - per_block)))
    ok = merged_calls == w.p and per_block_calls == w.p * w.q and err < 1e-9
    announce(capsys, 2, "frequency-domain accumulation needs p inverse transforms",
             ok, f"{merged_calls} vs {per_block_calls} calls, err {err:.2e}")


def test_criterion_3_compression_table(capsys):
    table = {16: 4.0, 32: 6.4, 64: 10.7, 128: 18.3}
    bad = []
    for n, tcr in table.items():
        stats = compression_stats(512, 512, n)
        if abs(stats.theoretical_compute_reduction - tcr) > 0.05:
            bad.append(f"n={n} compute {stats.theoretical_compute_reduction:.3f}")
        if stats.storage_reduction != float(n):
            bad.append(f"n={n} storage {stats.storage_reduction}")
    announce(capsys, 3, "compression ratio table",
             not bad, "; ".join(bad) if bad else "4 block sizes within 0.05")


def test_criterion_4_dsp_usage(capsys):
    cr = dsp_usage(CFG_CR, COEFFS)
    usages = {
        name: dsp_usage(HardwareConfig(*cfg, 128), COEFFS)
        for name, cfg in PUBLISHED_CONFIGS.items()
    }
    ok = cr == 898 and all(u <= 900 for u in usages.values())
    announce(capsys, 4, "resource accounting of the published configs",
             ok, f"cr={cr}, all {sorted(usages.values())} <= 900")


def test_criterion_5_cycle_model(capsys):
    stage = (
        cycle_fft(25, 4, 18, 484),
        cycle_mac(25, 4, 4, 6, 4, 128, 1),
        cycle_ifft(25, 4, 7, 484),
        cycle_vpu(25, 512, 1),
    )
    stages_ok = stage == (2904, 3200, 7260, 800)
    # the published 24.9M total under-determines layer-1 input width; both
    # documented readings must land within 2x
    uniform = WorkloadSpec(
        2708, 128, (WorkloadLayer(25, 512, 512), WorkloadLayer(10, 512, 512))
    )
    feature_first = WorkloadSpec(
        2708, 128, (WorkloadLayer(25, 1433, 512), WorkloadLayer(10, 512, 512))
    )
    ratios = [
        total_cycles(wl, CFG_CR, COEFFS).total_cycles / 24.9e6
        for wl in (uniform, feature_first)
    ]
    totals_ok = all(0.5 <= r <= 2.0 for r in ratios)
    announce(capsys, 5, "cycle model stage values and totals",
             stages_ok and totals_ok,
             f"stages {stage}, totals {ratios[0]:.2f}x / {ratios[1]:.2f}x of 24.9M")


def test_criterion_6_search(capsys):
    problems = []
    for name, cfg in PUBLISHED_CONFIGS.items():
        stats = DATASET_STATS[name]
        wl = WorkloadSpec(
            stats.num_nodes, 128,
            (WorkloadLayer(25, stats.feature_dim, 512), WorkloadLayer(10, 512, 512)),
        )
        started = time.perf_counter()
        res = search_optimal(wl, COEFFS)
        elapsed = time.perf_counter() - started
        ref = total_cycles(wl, HardwareConfig(*cfg, 128), COEFFS)
        if elapsed >= 60:
            problems.append(f"{name}: {elapsed:.1f}s")
        if res.dsp_usage > 900:
            problems.append(f"{name}: dsp {res.dsp_usage}")
        if res.estimate.total_cycles > ref.total_cycles:
            problems.append(f"{name}: {res.estimate.total_cycles} > {ref.total_cycles}")
        if res.dsp_usage < 0.9 * 900:
            problems.append(f"{name}: utilization {res.dsp_usage / 900:.2f}")

    # independent brute force on a reduced budget must agree exactly
    small = CostCoefficients(484, 18, 16, 64, 250)
    wl_cr = WorkloadSpec(
        2708, 128, (WorkloadLayer(25, 512, 512), WorkloadLayer(10, 512, 512))
    )
    res = search_optimal(wl_cr, small, max_pe_rows=8, max_pe_cols=8)
    best = None
    for x, y, r, c, l, m in itertools.product(
        range(1, 14), range(1, 14), range(1, 9), range(1, 9),
        [1, 2, 4, 8, 16, 32, 64, 128], range(1, 4),
    ):
        hw = HardwareConfig(x, y, r, c, l, m, 128)
        if dsp_usage(hw, small) > 250:
            continue
        key = (total_cycles(wl_cr, hw, small).per_node_cycles,
               dsp_usage(hw, small), x, y, r, c, l, m)
        if best is None or key < best:
            best = key
    got = (res.estimate.per_node_cycles, res.dsp_usage) + res.best.as_tuple()
    if got != best:
        problems.append(f"brute force {best} vs search {got}")
    announce(capsys, 6, "design search beats references and matches brute force",
             not problems, "; ".join(problems) if problems else
             "4 datasets < 60s, brute force agrees at budget 250")


def test_criterion_7_end_to_end_variants(capsys):
    g = synthetic_graph(20, avg_degree=5.0, feature_dim=16, seed=7)
    worst = {}
    for variant in ("gcn", "gspool", "ggcn", "gat"):
        extra = {"gat_heads": 2, "gat_head_dim": 8} if variant == "gat" else {}
        cfg = GnnModelConfig(
            variant, dims=((16, 16), (16, 16)), sample_sizes=(3, 2),
            block_size=8, **extra,
        )
        layers = random_weights(cfg, seed=70 + len(worst))
        compressed = GnnModel(cfg, layers)
        dense_cfg = GnnModelConfig(
            cfg.variant, cfg.dims, cfg.sample_sizes, 1, cfg.gat_heads, cfg.gat_head_dim
        )
        dense = GnnModel(dense_cfg, densify_weights(layers))
        a = forward(compressed, g, list(range(20)), seed=11)
        b = forward(dense, g, list(range(20)), seed=11)
        worst[variant] = float(np.max(np.abs(a - b)))
    ok = all(err < 1e-6 for err in worst.values())
    announce(capsys, 7, "all four variants agree compressed vs dense",
             ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_8_profiler(capsys):
    rd = DATASET_STATS["reddit"]
    published = {
        (Variant.GCN, Phase.AGGREGATION): 3.7e9,
        (Variant.GCN, Phase.COMBINATION): 7.5e10,
        (Variant.GS_POOL, Phase.AGGREGATION): 1.9e12,
        (Variant.GS_POOL, Phase.COMBINATION): 1.5e11,
        (Variant.G_GCN, Phase.AGGREGATION): 3.7e12,
        (Variant.G_GCN, Phase.COMBINATION): 7.5e10,
        (Variant.GAT, Phase.AGGREGATION): 1.9e12,
        (Variant.GAT, Phase.COMBINATION): 7.5e10,
    }
    problems = []
    ratios = []
    for (variant, phase), want in published.items():
        kw = {"heads": 2, "head_dim": 128} if variant is Variant.GAT else {}
        got = profile_phase(variant, phase, rd, 512, 512, 25, **kw).flops
        ratios.append(got / want)
        if not want / 2 <= got <= want * 2:
            problems.append(f"{variant.value}/{phase.value}: {got:.2e} vs {want:.2e}")
        intensity = profile_phase(variant, phase, rd, 512, 512, 25, **kw).intensity
        memory_bound = (variant, phase) == (Variant.GCN, Phase.AGGREGATION)
        if memory_bound and intensity >= 10:
            problems.append(f"gcn aggregation intensity {intensity:.1f}")
        if not memory_bound and intensity <= 100:
            problems.append(f"{variant.value}/{phase.value} intensity {intensity:.1f}")
    gg = profile_phase(Variant.G_GCN, Phase.AGGREGATION, rd, 512, 512, 25).flops
    gs = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, rd, 512, 512, 25).flops
    if not 1.8 <= gg / gs <= 2.2:
        problems.append(f"gated/pooled ratio {gg / gs:.2f}")
    announce(capsys, 8, "profiler within 2x with exact orderings",
             not problems, "; ".join(problems) if problems else
             f"8 entries at {min(ratios):.2f}-{max(ratios):.2f}x, ratio {gg / gs:.2f}")


def test_criterion_9_property_suites(capsys):
    # generative invariants run headless under fixed (derandomized) seeds;
    # sample two load-bearing ones inline to prove the machinery works here
    failures = []

    @given(log_n=st.integers(1, 5), seed=st.integers(0, 1000))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def roundtrip(log_n, seed):
        n = 1 << log_n
        x = np.random.default_rng(seed).normal(size=n)
        assert np.max(np.abs(circgnn.fft(circgnn.fft(x), inverse=True) - x)) < 1e-9

    @given(rows=st.integers(1, 24), cols=st.integers(1, 24), seed=st.integers(0, 1000))
    @settings(max_examples=30, derandomize=True, deadline=None)
    def matvec_agrees(rows, cols, seed):
        w = new_random(rows, cols, 4, seed=seed)
        x = np.random.default_rng(seed + 1).normal(size=cols)
        assert np.max(np.abs(bc_matvec(w, x) - to_dense(w) @ x)) < 1e-9

    for prop in (roundtrip, matvec_agrees):
        try:
            prop()
        except Exception as exc:  # pragma: no cover - reported via announce
            failures.append(f"{prop.__name__}: {exc}")
    announce(capsys, 9, "generative property suites run headless",
             not failures, "; ".join(failures) if failures else
             "hypothesis derandomized, 2 invariant samples x 30 examples")
