"""Cycle model, DSP accounting, exhaustive design search."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circgnn import (
    CostCoefficients,
    HardwareConfig,
    InfeasibleError,
    SchemaError,
    Stage,
    WorkloadLayer,
    WorkloadSpec,
    cycle_fft,
    cycle_ifft,
    cycle_mac,
    cycle_vpu,
    default_coefficients,
    dsp_usage,
    layer_cycles,
    new_random,
    search_optimal,
    total_cycles,
)

COEFFS = default_coefficients(128)

# hidden-width 512 layer processed with 25 samples on the production config
CFG_CR = HardwareConfig(18, 7, 6, 4, 1, 1, 128)
LAYER_512 = WorkloadLayer(25, 512, 512)


class TestStageFormulas:
    def test_frozen_hand_evaluations(self):
        assert cycle_fft(25, 4, 18, 484) == 2904
        assert cycle_mac(25, 4, 4, 6, 4, 128, 1) == 3200
        assert cycle_ifft(25, 4, 7, 484) == 7260
        assert cycle_vpu(25, 512, 1) == 800

    def test_single_wave_floor(self):
        # channels >= S*q: exactly one transform wave
        assert cycle_fft(2, 3, 6, 484) == 484
        assert cycle_fft(2, 3, 100, 484) == 484

    def test_unit_case(self):
        assert cycle_fft(1, 1, 1, 484) == 484
        assert cycle_mac(1, 1, 1, 1, 1, 128, 128) == 1
        assert cycle_vpu(1, 16, 1) == 1

    def test_ceilings_are_exact_integers(self):
        # 25 * 4 = 100 over 7 channels: 15 waves, not 14.28 rounded oddly
        assert cycle_ifft(25, 4, 7, 1) == 15
        assert cycle_vpu(3, 17, 1) == -(-51 // 16)

    def test_layer_peak_and_bottleneck(self):
        lc = layer_cycles(LAYER_512, CFG_CR, COEFFS)
        assert (lc.fft_cycles, lc.mac_cycles, lc.ifft_cycles, lc.vpu_cycles) == (
            2904, 3200, 7260, 800,
        )
        assert lc.peak_cycles == 7260
        assert lc.bottleneck is Stage.IFFT

    def test_bottleneck_moves_to_mac_with_wide_transforms(self):
        hw = HardwareConfig(512, 512, 1, 1, 1, 32, 128)
        lc = layer_cycles(LAYER_512, hw, COEFFS)
        assert lc.bottleneck is Stage.MAC

    def test_tie_reports_highest_priority_stage(self):
        # engineer a tie between FFT and IFFT: same counts, same channels
        hw = HardwareConfig(4, 4, 32, 32, 128, 32, 128)
        lc = layer_cycles(WorkloadLayer(4, 512, 512), hw, COEFFS)
        assert lc.fft_cycles == lc.ifft_cycles == lc.peak_cycles
        assert lc.bottleneck is Stage.FFT


@pytest.mark.parametrize("in_dim, out_dim, n", [
    (1433, 128, 16), (7, 33, 8), (1, 130, 128), (512, 512, 128), (64, 16, 16), (2, 2, 2),
])
def test_block_grid_is_the_matrix_grid(in_dim, out_dim, n):
    w = new_random(out_dim, in_dim, n, 0)
    assert WorkloadLayer(25, in_dim, out_dim).blocks(n) == (w.p, w.q)


class TestDspUsage:
    def test_production_config_uses_898(self):
        assert dsp_usage(CFG_CR, COEFFS) == 898
        assert dsp_usage(CFG_CR, COEFFS) <= COEFFS.dsp_budget == 900

    @pytest.mark.parametrize(
        "cfg",
        [
            (18, 7, 6, 4, 1, 1),
            (21, 4, 6, 4, 1, 1),
            (14, 15, 4, 4, 1, 1),
            (15, 13, 5, 4, 1, 1),
        ],
    )
    def test_all_published_configs_fit_budget(self, cfg):
        assert dsp_usage(HardwareConfig(*cfg, 128), COEFFS) <= 900

    def test_minimal_config_needs_116(self):
        assert dsp_usage(HardwareConfig(1, 1, 1, 1, 1, 1, 128), COEFFS) == 116

    def test_components_additive(self):
        base = dsp_usage(HardwareConfig(1, 1, 1, 1, 1, 1, 128), COEFFS)
        plus_chan = dsp_usage(HardwareConfig(2, 1, 1, 1, 1, 1, 128), COEFFS)
        plus_lane = dsp_usage(HardwareConfig(1, 1, 1, 1, 1, 2, 128), COEFFS)
        assert plus_chan - base == COEFFS.fft_channel_dsp
        assert plus_lane - base == COEFFS.vpu_lane_dsp


class TestTotals:
    def test_total_scales_linearly_with_nodes(self):
        for nodes in (1, 10, 2708):
            wl = WorkloadSpec(nodes, 128, (LAYER_512, WorkloadLayer(10, 512, 512)))
            est = total_cycles(wl, CFG_CR, COEFFS)
            assert est.total_cycles == est.per_node_cycles * nodes

    def test_per_node_is_sum_of_layer_peaks(self):
        wl = WorkloadSpec(5, 128, (LAYER_512, WorkloadLayer(10, 512, 512)))
        est = total_cycles(wl, CFG_CR, COEFFS)
        assert est.per_node_cycles == sum(lc.peak_cycles for lc in est.layers)

    def test_block_size_mismatch_rejected(self):
        wl = WorkloadSpec(5, 64, (WorkloadLayer(2, 64, 64),))
        with pytest.raises(SchemaError):
            total_cycles(wl, CFG_CR, COEFFS)

    @given(
        x=st.integers(1, 40),
        y=st.integers(1, 40),
        s=st.integers(1, 30),
    )
    @settings(max_examples=40)
    def test_more_channels_never_slow_a_stage(self, x, y, s):
        a = cycle_fft(s, 12, x, 484)
        b = cycle_fft(s, 12, x + 1, 484)
        assert b <= a
        c = cycle_ifft(s, 4, y, 484)
        d = cycle_ifft(s, 4, y + 1, 484)
        assert d <= c

    @given(
        r=st.integers(1, 16), c=st.integers(1, 16),
        logl=st.integers(0, 7), s=st.integers(1, 30),
    )
    @settings(max_examples=40)
    def test_bigger_array_never_slows_mac(self, r, c, logl, s):
        l = 1 << logl
        base = cycle_mac(s, 12, 4, r, c, 128, l)
        assert cycle_mac(s, 12, 4, r + 1, c, 128, l) <= base
        assert cycle_mac(s, 12, 4, r, c + 1, 128, l) <= base
        if 2 * l <= 128:
            assert cycle_mac(s, 12, 4, r, c, 128, 2 * l) <= base


def brute_force_search(workload, coeffs, max_rows, max_cols):
    """Independent nested-loop enumeration; returns the winning key tuple."""
    n = workload.block_size
    packs = [1 << k for k in range((n).bit_length()) if (1 << k) <= n]
    chan_max = coeffs.dsp_budget // coeffs.fft_channel_dsp
    lane_max = coeffs.dsp_budget // coeffs.vpu_lane_dsp
    best = None
    for x, y, r, c, l, m in itertools.product(
        range(1, chan_max + 1),
        range(1, chan_max + 1),
        range(1, max_rows + 1),
        range(1, max_cols + 1),
        packs,
        range(1, lane_max + 1),
    ):
        hw = HardwareConfig(x, y, r, c, l, m, n)
        dsp = dsp_usage(hw, coeffs)
        if dsp > coeffs.dsp_budget:
            continue
        per_node = total_cycles(workload, hw, coeffs).per_node_cycles
        key = (per_node, dsp, x, y, r, c, l, m)
        if best is None or key < best:
            best = key
    return best


class TestSearch:
    WORKLOAD_CR = WorkloadSpec(2708, 128, (LAYER_512, WorkloadLayer(10, 512, 512)))

    def test_matches_independent_brute_force_small_budget(self):
        coeffs = CostCoefficients(484, 18, 16, 64, 250)
        res = search_optimal(self.WORKLOAD_CR, coeffs, max_pe_rows=8, max_pe_cols=8)
        got = (res.estimate.per_node_cycles, res.dsp_usage) + res.best.as_tuple()
        want = brute_force_search(self.WORKLOAD_CR, coeffs, 8, 8)
        assert got == want == (23232, 236, 3, 3, 1, 1, 4, 1)

    def test_result_is_feasible_and_never_beaten_by_published_config(self):
        res = search_optimal(self.WORKLOAD_CR, COEFFS)
        assert res.dsp_usage <= COEFFS.dsp_budget
        ref = total_cycles(self.WORKLOAD_CR, CFG_CR, COEFFS)
        assert res.estimate.total_cycles <= ref.total_cycles

    def test_high_budget_utilization(self):
        res = search_optimal(self.WORKLOAD_CR, COEFFS)
        assert res.dsp_usage >= 0.9 * COEFFS.dsp_budget

    def test_explored_counts_feasible_points(self):
        coeffs = CostCoefficients(484, 18, 16, 64, 200)
        res = search_optimal(self.WORKLOAD_CR, coeffs, max_pe_rows=4, max_pe_cols=4)
        count = 0
        for x, y, r, c, l, m in itertools.product(
            range(1, 12), range(1, 12), range(1, 5), range(1, 5),
            [1, 2, 4, 8, 16, 32, 64, 128], range(1, 4),
        ):
            hw = HardwareConfig(x, y, r, c, l, m, 128)
            if dsp_usage(hw, coeffs) <= 200:
                count += 1
        assert res.explored == count

    def test_infeasible_budget_names_the_floor(self):
        coeffs = CostCoefficients(484, 18, 16, 64, 100)
        with pytest.raises(InfeasibleError, match="116"):
            search_optimal(self.WORKLOAD_CR, coeffs)

    def test_dataset_workloads_complete_quickly_and_beat_references(self):
        # per-dataset feature widths and the configurations reported for them
        cases = {
            (2708, 1433): (18, 7, 6, 4, 1, 1),
            (3327, 3703): (21, 4, 6, 4, 1, 1),
            (19717, 500): (14, 15, 4, 4, 1, 1),
            (232965, 602): (15, 13, 5, 4, 1, 1),
        }
        for (nodes, feat), cfg in cases.items():
            wl = WorkloadSpec(
                nodes, 128,
                (WorkloadLayer(25, feat, 512), WorkloadLayer(10, 512, 512)),
            )
            res = search_optimal(wl, COEFFS)
            ref = total_cycles(wl, HardwareConfig(*cfg, 128), COEFFS)
            assert res.estimate.total_cycles <= ref.total_cycles
            assert res.dsp_usage <= 900

    @given(seed=st.integers(0, 500))
    @settings(max_examples=25, deadline=None)
    def test_search_never_beaten_by_random_feasible_config(self, seed):
        rng = np.random.default_rng(seed)
        coeffs = CostCoefficients(484, 18, 16, 64, 400)
        wl = WorkloadSpec(10, 128, (WorkloadLayer(int(rng.integers(1, 30)), 512, 512),))
        res = search_optimal(wl, coeffs, max_pe_rows=8, max_pe_cols=8)
        for _ in range(20):
            hw = HardwareConfig(
                int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                int(rng.integers(1, 9)), int(rng.integers(1, 9)),
                1 << int(rng.integers(0, 8)), int(rng.integers(1, 4)), 128,
            )
            if dsp_usage(hw, coeffs) > coeffs.dsp_budget:
                continue
            assert res.estimate.per_node_cycles <= total_cycles(wl, hw, coeffs).per_node_cycles

    @given(
        transform_cycles=st.integers(1, 600),
        beta=st.integers(12, 40),
        pe_dsp=st.integers(1, 32),
        lane_dsp=st.integers(40, 80),
        extra=st.integers(0, 120),
        log_n=st.integers(1, 4),
        # few samples and narrow layers, so that transform stages bind and
        # channel pairs of equal DSP cost tie
        layers=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 80), st.integers(1, 80)),
            min_size=1, max_size=2,
        ),
        max_rows=st.integers(1, 4),
        max_cols=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_on_key_and_explored(
        self, transform_cycles, beta, pe_dsp, lane_dsp, extra, log_n, layers, max_rows, max_cols
    ):
        n = 1 << log_n
        budget = 2 * beta + pe_dsp + lane_dsp + extra
        coeffs = CostCoefficients(transform_cycles, beta, pe_dsp, lane_dsp, budget)
        wl = WorkloadSpec(7, n, tuple(WorkloadLayer(*l) for l in layers))
        res = search_optimal(wl, coeffs, max_rows, max_cols)
        got = (res.estimate.per_node_cycles, res.dsp_usage) + res.best.as_tuple()
        assert got == brute_force_search(wl, coeffs, max_rows, max_cols)
        chans = range(1, budget // beta + 1)
        feasible = sum(
            beta * (x + y) + r * c * pe_dsp * l + m * lane_dsp <= budget
            for x, y, r, c, l, m in itertools.product(
                chans, chans, range(1, max_rows + 1), range(1, max_cols + 1),
                [1 << k for k in range(log_n + 1)], range(1, budget // lane_dsp + 1),
            )
        )
        assert res.explored == feasible

    def test_equal_cycles_prefer_the_cheaper_channel_pair(self):
        # (2, 7) channels reach the same cycles as (3, 5) but cost one channel more
        coeffs = CostCoefficients(520, 16, 26, 41, 217)
        wl = WorkloadSpec(7, 16, (WorkloadLayer(1, 42, 42), WorkloadLayer(5, 3, 79)))
        res = search_optimal(wl, coeffs, max_pe_rows=2, max_pe_cols=2)
        assert res.best.as_tuple() == (3, 5, 1, 1, 1, 1)
        other = HardwareConfig(2, 7, 1, 1, 1, 1, 16)
        assert total_cycles(wl, other, coeffs).total_cycles == res.estimate.total_cycles
        got = (res.estimate.per_node_cycles, res.dsp_usage) + res.best.as_tuple()
        assert got == brute_force_search(wl, coeffs, 2, 2)

    def test_pe_limits_beyond_the_budget_change_nothing(self):
        # at 250 DSPs one lane and two channels leave 150 for the array: 9 unit PEs
        coeffs = CostCoefficients(484, 18, 16, 64, 250)
        wide = search_optimal(self.WORKLOAD_CR, coeffs, max_pe_rows=200, max_pe_cols=200)
        assert wide == search_optimal(self.WORKLOAD_CR, coeffs, max_pe_rows=9, max_pe_cols=9)

    @pytest.mark.parametrize("limits", [(0, 32), (32, 0), (-1, -1)])
    def test_pe_limit_below_one_rejected(self, limits):
        with pytest.raises(SchemaError, match="max_pe_rows and max_pe_cols"):
            search_optimal(self.WORKLOAD_CR, COEFFS, *limits)


class TestCoefficients:
    def test_defaults_only_calibrated_for_128(self):
        assert COEFFS.transform_cycles == 484
        assert COEFFS.fft_channel_dsp == 18
        assert COEFFS.pe_dsp_per_pack == 16
        assert COEFFS.vpu_lane_dsp == 64
        with pytest.raises(SchemaError):
            default_coefficients(64)

    def test_config_validation(self):
        with pytest.raises(SchemaError):
            HardwareConfig(0, 1, 1, 1, 1, 1, 128)
        with pytest.raises(SchemaError):
            HardwareConfig(1, 1, 1, 1, 3, 1, 128)  # pack not a power of two
        with pytest.raises(SchemaError):
            HardwareConfig(1, 1, 1, 1, 256, 1, 128)  # pack > block
        with pytest.raises(SchemaError):
            WorkloadLayer(0, 1, 1)
        with pytest.raises(SchemaError):
            WorkloadSpec(0, 128, (LAYER_512,))
