"""FLOP counts, traffic accounting, roofline-style intensities."""

import math

import pytest

from circgnn.errors import SchemaError
from circgnn.gnn import Variant
from circgnn.graph import DATASET_STATS, GraphStats
from circgnn.profiler import Phase, compressed_flops, profile_grid, profile_phase

REDDIT = DATASET_STATS["reddit"]
SETUP = dict(in_dim=512, out_dim=512, samples=25)
GAT_SETUP = dict(in_dim=512, out_dim=512, samples=25, heads=2, head_dim=128)

# published whole-graph FLOP figures for the same setup; the convention used
# to produce them is unstated, so we gate at 2x rather than equality
PUBLISHED = {
    (Variant.GCN, Phase.AGGREGATION): 3.7e9,
    (Variant.GCN, Phase.COMBINATION): 7.5e10,
    (Variant.GS_POOL, Phase.AGGREGATION): 1.9e12,
    (Variant.GS_POOL, Phase.COMBINATION): 1.5e11,
    (Variant.G_GCN, Phase.AGGREGATION): 3.7e12,
    (Variant.G_GCN, Phase.COMBINATION): 7.5e10,
    (Variant.GAT, Phase.AGGREGATION): 1.9e12,
    (Variant.GAT, Phase.COMBINATION): 7.5e10,
}


def _kwargs(variant):
    return GAT_SETUP if variant is Variant.GAT else SETUP


class TestPublishedTargets:
    @pytest.mark.parametrize("variant,phase", list(PUBLISHED))
    def test_within_factor_two(self, variant, phase):
        got = profile_phase(variant, phase, REDDIT, **_kwargs(variant)).flops
        want = PUBLISHED[(variant, phase)]
        assert want / 2 <= got <= want * 2

    def test_gcn_aggregation_is_memory_bound(self):
        assert profile_phase(Variant.GCN, Phase.AGGREGATION, REDDIT, **SETUP).intensity < 10

    @pytest.mark.parametrize(
        "variant,phase", [k for k in PUBLISHED if k != (Variant.GCN, Phase.AGGREGATION)]
    )
    def test_everything_else_is_compute_bound(self, variant, phase):
        got = profile_phase(variant, phase, REDDIT, **_kwargs(variant)).intensity
        assert got > 100

    def test_gated_to_pooled_aggregation_ratio(self):
        gg = profile_phase(Variant.G_GCN, Phase.AGGREGATION, REDDIT, **SETUP).flops
        gs = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, REDDIT, **SETUP).flops
        assert 1.8 <= gg / gs <= 2.2


class TestPerNodeFormulas:
    def test_gcn_aggregation_exact(self):
        # S scaled adds per element, twice: one multiply one add
        st = GraphStats(10, 0, 4, 0)
        prof = profile_phase(Variant.GCN, Phase.AGGREGATION, st, 4, 4, 3)
        assert prof.flops == 10 * 3 * 2 * 4
        assert prof.matvec_flops == 0
        assert prof.bytes_moved == 10 * (3 * 4 + 4) * 4

    def test_gspool_aggregation_exact(self):
        st = GraphStats(7, 0, 8, 0)
        prof = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, st, 8, 8, 5)
        assert prof.matvec_flops == 7 * 5 * 2 * 64
        assert prof.flops - prof.matvec_flops == 7 * 5 * 3 * 8
        # weights amortized once, not per node
        assert prof.bytes_moved == 7 * (5 * 8 + 8) * 4 + 64 * 4

    def test_ggcn_doubles_gspool_matvecs(self):
        st = GraphStats(7, 0, 8, 0)
        gg = profile_phase(Variant.G_GCN, Phase.AGGREGATION, st, 8, 8, 5)
        gs = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, st, 8, 8, 5)
        assert gg.matvec_flops == 2 * gs.matvec_flops

    def test_combination_exact(self):
        st = GraphStats(3, 0, 4, 0)
        prof = profile_phase(Variant.GCN, Phase.COMBINATION, st, 4, 6, 9)
        assert prof.matvec_flops == 3 * 2 * 4 * 6
        assert prof.flops == 3 * (2 * 4 * 6 + 6)
        assert prof.bytes_moved == 3 * (4 + 6) * 4 + 4 * 6 * 4

    def test_gspool_combination_width_doubles(self):
        st = GraphStats(3, 0, 4, 0)
        narrow = profile_phase(Variant.GCN, Phase.COMBINATION, st, 4, 6, 9)
        wide = profile_phase(Variant.GS_POOL, Phase.COMBINATION, st, 4, 6, 9)
        assert wide.matvec_flops == 2 * narrow.matvec_flops

    def test_gat_needs_head_dim(self):
        with pytest.raises(SchemaError):
            profile_phase(Variant.GAT, Phase.AGGREGATION, REDDIT, 512, 512, 25)

    @pytest.mark.parametrize("heads", [0, -2])
    def test_gat_needs_a_head(self, heads):
        with pytest.raises(SchemaError):
            profile_phase(Variant.GAT, Phase.AGGREGATION, REDDIT, 512, 512, 25,
                          heads=heads, head_dim=128)
        with pytest.raises(SchemaError):
            profile_grid(REDDIT, 512, 512, 25, heads=heads, head_dim=128)

    def test_bad_dims_rejected(self):
        with pytest.raises(SchemaError):
            profile_phase(Variant.GCN, Phase.AGGREGATION, REDDIT, 0, 512, 25)


class TestIntensityEdgeCases:
    def test_flops_and_bytes_decompose_exactly(self):
        # 2-wide input, 8-wide output: 40 FLOPs per node against 40 bytes
        # of per-node traffic, so intensity approaches one from below as the
        # fixed weight bytes amortize
        st = GraphStats(1000, 0, 2, 0)
        prof = profile_phase(Variant.GCN, Phase.COMBINATION, st, 2, 8, 1)
        assert prof.flops == 40 * 1000
        assert prof.bytes_moved == 40 * 1000 + 16 * 4
        assert 0.99 < prof.intensity < 1.0
        small = profile_phase(Variant.GCN, Phase.COMBINATION, GraphStats(10, 0, 2, 0), 2, 8, 1)
        assert small.intensity < prof.intensity

    def test_profile_of_empty_graph_is_zero(self):
        prof = profile_phase(Variant.GCN, Phase.AGGREGATION, GraphStats(0, 0, 4, 0), 4, 4, 2)
        assert prof.flops == 0
        assert prof.bytes_moved == 0
        assert prof.intensity is None

    def test_empty_graph_loads_no_weights(self):
        # gspool aggregation holds a pooling matrix, but no node means no load
        prof = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, GraphStats(0, 0, 4, 0), 4, 4, 2)
        assert prof.flops == prof.matvec_flops == 0
        assert prof.bytes_moved == 0
        assert prof.intensity is None


class TestCompressedFlops:
    def test_scales_only_the_matvec_share(self):
        prof = profile_phase(Variant.GS_POOL, Phase.AGGREGATION, REDDIT, **SETUP)
        got = compressed_flops(Variant.GS_POOL, Phase.AGGREGATION, REDDIT, block_size=128, **SETUP)
        factor = math.log2(128) / 128
        assert got == pytest.approx(
            prof.matvec_flops * factor + (prof.flops - prof.matvec_flops)
        )

    def test_reduction_approaches_theoretical_ratio(self):
        # matvec-dominated phase: compression ratio tends to n/log2(n)
        dense = profile_phase(Variant.GS_POOL, Phase.COMBINATION, REDDIT, **SETUP).flops
        comp = compressed_flops(Variant.GS_POOL, Phase.COMBINATION, REDDIT, block_size=128, **SETUP)
        assert dense / comp == pytest.approx(128 / 7, rel=0.01)

    def test_block_one_is_identity(self):
        dense = profile_phase(Variant.GCN, Phase.COMBINATION, REDDIT, **SETUP).flops
        assert compressed_flops(Variant.GCN, Phase.COMBINATION, REDDIT, block_size=1, **SETUP) == dense

    def test_gcn_aggregation_unchanged_by_compression(self):
        # no weights in the phase, nothing to compress
        dense = profile_phase(Variant.GCN, Phase.AGGREGATION, REDDIT, **SETUP).flops
        assert compressed_flops(Variant.GCN, Phase.AGGREGATION, REDDIT, block_size=128, **SETUP) == dense

    def test_bad_block_size_rejected(self):
        with pytest.raises(SchemaError):
            compressed_flops(Variant.GCN, Phase.COMBINATION, REDDIT, block_size=3, **SETUP)


class TestGrid:
    def test_covers_all_variants_and_phases(self):
        grid = profile_grid(REDDIT, 512, 512, 25, heads=2, head_dim=128)
        assert len(grid) == 8
        for (variant, phase), prof in grid.items():
            assert prof.flops > 0
            assert prof.bytes_moved > 0
