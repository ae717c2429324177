"""Analytic cycle and resource model of a pipelined block-circulant accelerator.

The accelerator processes one graph node at a time through four pipelined
stages: an FFT bank of ``fft_channels`` parallel transform units, a systolic
multiply-accumulate array of pe_rows x pe_cols processing elements (each PE
multiplies ``pack_size`` spectrum entries per cycle), an inverse-FFT bank of
``ifft_channels`` units, and a vector post-processing unit with ``vpu_lanes``
lanes of SIMD width 16 for activations and reductions.

For one layer whose per-node work is S sampled matvecs over a p x q grid of
size-n blocks producing out_dim values:

    fft   = transform_cycles * ceil(S * q / fft_channels)
    mac   = S * ceil(q / pe_rows) * ceil(p / pe_cols) * ceil(n / pack_size)
    ifft  = transform_cycles * ceil(S * p / ifft_channels)
    vpu   = ceil(S * out_dim / (vpu_lanes * 16))

The pipeline runs the stages concurrently, so a layer costs the maximum of
the four and a node costs the sum over layers; the whole graph costs that
times num_nodes.  DSP usage is

    fft_channel_dsp * (fft_channels + ifft_channels)
      + pe_rows * pe_cols * (pe_dsp_per_pack * pack_size)
      + vpu_lanes * vpu_lane_dsp

``search_optimal`` enumerates every feasible parameter combination under the
DSP budget and returns the cycle-minimal one (ties: fewer DSPs, then the
lexicographically smallest parameter tuple).

Cost coefficients are calibrated per block size; built-in defaults exist
only for n = 128 and other sizes must supply their own numbers.

A workload models aggregation matvecs only.  Combination multiplies can
be folded in by listing them as extra layers with S = 1, since they run
once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .circulant import require_power_of_two
from .errors import InfeasibleError, SchemaError

_VPU_SIMD_WIDTH = 16


@dataclass(frozen=True)
class HardwareConfig:
    """One point in the accelerator design space."""

    fft_channels: int
    ifft_channels: int
    pe_rows: int
    pe_cols: int
    pack_size: int
    vpu_lanes: int
    block_size: int

    def __post_init__(self):
        for name in ("fft_channels", "ifft_channels", "pe_rows", "pe_cols", "vpu_lanes"):
            if getattr(self, name) < 1:
                raise SchemaError(f"HardwareConfig.{name} must be >= 1")
        require_power_of_two(self.block_size, 2)
        require_power_of_two(self.pack_size, 1, "pack_size")
        if self.pack_size > self.block_size:
            raise SchemaError("pack_size must not exceed block_size")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.fft_channels,
            self.ifft_channels,
            self.pe_rows,
            self.pe_cols,
            self.pack_size,
            self.vpu_lanes,
        )


@dataclass(frozen=True)
class CostCoefficients:
    """Per-unit cycle and DSP costs of the stages, plus the DSP budget."""

    transform_cycles: int  # cycles one channel needs for one length-n transform
    fft_channel_dsp: int  # DSPs per forward or inverse transform channel
    pe_dsp_per_pack: int  # DSPs per PE per unit of pack_size
    vpu_lane_dsp: int  # DSPs per vector lane
    dsp_budget: int

    def __post_init__(self):
        for name in (
            "transform_cycles",
            "fft_channel_dsp",
            "pe_dsp_per_pack",
            "vpu_lane_dsp",
            "dsp_budget",
        ):
            if getattr(self, name) < 1:
                raise SchemaError(f"CostCoefficients.{name} must be >= 1")


# Calibrated stage costs, keyed by block size: (transform_cycles, fft_channel_dsp).
_CALIBRATED = {128: (484, 18)}
_PE_DSP_PER_PACK = 16
_VPU_LANE_DSP = 64


def default_coefficients(block_size: int, dsp_budget: int = 900) -> CostCoefficients:
    """Built-in coefficients; only block_size 128 is calibrated."""
    if block_size not in _CALIBRATED:
        raise SchemaError(
            f"no calibrated coefficients for block size {block_size}; "
            "supply transform_cycles and fft_channel_dsp explicitly"
        )
    cycles, channel_dsp = _CALIBRATED[block_size]
    return CostCoefficients(cycles, channel_dsp, _PE_DSP_PER_PACK, _VPU_LANE_DSP, dsp_budget)


@dataclass(frozen=True)
class WorkloadLayer:
    """Per-node work of one layer: S matvecs of an out_dim x in_dim weight."""

    samples: int
    in_dim: int
    out_dim: int

    def __post_init__(self):
        if self.samples < 1 or self.in_dim < 1 or self.out_dim < 1:
            raise SchemaError("workload layer fields must be >= 1")

    def q(self, block_size: int) -> int:
        return -(-self.in_dim // block_size)

    def p(self, block_size: int) -> int:
        return -(-self.out_dim // block_size)


@dataclass(frozen=True)
class WorkloadSpec:
    num_nodes: int
    block_size: int
    layers: tuple[WorkloadLayer, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.num_nodes < 1:
            raise SchemaError("workload num_nodes must be >= 1")
        if not self.layers:
            raise SchemaError("workload needs at least one layer")
        require_power_of_two(self.block_size, 2, "workload block size")


class Stage(str, Enum):
    FFT = "fft"
    MAC = "mac"
    IFFT = "ifft"
    VPU = "vpu"


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def cycle_fft(samples: int, q: int, channels: int, transform_cycles: int) -> int:
    """Cycles to forward-transform S*q block sub-vectors on ``channels`` units."""
    return transform_cycles * _ceil_div(samples * q, channels)


def cycle_mac(
    samples: int, q: int, p: int, pe_rows: int, pe_cols: int, block_size: int, pack_size: int
) -> int:
    """Cycles for the spectral multiply-accumulates on the systolic array."""
    return (
        samples
        * _ceil_div(q, pe_rows)
        * _ceil_div(p, pe_cols)
        * _ceil_div(block_size, pack_size)
    )


def cycle_ifft(samples: int, p: int, channels: int, transform_cycles: int) -> int:
    """Cycles to inverse-transform S*p accumulated block rows."""
    return transform_cycles * _ceil_div(samples * p, channels)


def cycle_vpu(samples: int, out_dim: int, lanes: int) -> int:
    """Cycles for element-wise post-processing of S vectors of out_dim values."""
    return _ceil_div(samples * out_dim, lanes * _VPU_SIMD_WIDTH)


@dataclass(frozen=True)
class LayerCycles:
    fft_cycles: int
    mac_cycles: int
    ifft_cycles: int
    vpu_cycles: int
    peak_cycles: int
    bottleneck: Stage


# Reporting priority when stages tie for the maximum.
_STAGE_ORDER = (Stage.FFT, Stage.MAC, Stage.IFFT, Stage.VPU)


def layer_cycles(layer: WorkloadLayer, hw: HardwareConfig, coeffs: CostCoefficients) -> LayerCycles:
    """Per-node cycles of one layer: the slowest of the four pipelined stages."""
    q, p = layer.q(hw.block_size), layer.p(hw.block_size)
    values = {
        Stage.FFT: cycle_fft(layer.samples, q, hw.fft_channels, coeffs.transform_cycles),
        Stage.MAC: cycle_mac(
            layer.samples, q, p, hw.pe_rows, hw.pe_cols, hw.block_size, hw.pack_size
        ),
        Stage.IFFT: cycle_ifft(layer.samples, p, hw.ifft_channels, coeffs.transform_cycles),
        Stage.VPU: cycle_vpu(layer.samples, layer.out_dim, hw.vpu_lanes),
    }
    peak = max(values.values())
    bottleneck = next(s for s in _STAGE_ORDER if values[s] == peak)
    return LayerCycles(
        values[Stage.FFT], values[Stage.MAC], values[Stage.IFFT], values[Stage.VPU],
        peak, bottleneck,
    )


@dataclass(frozen=True)
class CycleEstimate:
    layers: tuple[LayerCycles, ...]
    num_nodes: int
    total_cycles: int

    @property
    def per_node_cycles(self) -> int:
        return sum(lc.peak_cycles for lc in self.layers)


def total_cycles(workload: WorkloadSpec, hw: HardwareConfig, coeffs: CostCoefficients) -> CycleEstimate:
    """Whole-graph cycle estimate: sum of per-layer peaks times node count."""
    if hw.block_size != workload.block_size:
        raise SchemaError(
            f"hardware block size {hw.block_size} != workload block size {workload.block_size}"
        )
    per_layer = tuple(layer_cycles(layer, hw, coeffs) for layer in workload.layers)
    per_node = sum(lc.peak_cycles for lc in per_layer)
    return CycleEstimate(per_layer, workload.num_nodes, per_node * workload.num_nodes)


def dsp_usage(hw: HardwareConfig, coeffs: CostCoefficients) -> int:
    """DSP blocks consumed by a configuration."""
    return (
        coeffs.fft_channel_dsp * (hw.fft_channels + hw.ifft_channels)
        + hw.pe_rows * hw.pe_cols * (coeffs.pe_dsp_per_pack * hw.pack_size)
        + hw.vpu_lanes * coeffs.vpu_lane_dsp
    )


@dataclass(frozen=True)
class SearchResult:
    best: HardwareConfig
    estimate: CycleEstimate
    dsp_usage: int
    explored: int  # feasible configurations evaluated


def search_optimal(
    workload: WorkloadSpec,
    coeffs: CostCoefficients,
    max_pe_rows: int = 32,
    max_pe_cols: int = 32,
) -> SearchResult:
    """Exhaustive search for the feasible config minimizing total cycles.

    Enumerates VPU lane counts, pack sizes over powers of two up to the block
    size, and the PE grids (up to max_pe_rows x max_pe_cols) that leave room
    for one fft and one ifft channel; for each, every fft/ifft channel pair
    within the DSP budget is evaluated at once from the stage functions.
    Ties are broken by lower DSP usage and then by the lexicographically
    smallest (fft_channels, ifft_channels, pe_rows, pe_cols, pack_size,
    vpu_lanes).  All arguments are integers; PE limits must be >= 1.
    """
    if max_pe_rows < 1 or max_pe_cols < 1:
        raise SchemaError("max_pe_rows and max_pe_cols must be >= 1")
    n = workload.block_size
    budget = coeffs.dsp_budget
    beta = coeffs.fft_channel_dsp
    floor_dsp = 2 * beta + coeffs.pe_dsp_per_pack + coeffs.vpu_lane_dsp
    if budget < floor_dsp:
        raise InfeasibleError(
            f"no configuration meets the DSP budget of {budget} "
            f"(the minimal design needs {floor_dsp})"
        )

    layers = workload.layers
    # fft/ifft stage cycles for every channel count; either bank leaves the other >= 1
    chans = np.arange(1, budget // beta, dtype=np.int64)
    transforms = [
        np.maximum.outer(
            cycle_fft(l.samples, l.q(n), chans, coeffs.transform_cycles),
            cycle_ifft(l.samples, l.p(n), chans, coeffs.transform_cycles),
        )
        for l in layers
    ]
    chan_sum = chans[:, None] + chans[None, :]  # x + y: DSP cost and tie rank
    infeasible = np.iinfo(np.int64).max

    best_key = None  # (per_node_cycles, dsp, x, y, r, c, l, m)
    explored = 0
    for lanes in range(1, budget // coeffs.vpu_lane_dsp + 1):
        vpu = [cycle_vpu(l.samples, l.out_dim, lanes) for l in layers]
        spare = budget - 2 * beta - lanes * coeffs.vpu_lane_dsp  # DSPs left for the PE array
        for pack in (1 << k for k in range(n.bit_length())):
            unit = coeffs.pe_dsp_per_pack * pack
            for rows in range(1, min(max_pe_rows, spare // unit) + 1):
                for cols in range(1, min(max_pe_cols, spare // (unit * rows)) + 1):
                    dsp_fixed = lanes * coeffs.vpu_lane_dsp + rows * cols * unit
                    room = (budget - dsp_fixed) // beta  # x + y <= room, room >= 2
                    explored += room * (room - 1) // 2
                    w = room - 1  # largest x or y
                    sums = chan_sum[:w, :w]
                    floors = [
                        max(v, cycle_mac(l.samples, l.q(n), l.p(n), rows, cols, n, pack))
                        for v, l in zip(vpu, layers)
                    ]
                    per_node = sum(np.maximum(t[:w, :w], f) for t, f in zip(transforms, floors))
                    per_node = np.where(sums <= room, per_node, infeasible)
                    cycles = int(per_node.min())
                    if best_key is not None and cycles > best_key[0]:
                        continue
                    # fewest channels first, then fewest fft channels (row-major order)
                    pick = int(np.argmin(np.where(per_node == cycles, sums, infeasible)))
                    x, y = pick // w + 1, pick % w + 1
                    key = (cycles, beta * (x + y) + dsp_fixed, x, y, rows, cols, pack, lanes)
                    best_key = min(best_key or key, key)

    _, dsp, x, y, rows, cols, pack, lanes = best_key
    hw = HardwareConfig(x, y, rows, cols, pack, lanes, n)
    return SearchResult(hw, total_cycles(workload, hw, coeffs), dsp, explored)
