"""circgnn: block-circulant compressed GNN inference and accelerator modeling.

The package has three legs:

  * circulant + gnn: exact spectral-domain inference for compressed
    sample-based GNN layers (four variants), verified against dense math;
  * perfmodel: an analytic cycle/DSP model of a pipelined FFT accelerator
    and an exhaustive design-space search under a resource budget;
  * profiler: closed-form FLOP and memory-traffic accounting that explains
    which phases are memory bound and what compression buys.
"""

from .circulant import (
    BlockCirculantMatrix,
    bc_matvec,
    compression_stats,
    fft,
    new_random,
    op_counts,
    precompute_spectral,
    project_to_block_circulant,
    reset_op_counts,
    to_dense,
)
from .errors import (
    InfeasibleError,
    InputParseError,
    InternalConsistencyError,
    SchemaError,
)
from .gnn import (
    GnnModel,
    GnnModelConfig,
    LayerWeights,
    Variant,
    activation,
    aggregate_gat,
    aggregate_gcn,
    aggregate_ggcn,
    aggregate_gspool,
    combine,
    densify_weights,
    derived_seed,
    forward,
    random_weights,
)
from .graph import (
    DATASET_STATS,
    Graph,
    GraphStats,
    load_edge_list,
    sample_neighbors,
    synthetic_graph,
)
from .modelio import (
    load_model_config,
    load_weights,
    parse_weight_entry,
    save_model_config,
    save_weights,
    weight_entry,
)
from .perfmodel import (
    CostCoefficients,
    HardwareConfig,
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
    search_optimal,
    total_cycles,
)
from .profiler import (
    Phase,
    compressed_flops,
    profile_grid,
    profile_phase,
)

__version__ = "0.1.0"
