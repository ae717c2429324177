"""circgnn: block-circulant compressed GNN inference and accelerator modeling.

The package has three legs:

  * circulant + gnn: exact spectral-domain inference for compressed
    sample-based GNN layers (four variants), verified against dense math;
  * perfmodel: an analytic cycle/DSP model of a pipelined FFT accelerator
    and an exhaustive design-space search under a resource budget;
  * profiler: closed-form FLOP and memory-traffic accounting that explains
    which phases are memory bound and what compression buys.
"""
