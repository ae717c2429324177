"""Span tracing around the package's public calls, for the traced run.

A traced run swaps selected module attributes for wrappers that record one
span per call: name, start, end, the span that caused it, and the request it
belongs to (-1 during set-up).  The package calls these names through its
module globals, so wrapping the attribute also catches the calls the package
makes to itself, e.g. ``gnn._node_repr`` calling ``gnn.combine``.  Spans are
kept in memory and written out once, at the end; a span's self time is its
duration minus the durations of its child spans.

Alongside the spans, hooks count the work that spans cannot show: distinct
(weight, input) pairs per request, the cycle model's transform charge for
every evaluated (layer, node), configurations explored by the search, and
bytes of model files read.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from circgnn import circulant, gnn, graph, modelio, perfmodel, profiler

# (module, attribute, span name); each attribute is a layer boundary
TRACED = (
    (graph, "load_edge_list", "graph.load"),
    (gnn, "sample_neighbors", "graph.sample"),
    (modelio, "load_model_config", "modelio.load"),
    (modelio, "load_weights", "modelio.load"),
    (gnn, "forward", "gnn.forward"),
    (gnn, "aggregate_gcn", "gnn.aggregate"),
    (gnn, "aggregate_gspool", "gnn.aggregate"),
    (gnn, "aggregate_ggcn", "gnn.aggregate"),
    (gnn, "aggregate_gat", "gnn.aggregate"),
    (gnn, "combine", "gnn.combine"),
    (gnn, "matvec", "gnn.matvec"),
    (gnn, "bc_matvec", "circulant.spectral"),
    (circulant, "precompute_spectral", "circulant.precompute"),
    (perfmodel, "search_optimal", "perfmodel.search"),
    (profiler, "profile_grid", "profiler.grid"),
    (profiler, "compressed_flops", "profiler.grid"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TRACED))


@dataclass
class Tracer:
    """In-memory span log plus the work counters the hooks fill."""

    request: int = -1  # request the next spans belong to; -1 is set-up
    parent: list = field(default_factory=list)
    code: list = field(default_factory=list)
    span_request: list = field(default_factory=list)
    start: list = field(default_factory=list)
    end: list = field(default_factory=list)
    matvec_pairs: set = field(default_factory=set)
    transform_charge: int = 0
    configs_explored: int = 0
    bytes_read: int = 0
    charge_by_weight: dict = field(default_factory=dict)
    _stack: list = field(default_factory=lambda: [-1])

    def wrap(self, name: str, fn):
        code = SPAN_NAMES.index(name)
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            sid = len(self.code)
            self.parent.append(self._stack[-1])
            self.code.append(code)
            self.span_request.append(self.request)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextmanager
    def active(self):
        """Swap every traced attribute for its wrapper; restore on exit."""
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TRACED]
        try:
            for (mod, attr, name), (_, _, fn) in zip(TRACED, saved):
                setattr(mod, attr, self.wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def charge_models(self, models) -> None:
        """Per combine weight, the cycle model's S*q + S*p transform charge.

        One channel and one cycle per transform make the fft/ifft stage
        cycles equal the transform counts the model assumes per node.
        """
        for model in models:
            cfg = model.config
            for (din, dout), samples, lw in zip(cfg.dims, cfg.sample_sizes, model.layers):
                q = -(-din // cfg.block_size)
                p = -(-dout // cfg.block_size)
                self.charge_by_weight[id(lw.W)] = perfmodel.cycle_fft(
                    samples, q, 1, 1
                ) + perfmodel.cycle_ifft(samples, p, 1, 1)

    def totals(self, requests: bool) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        requests=True keeps spans of requests, False those of set-up.
        """
        parent = np.asarray(self.parent, dtype=np.int64)
        code = np.asarray(self.code, dtype=np.int64)
        dur = np.asarray(self.end, dtype=np.float64) - np.asarray(self.start, dtype=np.float64)
        req = np.asarray(self.span_request, dtype=np.int64)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - children
        keep = req >= 0 if requests else req < 0
        out = {}
        for k, name in enumerate(SPAN_NAMES):
            sel = keep & (code == k)
            out[name] = (
                int(np.count_nonzero(sel)),
                float(dur[sel].sum()) / 1e9,
                float(self_time[sel].sum()) / 1e9,
            )
        return out

    def write(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(SPAN_NAMES),
            parent=np.asarray(self.parent, dtype=np.int64),
            code=np.asarray(self.code, dtype=np.int16),
            request=np.asarray(self.span_request, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
        )


# Hooks run after their span has closed, so their cost falls into the
# parent's self time and into the measured tracing overhead.


def _count_matvec(tracer: Tracer, args, result) -> None:
    weight, x = args
    key = (tracer.request, id(weight), hash(np.asarray(x, dtype=np.float64).tobytes()))
    tracer.matvec_pairs.add(key)


def _count_combine(tracer: Tracer, args, result) -> None:
    tracer.transform_charge += tracer.charge_by_weight.get(id(args[3]), 0)


def _count_file(tracer: Tracer, args, result) -> None:
    tracer.bytes_read += os.path.getsize(args[0])


def _count_search(tracer: Tracer, args, result) -> None:
    tracer.configs_explored += result.explored


_HOOKS = {
    "gnn.matvec": _count_matvec,
    "gnn.combine": _count_combine,
    "modelio.load": _count_file,
    "perfmodel.search": _count_search,
}


# Which end-to-end metric each layer metric should move, on which workload:
#   graph.load_s                 setup_s on both inference workloads
#   graph.sample_*               request_ms_p50 on cora-c16-b1
#   modelio.*                    setup_s and peak_rss_mb on cora-dense-b32
#   gnn.*                        throughput_per_s on both inference workloads
#   circulant.*                  request_ms_p50 and throughput_per_s on
#                                cora-c16-b1; zero on the other two
#   perfmodel.*                  request_ms_p50/p90 on dse-sweep; zero elsewhere
#   profiler.grid_s              request_ms_p50 on dse-sweep, a small share
# gnn.matvec_repeat_ratio is matvec calls over distinct (weight, input) pairs
# within a request: the work a batched engine could skip.


def layer_metrics(
    tracer: Tracer,
    requests: int,
    batch_nodes: int,
    counts: dict[str, int],
    overhead_pct: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: set-up ones for one set-up, loop ones per request.

    gnn.node_evals is per batch node; circulant counts are op_counts()
    deltas over the traced requests, exact and independent of timing.
    """
    setup = tracer.totals(requests=False)
    loop = tracer.totals(requests=True)
    per_req = 1.0 / requests
    mv_calls, mv_total, _ = loop["gnn.matvec"]
    search_calls, search_total, _ = loop["perfmodel.search"]
    transforms = counts["fft_calls"] + counts["ifft_calls"]
    return {
        "graph.load_s": (setup["graph.load"][1], "s"),
        "graph.sample_calls": (loop["graph.sample"][0] * per_req, "count/req"),
        "graph.sample_self_s": (loop["graph.sample"][2] * per_req, "s/req"),
        "modelio.load_s": (setup["modelio.load"][1], "s"),
        "modelio.bytes_read": (float(tracer.bytes_read), "B"),
        "gnn.forward_s": (loop["gnn.forward"][1] * per_req, "s/req"),
        "gnn.aggregate_self_s": (loop["gnn.aggregate"][2] * per_req, "s/req"),
        "gnn.combine_self_s": (loop["gnn.combine"][2] * per_req, "s/req"),
        "gnn.node_evals": (loop["gnn.combine"][0] / batch_nodes, "count/node"),
        "gnn.matvec_calls": (mv_calls * per_req, "count/req"),
        "gnn.matvec_us_per_call": (mv_total / mv_calls * 1e6 if mv_calls else 0.0, "us"),
        "gnn.matvec_repeat_ratio": (
            mv_calls / len(tracer.matvec_pairs) if mv_calls else 0.0, "ratio"
        ),
        "circulant.spectral_s": (loop["circulant.spectral"][1] * per_req, "s/req"),
        "circulant.fft_calls": (counts["fft_calls"] * per_req, "count/req"),
        "circulant.ifft_calls": (counts["ifft_calls"] * per_req, "count/req"),
        "circulant.multiplies": (counts["multiplies"] * per_req, "count/req"),
        "circulant.precompute_s": (setup["circulant.precompute"][1], "s"),
        "circulant.transforms_vs_model": (
            transforms / tracer.transform_charge if tracer.transform_charge else 0.0, "ratio"
        ),
        "perfmodel.search_s": (search_total * per_req, "s/req"),
        "perfmodel.configs_explored": (tracer.configs_explored * per_req, "count/req"),
        "perfmodel.configs_per_s": (
            tracer.configs_explored / search_total if search_calls else 0.0, "1/s"
        ),
        "profiler.grid_s": (loop["profiler.grid"][1] * per_req, "s/req"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
