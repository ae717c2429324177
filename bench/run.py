"""circgnn benchmark: compressed vs dense Cora-scale inference, plus design search.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from src/ of the checkout that holds this
directory.  One process, one client, closed loop: the next request is sent
when the previous one returns.  Inputs are written from the seed into a
scratch directory under .bench_work/ before any timing and removed
afterwards.

Workloads (see workloads.py):
  cora-c16-b1     single-node forward requests, round-robin over gcn, gspool,
                  ggcn and gat, every weight block-circulant at n = 16;
                  checked against the dense twin of each model
  cora-dense-b32  32-node batches on the same graph, variants and seed, every
                  weight the to_dense() twin; sampled nodes checked against
                  the compressed model
  dse-sweep       search_optimal at n = 128 with default coefficients, then
                  profile_grid and compressed_flops for the same dataset;
                  checked by recomputation and one reduced brute force

With --trace 0 the last line reports the end-to-end metrics:
  setup_s           median of repeated set-ups: load graph, features,
                    configs and weights, build models and warm every lazy
                    spectrum (p*q transforms per compressed weight), so that
                    work moved between set-up and requests shows here
  throughput_per_s  batch nodes embedded per second (nodes_per_s) on the
                    inference workloads, searches per second
                    (searches_per_s) on dse-sweep, over the request loop
  request_ms_p50, request_ms_p90   request latency percentiles
  peak_rss_mb       peak resident memory after the request loop
Failed or mismatched requests are reported as "failed" out of "attempted";
error_rate is their ratio.  With --trace 1 the last line reports the
per-layer metrics of spans.py instead; that run alternates untraced and
traced replays of each round of requests and reports the difference as
trace.overhead_pct.  Its spans are written to .bench_work/trace-<workload>.npz.
"""

from __future__ import annotations

import os

# Fixed before numpy loads: dense throughput depends on the BLAS thread
# count, so every run, on any machine, uses the same one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "circgnn").is_dir():
    sys.exit(f"{ROOT / 'src' / 'circgnn'} not found: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from circgnn import circulant  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

OP_COUNTS = ("fft_calls", "ifft_calls", "multiplies")
SETUP_REPEATS = 3  # at least this many set-ups, and
SETUP_MIN_S = 1.0  # at least this long in total, so cheap set-ups are sampled many times
INPUT_TIMEOUT_S = 120


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_request(workload, i: int):
    """One request: (latency in ns, output or the exception it raised)."""
    t0 = perf_counter_ns()
    try:
        out = workload.request(i)
    except Exception as exc:  # a failed request is counted, not fatal
        out = exc
    return perf_counter_ns() - t0, out


def closed_loop(workload, seconds: float):
    """Requests back to back, in whole rounds, until `seconds` have passed.

    Returns per-request latencies (ns) and outputs.
    """
    latencies, outputs = [], []
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while not outputs or perf_counter_ns() < deadline:
        for _ in range(workload.round):
            ns, out = timed_request(workload, len(outputs))
            latencies.append(ns)
            outputs.append(out)
    return latencies, outputs


def traced_loop(workload, tracer, seconds: float):
    """Each round runs untraced, then replays traced; counts cover the replays.

    Returns the replayed outputs, whether each equals its untraced twin, the
    circulant operation counts of the replays and the tracing overhead (%).
    """
    untraced_ns = traced_ns = 0
    outputs, same = [], []
    counts = dict.fromkeys(OP_COUNTS, 0)
    deadline = perf_counter_ns() + int(seconds * 1e9)
    while not outputs or perf_counter_ns() < deadline:
        first = len(outputs)
        ids = range(first, first + workload.round)
        plain = [timed_request(workload, i) for i in ids]
        before = circulant.op_counts()
        with tracer.active():
            replay = []
            for i in ids:
                tracer.request = i
                replay.append(timed_request(workload, i))
        after = circulant.op_counts()
        for name in counts:
            counts[name] += getattr(after, name) - getattr(before, name)
        untraced_ns += sum(ns for ns, _ in plain)
        traced_ns += sum(ns for ns, _ in replay)
        outputs += [out for _, out in replay]
        same += [workload.same(a, b) for (_, a), (_, b) in zip(plain, replay)]
    return outputs, same, counts, 100.0 * (traced_ns - untraced_ns) / untraced_ns


def report_errors(outputs, ok) -> None:
    """The first few failures, on stderr."""
    bad = [(i, out) for i, (out, good) in enumerate(zip(outputs, ok)) if not good]
    for i, out in bad[:3]:
        if isinstance(out, Exception):
            detail = "".join(traceback.format_exception_only(out)).strip()
        else:
            detail = "output does not match its oracle"
        print(f"request {i}: {detail}", file=sys.stderr)


def run(name: str, seed: int, seconds: float, trace: bool, inputs: Path):
    """Metrics of one run, and per request whether its output checked out."""
    if trace:
        workload = workloads.WORKLOADS[name](seed)
        tracer = Tracer()
        with tracer.active():
            workload.setup(inputs)
        if isinstance(workload, workloads.Inference):
            tracer.charge_models(workload.models)
        outputs, same, counts, overhead = traced_loop(workload, tracer, seconds)
        ok = [a and b for a, b in zip(workload.check(outputs, inputs), same)]
        tracer.write(ROOT / ".bench_work" / f"trace-{name}.npz")
        batch_nodes = workload.items_per_request * len(outputs)
        metrics = layer_metrics(tracer, len(outputs), batch_nodes, counts, overhead)
    else:
        setup = []
        while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_MIN_S:
            workload = None
            gc.collect()
            workload = workloads.WORKLOADS[name](seed)
            t0 = perf_counter_ns()
            workload.setup(inputs)
            setup.append((perf_counter_ns() - t0) / 1e9)
        latencies, outputs = closed_loop(workload, seconds)
        rss = peak_rss_mb()
        ok = workload.check(outputs, inputs)
        ms = np.asarray(latencies) / 1e6
        items = workload.items_per_request * len(outputs)
        metrics = {
            "setup_s": (float(np.median(setup)), "s"),
            "throughput_per_s": (items / (ms.sum() / 1e3), "1/s"),
            "request_ms_p50": (float(np.percentile(ms, 50)), "ms"),
            "request_ms_p90": (float(np.percentile(ms, 90)), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
    report_errors(outputs, ok)
    failed = ok.count(False)
    return {
        "correct": failed == 0,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def print_summary(name: str, seed: int, result: dict) -> None:
    """Human-readable lines; the issue's metric names appear here."""
    print(f"workload {name} seed {seed}")
    print(f"env {json.dumps(environment())}")
    aliases = {"throughput_per_s": "searches_per_s" if name == "dse-sweep" else "nodes_per_s"}
    for key, m in result["metrics"].items():
        print(f"  {aliases.get(key, key):<32} {m['value']:>14.6g} {m['unit']}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<32} {rate:>14.6g} ({result['failed']}/{result['attempted']})")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    inputs = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True,
            timeout=INPUT_TIMEOUT_S,
        )
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    print_summary(args.workload, args.seed, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
