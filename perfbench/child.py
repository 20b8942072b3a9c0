"""One measured training run, in a fresh interpreter.

Usage: ``python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --out DIR``

Builds the workload (timed as set-up, with the hash family forced by
constructing a ``CountSketch`` so lazy set-up is not timed as round 1), runs
``run_training`` (timed), writes the metrics CSV into ``--out`` and prints
one JSON line with the timings, the time of a fixed reference kernel run
before and after them, the CSV's sha256, the losses, the traffic figures
and, with ``--trace 1``, the per-layer figures of the trace.
``run.py`` starts one of these per measured run, so caches such as the
hash-family cache and the peak resident size never carry over between runs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from gradsketch import CountSketch, run_training, write_metrics_csv  # noqa: E402

from spans import Tracer, layer_metrics, wrapped_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def reference_kernel_s() -> float:
    """Seconds one pass of a fixed numpy kernel takes; it runs no gradsketch code.

    The kernel mixes what the workloads spend their time on (dense
    matrix-vector products, stable argsorts, a large gather feeding a
    weighted bincount, many small array operations), so its duration tracks
    how fast the shared machine runs at the moment and ``run.py`` can scale
    timings to a fixed reference speed.
    """
    rng = np.random.default_rng(0)
    # Small inputs, so the kernel never sets the run's peak resident size.
    matrix, vec = rng.standard_normal((1000, 784)), rng.standard_normal(784)
    values = rng.standard_normal(100_000)
    cells = rng.standard_normal(50_000)
    index = rng.integers(0, cells.size, 250_000)
    weights = rng.standard_normal(index.size)
    start = time.perf_counter()
    for _ in range(40):
        matrix @ vec
    for _ in range(3):
        np.argsort(-np.abs(values), kind="stable")
    for _ in range(12):
        np.bincount(index, weights=cells[index] * weights, minlength=cells.size)
    acc = vec
    for _ in range(2000):
        acc = acc + vec
    return time.perf_counter() - start


def traffic(records) -> dict[str, float]:
    """Per-round byte counts and the exact round's useful share, from the CSV rows."""
    rounds = [rec for rec in records if rec.t >= 1]
    n = len(rounds)
    exact = sum(rec.up_exact_elems for rec in rounds)
    return {
        "cluster.bytes_up_per_worker": sum(rec.bytes_up for rec in rounds) / n,
        "cluster.bytes_down": sum(rec.bytes_down for rec in rounds) / n,
        "cluster.bytes_request": sum(rec.bytes_request for rec in rounds) / n,
        "cluster.exact_useful_frac": sum(rec.support_size for rec in rounds) / exact if exact else 0.0,
    }


def measure(workload: str, seed: int, trace: bool, out_dir: str) -> dict:
    """Set up, train and write one run; returns the figures ``run.py`` aggregates."""
    tracer = None
    reference = [reference_kernel_s() for _ in range(2)]
    start = time.perf_counter()
    wl = WORKLOADS[workload](seed)
    if trace:
        tracer = Tracer(wl.problem, wl.config.w_workers)
    if wl.sketch_config is not None:
        CountSketch(wl.sketch_config)
    setup_s = time.perf_counter() - start

    start = time.perf_counter()
    result = run_training(
        wl.problem,
        wl.config,
        wl.sketch_config,
        batch_size=wl.batch_size,
        data_seed=wl.data_seed,
        rng_seed=wl.rng_seed,
    )
    run_s = time.perf_counter() - start

    layers: dict[str, float] = {}
    if tracer is not None:
        tracer.finish()
        tracer.remove()
        leftover = wrapped_names(wl.problem)
        if leftover:
            raise RuntimeError(f"tracing wrappers left installed: {leftover}")
        layers = layer_metrics(tracer)

    path = os.path.join(out_dir, f"{workload}-{os.getpid()}.csv")
    start = time.perf_counter()
    write_metrics_csv(path, result.metrics)
    layers["metrics.write_csv_s"] = time.perf_counter() - start
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    os.unlink(path)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference += [reference_kernel_s() for _ in range(2)]
    records = result.metrics.records
    summary = result.metrics.summary
    layers.update(traffic(records))
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "rounds": wl.config.t_rounds,
        "peak_rss_mb": peak_rss_mb,
        "reference_s": statistics.median(reference),
        "digest": digest,
        "loss0": records[0].train_loss,
        "final_train_loss": summary["final_train_loss"],
        "final_test_metric": summary["final_test_metric"],
        "byte_compression_factor": summary["byte_compression_factor"],
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, bool(args.trace), args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
