"""gradsketch benchmark: closed-loop training runs, end to end or traced per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload again and again for about ``--seconds`` seconds, each run
in a fresh interpreter (``child.py``) and one at a time, so the hash-family
cache and peak resident memory never carry over from one run to the next.
With ``--trace 0`` it reports the end-to-end metrics listed in
``BENCHMARK.json`` as medians over the runs; ``rounds_per_s`` and
``setup_s`` are scaled to a reference speed of the machine, measured by a
fixed numpy kernel timed before and after each run (see ``REFERENCE_S``).
With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics, medians over the traced runs, plus the tracing overhead.

Every run is checked: it must exit cleanly, its final train loss must be
finite and below the t=0 loss, and the sha256 of its metrics CSV must equal
the digest in ``expected_digests.json`` on the default seed, or equal that of
the other runs of the same seed on any other seed.  A failed check counts
the run as failed and makes the command exit 1.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name every metric with its unit and record
the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

# Timings are scaled to a machine on which child.reference_kernel_s() takes
# this long.  Other tenants of a shared host slow the workloads and the
# kernel alike, by up to 1.7x within a minute, so the scaled figures stay
# steady where raw wall times do not; both are printed.
REFERENCE_S = 0.05
# Every invocation has to end within 180 s; no run starts past this point.
TIME_LIMIT_S = 150.0
# Runs per invocation, at least: two untraced runs check determinism on any
# seed, and a traced run needs an untraced one to measure its overhead.
MIN_RUNS = 2


def environment() -> dict[str, object]:
    """What the timings depend on besides the code: interpreter, BLAS, CPU."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_child(workload: str, seed: int, trace: bool, out_dir: str, timeout: float) -> dict | None:
    """One measured run in a fresh interpreter; None if it did not finish cleanly."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"run timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"run exited with {proc.returncode}:\n{proc.stderr.strip()}", file=sys.stderr)
        return None
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"run printed no result: {proc.stdout[-200:]!r}", file=sys.stderr)
        return None
    result["trace"] = trace
    return result


def failed_checks(runs: list[dict | None], expected: str | None) -> list[str | None]:
    """Per run, why its output is wrong, or None when it passes."""
    digests = [r["digest"] for r in runs if r is not None]
    if expected is None and digests:
        expected = Counter(digests).most_common(1)[0][0]
    reasons: list[str | None] = []
    for r in runs:
        if r is None:
            reasons.append("run failed")
        elif not math.isfinite(r["final_train_loss"]) or not r["final_train_loss"] < r["loss0"]:
            reasons.append(f"train loss did not fall: {r['loss0']!r} -> {r['final_train_loss']!r}")
        elif r["digest"] != expected:
            reasons.append(f"metrics CSV digest {r['digest']} != {expected}")
        else:
            reasons.append(None)
    return reasons


def rounds_per_s(runs: list[dict], scaled: bool = True) -> float:
    """Median rounds per second, scaled to the reference speed unless told not to."""
    return statistics.median(
        r["rounds"] / r["run_s"] * (r["reference_s"] / REFERENCE_S if scaled else 1.0) for r in runs
    )


def setup_s(runs: list[dict], scaled: bool = True) -> float:
    return statistics.median(
        r["setup_s"] * (REFERENCE_S / r["reference_s"] if scaled else 1.0) for r in runs
    )


def end_to_end(runs: list[dict]) -> dict[str, float]:
    return {
        "rounds_per_s": rounds_per_s(runs),
        "setup_s": setup_s(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "byte_compression_factor": statistics.median(r["byte_compression_factor"] for r in runs),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, float]:
    out = {key: statistics.median(r["layers"][key] for r in traced) for key in traced[0]["layers"]}
    out["trace.overhead_frac"] = rounds_per_s(untraced) / rounds_per_s(traced) - 1.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "gradsketch", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"no gradsketch sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    from workloads import DEFAULT_SEED, MAX_SEED

    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected_digests.json"), encoding="utf-8") as fh:
        expected_digests = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not 0 <= args.seed < MAX_SEED or args.seconds <= 0:
        parser.error("need 0 <= seed < 2**62 and seconds > 0")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    runs: list[dict | None] = []
    durations: list[float] = []
    try:
        while len(runs) < MIN_RUNS or (
            time.monotonic() - start + statistics.median(durations) <= min(args.seconds, TIME_LIMIT_S)
        ):
            # A traced invocation alternates untraced and traced runs.
            trace = bool(args.trace) and len(runs) % 2 == 1
            began = time.monotonic()
            runs.append(run_child(args.workload, args.seed, trace, out_dir, 170.0 - (began - start)))
            durations.append(time.monotonic() - began)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    expected = expected_digests[args.workload] if args.seed == DEFAULT_SEED else None
    reasons = failed_checks(runs, expected)
    good = [r for r, why in zip(runs, reasons) if why is None]
    for i, (r, why) in enumerate(zip(runs, reasons)):
        if r is None:
            print(f"run {i}: failed")
            continue
        print(f"run {i}: trace={int(r['trace'])} setup {r['setup_s']:.4f} s, train {r['run_s']:.4f} s, "
              f"loss {r['loss0']:.6g} -> {r['final_train_loss']:.6g}, test {r['final_test_metric']:.6g}, "
              f"csv {r['digest'][:16]}{'' if why is None else '  FAILED: ' + why}")

    metrics: dict[str, dict[str, object]] = {}
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    if untraced and (traced or not args.trace):
        values = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
        if not args.trace:
            # Reported but not bounded: from one seed to the next they move by
            # more than any useful bound (the blobs test error is a rate over
            # 1000 samples; the quadratic's loss level follows its random start).
            for key in ("final_train_loss", "final_test_metric"):
                print(f"{key:40s} {statistics.median(r[key] for r in untraced):.6g} (not bounded)")
            print(f"{'raw rounds_per_s':40s} {rounds_per_s(untraced, scaled=False):.6g} 1/s (not scaled)")
            print(f"{'raw setup_s':40s} {setup_s(untraced, scaled=False):.6g} s (not scaled)")
            print(f"{'reference_s':40s} {statistics.median(r['reference_s'] for r in untraced):.6g} s")
    failed = sum(why is not None for why in reasons)
    print(f"{'failed_run_frac':40s} {failed / len(runs):.6g} ({failed} of {len(runs)} runs)")
    print("environment " + json.dumps(environment(), sort_keys=True))
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
