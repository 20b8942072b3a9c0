"""The benchmark's workloads, built through the public gradsketch API.

Each workload is one closed-loop training run: a single process runs
``run_training`` on a problem built here, one round after another, with no
threads besides numpy's own.  A workload seed selects the data, sketch and
fill seeds; seed 0 is the documented configuration (data 3, sketch 2, rng 4)
and every other seed shifts all three, so a claimed gain can be re-checked
on inputs that were not used while it was written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gradsketch import (
    LogisticProblem,
    OptimizerConfig,
    QuadraticProblem,
    SketchConfig,
    split_dataset,
    synth_data,
)

DEFAULT_SEED = 0
MAX_SEED = 1 << 62


@dataclass
class Workload:
    """Everything ``run_training`` needs for one run of a workload."""

    problem: object
    config: OptimizerConfig
    sketch_config: SketchConfig | None
    batch_size: int
    data_seed: int
    rng_seed: int


def derive_seeds(seed: int) -> tuple[int, int, int]:
    """(data, sketch, rng) seeds for a workload seed; seed 0 gives (3, 2, 4)."""
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"workload seed must be in [0, 2**62), got {seed}")
    return 3 + seed, 2 + seed, 4 + seed


def blobs_sketched_784(seed: int) -> Workload:
    # The README quick-start config: logistic blobs at small d, where the
    # per-round full-dataset evaluation and per-call overhead dominate.
    data_seed, sketch_seed, rng_seed = derive_seeds(seed)
    train, test = split_dataset(synth_data(5000, 784, 4.0, seed=data_seed), 4000)
    config = OptimizerConfig(
        mode="empirical",
        algorithm="sketched",
        k=10,
        p=10,
        t_rounds=400,
        w_workers=4,
        lr=0.5,
        lr_points=((1.0, 0.5), (300.0, 0.5), (400.0, 0.1)),
    )
    return Workload(
        problem=LogisticProblem(train, test, 0.01),
        config=config,
        sketch_config=SketchConfig(d=784, r=7, c=40, seed=sketch_seed),
        batch_size=64,
        data_seed=data_seed,
        rng_seed=rng_seed,
    )


def _quadratic(d: int, data_seed: int) -> QuadraticProblem:
    return QuadraticProblem(np.linspace(1.0, 3.0, d), 0.1, 16, seed=data_seed)


def quad_sketched_1m(seed: int) -> Workload:
    # Large d: the sketch and the top-P*k selection do almost all the work,
    # and the hash-family build dominates set-up time and memory.
    data_seed, sketch_seed, rng_seed = derive_seeds(seed)
    d = 1_000_000
    config = OptimizerConfig(
        mode="empirical", algorithm="sketched", k=100, p=10, t_rounds=5, w_workers=4, lr=3e-4
    )
    return Workload(
        problem=_quadratic(d, data_seed),
        config=config,
        sketch_config=SketchConfig(d=d, r=5, c=10_000, seed=sketch_seed),
        batch_size=16,
        data_seed=data_seed,
        rng_seed=rng_seed,
    )


def quad_localtopk_100k(seed: int) -> Workload:
    # Bypasses the sketch entirely: four small-k top-k selections per round
    # over worker accumulators, with traffic through the sparse wire codec.
    data_seed, _, rng_seed = derive_seeds(seed)
    config = OptimizerConfig(
        mode="empirical", algorithm="local-topk", k=1000, t_rounds=60, w_workers=4, lr=0.003
    )
    return Workload(
        problem=_quadratic(100_000, data_seed),
        config=config,
        sketch_config=None,
        batch_size=16,
        data_seed=data_seed,
        rng_seed=rng_seed,
    )


WORKLOADS = {
    "blobs-sketched-784": blobs_sketched_784,
    "quad-sketched-1m": quad_sketched_1m,
    "quad-localtopk-100k": quad_localtopk_100k,
}
