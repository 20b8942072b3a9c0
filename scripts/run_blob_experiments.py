"""Convergence-parity matrix on synthetic Gaussian blob classification.

Trains vanilla SGD, exact top-k, and the sketched pipeline on logistic
and hinge losses over a shared seed list, then prints mean final test
error and compression factor per cell.  With --out-dir every run's
per-round metrics file is kept for later plotting via `gradsketch report`.
--momentum applies to the error-feedback algorithms; vanilla runs without
momentum, which it does not read.
"""

import argparse
import os
import sys
import time

import numpy as np

from gradsketch.cluster import run_training
from gradsketch.metrics import write_metrics_csv
from gradsketch.optim import OptimizerConfig
from gradsketch.problems import (
    HingeSVMProblem,
    LogisticProblem,
    split_dataset,
    synth_data,
)
from gradsketch.sketch import SketchConfig

ALGORITHMS = ("vanilla", "true-topk", "local-topk", "sketched")


def run_cell(kind, algo, seed, args):
    data = synth_data(
        args.n_train + args.n_test, args.d, class_separation=args.separation, seed=seed
    )
    train, test = split_dataset(data, args.n_train)
    if kind == "logistic":
        problem = LogisticProblem(train, test, args.reg)
    else:
        problem = HingeSVMProblem(train, test, args.reg)
    sketch_config = (
        SketchConfig(d=args.d, r=args.rows, c=args.cols, seed=seed + 2)
        if algo == "sketched"
        else None
    )
    config = OptimizerConfig(
        mode="empirical",
        algorithm=algo,
        k=args.k,
        p=args.p,
        t_rounds=args.rounds,
        w_workers=args.workers,
        momentum=0.0 if algo == "vanilla" else args.momentum,
        lr=args.lr,
        lr_points=((1, args.lr), (3 * args.rounds // 4, args.lr), (args.rounds, args.lr / 5)),
    )
    result = run_training(
        problem,
        config,
        sketch_config,
        batch_size=args.batch_size,
        data_seed=seed + 3,
        rng_seed=seed + 4,
    )
    if args.out_dir:
        path = os.path.join(args.out_dir, f"{kind}_{algo}_seed{seed}.csv")
        write_metrics_csv(path, result.metrics)
    summary = result.metrics.summary
    return summary["final_test_metric"], summary["compression_factor"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5, help="number of seeds per cell")
    parser.add_argument("--seed0", type=int, default=100, help="first seed, step 10")
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--n-train", type=int, default=4000)
    parser.add_argument("--n-test", type=int, default=1000)
    parser.add_argument("--d", type=int, default=784)
    parser.add_argument("--separation", type=float, default=4.0)
    parser.add_argument("--reg", type=float, default=0.01)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--p", type=int, default=10)
    parser.add_argument("--rows", type=int, default=7)
    parser.add_argument("--cols", type=int, default=40)
    parser.add_argument("--lr", type=float, default=0.5)
    parser.add_argument("--momentum", type=float, default=0.0)
    parser.add_argument("--out-dir", help="keep per-run metrics files here")
    args = parser.parse_args(argv)

    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
    seeds = [args.seed0 + 10 * i for i in range(args.seeds)]
    start = time.time()
    print(f"{'problem':<10}{'algorithm':<12}{'test error':<22}{'compression':<12}")
    baselines = {}
    for kind in ("logistic", "hinge"):
        for algo in ALGORITHMS:
            errs, factors = zip(*(run_cell(kind, algo, s, args) for s in seeds))
            mean_err = float(np.mean(errs))
            baselines[(kind, algo)] = mean_err
            print(
                f"{kind:<10}{algo:<12}"
                f"{mean_err:.4f} +- {float(np.std(errs)):.4f}      "
                f"{float(np.mean(factors)):.2f}x"
            )
        gap_v = baselines[(kind, "sketched")] - baselines[(kind, "vanilla")]
        gap_t = baselines[(kind, "sketched")] - baselines[(kind, "true-topk")]
        print(
            f"{'':<10}sketched gap: {gap_v:+.4f} vs vanilla, {gap_t:+.4f} vs true-topk"
        )
    print(f"done in {time.time() - start:.0f}s over {len(seeds)} seeds per cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
