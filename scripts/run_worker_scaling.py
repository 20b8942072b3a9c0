"""How communication scales with the worker count W.

Two measurements over a shared W grid:

1. Per-worker upload cost of the sketched pipeline (bytes and element
   counts per round).  These are constants of the configuration, so the
   table should read identically down the column.
2. Update-support union of local top-k under two gradient models: iid
   Gaussian workers, and sharded workers whose heavy coordinates live in
   disjoint blocks.  The union, and with it the downlink cost, grows
   with W; the sharded model is the worst case where the union reaches
   min(kW, d) exactly.
"""

import argparse
import sys

import numpy as np

from gradsketch.cluster import MeteredChannel, run_training
from gradsketch.optim import OptimizerConfig, local_topk_step, make_states
from gradsketch.problems import QuadraticProblem
from gradsketch.sketch import SketchConfig


def upload_table(w_grid, args):
    problem = QuadraticProblem(
        np.linspace(1.0, 3.0, args.d), noise_sigma=0.1, n_samples=512, seed=3
    )
    sketch_config = SketchConfig(d=args.d, r=args.rows, c=args.cols, seed=9)
    print(f"{'W':<4}{'up bytes/worker':<17}{'sketch elems':<14}{'exact elems':<13}{'factor':<8}")
    for w in w_grid:
        config = OptimizerConfig(
            mode="empirical",
            algorithm="sketched",
            k=args.k,
            p=args.p,
            t_rounds=args.rounds,
            w_workers=w,
            lr=0.05,
        )
        result = run_training(
            problem, config, sketch_config, batch_size=max(w, 32), data_seed=41, rng_seed=43
        )
        rec = result.metrics.records[-1]
        factor = result.metrics.summary["compression_factor"]
        print(
            f"{w:<4}{rec.bytes_up:<17}{rec.up_sketch_elems:<14}"
            f"{rec.up_exact_elems:<13}{factor:<8.2f}"
        )


def union_table(w_grid, args):
    print(f"{'W':<4}{'iid union':<12}{'sharded union':<15}{'min(kW, d)':<12}")
    blocks = max(w_grid)
    for w in w_grid:
        config = OptimizerConfig(mode="empirical", algorithm="local-topk", k=args.union_k, w_workers=w)
        means = {}
        for label, heterogeneous in (("iid", False), ("sharded", True)):
            sizes = []
            for s in range(args.seeds):
                rng = np.random.default_rng(1000 + s)
                states = make_states(np.zeros(args.union_d), w)
                grads = []
                for i in range(w):
                    g = rng.standard_normal(args.union_d)
                    if heterogeneous:
                        width = args.union_d // blocks
                        g[i * width:(i + 1) * width] *= 10.0
                    grads.append(g)
                sizes.append(len(local_topk_step(states, grads, 0.1, config, None, 0, MeteredChannel())))
            means[label] = float(np.mean(sizes))
        cap = min(args.union_k * w, args.union_d)
        print(f"{w:<4}{means['iid']:<12.1f}{means['sharded']:<15.1f}{cap:<12}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4, 8, 16], help="W grid"
    )
    parser.add_argument("--d", type=int, default=1024, help="upload-table dimension")
    parser.add_argument("--k", type=int, default=8)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--rows", type=int, default=7)
    parser.add_argument("--cols", type=int, default=48)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--union-d", type=int, default=1024, help="union-table dimension")
    parser.add_argument("--union-k", type=int, default=32)
    parser.add_argument("--seeds", type=int, default=50, help="seeds per union cell")
    args = parser.parse_args(argv)

    w_grid = sorted(set(args.workers))
    print("sketched upload cost per worker (constants of the configuration)")
    upload_table(w_grid, args)
    print()
    print(f"local top-k union over {args.seeds} seeds, d={args.union_d}, k={args.union_k}")
    union_table(w_grid, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
