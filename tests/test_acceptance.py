"""Acceptance checks for the sketched distributed SGD stack.

Each test covers one end-to-end guarantee and prints a single PASS/FAIL
line with the measured numbers (visible under ``pytest -s``; pytest -v
additionally reports one PASSED/FAILED line per criterion).  Tolerances
and budgets are pinned in the assertions, not in helper defaults, so a
regression cannot hide behind a config change.
"""

import os
import time

import numpy as np

import gradsketch.optim as optim
from gradsketch.cli import main
from gradsketch.cluster import MeteredChannel, run_training
from gradsketch.optim import (
    OptimizerConfig,
    local_topk_step,
    lr_theory,
    make_states,
    theory_round,
    vanilla_step,
)
from gradsketch.problems import (
    HingeSVMProblem,
    LogisticProblem,
    QuadraticProblem,
    split_dataset,
    synth_data,
)
from gradsketch.sketch import SketchConfig, merge_all, size_for, sketch_vector
from oracles import (
    contraction_ratio,
    dense,
    gaussian_vector,
    paper_compression_factor,
    random_candidates,
    recorded_supports,
    zipf_vector,
)


def _stiff_quadratic_finals(seed: int, monkeypatch) -> tuple[float, float, float]:
    """Final suboptimality of true top-k, sketched, and sketched with random
    candidates, on AC11's quadratic: d = 10^4, 20 random coordinates at
    curvature 100 and the rest at 1, empirical mode, k = 10, P = 10, W = 4.

    The start is drawn from a seed other than the problem's: a
    QuadraticProblem's ``b`` and ``initial_point`` draw the same normal
    vector from equal seeds, which would start every unit-curvature
    coordinate at its optimum.
    """
    d = 10_000
    spectrum = np.ones(d)
    spectrum[np.random.default_rng(seed).choice(d, 20, replace=False)] = 100.0
    prob = QuadraticProblem(spectrum, noise_sigma=0.1, n_samples=256, seed=seed)
    skc = SketchConfig(d=d, r=20, c=60, seed=seed + 1)

    def final(algorithm, sketch):
        cfg = OptimizerConfig(mode="empirical", algorithm=algorithm, k=10, p=10, t_rounds=100, w_workers=4, lr=0.005)
        res = run_training(prob, cfg, sketch, batch_size=16, data_seed=seed + 100, rng_seed=seed + 200)
        return res.metrics.summary["final_test_metric"]

    topk, sketched = final("true-topk", None), final("sketched", skc)
    with monkeypatch.context() as patch:
        patch.setattr(optim, "top_pk_candidates", random_candidates(seed + 300))
        control = final("sketched", skc)
    return topk, sketched, control


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_ac01_merge_matches_sketch_of_sum(self):
        """Merging sketches of g1 and g2 equals sketching g1 + g2 cellwise."""
        start = time.time()
        d = 256
        worst = 0.0
        for s in range(500):
            rng = np.random.default_rng(s)
            g1 = rng.standard_normal(d)
            g2 = rng.standard_normal(d)
            cfg = SketchConfig(d=d, r=7, c=64, seed=s + 1)
            merged = merge_all([sketch_vector(cfg, g1), sketch_vector(cfg, g2)])
            direct = sketch_vector(cfg, g1 + g2)
            diff = np.abs(merged.table - direct.table)
            scale = np.maximum(np.abs(merged.table), np.abs(direct.table))
            if np.any(diff > 1e-10 * scale):
                _report("AC1 mergeability", False, f"cell mismatch at triple seed {s}")
            nonzero = diff > 0
            if np.any(nonzero):
                worst = max(worst, float((diff[nonzero] / scale[nonzero]).max()))
        elapsed = time.time() - start
        _report(
            "AC1 mergeability",
            elapsed < 10.0,
            f"500 random triples, worst relative cell error {worst:.2e} "
            f"(tol 1e-10), {elapsed:.1f}s (budget 10s)",
        )

    def test_ac02_recovery_guarantees_at_sized_table(self):
        """size_for(16, 1024, 0.05) tables meet the point and norm guarantees."""
        start = time.time()
        k, d, delta = 16, 1024, 0.05
        r, c = size_for(k, d, delta)
        assert (r, c) == (15, 96), f"size_for gave ({r}, {c})"
        point_viol = 0
        point_total = 0
        l2_ok = 0
        l2_total = 0
        for base, make in ((10_000, gaussian_vector), (20_000, zipf_vector)):
            for s in range(500):
                rng = np.random.default_rng(base + s)
                g = make(rng, d)
                sk = sketch_vector(SketchConfig(d=d, r=r, c=c, seed=s * 7 + 1), g)
                est = sk.estimate_all()
                norm2 = float(g @ g)
                point_viol += int(np.sum(np.abs(est**2 - g**2) > norm2 / 32))
                point_total += d
                l2_ok += int(0.5 * norm2 <= sk.l2_squared_estimate() <= 1.5 * norm2)
                l2_total += 1
        point_freq = point_viol / point_total
        l2_freq = l2_ok / l2_total
        elapsed = time.time() - start
        _report(
            "AC2 recovery",
            point_freq <= 0.05 and l2_freq >= 0.95 and elapsed < 60.0,
            f"point violation freq {point_freq:.4f} (<= 0.05), norm in-band freq "
            f"{l2_freq:.4f} (>= 0.95), 1000 seeds, {elapsed:.1f}s (budget 60s)",
        )

    def test_ac03_error_feedback_contraction(self):
        """Monte-Carlo contraction ratio stays within (1 - k/d) + 0.02."""
        start = time.time()
        results = []
        ok = True
        for d, k in ((256, 16), (256, 128), (1024, 64)):
            ratio = contraction_ratio(d, k, gaussian_vector, 1000, rng_seed=d * 1000 + k)
            bound = (1 - k / d) + 0.02
            ok = ok and ratio <= bound
            results.append(f"(d={d},k={k}) ratio {ratio:.4f} <= {bound:.4f}")
        elapsed = time.time() - start
        _report(
            "AC3 contraction",
            ok and elapsed < 120.0,
            "; ".join(results) + f", 1000 trials each, {elapsed:.1f}s (budget 120s)",
        )

    def test_ac04_worker_split_invariance(self):
        """Splitting a fixed batch sequence across 1, 2, or 4 workers changes nothing."""
        prob = QuadraticProblem(
            np.linspace(1.0, 4.0, 64), noise_sigma=0.1, n_samples=256, seed=17
        )
        skc = SketchConfig(d=64, r=9, c=48, seed=23)
        finals = []
        supports = []
        for workers in (1, 2, 4):
            cfg = OptimizerConfig(
                mode="theory", algorithm="sketched", k=8, t_rounds=40,
                w_workers=workers, xi=40.0,
            )
            with recorded_supports("theory_round") as recorded:
                res = run_training(prob, cfg, skc, batch_size=32, data_seed=31, rng_seed=37)
            finals.append(res.final_w)
            supports.append([tuple(s) for s in recorded])
        same_supports = len(supports[0]) == 40 and supports[0] == supports[1] == supports[2]
        gap = max(
            float(np.max(np.abs(finals[0] - finals[1]))),
            float(np.max(np.abs(finals[0] - finals[2]))),
        )
        _report(
            "AC4 worker-split invariance",
            same_supports and gap <= 1e-9,
            f"supports identical across W=1,2,4: {same_supports}, "
            f"worst final sup-norm gap {gap:.2e} (tol 1e-9)",
        )

    def test_ac05_no_compression_recovers_vanilla(self):
        """k = d sketched updates track plain SGD within 1e-9 per coordinate."""
        d = 32
        prob = QuadraticProblem(
            np.linspace(0.5, 2.0, d), noise_sigma=0.05, n_samples=128, seed=5
        )
        skc = SketchConfig(d=d, r=9, c=48, seed=11)
        cfg = OptimizerConfig(
            mode="theory", algorithm="sketched", k=d, t_rounds=200,
            w_workers=2, xi=8.0,
        )
        w0 = prob.initial_point(3)
        sketched = make_states(w0, 2)
        vanilla = make_states(w0, 2)
        # the two trajectories must be stepped in separate arrays
        assert not any(np.shares_memory(a.w, b.w) for a in sketched for b in vanilla)
        order = np.random.default_rng(77)
        fills = np.random.SeedSequence(99).generate_state(200, dtype=np.uint64)
        worst = 0.0
        for t in range(1, 201):
            batch = order.choice(prob.n_train, 16, replace=False)
            halves = np.array_split(batch, 2)
            gs = [prob.gradient(sketched[i].w, halves[i]) for i in range(2)]
            gv = [prob.gradient(vanilla[i].w, halves[i]) for i in range(2)]
            theory_round(sketched, gs, lr_theory(t, cfg.xi), cfg, skc, int(fills[t - 1]), MeteredChannel())
            vanilla_step(vanilla, gv, lr_theory(t, cfg.xi), cfg, None, 0, MeteredChannel())
            worst = max(worst, float(np.max(np.abs(sketched[0].w - vanilla[0].w))))
        _report(
            "AC5 no-compression equivalence",
            worst <= 1e-9,
            f"worst per-round coordinate gap over 200 rounds {worst:.2e} (tol 1e-9)",
        )

    def test_ac06_convergence_parity_on_blobs(self):
        """Sketched training matches the dense and oracle baselines on blobs."""
        start = time.time()

        def final_error(seed, algo, kind):
            data = synth_data(5000, 784, class_separation=4.0, seed=seed)
            train, test = split_dataset(data, 4000)
            if kind == "logistic":
                prob = LogisticProblem(train, test, 0.01)
            else:
                prob = HingeSVMProblem(train, test, 0.01)
            skc = (
                SketchConfig(d=784, r=7, c=40, seed=seed + 2)
                if algo == "sketched" else None
            )
            cfg = OptimizerConfig(
                mode="empirical", algorithm=algo, k=10, p=10, t_rounds=400,
                w_workers=4, momentum=0.0, lr=0.5,
                lr_points=((1, 0.5), (300, 0.5), (400, 0.1)),
            )
            res = run_training(
                prob, cfg, skc, batch_size=64, data_seed=seed + 3, rng_seed=seed + 4
            )
            summary = res.metrics.summary
            if algo == "sketched":
                assert abs(summary["compression_factor"] - 2 * 784 / 390) < 1e-9
            return summary["final_test_metric"]

        seeds = [100, 110, 120, 130, 140]
        details = []
        ok = True
        for kind in ("logistic", "hinge"):
            means = {
                algo: float(np.mean([final_error(s, algo, kind) for s in seeds]))
                for algo in ("vanilla", "true-topk", "sketched")
            }
            gap_vanilla = means["sketched"] - means["vanilla"]
            gap_topk = means["sketched"] - means["true-topk"]
            ok = ok and gap_vanilla <= 0.02 and gap_topk <= 0.01
            details.append(
                f"{kind}: sketched {means['sketched']:.4f}, vanilla {gap_vanilla:+.4f} "
                f"(tol 0.02), true-topk {gap_topk:+.4f} (tol 0.01)"
            )
        elapsed = time.time() - start
        _report(
            "AC6 convergence parity",
            ok and elapsed < 600.0,
            "; ".join(details)
            + f"; compression factor 4.0205 on all sketched runs, "
            f"{elapsed:.0f}s (budget 600s)",
        )

    def test_ac07_communication_accounting(self):
        """Upload cost is worker-count independent and the factor formula checks out."""
        prob = QuadraticProblem(
            np.linspace(1.0, 3.0, 128), noise_sigma=0.1, n_samples=512, seed=3
        )
        skc = SketchConfig(d=128, r=7, c=48, seed=9)
        per_worker = set()
        for workers in (1, 2, 4, 8, 16):
            cfg = OptimizerConfig(
                mode="empirical", algorithm="sketched", k=8, p=2, t_rounds=5,
                w_workers=workers, lr=0.05,
            )
            res = run_training(prob, cfg, skc, batch_size=32, data_seed=41, rng_seed=43)
            for rec in res.metrics.records[1:]:
                per_worker.add((rec.bytes_up, rec.up_sketch_elems, rec.up_exact_elems))
        uploads_equal = len(per_worker) == 1

        d = 90_000_000
        cfg = OptimizerConfig(
            mode="empirical", algorithm="sketched", k=100_000, p=16, t_rounds=1,
            w_workers=16, lr=0.1,
        )
        big = SketchConfig(d=d, r=15, c=180_000, seed=1)
        factor = paper_compression_factor(cfg, big, d)
        expected = 2 * d / (15 * 180_000 + 16 * 100_000 + 100_000)
        formula_ok = abs(factor - expected) < 1e-9 and 40.0 <= factor <= 42.0
        _report(
            "AC7 communication accounting",
            uploads_equal and formula_ok,
            f"per-worker upload (bytes, sketch elems, exact elems) identical across "
            f"W=1..16: {sorted(per_worker)}, material-scale factor {factor:.3f} "
            f"(formula {expected:.3f}, band [40, 42])",
        )

    def test_ac08_local_topk_union_growth(self):
        """Union support grows with W and hits half the coordinates for sharded data."""
        start = time.time()
        d, k = 1024, 32
        w_grid = (1, 2, 4, 8, 16)

        def union_sizes(seed, heterogeneous):
            rng = np.random.default_rng(seed)
            sizes = {}
            for w in w_grid:
                states = make_states(np.zeros(d), w)
                grads = []
                for i in range(w):
                    g = rng.standard_normal(d)
                    if heterogeneous:
                        g[i * (d // 16):(i + 1) * (d // 16)] *= 10.0
                    grads.append(g)
                cfg = OptimizerConfig(mode="empirical", algorithm="local-topk", k=k, w_workers=w)
                sizes[w] = len(local_topk_step(states, grads, 0.1, cfg, None, 0, MeteredChannel()))
            return sizes

        details = []
        ok = True
        for label, heterogeneous in (("iid", False), ("sharded", True)):
            samples = {w: [] for w in w_grid}
            for s in range(50):
                sizes = union_sizes(1000 + s, heterogeneous)
                for w in w_grid:
                    samples[w].append(sizes[w])
            means = [float(np.mean(samples[w])) for w in w_grid]
            nondecreasing = all(a <= b for a, b in zip(means, means[1:]))
            bounded = all(max(samples[w]) <= min(k * w, d) for w in w_grid)
            ok = ok and nondecreasing and bounded
            if heterogeneous:
                ok = ok and means[-1] >= 0.5 * d
            details.append(f"{label} means {[round(m, 1) for m in means]}")
        elapsed = time.time() - start
        _report(
            "AC8 union scaling",
            ok and elapsed < 120.0,
            "; ".join(details)
            + f"; nondecreasing and <= min(kW, d) in both models, sharded mean at "
            f"W=16 >= {d // 2}, 50 seeds, {elapsed:.1f}s (budget 120s)",
        )

    def test_ac09_error_accumulator_conservation(self):
        """Accumulator plus applied updates equals scaled gradient mass every round."""
        d, k = 64, 8
        skc = SketchConfig(d=d, r=9, c=48, seed=13)
        cfg = OptimizerConfig(
            mode="theory", algorithm="sketched", k=k, t_rounds=500,
            w_workers=1, xi=40.0,
        )
        states = make_states(np.zeros(d), 1)
        rng = np.random.default_rng(21)
        fills = np.random.SeedSequence(55).generate_state(500, dtype=np.uint64)
        applied = np.zeros(d)
        scaled = np.zeros(d)
        worst = 0.0
        for t in range(1, 501):
            g = rng.standard_normal(d)
            update = theory_round(states, [g], lr_theory(t, cfg.xi), cfg, skc, int(fills[t - 1]), MeteredChannel())
            applied += dense(update)
            scaled += lr_theory(t, cfg.xi) * g
            worst = max(
                worst, float(np.max(np.abs(states[0].accum + applied - scaled)))
            )
        _report(
            "AC9 conservation",
            worst <= 1e-9,
            f"worst sup-norm of (accumulator + applied - scaled gradients) over "
            f"500 rounds {worst:.2e} (tol 1e-9)",
        )

    def test_ac10_run_determinism(self, tmp_path):
        """Two CLI runs of one config produce byte-identical metrics files."""
        config = tmp_path / "run.ini"
        config.write_text(
            "[problem]\n"
            "kind = logistic\n"
            "synth_n = 512\n"
            "synth_d = 64\n"
            "synth_separation = 2.0\n"
            "synth_test_n = 128\n"
            "lambda = 0.01\n"
            "batch_size = 32\n"
            "[optimizer]\n"
            "mode = empirical\n"
            "algorithm = sketched\n"
            "k = 8\n"
            "p = 2\n"
            "t = 20\n"
            "w = 4\n"
            "lr = 0.2\n"
            "[sketch]\n"
            "rows = 7\n"
            "cols = 32\n"
            "[seeds]\n"
            "data = 5\n"
            "sketch = 6\n"
            "rng = 7\n"
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        code_a = main(["run", str(config), "--out", str(out_a)])
        code_b = main(["run", str(config), "--out", str(out_b)])
        same = out_a.read_bytes() == out_b.read_bytes()
        _report(
            "AC10 determinism",
            code_a == 0 and code_b == 0 and same,
            f"exit codes ({code_a}, {code_b}), byte-identical metrics: {same} "
            f"({os.path.getsize(out_a)} bytes)",
        )

    def test_ac11_the_sketch_decides(self, monkeypatch):
        """On a stiff quadratic, sketched tracks true top-k and random candidates do not."""
        start = time.time()
        assert size_for(10, 10_000, 0.01) == (20, 60)
        finals = [_stiff_quadratic_finals(seed, monkeypatch) for seed in range(5)]
        near_topk = max(sketched / topk for topk, sketched, _ in finals)
        control_gap = min(control / sketched for _, sketched, control in finals)
        elapsed = time.time() - start
        _report(
            "AC11 the sketch decides",
            near_topk <= 1.5 and control_gap >= 20.0 and elapsed < 60.0,
            f"worst sketched / true-topk suboptimality {near_topk:.3f} (<= 1.5), "
            f"smallest random-candidate / sketched {control_gap:.3g} (>= 20), "
            f"seeds 0-4, {elapsed:.1f}s (budget 60s)",
        )
