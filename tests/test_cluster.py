"""Parameter-server simulation: channel metering, accounting, training runs."""

import hashlib

import numpy as np
import pytest

from gradsketch.cluster import (
    MeteredChannel,
    RoundStats,
    TrainingDivergedError,
    account_round,
    config_compression_factor,
    exact_lookup_round,
    partition_batch,
    run_training,
)
from gradsketch.heavyhitters import KSparseVector
from gradsketch.metrics import write_metrics_csv
from gradsketch.optim import OptimizerConfig
from gradsketch.problems import QuadraticProblem, split_dataset, synth_data, LogisticProblem
from gradsketch.sketch import SketchConfig, sketch_vector


def quadratic(d=32, noise=0.05, n=128, seed=5):
    return QuadraticProblem(spectrum=np.linspace(1.0, 3.0, d), noise_sigma=noise, n_samples=n, seed=seed)


class TestMeteredChannel:
    def test_up_values_round_trip_and_bytes(self):
        ch = MeteredChannel()
        vals = np.array([1.0, -2.5, 3.0])
        out = ch.up_values(vals, worker=0)
        assert np.array_equal(out, vals)
        # frame (5) + count (4) + 3 float64
        assert ch.up_bytes[0] == 5 + 4 + 24
        assert ch.up_exact_elems[0] == 3

    def test_up_sketch_round_trip_and_bytes(self):
        cfg = SketchConfig(d=50, r=3, c=16, seed=9)
        sk = sketch_vector(cfg, np.arange(50.0))
        ch = MeteredChannel()
        out = ch.up_sketch(sk, worker=2)
        assert out.config == cfg
        assert np.array_equal(out.table, sk.table)
        assert ch.up_sketch_elems[2] == 48
        # frame (5) + sketch header (30) + 48 cells
        assert ch.up_bytes[2] == 5 + 30 + 48 * 8

    def test_request_is_tallied_once_and_separately(self):
        ch = MeteredChannel()
        idx = np.array([1, 2, 300])
        out = ch.request_indices(idx, n_workers=8)
        assert np.array_equal(out, idx)
        assert ch.request_elems == 3
        assert ch.request_bytes > 0
        assert ch.up_bytes == {} and ch.down_bytes == 0

    def test_down_update_round_trip(self):
        ch = MeteredChannel()
        vec = KSparseVector(d=20, indices=np.array([3, 11]), values=np.array([0.5, -1.0]))
        out = ch.down_update(vec, n_workers=4)
        assert np.array_equal(out.indices, vec.indices)
        assert np.array_equal(out.values, vec.values)
        assert ch.down_elems == 2
        assert ch.down_bytes == 5 + 4 + 2 * 16

    def test_up_sparse_counts_as_exact_elements(self):
        ch = MeteredChannel()
        vec = KSparseVector(d=20, indices=np.array([3]), values=np.array([1.0]))
        ch.up_sparse(vec, worker=1)
        assert ch.up_exact_elems[1] == 1
        assert ch.up_bytes[1] == 5 + 4 + 16

    def test_start_round_clears_tallies(self):
        ch = MeteredChannel()
        ch.up_values(np.ones(4), worker=0)
        ch.start_round()
        assert ch.up_bytes == {} and ch.up_exact_elems == {}


class TestAccounting:
    def _fill(self, ch, workers, d=64):
        cfg = SketchConfig(d=d, r=3, c=8, seed=1)
        for w in range(workers):
            ch.up_sketch(sketch_vector(cfg, np.ones(d)), worker=w)
            ch.up_values(np.ones(5), worker=w)
        ch.request_indices(np.arange(5), workers)
        ch.down_update(KSparseVector(d=d, indices=np.arange(4), values=np.ones(4)), workers)
        return cfg

    def test_round_stats_from_tallies(self):
        ch = MeteredChannel()
        cfg = self._fill(ch, workers=3)
        stats = account_round(cfg, p=2, k=4, d=64, w_workers=3, channel=ch)
        assert stats.up_sketch_elems == 24
        assert stats.up_exact_elems == 5
        assert stats.down_update_elems == 4
        assert stats.compression_factor == pytest.approx(128.0 / 33.0)
        assert stats.bytes_request > 0
        assert stats.byte_compression_factor == pytest.approx(16.0 * 64 / (stats.bytes_up + stats.bytes_down))

    def test_asymmetric_uploads_rejected(self):
        ch = MeteredChannel()
        ch.up_values(np.ones(5), worker=0)  # worker 1 sent nothing
        with pytest.raises(RuntimeError, match="asymmetric"):
            account_round(None, p=1, k=1, d=8, w_workers=2, channel=ch)

    def test_sketch_size_mismatch_rejected(self):
        ch = MeteredChannel()
        cfg = self._fill(ch, workers=1)
        wrong = SketchConfig(d=64, r=5, c=8, seed=1)
        with pytest.raises(RuntimeError, match="does not match"):
            account_round(wrong, p=2, k=4, d=64, w_workers=1, channel=ch)

    def test_config_formula_values(self):
        # the appendix-style analog: table 280, P*k 100, k 10 at d=784
        emp = OptimizerConfig(mode="empirical", algorithm="sketched", k=10, p=10)
        skc = SketchConfig(d=784, r=7, c=40, seed=0)
        assert config_compression_factor(emp, skc, 784) == pytest.approx(2 * 784 / 390.0)
        # theory mode requests exactly k exact values, not P*k
        theo = OptimizerConfig(mode="theory", algorithm="sketched", k=10, p=10, xi=500.0)
        assert config_compression_factor(theo, skc, 784) == pytest.approx(2 * 784 / 300.0)
        assert config_compression_factor(
            OptimizerConfig(mode="empirical", algorithm="vanilla"), None, 784
        ) == 1.0
        assert config_compression_factor(
            OptimizerConfig(mode="empirical", algorithm="true-topk", k=16), None, 784
        ) == pytest.approx(2 * 784 / 800.0)
        assert config_compression_factor(
            OptimizerConfig(mode="empirical", algorithm="local-topk", k=16), None, 784, mean_union=48.0
        ) == pytest.approx(2 * 784 / 64.0)

    def test_no_compression_boundary(self):
        # table + k + k = 2d makes the factor exactly 1
        cfg = OptimizerConfig(mode="theory", algorithm="sketched", k=5, xi=500.0)
        skc = SketchConfig(d=32, r=2, c=27, seed=0)
        assert config_compression_factor(cfg, skc, 32) == pytest.approx(1.0)


class TestPartition:
    def test_even_and_uneven(self):
        a, b = partition_batch(np.arange(8), 2)
        assert list(a) == [0, 1, 2, 3] and list(b) == [4, 5, 6, 7]
        a, b = partition_batch(np.arange(7), 2)
        assert len(a) == 4 and len(b) == 3

    def test_identity_for_one_worker(self):
        (only,) = partition_batch(np.arange(5), 1)
        assert list(only) == [0, 1, 2, 3, 4]

    def test_sizes_differ_by_at_most_one(self):
        for n in range(1, 20):
            for w in range(1, 6):
                sizes = [len(s) for s in partition_batch(np.arange(n), w)]
                assert len(sizes) == w
                assert max(sizes) - min(sizes) <= 1
                assert sum(sizes) == n

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            partition_batch(np.arange(4), 0)


class TestExactLookupRound:
    def test_single_worker_identity(self):
        vec = np.arange(10.0)
        out = exact_lookup_round([vec], np.array([0, 3, 9]))
        assert np.array_equal(out, [0.0, 3.0, 9.0])

    def test_cancellation(self):
        v = np.arange(6.0)
        out = exact_lookup_round([v, -v], np.array([1, 4]))
        assert np.array_equal(out, [0.0, 0.0])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            exact_lookup_round([np.arange(4.0)], np.array([4]))
        with pytest.raises(IndexError):
            exact_lookup_round([np.arange(4.0)], np.array([-1]))

    def test_meters_request_and_replies(self):
        ch = MeteredChannel()
        exact_lookup_round([np.arange(8.0), np.arange(8.0)], np.array([2, 5]), channel=ch)
        assert ch.request_elems == 2
        assert ch.up_exact_elems == {0: 2, 1: 2}


class TestRunTraining:
    def test_zero_rounds_records_initial_state_only(self):
        prob = quadratic()
        cfg = OptimizerConfig(mode="theory", algorithm="sketched", k=4, t_rounds=0, xi=40.0)
        res = run_training(prob, cfg, SketchConfig(d=32, r=7, c=32, seed=2), batch_size=16, data_seed=3, rng_seed=4)
        assert len(res.metrics.records) == 1
        assert res.metrics.records[0].t == 0
        assert res.metrics.summary["bytes_up_total"] == 0
        assert res.averaged_w is None
        assert np.array_equal(res.final_w, prob.initial_point(3))

    def test_records_have_one_row_per_round(self):
        prob = quadratic()
        cfg = OptimizerConfig(mode="empirical", algorithm="sketched", k=4, p=2, t_rounds=7, w_workers=2, lr=0.05)
        res = run_training(prob, cfg, SketchConfig(d=32, r=7, c=32, seed=2), batch_size=16, data_seed=3, rng_seed=4)
        assert [rec.t for rec in res.metrics.records] == list(range(8))
        for rec in res.metrics.records[1:]:
            assert rec.support_size == 4
            assert rec.up_sketch_elems == 7 * 32
            assert rec.up_exact_elems == 8
            assert rec.down_update_elems == 4
            assert rec.support_hash != "-"
        assert len(res.update_supports) == 7

    def test_vanilla_noise_free_descent_is_monotone(self):
        prob = quadratic(noise=0.0)
        cfg = OptimizerConfig(
            mode="empirical", algorithm="vanilla", t_rounds=30, w_workers=2, lr=0.5 / prob.smoothness
        )
        res = run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1)
        losses = res.metrics.column("train_loss")
        assert np.all(np.diff(losses) < 0)

    def test_identical_runs_are_byte_identical(self, tmp_path):
        prob = quadratic()
        cfg = OptimizerConfig(mode="theory", algorithm="sketched", k=4, t_rounds=10, w_workers=2, xi=40.0)
        skc = SketchConfig(d=32, r=7, c=32, seed=2)
        paths = []
        for name in ("a.csv", "b.csv"):
            res = run_training(prob, cfg, skc, batch_size=16, data_seed=3, rng_seed=4)
            path = str(tmp_path / name)
            write_metrics_csv(path, res.metrics)
            paths.append(path)
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()

    def test_worker_split_leaves_trajectory_unchanged(self):
        # same data sequence, W=1 vs W=2: merged sketches and exact lookups
        # agree up to float reassociation, so supports must match and the
        # final parameters can drift only at roundoff scale
        prob = quadratic()
        skc = SketchConfig(d=32, r=9, c=48, seed=6)
        results = []
        for workers in (1, 2):
            cfg = OptimizerConfig(mode="theory", algorithm="sketched", k=4, t_rounds=15, w_workers=workers, xi=40.0)
            results.append(run_training(prob, cfg, skc, batch_size=16, data_seed=9, rng_seed=13))
        solo, duo = results
        for s_a, s_b in zip(solo.update_supports, duo.update_supports):
            assert np.array_equal(s_a, s_b)
        assert np.max(np.abs(solo.final_w - duo.final_w)) <= 1e-9
        hashes = [rec.support_hash for rec in solo.metrics.records[1:]]
        assert hashes == [rec.support_hash for rec in duo.metrics.records[1:]]

    def test_divergence_raises_with_round_number(self):
        prob = quadratic(noise=0.0)
        cfg = OptimizerConfig(mode="empirical", algorithm="vanilla", t_rounds=500, lr=1000.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingDivergedError, match="round"):
            run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1)

    def test_configuration_errors(self):
        prob = quadratic()
        sketched = OptimizerConfig(mode="empirical", algorithm="sketched", k=4)
        with pytest.raises(ValueError, match="sketch"):
            run_training(prob, sketched, None, batch_size=16, data_seed=1, rng_seed=1)
        with pytest.raises(ValueError, match="dimension"):
            run_training(prob, sketched, SketchConfig(d=16, r=5, c=16, seed=1), batch_size=16, data_seed=1, rng_seed=1)
        vanilla = OptimizerConfig(mode="empirical", algorithm="vanilla", w_workers=8)
        with pytest.raises(ValueError, match="batch"):
            run_training(prob, vanilla, None, batch_size=4, data_seed=1, rng_seed=1)
        with pytest.raises(ValueError, match="batch"):
            run_training(prob, vanilla, None, batch_size=1000, data_seed=1, rng_seed=1)

    def test_local_topk_reports_union_sizes(self):
        prob = quadratic(d=64, noise=1.0)
        cfg = OptimizerConfig(mode="empirical", algorithm="local-topk", k=4, t_rounds=8, w_workers=4, lr=0.02)
        res = run_training(prob, cfg, None, batch_size=32, data_seed=2, rng_seed=3)
        for rec in res.metrics.records[1:]:
            assert 4 <= rec.union_size <= 16
            assert rec.union_size == rec.support_size == rec.down_update_elems
            assert rec.up_exact_elems == 4
        assert res.metrics.summary["mean_union_size"] == pytest.approx(
            np.mean([rec.union_size for rec in res.metrics.records[1:]])
        )

    def test_per_worker_up_bytes_constant_in_w(self):
        prob = quadratic(d=64, n=256)
        skc = SketchConfig(d=64, r=7, c=24, seed=4)
        seen = set()
        for workers in (1, 2, 4):
            cfg = OptimizerConfig(
                mode="empirical", algorithm="sketched", k=4, p=2, t_rounds=5, w_workers=workers, lr=0.05
            )
            res = run_training(prob, cfg, skc, batch_size=32, data_seed=5, rng_seed=6)
            seen.update((rec.bytes_up, rec.up_sketch_elems, rec.up_exact_elems) for rec in res.metrics.records[1:])
        assert len(seen) == 1

    def test_logistic_problem_trains(self):
        data = synth_data(n=300, d=10, class_separation=4.0, seed=12)
        train, test = split_dataset(data, 200)
        prob = LogisticProblem(train, test, lam=0.01)
        cfg = OptimizerConfig(mode="empirical", algorithm="sketched", k=3, p=3, t_rounds=40, w_workers=2, momentum=0.9, lr=0.5)
        res = run_training(prob, cfg, SketchConfig(d=10, r=5, c=16, seed=3), batch_size=40, data_seed=8, rng_seed=9)
        assert res.metrics.records[-1].test_metric < res.metrics.records[0].test_metric
        assert res.metrics.summary["grad_sq_max"] > 0
        assert res.metrics.summary["grad_dispersion"] > 0

    def test_single_worker_has_zero_dispersion(self):
        prob = quadratic()
        cfg = OptimizerConfig(mode="empirical", algorithm="vanilla", t_rounds=5, lr=0.05)
        res = run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1)
        assert res.metrics.summary["grad_dispersion"] == 0.0


class TestGoldenDigests:
    # sha256 of the metrics CSV of short sketched runs at large d, where the
    # sketch kernels and the top-P*k selection dominate; recorded before
    # those kernels were rewritten, so any drift in their output shows here.
    GOLDEN = {
        "empirical": "f2b3899ec68e23a32bc586e1ea5e30e2a6f36fae66c691fb3a95696693027957",
        "theory": "def9d6414b4c182ec50e941fdfe893c13ab0af3b10f632d7f8ec29b0cd4b79fa",
    }

    @pytest.mark.parametrize("mode", sorted(GOLDEN))
    def test_large_d_sketched_run(self, mode, tmp_path):
        d = 200_000
        prob = QuadraticProblem(np.linspace(1.0, 3.0, d), 0.1, 16, seed=3)
        extra = dict(lr=3e-4) if mode == "empirical" else dict(xi=1e4)
        cfg = OptimizerConfig(mode=mode, algorithm="sketched", k=100, p=10, t_rounds=3, w_workers=4, **extra)
        res = run_training(prob, cfg, SketchConfig(d=d, r=5, c=10_000, seed=2), batch_size=16, data_seed=3, rng_seed=4)
        path = tmp_path / "metrics.csv"
        write_metrics_csv(str(path), res.metrics)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.GOLDEN[mode]
