"""Parameter-server simulation: channel metering, accounting, training runs."""

import hashlib
import importlib.util
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

import gradsketch.cluster as cluster
from gradsketch.cluster import (
    MeteredChannel,
    TrainingDivergedError,
    account_round,
    config_compression_factor,
    partition_batch,
    run_training,
)
from gradsketch.heavyhitters import KSparseVector, heavymix
from gradsketch.metrics import RoundRecord, write_metrics_csv
from gradsketch import wire
from gradsketch.optim import OptimizerConfig, exact_mean, make_states, theory_round
from gradsketch.problems import QuadraticProblem, split_dataset, synth_data, LogisticProblem
from gradsketch.sketch import SketchConfig, merge_all, sketch_vector


def quadratic(d=32, noise=0.05, n=128, seed=5):
    return QuadraticProblem(spectrum=np.linspace(1.0, 3.0, d), noise_sigma=noise, n_samples=n, seed=seed)


_SPARSE = KSparseVector(d=8, indices=np.array([2, 5]), values=np.array([1.0, -0.5]))

# one message of each kind the channel carries, keyed by channel method
_MESSAGES = {
    "up_sketch": lambda ch: ch.up_sketch(sketch_vector(SketchConfig(d=8, r=2, c=4, seed=1), np.ones(8)), 0),
    "request_indices": lambda ch: ch.request_indices(np.array([1, 3])),
    "up_values": lambda ch: ch.up_values(np.ones(2), 0),
    "up_sparse": lambda ch: ch.up_sparse(_SPARSE, 0),
    "down_update": lambda ch: ch.down_update(_SPARSE),
    "down_values": lambda ch: ch.down_values(np.ones(2)),
}


class TestMeteredChannel:
    def test_up_values_round_trip_and_bytes(self):
        ch = MeteredChannel()
        vals = np.array([1.0, -2.5, 3.0])
        out = ch.up_values(vals, worker=0)
        assert np.array_equal(out, vals)
        # frame (5) + count (4) + 3 float64
        assert ch.uplink[0]["bytes_up"] == 5 + 4 + 24
        assert ch.uplink[0]["up_exact_elems"] == 3

    def test_up_sketch_round_trip_and_bytes(self):
        cfg = SketchConfig(d=50, r=3, c=16, seed=9)
        sk = sketch_vector(cfg, np.arange(50.0))
        ch = MeteredChannel()
        out = ch.up_sketch(sk, worker=2)
        assert out.config == cfg
        assert np.array_equal(out.table, sk.table)
        assert ch.uplink[2]["up_sketch_elems"] == 48
        # frame (5) + sketch header (30) + 48 cells
        assert ch.uplink[2]["bytes_up"] == 5 + 30 + 48 * 8

    def test_request_is_tallied_once_and_separately(self):
        ch = MeteredChannel()
        idx = np.array([1, 2, 300])
        out = ch.request_indices(idx)
        assert np.array_equal(out, idx)
        assert len(out) == 3
        assert ch.downlink["bytes_request"] == 5 + len(wire.encode_indices(idx))
        assert ch.uplink == {} and ch.downlink["bytes_down"] == ch.downlink["down_update_elems"] == 0

    def test_down_update_round_trip(self):
        ch = MeteredChannel()
        vec = KSparseVector(d=20, indices=np.array([3, 11]), values=np.array([0.5, -1.0]))
        out = ch.down_update(vec)
        assert np.array_equal(out.indices, vec.indices)
        assert np.array_equal(out.values, vec.values)
        assert ch.downlink["down_update_elems"] == 2
        assert ch.downlink["bytes_down"] == 5 + 4 + 2 * 16

    def test_up_sparse_counts_as_exact_elements(self):
        ch = MeteredChannel()
        vec = KSparseVector(d=20, indices=np.array([3]), values=np.array([1.0]))
        ch.up_sparse(vec, worker=1)
        assert ch.uplink[1]["up_exact_elems"] == 1
        assert ch.uplink[1]["bytes_up"] == 5 + 4 + 16

    def test_start_round_clears_tallies(self):
        ch = MeteredChannel()
        ch.up_values(np.ones(4), worker=0)
        ch.request_indices(np.arange(4))
        ch.start_round()
        assert ch.uplink == {} and not any(ch.downlink.values())

    def test_each_message_travels_under_its_own_tag(self, monkeypatch):
        expected = {
            "up_sketch": wire.TAG_SKETCH_UP,
            "request_indices": wire.TAG_EXACT_REQUEST,
            "up_values": wire.TAG_EXACT_UP,
            "up_sparse": wire.TAG_SPARSE_UP,
            "down_update": wire.TAG_UPDATE_DOWN,
            "down_values": wire.TAG_VALUES_DOWN,
        }
        real = wire.frame
        for name, tag in expected.items():
            sent = []
            monkeypatch.setattr(wire, "frame", lambda tag, payload: sent.append(tag) or real(tag, payload))
            _MESSAGES[name](MeteredChannel())
            assert sent == [tag], name

    @pytest.mark.parametrize("name", sorted(_MESSAGES))
    def test_mismatched_tag_raises_wire_error(self, name, monkeypatch):
        # a sender that mislabels its frames: the receiving side must notice
        real = wire.frame
        monkeypatch.setattr(wire, "frame", lambda tag, payload: real(tag % 6 + 1, payload))
        with pytest.raises(wire.WireError, match="tagged"):
            _MESSAGES[name](MeteredChannel())

    def test_traced_names_are_plain_functions(self):
        # perfbench/spans.py rebinds these names and calls what it found
        # there, which must be a plain function
        for name in _MESSAGES:
            assert inspect.isfunction(vars(MeteredChannel)[name]), name
        rounds = ("empirical_round", "theory_round", "true_topk_step", "local_topk_step", "vanilla_step")
        for name in ("account_round", *rounds):
            assert inspect.isfunction(vars(cluster)[name]), name
        # and so must every other entry point it lists, found in its owner's
        # own namespace (a classmethod wraps the function it calls)
        spec = importlib.util.spec_from_file_location(
            "perfbench_spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        )
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans._ENTRY_POINTS
        for owner, attr, _ in spans._ENTRY_POINTS:
            assert attr in vars(owner), (owner, attr)
            raw = vars(owner)[attr]
            assert inspect.isfunction(raw.__func__ if isinstance(raw, classmethod) else raw), (owner, attr)


def _sketched(mode="empirical", **fields):
    extra = dict(xi=500.0) if mode == "theory" else {}
    return OptimizerConfig(mode=mode, algorithm="sketched", **fields, **extra)


class TestAccounting:
    def _fill(self, ch, workers, d=64):
        cfg = SketchConfig(d=d, r=3, c=8, seed=1)
        for w in range(workers):
            ch.up_sketch(sketch_vector(cfg, np.ones(d)), worker=w)
            ch.up_values(np.ones(5), worker=w)
        ch.request_indices(np.arange(5))
        ch.down_update(KSparseVector(d=d, indices=np.arange(4), values=np.ones(4)))
        return cfg

    def test_round_stats_from_tallies(self):
        ch = MeteredChannel()
        cfg = self._fill(ch, workers=3)
        stats = account_round(cfg, _sketched(p=2, k=4, w_workers=3), d=64, channel=ch)
        assert stats["up_sketch_elems"] == 24
        assert stats["up_exact_elems"] == 5
        assert stats["down_update_elems"] == 4
        assert stats["bytes_request"] > 0
        # per worker: the sketch frame (5 + 30 + 24 cells) and the values frame (5 + 4 + 5 values)
        assert stats["bytes_up"] == (5 + 30 + 24 * 8) + (5 + 4 + 5 * 8)
        assert stats["bytes_down"] == 5 + 4 + 4 * 16
        # the traffic fields of a metrics row, nothing else
        assert RoundRecord(t=1, train_loss=0.0, test_metric=0.0, **stats).bytes_up == stats["bytes_up"]

    def test_asymmetric_uploads_rejected(self):
        ch = MeteredChannel()
        ch.up_values(np.ones(5), worker=0)  # worker 1 sent nothing
        with pytest.raises(RuntimeError, match="asymmetric"):
            account_round(None, _sketched(p=1, k=1, w_workers=2), d=8, channel=ch)

    def test_sketch_size_mismatch_rejected(self):
        ch = MeteredChannel()
        cfg = self._fill(ch, workers=1)
        wrong = SketchConfig(d=64, r=5, c=8, seed=1)
        with pytest.raises(RuntimeError, match="does not match"):
            account_round(wrong, _sketched(p=2, k=4, w_workers=1), d=64, channel=ch)

    def test_exact_upload_bounded_per_mode(self):
        ch = MeteredChannel()
        cfg = SketchConfig(d=64, r=3, c=8, seed=1)
        ch.up_sketch(sketch_vector(cfg, np.ones(64)), worker=0)
        ch.up_values(np.ones(9), worker=0)
        # empirical: at most min(P*k, d) candidates plus the bias coordinates
        with pytest.raises(RuntimeError, match="budget"):
            account_round(cfg, _sketched(p=2, k=4), d=64, channel=ch)
        assert account_round(cfg, _sketched(p=2, k=4, bias_indices=(0,)), d=64, channel=ch)["up_exact_elems"] == 9
        # theory: exactly k values
        with pytest.raises(RuntimeError, match="exactly"):
            account_round(cfg, _sketched("theory", k=8), d=64, channel=ch)
        assert account_round(cfg, _sketched("theory", k=9), d=64, channel=ch)["up_exact_elems"] == 9

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
    # the exact second round, optim.exact_mean, run through a metered channel
    def test_single_worker_identity(self):
        vec = np.arange(10.0)
        out = exact_mean([vec], MeteredChannel(), np.array([0, 3, 9]))
        assert np.array_equal(out, [0.0, 3.0, 9.0])

    def test_cancellation(self):
        v = np.arange(6.0)
        out = exact_mean([v, -v], MeteredChannel(), np.array([1, 4]))
        assert np.array_equal(out, [0.0, 0.0])

    def test_meters_request_and_replies(self):
        ch = MeteredChannel()
        requests = []
        send = ch.request_indices
        ch.request_indices = lambda indices: requests.append(send(indices)) or requests[-1]
        exact_mean([np.arange(8.0), np.arange(8.0)], ch, np.array([2, 5]))
        assert [len(request) for request in requests] == [2]
        assert {w: up["up_exact_elems"] for w, up in ch.uplink.items()} == {0: 2, 1: 2}

    @pytest.mark.parametrize("w_workers", [1, 3, 4])
    def test_theory_round_fetches_the_heavymix_support_exactly(self, w_workers, monkeypatch):
        # heavymix only nominates; the round itself fetches the exact worker
        # mean at the nominated support in one request and W replies
        d, k, seed = 96, 6, 12345
        skc = SketchConfig(d=d, r=5, c=24, seed=7)
        config = OptimizerConfig(mode="theory", algorithm="sketched", k=k, w_workers=w_workers, xi=500.0)
        rng = np.random.default_rng(w_workers)
        states = make_states(np.zeros(d), w_workers)
        for st in states:
            st.accum = rng.standard_normal(d) * rng.choice([0.1, 10.0], size=d)
        accums = [st.accum.copy() for st in states]
        tags = []
        frame = wire.frame
        monkeypatch.setattr(wire, "frame", lambda tag, payload: tags.append(tag) or frame(tag, payload))
        update = theory_round(states, [np.zeros(d)] * w_workers, 0.01, config, skc, seed, MeteredChannel())

        merged = merge_all([sketch_vector(skc, a) for a in accums]).scale(1.0 / w_workers)
        support = heavymix(merged, k, seed)
        assert np.array_equal(update.indices, support)
        expected = accums[0][support]
        for a in accums[1:]:
            expected = expected + a[support]
        assert np.array_equal(update.values, expected / w_workers)
        assert tags.count(wire.TAG_EXACT_REQUEST) == 1
        assert tags.count(wire.TAG_EXACT_UP) == w_workers


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

    def test_bias_order_leaves_the_metrics_bytes_unchanged(self, tmp_path):
        # the bias goes out as one index request, which must be increasing
        prob = quadratic()
        skc = SketchConfig(d=32, r=7, c=32, seed=2)
        written = []
        for bias in ((0, 31), (31, 0)):
            cfg = OptimizerConfig(
                mode="empirical", algorithm="sketched", k=4, p=3, t_rounds=5, w_workers=2, lr=0.05, bias_indices=bias
            )
            path = tmp_path / f"bias-{bias[0]}.csv"
            write_metrics_csv(str(path), run_training(prob, cfg, skc, batch_size=16, data_seed=3, rng_seed=4).metrics)
            written.append(path.read_bytes())
        assert written[0] == written[1]

    def test_vanilla_noise_free_descent_is_monotone(self):
        prob = quadratic(noise=0.0)
        cfg = OptimizerConfig(
            mode="empirical", algorithm="vanilla", t_rounds=30, w_workers=2, lr=0.5 / prob.spectrum.max()
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

    @staticmethod
    def _poison(prob, values, coords=0):
        # the gradient of call i (round i // W + 1, worker i % W) gets
        # values[i] in coordinate 0 (or in every coordinate of ``coords``)
        calls = []
        gradient = prob.gradient

        def poisoned(w, idx, *rest):
            g = gradient(w, idx, *rest)
            if len(calls) in values:
                g[coords] = values[len(calls)]
            calls.append(idx)
            return g

        prob.gradient = poisoned
        return calls

    @pytest.mark.parametrize("algorithm", ["vanilla", "sketched", "true-topk", "local-topk"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_raises_naming_round_and_worker(self, algorithm, value):
        prob = quadratic()
        calls = self._poison(prob, {2 * 4 + 2: value})
        cfg = OptimizerConfig(mode="empirical", algorithm=algorithm, k=4, p=2, t_rounds=6, w_workers=4, lr=0.05)
        sketch = SketchConfig(d=32, r=3, c=16, seed=1) if algorithm == "sketched" else None
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError, match="round 3: worker 2 "):
            run_training(prob, cfg, sketch, batch_size=16, data_seed=1, rng_seed=1)
        assert len(calls) == 3 * 4

    def test_non_finite_sketch_cell_raises_naming_round_and_worker(self):
        # 1e308 in every coordinate is finite, but two coordinates with one
        # sign in one bucket overflow the cell
        prob = quadratic()
        calls = self._poison(prob, {2 * 4 + 2: 1e308}, coords=slice(None))
        cfg = OptimizerConfig(mode="empirical", algorithm="sketched", k=4, p=2, t_rounds=6, w_workers=4, lr=0.05)
        sketch = SketchConfig(d=32, r=3, c=16, seed=1)
        # no numpy warning precedes the error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError, match="round 3: worker 2 sent a sketch with a non-finite cell"):
                run_training(prob, cfg, sketch, batch_size=16, data_seed=1, rng_seed=1)
        assert len(calls) == 3 * 4

    def test_overflowing_merge_of_finite_sketches_raises(self):
        # each of workers 0 and 1 holds one 1e308 coordinate: both tables
        # are finite, their sum is not
        prob = quadratic()
        calls = self._poison(prob, {4: 1e308, 5: 1e308})
        cfg = OptimizerConfig(mode="empirical", algorithm="sketched", k=4, p=2, t_rounds=6, w_workers=4, lr=0.05)
        sketch = SketchConfig(d=32, r=3, c=16, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(TrainingDivergedError, match="round 2: the merge of finite worker sketches has a non-finite cell"):
                run_training(prob, cfg, sketch, batch_size=16, data_seed=1, rng_seed=1)
        assert len(calls) == 2 * 4

    def test_overflowing_finite_gradients_continue(self):
        # +-1e200 from the two workers of round 2: the mean stays finite and
        # the dispersion overflows
        prob = quadratic()
        self._poison(prob, {2: 1e200, 3: -1e200})
        cfg = OptimizerConfig(mode="empirical", algorithm="vanilla", t_rounds=4, w_workers=2, lr=0.05)
        with np.errstate(over="ignore"):
            summary = run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1).metrics.summary
        assert summary["grad_dispersion"] == np.inf
        assert np.isfinite(summary["final_train_loss"])

    def test_overflow_and_nan_statistics_warn_nothing(self):
        # run_training checks the statistics itself, so numpy must not print
        # overflow or invalid-value warnings ahead of its own verdict
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            prob = quadratic()
            self._poison(prob, {2: 1e200, 3: -1e200})
            cfg = OptimizerConfig(mode="empirical", algorithm="vanilla", t_rounds=4, w_workers=2, lr=0.05)
            summary = run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1).metrics.summary
            assert summary["grad_dispersion"] == np.inf
            assert np.isfinite(summary["final_train_loss"])
            prob = quadratic()
            self._poison(prob, {3: np.nan})
            with pytest.raises(TrainingDivergedError, match="round 2: worker 1 "):
                run_training(prob, cfg, None, batch_size=16, data_seed=1, rng_seed=1)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    @pytest.mark.parametrize("mode", ["empirical", "theory"])
    @pytest.mark.parametrize("algorithm", ["vanilla", "sketched", "true-topk", "local-topk"])
    def test_gradient_called_once_per_shard_in_order(self, kind, mode, algorithm):
        # the contract a tracer counting gradient calls as its round clock
        # relies on: W calls a round, in shard order, all at one point
        w_workers, t_rounds, batch_size, data_seed = 3, 5, 13, 4
        if kind == "quadratic":
            prob = quadratic()
        else:
            train, test = split_dataset(synth_data(n=160, d=32, class_separation=3.0, seed=2), 120)
            prob = LogisticProblem(train, test, lam=0.01)
        calls = []
        gradient = prob.gradient

        def recording(w, idx, *rest):
            calls.append((w, np.array(idx)))
            return gradient(w, idx, *rest)

        prob.gradient = recording
        cfg = OptimizerConfig(mode=mode, algorithm=algorithm, k=4, p=2, t_rounds=t_rounds, w_workers=w_workers,
                              lr=0.05, xi=50.0 if mode == "theory" else None)
        sketch = SketchConfig(d=32, r=3, c=16, seed=1) if algorithm == "sketched" else None
        run_training(prob, cfg, sketch, batch_size=batch_size, data_seed=data_seed, rng_seed=1)
        assert len(calls) == w_workers * t_rounds
        order_rng = np.random.default_rng(data_seed)
        for t in range(t_rounds):
            batch = order_rng.choice(prob.n_train, size=batch_size, replace=False)
            rnd = calls[t * w_workers:(t + 1) * w_workers]
            for (w, idx), shard in zip(rnd, partition_batch(batch, w_workers)):
                assert w is rnd[0][0]
                assert np.array_equal(idx, shard)

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

    @pytest.mark.parametrize("w_workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("algorithm", ["vanilla", "sketched"])
    def test_gradient_statistics_keep_their_bits(self, w_workers, algorithm, monkeypatch):
        # reference: the plain expressions the in-place statistics replaced
        prob = quadratic(d=300, noise=0.5)
        grads = []
        gradient = prob.gradient
        monkeypatch.setattr(prob, "gradient", lambda w, idx, *rest: grads.append(gradient(w, idx, *rest)) or grads[-1].copy())
        cfg = OptimizerConfig(mode="empirical", algorithm=algorithm, k=5, p=4, t_rounds=6, w_workers=w_workers, lr=0.1)
        sketch = SketchConfig(d=300, r=3, c=40, seed=2) if algorithm == "sketched" else None
        summary = run_training(prob, cfg, sketch, batch_size=12, data_seed=2, rng_seed=3).metrics.summary
        grad_sq_max = dispersion_sum = 0.0
        for t in range(cfg.t_rounds):
            rnd = grads[t * w_workers:(t + 1) * w_workers]
            mean_grad = sum(rnd) / w_workers
            grad_sq_max = max(grad_sq_max, float(mean_grad @ mean_grad))
            dispersion_sum += sum(float((g - mean_grad) @ (g - mean_grad)) for g in rnd) / w_workers
        assert summary["grad_sq_max"] == grad_sq_max
        assert summary["grad_dispersion"] == dispersion_sum / cfg.t_rounds


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

    # sha256 of the metrics CSV of every row of the small config matrix
    # below, recorded before the round functions were merged into one
    # error-feedback skeleton, so any change in a round's arithmetic,
    # summation order or traffic shows here.
    MATRIX = {
        "quadratic-sketched-empirical-W1-bias0-m0": "eb4ac0893bf2f41fa7c4c41282e43311c8ec924ebe1c3c76c52cecc8efc92d78",
        "quadratic-sketched-empirical-W1-bias0-m0.9": "ca3c8763852814ded565556fee65ef527700a935ecf09837e97b131541303f44",
        "quadratic-sketched-empirical-W1-bias1-m0": "3eebcdfdcba3b3f7f30e45cef4b92509fb9e9f526aa3819de664f26bd717e904",
        "quadratic-sketched-empirical-W1-bias1-m0.9": "89e3ffb6672764e3c9993782d181b4ce6ac2e7ba66263eed1c3877f877c2018c",
        "quadratic-sketched-empirical-W4-bias0-m0": "073bd91c59313c2962115f66bd6529e0143456cd90a1bcb2486a54a3f408f959",
        "quadratic-sketched-empirical-W4-bias0-m0.9": "54a0f0e0697da04adeb946abceb417e8f7cf332273d619ad4d11c777da345e1c",
        "quadratic-sketched-empirical-W4-bias1-m0": "79cc402ba6847e390ec845ef64c96648a7bf4cb0fdb9694bb4b9a501d72346af",
        "quadratic-sketched-empirical-W4-bias1-m0.9": "6f2e1454170ea1e27b94448c17dd9d7dc6ce93532c98f3a81a3dbb657c7159a4",
        "quadratic-sketched-theory-W1-bias0-m0": "f24f652328522440b8e403cc77e9c768b60ccbf97e27de63aedab782561a9102",
        "quadratic-sketched-theory-W4-bias0-m0": "11131620a07d9b36cccb2412d139852f57c84bee8e8a8ddf32e3c6642d514c4e",
        "quadratic-vanilla-empirical-W1-bias0-m0": "d70a4e49c1cba415143d328fa470e985aaaa0e5aef8536600f8fde0a64244b90",
        "quadratic-vanilla-empirical-W1-bias0-m0.9": "0976f3bc75b5f961c69be2f8937aaa9e872e2ebdef425e3062bb17e602adfd0d",
        "quadratic-vanilla-empirical-W1-bias1-m0": "cf853d3897ea50dee6b62b6a5cb8e8867d3aef05fbfffae5eccf12b8ffc19d58",
        "quadratic-vanilla-empirical-W1-bias1-m0.9": "0c59252af1a7882056b4388c23d5f8bc038432cb04997e551fa1865977f9292a",
        "quadratic-vanilla-empirical-W4-bias0-m0": "6549b7b36d2828ec70ab7c48fda91edb3a8595982856dc1c0efe987b22c3243e",
        "quadratic-vanilla-empirical-W4-bias0-m0.9": "c221ca97b6446279f9ed1f8df73268a9de353b84c21f8224f4a391ce7bdc8343",
        "quadratic-vanilla-empirical-W4-bias1-m0": "1c98472a024a7a1ebfea711eccc4044cb2105cc228c7b040437351fe4817b9be",
        "quadratic-vanilla-empirical-W4-bias1-m0.9": "bf44dd51f3b1a60a8afaa88c30f5b0f207a022bed9c6e37b5876f7b8ea4020f4",
        "quadratic-vanilla-theory-W1-bias0-m0": "7e9761ad999dc7566c71e802012580e88bb2ee3637405e557420591872f45ca5",
        "quadratic-vanilla-theory-W4-bias0-m0": "ec1a5734de6485801661b4395ab105fdba30b3ce1637f15626566464798e5c30",
        "quadratic-true-topk-empirical-W1-bias0-m0": "2efce5d72b2704d9ae36417254a3ce62acd4aa8266af5ac4d4d7fa7e6dc2946f",
        "quadratic-true-topk-empirical-W1-bias0-m0.9": "c6de9c41f2f3644ae670ad26f1610c6595cd0dc79b31deb7fa20ee00897195b5",
        "quadratic-true-topk-empirical-W1-bias1-m0": "3e212d21ca08ecc8d0bfcde0a8cd08562086ee3a6edbb70a93e17e69610d7c5c",
        "quadratic-true-topk-empirical-W1-bias1-m0.9": "75baa71c9de80e66e71b79f89e078524f983d6ae159f409080bf584fd14ad712",
        "quadratic-true-topk-empirical-W4-bias0-m0": "30da7dab77d12d09aeed8adb534b5ff016ba26dfb214d802cb21914c988107b0",
        "quadratic-true-topk-empirical-W4-bias0-m0.9": "78ba31830cce8f88179bef653a8e352444a94360680849a74fca41b493b9fa34",
        "quadratic-true-topk-empirical-W4-bias1-m0": "85d3e0e558cd27cafa0afa19e4bc144d1ec1c511dc2664bf2c99e228428463d9",
        "quadratic-true-topk-empirical-W4-bias1-m0.9": "b52c264dc8330946d5e35469761b81bb473ad8e9da45715b42b4311ecf03f060",
        "quadratic-true-topk-theory-W1-bias0-m0": "8a73742b3cbd2214a62c321d9b2e1efc0b35e128cc69ac55c1ff7540d754832b",
        "quadratic-true-topk-theory-W4-bias0-m0": "ba036d49a9ab0bf6237b2c75311139438039e8653c9a371d8fb6223af269a3c1",
        "quadratic-local-topk-empirical-W1-bias0-m0": "b8ff46940256852abf7c9446f576bf02cbb233d03e6a47d65738b07b985f9b01",
        "quadratic-local-topk-empirical-W1-bias0-m0.9": "5c4eecf7e3093e6472469c28d7a133434c1a69592f5c5ca7564a0f21f6413c6c",
        "quadratic-local-topk-empirical-W1-bias1-m0": "a50efdbba5526c55a900e9c1c6e2bec23978158a2c745ecd6bf3b6f11b44aaf2",
        "quadratic-local-topk-empirical-W1-bias1-m0.9": "da7e95663acfbadde4a0472d0cff0513246713779246782e13b158f7361e08ab",
        "quadratic-local-topk-empirical-W4-bias0-m0": "b4826bed9f79a7316a0176dbcd9a2d9c5ef25a7899df9f3ac78111b84045ab75",
        "quadratic-local-topk-empirical-W4-bias0-m0.9": "c959608e06e4d7397571d9e20f9c05ac54db88263b44daef4becf90b054454ec",
        "quadratic-local-topk-empirical-W4-bias1-m0": "cd785b167333cce982e31d2a4ba7d6cb3f94c70e3ec2d0c9fa90c52f0c062499",
        "quadratic-local-topk-empirical-W4-bias1-m0.9": "0ac6267db2541d5f5f35ef2452dcddcccf17f1b1d3ceecd80b04e7a8ed98bb51",
        "quadratic-local-topk-theory-W1-bias0-m0": "4841a0817316545518c8946b54292b4ec0ba4e232d531b1ed659b6357704c13e",
        "quadratic-local-topk-theory-W4-bias0-m0": "e79fdcb94971dd11f5387255db2eec81aaa21657964327eeac3f541cfe5394af",
        "logistic-sketched-empirical-W1-bias0-m0": "f8a4e3a72f823a0f683831b053e76d303f050a100d14466ab8b46813663c8ed2",
        "logistic-sketched-empirical-W1-bias0-m0.9": "01796ceba6d57b16babbf3c44305db91fc754d5c845d4778ce6f5431b90e1d00",
        "logistic-sketched-empirical-W1-bias1-m0": "fc4b1da30b98a3800c8c50a426d7bbe646d547041a3fa1a9aa88a537f429d802",
        "logistic-sketched-empirical-W1-bias1-m0.9": "018e7965c2b1a06c47e36b56c466affed4de3f9dd256a722a02e5958a1f123ab",
        "logistic-sketched-empirical-W4-bias0-m0": "a717c31b6c9f36e0b831e0b8c7ae5850f333d6aea82b58ec9e679889844af035",
        "logistic-sketched-empirical-W4-bias0-m0.9": "db0e461cb5b597883664ff2fc23cd0fde30b9c6862ce49fbf0b22d8805b6fd84",
        "logistic-sketched-empirical-W4-bias1-m0": "1fa0f45b19b5fab021ec891110358a904559fb6e94392860d6d7802bb4d274f5",
        "logistic-sketched-empirical-W4-bias1-m0.9": "e811e39c6c0697c9cc18599854c49d8253ef07c9d9d9a7cd52feb4b10d9780a5",
        "logistic-sketched-theory-W1-bias0-m0": "f28b6c598208ed81dea3fbe4d11ca1eff5f3e30f9768ba2ec5c0830c43e12ac8",
        "logistic-sketched-theory-W4-bias0-m0": "f60f3794540ed3f20134d32aa33492dfbc8b96ccf93bf98d8c4e25be125f6341",
        "logistic-vanilla-empirical-W1-bias0-m0": "2fb8614e8894564ab4fbc1e333457e0660b8558958ede4f447a3bcec57fbee4b",
        "logistic-vanilla-empirical-W1-bias0-m0.9": "c917eca2d235c2d374224674ef35ecf07c2113673c25d6df65cfea43ecbde7f2",
        "logistic-vanilla-empirical-W1-bias1-m0": "f64e2bc01fb73e05ee86ada7c0680538409fbc0b9672ee157809ae827d4b3284",
        "logistic-vanilla-empirical-W1-bias1-m0.9": "63b9e08fbf6b88c98a1d53eb9eed728498aa07077387de32d88f848248a2d6d5",
        "logistic-vanilla-empirical-W4-bias0-m0": "6956910477dca7aa8dcdfee22bc9aa317a8c80d6b9dcddf4222824c44a1bc4e0",
        "logistic-vanilla-empirical-W4-bias0-m0.9": "b2840e1ecd916ac094812f30069767567612d719895bdc339caefbff3ef0ca58",
        "logistic-vanilla-empirical-W4-bias1-m0": "5495006afc91e655c797fc69a8d46331ef1828cb1ceb191d44787f271d82fcce",
        "logistic-vanilla-empirical-W4-bias1-m0.9": "0eea59ff9e1793e45a44c36ec5f45ea56c9e443905c81f6f8c491c9cf68b6be4",
        "logistic-vanilla-theory-W1-bias0-m0": "e5452a1b2bc3a75c6c08541f6f72c14ff5190459047243a2cb7dfb2a80690010",
        "logistic-vanilla-theory-W4-bias0-m0": "e4645d3b92f11cb5d49499ab29e9855341c43d6491c08f18d94446e28cd4cc51",
        "logistic-true-topk-empirical-W1-bias0-m0": "492c9e6ed9b4fd9536f307b6441a4f45707577fee7642213c679de43d9cb14d2",
        "logistic-true-topk-empirical-W1-bias0-m0.9": "591ca8357b6c0319276ffebaced844c8801dbc31446b8c8d2d28ea8e6ba48de2",
        "logistic-true-topk-empirical-W1-bias1-m0": "681822ff69982fa7940372e739ac0cbc0c9b9bf469243285b7692a72497f2938",
        "logistic-true-topk-empirical-W1-bias1-m0.9": "02949b147cb4a08e1cf43eb3c665df570782440659256a75d356af75b1e2c0b9",
        "logistic-true-topk-empirical-W4-bias0-m0": "60e95b01bbe7bf019a10329d3a96ff969b8a7d89cb950c1f52188ccbf72decaf",
        "logistic-true-topk-empirical-W4-bias0-m0.9": "3ae313f519f3cba0746a2320610b33e16a0b58ef5d3bff20aad37a51fe95b351",
        "logistic-true-topk-empirical-W4-bias1-m0": "e10062ecb1f2a4322d1017f3f8a9ed4461148189746e2b51e4973406bcf97584",
        "logistic-true-topk-empirical-W4-bias1-m0.9": "aa79fa7418a75d15c6d696f8d6c64bc56e241114bde12b2bd19a9e0c09bcfed7",
        "logistic-true-topk-theory-W1-bias0-m0": "cf4646591017afe909acca261ca368da4cfcffb7d6e03914a263f581d8e9e9b7",
        "logistic-true-topk-theory-W4-bias0-m0": "d7c0116bcec0d781ba9a7012b0db4421156a14f4a8cc8cb4df067c3928656f5c",
        "logistic-local-topk-empirical-W1-bias0-m0": "dcafac548d9e0985b3cbf9e859819221c4f15796315bbaec4a5177e77931cd12",
        "logistic-local-topk-empirical-W1-bias0-m0.9": "3c3c140622b6748f6b55443f07d8b522a03bdcde1d6ab7fd3116ca923dadfd38",
        "logistic-local-topk-empirical-W1-bias1-m0": "4a8a93b05c202147dc3969108891f92b4d5ed1eff0c90ca5441fdeba0758b2b4",
        "logistic-local-topk-empirical-W1-bias1-m0.9": "9d2213aaede0e38f080004b9ff4e4e3536b98c8a6abebd113e0c5269d7867e8d",
        "logistic-local-topk-empirical-W4-bias0-m0": "ad2392c5a83520d7ffb3fb56392242ca8a7a1115eed98784bc531ea00b0b5c70",
        "logistic-local-topk-empirical-W4-bias0-m0.9": "e63ea1d4560fc743bad3614977d2e071538bee8c06fe7cff4f1ef05624fce20a",
        "logistic-local-topk-empirical-W4-bias1-m0": "a9c263daf490647516203ec1d7b56780df035e312021f18c5fbb5ea33611eb9a",
        "logistic-local-topk-empirical-W4-bias1-m0.9": "e61c4a55a06040ce28153ffe2761abe4f728b7690b6fe7d40563fab53b4f02b2",
        "logistic-local-topk-theory-W1-bias0-m0": "03eb8e477850e3d45067b9860e332f8bbbd14ec4f7169af9ed905dc9cf326a9e",
        "logistic-local-topk-theory-W4-bias0-m0": "1936c929d379d6206bce51534795a9be90d31cfd37c77868d1e8c39127c09f1b",
    }

    @pytest.mark.parametrize("row_id", sorted(MATRIX))
    def test_config_matrix(self, row_id, tmp_path):
        assert _matrix_digest(_MATRIX_ROWS[row_id], tmp_path) == self.MATRIX[row_id]


def _matrix_rows():
    """Every valid small config: problem x algorithm x mode x W x bias x momentum.

    Theory mode takes neither bias coordinates nor momentum, so its rows
    exist only with both off.
    """
    rows = {}
    for kind in ("quadratic", "logistic"):
        for algorithm in ("sketched", "vanilla", "true-topk", "local-topk"):
            for mode in ("empirical", "theory"):
                for workers in (1, 4):
                    for bias in (False, True):
                        for momentum in (0.0, 0.9):
                            if mode == "theory" and (bias or momentum):
                                continue
                            row_id = f"{kind}-{algorithm}-{mode}-W{workers}-bias{int(bias)}-m{momentum:g}"
                            rows[row_id] = (kind, algorithm, mode, workers, bias, momentum)
    return rows


_MATRIX_ROWS = _matrix_rows()


def _matrix_problem(kind):
    if kind == "quadratic":
        return QuadraticProblem(np.linspace(1.0, 3.0, 48), 0.1, 64, seed=3)
    train, test = split_dataset(synth_data(n=160, d=40, class_separation=3.0, seed=5), 120)
    return LogisticProblem(train, test, lam=0.01)


def _matrix_digest(row, tmp_path):
    kind, algorithm, mode, workers, bias, momentum = row
    prob = _matrix_problem(kind)
    d = prob.d
    extra = dict(xi=100.0) if mode == "theory" else dict(lr=0.05 if kind == "quadratic" else 0.5)
    cfg = OptimizerConfig(
        mode=mode, algorithm=algorithm, k=4, p=3, t_rounds=12, w_workers=workers,
        momentum=momentum, bias_indices=(0, d - 1) if bias else (), **extra,
    )
    skc = SketchConfig(d=d, r=5, c=20, seed=2) if algorithm == "sketched" else None
    res = run_training(prob, cfg, skc, batch_size=16, data_seed=7, rng_seed=11)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(str(path), res.metrics)
    return hashlib.sha256(path.read_bytes()).hexdigest()
