"""Gradient oracles, dataset generation, and loader error paths."""

import re
import tracemalloc

import numpy as np
import pytest

import gradsketch.problems as problems_module
from gradsketch.problems import (
    Dataset,
    DatasetFormatError,
    HingeSVMProblem,
    LogisticProblem,
    QuadraticProblem,
    classification_error,
    hinge_loss,
    hinge_subgradient,
    load_dataset,
    logistic_gradient,
    logistic_loss,
    _checksum,
    _sigmoid,
    prepare_features,
    split_dataset,
    synth_data,
)
from oracles import blobs_by_copy, per_sample_gradients, sigmoid_by_halves


def _bits(x):
    assert isinstance(x, float)
    return np.float64(x).tobytes()


def _finite_diff(fn, w, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        up, down = w.copy(), w.copy()
        up[i] += eps
        down[i] -= eps
        g[i] = (fn(up) - fn(down)) / (2 * eps)
    return g


def _writes_into_out(p, w, shards):
    # gradients(out=prev) hands back the prev arrays themselves, each with
    # the bits of a fresh gradients() call; prev is poisoned with NaN and
    # +-inf so that no cell the call fails to write can pass
    prev = [np.resize(np.array([np.nan, np.inf, -np.inf]), p.d) for _ in shards]
    got = p.gradients(w, shards, out=prev)
    assert len(got) == len(prev) and all(g is o for g, o in zip(got, prev))
    for g, want in zip(got, p.gradients(w, shards)):
        assert g.tobytes() == want.tobytes()


class TestLogistic:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X, w = rng.standard_normal((40, 7)), rng.standard_normal(7)
        y = rng.choice([-1, 1], size=40)
        lam = 0.05
        got = logistic_gradient(w, X, y, lam)
        want = _finite_diff(lambda v: logistic_loss(v, X, y, lam), w)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_symmetric_batch_gradient_is_regularizer_only(self):
        # A (+1, x) and (-1, x) pair has data terms that cancel wherever the
        # score w.x is zero, leaving only the regularizer.
        x = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([1, -1])
        w = np.zeros(2)
        assert np.allclose(logistic_gradient(w, x, y, 0.0), 0.0)
        w = np.array([2.0, -1.0])  # orthogonal to the sample
        np.testing.assert_allclose(logistic_gradient(w, x, y, 2.0), 2.0 * w, atol=1e-12)

    def test_large_lambda_dominates(self):
        rng = np.random.default_rng(1)
        X, w = rng.standard_normal((30, 5)), rng.standard_normal(5)
        y = rng.choice([-1, 1], size=30)
        g = logistic_gradient(w, X, y, 1e6)
        np.testing.assert_allclose(g / 1e6, w, rtol=1e-4)

    def test_sigmoid_has_the_bits_of_the_two_halves(self):
        # one exp of -|z| feeds exp the argument each half did
        z = np.concatenate([[0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf],
                            np.random.default_rng(3).standard_normal(4000) * 40.0])
        assert _sigmoid(z).tobytes() == sigmoid_by_halves(z).tobytes()

    def test_loss_stable_for_extreme_margins(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([1, 1])
        val = logistic_loss(np.array([1.0]), X, y)
        assert np.isfinite(val)
        assert val == pytest.approx(500.0, rel=1e-6)


class TestHinge:
    def test_zero_branch_at_kink(self):
        # margin exactly 1: subgradient takes the zero branch
        X, y = np.array([[2.0, 0.0]]), np.array([1])
        w = np.array([0.5, 3.0])
        assert np.array_equal(hinge_subgradient(w, X, y), np.zeros(2))

    def test_active_sample_contributes(self):
        X, y = np.array([[2.0, 0.0]]), np.array([1])
        w = np.array([0.2, 0.0])
        np.testing.assert_allclose(hinge_subgradient(w, X, y), [-2.0, 0.0])

    def test_matches_finite_differences_away_from_kinks(self):
        rng = np.random.default_rng(2)
        X, w = rng.standard_normal((25, 6)), rng.standard_normal(6)
        y = rng.choice([-1, 1], size=25)
        margins = y * (X @ w)
        assert np.all(np.abs(margins - 1.0) > 1e-3)  # differentiable point
        got = hinge_subgradient(w, X, y)
        want = _finite_diff(lambda v: hinge_loss(v, X, y), w)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_all_satisfied_is_zero(self):
        X, y = np.array([[5.0], [4.0]]), np.array([1, 1])
        assert not hinge_subgradient(np.array([1.0]), X, y).any()


class TestQuadratic:
    def test_keeps_only_its_draws(self):
        # b and the noise rows, no stored optimum
        d, n = 50_000, 3
        spectrum = np.linspace(1.0, 2.0, d)
        tracemalloc.start()
        try:
            p = QuadraticProblem(spectrum, 0.1, n, seed=0)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept <= (n + 1) * d * 8 + 4096
        assert np.array_equal(p.w_star, p.b / spectrum)

    def test_gradient_zero_at_optimum(self):
        p = QuadraticProblem(np.array([1.0, 2.0, 4.0]), noise_sigma=0.0, n_samples=8, seed=0)
        assert np.allclose(p.gradient(p.w_star, np.arange(p.n_train)), 0.0)
        assert p.test_metric(p.w_star) == 0.0
        assert p.test_metric(p.w_star + 1.0) > 0.0

    def test_mean_per_sample_equals_full_gradient(self):
        p = QuadraticProblem(np.linspace(0.5, 2.0, 6), noise_sigma=0.3, n_samples=64, seed=3)
        w = np.random.default_rng(1).standard_normal(6)
        idx = np.arange(p.n_train)
        np.testing.assert_allclose(
            per_sample_gradients(p, w, idx).mean(axis=0), p.gradient(w, idx), atol=1e-12
        )

    def test_worker_split_preserves_batch_mean(self):
        p = QuadraticProblem(np.ones(4), noise_sigma=1.0, n_samples=32, seed=5)
        w = np.ones(4)
        batch = np.arange(16)
        shards = np.array_split(batch, 4)
        worker_mean = np.mean([p.gradient(w, s) for s in shards], axis=0)
        np.testing.assert_allclose(worker_mean, p.gradient(w, batch), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 300])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_gradient_and_objective_keep_their_bits(self, d, sigma):
        # references: the plain expressions the in-place code replaced
        p = QuadraticProblem(np.linspace(0.5, 2.0, d), noise_sigma=sigma, n_samples=24, seed=d)
        rng = np.random.default_rng(d)
        w = rng.standard_normal(d)
        w[0] = -0.0
        for size in range(1, p.n_train + 1):
            idx = rng.choice(p.n_train, size=size, replace=False)
            want = p.spectrum * w - p.b + p.noise[idx].mean(axis=0)
            assert p.gradient(w, idx).tobytes() == want.tobytes()
        want = float(0.5 * (w * p.spectrum) @ w - p.b @ w)
        assert p.train_loss(w) == want + float(p.noise.mean(axis=0) @ w)
        assert p.test_metric(w) == want - p._f_star

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 300])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_evaluate_is_train_loss_and_test_metric(self, d, sigma):
        # references: train_loss and test_metric, and the expressions each
        # evaluated with its own objective
        p = QuadraticProblem(np.linspace(0.5, 2.0, d), noise_sigma=sigma, n_samples=24, seed=d)
        rng = np.random.default_rng(d)
        signed_zeros = np.where(rng.random(d) < 0.5, 0.0, -0.0)
        for w in (rng.standard_normal(d), 1e150 * rng.standard_normal(d), p.w_star, signed_zeros):
            loss, metric = p.evaluate(w)
            half = w * p.spectrum
            half *= 0.5
            objective = float(half @ w - p.b @ w)
            assert _bits(loss) == _bits(p.train_loss(w)) == _bits(objective + float(p.noise.mean(axis=0) @ w))
            assert _bits(metric) == _bits(p.test_metric(w)) == _bits(objective - p._f_star)

    def test_rejects_bad_spectrum(self):
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0, -1.0]), 0.0, 4, 0)
        with pytest.raises(ValueError):
            QuadraticProblem(np.array([1.0]), -0.5, 4, 0)

    def test_rejects_empty_spectrum(self):
        with pytest.raises(ValueError, match="nonempty"):
            QuadraticProblem(np.array([]), 0.0, 4, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_spectrum(self, bad):
        with pytest.raises(ValueError, match="finite"):
            QuadraticProblem(np.array([1.0, bad]), 0.0, 4, 0)

    @pytest.mark.parametrize("n", [0, -3, 2.0, True, np.float64(4.0), None], ids=repr)
    def test_rejects_a_sample_count_that_is_not_a_positive_integer(self, n):
        # n = 0 used to build an empty sample set whose loss read mean([])
        with pytest.raises(ValueError, match=re.escape(f"n_samples must be an integer in [1, inf], got {n!r}")):
            QuadraticProblem(np.ones(4), 0.1, n, seed=0)

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 2.0], ids=repr)
    def test_rejects_a_seed_outside_the_seed_range(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [0, {2**64 - 1}], got {seed!r}")):
            QuadraticProblem(np.ones(4), 0.1, 4, seed=seed)

    @pytest.mark.parametrize("n", [1, np.int32(3), np.uint64(5)])
    def test_takes_any_positive_integer_sample_count(self, n):
        assert QuadraticProblem(np.ones(4), 0.1, n, seed=0).n_train == n

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_rejects_non_finite_noise_sigma(self, sigma):
        # a NaN sigma fails `sigma > 0` and used to run silently noise-free
        with pytest.raises(ValueError, match=f"noise_sigma must be a finite real in \\[0, inf\\), got {sigma}"):
            QuadraticProblem(np.array([1.0, 2.0]), sigma, 4, 0)

    @pytest.mark.parametrize("d", [1, 2, 3, 17, 300])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_gradients_are_per_shard_gradient(self, d, sigma):
        # the shared A w - b must leave each shard's bits as gradient() and
        # the plain expression give them, with one fresh buffer per shard,
        # or in last round's buffers when they are passed
        p = QuadraticProblem(np.linspace(0.5, 2.0, d), noise_sigma=sigma, n_samples=24, seed=d)
        rng = np.random.default_rng(d)
        signed_zeros = np.where(rng.random(d) < 0.5, 0.0, -0.0)
        for w in (rng.standard_normal(d), 1e150 * rng.standard_normal(d), signed_zeros):
            for w_workers in range(1, 6):
                # batches from one row per shard up to the whole set
                for batch_size in (w_workers, w_workers + 1, 2 * w_workers + 1, p.n_train):
                    batch = rng.choice(p.n_train, size=batch_size, replace=False)
                    shards = np.array_split(batch, w_workers)
                    grads = p.gradients(w, shards)
                    assert len(grads) == w_workers
                    for g, idx in zip(grads, shards):
                        want = p.spectrum * w - p.b + p.noise[idx].mean(axis=0)
                        assert g.tobytes() == p.gradient(w, idx).tobytes() == want.tobytes()
                        assert not np.shares_memory(g, w)
                    for i, g in enumerate(grads):
                        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
                    _writes_into_out(p, w, shards)


class TestSynthData:
    def test_deterministic_and_balanced(self):
        a = synth_data(101, 5, 2.0, seed=7)
        b = synth_data(101, 5, 2.0, seed=7)
        assert a.checksum == b.checksum
        assert np.array_equal(a.features, b.features)
        assert abs(int(np.sum(a.labels == 1)) - int(np.sum(a.labels == -1))) <= 1

    def test_seed_changes_data(self):
        assert synth_data(50, 4, 1.0, seed=1).checksum != synth_data(50, 4, 1.0, seed=2).checksum

    def test_wide_separation_is_linearly_separable(self):
        ds = synth_data(2000, 20, 10.0, seed=0)
        # the class-mean difference itself should classify nearly perfectly
        w = ds.features[ds.labels == 1].mean(axis=0) - ds.features[ds.labels == -1].mean(axis=0)
        assert classification_error(w, ds) <= 0.01

    def test_zero_separation_is_chance(self):
        ds = synth_data(2000, 10, 0.0, seed=3)
        w = ds.features[ds.labels == 1].mean(axis=0) - ds.features[ds.labels == -1].mean(axis=0)
        assert abs(classification_error(w, ds) - 0.5) < 0.1

    @pytest.mark.parametrize(
        "args, digest",
        [
            ((5000, 784, 4.0, 3), "dac975e4b1da8fa76ec65e0bc60952e7694d47795a13c624e74842b44dab02b8"),
            ((2000, 10, 0.0, 3), "f62a7555280026da1b8b02f9fe7b1d9fecfba33420fb270d6300101177b0a906"),
        ],
    )
    def test_pinned_checksums(self, args, digest):
        # pins the drawn rows and the digest's byte layout together
        n, d, separation, seed = args
        assert synth_data(n, d, separation, seed=seed).checksum == digest

    @pytest.mark.parametrize(
        "n, d", [(1, 1), (1, 3), (2, 1), (7, 1), (301, 7), (5000, 784), (20000, 50), (200000, 2)]
    )
    def test_in_place_permutation_matches_copy(self, n, d):
        ds = synth_data(n, d, 3.0, seed=n + d)
        features, labels = blobs_by_copy(n, d, 3.0, seed=n + d)
        assert ds.features.tobytes() == features.tobytes()
        assert ds.labels.tobytes() == labels.tobytes()

    def test_view_checksum_equals_copy_checksum(self):
        full = synth_data(301, 7, 2.0, seed=5)
        for rows in (slice(None, 200), slice(200, None), slice(None, None, 3)):
            view = Dataset(full.features[rows], full.labels[rows], "view")
            copy = Dataset(full.features[rows].copy(), full.labels[rows].copy(), "copy")
            assert view.checksum == copy.checksum

    @pytest.mark.parametrize("separation", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_separation(self, separation):
        # a NaN separation fails `< 0` and used to surface only at the loss
        with pytest.raises(ValueError, match=f"class_separation must be a finite real in \\[0, inf\\), got {separation}"):
            synth_data(10, 3, separation, seed=0)

    @pytest.mark.parametrize("seed", [True, -1, 2**64, 2.0], ids=repr)
    def test_rejects_a_seed_outside_the_seed_range(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"seed must be an integer in [0, {2**64 - 1}], got {seed!r}")):
            synth_data(10, 3, 1.0, seed=seed)

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError, match=re.escape("n must be an integer in [1, inf], got 0")):
            synth_data(0, 3, 1.0, 0)

    def test_split_leaves_a_test_row(self):
        ds = synth_data(10, 3, 1.0, seed=0)
        with pytest.raises(ValueError, match=re.escape("n_train must be an integer in [1, 9], got 10")):
            split_dataset(ds, ds.n)

    def test_split_leaves_a_train_row(self):
        with pytest.raises(ValueError, match=re.escape("n_train must be an integer in [1, 9], got 0")):
            split_dataset(synth_data(10, 3, 1.0, seed=0), 0)

    @pytest.mark.parametrize(
        "features, labels",
        [(np.zeros(3), np.zeros(3)), (np.zeros((3, 2)), np.zeros(2)), (np.zeros((3, 2)), np.zeros((3, 1)))],
        ids=["flat-features", "short-labels", "label-matrix"],
    )
    def test_dataset_rejects_mismatched_shapes(self, features, labels):
        with pytest.raises(ValueError, match=re.escape("features must be (n, d) with one label per row")):
            Dataset(features, labels, "bad")

    def test_checksum_is_computed_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(features, labels):
            calls.append(features.shape)
            return _checksum(features, labels)

        monkeypatch.setattr(problems_module, "_checksum", counting)
        train, test = split_dataset(synth_data(300, 6, 3.0, seed=0), 200)
        assert calls == []
        assert train.checksum == train.checksum
        assert calls == [(200, 6)]

    def test_blob_build_peak_memory(self):
        # the drawn rows alone: they are shifted and permuted in place, and
        # neither hashing nor the split copies them
        n, d = 5000, 784
        tracemalloc.start()
        try:
            split_dataset(synth_data(n, d, 4.0, seed=3), 4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * n * d * 8

    def test_binarize(self):
        ds = Dataset(np.eye(3), np.array([0, 1, 2]), "toy")
        bin2 = ds.binarize(2)
        assert list(bin2.labels) == [-1, -1, 1]


class TestLoader:
    def _write(self, tmp_path, text):
        p = tmp_path / "data.txt"
        p.write_text(text)
        return str(p)

    def test_parses_comments_and_blanks(self, tmp_path):
        path = self._write(tmp_path, "# header\n\n1 0.5 2.0\n-1 1.5 -3.0\n")
        ds = load_dataset(path)
        assert ds.n == 2 and ds.d == 2
        assert list(ds.labels) == [1, -1]
        assert ds.features[1, 1] == -3.0

    def test_ragged_row_names_line(self, tmp_path):
        path = self._write(tmp_path, "1 0.5 2.0\n1 0.5\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dataset(path)

    def test_bad_label_names_line(self, tmp_path):
        path = self._write(tmp_path, "# c\nx 0.5\n")
        with pytest.raises(DatasetFormatError, match=":2:"):
            load_dataset(path)

    def test_bad_feature_token(self, tmp_path):
        path = self._write(tmp_path, "1 abc\n")
        with pytest.raises(DatasetFormatError, match=":1:"):
            load_dataset(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "NaN", "+inf"])
    def test_non_finite_feature_token_names_line(self, tmp_path, token):
        # these parse as floats; loaded, they made prepare_features zero
        # every feature
        path = self._write(tmp_path, f"1 0.5 2.0\n-1 {token} 1.0\n")
        with pytest.raises(DatasetFormatError, match=f":2: non-finite feature token '{re.escape(token)}'"):
            load_dataset(path)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"1 0.5\n-1 \xff\xfe\n")
        with pytest.raises(DatasetFormatError, match="not UTF-8"):
            load_dataset(str(path))

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "# only comments\n")
        with pytest.raises(DatasetFormatError, match="no samples"):
            load_dataset(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(str(tmp_path / "nope.txt"))

    def test_prepare_features(self, tmp_path):
        path = self._write(tmp_path, "1 0.0 5.0\n-1 10.0 2.5\n")
        ds = prepare_features(load_dataset(path))
        assert ds.features.shape == (2, 3)
        assert ds.features[:, :2].min() == 0.0 and ds.features[:, :2].max() == 1.0
        assert np.array_equal(ds.features[:, 2], [1.0, 1.0])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"bounds": (-1.5, 2.25)},
            {"add_intercept": False},
            {"bounds": (0.5, 0.5)},
            {"normalize": False},
            {"normalize": False, "add_intercept": False},
        ],
        ids=["matrix-range", "bounds", "no-intercept", "degenerate-range", "no-normalize", "neither"],
    )
    def test_prepare_features_keeps_bits(self, kwargs):
        X = np.random.default_rng(6).standard_normal((40, 5)) * 3.0
        got = prepare_features(Dataset(X, np.ones(40), "x"), **kwargs).features
        want = X
        if kwargs.get("normalize", True):
            lo, hi = kwargs.get("bounds", (X.min(), X.max()))
            want = (X - lo) / (hi - lo) if hi > lo else np.zeros_like(X)
        if kwargs.get("add_intercept", True):
            want = np.hstack([want, np.ones((40, 1))])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestErmProblems:
    def _problem(self, cls, lam=0.01):
        train, test = split_dataset(synth_data(300, 6, 3.0, seed=0), 200)
        return cls(train, test, lam)

    @pytest.mark.parametrize("cls", [LogisticProblem, HingeSVMProblem])
    def test_mean_per_sample_equals_batch_gradient(self, cls):
        p = self._problem(cls)
        w = np.random.default_rng(2).standard_normal(6)
        idx = np.arange(0, 200, 3)
        np.testing.assert_allclose(
            per_sample_gradients(p, w, idx).mean(axis=0), p.gradient(w, idx), atol=1e-12
        )

    def test_descent_reduces_loss_and_error(self):
        p = self._problem(LogisticProblem)
        w = np.zeros(6)
        first = p.train_loss(w)
        for _ in range(60):
            w -= 0.5 * p.gradient(w, np.arange(p.n_train))
        assert p.train_loss(w) < first
        assert p.test_metric(w) <= 0.1

    @pytest.mark.parametrize("cls", [LogisticProblem, HingeSVMProblem])
    def test_evaluate_is_train_loss_and_test_metric(self, cls):
        p = self._problem(cls)
        rng = np.random.default_rng(4)
        for w in (np.zeros(6), rng.standard_normal(6), 50.0 * rng.standard_normal(6)):
            loss, metric = p.evaluate(w)
            assert _bits(loss) == _bits(p.train_loss(w))
            assert _bits(metric) == _bits(p.test_metric(w))

    @pytest.mark.parametrize("cls", [LogisticProblem, HingeSVMProblem])
    def test_gradients_are_per_shard_gradient(self, cls):
        p = self._problem(cls)
        rng = np.random.default_rng(5)
        for w in (np.zeros(6), rng.standard_normal(6), 50.0 * rng.standard_normal(6)):
            for w_workers in range(1, 6):
                for batch_size in (w_workers, 2 * w_workers + 1, 64):
                    shards = np.array_split(rng.choice(p.n_train, size=batch_size, replace=False), w_workers)
                    grads = p.gradients(w, shards)
                    assert len(grads) == w_workers
                    for g, idx in zip(grads, shards):
                        assert g.tobytes() == p.gradient(w, idx).tobytes()

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            self._problem(LogisticProblem, lam=-1.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cls", [LogisticProblem, HingeSVMProblem])
    def test_rejects_non_finite_lambda(self, cls, lam):
        # a NaN lambda fails `< 0` and used to surface only at the loss
        with pytest.raises(ValueError, match=f"lam must be a finite real in \\[0, inf\\), got {lam}"):
            self._problem(cls, lam=lam)
