"""Gradient oracles, dataset generation, and loader error paths."""

import numpy as np
import pytest

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
    prepare_features,
    split_dataset,
    synth_data,
)


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
    def test_gradient_zero_at_optimum(self):
        p = QuadraticProblem(np.array([1.0, 2.0, 4.0]), noise_sigma=0.0, n_samples=8, seed=0)
        assert np.allclose(p.full_gradient(p.w_star), 0.0)
        assert p.test_metric(p.w_star) == 0.0
        assert p.test_metric(p.w_star + 1.0) > 0.0

    def test_mean_per_sample_equals_full_gradient(self):
        p = QuadraticProblem(np.linspace(0.5, 2.0, 6), noise_sigma=0.3, n_samples=64, seed=3)
        w = np.random.default_rng(1).standard_normal(6)
        idx = np.arange(p.n_train)
        np.testing.assert_allclose(
            p.per_sample_gradients(w, idx).mean(axis=0), p.full_gradient(w), atol=1e-12
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
            p.per_sample_gradients(w, idx).mean(axis=0), p.gradient(w, idx), atol=1e-12
        )

    @pytest.mark.parametrize("cls", [LogisticProblem, HingeSVMProblem])
    def test_full_gradient_is_whole_set_batch(self, cls):
        p = self._problem(cls)
        w = np.random.default_rng(3).standard_normal(6)
        np.testing.assert_allclose(p.gradient(w, np.arange(200)), p.full_gradient(w), atol=1e-12)

    def test_descent_reduces_loss_and_error(self):
        p = self._problem(LogisticProblem)
        w = np.zeros(6)
        first = p.train_loss(w)
        for _ in range(60):
            w -= 0.5 * p.full_gradient(w)
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

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            self._problem(LogisticProblem, lam=-1.0)
