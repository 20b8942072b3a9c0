"""Convex test problems and dataset plumbing for the training loop.

Three problem families are supported: a diagonal noisy quadratic (closed-form
optimum, used wherever trajectories must be checked exactly), l2-regularized
logistic regression, and a linear SVM with hinge subgradients.  A batch
gradient is the mean of per-sample gradients, so a batch split across
workers in equal shards has a worker mean equal to the batch mean, which is
what makes single-node and multi-node runs comparable.

The training loop uses a problem through ``d``, ``n_train``,
``initial_point(seed)``, ``gradients(w, shards, out)`` once per round,
``evaluate(w) -> (train_loss, test_metric)`` once per round,
``test_metric(w)`` for the theory mode's averaged iterate, and ``kind``.
``gradients`` returns the mean gradient of each shard of sample indices at
the one point ``w`` (replica 0's, since all replicas are equal), as a list in
shard order, by calling ``gradient(w, idx)`` once per shard (the quadratic
passes it the ``A w - b`` it built once).  ``out`` is last round's list, or
None: the quadratic writes shard i's gradient into ``out[i]`` with the same
bits and returns those arrays; the dataset problems ignore it.
``evaluate`` returns exactly ``(train_loss(w), test_metric(w))``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from gradsketch._params import divide_by_count, integer, real


class DatasetFormatError(ValueError):
    """Raised when a dataset file cannot be parsed; carries line context."""


@dataclass
class Dataset:
    """A labeled design matrix.

    Attributes:
        features: (n, d) float64 matrix.
        labels: (n,) int64; -1/+1 for binary tasks, class ids otherwise.
        name: human-readable provenance tag.

    ``checksum`` is computed on first read, not at construction, so do not
    mutate ``features`` or ``labels`` before reading it.
    """

    features: np.ndarray
    labels: np.ndarray
    name: str

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.labels.shape != (self.features.shape[0],):
            raise ValueError("features must be (n, d) with one label per row")

    @cached_property
    def checksum(self) -> str:
        """sha256 over the canonical bytes of features and labels."""
        return _checksum(self.features, self.labels)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def binarize(self, positive_class: int) -> "Dataset":
        """One-vs-all reduction: ``positive_class`` maps to +1, the rest to -1."""
        labels = np.where(self.labels == positive_class, 1, -1).astype(np.int64)
        return Dataset(self.features, labels, f"{self.name}|1v.all({positive_class})")


def _checksum(features: np.ndarray, labels: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(features.shape, dtype=np.int64).tobytes())
    # hashed through the buffer protocol: no copy of a contiguous array
    h.update(np.ascontiguousarray(features, dtype="<f8"))
    h.update(np.ascontiguousarray(labels, dtype="<i8"))
    return h.hexdigest()


def synth_data(n: int, d: int, class_separation: float, seed: int) -> Dataset:
    """Two isotropic Gaussian blobs with means ``class_separation`` apart.

    Labels are balanced (+1 gets the extra sample when n is odd) and rows are
    shuffled, all deterministically in ``seed``.  Separation 0 makes the
    classes indistinguishable.
    """
    n, d, seed = integer("n", n, 1), integer("d", d, 1), integer("seed", seed, 0, 2**64 - 1)
    class_separation = real("class_separation", class_separation, "[0, inf)")
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    n_pos = (n + 1) // 2
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n - n_pos, dtype=np.int64)])
    # Shifting the rows in place gives the bits of adding
    # np.outer(labels, shift): (+-1.0) * shift is exact, and z + (-s) is z - s.
    features = rng.standard_normal((n, d))
    shift = 0.5 * class_separation * direction
    features[:n_pos] += shift
    features[n_pos:] -= shift
    # rng.permutation(n) is rng.shuffle(arange(n)), so shuffling the labels
    # and then the rows from one generator state gives labels[perm] and
    # features[perm]; a void view makes each row one item, swapped in place.
    state = rng.bit_generator.state
    rng.shuffle(labels)
    rng.bit_generator.state = state
    rng.shuffle(features.view(np.dtype((np.void, d * features.itemsize)))[:, 0])
    return Dataset(features, labels, f"blobs(n={n},d={d},sep={class_separation:g},seed={seed})")


def split_dataset(dataset: Dataset, n_train: int) -> tuple[Dataset, Dataset]:
    """Split one draw into train/test halves that share the distribution."""
    n_train = integer("n_train", n_train, 1, dataset.n - 1)
    train = Dataset(dataset.features[:n_train], dataset.labels[:n_train], f"{dataset.name}|train")
    test = Dataset(dataset.features[n_train:], dataset.labels[n_train:], f"{dataset.name}|test")
    return train, test


def load_dataset(path: str) -> Dataset:
    """Parse a whitespace-separated text dataset.

    Grammar: one sample per line; the first token is an integer label and the
    remaining tokens are finite float features (``nan`` and ``inf`` are
    rejected).  Blank lines and lines starting with ``#`` are skipped.  Every
    retained line must have the same number of features.  Errors report
    1-based line numbers.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    width = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                tokens = stripped.split()
                if len(tokens) < 2:
                    raise DatasetFormatError(f"{path}:{lineno}: need a label and at least one feature")
                try:
                    label = int(tokens[0])
                except ValueError:
                    raise DatasetFormatError(f"{path}:{lineno}: label {tokens[0]!r} is not an integer") from None
                if not -(1 << 63) <= label < 1 << 63:
                    raise DatasetFormatError(f"{path}:{lineno}: label {tokens[0]!r} is out of the int64 range")
                try:
                    feats = [float(t) for t in tokens[1:]]
                except ValueError:
                    raise DatasetFormatError(f"{path}:{lineno}: non-numeric feature token") from None
                if not all(map(math.isfinite, feats)):
                    bad = next(t for t, f in zip(tokens[1:], feats) if not math.isfinite(f))
                    raise DatasetFormatError(f"{path}:{lineno}: non-finite feature token {bad!r}")
                if width is None:
                    width = len(feats)
                elif len(feats) != width:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: row has {len(feats)} features, expected {width}"
                    )
                labels.append(label)
                rows.append(feats)
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no samples found")
    return Dataset(np.array(rows), np.array(labels), name=path)


def prepare_features(
    dataset: Dataset,
    normalize: bool = True,
    add_intercept: bool = True,
    bounds: tuple[float, float] | None = None,
) -> Dataset:
    """Scale features into [0, 1] and append a constant-1 intercept column.

    Scaling uses the matrix min/max, or ``bounds`` when given so that held
    out data can reuse the training scale (a degenerate range maps to
    zeros).  Runs that load external data apply this so weights include a
    bias term; the flags are echoed in run metadata.
    """
    X = dataset.features
    n, d = X.shape
    out = np.empty((n, d + 1) if add_intercept else (n, d))
    # Scaled into the output buffer itself: the same operations as
    # (X - lo) / (hi - lo), without a temporary or a stacking copy.
    scaled = out[:, :d]
    if not normalize:
        scaled[...] = X
    else:
        lo, hi = bounds if bounds is not None else (X.min(), X.max())
        if hi > lo:
            np.subtract(X, lo, out=scaled)
            scaled /= hi - lo
        else:
            scaled.fill(0.0)
    if add_intercept:
        out[:, d] = 1.0
    return Dataset(out, dataset.labels, f"{dataset.name}|prepared")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) elsewhere: it never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float = 0.0) -> float:
    margins = y * (X @ w)
    # log(1 + exp(-m)) computed stably for both signs of m
    losses = np.logaddexp(0.0, -margins)
    return float(np.mean(losses) + 0.5 * lam * (w @ w))


def logistic_gradient(w: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """Mean batch gradient of l2-regularized logistic loss."""
    margins = y * (X @ w)
    coeff = -y * _sigmoid(-margins)
    return divide_by_count(X.T @ coeff, X.shape[0]) + lam * w


def hinge_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray, lam: float = 0.0) -> float:
    margins = y * (X @ w)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)) + 0.5 * lam * (w @ w))


def hinge_subgradient(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean hinge subgradient, taking the zero branch at the kink.

    Rows with margin strictly below 1 contribute ``-y * x``; rows at or above
    the kink contribute zero.
    """
    margins = y * (X @ w)
    active = margins < 1.0
    if not active.any():
        return np.zeros_like(w)
    coeff = np.where(active, -y.astype(np.float64), 0.0)
    return divide_by_count(X.T @ coeff, X.shape[0])


def classification_error(w: np.ndarray, dataset: Dataset) -> float:
    """Fraction of misclassified samples; score 0 counts as the +1 side."""
    pred = np.where(dataset.features @ w >= 0, 1, -1)
    return float(np.mean(pred != dataset.labels))


class QuadraticProblem:
    """Noisy diagonal quadratic ``f(w) = 0.5 w'Aw - b'w`` with known optimum.

    The stochastic dataset is ``n_samples`` virtual samples, sample ``s``
    contributing gradient ``A w - b + noise[s]`` with iid Gaussian noise fixed
    at construction.  The mean per-sample gradient over the whole set is the
    full-objective gradient of the induced empirical objective exactly.
    """

    kind = "quadratic"

    def __init__(self, spectrum: np.ndarray, noise_sigma: float, n_samples: int, seed: int):
        self.spectrum = np.asarray(spectrum, dtype=np.float64)
        if self.spectrum.ndim != 1 or not self.spectrum.size or not np.all(np.isfinite(self.spectrum) & (self.spectrum > 0)):
            raise ValueError("spectrum must be a nonempty 1-d array of finite positive eigenvalues")
        noise_sigma, n_samples = real("noise_sigma", noise_sigma, "[0, inf)"), integer("n_samples", n_samples, 1)
        rng = np.random.default_rng(integer("seed", seed, 0, 2**64 - 1))
        self.b = rng.standard_normal(self.spectrum.size)
        self.noise = rng.normal(0.0, noise_sigma, size=(n_samples, self.spectrum.size)) if noise_sigma > 0 else np.zeros((n_samples, self.spectrum.size))
        self.noise_sigma = noise_sigma
        self._f_star = self._objective(self.w_star)

    @property
    def w_star(self) -> np.ndarray:
        """The optimum ``A^-1 b``, built on each read rather than kept."""
        return self.b / self.spectrum

    @property
    def d(self) -> int:
        return self.spectrum.size

    @cached_property
    def _noise_mean(self) -> np.ndarray:
        # Computed on first use rather than per call: evaluate needs it
        # every round.
        return self.noise.mean(axis=0)

    @property
    def n_train(self) -> int:
        return self.noise.shape[0]

    def _objective(self, w: np.ndarray) -> float:
        half = w * self.spectrum
        half *= 0.5
        return float(half @ w - self.b @ w)

    def initial_point(self, seed: int) -> np.ndarray:
        return np.random.default_rng(seed).standard_normal(self.d)

    def _base(self, w: np.ndarray) -> np.ndarray:
        """The noiseless gradient ``A w - b``, shared by every sample."""
        base = self.spectrum * w
        base -= self.b
        return base

    def gradient(self, w: np.ndarray, idx: np.ndarray, base: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
        """Mean gradient over ``idx``: ``base`` (built here when not given)
        plus the batch's mean noise, in ``out`` or a fresh buffer."""
        # The batch's noise rows are summed one after another into one buffer
        # and divided by the count, the operations noise[idx].mean(axis=0)
        # makes, without copying the rows.  At d = 1 numpy sums the column
        # pairwise instead, so there (and for a single row) it takes the mean.
        if self.d == 1 or len(idx) < 2:
            noise = self.noise[idx].mean(axis=0, out=out)
        else:
            noise = np.add(self.noise[idx[0]], self.noise[idx[1]], out=out)
            for i in idx[2:]:
                noise += self.noise[i]
            divide_by_count(noise, len(idx))
        # noise + base has the bits of base + noise: IEEE addition commutes
        noise += self._base(w) if base is None else base
        return noise

    def gradients(self, w: np.ndarray, shards: list[np.ndarray], out: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """``[gradient(w, idx) for idx in shards]``, building ``A w - b`` once."""
        base = self._base(w)
        return [self.gradient(w, idx, base, o) for idx, o in zip(shards, out or [None] * len(shards))]

    def train_loss(self, w: np.ndarray) -> float:
        return self._objective(w) + float(self._noise_mean @ w)

    def test_metric(self, w: np.ndarray) -> float:
        """Suboptimality ``f(w) - f(w*)`` of the noiseless objective."""
        return self._objective(w) - self._f_star

    def evaluate(self, w: np.ndarray) -> tuple[float, float]:
        """``(train_loss(w), test_metric(w))`` from one objective evaluation."""
        objective = self._objective(w)
        return objective + float(self._noise_mean @ w), objective - self._f_star


class _ErmProblem:
    """Shared batching/eval glue for dataset-backed problems."""

    def __init__(self, train: Dataset, test: Dataset, lam: float):
        lam = real("lam", lam, "[0, inf)")
        if train.d != test.d:
            raise ValueError("train and test dimension mismatch")
        self.train = train
        self.test = test
        self.lam = lam

    @property
    def d(self) -> int:
        return self.train.d

    @property
    def n_train(self) -> int:
        return self.train.n

    def initial_point(self, seed: int) -> np.ndarray:
        del seed  # classifiers start at the origin for reproducibility
        return np.zeros(self.d)

    def test_metric(self, w: np.ndarray) -> float:
        return classification_error(w, self.test)

    def evaluate(self, w: np.ndarray) -> tuple[float, float]:
        """``(train_loss(w), test_metric(w))``; nothing is shared between them."""
        return self.train_loss(w), self.test_metric(w)

    def gradients(self, w: np.ndarray, shards: list[np.ndarray], out: list[np.ndarray] | None = None) -> list[np.ndarray]:
        """``[gradient(w, idx) for idx in shards]``; nothing is shared between
        them, and ``out`` is not used."""
        return [self.gradient(w, idx) for idx in shards]


class LogisticProblem(_ErmProblem):
    kind = "logistic"

    def gradient(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return logistic_gradient(w, self.train.features[idx], self.train.labels[idx], self.lam)

    def train_loss(self, w: np.ndarray) -> float:
        return logistic_loss(w, self.train.features, self.train.labels, self.lam)


class HingeSVMProblem(_ErmProblem):
    kind = "hinge-svm"

    def gradient(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        X, y = self.train.features[idx], self.train.labels[idx]
        return hinge_subgradient(w, X, y) + self.lam * w

    def train_loss(self, w: np.ndarray) -> float:
        return hinge_loss(w, self.train.features, self.train.labels, self.lam)
