"""Training rounds: sketched updates with error feedback, plus baselines.

Two sketched modes are implemented.  The theory mode follows the analyzed
recursion exactly: the step size ``1/(t + xi)`` is folded into the error
accumulator before sketching, the recovered k-sparse vector is applied
unscaled, and every worker subtracts the full global update from its own
accumulator.  The empirical mode is the practical variant: momentum and
error accumulation run on raw gradients, candidates come from a top-``P*k``
query, the step size scales the update at apply time, and accumulators are
zeroed on the updated support (momentum factor masking).

Baselines share the empirical error-feedback structure with the compression
operator swapped: exact top-k of the mean accumulated vector (true top-k),
per-worker top-k with support union (local top-k), or no compression at all
(vanilla).

Every round function has one signature, ``(states, grads, lr_t, config,
sketch_config, rng_seed, channel)``, mutates the worker states in place
and returns the broadcast update as a ``KSparseVector`` (vanilla's on full
support).  Every message crosses ``channel``, a ``cluster.MeteredChannel``,
which serializes, decodes and meters it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from gradsketch._params import divide_by_count, integer, real
from gradsketch.heavyhitters import KSparseVector, heavymix, top_pk_candidates, topk_indices
from gradsketch.sketch import SketchConfig, merge_all, sketch_many
from gradsketch.sketch import sketch_vector  # noqa: F401  (perfbench/spans.py traces it under this name)

MODES = ("theory", "empirical")
ALGORITHMS = ("sketched", "vanilla", "true-topk", "local-topk")
# The one rule for which runs read an OptimizerConfig field that not every run
# reads: field -> (mode, algorithms).  On any other run it keeps its default.
_READ_BY = {
    "momentum": ("empirical", ("sketched", "true-topk", "local-topk")),
    "bias_indices": ("empirical", ("sketched",)),
    "lr": ("empirical", ALGORITHMS),
    "lr_points": ("empirical", ALGORITHMS),
    "xi": ("theory", ALGORITHMS),
    "mu_scale": ("theory", ALGORITHMS),
    "beta": ("theory", ("sketched",)),
}


class TrainingDivergedError(RuntimeError):
    """Raised when a run produces a non-finite gradient, sketch cell or loss."""


def rho_for(beta: float) -> float:
    beta = real("beta", beta, "(4, inf)")
    return 4.0 * beta / ((beta - 4.0) * (beta + 1.0) ** 2)


def min_xi(d: int, k: int, beta: float) -> float:
    """Smallest admissible xi for the theory-mode step size at dimension d."""
    return 2.0 + d * (1.0 + beta) / (k * (1.0 + rho_for(beta)))


def lr_theory(t: int, xi: float, mu_scale: float = 1.0) -> float:
    """Theory-mode step size ``1 / (mu_scale * (t + xi))`` for 1-based t."""
    t, xi, mu_scale = integer("t", t, 1), real("xi", xi, "(0, inf)"), real("mu_scale", mu_scale, "(0, inf)")
    return 1.0 / (mu_scale * (t + xi))


def lr_at(t: int, config: "OptimizerConfig") -> float:
    """Step size for 1-based round t under the configured schedule.

    Theory mode always uses the analyzed ``1/(mu_scale*(t+xi))`` decay.
    Empirical mode uses the constant ``lr`` unless ``lr_points`` defines a
    piecewise-linear schedule, which is clamped flat outside its breakpoints.
    """
    if config.mode == "theory":
        return lr_theory(t, config.xi, config.mu_scale)
    t = integer("t", t, 1)
    if not config.lr_points:
        return config.lr
    times = [p for p, _ in config.lr_points]
    values = [v for _, v in config.lr_points]
    return float(np.interp(t, times, values))


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything the round functions need besides the problem itself.

    ``p`` is the candidate multiplier of the second communication round and
    ``mu_scale`` rescales the theory step size (1 keeps the analyzed
    schedule).  A field the run does not read (``_READ_BY``) keeps its default.
    """

    mode: str
    algorithm: str = "sketched"
    k: int = 1
    p: int = 1
    t_rounds: int = 1
    w_workers: int = 1
    momentum: float = 0.0
    xi: float | None = None
    beta: float = 5.0
    mu_scale: float = 1.0
    bias_indices: tuple[int, ...] = ()
    lr: float = 0.1
    lr_points: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        # counts kept as Python ints, so no narrow numpy type reaches p * k
        for name, low in (("k", 1), ("p", 1), ("t_rounds", 0), ("w_workers", 1)):
            object.__setattr__(self, name, integer(name, getattr(self, name), low))
        bias = [integer(f"bias_indices[{i}]", b, 0) for i, b in enumerate(self.bias_indices)]
        for name, interval in (("lr", "(0, inf)"), ("beta", "(4, inf)"), ("mu_scale", "(0, inf)"), ("momentum", "[0, 1)")):
            real(name, getattr(self, name), interval)
        if self.xi is not None:
            real("xi", self.xi, "(0, inf)")
        for i, (t_point, lr_value) in enumerate(self.lr_points):
            real(f"lr_points[{i}] t", t_point, "[1, inf)")
            real(f"lr_points[{i}] lr", lr_value, "(0, inf)")
        if self.mode == "theory" and self.xi is None:
            raise ValueError("xi is required in theory mode (it defines the step-size schedule)")
        if len(set(bias)) != len(bias):
            raise ValueError("bias_indices must be unique")
        # kept sorted: the bias goes out as an index request, which must increase
        object.__setattr__(self, "bias_indices", tuple(sorted(bias)))
        object.__setattr__(self, "lr_points", tuple(map(tuple, self.lr_points)))  # [] is the default ()
        times = [t_point for t_point, _ in self.lr_points]
        if sorted(times) != times or len(set(times)) != len(times):
            raise ValueError("lr_points breakpoints must be strictly increasing in t")
        for name, (mode, algorithms) in _READ_BY.items():
            unread = self.mode != mode or self.algorithm not in algorithms
            if unread and getattr(self, name) != self.__dataclass_fields__[name].default:
                raise ValueError(f"{name} is not read by {self.mode} {self.algorithm} runs")

    def validate_for_dimension(self, d: int) -> None:
        """Dimension-dependent checks deferred until the problem is known.
        A bias index is named by its place in the sorted ``bias_indices``."""
        integer("k", self.k, 1, d)
        for i, b in enumerate(self.bias_indices):
            integer(f"bias_indices[{i}]", b, 0, d - 1)
        budget = min(self.p * self.k, d)
        if self.bias_indices and budget - len(self.bias_indices) < self.k:
            raise ValueError(f"p = {self.p} gives a candidate budget of min(p * k, d) = {budget}, "
                             f"fewer than k + len(bias_indices) = {self.k + len(self.bias_indices)}")
        if self.mode == "theory" and self.algorithm == "sketched":
            real("xi", self.xi, f"({min_xi(d, self.k, self.beta)!r}, inf)")


@dataclass
class WorkerState:
    """Per-worker replica: parameters, momentum buffer, error accumulator.

    ``momentum`` stays ``None`` until the first round with a momentum factor
    above 0 allocates it as zeros: at factor 0 the buffer would only ever
    hold a copy of the gradient (see :func:`_accumulate`).  Theory mode
    accumulates step-scaled gradients into ``accum`` and never allocates
    it.  All replicas hold the full parameter vector and must remain
    bit-identical across workers at round boundaries.
    """

    w: np.ndarray
    momentum: np.ndarray | None = field(init=False, default=None)
    accum: np.ndarray = field(init=False)

    def __post_init__(self):
        self.accum = np.zeros(self.w.shape[0])


def make_states(w0: np.ndarray, n_workers: int) -> list[WorkerState]:
    """W replicas all starting from the same parameter vector."""
    return [WorkerState(w=np.array(w0, dtype=np.float64)) for _ in range(n_workers)]


@dataclass
class IterateAverage:
    """Running ``(xi + t)^2``-weighted average of the pre-update iterates."""

    xi: float
    weighted_sum: np.ndarray | None = None
    total_weight: float = 0.0

    def add(self, t: int, w: np.ndarray) -> None:
        q = (self.xi + t) ** 2
        if self.weighted_sum is None:
            self.weighted_sum = q * w
        else:
            self.weighted_sum += q * w
        self.total_weight += q

    def finalize(self) -> np.ndarray:
        if self.weighted_sum is None or self.total_weight <= 0:
            raise ValueError("cannot finalize an empty iterate average")
        return self.weighted_sum / self.total_weight


def exact_mean(vectors: list[np.ndarray], channel, indices: np.ndarray | None = None) -> np.ndarray:
    """Worker mean of ``vectors`` through ``channel``: at ``indices`` after one
    index request (the exact second round), else of whole dense uploads.
    Replies sum in worker order from the first one, so ``-0.0`` survives."""
    if indices is not None:
        indices = channel.request_indices(indices)
    total = None
    for worker, vec in enumerate(vectors):
        reply = channel.up_values(vec if indices is None else vec[indices], worker)
        total = reply if total is None else np.add(total, reply, out=total)
        del reply  # each reply is a fresh decoded array, summed in place: none outlives its sum
    return divide_by_count(total, len(vectors))


def _accumulate(states: list[WorkerState], grads: list[np.ndarray], momentum: float) -> None:
    """The momentum recursion in place: ``m = momentum * m + g``, then
    ``accum += m``; the step scales the update at apply time.

    At momentum 0 the gradient goes straight into ``accum``, with no
    momentum buffer, and the bits are those of ``m *= 0; m += g; accum +=
    m``.  ``accum`` starts at +0.0 and only ever receives sums, +0.0 mask
    writes and round-to-nearest subtractions, none of which turns a cell
    that is not -0.0 into -0.0, so it never holds -0.0.  With a finite
    ``g``, ``0 * m + g`` differs from ``g`` only where ``g`` is -0.0, and
    ``accum + (+-0.0)`` has the same bits either way when ``accum`` is not
    -0.0.  A non-finite ``g`` would differ a round later (``0 * inf`` is
    NaN); ``run_training`` raises before accumulating one.  A run's
    momentum factor is fixed by its config, so a buffer first allocated at
    a factor above 0 starts from the zeros the recursion starts from.
    """
    for st, g in zip(states, grads):
        if momentum == 0.0:
            st.accum += g
        else:
            if st.momentum is None:
                st.momentum = np.zeros_like(st.accum)
            st.momentum *= momentum
            st.momentum += g
            st.accum += st.momentum


def _apply(states: list[WorkerState], update: KSparseVector, lr_t: float, masks) -> None:
    """Step every replica by ``lr_t * update``, then zero each worker's
    momentum (if it has a buffer) and accumulator on its own mask
    (momentum factor masking)."""
    for st, mask in zip(states, masks):
        st.w[update.indices] -= lr_t * update.values
        if st.momentum is not None:
            st.momentum[mask] = 0.0
        st.accum[mask] = 0.0


def _merged_sketch(vectors: list[np.ndarray], sketch_config: SketchConfig, channel):
    """Sketch every worker's vector in one pass, upload each sketch, and
    merge to the worker mean.

    Finite accumulators can still overflow a cell, and a non-finite cell is
    valid wire bytes, so the round checks the merge: one ``isfinite`` pass
    over the merged table, and only when it fails a scan of the received
    sketches for the first worker whose table is not finite.  Raises
    ``TrainingDivergedError`` naming that worker, or the merge when every
    worker's table is finite and their sum overflows.
    """
    sketches = sketch_many(sketch_config, vectors)
    received = [channel.up_sketch(sketch, worker) for worker, sketch in enumerate(sketches)]
    with np.errstate(over="ignore", invalid="ignore"):
        merged = merge_all(received)
    if not np.isfinite(merged.table).all():
        for worker, sketch in enumerate(received):
            if not np.isfinite(sketch.table).all():
                raise TrainingDivergedError(f"worker {worker} sent a sketch with a non-finite cell")
        raise TrainingDivergedError("the merge of finite worker sketches has a non-finite cell")
    return merged.scale(1.0 / len(vectors))


def theory_round(
    states: list[WorkerState], grads: list[np.ndarray], lr_t: float, config: OptimizerConfig,
    sketch_config: SketchConfig, rng_seed: int, channel,
) -> KSparseVector:
    """One analyzed-mode round; mutates states in place, returns the update.

    Per worker: add ``lr_t * g`` to the error accumulator (the step size is
    folded in here, not at apply time), sketch, and send.  The server
    merges to the worker mean, extracts k coordinates, fetches their exact
    mean values, and broadcasts.  Every worker applies the update unscaled
    and subtracts the full global update from its accumulator.
    """
    for st, g in zip(states, grads):
        st.accum += lr_t * g
    accums = [st.accum for st in states]
    support = heavymix(_merged_sketch(accums, sketch_config, channel), config.k, rng_seed)
    values = exact_mean(accums, channel, support)
    update = channel.down_update(KSparseVector(d=sketch_config.d, indices=support, values=values))
    for st in states:
        st.w[update.indices] -= update.values
        st.accum[update.indices] -= update.values
    return update


def empirical_round(
    states: list[WorkerState], grads: list[np.ndarray], lr_t: float, config: OptimizerConfig,
    sketch_config: SketchConfig, rng_seed: int, channel,
) -> KSparseVector:
    """One practical-mode round; mutates states in place, returns the update.

    Momentum and error accumulation run per worker on raw gradients.  When
    ``bias_indices`` is set, the server first fetches the bias coordinates'
    exact mean values, and every worker then clears them in its accumulator,
    so the sketch summarizes only the compressible coordinates.  The server
    takes the top ``min(P*k, d)`` estimated coordinates, fetches exact mean
    values, keeps the k largest, and broadcasts them with the bias values.
    The update is applied scaled by ``lr_t`` and the accumulators are
    zeroed on the updated support.
    """
    del rng_seed  # candidate selection is deterministic in this mode
    bias = np.asarray(config.bias_indices, dtype=np.int64)
    _accumulate(states, grads, config.momentum)
    accums = [st.accum for st in states]
    if bias.size:
        bias_values = exact_mean(accums, channel, bias)
        for accum in accums:
            accum[bias] = 0.0
    candidates = top_pk_candidates(_merged_sketch(accums, sketch_config, channel), config.p, config.k)
    if bias.size:
        candidates = candidates[~np.isin(candidates, bias)]
    exact = exact_mean(accums, channel, candidates)
    keep = topk_indices(exact, config.k)
    support = candidates[keep]
    values = exact[keep]
    if bias.size:
        support = np.concatenate([support, bias])
        values = np.concatenate([values, bias_values])
        order = np.argsort(support)
        support, values = support[order], values[order]
    update = channel.down_update(KSparseVector(d=sketch_config.d, indices=support, values=values))
    _apply(states, update, lr_t, repeat(update.indices))
    return update


def vanilla_step(
    states: list[WorkerState], grads: list[np.ndarray], lr_t: float, config: OptimizerConfig,
    sketch_config: SketchConfig | None, rng_seed: int, channel,
) -> KSparseVector:
    """Uncompressed data-parallel SGD step; returns the mean gradient on full support."""
    mean_grad = channel.down_values(exact_mean(grads, channel))
    for st in states:
        st.w -= lr_t * mean_grad
    return KSparseVector(d=mean_grad.size, indices=np.arange(mean_grad.size), values=mean_grad)


def true_topk_step(
    states: list[WorkerState], grads: list[np.ndarray], lr_t: float, config: OptimizerConfig,
    sketch_config: SketchConfig | None, rng_seed: int, channel,
) -> KSparseVector:
    """Error-feedback step whose compressor is exact top-k of the mean accumulator.

    The server needs the full mean accumulated vector, so each worker uploads
    it densely; this baseline bounds what any k-sparse selection could do.
    """
    _accumulate(states, grads, config.momentum)
    mean_accum = exact_mean([st.accum for st in states], channel)
    support = topk_indices(mean_accum, config.k)
    update = channel.down_update(KSparseVector(d=mean_accum.size, indices=support, values=mean_accum[support]))
    _apply(states, update, lr_t, repeat(update.indices))
    return update


def _union(supports: list[np.ndarray]) -> np.ndarray:
    """Sorted distinct indices of the nonempty ``supports``: the values and
    dtype of ``np.unique(np.concatenate(supports))``, from a sort and a pass
    that drops adjacent repeats, which at a few thousand indices costs a
    small fraction of ``np.unique``'s time."""
    merged = np.sort(np.concatenate(supports))
    return merged[np.concatenate(([True], merged[1:] != merged[:-1]))]


def local_topk_step(
    states: list[WorkerState], grads: list[np.ndarray], lr_t: float, config: OptimizerConfig,
    sketch_config: SketchConfig | None, rng_seed: int, channel,
) -> KSparseVector:
    """Per-worker exact top-k with union support.

    Each worker uploads the top k entries of its own accumulator and zeroes
    only what it sent (per-worker error feedback).  The server averages the
    sparse contributions over all W workers, so the union support can reach
    ``min(k * W, d)`` elements on the way back down.  Each worker ranks its
    accumulator as soon as it has added its gradient, while the array is
    still in cache; no worker's step reads another's state.
    """
    d = states[0].w.shape[0]
    own_supports = []
    for st, g in zip(states, grads):
        _accumulate([st], [g], config.momentum)
        own_supports.append(topk_indices(st.accum, config.k))
    summed = np.zeros(d)
    for worker, (st, own) in enumerate(zip(states, own_supports)):
        sent = channel.up_sparse(KSparseVector(d=d, indices=own, values=st.accum[own]), worker)
        summed[sent.indices] += sent.values
    # contributions can cancel to exactly zero in the sum; the union still
    # reflects every coordinate that was transmitted
    union = _union(own_supports)
    update = channel.down_update(KSparseVector(d=d, indices=union, values=divide_by_count(summed[union], len(states))))
    _apply(states, update, lr_t, own_supports)
    return update
