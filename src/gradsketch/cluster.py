"""Simulated star-topology parameter server with byte-exact accounting.

Workers and server live in one process, but every message still crosses a
channel that serializes it with the wire codecs, decodes it back, and meters
both bytes and element counts.  Every metrics row's traffic counts, and the
byte compression factor summed from them, are therefore measured from real
serialized frames, never estimated.  The element compression factor is not
measured: ``config_compression_factor`` evaluates its formula from the
configuration (per worker and per round, the sketch upload, the exact-value
upload, and the broadcast update; the index request is excluded by
convention), so it leaves out the bias coordinates a round moves.

``run_training`` drives the optimizer rounds over a problem: draw a batch,
split it contiguously across workers, run the configured round function
through the channel, and record losses plus communication stats for every
round.
Everything is deterministic given the data, sketch, and fill seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gradsketch import wire
from gradsketch.metrics import RoundRecord, RunMetrics, support_fingerprint
from gradsketch.optim import (
    IterateAverage,
    OptimizerConfig,
    TrainingDivergedError,
    empirical_round,
    local_topk_step,
    lr_at,
    make_states,
    theory_round,
    true_topk_step,
    vanilla_step,
)
from gradsketch.sketch import CountSketch, SketchConfig


# One row per message kind, keyed by the channel method that sends it:
# (wire tag, encoder, decoder, element count, (bytes field, elements
# field)), the fields being the ``RoundRecord`` columns the message feeds.
# The codecs are looked up in ``wire`` and on the message on every call, so
# rebinding one (as a tracer does) takes effect; a decoder gets the sent
# message for what the receiver already knows (sketch config, vector
# dimension).  The request's element count feeds no column.
_KINDS = {
    "up_sketch": (wire.TAG_SKETCH_UP, lambda sketch: sketch.to_bytes(),
                  lambda payload, sent: wire.decode_sketch(payload, sent.config),
                  lambda sketch: sketch.table.size, ("bytes_up", "up_sketch_elems")),
    "request_indices": (wire.TAG_EXACT_REQUEST, lambda indices: wire.encode_indices(indices),
                        lambda payload, _: wire.decode_indices(payload), len, ("bytes_request",)),
    "up_values": (wire.TAG_EXACT_UP, lambda values: wire.encode_values(values),
                  lambda payload, _: wire.decode_values(payload), len, ("bytes_up", "up_exact_elems")),
    # sparse uploads are exact (index, value) entries; they play the role of
    # the exact-value round in the element accounting
    "up_sparse": (wire.TAG_SPARSE_UP, lambda vec: wire.encode_sparse(vec),
                  lambda payload, sent: wire.decode_sparse(payload, sent.d), len, ("bytes_up", "up_exact_elems")),
    "down_update": (wire.TAG_UPDATE_DOWN, lambda vec: wire.encode_sparse(vec),
                    lambda payload, sent: wire.decode_sparse(payload, sent.d), len, ("bytes_down", "down_update_elems")),
    "down_values": (wire.TAG_VALUES_DOWN, lambda values: wire.encode_values(values),
                    lambda payload, _: wire.decode_values(payload), len, ("bytes_down", "down_update_elems")),
}
_UPLINK_FIELDS = ("bytes_up", "up_sketch_elems", "up_exact_elems")


class MeteredChannel:
    """In-process transport that serializes, decodes, and meters every message.

    Each call frames its message, unframes and decodes it, and hands the
    decoded object onward, so any codec defect corrupts the run instead of
    hiding.  Tallies accumulate per round, under the ``RoundRecord`` fields
    they feed; ``start_round`` clears them.  ``uplink`` holds one record per
    uploading worker; ``downlink`` holds the request and the update
    broadcast, tallied once (each worker receives the same copy).
    """

    def __init__(self):
        self.start_round()

    def start_round(self) -> None:
        self.uplink: dict[int, dict[str, int]] = {}
        self.downlink = dict.fromkeys(("bytes_request", "bytes_down", "down_update_elems"), 0)

    def _send(self, kind: str, message, worker: int | None = None):
        """Carry ``message`` as a ``kind`` message (see ``_KINDS``): frame it,
        unframe it as the receiver does, which raises ``WireError`` on any
        other tag, decode it, and add its frame bytes and element count to
        the kind's fields (in ``worker``'s uplink record for an upload)."""
        tag, encode, decode, count, fields = _KINDS[kind]
        blob = wire.frame(tag, encode(message))
        received_tag, payload = wire.unframe(blob)
        if received_tag != tag:
            raise wire.WireError(f"expected a frame tagged {tag}, received tag {received_tag}")
        decoded = decode(payload, message)
        record = self.downlink if worker is None else self.uplink.setdefault(worker, dict.fromkeys(_UPLINK_FIELDS, 0))
        for name, amount in zip(fields, (len(blob), count(decoded))):
            record[name] += amount
        return decoded

    def up_sketch(self, sketch: CountSketch, worker: int) -> CountSketch:
        return self._send("up_sketch", sketch, worker)

    def request_indices(self, indices: np.ndarray) -> np.ndarray:
        return self._send("request_indices", indices)

    def up_values(self, values: np.ndarray, worker: int) -> np.ndarray:
        return self._send("up_values", values, worker)

    def up_sparse(self, vec, worker: int):
        return self._send("up_sparse", vec, worker)

    def down_update(self, vec):
        return self._send("down_update", vec)

    def down_values(self, values: np.ndarray) -> np.ndarray:
        return self._send("down_values", values)


def account_round(
    sketch_config: SketchConfig | None,
    config: OptimizerConfig,
    d: int,
    channel: MeteredChannel,
) -> dict[str, int]:
    """One round's channel tallies as the ``RoundRecord`` traffic fields.

    Element counts are per worker: the sketch upload (r*c cells), the exact
    upload (value replies plus any sparse entries), and the broadcast update
    each worker receives.  ``bytes_up`` is per worker, ``bytes_down`` is the
    broadcast frame, and ``bytes_request`` is the index request the element
    formula excludes.

    Enforces the protocol the accounting relies on: every worker uploaded
    the same byte and element counts, and a sketched round's uploads are
    exactly the configured table size and exactly k (theory) or at most
    ``min(P*k, d)`` plus the bias coordinates (empirical) exact values.
    """
    uplinks = [channel.uplink.get(w, dict.fromkeys(_UPLINK_FIELDS, 0)) for w in range(config.w_workers)]
    for name in _UPLINK_FIELDS:
        counts = [up[name] for up in uplinks]
        if len(set(counts)) > 1:
            raise RuntimeError(f"asymmetric per-worker upload {name} counts: {counts}")
    sketch_elems, exact_elems = uplinks[0]["up_sketch_elems"], uplinks[0]["up_exact_elems"]
    if sketch_config is not None and sketch_elems not in (0, sketch_config.r * sketch_config.c):
        raise RuntimeError(
            f"sketch upload of {sketch_elems} cells does not match configured {sketch_config.r}x{sketch_config.c}"
        )
    if sketch_elems:
        if config.mode == "theory" and exact_elems != config.k:
            raise RuntimeError(f"exact upload of {exact_elems} values, theory mode sends exactly k={config.k}")
        budget = min(config.p * config.k, d) + len(config.bias_indices)
        if config.mode == "empirical" and exact_elems > budget:
            raise RuntimeError(f"exact upload of {exact_elems} values exceeds the candidate budget {budget}")
    return {**uplinks[0], **channel.downlink}


def partition_batch(batch: np.ndarray, w_workers: int) -> list[np.ndarray]:
    """Split sample indices into W contiguous shards with sizes differing <= 1."""
    if w_workers < 1:
        raise ValueError(f"worker count must be positive, got {w_workers}")
    return np.array_split(np.asarray(batch), w_workers)


@dataclass
class TrainingResult:
    """What a run hands back: metrics plus the raw vectors tests care about."""

    metrics: RunMetrics
    final_w: np.ndarray
    averaged_w: np.ndarray | None
    update_supports: list[np.ndarray]


def _config_echo(problem, config: OptimizerConfig, sketch_config, batch_size, data_seed, rng_seed):
    echo: dict[str, object] = {
        "problem.kind": problem.kind,
        "problem.d": problem.d,
        "problem.n_train": problem.n_train,
        "run.batch_size": batch_size,
        "optimizer.mode": config.mode,
        "optimizer.algorithm": config.algorithm,
        "optimizer.k": config.k,
        "optimizer.p": config.p,
        "optimizer.t_rounds": config.t_rounds,
        "optimizer.w_workers": config.w_workers,
        "optimizer.momentum": config.momentum,
        "optimizer.xi": "-" if config.xi is None else config.xi,
        "optimizer.beta": config.beta,
        "optimizer.mu_scale": config.mu_scale,
        "optimizer.lr": config.lr,
        "optimizer.lr_points": ";".join(f"{t}:{v}" for t, v in config.lr_points) or "-",
        "optimizer.bias_indices": ",".join(str(b) for b in config.bias_indices) or "-",
        "seeds.data": data_seed,
        "seeds.rng": rng_seed,
    }
    if sketch_config is not None:
        echo["sketch.r"] = sketch_config.r
        echo["sketch.c"] = sketch_config.c
        echo["sketch.seed"] = sketch_config.seed
    return echo


def config_compression_factor(config: OptimizerConfig, sketch_config, d: int, mean_union: float | None = None) -> float:
    """The element formula evaluated from configuration alone, not counted.

    Sketched rounds move the sketch, the exact values (``P*k`` candidates in
    empirical mode, k in theory mode), and the k-sparse update.  Dense
    baselines move d up and d down (factor 1), true top-k moves d up and k
    down, and local top-k moves k up and the measured mean union down (it
    has no configured down size; that is the one measured term).  The bias
    coordinates of an empirical round, uploaded and broadcast every round,
    are not in the formula, so with ``bias_indices`` set it reads above the
    factor the rows' element counts give.
    """
    if config.algorithm == "sketched":
        table = sketch_config.r * sketch_config.c
        second = min(config.p * config.k, d) if config.mode == "empirical" else config.k
        return 2.0 * d / (table + second + config.k)
    if config.algorithm == "vanilla":
        return 1.0
    if config.algorithm == "true-topk":
        return 2.0 * d / (d + config.k)
    union = config.k if mean_union is None else mean_union
    return 2.0 * d / (config.k + union)


def _gradient_statistics(grads: list[np.ndarray]) -> tuple[float, float]:
    """Squared norm of the worker-mean gradient, and the workers' mean
    squared distance from it.

    Uses two length-d buffers but the operations, in their order, of
    ``mean = sum(grads) / W`` (whose sum starts from 0) and of
    ``sum((g - mean) @ (g - mean) for g in grads) / W``, so the values keep
    their bits.  Overflow and NaN warnings are silenced: the caller checks
    both results and names the offending worker itself.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add(0.0, grads[0])
        for g in grads[1:]:
            mean += g
        mean /= len(grads)
        mean_sq = float(mean @ mean)
        dev = np.empty_like(mean)
        dispersion = 0
        for g in grads:
            np.subtract(g, mean, out=dev)
            dispersion += float(dev @ dev)
    return mean_sq, dispersion / len(grads)


def run_training(
    problem,
    config: OptimizerConfig,
    sketch_config: SketchConfig | None,
    *,
    batch_size: int,
    data_seed: int,
    rng_seed: int,
    extra_echo: dict[str, object] | None = None,
) -> TrainingResult:
    """Run T rounds of the configured optimizer and record everything.

    The batch sequence depends only on ``data_seed`` (never on W), shards
    are contiguous, and the heavymix fill seeds derive from ``rng_seed`` per
    round, so two runs with equal seeds are bit-identical and runs differing
    only in W see the same data.

    Raises TrainingDivergedError the first time a worker computes a
    non-finite gradient (before it reaches any accumulator), a merged
    sketch holds a non-finite cell (naming the worker whose sketch has
    one), or the train loss goes non-finite, and ValueError for
    inconsistent configuration.
    """
    d = problem.d
    config.validate_for_dimension(d)
    if config.algorithm == "sketched":
        if sketch_config is None:
            raise ValueError("sketched runs need a sketch configuration")
        if sketch_config.d != d:
            raise ValueError(f"sketch dimension {sketch_config.d} does not match problem dimension {d}")
    if not 1 <= batch_size <= problem.n_train:
        raise ValueError(f"batch size must be in [1, {problem.n_train}], got {batch_size}")
    if batch_size < config.w_workers:
        raise ValueError(f"batch of {batch_size} cannot cover {config.w_workers} workers")

    w0 = problem.initial_point(data_seed)
    states = make_states(w0, config.w_workers)
    channel = MeteredChannel()
    order_rng = np.random.default_rng(data_seed)
    fill_seeds = np.random.SeedSequence(rng_seed).generate_state(max(config.t_rounds, 1), dtype=np.uint64)
    averager = IterateAverage(config.xi) if config.mode == "theory" else None
    # looked up by name on every run, so rebinding a module-level round name takes effect
    round_fn = {"vanilla": vanilla_step, "true-topk": true_topk_step, "local-topk": local_topk_step,
                "sketched": theory_round if config.mode == "theory" else empirical_round}[config.algorithm]

    metrics = RunMetrics(config_echo={})
    echo = _config_echo(problem, config, sketch_config, batch_size, data_seed, rng_seed)
    if extra_echo:
        echo.update(extra_echo)
    metrics.config_echo = {key: str(value) for key, value in echo.items()}

    loss0, metric0 = problem.evaluate(states[0].w)
    metrics.records.append(RoundRecord(t=0, train_loss=loss0, test_metric=metric0))

    supports: list[np.ndarray] = []
    grad_sq_max = 0.0
    dispersion_sum = 0.0

    for t in range(1, config.t_rounds + 1):
        batch = order_rng.choice(problem.n_train, size=batch_size, replace=False)
        shards = partition_batch(batch, config.w_workers)
        # the replicas are equal at every round start (checked after each round)
        grads = problem.gradients(states[0].w, shards)
        mean_sq, dispersion = _gradient_statistics(grads)
        if not np.isfinite(mean_sq + dispersion):
            # any non-finite entry makes the mean, hence mean_sq, non-finite;
            # an overflowing norm of finite gradients is let through
            for worker, g in enumerate(grads):
                if not np.isfinite(g).all():
                    raise TrainingDivergedError(f"round {t}: worker {worker} computed a non-finite gradient")
        grad_sq_max = max(grad_sq_max, mean_sq)
        dispersion_sum += dispersion

        if averager is not None:
            averager.add(t, states[0].w)
        channel.start_round()
        try:
            update = round_fn(states, grads, lr_at(t, config), config, sketch_config, int(fill_seeds[t - 1]), channel)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"round {t}: {exc}") from None

        for other in states[1:]:
            if not np.array_equal(states[0].w, other.w):
                raise RuntimeError(f"round {t}: worker replicas diverged")

        loss, test_metric = problem.evaluate(states[0].w)
        if not np.isfinite(loss):
            raise TrainingDivergedError(f"round {t}: non-finite train loss {loss!r}")
        supports.append(np.array(update.indices, dtype=np.int64))
        metrics.records.append(
            RoundRecord(
                t=t,
                train_loss=loss,
                test_metric=test_metric,
                support_size=len(update),
                union_size=len(update),
                support_hash=support_fingerprint(update.indices),
                **account_round(sketch_config, config, d, channel),
            )
        )

    averaged_w = None
    final_w = states[0].w.copy()
    summary: dict[str, object] = {
        "final_train_loss": metrics.records[-1].train_loss,
        "final_test_metric": metrics.records[-1].test_metric,
    }
    if averager is not None and config.t_rounds >= 1:
        averaged_w = averager.finalize()
        summary["averaged_test_metric"] = problem.test_metric(averaged_w)
    rounds = max(config.t_rounds, 1)
    past = metrics.records[1:]
    bytes_up_total = config.w_workers * sum(rec.bytes_up for rec in past)
    bytes_down_total = config.w_workers * sum(rec.bytes_down for rec in past)
    mean_union = sum(rec.support_size for rec in past) / rounds
    summary["compression_factor"] = config_compression_factor(
        config, sketch_config, d, mean_union if config.algorithm == "local-topk" else None
    )
    if config.t_rounds >= 1:
        per_worker_moved = (bytes_up_total + bytes_down_total) / (config.w_workers * config.t_rounds)
        summary["byte_compression_factor"] = 16.0 * d / per_worker_moved
    else:
        summary["byte_compression_factor"] = 1.0
    summary["bytes_up_total"] = bytes_up_total
    summary["bytes_down_total"] = bytes_down_total
    summary["bytes_request_total"] = config.w_workers * sum(rec.bytes_request for rec in past)
    summary["mean_union_size"] = mean_union
    summary["grad_sq_max"] = grad_sq_max
    summary["grad_dispersion"] = dispersion_sum / rounds
    metrics.summary = summary

    return TrainingResult(
        metrics=metrics,
        final_w=final_w,
        averaged_w=averaged_w,
        update_supports=supports,
    )
