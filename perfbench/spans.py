"""Outside-in span tracing of a gradsketch training run.

The tracer replaces each entry point under the name its caller looks it up
by (``gradsketch.cluster.empirical_round``, ``gradsketch.optim.sketch_vector``,
the ``CountSketch`` and ``MeteredChannel`` methods, the ``gradsketch.wire``
codecs, the problem object's methods, ...) with a wrapper that records a
span: name, start, end, parent span and round id.  Spans stay in memory
until the run ends and are reduced to per-layer figures afterwards;
``remove`` puts every original object back.

A round runs from its first ``problem.gradient`` call to the first gradient
call of the next round (the last round ends when ``finish`` is called).  A
span's self time is its duration minus the durations of its direct children;
the time of a round covered by no span is the cluster loop's own work
(batch drawing, replica checks, loss bookkeeping).
"""

from __future__ import annotations

import time

import gradsketch.cluster as cluster
import gradsketch.heavyhitters as heavyhitters
import gradsketch.optim as optim
import gradsketch.sketch as sketch
import gradsketch.wire as wire

LAYERS = ("sketch", "heavyhitters", "wire", "cluster", "optim", "problems", "metrics")

_MISSING = object()

_PROBLEM_METHODS = ("gradient", "train_loss", "test_metric")

# (owner, attribute, span name) for every module-level or class-level entry
# point; the problem object's methods are added per run.
_ENTRY_POINTS = [
    (sketch.HashFamily, "__init__", "sketch.HashFamily.build"),
    (optim, "sketch_vector", "sketch.sketch_vector"),
    (sketch.CountSketch, "update_dense", "sketch.update_dense"),
    (sketch.CountSketch, "estimate_all", "sketch.estimate_all"),
    (optim, "merge_all", "sketch.merge"),
    (sketch.CountSketch, "scale", "sketch.scale"),
    (sketch.CountSketch, "to_bytes", "sketch.serialize"),
    (sketch.CountSketch, "from_bytes", "sketch.serialize"),
    (optim, "top_pk_candidates", "heavyhitters.top_pk_candidates"),
    (optim, "topk_indices", "heavyhitters.topk_indices"),
    (heavyhitters, "topk_indices", "heavyhitters.topk_indices"),
    *[(wire, fn, f"wire.{fn}") for fn in (
        "frame", "unframe",
        "encode_indices", "decode_indices",
        "encode_values", "decode_values",
        "encode_sparse", "decode_sparse",
    )],
    *[(cluster.MeteredChannel, fn, "cluster.channel") for fn in (
        "up_sketch", "request_indices", "up_values", "up_sparse", "down_update", "down_values",
    )],
    (cluster, "account_round", "cluster.account_round"),
    *[(cluster, fn, "optim.round") for fn in (
        "empirical_round", "theory_round", "true_topk_step", "local_topk_step", "vanilla_step",
    )],
    (cluster, "support_fingerprint", "metrics.support_fingerprint"),
]

class Tracer:
    """Records spans around gradsketch entry points for one training run.

    Args:
        problem: the problem object the run trains on; its ``gradient``,
            ``train_loss`` and ``test_metric`` are traced too.
        w_workers: gradient calls per round, which mark round boundaries.
    """

    def __init__(self, problem, w_workers: int):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.round_starts: list[float] = []
        self.end: float | None = None
        self.families: list[sketch.HashFamily] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._round = 0
        self._gradient_calls = 0
        self._w_workers = w_workers
        for owner, attr, name in _ENTRY_POINTS:
            self._wrap(owner, attr, name)
        for fn in _PROBLEM_METHODS:
            self._wrap(problem, fn, f"problems.{fn}")

    def _wrap(self, owner, attr: str, name: str) -> None:
        raw = vars(owner).get(attr, _MISSING)
        if raw is _MISSING:
            target = getattr(owner, attr)  # bound method of an instance
        elif isinstance(raw, classmethod):
            target = raw.__func__
        else:
            target = raw
        spans, stack = self.spans, self._stack
        is_gradient = name == "problems.gradient"
        is_build = name == "sketch.HashFamily.build"

        def traced(*args, **kwargs):
            if is_gradient:
                self._on_gradient()
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                return target(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._round)
                if is_build:
                    self.families.append(args[0])

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
        self._patches.append((owner, attr, raw))

    def _on_gradient(self) -> None:
        if self._gradient_calls % self._w_workers == 0:
            self._round += 1
            self.round_starts.append(time.perf_counter())
        self._gradient_calls += 1

    def finish(self) -> None:
        """Mark the end of the last round; call when ``run_training`` returns."""
        self.end = time.perf_counter()

    def remove(self) -> None:
        """Put every wrapped entry point back as it was."""
        for owner, attr, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._patches.clear()


def wrapped_names(problem) -> list[str]:
    """Qualified names of entry points that currently hold a tracing wrapper."""
    found = []
    for owner, attr, _ in _ENTRY_POINTS:
        if getattr(vars(owner).get(attr), "__qualname__", "").startswith("Tracer."):
            found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    for attr in _PROBLEM_METHODS:
        if attr in vars(problem):
            found.append(f"problem.{attr}")
    return found


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce a finished trace to per-round, per-layer figures.

    Every span name gets ``<name>.ms``, milliseconds per call, and
    ``<name>.calls``, calls per round (both 0 when it never ran); every layer
    gets ``<layer>.self_ms``, self time per round, and ``<layer>.share``, its
    self time over round wall time.
    """
    if tracer.end is None or not tracer.round_starts:
        raise ValueError("trace has no finished rounds")
    spans = tracer.spans
    rounds = len(tracer.round_starts)
    wall = tracer.end - tracer.round_starts[0]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    build_s = 0.0
    for i, (name, start, end, parent, round_id) in enumerate(spans):
        if name == "sketch.HashFamily.build":
            build_s += end - start
        if round_id == 0:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        self_by_layer[name.split(".", 1)[0]] += end - start - child_time[i]
        if parent < 0:
            covered += end - start
    inline = wall - covered
    self_by_layer["cluster"] += inline

    out: dict[str, float] = {
        "sketch.HashFamily.build_s": build_s,
        "sketch.family_mb": sum(
            arr.nbytes for fam in tracer.families for arr in vars(fam).values() if hasattr(arr, "nbytes")
        ) / 2**20,
        "cluster.inline_ms": 1e3 * inline / rounds,
        "trace.round_ms": 1e3 * wall / rounds,
    }
    names = {name for _, _, name in _ENTRY_POINTS} | {f"problems.{fn}" for fn in _PROBLEM_METHODS}
    for name in names:
        n = calls.get(name, 0)
        out[f"{name}.ms"] = 1e3 * total[name] / n if n else 0.0
        out[f"{name}.calls"] = n / rounds
    for layer, seconds in self_by_layer.items():
        out[f"{layer}.self_ms"] = 1e3 * seconds / rounds
        out[f"{layer}.share"] = seconds / wall
    return out
