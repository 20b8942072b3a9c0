"""Configuration-driven experiment runner and reporter.

``gradsketch run <config>`` executes one training run described by an INI
style config (sections ``[problem]``, ``[optimizer]``, ``[sketch]``,
``[seeds]``, ``[output]``) and writes the metrics CSV.  ``gradsketch report
<csv>...`` prints an aligned comparison of finished runs and can emit a
long-format CSV for external plotting.  Every seed must be explicit in the
config; nothing falls back to wall-clock entropy, so rerunning a config
reproduces its output byte for byte.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import errno
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from gradsketch.cluster import TrainingDivergedError, run_training
from gradsketch.metrics import MetricsFormatError, RunMetrics, read_metrics_csv, write_metrics_csv
from gradsketch.optim import OptimizerConfig
from gradsketch.problems import (
    Dataset,
    DatasetFormatError,
    HingeSVMProblem,
    LogisticProblem,
    QuadraticProblem,
    load_dataset,
    prepare_features,
    split_dataset,
    synth_data,
)
from gradsketch.sketch import SketchConfig, size_for


class ExperimentConfigError(ValueError):
    """Raised for unparseable or inconsistent experiment configs."""


def _parse_lr_points(raw: str) -> tuple[tuple[float, float], ...]:
    points = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_part, sep, lr_part = chunk.partition(":")
        if not sep:
            raise ExperimentConfigError(f"lr_points entry {chunk!r} is not t:lr")
        try:
            points.append((float(t_part), float(lr_part)))
        except ValueError:
            raise ExperimentConfigError(f"lr_points entry {chunk!r} is not numeric") from None
    return tuple(points)


def _parse_bias(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ExperimentConfigError(f"bias_indices {raw!r} must be comma-separated integers") from None


# [optimizer] key -> (OptimizerConfig field, parser).  Only the keys a config
# sets are passed on, so every default is OptimizerConfig's own.
_OPTIMIZER_KEYS = {
    "mode": ("mode", str),
    "algorithm": ("algorithm", str),
    "k": ("k", int),
    "p": ("p", int),
    "t": ("t_rounds", int),
    "w": ("w_workers", int),
    "momentum": ("momentum", float),
    "xi": ("xi", float),
    "beta": ("beta", float),
    "mu_scale": ("mu_scale", float),
    "lr": ("lr", float),
    "lr_points": ("lr_points", _parse_lr_points),
    "bias_indices": ("bias_indices", _parse_bias),
}
_REQUIRED_OPTIMIZER_KEYS = ("mode", "t")

_SECTION_KEYS = {
    "problem": {
        "kind",
        "dataset",
        "test_dataset",
        "normalize",
        "add_intercept",
        "positive_class",
        "lambda",
        "batch_size",
        "synth_n",
        "synth_d",
        "synth_separation",
        "synth_test_n",
        "quad_d",
        "quad_lambda_min",
        "quad_lambda_max",
        "quad_noise_sigma",
        "quad_n_samples",
    },
    "optimizer": set(_OPTIMIZER_KEYS),
    "sketch": {"rows", "cols", "size_k", "size_delta"},
    "seeds": {"data", "sketch", "rng"},
    "output": {"path"},
}


@dataclass
class Experiment:
    """A fully resolved run: problem, configs, seeds, and output target."""

    problem: object
    config: OptimizerConfig
    sketch_config: SketchConfig | None
    batch_size: int
    data_seed: int
    rng_seed: int
    output_path: str | None
    extra_echo: dict[str, object]


def _typed(section: configparser.SectionProxy, key: str, kind, default=None, required: bool = False):
    if key not in section:
        if required:
            raise ExperimentConfigError(f"[{section.name}] is missing required key {key!r}")
        return default
    raw = section[key]
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)
        value = kind(raw)
    except ExperimentConfigError:
        raise
    except ValueError:
        raise ExperimentConfigError(
            f"[{section.name}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise ExperimentConfigError(f"[{section.name}] {key} = {raw!r} is not finite")
    return value


def _binarize_if_needed(dataset: Dataset, positive_class: int | None, role: str) -> Dataset:
    if positive_class is not None:
        return dataset.binarize(positive_class)
    labels = set(dataset.labels.tolist())
    if not labels <= {-1, 1}:
        raise ExperimentConfigError(
            f"{role} labels are {sorted(labels)[:6]}; set positive_class to binarize"
        )
    return dataset


def _build_problem(section: configparser.SectionProxy, data_seed: int):
    kind = _typed(section, "kind", str, required=True)
    echo: dict[str, object] = {}
    if kind == "quadratic":
        d = _typed(section, "quad_d", int, required=True)
        lo = _typed(section, "quad_lambda_min", float, 1.0)
        hi = _typed(section, "quad_lambda_max", float, 5.0)
        sigma = _typed(section, "quad_noise_sigma", float, 0.0)
        n = _typed(section, "quad_n_samples", int, 256)
        if d < 1 or lo <= 0 or hi < lo:
            raise ExperimentConfigError("quadratic needs quad_d >= 1 and 0 < quad_lambda_min <= quad_lambda_max")
        problem = QuadraticProblem(np.linspace(lo, hi, d), sigma, n, seed=data_seed)
        echo.update({"problem.spectrum": f"linspace({lo},{hi},{d})", "problem.noise_sigma": sigma})
        return problem, echo
    if kind not in ("logistic", "hinge-svm"):
        raise ExperimentConfigError(f"[problem] kind must be quadratic, logistic, or hinge-svm, got {kind!r}")
    lam = _typed(section, "lambda", float, 0.0)
    positive_class = _typed(section, "positive_class", int)
    if "dataset" in section:
        if "synth_n" in section or "synth_d" in section:
            raise ExperimentConfigError("[problem] uses either dataset files or synth_* keys, not both")
        train_path = section["dataset"]
        test_path = _typed(section, "test_dataset", str)
        if test_path is None:
            raise ExperimentConfigError("[problem] file-backed runs need test_dataset alongside dataset")
        normalize = _typed(section, "normalize", bool, True)
        add_intercept = _typed(section, "add_intercept", bool, True)
        try:
            train = load_dataset(train_path)
            test = load_dataset(test_path)
        except OSError as exc:
            raise ExperimentConfigError(f"cannot read dataset: {exc}") from None
        except DatasetFormatError as exc:
            raise ExperimentConfigError(str(exc)) from None
        train = _binarize_if_needed(train, positive_class, "train")
        test = _binarize_if_needed(test, positive_class, "test")
        bounds = (float(train.features.min()), float(train.features.max())) if normalize else None
        train = prepare_features(train, normalize, add_intercept)
        test = prepare_features(test, normalize, add_intercept, bounds=bounds)
        echo.update(
            {
                "problem.dataset": train_path,
                "problem.test_dataset": test_path,
                "problem.train_checksum": train.checksum,
                "problem.test_checksum": test.checksum,
                "problem.normalize": normalize,
                "problem.add_intercept": add_intercept,
            }
        )
    else:
        n = _typed(section, "synth_n", int, required=True)
        d = _typed(section, "synth_d", int, required=True)
        separation = _typed(section, "synth_separation", float, 2.0)
        test_n = _typed(section, "synth_test_n", int, max(n // 4, 1))
        full = synth_data(n + test_n, d, separation, seed=data_seed)
        train, test = split_dataset(full, n)
        echo.update({"problem.data": full.name, "problem.checksum": full.checksum})
    echo["problem.lambda"] = lam
    cls = LogisticProblem if kind == "logistic" else HingeSVMProblem
    return cls(train, test, lam), echo


def _build_optimizer(section: configparser.SectionProxy) -> OptimizerConfig:
    kwargs = {
        name: _typed(section, key, kind, required=True)
        for key, (name, kind) in _OPTIMIZER_KEYS.items()
        if key in section or key in _REQUIRED_OPTIMIZER_KEYS
    }
    try:
        return OptimizerConfig(**kwargs)
    except ValueError as exc:
        raise ExperimentConfigError(f"[optimizer] {exc}") from None


def _build_sketch(parser: configparser.ConfigParser, config: OptimizerConfig, d: int, sketch_seed: int):
    if config.algorithm != "sketched":
        return None
    if not parser.has_section("sketch"):
        raise ExperimentConfigError("sketched runs need a [sketch] section")
    section = parser["sketch"]
    explicit = "rows" in section or "cols" in section
    derived = "size_k" in section or "size_delta" in section
    if explicit and derived:
        raise ExperimentConfigError("[sketch] takes rows/cols or size_k/size_delta, not both")
    if explicit:
        r = _typed(section, "rows", int, required=True)
        c = _typed(section, "cols", int, required=True)
    elif derived:
        k = _typed(section, "size_k", int, required=True)
        delta = _typed(section, "size_delta", float, required=True)
    else:
        raise ExperimentConfigError("[sketch] needs rows/cols or size_k/size_delta")
    try:
        if derived:
            r, c = size_for(k, d, delta)
        return SketchConfig(d=d, r=r, c=c, seed=sketch_seed)
    except ValueError as exc:
        raise ExperimentConfigError(f"[sketch] {exc}") from None


def load_experiment(path: str, seed_overrides: list[str] | None = None) -> Experiment:
    """Parse and validate a config file into a runnable Experiment."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read config: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ExperimentConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except configparser.Error as exc:
        raise ExperimentConfigError(f"{path}: {exc}") from None

    for name in parser.sections():
        if name not in _SECTION_KEYS:
            raise ExperimentConfigError(f"unknown config section [{name}]")
        for key in parser[name]:
            if key not in _SECTION_KEYS[name]:
                raise ExperimentConfigError(f"unknown key {key!r} in section [{name}]")
    for required in ("problem", "optimizer", "seeds"):
        if not parser.has_section(required):
            raise ExperimentConfigError(f"config is missing the [{required}] section")

    seeds = parser["seeds"]
    seed_values = {
        "data": _typed(seeds, "data", int, required=True),
        "sketch": _typed(seeds, "sketch", int, required=True),
        "rng": _typed(seeds, "rng", int, required=True),
    }
    for override in seed_overrides or []:
        key, sep, value = override.partition("=")
        if not sep or key not in seed_values:
            raise ExperimentConfigError(f"seed override {override!r} must be data=N, sketch=N, or rng=N")
        try:
            seed_values[key] = int(value)
        except ValueError:
            raise ExperimentConfigError(f"seed override {override!r} needs an integer") from None
    for key, value in seed_values.items():
        if value < 0:
            raise ExperimentConfigError(f"[seeds] {key} = {value} must be a non-negative integer")

    try:
        problem, echo = _build_problem(parser["problem"], seed_values["data"])
    except ExperimentConfigError:
        raise
    except ValueError as exc:  # the problem and dataset constructors' own checks
        raise ExperimentConfigError(f"[problem] {exc}") from None
    config = _build_optimizer(parser["optimizer"])
    sketch_config = _build_sketch(parser, config, problem.d, seed_values["sketch"])
    try:
        config.validate_for_dimension(problem.d)
    except ValueError as exc:
        raise ExperimentConfigError(f"[optimizer] {exc}") from None

    batch_size = _typed(parser["problem"], "batch_size", int, required=True)
    if not 1 <= batch_size <= problem.n_train:
        raise ExperimentConfigError(f"[problem] batch_size = {batch_size} must be in [1, {problem.n_train}]")
    if batch_size < config.w_workers:
        raise ExperimentConfigError(
            f"[problem] batch_size = {batch_size} cannot cover [optimizer] w = {config.w_workers} workers"
        )
    output_path = parser["output"]["path"] if parser.has_section("output") and "path" in parser["output"] else None
    return Experiment(
        problem=problem,
        config=config,
        sketch_config=sketch_config,
        batch_size=batch_size,
        data_seed=seed_values["data"],
        rng_seed=seed_values["rng"],
        output_path=output_path,
        extra_echo=echo,
    )


def _cannot_write(path: str, reason: str) -> int:
    print(f"cannot write {path}: {reason}", file=sys.stderr)
    return 2


def cmd_run(args) -> int:
    try:
        exp = load_experiment(args.config, args.seed_override)
    except ExperimentConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or exp.output_path
    if out is None:
        print("config error: no output path ([output] path or --out)", file=sys.stderr)
        return 2
    # checked before training, so a run is not lost to a typo in the path
    if os.path.isdir(out):
        return _cannot_write(out, os.strerror(errno.EISDIR))
    if not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        return _cannot_write(out, os.strerror(errno.ENOENT))
    try:
        result = run_training(
            exp.problem,
            exp.config,
            exp.sketch_config,
            batch_size=exp.batch_size,
            data_seed=exp.data_seed,
            rng_seed=exp.rng_seed,
            extra_echo=exp.extra_echo,
        )
    except TrainingDivergedError as exc:
        print(f"run diverged: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        write_metrics_csv(out, result.metrics)
    except OSError as exc:
        return _cannot_write(out, exc.strerror or str(exc))
    summary = result.metrics.summary
    print(
        f"wrote {out}: {exp.config.algorithm}/{exp.config.mode}, "
        f"final loss {summary['final_train_loss']:.6g}, "
        f"test metric {summary['final_test_metric']:.6g}, "
        f"compression {summary['compression_factor']:.4g}"
    )
    return 0


_REPORT_COLUMNS = [
    ("run", "problem.kind"),
    ("algorithm", "optimizer.algorithm"),
    ("mode", "optimizer.mode"),
    ("T", "optimizer.t_rounds"),
    ("W", "optimizer.w_workers"),
    ("k", "optimizer.k"),
]
_REPORT_SUMMARY = ["final_train_loss", "final_test_metric", "compression_factor", "byte_compression_factor"]


def _report_row(path: str, metrics: RunMetrics) -> list[str]:
    row = [os.path.basename(path)]
    for _, key in _REPORT_COLUMNS:
        row.append(metrics.config_echo.get(key, "-"))
    for key in _REPORT_SUMMARY:
        value = metrics.summary.get(key, "-")
        row.append(f"{value:.6g}" if isinstance(value, float) else str(value))
    return row


def _write_long_csv(out: str, loaded: list[tuple[str, RunMetrics]]) -> None:
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["file", "t", "train_loss", "test_metric", "support_size", "union_size", "bytes_up", "bytes_down"])
        for path, metrics in loaded:
            name = os.path.basename(path)
            for rec in metrics.records:
                writer.writerow(
                    [name, rec.t, repr(rec.train_loss), repr(rec.test_metric), rec.support_size, rec.union_size, rec.bytes_up, rec.bytes_down]
                )


def cmd_report(args) -> int:
    loaded: list[tuple[str, RunMetrics]] = []
    for path in args.metrics:
        try:
            loaded.append((path, read_metrics_csv(path)))
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        except MetricsFormatError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return 2
    header = ["file"] + [name for name, _ in _REPORT_COLUMNS] + _REPORT_SUMMARY
    rows = [_report_row(path, metrics) for path, metrics in loaded]
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))]
    print("  ".join(name.ljust(width) for name, width in zip(header, widths)))
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    if args.csv:
        try:
            _write_long_csv(args.csv, loaded)
        except OSError as exc:
            return _cannot_write(args.csv, exc.strerror or str(exc))
        print(f"wrote {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradsketch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one experiment config")
    run_p.add_argument("config", help="path to an INI experiment config")
    run_p.add_argument("--out", help="metrics CSV path (overrides [output] path)")
    run_p.add_argument(
        "--seed-override",
        action="append",
        default=[],
        metavar="NAME=N",
        help="override a seed (data, sketch, or rng); repeatable",
    )
    run_p.set_defaults(func=cmd_run)
    report_p = sub.add_parser("report", help="summarize finished runs")
    report_p.add_argument("metrics", nargs="+", help="metrics CSV files")
    report_p.add_argument("--csv", help="also write a long-format CSV for plotting")
    report_p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
