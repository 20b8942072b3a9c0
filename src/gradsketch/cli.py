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
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from gradsketch._params import integer
from gradsketch.cluster import TrainingDivergedError, check_run, run_training
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


def _point_list(raw: str) -> tuple[tuple[float, float], ...]:
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


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ExperimentConfigError(f"bias_indices {raw!r} must be comma-separated integers") from None


def _bool(raw: str) -> bool:
    return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]  # KeyError: not a boolean word


REQUIRED = object()  # a table default: the key must be set

# Key tables: key -> (parser, default or REQUIRED).  Each section is read
# against one table, chosen by the run it configures, and a key outside that
# table is rejected.  The [optimizer] defaults are OptimizerConfig's own.
_SHARED = {"kind": (str, REQUIRED), "batch_size": (int, REQUIRED)}
_CLASSIFIER = {"lambda": (float, 0.0)}
_OPTIMIZER_DEFAULTS = {f.name: f.default for f in fields(OptimizerConfig)}
_KEY_TABLES = {
    "problem": {
        "quadratic runs": _SHARED | {
            "quad_d": (int, REQUIRED),
            "quad_lambda_min": (float, 1.0),
            "quad_lambda_max": (float, 5.0),
            "quad_noise_sigma": (float, 0.0),
            "quad_n_samples": (int, 256),
        },
        "synthetic-blob runs": _SHARED | _CLASSIFIER | {
            "synth_n": (int, REQUIRED),
            "synth_d": (int, REQUIRED),
            "synth_separation": (float, 2.0),
            "synth_test_n": (int, None),  # unset: max(synth_n // 4, 1)
        },
        "dataset-file runs": _SHARED | _CLASSIFIER | {
            "dataset": (str, REQUIRED),
            "test_dataset": (str, REQUIRED),
            "normalize": (_bool, True),
            "add_intercept": (_bool, True),
            "positive_class": (int, None),
        },
    },
    "optimizer": {
        "any run": {
            "mode": (str, REQUIRED),
            "algorithm": (str, _OPTIMIZER_DEFAULTS["algorithm"]),
            "k": (int, _OPTIMIZER_DEFAULTS["k"]),
            "p": (int, _OPTIMIZER_DEFAULTS["p"]),
            "t": (int, REQUIRED),
            "w": (int, _OPTIMIZER_DEFAULTS["w_workers"]),
            "momentum": (float, _OPTIMIZER_DEFAULTS["momentum"]),
            "xi": (float, _OPTIMIZER_DEFAULTS["xi"]),
            "beta": (float, _OPTIMIZER_DEFAULTS["beta"]),
            "mu_scale": (float, _OPTIMIZER_DEFAULTS["mu_scale"]),
            "lr": (float, _OPTIMIZER_DEFAULTS["lr"]),
            "lr_points": (_point_list, _OPTIMIZER_DEFAULTS["lr_points"]),
            "bias_indices": (_int_list, _OPTIMIZER_DEFAULTS["bias_indices"]),
        },
    },
    "sketch": {
        "rows/cols sizing": {"rows": (int, REQUIRED), "cols": (int, REQUIRED)},
        "size_k/size_delta sizing": {"size_k": (int, REQUIRED), "size_delta": (float, REQUIRED)},
    },
    "seeds": {"any run": {"data": (int, REQUIRED), "sketch": (int, REQUIRED), "rng": (int, REQUIRED)}},
    "output": {"any run": {"path": (str, None)}},
}

# The config key that sets an API parameter, where it has another name or
# lies in another section: section -> {parameter: "[section] key"}, the outer
# section being the one whose build step passes the parameter.
_KEY_OF_PARAMETER = {
    "problem": {"lam": "[problem] lambda", "noise_sigma": "[problem] quad_noise_sigma",
                "n_samples": "[problem] quad_n_samples", "class_separation": "[problem] synth_separation",
                "d": "[problem] synth_d", "seed": "[seeds] data"},
    "optimizer": {"t_rounds": "[optimizer] t", "w_workers": "[optimizer] w", "batch_size": "[problem] batch_size",
                  "data_seed": "[seeds] data", "rng_seed": "[seeds] rng"},
    "sketch": {"k": "[sketch] size_k", "delta": "[sketch] size_delta", "r": "[sketch] rows", "c": "[sketch] cols",
               "seed": "[seeds] sketch"},
}


@contextmanager
def _keys_of(section: str):
    """Re-raise an API check's ValueError met while building ``[section]`` as
    a config error, the parameter its message starts with replaced by the
    config key that sets it (by default its namesake in ``[section]``)."""
    try:
        yield
    except ExperimentConfigError:
        raise
    except ValueError as exc:
        message = str(exc)
        name = re.match(r"\w*", message).group()
        label = _KEY_OF_PARAMETER[section].get(name, f"[{section}] {name}")
        raise ExperimentConfigError(f"{label}{message[len(name):]}") from None


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


def _read(parser: configparser.ConfigParser, name: str, user: str) -> dict[str, object]:
    """Section ``[name]`` parsed against the key table of ``user``; an absent
    section reads as an empty one."""
    table = _KEY_TABLES[name][user]
    section = parser[name] if parser.has_section(name) else {}
    values = {}
    for key, (parse, default) in table.items():
        if key not in section:
            if default is REQUIRED:
                raise ExperimentConfigError(f"[{name}] is missing required key {key!r}")
            values[key] = default
            continue
        raw = section[key]
        if "\n" in raw or "\r" in raw:  # a metrics file keeps each echoed value on one line
            raise ExperimentConfigError(f"[{name}] {key} = {raw!r} spans more than one line")
        try:
            values[key] = parse(raw)
        except ExperimentConfigError as exc:
            raise ExperimentConfigError(f"[{name}] {exc}") from None
        except (ValueError, KeyError):
            raise ExperimentConfigError(f"[{name}] {key} = {raw!r} is not a valid {parse.__name__.strip('_')}") from None
        if parse is float and not math.isfinite(values[key]):
            raise ExperimentConfigError(f"[{name}] {key} = {raw!r} is not finite")
    for key in section:
        if key not in table:
            raise ExperimentConfigError(f"[{name}] {key} is not used by {user}")
    return values


def _problem_source(section: configparser.SectionProxy) -> str:
    """The data source, and so the key table, of a [problem] section: the
    quadratic's own, else the classifier source that leaves fewest keys unused."""
    kind = section.get("kind")
    if kind not in (None, "quadratic", "logistic", "hinge-svm"):
        raise ExperimentConfigError(f"[problem] kind must be quadratic, logistic, or hinge-svm, got {kind!r}")
    sources = ["quadratic runs"] if kind == "quadratic" else ["synthetic-blob runs", "dataset-file runs"]
    return min(sources, key=lambda user: sum(key not in _KEY_TABLES["problem"][user] for key in section))


def _binarize_if_needed(dataset: Dataset, positive_class: int | None, role: str) -> Dataset:
    if positive_class is not None:
        return dataset.binarize(positive_class)
    labels = set(dataset.labels.tolist())
    if not labels <= {-1, 1}:
        raise ExperimentConfigError(
            f"{role} labels are {sorted(labels)[:6]}; set positive_class to binarize"
        )
    return dataset


def _build_problem(spec: dict[str, object], data_seed: int):
    kind = spec["kind"]
    if kind == "quadratic":
        d, lo, hi = integer("quad_d", spec["quad_d"], 1), spec["quad_lambda_min"], spec["quad_lambda_max"]
        if lo <= 0 or hi < lo:
            raise ExperimentConfigError("[problem] quadratic needs 0 < quad_lambda_min <= quad_lambda_max")
        sigma = spec["quad_noise_sigma"]
        problem = QuadraticProblem(np.linspace(lo, hi, d), sigma, spec["quad_n_samples"], seed=data_seed)
        return problem, {"problem.spectrum": f"linspace({lo},{hi},{d})", "problem.noise_sigma": sigma}
    if "dataset" in spec:
        train_path, test_path, normalize = spec["dataset"], spec["test_dataset"], spec["normalize"]
        try:
            train = load_dataset(train_path)
            test = load_dataset(test_path)
        except OSError as exc:
            raise ExperimentConfigError(f"cannot read dataset: {exc}") from None
        except DatasetFormatError as exc:
            raise ExperimentConfigError(str(exc)) from None
        train = _binarize_if_needed(train, spec["positive_class"], "train")
        test = _binarize_if_needed(test, spec["positive_class"], "test")
        bounds = (float(train.features.min()), float(train.features.max())) if normalize else None
        train = prepare_features(train, normalize, spec["add_intercept"])
        test = prepare_features(test, normalize, spec["add_intercept"], bounds=bounds)
        echo = {
            "problem.dataset": train_path,
            "problem.test_dataset": test_path,
            "problem.train_checksum": train.checksum,
            "problem.test_checksum": test.checksum,
            "problem.normalize": normalize,
            "problem.add_intercept": spec["add_intercept"],
        }
    else:
        n, test_n = integer("synth_n", spec["synth_n"], 1), spec["synth_test_n"]
        test_n = max(n // 4, 1) if test_n is None else integer("synth_test_n", test_n, 1)
        full = synth_data(n + test_n, spec["synth_d"], spec["synth_separation"], seed=data_seed)
        train, test = split_dataset(full, n)
        echo = {"problem.data": full.name, "problem.checksum": full.checksum}
    echo["problem.lambda"] = spec["lambda"]
    cls = LogisticProblem if kind == "logistic" else HingeSVMProblem
    return cls(train, test, spec["lambda"]), echo


def _build_sketch(parser: configparser.ConfigParser, config: OptimizerConfig, d: int, sketch_seed: int):
    if config.algorithm != "sketched":
        if parser.has_section("sketch"):
            raise ExperimentConfigError(f"[sketch] is not used by {config.algorithm} runs")
        # no API call takes the sketch seed of an unsketched run, so SketchConfig's rule is applied here
        integer("seed", sketch_seed, 0, 2**64 - 1)
        return None
    if not parser.has_section("sketch"):
        raise ExperimentConfigError("sketched runs need a [sketch] section")
    sizings = [user for user, table in _KEY_TABLES["sketch"].items() if any(key in parser["sketch"] for key in table)]
    if len(sizings) > 1:
        raise ExperimentConfigError("[sketch] takes rows/cols or size_k/size_delta, not both")
    if not sizings:
        raise ExperimentConfigError("[sketch] needs rows/cols or size_k/size_delta")
    spec = _read(parser, "sketch", sizings[0])
    if "size_k" in spec:
        spec["rows"], spec["cols"] = size_for(spec["size_k"], d, spec["size_delta"])
    return SketchConfig(d=d, r=spec["rows"], c=spec["cols"], seed=sketch_seed)


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
        if name not in _KEY_TABLES:
            raise ExperimentConfigError(f"unknown config section [{name}]")
    for required in ("problem", "optimizer", "seeds"):
        if not parser.has_section(required):
            raise ExperimentConfigError(f"config is missing the [{required}] section")

    seed_values = _read(parser, "seeds", "any run")
    for override in seed_overrides or []:
        key, sep, value = override.partition("=")
        if not sep or key not in seed_values:
            raise ExperimentConfigError(f"seed override {override!r} must be data=N, sketch=N, or rng=N")
        try:
            seed_values[key] = int(value)
        except ValueError:
            raise ExperimentConfigError(f"seed override {override!r} needs an integer") from None

    spec = _read(parser, "problem", _problem_source(parser["problem"]))
    opt = _read(parser, "optimizer", "any run")
    output_path = _read(parser, "output", "any run")["path"]
    # no value is checked here: each API call checks what it takes, and check_run the run's
    with _keys_of("problem"):
        problem, echo = _build_problem(spec, seed_values["data"])
    with _keys_of("optimizer"):
        config = OptimizerConfig(t_rounds=opt.pop("t"), w_workers=opt.pop("w"), **opt)
    with _keys_of("sketch"):
        sketch_config = _build_sketch(parser, config, problem.d, seed_values["sketch"])
    exp = Experiment(problem, config, sketch_config, spec["batch_size"], seed_values["data"], seed_values["rng"],
                     output_path, echo)
    with _keys_of("optimizer"):
        check_run(exp.problem, exp.config, exp.sketch_config, exp.batch_size, exp.data_seed, exp.rng_seed, exp.extra_echo)
    return exp


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
    # load_experiment ran check_run, every check run_training raises
    # ValueError for, so anything but divergence is a defect and propagates
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
