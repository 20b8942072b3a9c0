"""Run metrics: per-round records, a config echo, and a summary block.

A run serializes to a single CSV file.  Lines starting with ``#`` carry the
resolved configuration (before the column header) and the summary (after the
last record), so a run is reconstructible from its output alone.  All floats
are written with ``repr`` and files are written atomically, which makes two
runs of the same configuration byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import os
import tempfile
from dataclasses import dataclass, field
from typing import get_type_hints

import numpy as np

_MAGIC = "# gradsketch-metrics v1"


@dataclass
class RoundRecord:
    """One row per round; ``t=0`` is the initial state with no traffic.

    ``support_size`` is the l0 size of the broadcast update.  ``union_size``
    always equals it: ``run_training`` writes ``len(update)`` to both, local
    top-k's update being the union itself.  The column stays so the file
    format does not change.  Byte counts come from actually serialized
    messages: ``bytes_up`` per worker, ``bytes_down`` for the broadcast, and
    ``bytes_request`` for the excluded-by-convention index request.
    ``support_hash`` fingerprints the update indices for invariance checks.
    """

    t: int
    train_loss: float
    test_metric: float
    support_size: int = 0
    union_size: int = 0
    up_sketch_elems: int = 0
    up_exact_elems: int = 0
    down_update_elems: int = 0
    bytes_up: int = 0
    bytes_down: int = 0
    bytes_request: int = 0
    support_hash: str = "-"


# column -> its RoundRecord field type (int, float or str), in field order
_COLUMN_TYPES = get_type_hints(RoundRecord)
_COLUMNS = list(_COLUMN_TYPES)


def support_fingerprint(indices: np.ndarray) -> str:
    """Short stable hash of an update support, for cross-run comparisons."""
    digest = hashlib.sha256(np.asarray(indices, dtype="<i8").tobytes())
    return digest.hexdigest()[:12]


@dataclass
class RunMetrics:
    """Everything a run reports: config echo, per-round rows, summary."""

    config_echo: dict[str, str] = field(default_factory=dict)
    records: list[RoundRecord] = field(default_factory=list)
    summary: dict[str, object] = field(default_factory=dict)


def _format_value(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_metrics_csv(path: str, metrics: RunMetrics) -> None:
    """Write a run atomically (temp file + rename in the target directory);
    a config or summary line that would hold a line break raises ValueError first."""
    for kind, items in (("config", metrics.config_echo), ("summary", metrics.summary)):
        for key, value in items.items():
            if {"\n", "\r"} & set(f"{key} = {_format_value(value)}"):
                raise ValueError(f"{kind} {key!r} would contain a line break")
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, prefix=".metrics-", suffix=".tmp", delete=False, newline=""
    )
    try:
        with handle as fh:
            fh.write(_MAGIC + "\n")
            for key, value in metrics.config_echo.items():
                fh.write(f"# config {key} = {_format_value(value)}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_COLUMNS)
            for rec in metrics.records:
                writer.writerow([_format_value(getattr(rec, name)) for name in _COLUMNS])
            for key, value in metrics.summary.items():
                fh.write(f"# summary {key} = {_format_value(value)}\n")
        os.replace(handle.name, path)
    except BaseException:
        os.unlink(handle.name)
        raise


class MetricsFormatError(ValueError):
    """Raised when a metrics file does not parse."""


def _parse_comment(line: str, kind: str, path: str, lineno: int) -> tuple[str, str]:
    body = line[len(f"# {kind} "):]
    key, sep, value = body.partition(" = ")
    if not sep or not key:
        raise MetricsFormatError(f"{path}:{lineno}: malformed {kind} line {line!r}")
    return key, value


def read_metrics_csv(path: str) -> RunMetrics:
    """Parse a file written by ``write_metrics_csv`` back into RunMetrics.

    Summary values come back as floats when they parse as such, otherwise as
    the raw strings; config values stay strings.
    """
    metrics = RunMetrics()
    header: list[str] | None = None
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            first = fh.readline().rstrip("\n")
            if first != _MAGIC:
                raise MetricsFormatError(f"{path}: not a metrics file (missing {_MAGIC!r})")
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("# config "):
                    key, value = _parse_comment(line, "config", path, lineno)
                    metrics.config_echo[key] = value
                    continue
                if line.startswith("# summary "):
                    key, value = _parse_comment(line, "summary", path, lineno)
                    try:
                        metrics.summary[key] = float(value)
                    except ValueError:
                        metrics.summary[key] = value
                    continue
                if line.startswith("#"):
                    raise MetricsFormatError(f"{path}:{lineno}: unrecognized comment {line!r}")
                try:
                    row = next(csv.reader([line]))
                except csv.Error as exc:
                    raise MetricsFormatError(f"{path}:{lineno}: {exc}") from None
                if header is None:
                    header = row
                    if header != _COLUMNS:
                        raise MetricsFormatError(f"{path}:{lineno}: unexpected columns {header}")
                    continue
                if len(row) != len(_COLUMNS):
                    raise MetricsFormatError(f"{path}:{lineno}: row has {len(row)} fields, expected {len(_COLUMNS)}")
                values: dict[str, object] = {}
                for name, token in zip(_COLUMNS, row):
                    kind = _COLUMN_TYPES[name]
                    try:
                        values[name] = kind(token)
                    except ValueError:
                        raise MetricsFormatError(
                            f"{path}:{lineno}: {name} = {token!r} is not a valid {kind.__name__}"
                        ) from None
                metrics.records.append(RoundRecord(**values))
    except UnicodeDecodeError as exc:
        raise MetricsFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if header is None:
        raise MetricsFormatError(f"{path}: no column header found")
    return metrics
