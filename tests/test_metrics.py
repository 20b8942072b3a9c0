"""Metrics serialization: config echo, per-round rows, summary, determinism."""

import os
import re

import numpy as np
import pytest

from gradsketch.metrics import (
    _COLUMNS,
    MetricsFormatError,
    RoundRecord,
    RunMetrics,
    read_metrics_csv,
    support_fingerprint,
    write_metrics_csv,
)


def _sample_metrics() -> RunMetrics:
    metrics = RunMetrics(config_echo={"optimizer.k": "4", "seeds.data": "7"})
    metrics.records.append(RoundRecord(t=0, train_loss=12.5, test_metric=0.5))
    metrics.records.append(
        RoundRecord(
            t=1,
            train_loss=10.25,
            test_metric=0.4375,
            support_size=4,
            union_size=4,
            up_sketch_elems=432,
            up_exact_elems=4,
            down_update_elems=4,
            bytes_up=3532,
            bytes_down=73,
            bytes_request=13,
            support_hash="abc123def456",
        )
    )
    metrics.summary = {"final_train_loss": 10.25, "compression_factor": 4.02}
    return metrics


class TestRoundTrip:
    def test_write_read_preserves_everything(self, tmp_path):
        path = str(tmp_path / "run.csv")
        metrics = _sample_metrics()
        write_metrics_csv(path, metrics)
        back = read_metrics_csv(path)
        assert back.config_echo == metrics.config_echo
        assert back.summary == metrics.summary
        assert len(back.records) == 2
        assert back.records[1] == metrics.records[1]

    def test_floats_survive_exactly(self, tmp_path):
        path = str(tmp_path / "run.csv")
        metrics = _sample_metrics()
        metrics.records[0].train_loss = 1.0 / 3.0
        metrics.summary["grad_sq_max"] = 0.1 + 0.2
        write_metrics_csv(path, metrics)
        back = read_metrics_csv(path)
        assert back.records[0].train_loss == 1.0 / 3.0
        assert back.summary["grad_sq_max"] == 0.1 + 0.2

    def test_two_writes_are_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_metrics_csv(a, _sample_metrics())
        write_metrics_csv(b, _sample_metrics())
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_no_temp_files_left_behind(self, tmp_path):
        path = str(tmp_path / "run.csv")
        write_metrics_csv(path, _sample_metrics())
        assert os.listdir(tmp_path) == ["run.csv"]

    @pytest.mark.parametrize("block", ["config_echo", "summary"])
    @pytest.mark.parametrize("key, value", [("problem.dataset", "tr\nain.txt"), ("problem.dataset", "a\rb"),
                                            ("two\nlines", "x"), ("final_train_loss", "1\r\n")])
    def test_line_break_rejected_before_any_file(self, tmp_path, block, key, value):
        # the reader splits lines at \n and \r, so such a line would not read back
        metrics = _sample_metrics()
        getattr(metrics, block)[key] = value
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            write_metrics_csv(str(tmp_path / "run.csv"), metrics)
        assert os.listdir(tmp_path) == []


class Testvalidation:
    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a metrics file\n")
        with pytest.raises(MetricsFormatError, match="not a metrics"):
            read_metrics_csv(str(path))

    def test_rejects_malformed_comment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# gradsketch-metrics v1\n# config missing-equals\n")
        with pytest.raises(MetricsFormatError):
            read_metrics_csv(str(path))

    def test_rejects_unknown_comment(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# gradsketch-metrics v1\n# mystery a = b\n")
        with pytest.raises(MetricsFormatError, match="unrecognized"):
            read_metrics_csv(str(path))

    def test_rejects_wrong_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# gradsketch-metrics v1\nt,loss\n")
        with pytest.raises(MetricsFormatError, match="columns"):
            read_metrics_csv(str(path))

    def test_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# gradsketch-metrics v1\n# config a = b\n")
        with pytest.raises(MetricsFormatError, match="header"):
            read_metrics_csv(str(path))

    def test_rejects_short_row(self, tmp_path):
        path = str(tmp_path / "run.csv")
        write_metrics_csv(path, _sample_metrics())
        with open(path, "a") as fh:
            fh.write("3,1.0\n")
        with pytest.raises(MetricsFormatError, match="fields"):
            read_metrics_csv(path)

    @pytest.mark.parametrize("column", [name for name in _COLUMNS if name != "support_hash"])
    def test_rejects_non_numeric_field_naming_line(self, tmp_path, column):
        path = str(tmp_path / "run.csv")
        write_metrics_csv(path, _sample_metrics())
        with open(path) as fh:
            lines = fh.read().split("\n")
        header = lines.index(",".join(_COLUMNS))
        row = lines[header + 2].split(",")
        row[_COLUMNS.index(column)] = "1.5x"
        lines[header + 2] = ",".join(row)
        with open(path, "w") as fh:
            fh.write("\n".join(lines))
        with pytest.raises(MetricsFormatError, match=f"run.csv:{header + 3}: {column} = '1.5x'"):
            read_metrics_csv(path)


class TestAccessors:
    def test_support_fingerprint(self):
        a = support_fingerprint(np.array([1, 5, 9]))
        assert a == support_fingerprint(np.array([1, 5, 9]))
        assert a != support_fingerprint(np.array([1, 5, 10]))
        assert len(a) == 12
