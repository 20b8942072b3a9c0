"""End-to-end tests of the config-driven runner and reporter."""

import io
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradsketch.cli as cli
from gradsketch.cli import ExperimentConfigError, load_experiment, main
from gradsketch.metrics import _COLUMNS, MetricsFormatError, RoundRecord, RunMetrics, read_metrics_csv, write_metrics_csv
from gradsketch.cluster import run_training
from gradsketch.optim import ALGORITHMS, _READ_BY, OptimizerConfig
from gradsketch.problems import DatasetFormatError, QuadraticProblem, _checksum, load_dataset
from gradsketch.sketch import SketchConfig, size_for
from gradsketch.wire import WireError

SYNTH_LOGISTIC = """
[problem]
kind = logistic
synth_n = 200
synth_d = 12
synth_separation = 3.0
synth_test_n = 80
lambda = 0.01
batch_size = 40

[optimizer]
mode = empirical
algorithm = sketched
k = 3
p = 3
t = 12
w = 2
momentum = 0.9
lr = 0.5

[sketch]
rows = 5
cols = 16

[seeds]
data = 11
sketch = 22
rng = 33

[output]
path = {out}
"""

QUADRATIC_THEORY = """
[problem]
kind = quadratic
quad_d = 32
quad_lambda_min = 1.0
quad_lambda_max = 3.0
quad_noise_sigma = 0.05
quad_n_samples = 128
batch_size = 16

[optimizer]
mode = theory
algorithm = sketched
k = 4
t = 10
w = 2
xi = 40.0

[sketch]
rows = 7
cols = 32

[seeds]
data = 5
sketch = 6
rng = 7
"""


FILE_HINGE = """
[problem]
kind = hinge-svm
dataset = {train}
test_dataset = {test}
positive_class = 0
lambda = 0.01
batch_size = 10

[optimizer]
mode = empirical
algorithm = true-topk
k = 2
t = 3

[seeds]
data = 1
sketch = 2
rng = 3
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadExperiment:
    def test_synth_logistic_config(self, tmp_path):
        cfg = write_config(tmp_path, SYNTH_LOGISTIC.format(out=tmp_path / "m.csv"))
        exp = load_experiment(cfg)
        assert exp.problem.kind == "logistic"
        assert exp.problem.d == 12
        assert exp.problem.n_train == 200
        assert exp.config.k == 3 and exp.config.w_workers == 2
        assert exp.sketch_config.r == 5 and exp.sketch_config.c == 16
        assert exp.sketch_config.seed == 22
        assert exp.batch_size == 40
        assert exp.output_path == str(tmp_path / "m.csv")

    def test_quadratic_theory_config(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        exp = load_experiment(cfg)
        assert exp.problem.kind == "quadratic"
        assert exp.config.mode == "theory" and exp.config.xi == 40.0
        assert exp.output_path is None

    def test_unknown_key_is_named(self, tmp_path):
        text = QUADRATIC_THEORY.replace("quad_d = 32", "quad_d = 32\nmystery_knob = 1")
        with pytest.raises(ExperimentConfigError, match="mystery_knob"):
            load_experiment(write_config(tmp_path, text))

    def test_unknown_section_is_named(self, tmp_path):
        with pytest.raises(ExperimentConfigError, match="extras"):
            load_experiment(write_config(tmp_path, QUADRATIC_THEORY + "\n[extras]\nx = 1\n"))

    def test_missing_seed_rejected(self, tmp_path):
        text = QUADRATIC_THEORY.replace("rng = 7\n", "")
        with pytest.raises(ExperimentConfigError, match="rng"):
            load_experiment(write_config(tmp_path, text))

    def test_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        exp = load_experiment(cfg, ["rng=99", "sketch=44"])
        assert exp.rng_seed == 99
        assert exp.sketch_config.seed == 44
        with pytest.raises(ExperimentConfigError, match="override"):
            load_experiment(cfg, ["lr=0.5"])
        with pytest.raises(ExperimentConfigError, match="integer"):
            load_experiment(cfg, ["rng=fast"])

    def test_sketched_requires_sketch_section(self, tmp_path):
        text = QUADRATIC_THEORY.replace("[sketch]\nrows = 7\ncols = 32\n", "")
        with pytest.raises(ExperimentConfigError, match="sketch"):
            load_experiment(write_config(tmp_path, text))

    def test_sketch_size_conflict_rejected(self, tmp_path):
        text = QUADRATIC_THEORY.replace("rows = 7", "rows = 7\nsize_k = 4")
        with pytest.raises(ExperimentConfigError, match="not both"):
            load_experiment(write_config(tmp_path, text))

    def test_sketch_size_derived_from_failure_probability(self, tmp_path):
        text = SYNTH_LOGISTIC.format(out="x.csv").replace(
            "rows = 5\ncols = 16", "size_k = 3\nsize_delta = 0.01"
        )
        exp = load_experiment(write_config(tmp_path, text))
        assert (exp.sketch_config.r, exp.sketch_config.c) == size_for(3, 12, 0.01)

    def test_bad_type_is_named(self, tmp_path):
        text = QUADRATIC_THEORY.replace("k = 4", "k = four")
        with pytest.raises(ExperimentConfigError, match="k = 'four'"):
            load_experiment(write_config(tmp_path, text))

    def test_invalid_optimizer_combination(self, tmp_path):
        text = QUADRATIC_THEORY.replace("xi = 40.0", "xi = 10.0")  # below the d=32 bound
        with pytest.raises(ExperimentConfigError, match="xi"):
            load_experiment(write_config(tmp_path, text))

    def test_file_dataset_with_binarization(self, tmp_path):
        train = tmp_path / "train.txt"
        test = tmp_path / "test.txt"
        rng = np.random.default_rng(0)
        for path, n in ((train, 30), (test, 10)):
            lines = []
            for i in range(n):
                feats = " ".join(f"{v:.3f}" for v in rng.normal(size=3))
                lines.append(f"{i % 3} {feats}")
            path.write_text("\n".join(lines) + "\n")
        text = f"""
[problem]
kind = hinge-svm
dataset = {train}
test_dataset = {test}
positive_class = 0
lambda = 0.01
batch_size = 10

[optimizer]
mode = empirical
algorithm = true-topk
k = 2
t = 3

[seeds]
data = 1
sketch = 2
rng = 3
"""
        exp = load_experiment(write_config(tmp_path, text))
        # 3 features normalized plus intercept
        assert exp.problem.d == 4
        assert set(exp.problem.train.labels.tolist()) == {-1, 1}

    def test_ragged_dataset_error_names_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 0.5 0.25\n-1 0.1\n")
        text = f"""
[problem]
kind = logistic
dataset = {bad}
test_dataset = {bad}
batch_size = 2

[optimizer]
mode = empirical
algorithm = vanilla
t = 1

[seeds]
data = 1
sketch = 2
rng = 3
"""
        with pytest.raises(ExperimentConfigError, match=":2"):
            load_experiment(write_config(tmp_path, text))


class TestRunCommand:
    def test_run_writes_metrics(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        cfg = write_config(tmp_path, SYNTH_LOGISTIC.format(out=out))
        assert main(["run", cfg]) == 0
        assert out.exists()
        metrics = read_metrics_csv(str(out))
        assert len(metrics.records) == 13
        assert metrics.config_echo["optimizer.algorithm"] == "sketched"
        assert "wrote" in capsys.readouterr().out

    def test_same_config_twice_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", cfg, "--out", out_a]) == 0
        assert main(["run", cfg, "--out", out_b]) == 0
        with open(out_a, "rb") as fa, open(out_b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_synth_run_echoes_the_data_checksum(self, tmp_path):
        # 1600 + 400 rows of data seed 3: synth_data(2000, 10, 0.0, seed=3)
        text = (
            SYNTH_LOGISTIC.replace("synth_n = 200", "synth_n = 1600")
            .replace("synth_d = 12", "synth_d = 10")
            .replace("synth_separation = 3.0", "synth_separation = 0.0")
            .replace("synth_test_n = 80", "synth_test_n = 400")
            .replace("data = 11", "data = 3")
            .replace("t = 12", "t = 1")
        )
        out = tmp_path / "metrics.csv"
        assert main(["run", write_config(tmp_path, text.format(out=out))]) == 0
        echo = read_metrics_csv(str(out)).config_echo
        assert echo["problem.checksum"] == "f62a7555280026da1b8b02f9fe7b1d9fecfba33420fb270d6300101177b0a906"

    def test_file_run_echoes_the_prepared_checksums(self, tmp_path):
        rng = np.random.default_rng(8)
        paths = {}
        for role, n in (("train", 30), ("test", 12)):
            paths[role] = tmp_path / f"{role}.txt"
            rows = [f"{i % 3} " + " ".join(f"{v:.3f}" for v in rng.normal(size=3)) for i in range(n)]
            paths[role].write_text("\n".join(rows) + "\n")
        out = tmp_path / "metrics.csv"
        text = FILE_HINGE.format(train=paths["train"], test=paths["test"])
        text = text.replace("positive_class = 0", "positive_class = 0\nnormalize = true")
        assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == 0
        echo = read_metrics_csv(str(out)).config_echo
        # binarized one-vs-all, scaled by the train range, intercept appended
        raw = {role: np.loadtxt(path) for role, path in paths.items()}
        lo, hi = raw["train"][:, 1:].min(), raw["train"][:, 1:].max()
        for role, data in raw.items():
            features = np.hstack([(data[:, 1:] - lo) / (hi - lo), np.ones((len(data), 1))])
            labels = np.where(data[:, 0] == 0, 1, -1)
            assert echo[f"problem.{role}_checksum"] == _checksum(features, labels)

    def test_file_run_without_normalization_echoes_it(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("0 0.5 0.25\n1 0.1 0.9\n0 0.2 0.3\n1 0.7 0.4\n")
        text = FILE_HINGE.format(train=data, test=data).replace("batch_size = 10", "batch_size = 2")
        text = text.replace("positive_class = 0", "positive_class = 0\nnormalize = false")
        out = tmp_path / "metrics.csv"
        assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == 0
        assert read_metrics_csv(str(out)).config_echo["problem.normalize"] == "False"

    @pytest.mark.parametrize(
        "text, old, new, named",
        [
            (FILE_HINGE, "positive_class = 0", "positive_class = 0\nnormalize = maybe",
             "[problem] normalize = 'maybe' is not a valid bool"),
            (QUADRATIC_THEORY, "quad_lambda_min = 1.0", "quad_lambda_min = 4.0",
             "[problem] quad_lambda_max must be a finite real in [4.0, inf), got 3.0"),
            (SYNTH_LOGISTIC, "lr = 0.5", "lr_points = 1", "[optimizer] lr_points entry '1' is not t:lr"),
            (SYNTH_LOGISTIC, "lr = 0.5", "lr_points = 1:x", "[optimizer] lr_points entry '1:x' is not numeric"),
            (SYNTH_LOGISTIC, "lr = 0.5", "bias_indices = x", "[optimizer] bias_indices 'x' must be comma-separated integers"),
            (QUADRATIC_THEORY, "rows = 7\ncols = 32\n", "", "[sketch] needs rows/cols or size_k/size_delta"),
            (QUADRATIC_THEORY, "kind = quadratic", "kind = lasso",
             "[problem] kind must be quadratic, logistic, or hinge-svm, got 'lasso'"),
        ],
        ids=["normalize", "quad_lambda_order", "lr_points-no-colon", "lr_points-not-numeric", "bias_indices",
             "sketch-sizing", "kind"],
    )
    def test_rejected_value_exits_2(self, tmp_path, capsys, text, old, new, named):
        text = text.replace(old, new).format(out=tmp_path / "x.csv", train="unused.txt", test="unused.txt")
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {named}"]
        assert not (tmp_path / "x.csv").exists()

    def test_multiclass_labels_without_positive_class_exit_2(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("0 0.5 0.25\n1 0.1 0.9\n2 0.2 0.3\n")
        text = FILE_HINGE.format(train=data, test=data).replace("positive_class = 0\n", "")
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: [problem] positive_class is unset, but the train labels are [0, 1, 2]; set it to binarize"
        ]

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.ini"
        assert main(["run", str(missing), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config: ") and str(missing) in err

    def test_value_spanning_lines_exits_2(self, tmp_path, capsys):
        # configparser joins an indented line onto the value before it; echoed
        # into the metrics file, such a value would split its line in two
        train, test = tmp_path / "tr\nain.txt", tmp_path / "test.txt"
        rng = np.random.default_rng(0)
        for path in (train, test):
            path.write_text("".join(f"{i % 3} {' '.join(f'{v:.3f}' for v in rng.normal(size=3))}\n" for i in range(30)))
        text = FILE_HINGE.format(train=f"{tmp_path}/tr\n    ain.txt", test=test)
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: [problem] dataset = {str(train)!r} spans more than one line"
        ]
        assert not (tmp_path / "x.csv").exists()

    def test_missing_dataset_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        text = FILE_HINGE.format(train=missing, test=missing)
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read dataset: ") and str(missing) in err

    def test_defect_in_training_is_not_a_config_error(self, tmp_path, capsys, monkeypatch):
        # load_experiment has run every configuration check; what training
        # raises besides divergence is a defect, and escapes main
        def corrupt(*args, **kwargs):
            raise WireError("corrupt frame")

        monkeypatch.setattr(cli, "run_training", corrupt)
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        with pytest.raises(WireError, match="corrupt frame"):
            main(["run", cfg, "--out", str(tmp_path / "x.csv")])
        assert "config error" not in capsys.readouterr().err

    def test_module_entry_point_runs(self, tmp_path):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        out = tmp_path / "metrics.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "gradsketch.cli", "run", write_config(tmp_path, QUADRATIC_THEORY), "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"wrote {out}: sketched/theory")
        assert len(read_metrics_csv(str(out)).records) == 11

    def test_missing_output_path_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        assert main(["run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: [output] path is unset and no --out is given"]

    def test_config_error_exits_2(self, tmp_path, capsys):
        text = QUADRATIC_THEORY.replace("k = 4", "k = 400")
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["config error: [optimizer] k must be an integer in [1, 32], got 400"]

    @pytest.mark.parametrize("key, old", [("mode", "theory"), ("algorithm", "sketched")])
    def test_unknown_mode_or_algorithm_exits_2(self, tmp_path, capsys, key, old):
        cfg = write_config(tmp_path, QUADRATIC_THEORY.replace(f"{key} = {old}", f"{key} = bogus"))
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: [optimizer] {key} must be one of" in capsys.readouterr().err

    def test_divergence_exits_3(self, tmp_path, capsys):
        text = """
[problem]
kind = quadratic
quad_d = 8
quad_noise_sigma = 0.0
quad_n_samples = 32
batch_size = 8

[optimizer]
mode = empirical
algorithm = vanilla
t = 400
lr = 1000.0

[seeds]
data = 1
sketch = 2
rng = 3
"""
        cfg = write_config(tmp_path, text)
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["run", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_non_finite_gradient_exits_3(self, tmp_path, capsys, monkeypatch):
        # worker 1 of the config's two computes a NaN gradient in round 3
        calls = []
        gradient = QuadraticProblem.gradient

        def poisoned(self, w, idx, *rest):
            g = gradient(self, w, idx, *rest)
            if len(calls) == 2 * 2 + 1:
                g[-1] = np.nan
            calls.append(idx)
            return g

        monkeypatch.setattr(QuadraticProblem, "gradient", poisoned)
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        with np.errstate(invalid="ignore"):
            code = main(["run", cfg, "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "round 3: worker 1 " in err
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_sketch_cell_exits_3(self, tmp_path, capsys, monkeypatch):
        # worker 1 of the config's two accumulates 1e308 in every coordinate
        # in round 3: finite values whose sketch cells overflow
        calls = []
        gradient = QuadraticProblem.gradient

        def inflated(self, w, idx, *rest):
            g = gradient(self, w, idx, *rest)
            if len(calls) == 2 * 2 + 1:
                g[:] = 1e308
            calls.append(idx)
            return g

        monkeypatch.setattr(QuadraticProblem, "gradient", inflated)
        text = QUADRATIC_THEORY.replace("mode = theory", "mode = empirical").replace("xi = 40.0", "lr = 0.05")
        code = main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged" in err and "round 3: worker 1 sent a sketch with a non-finite cell" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("xi = 40.0", "xi = nan", "[optimizer] xi must be a finite real in (0, inf), got nan"),
            ("xi = 40.0", "xi = 40.0\nlr = inf", "[optimizer] lr must be a finite real in (0, inf), got inf"),
            ("xi = 40.0", "xi = 40.0\nlr = -Infinity", "[optimizer] lr must be a finite real in (0, inf), got -inf"),
            ("xi = 40.0", "xi = 40.0\nbeta = NaN", "[optimizer] beta must be a finite real in (4, inf), got nan"),
            ("xi = 40.0", "xi = 40.0\nmu_scale = inf", "[optimizer] mu_scale must be a finite real in (0, inf), got inf"),
            ("quad_lambda_max = 3.0", "quad_lambda_max = inf",
             "[problem] quad_lambda_max must be a finite real in [1.0, inf), got inf"),
            ("quad_noise_sigma = 0.05", "quad_noise_sigma = nan",
             "[problem] quad_noise_sigma must be a finite real in [0, inf), got nan"),
        ],
        ids=["xi", "lr-inf", "lr-neg-inf", "beta", "mu_scale", "quad_lambda_max", "quad_noise_sigma"],
    )
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, old, new, named):
        cfg = write_config(tmp_path, QUADRATIC_THEORY.replace(old, new))
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {named}"]
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_lr_point_exits_2(self, tmp_path, capsys):
        text = SYNTH_LOGISTIC.replace("lr = 0.5", "lr_points = 1:0.5, 12:nan")
        cfg = write_config(tmp_path, text.format(out=tmp_path / "x.csv"))
        assert main(["run", cfg]) == 2
        assert "lr_points[1] lr must be a finite real in (0, inf), got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, named",
        [
            (QUADRATIC_THEORY.replace("quad_noise_sigma = 0.05", "quad_noise_sigma = -1.0"), "quad_noise_sigma must be a finite real in [0, inf), got -1.0"),
            (SYNTH_LOGISTIC.replace("synth_separation = 3.0", "synth_separation = -1.0"), "synth_separation must be a finite real in [0, inf), got -1.0"),
            (SYNTH_LOGISTIC.replace("lambda = 0.01", "lambda = -0.5"), "lambda must be a finite real in [0, inf), got -0.5"),
        ],
        ids=["quad_noise_sigma", "synth_separation", "lambda"],
    )
    def test_problem_constructor_error_exits_2(self, tmp_path, capsys, text, named):
        cfg = write_config(tmp_path, text.format(out=tmp_path / "x.csv"))
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"config error: [problem] {named}" in err

    @pytest.mark.parametrize(
        "size, named",
        [
            ("size_k = 9\nsize_delta = 0.1", "size_k must be an integer in [1, 4], got 9"),
            ("size_k = 4\nsize_delta = 1.5", "size_delta must be a finite real in (0, 1), got 1.5"),
            ("size_k = 4\nsize_delta = 5e-324", "size_delta=5e-324 is too small for d=4"),
        ],
        ids=["k-above-d", "delta-above-1", "d-over-delta-overflows"],
    )
    def test_unsizable_sketch_exits_2(self, tmp_path, capsys, size, named):
        text = QUADRATIC_THEORY.replace("quad_d = 32", "quad_d = 4").replace("rows = 7\ncols = 32", size)
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: [sketch] {named}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("t = 10", "t = -1", "[optimizer] t must be an integer in [0, inf], got -1"),
            ("w = 2", "w = 0", "[optimizer] w must be an integer in [1, inf], got 0"),
            ("rows = 7", "rows = 0", "[sketch] rows must be an integer in [1, 4294967295], got 0"),
            ("cols = 32", "cols = 0", "[sketch] cols must be an integer in [1, 4294967295], got 0"),
        ],
        ids=["t", "w", "rows", "cols"],
    )
    def test_constructor_error_names_the_config_key(self, tmp_path, capsys, old, new, named):
        # OptimizerConfig and SketchConfig name these t_rounds, w_workers, r and c
        assert main(["run", write_config(tmp_path, QUADRATIC_THEORY.replace(old, new)), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-1, 2**64])
    @pytest.mark.parametrize("by_override", [False, True], ids=["config", "override"])
    @pytest.mark.parametrize("key", ["data", "sketch", "rng"])
    def test_seed_out_of_range_exits_2(self, tmp_path, capsys, key, by_override, value):
        # data goes to QuadraticProblem and run_training, sketch to SketchConfig, rng to run_training
        text, overrides = QUADRATIC_THEORY, ["--seed-override", f"{key}={value}"]
        if not by_override:
            text, overrides = re.sub(rf"^{key} = \d+$", f"{key} = {value}", text, flags=re.MULTILINE), []
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv"), *overrides]) == 2
        expected = f"config error: [seeds] {key} must be an integer in [0, {2**64 - 1}], got {value}"
        assert capsys.readouterr().err.splitlines() == [expected]
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_unsketched_runs_sketch_seed_is_checked(self, tmp_path, value):
        # no API call takes it, so the CLI applies SketchConfig's rule itself
        text = QUADRATIC_THEORY.replace("algorithm = sketched", "algorithm = vanilla").replace("[sketch]\nrows = 7\ncols = 32\n", "")
        cfg = write_config(tmp_path, text.replace("sketch = 6", f"sketch = {value}"))
        with pytest.raises(ExperimentConfigError, match=re.escape(f"[seeds] sketch must be an integer in [0, {2**64 - 1}], got {value}")):
            load_experiment(cfg)

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("batch_size = 16", "batch_size = 0", "[problem] batch_size must be an integer in [1, 128], got 0"),
            ("batch_size = 16", "batch_size = 129", "[problem] batch_size must be an integer in [1, 128], got 129"),
            ("batch_size = 16\n", "batch_size = 2\n", "[problem] batch_size of 2 cannot cover 3 workers"),
        ],
        ids=["zero", "above-n-train", "below-workers"],
    )
    def test_bad_batch_size_exits_2(self, tmp_path, capsys, old, new, named):
        text = QUADRATIC_THEORY.replace("w = 2", "w = 3").replace(old, new)
        with pytest.raises(ExperimentConfigError, match=re.escape(named)):
            load_experiment(write_config(tmp_path, text))
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"config error: {named}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "text, old, new",
        [
            (QUADRATIC_THEORY, "quad_d = 32", "quad_d = 0"),
            (QUADRATIC_THEORY, "quad_n_samples = 128", "quad_n_samples = 0"),
            (QUADRATIC_THEORY, "quad_n_samples = 128", "quad_n_samples = -3"),
            (SYNTH_LOGISTIC, "synth_n = 200", "synth_n = 0"),
            (SYNTH_LOGISTIC, "synth_d = 12", "synth_d = 0"),
            (SYNTH_LOGISTIC, "synth_test_n = 80", "synth_test_n = 0"),
        ],
        ids=["quad_d", "quad_n_samples-zero", "quad_n_samples-negative", "synth_n", "synth_d", "synth_test_n"],
    )
    def test_non_positive_problem_size_exits_2(self, tmp_path, capsys, text, old, new):
        cfg = write_config(tmp_path, text.replace(old, new).format(out=tmp_path / "x.csv"))
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        key, value = new.split(" = ")
        assert f"config error: [problem] {key} must be an integer in [1, inf], got {value}" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_non_utf8_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_bytes(QUADRATIC_THEORY.replace("quadratic", "quadr\xe4tic").encode("latin-1"))
        assert main(["run", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_dataset_token_exits_2(self, tmp_path, capsys, token):
        data = tmp_path / "data.txt"
        data.write_text(f"1 0.5 0.25\n-1 0.1 {token}\n1 0.2 0.3\n")
        text = f"""
[problem]
kind = logistic
dataset = {data}
test_dataset = {data}
batch_size = 2

[optimizer]
mode = empirical
algorithm = vanilla
t = 1

[seeds]
data = 1
sketch = 2
rng = 3
"""
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"data.txt:2: non-finite feature token '{token}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("target, reason", [("missing/x.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_output_exits_2_before_training(self, tmp_path, capsys, monkeypatch, target, reason):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although the output cannot be written")

        monkeypatch.setattr(cli, "run_training", no_training)
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        out = str(tmp_path / target)
        assert main(["run", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.splitlines() == [f"cannot write {out}: {reason}"]

    @pytest.mark.parametrize("spoil", ["remove the directory", "make the target a directory"])
    def test_failed_write_after_training_exits_2(self, tmp_path, capsys, monkeypatch, spoil):
        # the output becomes unwritable while the run trains
        out_dir = tmp_path / "runs"
        out_dir.mkdir()
        out = out_dir / "x.csv"
        train = cli.run_training

        def spoiling(*args, **kwargs):
            result = train(*args, **kwargs)
            if spoil == "remove the directory":
                out_dir.rmdir()
            else:
                out.mkdir()
            return result

        monkeypatch.setattr(cli, "run_training", spoiling)
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        assert main(["run", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"cannot write {out}: ")
        assert not list(tmp_path.rglob(".metrics-*.tmp"))

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", cfg, "--out", out_a]) == 0
        assert main(["run", cfg, "--out", out_b, "--seed-override", "data=404"]) == 0
        a = read_metrics_csv(out_a)
        b = read_metrics_csv(out_b)
        assert a.records[-1].train_loss != b.records[-1].train_loss


def _source_config(tmp_path, source):
    """A config that runs, for each [problem] data source."""
    if source == "quadratic runs":
        return QUADRATIC_THEORY
    if source == "synthetic-blob runs":
        return SYNTH_LOGISTIC.format(out=tmp_path / "x.csv")
    rng = np.random.default_rng(0)
    for name in ("train.txt", "test.txt"):
        rows = (f"{i % 3} " + " ".join(f"{v:.3f}" for v in rng.normal(size=3)) for i in range(20))
        (tmp_path / name).write_text("\n".join(rows) + "\n")
    return FILE_HINGE.format(train=tmp_path / "train.txt", test=tmp_path / "test.txt")


def _default_text(default):
    if default is cli.REQUIRED:
        return "required"
    if default is None or default == ():
        return "unset" if default is None else "empty"
    return str(default).lower() if isinstance(default, bool) else str(default)


_PROBLEM_TABLES = cli._KEY_TABLES["problem"]
_FOREIGN_PROBLEM_KEYS = [
    (source, key)
    for source, table in _PROBLEM_TABLES.items()
    for key in sorted(set().union(*_PROBLEM_TABLES.values()) - set(table))
]


def _set_keys(text, settings):
    """``text`` with each ``(section, key, value)`` in place of any earlier
    setting of the key, or with the key removed for a value of None."""
    for section, key, value in settings:
        text = re.sub(rf"^{key} = .*\n", "", text, flags=re.MULTILINE)
        if value is not None:
            text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)
    return text


_SIZE_K_SIZING = [("sketch", "rows", None), ("sketch", "cols", None), ("sketch", "size_k", 4),
                  ("sketch", "size_delta", 0.5)]
# (data source, settings, the "[section] key" the error must start with): the
# config errors about one key, and a non-finite value in each float key
_KEYED_ERRORS = {
    "momentum-unread": ("quadratic runs", [("optimizer", "mode", "empirical"), ("optimizer", "algorithm", "vanilla"),
                                           ("optimizer", "xi", None), ("optimizer", "momentum", 0.9)],
                        "[optimizer] momentum"),
    "lr_points-order": ("synthetic-blob runs", [("optimizer", "lr", None), ("optimizer", "lr_points", "2:0.1, 1:0.1")],
                        "[optimizer] lr_points"),
    "bias-repeated": ("synthetic-blob runs", [("optimizer", "bias_indices", "0, 0")], "[optimizer] bias_indices"),
    "bias-past-d": ("synthetic-blob runs", [("optimizer", "bias_indices", "40")], "[optimizer] bias_indices"),
    "candidate-budget": ("synthetic-blob runs", [("optimizer", "p", 1), ("optimizer", "bias_indices", 0)],
                         "[optimizer] p"),
    "xi-unset": ("quadratic runs", [("optimizer", "xi", None)], "[optimizer] xi"),
    "xi-below-bound": ("quadratic runs", [("optimizer", "xi", 1.0)], "[optimizer] xi"),
    "lambda-order": ("quadratic runs", [("problem", "quad_lambda_min", 4.0)], "[problem] quad_lambda_max"),
    "k-past-d": ("quadratic runs", [("optimizer", "k", 40)], "[optimizer] k"),
    "lambda-min-zero": ("quadratic runs", [("problem", "quad_lambda_min", 0)], "[problem] quad_lambda_min"),
    "positive_class-unset": ("dataset-file runs", [("problem", "positive_class", None)], "[problem] positive_class"),
    "quad_d-unset": ("quadratic runs", [("problem", "quad_d", None)], "[problem] quad_d"),
    "t-unset": ("synthetic-blob runs", [("optimizer", "t", None)], "[optimizer] t"),
    **{
        f"{key}-{value}" + (f"-{user.split()[0].split('-')[0]}" if name == "problem" else ""): (
            user if name == "problem" else "quadratic runs",
            (_SIZE_K_SIZING if name == "sketch" else []) + [(name, key, value)], f"[{name}] {key}")
        for name, tables in cli._KEY_TABLES.items()
        for user, table in tables.items()
        for key, (parse, _) in table.items() if parse is float
        for value in ("nan", "inf", "-inf")
    },
}


class TestKeyTables:
    @pytest.mark.parametrize("source", list(_PROBLEM_TABLES))
    def test_each_source_config_runs(self, tmp_path, source):
        out = tmp_path / "x.csv"
        assert main(["run", write_config(tmp_path, _source_config(tmp_path, source)), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("source, key", _FOREIGN_PROBLEM_KEYS)
    def test_key_of_another_source_exits_2(self, tmp_path, capsys, source, key):
        text = _source_config(tmp_path, source).replace("[problem]\n", f"[problem]\n{key} = 1\n", 1)
        out = tmp_path / "x.csv"
        assert main(["run", write_config(tmp_path, text), "--out", str(out)]) == 2
        assert f"config error: [problem] {key} is not used by {source}" in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_key_of_another_source_exits_2(self, tmp_path, capsys):
        text = QUADRATIC_THEORY.replace("batch_size = 16", "batch_size = 16\nlambda = banana")
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: [problem] lambda is not used by quadratic runs" in capsys.readouterr().err

    def test_sketch_section_of_unsketched_run_exits_2(self, tmp_path, capsys):
        text = QUADRATIC_THEORY.replace("algorithm = sketched", "algorithm = vanilla").replace("rows = 7", "rows = zero")
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: [sketch] is not used by vanilla runs" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_optimizer_key_the_run_does_not_read_exits_2(self, tmp_path, capsys):
        text = QUADRATIC_THEORY.replace("mode = theory", "mode = empirical").replace("xi = 40.0", "momentum = 0.9")
        text = text.replace("algorithm = sketched", "algorithm = vanilla").replace("[sketch]\nrows = 7\ncols = 32\n", "")
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: [optimizer] momentum is not read by empirical vanilla runs" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_readme_run_list_matches_the_optimizer_rule(self):
        # README lists, per [optimizer] key that not every run reads, the runs that read it
        expected = {
            name: f"every {mode} run" if algorithms == ALGORITHMS else f"{mode} {', '.join(algorithms)} runs"
            for name, (mode, algorithms) in _READ_BY.items()
        }
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert dict(re.findall(r"^- `(\w+)`: (.+)$", readme, re.MULTILINE)) == expected

    def test_readme_key_table_matches_the_cli(self):
        # (section, key) -> (type, default, the runs whose table holds the key)
        rows = {}
        for name, tables in cli._KEY_TABLES.items():
            for user, table in tables.items():
                for key, (parse, default) in table.items():
                    kind = parse.__name__.strip("_").replace("_", " ")
                    rows.setdefault((f"[{name}]", key), [kind, _default_text(default)]).append(user)
        expected = {cell: (kind, default, ", ".join(users)) for cell, (kind, default, *users) in rows.items()}
        readme = {}
        with open(Path(__file__).parents[1] / "README.md", encoding="utf-8") as fh:
            for line in fh:
                cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
                if len(cells) == 5 and cells[0].startswith("["):
                    readme[(cells[0], cells[1])] = tuple(cells[2:])
        assert readme == expected

    def test_fuzz_pools_hold_every_key(self):
        for name, tables in cli._KEY_TABLES.items():
            for table in tables.values():
                assert set(table) <= set(_KEY_POOLS[name]), name

    @pytest.mark.parametrize("source, settings, label", list(_KEYED_ERRORS.values()), ids=list(_KEYED_ERRORS))
    def test_config_error_starts_with_its_section_and_key(self, tmp_path, capsys, source, settings, label):
        text = _set_keys(_source_config(tmp_path, source), settings)
        assert main(["run", write_config(tmp_path, text), "--out", str(tmp_path / "x.csv")]) == 2
        [err] = capsys.readouterr().err.splitlines()
        named = re.match(r"config error: (\[(\w+)\] (\w+))\b", err)
        assert named and named[1] == label, err
        assert any(named[3] in table for table in cli._KEY_TABLES[named[2]].values())


class TestReportCommand:
    def _run_two(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        vanilla = QUADRATIC_THEORY.replace("algorithm = sketched", "algorithm = vanilla").replace(
            "[sketch]\nrows = 7\ncols = 32\n", ""
        )
        cfg2 = write_config(tmp_path, vanilla, name="vanilla.ini")
        out_a, out_b = str(tmp_path / "sketched.csv"), str(tmp_path / "vanilla.csv")
        assert main(["run", cfg, "--out", out_a]) == 0
        assert main(["run", cfg2, "--out", out_b]) == 0
        return out_a, out_b

    def test_report_table(self, tmp_path, capsys):
        out_a, out_b = self._run_two(tmp_path)
        capsys.readouterr()
        assert main(["report", out_a, out_b]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("file")
        assert len(lines) == 3
        assert "sketched" in lines[1] and "vanilla" in lines[2]
        # vanilla moves everything, so its factor column reads exactly 1
        assert "1" in lines[2].split()

    def test_report_long_csv(self, tmp_path, capsys):
        out_a, out_b = self._run_two(tmp_path)
        capsys.readouterr()
        long_csv = tmp_path / "long.csv"
        assert main(["report", out_a, out_b, "--csv", str(long_csv)]) == 0
        lines = long_csv.read_text().splitlines()
        # header plus (10+1) records per run
        assert len(lines) == 1 + 11 + 11
        assert lines[0].split(",")[0] == "file"

    @pytest.mark.parametrize("target, reason", [("missing/y.csv", "No such file or directory"), (".", "Is a directory")])
    def test_unwritable_long_csv_exits_2(self, tmp_path, capsys, target, reason):
        out_a, out_b = self._run_two(tmp_path)
        capsys.readouterr()
        long_csv = str(tmp_path / target)
        assert main(["report", out_a, out_b, "--csv", long_csv]) == 2
        assert capsys.readouterr().err.splitlines() == [f"cannot write {long_csv}: {reason}"]

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("column", [0, 1, 8])  # t, train_loss, bytes_up
    def test_non_numeric_field_exits_2(self, tmp_path, capsys, column):
        out_a, _ = self._run_two(tmp_path)
        with open(out_a) as fh:
            lines = fh.read().split("\n")
        header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
        row = lines[header + 1].split(",")
        row[column] = "oops"
        lines[header + 1] = ",".join(row)
        with open(out_a, "w") as fh:
            fh.write("\n".join(lines))
        capsys.readouterr()
        assert main(["report", out_a]) == 2
        assert f"parse error: {out_a}:{header + 2}:" in capsys.readouterr().err

    def test_oversized_field_exits_2(self, tmp_path, capsys):
        # beyond the csv module's 131,072-character field limit
        out_a, _ = self._run_two(tmp_path)
        with open(out_a) as fh:
            lines = fh.read().split("\n")
        header = next(i for i, line in enumerate(lines) if line.startswith("t,"))
        row = lines[header + 1].split(",")
        row[-1] = "x" * 140_000
        lines[header + 1] = ",".join(row)
        with open(out_a, "w") as fh:
            fh.write("\n".join(lines))
        capsys.readouterr()
        assert main(["report", out_a]) == 2
        assert f"parse error: {out_a}:{header + 2}: field larger than field limit" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        out_a, _ = self._run_two(tmp_path)
        with open(out_a, "rb") as fh:
            data = fh.read()
        with open(out_a, "wb") as fh:
            fh.write(data.replace(b"config problem.kind = quadratic", b"config problem.kind = quadr\xffatic"))
        capsys.readouterr()
        assert main(["report", out_a]) == 2
        assert f"parse error: {out_a}: not UTF-8" in capsys.readouterr().err

    def test_non_metrics_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello\n")
        assert main(["report", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err


# Fuzzing the three text parsers: every input either loads or raises the
# parser's own error, and through the CLI ``run`` and ``report`` exit 0 or 2
# (an exception would escape ``main``).  Values come from small pools, so an
# example allocates at most a few hundred KiB and runs at most 16 rounds in
# at most 16 dimensions, where even the pools' largest step sizes and
# curvatures keep every value finite.

_SMALL_INTS = ["0", "1", "2", "3", "4", "9", "16", "-1", "2.5", "x", ""]
_ANY_INTS = _SMALL_INTS + ["99999999999999999999", "18446744073709551616", "-9223372036854775809"]
_FLOATS = ["0", "0.5", "1.0", "5.0", "40", "-1", "1e-3", "nan", "inf", "-inf", "x", ""]
_WORDS = ["quadratic", "logistic", "hinge-svm", "theory", "empirical", "sketched", "vanilla",
          "true-topk", "local-topk", "true", "no", "x", ""]
_FILES = [f"{{dir}}/{name}" for name in ("good.txt", "classes.txt", "ragged.txt", "latin1.txt", "missing.txt")] + [""]
_KEY_POOLS = {
    "problem": {
        "kind": _WORDS, "dataset": _FILES, "test_dataset": _FILES, "normalize": _WORDS,
        "add_intercept": _WORDS, "positive_class": _ANY_INTS, "lambda": _FLOATS, "batch_size": _SMALL_INTS,
        "synth_n": _SMALL_INTS, "synth_d": _SMALL_INTS, "synth_separation": _FLOATS, "synth_test_n": _SMALL_INTS,
        "quad_d": _SMALL_INTS, "quad_lambda_min": _FLOATS, "quad_lambda_max": _FLOATS,
        "quad_noise_sigma": _FLOATS, "quad_n_samples": _SMALL_INTS, "mystery": ["1"],
    },
    "optimizer": {
        "mode": _WORDS, "algorithm": _WORDS, "k": _ANY_INTS, "p": _ANY_INTS, "t": _SMALL_INTS,
        "w": _SMALL_INTS, "momentum": _FLOATS, "lr": _FLOATS, "xi": _FLOATS, "beta": _FLOATS,
        "mu_scale": _FLOATS, "lr_points": ["1:0.5, 3:0.1", "3:0.1, 1:0.5", "0:1", "1:x", "1", "1:nan", ""],
        "bias_indices": ["0", "0, 2", "2, 0", "2, 2", "-1", "99", "1,", "x", ""],
    },
    "sketch": {"rows": _SMALL_INTS, "cols": _SMALL_INTS, "size_k": _SMALL_INTS,
               "size_delta": ["0.01", "0.5", "1.5", "0", "5e-324", "nan", "x"]},
    "seeds": {"data": _ANY_INTS, "sketch": _ANY_INTS, "rng": _ANY_INTS},
    "output": {"path": ["{dir}/elsewhere.csv"]},
    "extras": {"x": ["1"]},
}
_SEEDS = {"data": "1", "sketch": "2", "rng": "3"}
_CONFIG_BASES = [
    {
        "problem": {"kind": "quadratic", "quad_d": "16", "quad_n_samples": "16", "batch_size": "4"},
        "optimizer": {"mode": "empirical", "algorithm": "sketched", "k": "2", "p": "2", "t": "3", "w": "2", "lr": "0.5"},
        "sketch": {"rows": "3", "cols": "9"},
        "seeds": _SEEDS,
    },
    {
        "problem": {"kind": "logistic", "synth_n": "16", "synth_d": "4", "batch_size": "4"},
        "optimizer": {"mode": "theory", "algorithm": "vanilla", "k": "1", "t": "2", "xi": "40"},
        "seeds": _SEEDS,
    },
    {
        "problem": {"kind": "hinge-svm", "dataset": "{dir}/good.txt", "test_dataset": "{dir}/good.txt", "batch_size": "2"},
        "optimizer": {"mode": "empirical", "algorithm": "local-topk", "k": "1", "t": "2", "w": "2"},
        "seeds": _SEEDS,
    },
]


@st.composite
def _config_texts(draw):
    sections = {name: dict(keys) for name, keys in draw(st.sampled_from(_CONFIG_BASES)).items()}
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(sorted(_KEY_POOLS)))
        action = draw(st.sampled_from(["set", "set", "delete key", "delete section"]))
        if action == "delete section":
            sections.pop(name, None)
            continue
        key = draw(st.sampled_from(sorted(_KEY_POOLS[name])))
        if action == "delete key":
            sections.get(name, {}).pop(key, None)
        else:
            sections.setdefault(name, {})[key] = draw(st.sampled_from(_KEY_POOLS[name][key]))
    text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())
    return draw(st.one_of(st.just(text.encode()), st.binary(max_size=40), st.text(max_size=40).map(str.encode)))


_LABELS = ["1", "-1", "0", "2", "1.5", "x", "99999999999999999999", "-9223372036854775809", "9223372036854775807"]
_FEATURES = ["0.5", "-2", "3", "1e400", "nan", "-inf", "0x1", "1_0", "x", "\xa0"]
_dataset_lines = st.one_of(
    st.tuples(st.sampled_from(_LABELS), st.lists(st.sampled_from(_FEATURES), max_size=3)).map(
        lambda lf: " ".join([lf[0], *lf[1]])
    ),
    st.sampled_from(["", "# comment", "   ", "\t1 0.5 2", "1"]),
)
_dataset_bytes = st.tuples(
    st.lists(_dataset_lines, max_size=6), st.sampled_from(["\n", "\r\n"]), st.sampled_from([b"", b"\xff"])
).map(lambda t: t[1].join(t[0]).encode() + t[2])

_METRICS_LINES = ["", "#", "# config", "# config a = b", "# summary s = 1.5", "# summary s", "# other",
                  "t,train_loss", ",".join(_COLUMNS),
                  "0,1,2", '"', 'a,"b', "\r", "\x00", "9" * 140_000]
_METRICS_TOKENS = ["", "x", "nan", "inf", "-1", "1e400", "99999999999999999999", "1.5", "0", '"', "\x00", " 1"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    metrics = RunMetrics(
        config_echo={"problem.kind": "quadratic", "optimizer.algorithm": "sketched"},
        records=[RoundRecord(t=0, train_loss=2.5, test_metric=1.0),
                 RoundRecord(t=1, train_loss=1.5, test_metric=0.5, support_size=2, bytes_up=40, support_hash="abc")],
        summary={"final_train_loss": 1.5, "compression_factor": 4.0, "status": "ok"},
    )
    write_metrics_csv(str(root / "base.csv"), metrics)
    (root / "good.txt").write_text("1 0.5 0.25\n-1 0.1 0.9\n1 0.2 0.3\n-1 0.7 0.4\n")
    (root / "classes.txt").write_text("0 0.5 0.25\n1 0.1 0.9\n2 0.2 0.3\n")
    (root / "ragged.txt").write_text("1 0.5 0.25\n-1 0.1\n")
    (root / "latin1.txt").write_bytes("1 0.5 0.25\n-1 0.1 0.\xe4\n".encode("latin-1"))
    return root


def _quiet_main(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


class TestInputFuzz:
    @settings(max_examples=120, deadline=None)
    @given(text=_config_texts())
    def test_load_experiment(self, fuzz_dir, text):
        path = fuzz_dir / "exp.ini"
        path.write_bytes(text.replace(b"{dir}", str(fuzz_dir).encode()))
        try:
            load_experiment(str(path))
        except ExperimentConfigError:
            pass
        assert _quiet_main(["run", str(path), "--out", str(fuzz_dir / "out.csv")]) in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=_dataset_bytes)
    def test_load_dataset(self, fuzz_dir, data):
        path = fuzz_dir / "data.txt"
        path.write_bytes(data)
        try:
            load_dataset(str(path))
        except DatasetFormatError:
            pass
        config = _CONFIG_BASES[2]["problem"] | {"dataset": str(path), "test_dataset": str(fuzz_dir / "good.txt")}
        text = "[problem]\n" + "".join(f"{k} = {v}\n" for k, v in config.items())
        text += "[optimizer]\nmode = empirical\nalgorithm = vanilla\nt = 1\n[seeds]\ndata = 1\nsketch = 2\nrng = 3\n"
        (fuzz_dir / "data.ini").write_text(text)
        assert _quiet_main(["run", str(fuzz_dir / "data.ini"), "--out", str(fuzz_dir / "out.csv")]) in (0, 2)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_read_metrics_csv(self, fuzz_dir, data):
        lines = (fuzz_dir / "base.csv").read_text().split("\n")
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(lines) - 1))
            action = data.draw(st.sampled_from(["replace", "insert", "delete", "field"]))
            if action == "delete":
                del lines[i]
            elif action == "field":
                fields = lines[i].split(",")
                fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(_METRICS_TOKENS))
                lines[i] = ",".join(fields)
            else:
                lines.insert(i + (action == "insert"), data.draw(st.sampled_from(_METRICS_LINES)))
                if action == "replace":
                    del lines[i]
            if not lines:
                lines.append("")
        raw = "\n".join(lines).encode()
        cut = data.draw(st.integers(0, len(raw)))
        raw = raw[:cut] + data.draw(st.sampled_from([b"", b"\xff"])) + raw[cut:]
        path = fuzz_dir / "m.csv"
        path.write_bytes(raw)
        try:
            read_metrics_csv(str(path))
        except MetricsFormatError:
            pass
        assert _quiet_main(["report", str(path)]) in (0, 2)


# The CLI passes each run value on to the API call that takes it and checks
# none itself, so it must reject a config exactly when that call rejects the
# value, naming the config key that set it in place of the parameter.
_AGREEMENT_CONFIG = """
[problem]
kind = quadratic
quad_d = 8
quad_n_samples = 16
batch_size = {batch_size}
[optimizer]
mode = empirical
algorithm = sketched
k = 2
p = 2
t = 1
w = {w}
lr = 0.5
[sketch]
rows = 3
cols = 9
[seeds]
data = {data}
sketch = {sketch}
rng = {rng}
"""
# (API call, parameter) -> the config key that sets it
_AGREEMENT_KEYS = {
    ("QuadraticProblem", "seed"): "[seeds] data",
    ("SketchConfig", "seed"): "[seeds] sketch",
    ("run_training", "batch_size"): "[problem] batch_size",
    ("run_training", "data_seed"): "[seeds] data",
    ("run_training", "rng_seed"): "[seeds] rng",
}
_SEED_DRAWS = st.sampled_from([-1, 0, 2**64 - 1, 2**64])


def _api_error(batch_size, w, data, sketch, rng):
    """The config's run through the API: the first call that raises
    ValueError, with its error, or None when the run completes."""
    call = "QuadraticProblem"
    try:
        problem = QuadraticProblem(np.linspace(1.0, 5.0, 8), 0.0, 16, seed=data)
        config = OptimizerConfig(mode="empirical", algorithm="sketched", k=2, p=2, t_rounds=1, w_workers=w, lr=0.5)
        call = "SketchConfig"
        sketch_config = SketchConfig(d=8, r=3, c=9, seed=sketch)
        call = "run_training"
        run_training(problem, config, sketch_config, batch_size=batch_size, data_seed=data, rng_seed=rng)
    except ValueError as exc:
        return call, exc
    return None


@settings(max_examples=200, deadline=None)
@given(batch_size=st.integers(-1, 17), w=st.sampled_from([1, 2, 3]), data=_SEED_DRAWS, sketch=_SEED_DRAWS, rng=_SEED_DRAWS)
def test_cli_rejects_a_config_exactly_when_the_api_rejects_its_values(fuzz_dir, batch_size, w, data, sketch, rng):
    path = fuzz_dir / "agreement.ini"
    path.write_text(_AGREEMENT_CONFIG.format(batch_size=batch_size, w=w, data=data, sketch=sketch, rng=rng))
    failure = _api_error(batch_size, w, data, sketch, rng)
    if failure is None:
        load_experiment(str(path))
        return
    call, exc = failure
    name = re.match(r"\w*", str(exc)).group()
    with pytest.raises(ExperimentConfigError) as cli_error:
        load_experiment(str(path))
    assert str(cli_error.value) == _AGREEMENT_KEYS[call, name] + str(exc)[len(name):]
