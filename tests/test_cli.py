"""End-to-end tests of the config-driven runner and reporter."""

import numpy as np
import pytest

from gradsketch.cli import ExperimentConfigError, load_experiment, main
from gradsketch.metrics import read_metrics_csv
from gradsketch.problems import QuadraticProblem
from gradsketch.sketch import size_for

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

    def test_missing_output_path_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        assert main(["run", cfg]) == 2
        assert "output" in capsys.readouterr().err

    def test_config_error_exits_2(self, tmp_path, capsys):
        text = QUADRATIC_THEORY.replace("k = 4", "k = 400")
        cfg = write_config(tmp_path, text)
        assert main(["run", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert "k=400" in capsys.readouterr().err

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

        def poisoned(self, w, idx):
            g = gradient(self, w, idx)
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

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, QUADRATIC_THEORY)
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", cfg, "--out", out_a]) == 0
        assert main(["run", cfg, "--out", out_b, "--seed-override", "data=404"]) == 0
        a = read_metrics_csv(out_a)
        b = read_metrics_csv(out_b)
        assert a.records[-1].train_loss != b.records[-1].train_loss


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

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.csv")]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_non_metrics_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("hello\n")
        assert main(["report", str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err
