"""Distributed SGD with mergeable count-sketch gradient compression."""

from gradsketch.cluster import (
    MeteredChannel,
    TrainingDivergedError,
    TrainingResult,
    run_training,
)
from gradsketch.heavyhitters import KSparseVector, heavymix, topk_indices
from gradsketch.metrics import RoundRecord, RunMetrics, read_metrics_csv, write_metrics_csv
from gradsketch.optim import OptimizerConfig, lr_theory, min_xi
from gradsketch.problems import (
    Dataset,
    HingeSVMProblem,
    LogisticProblem,
    QuadraticProblem,
    load_dataset,
    split_dataset,
    synth_data,
)
from gradsketch.sketch import (
    ConfigMismatchError,
    CountSketch,
    SketchConfig,
    merge_all,
    size_for,
    sketch_vector,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigMismatchError",
    "CountSketch",
    "Dataset",
    "HingeSVMProblem",
    "KSparseVector",
    "LogisticProblem",
    "MeteredChannel",
    "OptimizerConfig",
    "QuadraticProblem",
    "RoundRecord",
    "RunMetrics",
    "SketchConfig",
    "TrainingDivergedError",
    "TrainingResult",
    "heavymix",
    "load_dataset",
    "lr_theory",
    "merge_all",
    "min_xi",
    "read_metrics_csv",
    "run_training",
    "size_for",
    "sketch_vector",
    "split_dataset",
    "synth_data",
    "topk_indices",
    "write_metrics_csv",
    "__version__",
]
