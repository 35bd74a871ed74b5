"""fedarena: a deterministic federated-learning simulator for studying
poisoning membership-inference attacks and angle-based robust aggregation."""

from .aggregation import AggregationOutcome, AggregationRule
from .attacks import AttackerContext, AttackStrategy, CraftResult
from .data import AttackerData, Dataset, Partition
from .engine import ExperimentConfig, ExperimentResult, RoundRecord, Step, run, run_async, run_sync
from .mlp import ModelParams
from .theory import AngleSample, TruncatedGaussian

__version__ = "0.1.0"

__all__ = [
    "AggregationOutcome",
    "AggregationRule",
    "AngleSample",
    "AttackStrategy",
    "AttackerContext",
    "AttackerData",
    "CraftResult",
    "Dataset",
    "ExperimentConfig",
    "ExperimentResult",
    "ModelParams",
    "Partition",
    "RoundRecord",
    "Step",
    "TruncatedGaussian",
    "run",
    "run_async",
    "run_sync",
    "__version__",
]
