"""Feasibility-constrained fixed-budget best-arm identification in grouped bandits.

Public surface: the environment types (:mod:`fcsr.core`), difficulty indices
and adversarial families (:mod:`fcsr.hardness`), the FCSR algorithm and its
baselines (:mod:`fcsr.algorithms`), the Monte-Carlo harness
(:mod:`fcsr.harness`), the ratings ingester (:mod:`fcsr.movielens`), and the
``fcsr`` command line (:mod:`fcsr.cli`).
"""

from .algorithms import (
    ALGORITHM_IDS,
    RunTrace,
    ScheduleSpec,
    apt_phase,
    build_schedule,
    run_algorithm,
    run_fcsr,
    sample_until_feasible,
    uniform_phase,
)
from .core import (
    AttributeDistribution,
    BanditInstance,
    Bernoulli,
    Empirical,
    Gaussian,
    OracleResult,
    RngStream,
    StatsState,
    oracle,
)
from .hardness import (
    ExponentPrediction,
    HardnessReport,
    compute_hardness,
    generate_feasibility_class,
    generate_risky_class,
    predict_exponents,
)
from .harness import (
    CellResult,
    SweepConfig,
    SweepResult,
    build_synthetic,
    run_sweep,
    trial_stream_id,
    weighted_log_error_slope,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ALGORITHM_IDS",
    "AttributeDistribution",
    "BanditInstance",
    "Bernoulli",
    "CellResult",
    "Empirical",
    "ExponentPrediction",
    "Gaussian",
    "HardnessReport",
    "OracleResult",
    "RngStream",
    "RunTrace",
    "ScheduleSpec",
    "StatsState",
    "SweepConfig",
    "SweepResult",
    "apt_phase",
    "build_schedule",
    "build_synthetic",
    "compute_hardness",
    "generate_feasibility_class",
    "generate_risky_class",
    "oracle",
    "predict_exponents",
    "run_algorithm",
    "run_fcsr",
    "run_sweep",
    "sample_until_feasible",
    "trial_stream_id",
    "uniform_phase",
    "weighted_log_error_slope",
]
