"""Monte-Carlo experiment harness: benchmark instances, sweeps, aggregation.

A sweep runs N independent trials of each (algorithm, budget) cell on one
instance and reports the fraction of trials whose decision matched the
oracle's best arm. Each trial draws from its own random stream derived from
(base seed, a stable hash of algorithm/budget/trial index), so results are
identical whatever the execution order, worker count, or set of other
algorithms in the sweep.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .algorithms import ALGORITHM_IDS, ALGORITHM_PARAMS, run_algorithm
from .core import BanditInstance, Gaussian, RngStream, oracle

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = [
    "GAUSSIAN_VARIANCE",
    "SYNTHETIC_NAMES",
    "SweepConfig",
    "CellResult",
    "SweepResult",
    "build_synthetic",
    "run_sweep",
    "confidence_bands",
    "log_error",
    "trial_stream_id",
    "weighted_log_error_slope",
]

GAUSSIAN_VARIANCE = 0.3
SYNTHETIC_NAMES = ("risky", "feasibility", "mean", "combined")
_DEFAULT_GAP = {"risky": 0.01, "feasibility": 0.01, "mean": 0.003, "combined": 0.01}
_TABLE_COLUMNS = (
    "algorithm",
    "budget",
    "trials",
    "accuracy",
    "log_error",
    "delta_band",
    "bernoulli_ci",
)


def build_synthetic(
    name: str,
    gap: float | None = None,
    num_arms: int = 10,
    num_attributes: int = 5,
    variance: float = GAUSSIAN_VARIANCE,
) -> BanditInstance:
    """Construct one of the four synthetic benchmark instances.

    All attributes are Gaussian with variance 0.3 by default. Published
    accuracy curves for this family are extremely sensitive to whether the
    noise scale is read as a variance or a standard deviation (0.3 vs 0.09),
    so the variance is exposed as a parameter; see the README's reproduction
    notes. The gap parameter ``a`` controls difficulty and must lie in
    (0.001, 0.1); defaults are 0.01 except for the pure mean-identification
    instance (0.003).

    The four shapes, for K arms and M attributes:

    * ``risky``: threshold 0.5. Arm K is the only feasible arm (all
      attributes 0.7). Every other arm has a high mean but one attribute at
      0.5 - a (the rest at 0.8 + a/(M-1), so the arm mean is 0.74 at the
      default shape).
    * ``feasibility``: threshold 0.5. Arm K is best but barely feasible
      (M-1 attributes at 0.8, one at 0.5 + a); all other arms sit safely at
      0.6 everywhere.
    * ``mean``: threshold 0.3, everything clearly feasible. Arm k has all
      attributes at 0.7 - (k-1) a, so arm 1 is best and the rest trail in an
      arithmetic progression.
    * ``combined``: threshold 0.5. The first K//2 arms are high-mean but
      infeasible (one attribute at 0.5 - a, the rest at 0.9 + a/(M-1)), the
      next K-1-K//2 arms are feasible with means stepping down from
      0.7 - a by a per arm, and arm K is best but barely feasible
      (M-1 attributes at 0.75, one at 0.5 + a).
    """
    if name not in SYNTHETIC_NAMES:
        raise ValueError(
            f"unknown synthetic instance {name!r}; choose one of {SYNTHETIC_NAMES}"
        )
    a = _DEFAULT_GAP[name] if gap is None else gap
    if not 0.001 < a < 0.1:
        raise ValueError(f"gap parameter must lie in (0.001, 0.1), got {a}")
    k, m = num_arms, num_attributes
    if k < 2:
        raise ValueError("synthetic instances need at least 2 arms")
    if m < 2 and name != "mean":
        raise ValueError(f"the {name} instance needs at least 2 attributes")
    if variance < 0:
        raise ValueError("variance must be non-negative")

    def arm(*means: float) -> tuple[Gaussian, ...]:
        return tuple(Gaussian(mu, variance) for mu in means)

    def flat(mu: float) -> tuple[Gaussian, ...]:
        return arm(*([mu] * m))

    def split(head: float, last: float) -> tuple[Gaussian, ...]:
        return arm(*([head] * (m - 1) + [last]))

    if name == "risky":
        threshold = 0.5
        rows = [split(0.8 + a / (m - 1), 0.5 - a) for _ in range(k - 1)]
        rows.append(flat(0.7))
    elif name == "feasibility":
        threshold = 0.5
        rows = [flat(0.6) for _ in range(k - 1)]
        rows.append(split(0.8, 0.5 + a))
    elif name == "mean":
        threshold = 0.3
        rows = [flat(0.7 - (i - 1) * a) for i in range(1, k + 1)]
    else:  # combined
        threshold = 0.5
        n_risky = k // 2
        rows = [split(0.9 + a / (m - 1), 0.5 - a) for _ in range(n_risky)]
        rows.extend(flat(0.7 - (i - n_risky) * a) for i in range(n_risky + 1, k))
        rows.append(split(0.75, 0.5 + a))
    return BanditInstance(arms=tuple(rows), threshold=threshold)


def trial_stream_id(algorithm: str, budget: int, trial: int) -> int:
    """Stable 64-bit stream id for one trial of one sweep cell.

    Keyed on (algorithm, budget, trial) so adding algorithms or budgets to
    a sweep never perturbs the randomness of existing cells.
    """
    digest = hashlib.blake2b(
        f"{algorithm}|{budget}|{trial}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def log_error(accuracy: float) -> float:
    """ln(1 - accuracy); -inf at accuracy 1 (flagged, not raised)."""
    if accuracy >= 1.0:
        return -math.inf
    return math.log(1.0 - accuracy)


def confidence_bands(accuracy: float, trials: int) -> tuple[float, float]:
    """Half-widths of the two reported uncertainty bands.

    Returns (delta_band, bernoulli_ci): the delta-method standard deviation
    of ln(1 - accuracy), sqrt(acc / (N (1 - acc))), and the 95% normal
    half-width for a Bernoulli mean, 1.96 sqrt(acc (1 - acc) / N). At
    accuracy 1 the delta band is undefined and reported as inf (an open
    band); boundary cases are flagged this way rather than raised.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise ValueError("accuracy must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if accuracy >= 1.0:
        delta = math.inf
    else:
        delta = math.sqrt(accuracy / (trials * (1.0 - accuracy)))
    bernoulli = 1.96 * math.sqrt(accuracy * (1.0 - accuracy) / trials)
    return delta, bernoulli


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: an instance crossed with algorithms and budgets.

    Args:
        instance: the resolved bandit instance.
        algorithms: stable identifiers from ``ALGORITHM_IDS``.
        budgets: strictly increasing pull budgets.
        trials: Monte-Carlo trials per cell (N).
        base_seed: root seed; trial t of cell (alg, T) uses stream
            (base_seed, hash(alg, T, t)).
        params: optional per-algorithm keyword overrides, e.g.
            {"fcsr": {"feasibility_fraction": 0.2, "apt_fraction": 0.3},
             "etc": {"explore_fraction": 0.5}}.
        instance_name: label carried into reports.
    """

    instance: BanditInstance
    algorithms: tuple[str, ...]
    budgets: tuple[int, ...]
    trials: int
    base_seed: int
    params: dict[str, dict[str, float]] = field(default_factory=dict)
    instance_name: str = "instance"

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "budgets", tuple(int(b) for b in self.budgets))
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        unknown = [a for a in self.algorithms if a not in ALGORITHM_IDS]
        if unknown:
            raise ValueError(
                f"unknown algorithm identifiers {unknown}; valid: {list(ALGORITHM_IDS)}"
            )
        if any(b < 0 for b in self.budgets) or not self.budgets:
            raise ValueError("budgets must be non-negative and non-empty")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        bad = [a for a in self.params if a not in ALGORITHM_IDS]
        if bad:
            raise ValueError(f"params given for unknown algorithms {bad}")
        for algorithm, overrides in self.params.items():
            unread = [key for key in overrides if key not in ALGORITHM_PARAMS[algorithm]]
            if unread:
                raise ValueError(
                    f"params for {algorithm!r} has keys it does not read: {unread}; "
                    f"valid: {list(ALGORITHM_PARAMS[algorithm])}"
                )


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (algorithm, budget) cell.

    ``accuracy`` is exactly 1 - error_count / trials. ``wall_time`` is
    excluded from equality so identical sweeps compare equal.
    """

    algorithm: str
    budget: int
    trials: int
    error_count: int
    accuracy: float
    log_error: float
    delta_band: float
    bernoulli_ci: float
    wall_time: float = field(compare=False, default=0.0)
    note: str = ""


@dataclass(frozen=True)
class SweepResult:
    """All cells of one sweep plus the identifying configuration echo."""

    instance_name: str
    base_seed: int
    trials: int
    cells: tuple[CellResult, ...]

    def cell(self, algorithm: str, budget: int) -> CellResult:
        for c in self.cells:
            if c.algorithm == algorithm and c.budget == budget:
                return c
        raise KeyError(f"no cell for ({algorithm}, {budget})")

    def accuracy(self, algorithm: str, budget: int) -> float:
        return self.cell(algorithm, budget).accuracy

    def to_table(self, sep: str = ",") -> str:
        """Delimiter-separated table, one row per cell."""
        lines = [sep.join(_TABLE_COLUMNS)]
        for c in self.cells:
            lines.append(
                sep.join(
                    [
                        c.algorithm,
                        str(c.budget),
                        str(c.trials),
                        _fmt(c.accuracy),
                        _fmt(c.log_error),
                        _fmt(c.delta_band),
                        _fmt(c.bernoulli_ci),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """JSON-safe structured form (non-finite floats become strings)."""
        return {
            "instance": self.instance_name,
            "base_seed": self.base_seed,
            "trials": self.trials,
            "cells": [
                {
                    "algorithm": c.algorithm,
                    "budget": c.budget,
                    "trials": c.trials,
                    "error_count": c.error_count,
                    "accuracy": _json_safe(c.accuracy),
                    "log_error": _json_safe(c.log_error),
                    "delta_band": _json_safe(c.delta_band),
                    "bernoulli_ci": _json_safe(c.bernoulli_ci),
                    "wall_time": c.wall_time,
                    "note": c.note,
                }
                for c in self.cells
            ],
        }


def _fmt(x: float) -> str:
    return repr(float(x))


def _json_safe(x: float) -> float | str:
    """``x``, or "nan", "inf" or "-inf" where JSON has no literal for it."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _count_errors(
    instance: BanditInstance,
    best_arm: int,
    algorithm: str,
    budget: int,
    params: dict[str, float],
    base_seed: int,
    lo: int,
    hi: int,
) -> int:
    errors = 0
    for t in range(lo, hi):
        rng = RngStream(base_seed, trial_stream_id(algorithm, budget, t))
        trace = run_algorithm(algorithm, instance, budget, rng, **params)
        if trace.decision != best_arm:
            errors += 1
    return errors


# The sweep's instance in a pool worker, set once per worker by
# ``_init_worker`` so that the tasks need not carry it.
_WORKER_INSTANCE: BanditInstance | None = None


def _init_worker(instance: BanditInstance) -> None:
    global _WORKER_INSTANCE
    _WORKER_INSTANCE = instance


def _count_errors_task(args) -> int:
    return _count_errors(_WORKER_INSTANCE, *args)


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run every (algorithm, budget) cell for ``config.trials`` trials.

    Trials are independent and stream-isolated, so the result is identical
    for any ``workers`` value and any execution order. A worker that dies
    breaks the whole process pool: the pool is then started again and the
    cell run once more, with a note saying so. A cell whose run raises
    otherwise, or breaks the new pool too, is recorded with a note and NaN
    statistics instead of aborting the sweep.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    truth = oracle(config.instance)
    min_pulls = config.instance.num_arms * config.instance.num_attributes
    cells = []
    executor = None
    broken: tuple[type[Exception], ...] = ()  # what a crashed worker raises
    if workers > 1:
        # Imported here, so that a one-worker sweep does not load them.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        def start_pool() -> ProcessPoolExecutor:
            return ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(config.instance,)
            )

        executor = start_pool()
        broken = (BrokenProcessPool,)
    try:
        for algorithm in config.algorithms:
            params = dict(config.params.get(algorithm, {}))
            for budget in config.budgets:
                start = time.perf_counter()
                note = "" if budget >= min_pulls else (
                    f"budget below one pull per attribute ({min_pulls})"
                )
                cell = (config, truth.best_arm, algorithm, budget, params)
                retried = ""
                try:
                    try:
                        errors = _run_cell(*cell, executor, workers)
                    except broken:
                        executor.shutdown()
                        executor = start_pool()
                        retried = "retried after a worker crash"
                        errors = _run_cell(*cell, executor, workers)
                except Exception as exc:  # recorded per-cell, not fatal
                    cells.append(
                        CellResult(
                            algorithm=algorithm,
                            budget=budget,
                            trials=config.trials,
                            error_count=-1,
                            accuracy=math.nan,
                            log_error=math.nan,
                            delta_band=math.nan,
                            bernoulli_ci=math.nan,
                            wall_time=time.perf_counter() - start,
                            note="; ".join(filter(None, (retried, f"failed: {exc}"))),
                        )
                    )
                    continue
                accuracy = 1.0 - errors / config.trials
                delta, bernoulli = confidence_bands(accuracy, config.trials)
                cells.append(
                    CellResult(
                        algorithm=algorithm,
                        budget=budget,
                        trials=config.trials,
                        error_count=errors,
                        accuracy=accuracy,
                        log_error=log_error(accuracy),
                        delta_band=delta,
                        bernoulli_ci=bernoulli,
                        wall_time=time.perf_counter() - start,
                        note="; ".join(filter(None, (note, retried))),
                    )
                )
    finally:
        if executor is not None:
            executor.shutdown()
    return SweepResult(
        instance_name=config.instance_name,
        base_seed=config.base_seed,
        trials=config.trials,
        cells=tuple(cells),
    )


def _run_cell(
    config: SweepConfig,
    best_arm: int,
    algorithm: str,
    budget: int,
    params: dict[str, float],
    executor: Executor | None,
    workers: int,
) -> int:
    n = config.trials
    if executor is None or n < 2 * workers:
        return _count_errors(
            config.instance, best_arm, algorithm, budget, params,
            config.base_seed, 0, n,
        )
    chunk = max(1, math.ceil(n / (workers * 4)))
    tasks = [
        (best_arm, algorithm, budget, params, config.base_seed, lo, min(lo + chunk, n))
        for lo in range(0, n, chunk)
    ]
    return sum(executor.map(_count_errors_task, tasks))


def weighted_log_error_slope(
    budgets: list[int] | tuple[int, ...] | np.ndarray,
    accuracies: list[float] | tuple[float, ...] | np.ndarray,
    trials: int,
) -> tuple[float, float]:
    """Weighted least-squares slope of ln(1 - accuracy) against budget.

    Each point is weighted by the inverse delta-method variance
    accuracy / (N (1 - accuracy)), and the returned standard error of the
    slope comes from the same variances, so ``slope + 1.645 * stderr < 0``
    is a one-sided 95% test for error decaying with budget. Requires every
    accuracy strictly inside (0, 1) and at least two points.

    Returns:
        (slope, stderr).
    """
    x = np.asarray(budgets, dtype=np.float64)
    acc = np.asarray(accuracies, dtype=np.float64)
    if x.shape != acc.shape or x.size < 2:
        raise ValueError("need matching budgets/accuracies with >= 2 points")
    if np.any(acc <= 0.0) or np.any(acc >= 1.0):
        raise ValueError("slope fit needs accuracies strictly inside (0, 1)")
    y = np.log(1.0 - acc)
    var = acc / (trials * (1.0 - acc))
    w = 1.0 / var
    xbar = float((w * x).sum() / w.sum())
    sxx = float((w * (x - xbar) ** 2).sum())
    if sxx <= 0.0:
        raise ValueError("budgets are degenerate (no spread)")
    ybar = float((w * y).sum() / w.sum())
    slope = float((w * (x - xbar) * (y - ybar)).sum() / sxx)
    stderr = math.sqrt(1.0 / sxx)
    return slope, stderr
