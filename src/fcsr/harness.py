"""Monte-Carlo experiment harness: benchmark instances, sweeps, aggregation.

A sweep runs N independent trials of each (algorithm, budget) cell on one
instance and reports the fraction of trials whose decision matched the
oracle's best arm. Each trial draws from its own random stream derived from
(base seed, a stable hash of algorithm/budget/trial index), so results are
identical whatever the execution order, worker count, or set of other
algorithms in the sweep. Each batch of a cell's trials runs together, its
generators seeded in one vectorised pass (``core._stream_generators``).
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any

import numpy as np

from .algorithms import _budget, _check_params, _decisions
from .core import BanditInstance, Gaussian, _integer, _stream_generators, oracle

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
# The most trials run as one batch. A baseline's batch holds about 4.8 KB a
# trial on `combined` (K=10, M=5; `sr`, generators included). On wider
# instances its pre-drawn normals stay within 32 KB a trial
# (``algorithms._NORMALS``), unless one stage alone is wider.
_MAX_BATCH = 256


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
    return _stream_ids(algorithm, budget, (trial,))[0]


def _stream_ids(algorithm: str, budget: int, trials) -> list[int]:
    """The stream id of each of ``trials``: the 8-byte blake2b digest of
    ``f"{algorithm}|{budget}|{trial}"``, read big-endian. The hash state of
    the prefix before the trial is computed once and copied for each trial."""
    prefix = hashlib.blake2b(f"{algorithm}|{budget}|".encode(), digest_size=8)
    ids = []
    for trial in trials:
        h = prefix.copy()
        h.update(f"{trial}".encode())
        ids.append(int.from_bytes(h.digest(), "big"))
    return ids


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
    if _integer("trials", trials) < 1:
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
        budgets: strictly increasing pull budgets, integers >= 0 (not bools).
        trials: Monte-Carlo trials per cell (N), an integer.
        base_seed: root seed, an integer; trial t of cell (alg, T) uses
            stream (base_seed, hash(alg, T, t)).
        params: optional per-algorithm keyword overrides, each a fraction
            in [0, 1), for algorithms the sweep runs, e.g.
            {"fcsr": {"feasibility_fraction": 0.2, "apt_fraction": 0.3},
             "etc": {"explore_fraction": 0.5}}; ``us`` and ``sr`` read none.
            Every run tests against ``instance.threshold``.
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
        budgets = tuple(_budget("each item of budgets", b) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "trials", _integer("trials", self.trials))
        object.__setattr__(self, "base_seed", _integer("base_seed", self.base_seed))
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        repeated = sorted({a for a in self.algorithms if self.algorithms.count(a) > 1})
        if repeated:
            raise ValueError(f"algorithms lists {repeated} more than once")
        for algorithm in self.algorithms:
            _check_params(algorithm, self.params.get(algorithm, {}))
        if not self.budgets:
            raise ValueError("budgets must be non-empty")
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budgets must be strictly increasing")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        idle = [algorithm for algorithm in self.params if algorithm not in self.algorithms]
        if idle:
            raise ValueError(
                f"params for {idle}, which the sweep does not run; it runs {list(self.algorithms)}"
            )


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (algorithm, budget) cell.

    ``accuracy`` is exactly 1 - error_count / trials. ``wall_time`` is the
    cell's share of its sweep, in seconds: from the previous cell's
    completion (the first cell's: from the sweep's start, before any task is
    queued) to its own, so the cells' times add up to the sweep's. It is
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

    def to_table(self) -> str:
        """Comma-separated table, one row per cell."""
        lines = [",".join(_TABLE_COLUMNS)]
        for c in self.cells:
            lines.append(",".join(str(getattr(c, column)) for column in _TABLE_COLUMNS))
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        """JSON-safe structured form (non-finite floats become strings)."""
        return {
            "instance": self.instance_name,
            "base_seed": self.base_seed,
            "trials": self.trials,
            "cells": _plain(self.cells),
        }


def _plain(x: Any) -> Any:
    """``x`` as JSON data: a dataclass becomes a dict of its fields in
    declaration order, an ndarray or tuple a list, and a float with no JSON
    literal "nan", "inf" or "-inf", item by item through lists and dicts.
    Anything else is returned as it is."""
    if is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in fields(x)}
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_plain(item) for item in x]
    if isinstance(x, dict):
        return {key: _plain(value) for key, value in x.items()}
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
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
    """Wrong decisions among trials ``lo..hi`` (``hi`` excluded) of one cell,
    run as one batch. Trial t draws from ``RngStream(base_seed,
    trial_stream_id(algorithm, budget, t))``; the batch's generators are
    seeded in one vectorised pass that equals ``RngStream.generator()`` bit
    for bit."""
    ids = _stream_ids(algorithm, budget, range(lo, hi))
    decisions = _decisions(algorithm, instance, budget, _stream_generators(base_seed, ids), **params)
    return int(np.count_nonzero(decisions != best_arm))


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
    for any ``workers`` value and any execution order. With a pool, every
    cell's batches are queued at once and collected in cell order, so no
    worker waits at a cell boundary; a cell's ``wall_time`` is then the time
    from the previous cell's completion (or the sweep's start) to its own,
    and the cells' times add up to the sweep's. A worker that dies breaks
    the whole process pool: the pool is then started again, the cell being
    collected and every later one queued once more, and that cell's note
    says so. A cell whose run raises otherwise, or breaks the new pool too,
    is recorded with a note and NaN statistics instead of aborting the sweep.
    """
    if _integer("workers", workers) < 1:
        raise ValueError("workers must be >= 1")
    truth = oracle(config.instance)
    min_pulls = config.instance.num_arms * config.instance.num_attributes
    grid = [(algorithm, budget) for algorithm in config.algorithms for budget in config.budgets]
    cells = []
    executor = None
    broken: tuple[type[Exception], ...] = ()  # what a crashed worker raises
    queued: list[list] = []  # each cell's futures, in cell order
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

    def tasks(c: int) -> list[tuple]:
        return _cell_tasks(config, truth.best_arm, workers, *grid[c])

    def cell_errors(c: int) -> int:
        """Wrong decisions in cell ``c``; with a pool, every cell's tasks are
        queued first."""
        if executor is None:
            return sum(_count_errors(config.instance, *task) for task in tasks(c))
        while len(queued) < len(grid):
            queued.append([executor.submit(_count_errors_task, task) for task in tasks(len(queued))])
        return sum(future.result() for future in queued[c])

    try:
        done = time.perf_counter()
        for c, (algorithm, budget) in enumerate(grid):
            note = "" if budget >= min_pulls else (
                f"budget below one pull per attribute ({min_pulls})"
            )
            retried = ""
            try:
                try:
                    errors = cell_errors(c)
                except broken:
                    executor.shutdown()
                    executor = start_pool()
                    del queued[c:]
                    retried = "retried after a worker crash"
                    errors = cell_errors(c)
                notes = (note, retried)
            except Exception as exc:  # recorded per-cell, not fatal
                errors, notes = -1, (retried, f"failed: {exc}")
            start, done = done, time.perf_counter()
            if errors < 0:
                accuracy = log_err = delta = bernoulli = math.nan
            else:
                accuracy = 1.0 - errors / config.trials
                log_err = log_error(accuracy)
                delta, bernoulli = confidence_bands(accuracy, config.trials)
            cells.append(
                CellResult(
                    algorithm=algorithm,
                    budget=budget,
                    trials=config.trials,
                    error_count=errors,
                    accuracy=accuracy,
                    log_error=log_err,
                    delta_band=delta,
                    bernoulli_ci=bernoulli,
                    wall_time=done - start,
                    note="; ".join(filter(None, notes)),
                )
            )
    finally:
        if executor is not None:
            # Queued tasks are dropped, so that an interrupted sweep returns
            # without running the rest of the grid.
            executor.shutdown(cancel_futures=True)
    return SweepResult(
        instance_name=config.instance_name,
        base_seed=config.base_seed,
        trials=config.trials,
        cells=tuple(cells),
    )


def _cell_tasks(
    config: SweepConfig, best_arm: int, workers: int, algorithm: str, budget: int
) -> list[tuple]:
    """One cell's tasks: its trials cut into batches of at most
    ``_MAX_BATCH``, and with a pool of at most a quarter of a worker's share."""
    n = config.trials
    chunk = _MAX_BATCH if workers == 1 else min(_MAX_BATCH, math.ceil(n / (workers * 4)))
    params = dict(config.params.get(algorithm, {}))
    return [
        (best_arm, algorithm, budget, params, config.base_seed, lo, min(lo + chunk, n))
        for lo in range(0, n, chunk)
    ]


def weighted_log_error_slope(
    budgets: list[int] | tuple[int, ...] | np.ndarray,
    accuracies: list[float] | tuple[float, ...] | np.ndarray,
    trials: int,
) -> tuple[float, float]:
    """Weighted least-squares slope of ln(1 - accuracy) against budget.

    Each point is weighted by the inverse delta-method variance
    accuracy / (N (1 - accuracy)), and the returned standard error of the
    slope comes from the same variances, so ``slope + 1.645 * stderr < 0``
    is a one-sided 95% test for error decaying with budget. Requires at
    least two points, finite budgets, every accuracy strictly inside (0, 1)
    (a NaN accuracy, as a failed cell records, is not) and trials an integer >= 1.

    Returns:
        (slope, stderr).
    """
    x = np.asarray(budgets, dtype=np.float64)
    acc = np.asarray(accuracies, dtype=np.float64)
    if x.shape != acc.shape or x.size < 2:
        raise ValueError("need matching budgets/accuracies with >= 2 points")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"slope fit needs finite budgets, got {x.tolist()}")
    if not np.all((acc > 0.0) & (acc < 1.0)):
        raise ValueError(f"slope fit needs accuracies strictly inside (0, 1), got {acc.tolist()}")
    if _integer("trials", trials) < 1:
        raise ValueError(f"slope fit needs trials >= 1, got {trials}")
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
