"""Monte-Carlo experiment harness: benchmark instances, sweeps, aggregation.

A sweep runs N independent trials of each (algorithm, budget) cell on one
instance. Each cell records how often each arm, or no arm, was returned, and
the fraction of trials whose decision matched the oracle's best arm. Each
trial draws from its own random stream derived from
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

from .algorithms import _check_params, _decisions
from .core import BanditInstance, Gaussian, _integer, _real, _stream_generators, oracle

__all__ = [
    "GAUSSIAN_VARIANCE",
    "SYNTHETIC_NAMES",
    "SweepConfig",
    "CellResult",
    "SweepResult",
    "build_synthetic",
    "run_sweep",
    "trial_stream_id",
    "weighted_log_error_slope",
]

GAUSSIAN_VARIANCE = 0.3
SYNTHETIC_NAMES = ("risky", "feasibility", "mean", "combined")
_DEFAULT_GAP = {"risky": 0.01, "feasibility": 0.01, "mean": 0.003, "combined": 0.01}
_TABLE_COLUMNS = ("algorithm", "budget", "trials", "error_count", "accuracy")
# The most trials run as one batch. A sweep cuts every cell's trials into
# the same spans of this many, at any worker count. A baseline's batch holds
# about 4.8 KB a trial on `combined` (K=10, M=5; `sr`, generators included).
# On wider instances its pre-drawn normals stay within 32 KB a trial
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
    notes. The gap parameter ``a`` controls difficulty, a real number in
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
    a = _real("gap", _DEFAULT_GAP[name] if gap is None else gap, "(0.001, 0.1)")
    k = _integer("num_arms", num_arms, 2)
    m = _integer("num_attributes", num_attributes, 1 if name == "mean" else 2)

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


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: an instance crossed with algorithms and budgets.

    Args:
        instance: the resolved bandit instance.
        algorithms: stable identifiers from ``ALGORITHM_IDS``.
        budgets: strictly increasing pull budgets, integers >= 0 (not bools).
        trials: Monte-Carlo trials per cell (N), an integer >= 1.
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
        budgets = tuple(_integer("each item of budgets", b, 0) for b in self.budgets)
        object.__setattr__(self, "budgets", budgets)
        object.__setattr__(self, "trials", _integer("trials", self.trials, 1))
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
        idle = [algorithm for algorithm in self.params if algorithm not in self.algorithms]
        if idle:
            raise ValueError(
                f"params for {idle}, which the sweep does not run; it runs {list(self.algorithms)}"
            )


@dataclass(frozen=True)
class CellResult:
    """Aggregated outcome of one (algorithm, budget) cell.

    ``decisions[k]`` counts the trials that returned arm k, and
    ``decisions[0]`` those that returned no arm, so it has K + 1 entries
    that sum to ``trials``. ``error_count`` is trials - decisions[best arm],
    and ``accuracy`` is exactly 1 - error_count / trials. A failed cell
    holds ``decisions=()``, ``error_count=-1`` and a NaN accuracy.
    ``wall_time`` is the cell's share of its sweep, in seconds: from the
    previous cell's completion (the first cell's: from the sweep's start,
    before any task is queued) to its own, so the cells' times add up to the
    sweep's. It is excluded from equality so identical sweeps compare equal.
    """

    algorithm: str
    budget: int
    trials: int
    decisions: tuple[int, ...]
    error_count: int
    accuracy: float
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


def _count_decisions(
    config: SweepConfig, algorithm: str, budget: int, lo: int, hi: int
) -> np.ndarray:
    """How often each arm, at index k, or no arm, at index 0, was returned
    among trials ``lo..hi`` (``hi`` excluded) of one cell of ``config``, run
    as one batch: an array of K + 1 counts. Trial t draws from
    ``RngStream(config.base_seed, trial_stream_id(algorithm, budget, t))``;
    the batch's generators are seeded in one vectorised pass that equals
    ``RngStream.generator()`` bit for bit."""
    generators = _stream_generators(config.base_seed, _stream_ids(algorithm, budget, range(lo, hi)))
    params = config.params.get(algorithm, {})
    decisions = _decisions(algorithm, config.instance, budget, generators, **params)
    return np.bincount(decisions, minlength=config.instance.num_arms + 1)


# The sweep's config in a pool worker, set once per worker by
# ``_init_worker`` so that the tasks need not carry it.
_WORKER_CONFIG: SweepConfig | None = None


def _init_worker(config: SweepConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _count_decisions_task(task: tuple[str, int, int, int]) -> np.ndarray:
    return _count_decisions(_WORKER_CONFIG, *task)


def run_sweep(config: SweepConfig, workers: int = 1) -> SweepResult:
    """Run every (algorithm, budget) cell for ``config.trials`` trials.

    Trials are independent and stream-isolated, so the result is identical
    for any ``workers`` value and any execution order. Every cell's trials
    are cut into the same spans of at most ``_MAX_BATCH``, at any worker
    count, and each span runs as one batch. With a pool, each span is one
    task, every cell's tasks are queued at once and collected in cell order,
    so no worker waits at a cell boundary; a cell's ``wall_time`` is then
    the time from the previous cell's completion (or the sweep's start) to
    its own, and the cells' times add up to the sweep's. A worker that dies
    breaks the whole process pool: the pool is then started again, the cell
    being collected and every later one queued once more, and that cell's
    note says so. A cell whose run raises otherwise, or breaks the new pool
    too, is recorded with a note, no decisions, an error count of -1 and a
    NaN accuracy instead of aborting the sweep.
    """
    _integer("workers", workers, 1)
    best_arm = oracle(config.instance).best_arm
    min_pulls = config.instance.num_arms * config.instance.num_attributes
    grid = [(algorithm, budget) for algorithm in config.algorithms for budget in config.budgets]
    spans = [(lo, min(lo + _MAX_BATCH, config.trials)) for lo in range(0, config.trials, _MAX_BATCH)]
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
                max_workers=workers, initializer=_init_worker, initargs=(config,)
            )

        executor = start_pool()
        broken = (BrokenProcessPool,)

    def cell_decisions(c: int) -> np.ndarray:
        """The decision counts of cell ``c``, summed over its spans; with a
        pool, every cell's tasks are queued first."""
        if executor is None:
            return sum(_count_decisions(config, *grid[c], *span) for span in spans)
        while len(queued) < len(grid):
            key = grid[len(queued)]
            queued.append([executor.submit(_count_decisions_task, (*key, *span)) for span in spans])
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
                    counts = cell_decisions(c)
                except broken:
                    executor.shutdown()
                    executor = start_pool()
                    del queued[c:]
                    retried = "retried after a worker crash"
                    counts = cell_decisions(c)
                decisions = tuple(counts.tolist())
                errors = config.trials - decisions[best_arm]
                notes = (note, retried)
            except Exception as exc:  # recorded per-cell, not fatal
                decisions, errors, notes = (), -1, (retried, f"failed: {exc}")
            start, done = done, time.perf_counter()
            cells.append(
                CellResult(
                    algorithm=algorithm,
                    budget=budget,
                    trials=config.trials,
                    decisions=decisions,
                    error_count=errors,
                    accuracy=math.nan if errors < 0 else 1.0 - errors / config.trials,
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
    least two points, each budget a real number (``_real``) and each accuracy
    one strictly inside (0, 1) (a NaN accuracy, as a failed cell records, is
    not), and trials an integer >= 1.

    Returns:
        (slope, stderr).
    """
    x = np.array([_real("each item of budgets", b) for b in budgets])
    acc = np.array([_real("each item of accuracies", a, "(0, 1)") for a in accuracies])
    if x.shape != acc.shape or x.size < 2:
        raise ValueError("need matching budgets/accuracies with >= 2 points")
    _integer("trials", trials, 1)
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
