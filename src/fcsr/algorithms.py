"""Fixed-budget identification algorithms for grouped bandits.

Implements the feasibility-constrained successive-rejects strategy (FCSR)
and three baselines (uniform sampling, successive rejects with the
feasibility-gated score, explore-then-commit). Every run takes exactly one
instance, a total pull budget T, and a random stream, and returns a
:class:`RunTrace` whose ``decision`` is an arm id in 1..K or 0 when the
survivor does not look feasible.

FCSR splits the budget three ways per elimination round: a uniform pass over
the arm's attributes, an adaptive thresholding pass that concentrates pulls
on attributes whose empirical means sit close to the threshold, and a
feasibility pass that re-samples empirically infeasible attributes from a
dedicated per-arm budget. Budgets of eliminated arms are recycled into later
uniform passes.

All integer budget splits (floors of fractional budgets, the round
schedule) are computed in exact rational arithmetic: float rounding of
quantities like ``0.29 * 100`` would otherwise shift single pulls and break
pinned schedule values.

Each run is single-threaded over private state; runs are embarrassingly
parallel across trials as long as every trial gets its own RngStream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    BanditInstance,
    RngStream,
    StatsState,
    _as_generator,
    _gated_mean,
)

__all__ = [
    "ScheduleSpec",
    "FcsrConfig",
    "RunTrace",
    "build_schedule",
    "uniform_phase",
    "apt_phase",
    "sample_until_feasible",
    "run_fcsr",
    "run_uniform_baseline",
    "run_sr_baseline",
    "run_etc_baseline",
    "run_algorithm",
    "ALGORITHM_IDS",
]

ALGORITHM_IDS = ("fcsr", "us", "sr", "etc")
# The keyword overrides of run_algorithm that each algorithm reads.
ALGORITHM_PARAMS = {
    "fcsr": ("feasibility_fraction", "apt_fraction", "threshold"),
    "us": ("threshold",),
    "sr": ("threshold",),
    "etc": ("explore_fraction", "threshold"),
}

DEFAULT_FEASIBILITY_FRACTION = 0.2
DEFAULT_APT_FRACTION = 0.3
DEFAULT_EXPLORE_FRACTION = 0.5

_CHUNK = 512  # single-pull buffer refill size
_GALLOP = 32  # single pulls of a run before the rest of it goes in numpy blocks
_BATCH = 16  # fewest (arm, attribute) cells of a uniform pass drawn in one call
_ZERO = Fraction(0)


def _exact(x: float | int | Fraction) -> Fraction:
    """Exact rational value of a numeric parameter.

    Floats go through their shortest decimal repr, so f=0.2 means exactly
    1/5 rather than the nearest binary double.
    """
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _floor_mul(frac: Fraction, n: int) -> int:
    """floor(frac * n), exactly."""
    return frac.numerator * n // frac.denominator


@dataclass(frozen=True)
class ScheduleSpec:
    """Successive-rejects round budgets for K arms and budget T.

    ``cumulative[r-1]`` is n_r, the total sample count each surviving arm
    should have reached by the end of round r; ``delta[r-1]`` is the
    per-arm increment for round r. The normalizer is
    nbar = 1/2 + sum_{k=2}^{K} 1/k and
    n_r = ceil(floor((1-f) T) / (nbar (K+1-r))).

    Ceilings can overshoot: the weighted total
    sum_r (K+1-r) delta[r-1] is at most floor((1-f) T) + (K-1), never more.
    The hard per-run budget guard (not the schedule) enforces total pulls
    <= T.
    """

    num_arms: int
    budget: int
    feasibility_fraction: float
    nbar: float
    cumulative: tuple[int, ...]
    delta: tuple[int, ...]

    def weighted_total(self) -> int:
        """sum over rounds of (arms alive) * (per-arm increment)."""
        k = self.num_arms
        return sum((k + 1 - r) * d for r, d in enumerate(self.delta, start=1))


# Memoised: the schedule is pure and frozen, and every trial of a sweep cell
# asks for the same one. Typed, because 0, 0.0 and Fraction(0) are equal keys
# and the spec echoes the caller's feasibility_fraction.
@functools.lru_cache(maxsize=256, typed=True)
def build_schedule(num_arms: int, budget: int, feasibility_fraction: float = 0.0) -> ScheduleSpec:
    """Compute the elimination schedule exactly.

    Args:
        num_arms: K >= 2.
        budget: total pull budget T >= 0.
        feasibility_fraction: fraction f in [0, 1) reserved away from the
            round schedule (0 for the plain successive-rejects baseline).
    """
    if num_arms < 2:
        raise ValueError("the round schedule needs at least 2 arms")
    if budget < 0:
        raise ValueError("budget must be non-negative")
    f = _exact(feasibility_fraction)
    if not 0 <= f < 1:
        raise ValueError(f"feasibility fraction must lie in [0, 1), got {feasibility_fraction}")
    sr_budget = _floor_mul(1 - f, budget)
    nbar = Fraction(1, 2) + sum(Fraction(1, k) for k in range(2, num_arms + 1))
    cumulative = tuple(
        math.ceil(Fraction(sr_budget) / (nbar * (num_arms + 1 - r)))
        for r in range(1, num_arms)
    )
    delta = tuple(cur - prev for cur, prev in zip(cumulative, (0,) + cumulative[:-1]))
    return ScheduleSpec(num_arms, budget, feasibility_fraction, float(nbar), cumulative, delta)


@dataclass(frozen=True)
class FcsrConfig:
    """Hyperparameters for one FCSR run.

    Args:
        budget: total pull budget T.
        feasibility_fraction: f in (0, 1); fT is split evenly into per-arm
            feasibility budgets. Default 0.2.
        apt_fraction: g in (0, 1); share of each round's per-arm budget sent
            to the adaptive thresholding pass. Default 0.3.
        threshold: feasibility threshold; None means use the instance's own.

    A budget of at least K*M is recommended so every attribute can be
    sampled at least once; smaller budgets are legal and simply force the
    final decision from sparse statistics.
    """

    budget: int
    feasibility_fraction: float = DEFAULT_FEASIBILITY_FRACTION
    apt_fraction: float = DEFAULT_APT_FRACTION
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be non-negative")
        if not 0.0 < self.feasibility_fraction < 1.0:
            raise ValueError("feasibility fraction must lie strictly inside (0, 1)")
        if not 0.0 < self.apt_fraction < 1.0:
            raise ValueError("apt fraction must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class RunTrace:
    """Everything observable about one run.

    ``decision`` is the chosen arm (1..K) or 0 for "no feasible arm".
    ``per_round_scores`` holds, for each scoring point, the (arm, score)
    pairs of the arms still in play. Round-structured algorithms fill
    ``elimination_order`` with exactly K-1 arms.
    """

    decision: int
    pulls_total: int
    pulls_by_phase: dict[str, int] = field(default_factory=dict)
    elimination_order: tuple[int, ...] = ()
    per_round_scores: tuple[tuple[tuple[int, float], ...], ...] = ()


class _RunState:
    """Statistics, reward buffers and budget guard of one run.

    ``sums``, ``counts`` and ``mu`` hold one row of Python numbers per arm,
    zeros or a copy of ``stats``. Single pulls pop from a buffer per (arm,
    attribute) refilled in blocks of ``_CHUNK`` from the run's generator; an
    arm's buffers are allocated when it first pulls singly, which the
    baselines never do. A uniform pass draws the sum of n pulls of each
    attribute in one shot with the exact law of that sum. Both depend only
    on the generator and the pull history, so a run is reproducible from its
    (seed, stream) alone. ``used`` counts pulls, and no pass takes it past
    ``cap``.

    A uniform pass over several arms draws all its block sums with one
    generator call when every attribute is Gaussian or every one Bernoulli
    (``BanditInstance._sum_law``), the pass has at least ``_BATCH`` cells and
    the cap does not cut it short; the call yields the values of one call
    per cell, in the same order. Below ``_BATCH`` cells, such as FCSR's
    one-arm passes at M = 5, the array call's fixed cost exceeds the
    per-cell calls it saves, so those stay one ``draw_sum`` per cell, as do
    Empirical and mixed instances.

    The adaptive thresholding and sample-until-feasible passes pull one
    attribute for a run of steps at a time. The first ``_GALLOP`` pulls of a
    run go one by one. If the run goes on and at least ``_GALLOP`` pulls of
    the pass are left, the rest of it is evaluated over the buffered values
    in numpy blocks (:meth:`_gallop`), with the same draws and bit-equal
    statistics; a shorter remainder costs less as single pulls than as a
    block.
    """

    __slots__ = ("arms", "law", "gen", "bufs", "chunks", "sums", "counts", "mu", "used", "cap")

    def __init__(
        self, instance: BanditInstance, gen: np.random.Generator, cap: int,
        stats: StatsState | None = None,
    ) -> None:
        k, m = instance.num_arms, instance.num_attributes
        self.arms, self.law, self.gen = instance.arms, instance._sum_law, gen
        self.used, self.cap = 0, cap
        # bufs[i][j] holds the unread tail of chunks[i, j], the last block
        # drawn for (i, j), in reverse order so that a pull is a pop;
        # bufs[i] is None until arm i first pulls singly (``_arm_bufs``).
        self.bufs: list[list[list[float]] | None] = [None] * k
        self.chunks: dict[tuple[int, int], np.ndarray] = {}
        if stats is None:
            self.sums = [[0.0] * m for _ in range(k)]
            self.counts = [[0] * m for _ in range(k)]
            self.mu = [[0.0] * m for _ in range(k)]
        else:
            self.sums = stats.reward_sums.tolist()
            self.counts = stats.pull_counts.tolist()
            self.mu = stats.empirical_means.tolist()

    def _arm_bufs(self, i: int) -> list[list[float]]:
        """Arm ``i``'s single-pull buffers, allocated on first use."""
        bufs = self.bufs[i]
        if bufs is None:
            bufs = self.bufs[i] = [[] for _ in self.sums[i]]
        return bufs

    def _refill(self, i: int, j: int) -> None:
        """Draw the next ``_CHUNK`` rewards of (i, j) into its empty buffer."""
        chunk = self.arms[i][j].draw_many(_CHUNK, self.gen)
        self.chunks[i, j] = chunk
        self.bufs[i][j].extend(chunk[::-1].tolist())

    def _gallop(
        self, i: int, j: int, n: int, s: float, c: int,
        stay: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> tuple[int, float, int, float]:
        """The rest of a run of at most ``n`` pulls on attribute (i, j), whose
        running sum and count are ``s`` and ``c``, one buffer at a time.

        ``stay(counts, means)`` marks the pulls after which the run goes on;
        the run ends after the first pull it does not mark. A buffer is
        refilled only when it is empty and the run needs another value, as a
        single pull would do, so the generator sees the same calls. The
        running sums come from ``np.cumsum`` over ``[s, x1, ..., xk]``, which
        adds in the order of ``s += x``, so every statistic is bit-equal to
        pulling one at a time. Returns (pulls, sum, count, mean) at the end.
        """
        buf = self.bufs[i][j]
        done = 0
        while True:
            if not buf:
                self._refill(i, j)
            chunk = self.chunks[i, j]
            start = len(chunk) - len(buf)
            k = min(n - done, len(buf))
            run = np.empty(k + 1)
            run[0] = s
            run[1:] = chunk[start:start + k]
            sums = np.cumsum(run)[1:]
            counts = np.arange(c + 1, c + k + 1, dtype=np.float64)
            means = sums / counts
            ok = stay(counts, means)
            last = int(ok.argmin())
            ended = not ok[last]
            if ended:
                k = last + 1
            del buf[-k:]
            done += k
            s, c, est = float(sums[k - 1]), c + k, float(means[k - 1])
            if ended or done == n:
                return done, s, c, est

    def uniform(self, arms: Sequence[int], budget: int) -> int:
        """floor(budget / M) pulls of each attribute of each of ``arms``, arm
        by arm in the order given and attributes in index order, until the
        cap; the sum of each (arm, attribute) block is one draw."""
        m = len(self.sums[0])
        limit = self.cap - self.used
        quota = budget // m
        if quota <= 0 or limit <= 0:
            return 0
        cells = len(arms) * m
        gen = self.gen
        if self.law is not None and cells >= _BATCH and quota * cells <= limit:
            family, params = self.law
            rows = family._draw_sums(quota, params.take(arms, 1), gen).tolist()
            for i, row in zip(arms, rows):
                sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
                for j, x in enumerate(row):
                    s = sums[j] + x
                    c = counts[j] + quota
                    sums[j] = s
                    counts[j] = c
                    mu[j] = s / c
            used = quota * cells
        else:  # one draw_sum per cell; the cap may cut the pass short
            used = 0
            for i in arms:
                sums, counts, mu, dists = self.sums[i], self.counts[i], self.mu[i], self.arms[i]
                for j in range(m):
                    take = quota if quota <= limit - used else limit - used
                    if take <= 0:
                        break
                    s = sums[j] + dists[j].draw_sum(take, gen)
                    c = counts[j] + take
                    sums[j] = s
                    counts[j] = c
                    mu[j] = s / c
                    used += take
        self.used += used
        return used

    def apt(self, i: int, budget: int, threshold: float) -> int:
        """Adaptive thresholding pulls on arm ``i``: each step samples the
        attribute minimizing sqrt(count) * |empirical mean - threshold|,
        lowest index on ties.

        Only the pulled attribute's score changes, so the pick stays the same
        while its score is below ``lo``, the lowest score before it, and at
        most ``hi``, the lowest score after it; one scan finds the pick and
        both bounds, and the run of pulls on it needs no further scan.
        """
        limit = self.cap - self.used
        steps = budget if budget <= limit else limit
        if steps <= 0:
            return 0
        sums, counts, mu, bufs = self.sums[i], self.counts[i], self.mu[i], self._arm_bufs(i)
        m = len(sums)
        sqrt = math.sqrt
        inf = math.inf
        scores = [sqrt(counts[j]) * abs(mu[j] - threshold) for j in range(m)]
        inner = range(1, m)
        left = steps
        while left:
            j = 0
            best = scores[0]
            lo = hi = inf
            for t in inner:
                v = scores[t]
                if v < best:
                    lo = best
                    hi = inf
                    best = v
                    j = t
                elif v < hi:
                    hi = v
            s, c, buf = sums[j], counts[j], bufs[j]
            for _ in range(_GALLOP if left >= 2 * _GALLOP else left):
                if not buf:
                    self._refill(i, j)
                s += buf.pop()
                c += 1
                est = s / c
                d = est - threshold
                left -= 1
                sc = sqrt(c) * (d if d >= 0.0 else -d)
                if not (sc < lo and sc <= hi):
                    break
            else:  # every pull stayed on j
                if left:
                    def stay(cs: np.ndarray, ms: np.ndarray) -> np.ndarray:
                        ss = np.sqrt(cs) * np.abs(ms - threshold)
                        return (ss < lo) & (ss <= hi)

                    pulls, s, c, est = self._gallop(i, j, left, s, c, stay)
                    left -= pulls
                    sc = sqrt(c) * abs(est - threshold)
            sums[j] = s
            counts[j] = c
            mu[j] = est
            scores[j] = sc
        self.used += steps
        return steps

    def suf(self, i: int, feasibility_budget: int, threshold: float) -> int:
        """Sample-until-feasible pulls on arm ``i``, at most ``feasibility_budget``.

        Repeatedly takes the lowest-index attribute whose empirical mean is
        at or below the threshold and samples it until it crosses.
        """
        limit = self.cap - self.used
        cap = feasibility_budget if feasibility_budget <= limit else limit
        if cap <= 0:
            return 0
        sums, counts, mu, bufs = self.sums[i], self.counts[i], self.mu[i], self._arm_bufs(i)
        m = len(sums)
        used = 0
        while used < cap:
            j = -1
            for t in range(m):
                if mu[t] <= threshold:
                    j = t
                    break
            if j < 0:
                break
            s, c, buf = sums[j], counts[j], bufs[j]
            left = cap - used
            for _ in range(_GALLOP if left >= 2 * _GALLOP else left):
                if not buf:
                    self._refill(i, j)
                s += buf.pop()
                c += 1
                est = s / c
                used += 1
                if est > threshold:
                    break
            else:  # every pull left j at or below the threshold
                if used < cap:
                    pulls, s, c, est = self._gallop(
                        i, j, cap - used, s, c, lambda cs, ms: ms <= threshold
                    )
                    used += pulls
            sums[j] = s
            counts[j] = c
            mu[j] = est
        self.used += used
        return used

    def scored(self, arms, threshold: float) -> list[tuple[int, float]]:
        """(arm index, feasibility-gated score) for each of ``arms``."""
        return [(i, _gated_mean(self.mu[i], threshold)) for i in arms]

    def decide(self, scored: list[tuple[int, float]], threshold: float) -> int:
        """The decision rule of every algorithm: the id of the highest score in
        ``scored`` (lowest arm on ties) if all its empirical means exceed the
        threshold, else 0."""
        best = min(scored, key=lambda pair: (-pair[1], pair[0]))[0]
        return best + 1 if min(self.mu[best]) > threshold else 0


def _ids(scored: list[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    return tuple((i + 1, s) for i, s in scored)


# --- Standalone phase operations over StatsState (the contract surface). ---


def _on_row(
    instance: BanditInstance, stats: StatsState, arm: int, cap: int,
    rng: RngStream | np.random.Generator, method: Callable[..., int], *args,
) -> int:
    """``method(state, arm - 1, *args)`` on a run state that holds ``stats``
    and has budget guard ``cap``; then stores ``arm``'s row back."""
    if not 1 <= arm <= stats.num_arms:
        raise IndexError(f"arm {arm} out of range 1..{stats.num_arms}")
    i = arm - 1
    state = _RunState(instance, _as_generator(rng), cap, stats)
    n = method(state, i, *args)
    stats.reward_sums[i] = state.sums[i]
    stats.pull_counts[i] = state.counts[i]
    stats.empirical_means[i] = state.mu[i]
    return n


def uniform_phase(
    instance: BanditInstance,
    stats: StatsState,
    arm: int,
    budget: int,
    rng: RngStream | np.random.Generator,
) -> int:
    """Sample each attribute of ``arm`` floor(budget / M) times, in order.

    The remainder budget mod M is discarded. Returns the number of pulls
    made; ``stats`` is updated in place.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return _on_row(
        instance, stats, arm, budget, rng, lambda state, i: state.uniform((i,), budget)
    )


def apt_phase(
    instance: BanditInstance,
    stats: StatsState,
    arm: int,
    budget: int,
    threshold: float,
    rng: RngStream | np.random.Generator,
) -> int:
    """Run exactly ``budget`` adaptive thresholding pulls on ``arm``.

    Each step pulls the attribute with the smallest
    sqrt(count) * |empirical mean - threshold|, lowest index on ties,
    continuing from whatever statistics ``stats`` already holds.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    return _on_row(instance, stats, arm, budget, rng, _RunState.apt, budget, threshold)


def sample_until_feasible(
    instance: BanditInstance,
    stats: StatsState,
    arm: int,
    feasibility_budget: int,
    threshold: float,
    rng: RngStream | np.random.Generator,
) -> int:
    """Push ``arm``'s empirically infeasible attributes above the threshold.

    Works through attributes lowest index first, sampling each until its
    empirical mean strictly exceeds the threshold, and stops when no
    attribute is at or below the threshold or the feasibility budget runs
    out. Returns the unspent feasibility budget; on a return value > 0
    every attribute of the arm is empirically feasible.
    """
    if feasibility_budget < 0:
        raise ValueError("feasibility budget must be non-negative")
    return feasibility_budget - _on_row(
        instance, stats, arm, feasibility_budget, rng,
        _RunState.suf, feasibility_budget, threshold,
    )


# --- Full algorithm runs. ---


def _successive_rejects(
    instance: BanditInstance, budget: int, rng: RngStream | np.random.Generator,
    threshold: float, f: Fraction, g: Fraction,
) -> RunTrace:
    """FCSR's elimination loop (see :func:`run_fcsr`); with f = g = 0 it is
    plain successive rejects. A pass whose budget is 0 is skipped, since it
    would make no pulls."""
    k = instance.num_arms
    schedule = build_schedule(k, budget, f)
    state = _RunState(instance, _as_generator(rng), budget)
    feas_budget = [_floor_mul(f / k, budget)] * k
    keep = 1 - g
    extra_pool = 0
    active = list(range(k))
    eliminated: list[int] = []
    round_scores: list[tuple[tuple[int, float], ...]] = []
    phase_pulls = {"uniform": 0, "apt": 0, "suf": 0}

    for increment in schedule.delta:
        share = extra_pool // len(active)
        extra_pool -= share * len(active)
        uniform_budget = _floor_mul(keep, increment) + share
        apt_budget = _floor_mul(g, increment)
        if apt_budget or any(feas_budget):
            for i in active:
                phase_pulls["uniform"] += state.uniform((i,), uniform_budget)
                if apt_budget:
                    phase_pulls["apt"] += state.apt(i, apt_budget, threshold)
                if feas_budget[i]:
                    pulls = state.suf(i, feas_budget[i], threshold)
                    feas_budget[i] -= pulls
                    phase_pulls["suf"] += pulls
        else:  # nothing else draws this round: one uniform pass over every arm
            phase_pulls["uniform"] += state.uniform(active, uniform_budget)
        scored = state.scored(active, threshold)
        round_scores.append(_ids(scored))
        loser = min(scored, key=lambda pair: (pair[1], pair[0]))[0]
        active.remove(loser)
        eliminated.append(loser + 1)
        extra_pool += feas_budget[loser]
        feas_budget[loser] = 0

    survivor = [pair for pair in scored if pair[0] != loser]
    return RunTrace(
        decision=state.decide(survivor, threshold),
        pulls_total=state.used,
        pulls_by_phase=phase_pulls,
        elimination_order=tuple(eliminated),
        per_round_scores=tuple(round_scores),
    )


def run_fcsr(
    instance: BanditInstance,
    config: FcsrConfig,
    rng: RngStream | np.random.Generator,
) -> RunTrace:
    """Feasibility-constrained successive rejects.

    K-1 rounds follow ``build_schedule(K, T, f)``. In round r every
    surviving arm takes floor((1-g) delta_r) pulls plus its share of the
    pool of recycled budget as a uniform pass, floor(g delta_r) adaptive
    thresholding pulls, and a sample-until-feasible pass from its personal
    feasibility budget floor(f T / K). The lowest-scoring arm is dropped
    (lowest index on score ties) and its unspent feasibility budget joins
    the pool. The survivor is returned if it looks feasible, else 0.

    A global guard truncates any phase that would push total pulls past the
    budget, so ``pulls_total <= budget`` always holds.
    """
    if instance.num_arms < 2:
        raise ValueError("fcsr needs at least 2 arms")
    threshold = instance.threshold if config.threshold is None else config.threshold
    return _successive_rejects(
        instance, config.budget, rng, threshold,
        _exact(config.feasibility_fraction), _exact(config.apt_fraction),
    )


def _uniform_stage(state: _RunState, arms, budget: int, tau: float) -> list[tuple[int, float]]:
    """floor(budget / (|arms| M)) pulls of each attribute of ``arms``; returns their scores."""
    m = len(state.sums[0])
    state.uniform(arms, budget // (len(arms) * m) * m)
    return state.scored(arms, tau)


def run_uniform_baseline(
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    threshold: float | None = None,
) -> RunTrace:
    """Split the budget evenly: floor(T / (K*M)) pulls per attribute.

    Decides on the empirically feasible arm with the highest empirical arm
    mean (lowest index on ties), or 0 when no arm looks feasible.
    """
    tau = instance.threshold if threshold is None else threshold
    state = _RunState(instance, _as_generator(rng), budget)
    scored = _uniform_stage(state, range(instance.num_arms), budget, tau)
    return RunTrace(
        decision=state.decide(scored, tau),
        pulls_total=state.used,
        pulls_by_phase={"uniform": state.used},
        per_round_scores=(_ids(scored),),
    )


def run_sr_baseline(
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    threshold: float | None = None,
) -> RunTrace:
    """Successive rejects with the feasibility-gated score.

    The full budget goes through the round schedule (no feasibility
    reserve); each round every surviving arm takes its increment as a
    uniform pass, then the lowest-scoring arm is dropped. The survivor is
    returned only if empirically feasible. This is FCSR's loop with the
    adaptive thresholding and sample-until-feasible budgets at 0.
    """
    if instance.num_arms < 2:
        raise ValueError("successive rejects needs at least 2 arms")
    tau = instance.threshold if threshold is None else threshold
    trace = _successive_rejects(instance, budget, rng, tau, _ZERO, _ZERO)
    return replace(trace, pulls_by_phase={"uniform": trace.pulls_total})


def run_etc_baseline(
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    threshold: float | None = None,
    explore_fraction: float = DEFAULT_EXPLORE_FRACTION,
) -> RunTrace:
    """Two-stage explore-then-commit.

    Stage one spreads ``explore_fraction`` of the budget uniformly over all
    K*M attributes and keeps the min(M, K) highest-scoring arms as
    candidates. Stage two spreads the remaining budget uniformly over the
    candidates' attributes. The highest-scoring candidate is returned if it
    looks feasible, else 0.
    """
    if not 0.0 < explore_fraction < 1.0:
        raise ValueError("explore fraction must lie strictly inside (0, 1)")
    k, m = instance.num_arms, instance.num_attributes
    tau = instance.threshold if threshold is None else threshold
    state = _RunState(instance, _as_generator(rng), budget)
    explore_total = _floor_mul(_exact(explore_fraction), budget)
    stage1 = _uniform_stage(state, range(k), explore_total, tau)
    explore_used = state.used
    ranked = sorted(stage1, key=lambda pair: (-pair[1], pair[0]))
    candidates = [i for i, _ in ranked[: min(m, k)]]
    final = _uniform_stage(state, candidates, budget - state.used, tau)
    return RunTrace(
        decision=state.decide(final, tau),
        pulls_total=state.used,
        pulls_by_phase={"explore": explore_used, "commit": state.used - explore_used},
        per_round_scores=(_ids(stage1), _ids(final)),
    )


def run_algorithm(
    name: str,
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    *,
    feasibility_fraction: float = DEFAULT_FEASIBILITY_FRACTION,
    apt_fraction: float = DEFAULT_APT_FRACTION,
    explore_fraction: float = DEFAULT_EXPLORE_FRACTION,
    threshold: float | None = None,
) -> RunTrace:
    """Dispatch a run by stable algorithm identifier.

    Identifiers: "fcsr", "us" (uniform), "sr" (successive rejects),
    "etc" (explore-then-commit); ``ALGORITHM_PARAMS`` lists the keywords
    each one reads.
    """
    if name == "fcsr":
        config = FcsrConfig(budget, feasibility_fraction, apt_fraction, threshold)
        return run_fcsr(instance, config, rng)
    if name == "us":
        return run_uniform_baseline(instance, budget, rng, threshold)
    if name == "sr":
        return run_sr_baseline(instance, budget, rng, threshold)
    if name == "etc":
        return run_etc_baseline(instance, budget, rng, threshold, explore_fraction)
    raise ValueError(
        f"unknown algorithm {name!r}; valid identifiers: {', '.join(ALGORITHM_IDS)}"
    )
