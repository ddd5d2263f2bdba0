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
schedule) are computed exactly, in integer or rational arithmetic: float
rounding of quantities like ``0.29 * 100`` would otherwise shift single
pulls and break pinned schedule values.

An FCSR run is single-threaded over private state, and a baseline runs a
batch of trials side by side (:class:`_Batch`); runs are embarrassingly
parallel across trials as long as every trial gets its own RngStream.
"""

from __future__ import annotations

import functools
import inspect
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (
    BanditInstance,
    Bernoulli,
    Gaussian,
    RngStream,
    StatsState,
    _as_generator,
    _gated_scores,
    _integer,
)

__all__ = [
    "ScheduleSpec",
    "RunTrace",
    "build_schedule",
    "uniform_phase",
    "apt_phase",
    "sample_until_feasible",
    "run_fcsr",
    "run_algorithm",
    "ALGORITHM_IDS",
]

_CHUNK = 512  # single-pull buffer refill size
_GALLOP = 32  # single pulls of an APT run before the rest of it goes in numpy blocks


def _floor_mul(frac: Fraction, n: int) -> int:
    """floor(frac * n), exactly."""
    return frac.numerator * n // frac.denominator


def _fraction(name: str, x: float | Fraction) -> Fraction:
    """The exact value of the run fraction ``name``, a real number (a bool is
    not one) in [0, 1); 0 gives its stage no budget. Floats go through their
    shortest decimal repr, so 0.2 means exactly 1/5, not the nearest double."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    if not 0 <= x < 1:
        raise ValueError(f"{name} must lie in [0, 1), got {x}")
    return x if isinstance(x, Fraction) else Fraction(str(x))


def _budget(name: str, value: int) -> int:
    """The pull budget ``name`` as an int: a non-negative integer (a bool is not one)."""
    if _integer(name, value) < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return int(value)


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


@functools.lru_cache(maxsize=256)
def _nbar(num_arms: int) -> tuple[int, int]:
    """nbar = 1/2 + sum_{k=2}^{K} 1/k as the integers (p, q) of p/q, in
    lowest terms."""
    p, q = 1, 2
    for k in range(2, num_arms + 1):
        p, q = p * k + q, q * k
        g = math.gcd(p, q)
        p, q = p // g, q // g
    return p, q


# Memoised: the schedule is pure and frozen, and every trial of a sweep cell
# asks for the same one. Typed, because 0, 0.0 and Fraction(0) are equal keys
# and the spec echoes the caller's feasibility_fraction.
@functools.lru_cache(maxsize=256, typed=True)
def build_schedule(num_arms: int, budget: int, feasibility_fraction: float = 0.0) -> ScheduleSpec:
    """Compute the elimination schedule exactly.

    With nbar = p/q (:func:`_nbar`), n_r = ceil(floor((1-f) T) q / (p (K+1-r)))
    is a ceiling of integers.

    Args:
        num_arms: K >= 2, an integer.
        budget: total pull budget T, a non-negative integer.
        feasibility_fraction: fraction f in [0, 1) reserved away from the
            round schedule (0 for the plain successive-rejects baseline).
    """
    if _integer("num_arms", num_arms) < 2:
        raise ValueError("the round schedule needs at least 2 arms")
    budget = _budget("budget", budget)
    f = _fraction("feasibility_fraction", feasibility_fraction)
    p, q = _nbar(num_arms)
    top = _floor_mul(1 - f, budget) * q
    cumulative = tuple(-(-top // (p * j)) for j in range(num_arms, 1, -1))
    delta = tuple(cur - prev for cur, prev in zip(cumulative, (0,) + cumulative[:-1]))
    return ScheduleSpec(num_arms, budget, feasibility_fraction, p / q, cumulative, delta)


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
    zeros at the start. Single pulls read a buffer per (arm,
    attribute): ``views[i][j]`` is a memoryview of the float64 array of the
    last ``draw_many(_CHUNK)`` for (i, j), and ``pos[i][j]`` the position
    of its next unread value, ``_CHUNK`` when it is empty. A pull that finds
    its buffer empty refills it with one call on the run's generator. A
    uniform pass draws the sum of n pulls of each attribute in one shot with
    the exact law of that sum, one ``draw_sum`` per attribute. Both depend
    only on the generator and the pull history, so a run is reproducible
    from its (seed, stream) alone. ``used`` counts pulls, and no pass takes
    it past ``cap``.

    The adaptive thresholding and sample-until-feasible passes pull one
    attribute for a run of steps at a time, and :meth:`_gallop` evaluates a
    run over the buffered values in numpy blocks, with the same draws and
    bit-equal statistics as pulling one at a time. A sample-until-feasible
    run goes to it whole. An adaptive thresholding run, which is often a
    few pulls long, first takes up to ``_GALLOP`` pulls one by one over a
    slice of the buffer, which ends them early at the buffer's end, and
    only the rest of a longer run goes in blocks; a run that starts with
    fewer than ``2 * _GALLOP`` pulls of the pass left takes them one by one
    up to the buffer's end, as a short remainder costs less that way.
    """

    __slots__ = ("arms", "gen", "views", "pos", "sums", "counts", "mu", "used", "cap")

    def __init__(self, instance: BanditInstance, gen: np.random.Generator, cap: int) -> None:
        k, m = instance.num_arms, instance.num_attributes
        self.arms, self.gen = instance.arms, gen
        self.used, self.cap = 0, cap
        self.views: list[list[memoryview | None]] = [[None] * m for _ in range(k)]
        self.pos = [[_CHUNK] * m for _ in range(k)]
        self.sums = [[0.0] * m for _ in range(k)]
        self.counts = [[0] * m for _ in range(k)]
        self.mu = [[0.0] * m for _ in range(k)]

    def _refill(self, i: int, j: int) -> memoryview:
        """Draw the next ``_CHUNK`` rewards of (i, j) into its empty buffer
        and return its view; the caller reads on from position 0."""
        view = self.views[i][j] = memoryview(self.arms[i][j].draw_many(_CHUNK, self.gen))
        return view

    def _gallop(
        self, i: int, j: int, n: int, stay: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> int:
        """A run of at most ``n`` pulls on attribute (i, j), one buffer at a
        time from its read position; stores the read position, sum, count and
        mean it ends with, and returns the pulls made.

        ``stay(counts, means)`` marks the pulls after which the run goes on;
        the run ends after the first pull it does not mark. A buffer is
        refilled only when it is empty and the run needs another value, as a
        single pull would do, so the generator sees the same calls. The
        running sums come from ``np.cumsum`` over ``[s, x1, ..., xk]``, which
        adds in the order of ``s += x``, so every statistic is bit-equal to
        pulling one at a time.
        """
        view, p = self.views[i][j], self.pos[i][j]
        s, c = self.sums[i][j], self.counts[i][j]
        done = 0
        while True:
            if p == _CHUNK:
                view = self._refill(i, j)
                p = 0
            k = min(n - done, _CHUNK - p)
            run = np.empty(k + 1)
            run[0] = s
            run[1:] = view.obj[p:p + k]  # the view's float64 array
            sums = np.cumsum(run)[1:]
            counts = np.arange(c + 1, c + k + 1, dtype=np.float64)
            means = sums / counts
            ok = stay(counts, means)
            last = int(ok.argmin())
            ended = not ok[last]
            if ended:
                k = last + 1
            p += k
            done += k
            s, c = float(sums[k - 1]), c + k
            if ended or done == n:
                self.pos[i][j] = p
                self.sums[i][j] = s
                self.counts[i][j] = c
                self.mu[i][j] = float(means[k - 1])
                return done

    def uniform(self, i: int, budget: int) -> int:
        """floor(budget / M) pulls of each attribute of arm ``i``, in index
        order, until the cap; the sum of each attribute's block is one draw."""
        sums, counts, mu, dists = self.sums[i], self.counts[i], self.mu[i], self.arms[i]
        m = len(sums)
        limit = self.cap - self.used
        quota = budget // m
        if quota <= 0 or limit <= 0:
            return 0
        gen = self.gen
        used = 0
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
        most ``hi``, the lowest score after it: while it is below ``bound``.
        One scan finds the pick and the bound, and the run of pulls on it
        needs no further scan.
        """
        limit = self.cap - self.used
        steps = budget if budget <= limit else limit
        if steps <= 0:
            return 0
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        views, pos = self.views[i], self.pos[i]
        m = len(sums)
        sqrt, nextafter = math.sqrt, math.nextafter
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
            # min(lo, nextafter(hi, inf)): sc < bound is sc < lo and sc <= hi.
            bound = lo if lo <= hi else nextafter(hi, inf)
            s, c, view, p = sums[j], counts[j], views[j], pos[j]
            if p == _CHUNK:  # the run's first pull finds the buffer empty
                view, p = self._refill(i, j), 0
            singles = _GALLOP if left >= 2 * _GALLOP else left
            sc = best  # below the bound: the run goes on until a pull's score is not
            for x in view[p:p + singles]:
                s += x
                c += 1
                est = s / c
                d = est - threshold
                sc = sqrt(c) * (d if d >= 0.0 else -d)
                if not sc < bound:
                    break
            pulls = c - counts[j]
            left -= pulls
            pos[j] = p + pulls
            sums[j] = s
            counts[j] = c
            mu[j] = est
            if sc < bound and left:
                def stay(cs: np.ndarray, ms: np.ndarray) -> np.ndarray:
                    return np.sqrt(cs) * np.abs(ms - threshold) < bound

                left -= self._gallop(i, j, left, stay)
                sc = sqrt(counts[j]) * abs(mu[j] - threshold)
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
        mu = self.mu[i]
        m = len(mu)

        def stay(cs: np.ndarray, ms: np.ndarray) -> np.ndarray:
            return ms <= threshold

        used = 0
        while used < cap:
            j = -1
            for t in range(m):
                if mu[t] <= threshold:
                    j = t
                    break
            if j < 0:
                break
            used += self._gallop(i, j, cap - used, stay)
        self.used += used
        return used



# --- Standalone phase operations over StatsState (the contract surface). ---


def _on_row(
    instance: BanditInstance, stats: StatsState, arm: int, cap: int,
    rng: RngStream | np.random.Generator, method: Callable[..., int], *args,
) -> int:
    """``method(state, arm - 1, *args)`` on a fresh run state with budget
    guard ``cap``, with ``arm``'s row of ``stats`` copied in and back.
    Every table of ``stats`` must have the instance's shape (K, M)."""
    shape = (instance.num_arms, instance.num_attributes)
    tables = (stats.reward_sums, stats.pull_counts, stats.empirical_means)
    if any(np.shape(table) != shape for table in tables):
        raise ValueError(
            f"stats tables of shapes {[np.shape(t) for t in tables]} do not match "
            f"the instance's (K, M) = {shape}"
        )
    if not 1 <= arm <= instance.num_arms:
        raise IndexError(f"arm {arm} out of range 1..{instance.num_arms}")
    i = arm - 1
    state = _RunState(instance, _as_generator(rng), cap)
    rows = tuple(zip((state.sums, state.counts, state.mu), tables))
    for row, table in rows:
        row[i] = table[i].tolist()
    n = method(state, i, *args)
    for row, table in rows:
        table[i] = row[i]
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
    _budget("budget", budget)
    return _on_row(instance, stats, arm, budget, rng, _RunState.uniform, budget)


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
    _budget("budget", budget)
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
    _budget("feasibility_budget", feasibility_budget)
    return feasibility_budget - _on_row(
        instance, stats, arm, feasibility_budget, rng,
        _RunState.suf, feasibility_budget, threshold,
    )


# --- Full algorithm runs. ---


def _decide(arms: np.ndarray, scores: np.ndarray, threshold: float) -> np.ndarray:
    """The decision rule of every algorithm: each trial's decision over its
    arms ``arms[n]``, in index order, is the id of the first highest score if
    it exceeds the threshold, else 0. A gated score does so exactly when
    every empirical mean of its arm does."""
    trials = np.arange(len(arms))
    best = scores.argmax(axis=1)
    return np.where(scores[trials, best] > threshold, arms[trials, best] + 1, 0)


def run_fcsr(
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    feasibility_fraction: float = 0.2,
    apt_fraction: float = 0.3,
) -> RunTrace:
    """Feasibility-constrained successive rejects.

    K-1 rounds follow ``build_schedule(K, T, f)``, with f the
    ``feasibility_fraction`` and g the ``apt_fraction``, both in [0, 1). In
    round r every surviving arm takes floor((1-g) delta_r) pulls plus its
    share of the pool of recycled budget as a uniform pass, floor(g delta_r)
    adaptive thresholding pulls, and a sample-until-feasible pass from its
    personal feasibility budget floor(f T / K). The lowest-scoring arm is
    dropped (lowest index on score ties) and its unspent feasibility budget
    joins the pool. The survivor is returned if it looks feasible, else 0.
    Feasibility is judged against ``instance.threshold``.

    A global guard truncates any phase that would push total pulls past the
    budget, so ``pulls_total <= budget`` always holds. A budget below K*M
    is legal and forces the decision from sparse statistics.
    """
    budget, tau = _budget("budget", budget), instance.threshold
    f = _fraction("feasibility_fraction", feasibility_fraction)
    g = _fraction("apt_fraction", apt_fraction)
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
        for i in active:
            phase_pulls["uniform"] += state.uniform(i, uniform_budget)
            phase_pulls["apt"] += state.apt(i, apt_budget, tau)
            pulls = state.suf(i, feas_budget[i], tau)
            feas_budget[i] -= pulls
            phase_pulls["suf"] += pulls
        scores = _gated_scores(np.array([state.mu[i] for i in active]).T, tau)
        round_scores.append(tuple(zip([i + 1 for i in active], scores.tolist())))
        lost = int(scores.argmin())
        loser = active.pop(lost)
        eliminated.append(loser + 1)
        extra_pool += feas_budget[loser]
        feas_budget[loser] = 0

    # The survivor holds the other of the last round's two scores.
    return RunTrace(
        decision=int(_decide(np.array([active]), scores[None, [1 - lost]], tau)[0]),
        pulls_total=state.used,
        pulls_by_phase=phase_pulls,
        elimination_order=tuple(eliminated),
        per_round_scores=tuple(round_scores),
    )


# --- The baselines, over a batch of trials. ---


_NORMALS = 4096  # the most standard normals a Gaussian batch draws ahead, per trial


class _Batch:
    """Statistics of N trials of one baseline, run side by side.

    A baseline makes only uniform passes, whose pull counts do not depend on
    the draws. So a run states its stages up front: ``plan`` lists each
    stage's ``quota`` of pulls per attribute and the number of (arm,
    attribute) ``cells`` it covers, and each stage's pulls, cut by the
    budget guard ``cap``, are fixed here once as Python ints ``(quota,
    whole, rest)``: ``quota`` pulls of each of the first ``whole`` cells,
    then ``rest`` pulls of the next one. All trials pull the i-th cell of a
    stage alike and differ in their draws, and so in the arms they pass
    over.

    ``arms`` is (N, A): each trial's live arms, or ``etc``'s candidates, in
    the order its stages pass over them. ``sums`` is (N, A, M) in the same
    order, so a stage adds to it in place over its first cells; ``sr``
    drops arms with :meth:`drop`, and ``etc`` picks its candidates with
    :meth:`reorder`. ``counts`` is one float row of A*M pull counts that
    every trial shares, since a position's count depends only on the plan:
    each stage but a cut one pulls every position of the batch alike, and
    a stage the cap cuts is the last with pulls, so the row need not follow
    the arms a later drop or reorder moves. ``mu`` holds the means
    attribute-major, (M, N, A), as :func:`_gated_scores` reads them, and a
    stage with pulls recomputes all of them. ``used`` counts each trial's
    pulls.

    Trial n draws only from ``gens[n]``, so its result does not depend on
    the batch, and a stage's block sums have the values, and leave the
    generator in the state, of one ``draw_sum`` per cell in order. The
    instance's family and parameter table (``_sum_law``) say how a stage
    draws them:

    - Gaussian: the sum of ``take`` pulls of a cell of mean m and variance
      v is ``take*m + sqrt(take*v)*z``, as numpy computes ``normal(take*m,
      sqrt(take*v))`` from the next standard normal z. A stage gathers the
      (take*m, sqrt(take*v)) table by arm, once per take. A trial's normals
      for the whole run come from one ``standard_normal`` call; past
      ``_NORMALS`` normals a trial, whole stages go into further calls, and
      a stage wider than that is drawn on its own.
    - Bernoulli: a stage gathers p by arm and draws each trial's sums with
      one ``binomial`` call.
    - Any other instance: one ``draw_sum`` per cell.

    ``log``, if a list, receives (arms, scores, pulls so far) at each
    scoring point, to which ``sr`` adds the arms it drops there.
    """

    def __init__(
        self, instance: BanditInstance, gens: list, cap: int,
        plan: list[tuple[int, int]], log: list | None = None,
    ) -> None:
        n, k, m = len(gens), instance.num_arms, instance.num_attributes
        self.instance, self.gens, self.log, self.used = instance, gens, log, 0
        self.arms = np.tile(np.arange(k), (n, 1))
        self.sums, self.mu = np.zeros((n, k, m)), np.zeros((m, n, k))
        self.counts = np.zeros(k * m)
        self.family, self.params = instance._sum_law or (None, None)
        # Each stage's (quota, whole, rest) and the run's pulls after it.
        stages: list[tuple[tuple[int, int, int], int]] = []
        used = 0
        for quota, cells in plan:
            left = cap - used
            if quota <= 0 or left <= 0:
                pulls = (0, 0, 0)
            elif cells * quota <= left:
                pulls = (quota, cells, 0)
            else:  # the cap ends the stage inside cell ``whole``
                pulls = (quota, *divmod(left, quota))
            used += pulls[0] * pulls[1] + pulls[2]
            stages.append((pulls, used))
        # Gaussian: before stage s, draw ``width[s]`` normals a trial (0 when
        # an earlier draw holds stage s's); stage s's start at ``at[s]``.
        width, at = [0] * len(stages), [0] * len(stages)
        first = 0
        for s, ((_, whole, rest), _) in enumerate(stages if self.family is Gaussian else ()):
            cells = whole + (rest > 0)
            if width[first] + cells > _NORMALS:
                first = s
            at[s] = width[first]
            width[first] += cells
        self.plan = iter(zip(stages, width, at))
        self.z: np.ndarray | None = None

    def uniform(self) -> None:
        """The next stage of the plan: its pulls of each of the first cells of
        each trial, in order; the sum of each cell's block is one draw."""
        ((quota, whole, rest), self.used), width, at = next(self.plan)
        n, cells = len(self.gens), whole + (rest > 0)
        if width:
            self.z = np.empty((n, width))
            for gen, row in zip(self.gens, self.z):
                gen.standard_normal(out=row)
        if not cells:
            return
        sums = self.sums.reshape(n, -1)[:, :cells]
        if self.family is Gaussian:  # ``quota`` pulls of the whole cells, ``rest`` of a cut one
            for take, lo, hi in ((quota, 0, whole), (rest, whole, cells)):
                if lo < hi:
                    table = self.params * take  # (take*m, take*v) of every attribute
                    np.sqrt(table[1], out=table[1])
                    loc, scale = np.take(table, self.arms, axis=1).reshape(2, n, -1)[:, :, lo:hi]
                    scale *= self.z[:, at + lo:at + hi]
                    scale += loc
                    sums[:, lo:hi] += scale
        else:
            takes = np.full(cells, quota)
            takes[whole:] = rest
            if self.family is Bernoulli:
                p = self.params[0, self.arms].reshape(n, -1)[:, :cells]
                sums += [gen.binomial(takes, row) for gen, row in zip(self.gens, p)]
            else:
                m, arms, takes = self.mu.shape[0], self.instance.arms, takes.tolist()
                for row, gen, ids in zip(sums, self.gens, self.arms.tolist()):
                    for c, take in enumerate(takes):
                        row[c] += arms[ids[c // m]][c % m].draw_sum(take, gen)
        self.counts[:whole] += quota
        self.counts[whole:cells] += rest
        # Every mean again, a count of 0 read as 1: the cells past the stage
        # keep their sums and counts, and so their means.
        divisor = np.maximum(self.counts, 1).reshape(-1, self.mu.shape[0]).T[:, None]
        np.divide(self.sums.transpose(2, 0, 1), divisor, out=self.mu)

    def _keep(self, rows: np.ndarray) -> None:
        """Keep the rows ``rows`` of the state flattened to N*A rows (one per
        trial and arm), as many for each trial and in trial order."""
        m, n, _ = self.mu.shape
        self.arms = self.arms.reshape(-1).take(rows).reshape(n, -1)
        self.sums = self.sums.reshape(-1, m).take(rows, axis=0).reshape(n, -1, m)
        self.mu = self.mu.reshape(m, -1).take(rows, axis=1).reshape(m, n, -1)
        self.counts = self.counts[:self.arms.shape[1] * m]

    def drop(self, lost: np.ndarray) -> None:
        """Drop each trial n's arm at position ``lost[n]``; the rest keep
        their order."""
        self._keep(np.flatnonzero(np.arange(self.arms.shape[1]) != lost[:, None]))

    def reorder(self, order: np.ndarray) -> None:
        """Keep the arms at the (N, B) positions ``order``, in that order."""
        n, a = self.arms.shape
        self._keep((order + np.arange(0, n * a, a)[:, None]).reshape(-1))

    def gated_scores(self, threshold: float) -> np.ndarray:
        """(N, A) feasibility-gated scores of each trial's arms."""
        scores = _gated_scores(self.mu, threshold)
        if self.log is not None:
            self.log.append((self.arms, scores, self.used))
        return scores


def _us(instance, budget, gens, log=None) -> np.ndarray:
    """Uniform sampling: split the budget evenly, floor(T / (K*M)) pulls per
    attribute. Each trial, one per generator, decides on the empirically
    feasible arm with the highest empirical arm mean (lowest index on ties),
    or 0 when no arm looks feasible."""
    budget, tau = _budget("budget", budget), instance.threshold
    cells = instance.num_arms * instance.num_attributes
    batch = _Batch(instance, gens, budget, [(budget // cells, cells)], log)
    batch.uniform()
    return _decide(batch.arms, batch.gated_scores(tau), tau)


def _sr(instance, budget, gens, log=None) -> np.ndarray:
    """Successive rejects with the feasibility-gated score.

    The full budget goes through the round schedule (no feasibility
    reserve); each round every surviving arm takes its increment as a
    uniform pass, then each trial drops its first lowest-scoring arm
    (lowest index on score ties), as :func:`run_fcsr` does, with the
    round's arms compacted once, by :meth:`_Batch.drop`. The survivor is
    returned only if empirically feasible. This is FCSR's loop with the
    adaptive thresholding and sample-until-feasible budgets at 0: ``run_fcsr``
    at f = g = 0 gives the same trace bit for bit (``test_fcsr_at_zero_is_sr``).
    """
    budget, tau = _budget("budget", budget), instance.threshold
    k, m = instance.num_arms, instance.num_attributes
    rounds = build_schedule(k, budget).delta
    plan = [(increment // m, (k - r) * m) for r, increment in enumerate(rounds)]
    batch = _Batch(instance, gens, budget, plan, log)
    trials = np.arange(len(gens))
    for _ in rounds:
        batch.uniform()
        scores = batch.gated_scores(tau)
        lost = scores.argmin(axis=1)
        if log is not None:
            log[-1] += (batch.arms[trials, lost],)
        batch.drop(lost)
    # The survivor holds the other of the last round's two scores.
    return _decide(batch.arms, scores[trials, 1 - lost][:, None], tau)


def _etc(instance, budget, gens, explore_fraction=0.5, log=None) -> np.ndarray:
    """Two-stage explore-then-commit.

    Stage one spreads ``explore_fraction`` of the budget uniformly over all
    K*M attributes and keeps the min(M, K) highest-scoring arms as
    candidates: a stable sort on the negated stage-one score ranks them,
    lower arm first on ties. Stage two spreads the remaining budget
    uniformly over the candidates' attributes. The highest-scoring
    candidate is returned if it looks feasible, else 0. At explore_fraction 0
    every stage-one score ties, so this is ``us`` on arms 1..min(M, K).
    """
    budget, tau = _budget("budget", budget), instance.threshold
    explore = _fraction("explore_fraction", explore_fraction)
    k, m = instance.num_arms, instance.num_attributes
    c = min(m, k)
    quota = _floor_mul(explore, budget) // (k * m)
    plan = [(quota, k * m), ((budget - quota * k * m) // (c * m), c * m)]
    batch = _Batch(instance, gens, budget, plan, log)
    batch.uniform()
    batch.reorder(np.argsort(-batch.gated_scores(tau), axis=1, kind="stable")[:, :c])
    batch.uniform()
    scores = batch.gated_scores(tau)
    order = np.argsort(batch.arms, axis=1)
    return _decide(
        np.take_along_axis(batch.arms, order, 1), np.take_along_axis(scores, order, 1), tau
    )


def _one_trial(run: Callable, phases: tuple[str, ...], instance, budget, rng, **params) -> RunTrace:
    """The trace of one trial of the batched ``run``. Its scoring points are
    the rounds of ``per_round_scores``, and the arms dropped there make
    ``elimination_order``. The pulls made before scoring point i count under
    ``phases[i]``, the last name repeating."""
    log: list = []
    decision = run(instance, budget, [_as_generator(rng)], log=log, **params)
    pulls: dict[str, int] = {}
    used = 0
    for i, (_, _, now, *_) in enumerate(log):
        phase = phases[min(i, len(phases) - 1)]
        pulls[phase] = pulls.get(phase, 0) + now - used
        used = now
    return RunTrace(
        decision=int(decision[0]),
        pulls_total=used,
        pulls_by_phase=pulls,
        elimination_order=tuple(int(lost[0]) + 1 for _, _, _, *dropped in log for lost in dropped),
        per_round_scores=tuple(tuple(zip((a[0] + 1).tolist(), s[0].tolist())) for a, s, *_ in log),
    )


def _fcsr(instance, budget, gens, **params) -> np.ndarray:
    """The decision of each trial of :func:`run_fcsr`, one trial at a time,
    since the pulls of its adaptive passes depend on its draws."""
    return np.array([run_fcsr(instance, budget, gen, **params).decision for gen in gens])


# Each algorithm's batched run, which returns the decision of each trial of a
# batch, and each baseline's trace phase names (see :func:`_one_trial`).
_RUNS = {"fcsr": _fcsr, "us": _us, "sr": _sr, "etc": _etc}
_PHASES = {"us": ("uniform",), "sr": ("uniform",), "etc": ("explore", "commit")}
ALGORITHM_IDS = tuple(_RUNS)
# The keywords each algorithm reads: the parameters after ``rng`` of
# run_fcsr, and after ``gens`` of a batched baseline, but its ``log``.
ALGORITHM_PARAMS = {
    name: tuple(key for key in inspect.signature(run).parameters if key != "log")[3:]
    for name, run in {**_RUNS, "fcsr": run_fcsr}.items()
}


def _check_params(name: str, params: dict[str, float]) -> None:
    """Raise ValueError naming an unknown algorithm, each key of ``params``
    that the algorithm does not read, or a key whose value is no fraction
    in [0, 1) (:func:`_fraction`): every run keyword is one."""
    if name not in _RUNS:
        raise ValueError(
            f"unknown algorithm {name!r}; valid identifiers: {', '.join(ALGORITHM_IDS)}"
        )
    unread = [key for key in params if key not in ALGORITHM_PARAMS[name]]
    if unread:
        raise ValueError(
            f"algorithm {name!r} does not read {unread}; it reads {list(ALGORITHM_PARAMS[name])}"
        )
    for key, value in params.items():
        _fraction(f"algorithm {name!r}: {key}", value)


def _decisions(name: str, instance: BanditInstance, budget: int, rngs: Sequence, **params):
    """The decision of :func:`run_algorithm` from each of ``rngs``, run as
    one batch."""
    _check_params(name, params)
    return _RUNS[name](instance, budget, [_as_generator(rng) for rng in rngs], **params)


def run_algorithm(
    name: str,
    instance: BanditInstance,
    budget: int,
    rng: RngStream | np.random.Generator,
    **params: float,
) -> RunTrace:
    """Run algorithm ``name`` with the keywords ``params``.

    Identifiers: "fcsr" (:func:`run_fcsr`), "us" (uniform), "sr"
    (successive rejects), "etc" (explore-then-commit); a baseline runs as a
    traced batch of one trial of ``_us``, ``_sr`` or ``_etc``, whose
    docstrings state its rules. Every run tests feasibility against
    ``instance.threshold``. ``ALGORITHM_PARAMS`` lists the keywords each one
    reads, each a fraction in [0, 1), and any other keyword is an error.
    """
    _check_params(name, params)
    if name == "fcsr":
        return run_fcsr(instance, budget, rng, **params)
    return _one_trial(_RUNS[name], _PHASES[name], instance, budget, rng, **params)
