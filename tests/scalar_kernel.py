"""Test-only oracle: the run engine as it computed before long runs of pulls
went in numpy blocks and before the baselines ran a batch of trials at once.

``ScalarRunState`` keeps everything of ``fcsr.algorithms._RunState`` but its
``apt`` and ``suf`` passes, which are the old loops with one pull per step,
the single pull ``one`` they use, and its ``uniform`` pass, the old one-arm
pass with one ``draw_sum`` call per attribute. The loops are verbatim, and
``one`` reads the state's buffers by position, as the kernels do. Put in
place of ``fcsr.algorithms._RunState`` (the tests use pytest's
``monkeypatch``), it lets the public phase functions and FCSR runs be
replayed one pull and one cell at a time and compared with the kernels bit
for bit.

``REFERENCE_RUNS`` holds the baselines ``us``, ``sr`` and ``etc`` as they ran
one trial at a time over ``ScalarRunState``, with their ``RunTrace``: ``us``
and ``etc`` verbatim (a pass over several arms is ``uniform_arms``), and
``sr`` as FCSR's elimination loop at f = g = 0, the path it took there. The
batched runs must give every trial of a batch the same trace.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fcsr.algorithms import (
    _CHUNK,
    RunTrace,
    _floor_mul,
    _fraction,
    _RunState,
    build_schedule,
)
from fcsr.core import _as_generator, _integer


def _gated_mean(row: list[float], threshold: float) -> float:
    """The feasibility-gated score of one row of empirical means, over Python
    floats, as one-trial runs scored before ``fcsr.core._gated_scores``."""
    lowest = min(row)
    if lowest > threshold:
        mean = sum(row) / len(row)
        return mean if mean > lowest else lowest
    return lowest


class ScalarRunState(_RunState):
    """``_RunState`` with the one-pull-per-step APT and SUF loops, the
    one-call-per-cell uniform pass, and the scoring and decision rule of a
    one-trial run."""

    def scored(self, arms, threshold: float) -> list[tuple[int, float]]:
        """(arm index, feasibility-gated score) for each of ``arms``."""
        return [(i, _gated_mean(self.mu[i], threshold)) for i in arms]

    def decide(self, scored: list[tuple[int, float]], threshold: float) -> int:
        """The decision rule of every algorithm: the id of the highest score in
        ``scored`` (lowest arm on ties) if all its empirical means exceed the
        threshold, else 0."""
        best = min(scored, key=lambda pair: (-pair[1], pair[0]))[0]
        return best + 1 if min(self.mu[best]) > threshold else 0

    def uniform_arms(self, arms, budget: int) -> int:
        """``uniform`` on each of ``arms`` in turn."""
        return sum(self.uniform(i, budget) for i in arms)

    def uniform(self, i: int, budget: int) -> int:
        """floor(budget / M) pulls of each attribute of arm ``i``, in order."""
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        m = len(sums)
        limit = self.cap - self.used
        quota = budget // m
        if quota <= 0 or limit <= 0:
            return 0
        dists, gen = self.arms[i], self.gen
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

    def one(self, i: int, j: int) -> float:
        p = self.pos[i][j]
        if p == _CHUNK:
            self.views[i][j] = memoryview(self.arms[i][j].draw_many(_CHUNK, self.gen))
            p = 0
        self.pos[i][j] = p + 1
        return self.views[i][j][p]

    def apt(self, i: int, budget: int, threshold: float) -> int:
        """Adaptive thresholding pulls on arm ``i``: each step samples the
        attribute minimizing sqrt(count) * |empirical mean - threshold|,
        lowest index on ties."""
        limit = self.cap - self.used
        steps = budget if budget <= limit else limit
        if steps <= 0:
            return 0
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        m = len(sums)
        sqrt = math.sqrt
        one = self.one
        scores = [sqrt(counts[j]) * abs(mu[j] - threshold) for j in range(m)]
        inner = range(1, m)
        for _ in range(steps):
            j = 0
            best = scores[0]
            for t in inner:
                v = scores[t]
                if v < best:
                    best = v
                    j = t
            x = one(i, j)
            s = sums[j] + x
            c = counts[j] + 1
            sums[j] = s
            counts[j] = c
            est = s / c
            mu[j] = est
            d = est - threshold
            scores[j] = sqrt(c) * (d if d >= 0.0 else -d)
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
        sums, counts, mu = self.sums[i], self.counts[i], self.mu[i]
        m = len(sums)
        one = self.one
        used = 0
        while used < cap:
            j = -1
            for t in range(m):
                if mu[t] <= threshold:
                    j = t
                    break
            if j < 0:
                break
            while used < cap:
                x = one(i, j)
                s = sums[j] + x
                c = counts[j] + 1
                sums[j] = s
                counts[j] = c
                est = s / c
                mu[j] = est
                used += 1
                if est > threshold:
                    break
        self.used += used
        return used


# --- The baselines, one trial at a time. ---


def _ids(scored: list[tuple[int, float]]) -> tuple[tuple[int, float], ...]:
    return tuple((i + 1, s) for i, s in scored)


def _uniform_stage(state, arms, budget: int, tau: float) -> list[tuple[int, float]]:
    """floor(budget / (|arms| M)) pulls of each attribute of ``arms``; returns their scores."""
    m = len(state.sums[0])
    state.uniform_arms(arms, budget // (len(arms) * m) * m)
    return state.scored(arms, tau)


def run_uniform_baseline(instance, budget, rng) -> RunTrace:
    budget, tau = _integer("budget", budget, 0), instance.threshold
    state = ScalarRunState(instance, _as_generator(rng), budget)
    scored = _uniform_stage(state, range(instance.num_arms), budget, tau)
    return RunTrace(
        decision=state.decide(scored, tau),
        pulls_total=state.used,
        pulls_by_phase={"uniform": state.used},
        per_round_scores=(_ids(scored),),
    )


def run_sr_baseline(instance, budget, rng) -> RunTrace:
    """FCSR's elimination loop with f = g = 0, whose rounds are uniform
    passes over every live arm."""
    budget, tau = _integer("budget", budget, 0), instance.threshold
    k = instance.num_arms
    schedule = build_schedule(k, budget, Fraction(0))
    state = ScalarRunState(instance, _as_generator(rng), budget)
    active = list(range(k))
    eliminated: list[int] = []
    round_scores: list[tuple[tuple[int, float], ...]] = []
    for increment in schedule.delta:
        state.uniform_arms(active, increment)
        scored = state.scored(active, tau)
        round_scores.append(_ids(scored))
        loser = min(scored, key=lambda pair: (pair[1], pair[0]))[0]
        active.remove(loser)
        eliminated.append(loser + 1)
    survivor = [pair for pair in scored if pair[0] != loser]
    return RunTrace(
        decision=state.decide(survivor, tau),
        pulls_total=state.used,
        pulls_by_phase={"uniform": state.used},
        elimination_order=tuple(eliminated),
        per_round_scores=tuple(round_scores),
    )


def run_etc_baseline(instance, budget, rng, explore_fraction=0.5) -> RunTrace:
    k, m = instance.num_arms, instance.num_attributes
    budget, tau = _integer("budget", budget, 0), instance.threshold
    explore = _fraction("explore_fraction", explore_fraction)
    state = ScalarRunState(instance, _as_generator(rng), budget)
    explore_total = _floor_mul(explore, budget)
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


REFERENCE_RUNS = {"us": run_uniform_baseline, "sr": run_sr_baseline, "etc": run_etc_baseline}
