"""Sufficient-statistics reference model of the block-sampling baselines.

The baselines ``us``, ``sr`` and ``etc`` only ever sample an attribute in
blocks of equal size, and each block is drawn as one sample of the block
sum: the sum of q Gaussian pulls is N(q mu, q var) (``draw_sum``). Their
accuracy on a Gaussian instance is therefore a function of the instance,
the budget and these block sizes alone. This module estimates it by drawing
the block sums directly for many independent runs at once.

It is written from the documented rules, not from the implementation, and
uses numpy only (nothing from ``fcsr``):

* round schedule (``build_schedule``): nbar = 1/2 + sum_{k=2}^K 1/k,
  n_r = ceil(floor((1-f) T) / (nbar (K+1-r))) with f = 0 for ``sr``,
  increment delta_r = n_r - n_{r-1};
* a uniform pass with budget b gives each attribute floor(b / M) pulls;
* score of an arm: the mean of its empirical attribute means when all of
  them are above the threshold, else the lowest of them;
* ``us``: floor(T / (K M)) pulls per attribute, then the empirically
  feasible arm with the highest empirical mean, or 0;
* ``sr``: each round every surviving arm takes delta_r as a uniform pass
  and the lowest-scoring arm is dropped; the survivor is returned if it
  looks feasible, else 0;
* ``etc``: floor(T / 2) spread uniformly over all K M attributes, the
  min(M, K) best-scoring arms kept, the rest of the budget spread uniformly
  over their attributes, and the best-scoring candidate returned if it
  looks feasible, else 0.

Ties have probability zero under continuous noise and are not modelled.
Arrays are laid out (attribute, arm, run), so reductions over an arm's
attributes run across contiguous slabs. The draws are split into fixed
seeded parts, so an estimate does not depend on the worker count; its own
standard error is sqrt(p (1 - p) / MODEL_DRAWS).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import numpy as np

MODEL_DRAWS = 400_000
_PART = 25_000


def schedule_cumulative(num_arms: int, budget: int, feasibility_fraction: float = 0.0) -> list[int]:
    """n_1..n_{K-1} of the round schedule with a feasibility reserve f:
    n_r = ceil(floor((1-f) T) / (nbar (K+1-r))), in exact rationals, with
    f read from its shortest decimal repr."""
    f = Fraction(str(feasibility_fraction))
    nbar = Fraction(1, 2) + sum(Fraction(1, k) for k in range(2, num_arms + 1))
    return [
        math.ceil(Fraction(math.floor((1 - f) * budget)) / (nbar * (num_arms + 1 - r)))
        for r in range(1, num_arms)
    ]


def sr_increments(num_arms: int, budget: int) -> list[int]:
    """Per-arm budget increments delta_1..delta_{K-1} of the round schedule."""
    cumulative = schedule_cumulative(num_arms, budget)
    return [cur - prev for cur, prev in zip(cumulative, [0] + cumulative[:-1])]


def best_feasible_arm(means: np.ndarray, threshold: float) -> int:
    """The correct answer: the feasible arm (1..K) with the highest mean, or 0."""
    feasible = np.flatnonzero(means.min(axis=1) > threshold)
    if feasible.size == 0:
        return 0
    return int(feasible[np.argmax(means[feasible].mean(axis=1))]) + 1


def _score(mu: np.ndarray, threshold: float) -> np.ndarray:
    lowest = mu.min(axis=0)
    return np.where(lowest > threshold, mu.mean(axis=0), lowest)


def _decide(arm_ids: np.ndarray, mu: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(mu.min(axis=0) > threshold, arm_ids + 1, 0)


def _walk(gen, shape, pulls):
    """Sum of ``pulls`` standard-normal pulls, for every entry of ``shape``."""
    if pulls <= 0:
        raise ValueError("the model needs a non-empty block at every decision")
    z = gen.standard_normal(shape, dtype=np.float32)
    z *= np.float32(math.sqrt(pulls))
    return z


def _us(gen, means_t, sd, threshold, budget, runs):
    m, k = means_t.shape
    q = budget // (k * m)
    mu = _walk(gen, (m, k, runs), q)
    mu *= np.float32(sd / q)
    mu += means_t[:, :, None]
    feasible = mu.min(axis=0) > threshold
    pick = np.argmax(np.where(feasible, mu.mean(axis=0), -np.inf), axis=0)
    return np.where(feasible.any(axis=0), pick + 1, 0)


def _sr(gen, means_t, sd, threshold, budget, runs):
    m, k = means_t.shape
    increments = sr_increments(k, budget)
    if sum((k + 1 - r) * m * (d // m) for r, d in enumerate(increments, 1)) > budget:
        raise ValueError("the model does not cover a schedule cut by the budget guard")
    # Position p of run j holds arm alive[p, j]; a dropped arm's slot takes
    # the last live slot, so the live arms always fill positions 0..n-1.
    alive = np.repeat(np.arange(k)[:, None], runs, axis=1)
    mean_at = np.repeat(means_t[:, :, None], runs, axis=2)
    walk = np.zeros((m, k, runs), dtype=np.float32)
    runs_idx = np.arange(runs)
    count = 0
    for n, delta in zip(range(k, 1, -1), increments):
        q = delta // m
        walk[:, :n] += _walk(gen, (m, n, runs), q)
        count += q
        mu = walk[:, :n] * np.float32(sd / count)
        mu += mean_at[:, :n]
        loser = np.argmin(_score(mu, threshold), axis=0)
        for x in (mean_at, walk):
            x[:, loser, runs_idx] = x[:, n - 1, runs_idx]
        alive[loser, runs_idx] = alive[n - 1, runs_idx]
    mu = mean_at[:, 0] + walk[:, 0] * np.float32(sd / count)
    return _decide(alive[0], mu, threshold)


def _etc(gen, means_t, sd, threshold, budget, runs):
    m, k = means_t.shape
    q1 = (budget // 2) // (k * m)
    walk = _walk(gen, (m, k, runs), q1)
    score = _score(means_t[:, :, None] + walk * np.float32(sd / q1), threshold)
    width = min(m, k)
    kept = np.argsort(-score, axis=0, kind="stable")[:width]
    q2 = (budget - q1 * k * m) // (width * m)
    walk = np.take_along_axis(walk, kept[None], axis=1)
    walk += _walk(gen, (m, width, runs), q2)
    mu = means_t[:, kept] + walk * np.float32(sd / (q1 + q2))
    pick = np.argmax(_score(mu, threshold), axis=0)
    runs_idx = np.arange(runs)
    return _decide(kept[pick, runs_idx], mu[:, pick, runs_idx], threshold)


_MODELS = {"us": _us, "sr": _sr, "etc": _etc}


def _correct_in_part(args) -> int:
    algorithm, means, sd, threshold, budget, seed, part, runs = args
    gen = np.random.default_rng((seed, part))
    means_t = np.ascontiguousarray(means.T, dtype=np.float32)
    decisions = _MODELS[algorithm](gen, means_t, sd, threshold, budget, runs)
    return int(np.count_nonzero(decisions == best_feasible_arm(means, threshold)))


def model_accuracies(cells, seed: int, workers: int) -> list[float]:
    """Estimated accuracy of each cell over MODEL_DRAWS seeded model runs.

    Each cell is ``(algorithm, means, variance, threshold, budget)``, with
    ``algorithm`` one of "us", "sr", "etc": ``means`` is the K x M array of
    Gaussian attribute means, and every attribute has the same
    ``variance``. All parts of all cells share one pool of ``workers``
    processes.
    """
    parts = list(enumerate(range(0, MODEL_DRAWS, _PART)))
    tasks = []
    for algorithm, means, variance, threshold, budget in cells:
        cell = (algorithm, np.asarray(means, dtype=float), math.sqrt(variance))
        tasks += [
            cell + (threshold, budget, seed, part, min(_PART, MODEL_DRAWS - start))
            for part, start in parts
        ]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        counts = list(pool.map(_correct_in_part, tasks))
    n = len(parts)
    return [sum(counts[i : i + n]) / MODEL_DRAWS for i in range(0, len(tasks), n)]


def model_standard_error(p: float) -> float:
    return math.sqrt(p * (1.0 - p) / MODEL_DRAWS)
