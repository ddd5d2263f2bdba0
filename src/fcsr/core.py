"""Grouped-bandit environment: reward distributions, instances, and statistics.

A grouped bandit has K arms, each a bundle of M independent attributes with
its own reward distribution. Pulling attribute (i, j) yields one sample from
that attribute's distribution. An arm is *feasible* when every attribute's
true mean strictly exceeds the threshold; the target arm is the feasible arm
with the highest average attribute mean.

Arms are numbered 1..K and attributes 1..M throughout the public API. The
integer 0 is reserved as the "no feasible arm" flag, both in oracle output
and in algorithm decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Gaussian",
    "Bernoulli",
    "Empirical",
    "AttributeDistribution",
    "BanditInstance",
    "StatsState",
    "RngStream",
    "OracleResult",
    "sample",
    "update",
    "score",
    "oracle",
]


@dataclass(frozen=True)
class Gaussian:
    """Normal reward distribution.

    The second parameter is the VARIANCE, not the standard deviation. The
    synthetic benchmark instances use variance 0.3, i.e. a standard deviation
    of about 0.5477; mixing the two changes every Monte-Carlo result
    materially, so conversions happen in exactly one place (here).
    """

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"Gaussian mean must be finite, got {self.mean}")
        if not 0.0 <= self.variance < math.inf:
            raise ValueError(f"Gaussian variance must be finite and >= 0, got {self.variance}")

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def true_mean(self) -> float:
        return self.mean

    def draw(self, gen: np.random.Generator) -> float:
        return float(gen.normal(self.mean, self.std))

    def draw_many(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.normal(self.mean, self.std, size=n)

    def draw_sum(self, n: int, gen: np.random.Generator) -> float:
        """One sample distributed as the sum of ``n`` independent draws."""
        if n <= 0:
            return 0.0
        return float(gen.normal(n * self.mean, math.sqrt(n * self.variance)))

    @staticmethod
    def _draw_sums(n: int, params: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """:meth:`draw_sum` of ``n`` pulls for each attribute whose mean and
        variance are the entries of ``params[0]`` and ``params[1]``, in one
        generator call. numpy draws an array of normals one entry at a time,
        from the loc and scale that ``draw_sum`` computes with the same
        float operations, so the values, and the generator state after them,
        equal one ``draw_sum`` per entry in C order."""
        q = n * params
        return gen.normal(q[0], np.sqrt(q[1]))


@dataclass(frozen=True)
class Bernoulli:
    """Reward is 1.0 with probability ``p``, else 0.0."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"Bernoulli p must lie in [0, 1], got {self.p}")

    def true_mean(self) -> float:
        return self.p

    def draw(self, gen: np.random.Generator) -> float:
        return 1.0 if gen.random() < self.p else 0.0

    def draw_many(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return (gen.random(n) < self.p).astype(np.float64)

    def draw_sum(self, n: int, gen: np.random.Generator) -> float:
        if n <= 0:
            return 0.0
        return float(gen.binomial(n, self.p))

    @staticmethod
    def _draw_sums(n: int, params: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """:meth:`draw_sum` of ``n`` pulls for each attribute whose ``p`` is an
        entry of ``params[0]``, in one generator call; the same values as one
        ``draw_sum`` per entry in C order (see :meth:`Gaussian._draw_sums`)."""
        return gen.binomial(n, params[0])


@dataclass(frozen=True)
class Empirical:
    """Uniform-with-replacement draws from a fixed support of values in [0, 1].

    Used for replaying historical data (e.g. normalized movie ratings) as a
    reward stream. Values must already be normalized; out-of-range inputs are
    rejected here rather than clamped, so any rescaling is the ingester's job.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) == 0:
            raise ValueError("Empirical distribution needs a non-empty value sequence")
        vals = tuple(map(float, self.values))
        # One pass; a NaN fails both comparisons.
        if not all(0.0 <= v <= 1.0 for v in vals):
            raise ValueError("Empirical values must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    @cached_property
    def _array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=np.float64)

    @cached_property
    def _probs(self) -> np.ndarray:
        return np.full(len(self.values), 1.0 / len(self.values))

    def true_mean(self) -> float:
        return float(self._array.mean())

    def draw(self, gen: np.random.Generator) -> float:
        return float(self._array[gen.integers(0, len(self.values))])

    def draw_many(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return self._array[gen.integers(0, len(self.values), size=n)]

    def draw_sum(self, n: int, gen: np.random.Generator) -> float:
        if n <= 0:
            return 0.0
        counts = gen.multinomial(n, self._probs)
        return float(counts @ self._array)


AttributeDistribution = Union[Gaussian, Bernoulli, Empirical]


@dataclass
class RngStream:
    """Reproducible random stream identified by (seed, stream_id).

    Two streams with the same (seed, stream_id) produce the same reward
    sequence for the same pull sequence. ``generator()`` always returns a
    fresh generator positioned at the start of the stream, so a run that is
    handed an RngStream is deterministic regardless of what the caller drew
    from the stream before.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator | None = field(
        default=None, repr=False, compare=False
    )

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        entropy = (self.seed % (1 << 64), self.stream_id % (1 << 64))
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))

    def _advancing(self) -> np.random.Generator:
        if self._gen is None:
            self._gen = self.generator()
        return self._gen


def _as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


def sample(dist: AttributeDistribution, rng: RngStream | np.random.Generator) -> float:
    """Draw one reward from ``dist``.

    Successive calls with the same RngStream advance through the stream, so a
    fixed pull sequence replays the same rewards.
    """
    if isinstance(rng, RngStream):
        return dist.draw(rng._advancing())
    return dist.draw(rng)


@dataclass(frozen=True)
class BanditInstance:
    """A K x M grid of attribute reward distributions plus a threshold.

    Args:
        arms: one tuple of M distributions per arm.
        threshold: feasibility cutoff; an arm is feasible iff every attribute
            mean is strictly above it.
        arm_labels: optional display names, one per arm.
        attribute_labels: optional display names, one per attribute.
    """

    arms: tuple[tuple[AttributeDistribution, ...], ...]
    threshold: float
    arm_labels: tuple[str, ...] | None = None
    attribute_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arms = tuple(tuple(row) for row in self.arms)
        if len(arms) < 1:
            raise ValueError("instance needs at least one arm")
        m = len(arms[0])
        if m < 1:
            raise ValueError("arms need at least one attribute")
        if any(len(row) != m for row in arms):
            raise ValueError("every arm must have the same number of attributes")
        if self.arm_labels is not None and len(self.arm_labels) != len(arms):
            raise ValueError("arm_labels length must equal the number of arms")
        if self.attribute_labels is not None and len(self.attribute_labels) != m:
            raise ValueError("attribute_labels length must equal the attribute count")
        if not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        object.__setattr__(self, "arms", arms)

    @property
    def num_arms(self) -> int:
        return len(self.arms)

    @property
    def num_attributes(self) -> int:
        return len(self.arms[0])

    @cached_property
    def attribute_means(self) -> np.ndarray:
        """(K, M) matrix of true attribute means."""
        return np.array(
            [[d.true_mean() for d in row] for row in self.arms], dtype=np.float64
        )

    @cached_property
    def _sum_law(self) -> tuple[type, np.ndarray] | None:
        """(family, parameters) when every attribute is Gaussian or every one
        is Bernoulli, so that ``family._draw_sums`` can draw the block sums of
        many attributes in one call; else None. ``parameters[f, i, j]`` is
        field f (mean and variance, or p) of attribute (i, j). Each Empirical
        attribute has its own support, so its sums stay one ``multinomial``
        call each, and so do those of a mixed instance."""
        families = {type(d) for row in self.arms for d in row}
        if families == {Gaussian}:
            fields = ("mean", "variance")
        elif families == {Bernoulli}:
            fields = ("p",)
        else:
            return None
        params = [[[getattr(d, f) for d in row] for row in self.arms] for f in fields]
        return families.pop(), np.array(params, dtype=np.float64)

    @cached_property
    def arm_means(self) -> np.ndarray:
        """Length-K vector of true arm means (simple attribute average)."""
        return self.attribute_means.mean(axis=1)

    def distribution(self, arm: int, attribute: int) -> AttributeDistribution:
        return self.arms[arm - 1][attribute - 1]

    def feasible_arms(self) -> tuple[int, ...]:
        """Arms whose every attribute mean strictly exceeds the threshold."""
        mask = (self.attribute_means > self.threshold).all(axis=1)
        return tuple(int(i) + 1 for i in np.flatnonzero(mask))

    def label_of(self, arm: int) -> str:
        if self.arm_labels is not None:
            return self.arm_labels[arm - 1]
        return str(arm)


@dataclass(frozen=True)
class OracleResult:
    """Ground truth for an instance, computed from true distribution means."""

    feasible_arms: tuple[int, ...]
    best_arm: int  # 0 when no arm is feasible
    arm_means: np.ndarray
    tied_best: tuple[int, ...]  # all maximizers; >1 entry means a mean tie

    def __eq__(self, other: object) -> bool:  # arm_means is an ndarray
        if not isinstance(other, OracleResult):
            return NotImplemented
        return (
            self.feasible_arms == other.feasible_arms
            and self.best_arm == other.best_arm
            and np.array_equal(self.arm_means, other.arm_means)
            and self.tied_best == other.tied_best
        )


def oracle(instance: BanditInstance) -> OracleResult:
    """Exact feasibility set and best feasible arm from true means.

    Returns the lowest-index maximizer as ``best_arm`` when several feasible
    arms tie on the mean; ties are reported, not raised. ``best_arm`` is 0
    when the feasible set is empty.
    """
    feasible = instance.feasible_arms()
    arm_means = instance.arm_means
    if not feasible:
        return OracleResult((), 0, arm_means, ())
    best_value = max(arm_means[i - 1] for i in feasible)
    tied = tuple(i for i in feasible if arm_means[i - 1] == best_value)
    return OracleResult(feasible, tied[0], arm_means, tied)


@dataclass
class StatsState:
    """Running per-attribute statistics: reward sums, pull counts, empirical means.

    The empirical mean of a never-pulled attribute is 0 (the update rule
    divides by max(count, 1)), which deliberately makes unsampled attributes
    look infeasible for any threshold >= 0.

    Single-writer: parallel trials must each own a private StatsState (and
    RngStream); nothing here is synchronized.
    """

    reward_sums: np.ndarray
    pull_counts: np.ndarray
    empirical_means: np.ndarray

    @classmethod
    def zeros(cls, num_arms: int, num_attributes: int) -> "StatsState":
        return cls(
            reward_sums=np.zeros((num_arms, num_attributes)),
            pull_counts=np.zeros((num_arms, num_attributes), dtype=np.int64),
            empirical_means=np.zeros((num_arms, num_attributes)),
        )

    @classmethod
    def for_instance(cls, instance: BanditInstance) -> "StatsState":
        return cls.zeros(instance.num_arms, instance.num_attributes)

    @property
    def num_arms(self) -> int:
        return self.reward_sums.shape[0]

    @property
    def num_attributes(self) -> int:
        return self.reward_sums.shape[1]

    def total_pulls(self) -> int:
        return int(self.pull_counts.sum())

    def update(self, arm: int, attribute: int, reward: float) -> None:
        """Record one observed reward for (arm, attribute); other cells untouched."""
        i, j = self._index(arm, attribute)
        s = self.reward_sums[i, j] + reward
        c = self.pull_counts[i, j] + 1
        self.reward_sums[i, j] = s
        self.pull_counts[i, j] = c
        self.empirical_means[i, j] = s / c

    def min_empirical_mean(self, arm: int) -> float:
        return float(self.empirical_means[arm - 1].min())

    def copy(self) -> "StatsState":
        return StatsState(
            self.reward_sums.copy(),
            self.pull_counts.copy(),
            self.empirical_means.copy(),
        )

    def _index(self, arm: int, attribute: int) -> tuple[int, int]:
        if not 1 <= arm <= self.num_arms:
            raise IndexError(f"arm {arm} out of range 1..{self.num_arms}")
        if not 1 <= attribute <= self.num_attributes:
            raise IndexError(
                f"attribute {attribute} out of range 1..{self.num_attributes}"
            )
        return arm - 1, attribute - 1


def update(stats: StatsState, arm: int, attribute: int, reward: float) -> StatsState:
    """Functional wrapper over :meth:`StatsState.update`; mutates and returns ``stats``."""
    stats.update(arm, attribute, reward)
    return stats


def _gated_mean(row: list[float], threshold: float) -> float:
    """Feasibility-gated score of one row of empirical means.

    ``sum(row) / len(row)`` over Python floats when every entry strictly
    exceeds the threshold; otherwise the smallest entry. The rounded mean
    of entries within a few ulps of each other can fall below the smallest
    of them, and so to the threshold; it is raised to the smallest entry,
    so that a row that passes the gate always scores above the threshold.
    """
    lowest = min(row)
    if lowest > threshold:
        mean = sum(row) / len(row)
        return mean if mean > lowest else lowest
    return lowest


def score(stats: StatsState, arm: int, threshold: float) -> float:
    """Elimination score for an arm.

    The empirical arm mean when every attribute's empirical mean is strictly
    above the threshold (raised to the minimum if rounding put it below),
    otherwise the minimum attribute empirical mean. A minimum exactly equal
    to the threshold counts as infeasible.
    """
    return _gated_mean(stats.empirical_means[arm - 1].tolist(), threshold)
