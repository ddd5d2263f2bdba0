"""Grouped-bandit environment: reward distributions, instances, and statistics.

A grouped bandit has K arms, each a bundle of M independent attributes with
its own reward distribution. Pulling attribute (i, j) yields one sample from
that attribute's distribution. An arm is *feasible* when every attribute's
true mean strictly exceeds the threshold; the target arm is the feasible arm
with the highest average attribute mean.

Arms are numbered 1..K and attributes 1..M throughout the public API. The
integer 0 is reserved as the "no feasible arm" flag, both in oracle output
and in algorithm decisions.

Random stream (seed, id) is numpy's PCG64 seeded by ``SeedSequence((seed
mod 2**64, id mod 2**64))``. ``RngStream.generator()`` builds one so and is
the reference; ``_stream_generators`` seeds a batch of them in one
vectorised pass that equals it bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Sequence, Union

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "Gaussian",
    "Bernoulli",
    "Empirical",
    "AttributeDistribution",
    "BanditInstance",
    "StatsState",
    "RngStream",
    "OracleResult",
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
        object.__setattr__(self, "mean", _real("Gaussian mean", self.mean))
        object.__setattr__(self, "variance", _real("Gaussian variance", self.variance, "[0, inf)"))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def true_mean(self) -> float:
        return self.mean

    def draw_many(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return gen.normal(self.mean, self.std, size=n)

    def draw_sum(self, n: int, gen: np.random.Generator) -> float:
        """One sample distributed as the sum of ``n`` independent draws."""
        if n <= 0:
            return 0.0
        return float(gen.normal(n * self.mean, math.sqrt(n * self.variance)))


@dataclass(frozen=True)
class Bernoulli:
    """Reward is 1.0 with probability ``p``, else 0.0."""

    p: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _real("Bernoulli p", self.p, "[0, 1]"))

    def true_mean(self) -> float:
        return self.p

    def draw_many(self, n: int, gen: np.random.Generator) -> np.ndarray:
        return (gen.random(n) < self.p).astype(np.float64)

    def draw_sum(self, n: int, gen: np.random.Generator) -> float:
        if n <= 0:
            return 0.0
        return float(gen.binomial(n, self.p))


@dataclass(frozen=True)
class Empirical:
    """Uniform-with-replacement draws from a fixed support of values in [0, 1].

    Used for replaying historical data (e.g. normalized movie ratings) as a
    reward stream. Values must already be normalized; out-of-range inputs are
    rejected here rather than clamped, so any rescaling is the ingester's job.
    """

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        if isinstance(values, str) or not isinstance(values, (Sequence, np.ndarray)) or len(values) == 0:
            raise ValueError(f"Empirical values must be a non-empty sequence of numbers, got {values!r}")
        odd = [kind for kind in set(map(type, values)) if not _is_real(kind)]  # once per item type
        if odd:
            bad = next(v for v in values if type(v) in odd)
            raise ValueError(f"each item of values must be a number, got {bad!r}")
        try:
            array = np.fromiter(values, dtype=np.float64, count=len(values))
        except OverflowError:  # an int or a Fraction too large for a float
            array = np.array([math.nan])
        # A NaN fails both comparisons.
        if not ((array >= 0.0) & (array <= 1.0)).all():
            raise ValueError("Empirical values must be finite and lie in [0, 1]")
        object.__setattr__(self, "values", tuple(array.tolist()))
        object.__setattr__(self, "_array", array)

    @cached_property
    def _probs(self) -> np.ndarray:
        return np.full(len(self.values), 1.0 / len(self.values))

    def true_mean(self) -> float:
        return float(self._array.mean())

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

    An RngStream holds no generator state: ``generator()`` returns a fresh
    generator positioned at the start of the stream each time, so a run that
    is handed an RngStream makes the same draws however often the stream was
    used before. ``seed`` and ``stream_id`` are integers of any sign (not
    bools), each taken mod 2**64.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        self.seed = _integer("seed", self.seed)
        self.stream_id = _integer("stream_id", self.stream_id)

    def generator(self) -> Generator:
        """Fresh generator at the start of this stream."""
        entropy = (self.seed % (1 << 64), self.stream_id % (1 << 64))
        return Generator(PCG64(SeedSequence(entropy)))


# SeedSequence's hash constants. numpy keeps its seeding algorithm fixed, so
# that a seed names the same stream in every release.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF


def _chain(init: int, mult: int, n: int) -> list[int]:
    """The constants of n successive hashmix calls: call r xors with entry r
    and multiplies by entry r + 1 (each entry is the last times ``mult``)."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# Entropy mixing hashes the 4 entropy words into the pool, then each pool
# word into the other three in order, each call with the next constants of
# chain A; the output hashes the pool, cycled, into 8 words with chain B.
_CHAIN_A = _chain(_INIT_A, _MULT_A, 16)
_CHAIN_B = _chain(_INIT_B, _MULT_B, 8)
_FILL = (_column(_CHAIN_A[0:4]), _column(_CHAIN_A[1:5]))
_OUTPUT = (_column(_CHAIN_B[0:8]), _column(_CHAIN_B[1:9]))


def _pool_mix(src: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants to hash pool word ``src`` into all 4 words at once: its 3
    calls go to the other words in order, and row ``src``, whose result is
    dropped, repeats the first call's."""
    calls = [4 + 3 * src + r for r in range(3)]
    calls.insert(src, calls[0])
    return _column([_CHAIN_A[k] for k in calls]), _column([_CHAIN_A[k + 1] for k in calls])


_MIXES = tuple(_pool_mix(src) for src in range(4))


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix, in wrapping uint32 arithmetic."""
    words = (words ^ xor) * mult
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    words = x * _MIX_L - y * _MIX_R
    return words ^ (words >> 16)


class _State(ISeedSequence):
    """One PCG64 seed state, computed ahead, handed to ``PCG64``, whose own C
    code then sets the generator from it as it would from a SeedSequence."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # ``PCG64`` hands ``np.uint64`` itself, which needs no ``np.dtype``.
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a precomputed PCG64 state holds 4 uint64 words, not {n_words} {np.dtype(dtype)}"
            )
        return self.words


def _stream_generators(seed: int, stream_ids: Sequence[int]) -> list[Generator]:
    """``RngStream(seed, i).generator()`` for each i of ``stream_ids``, bit
    for bit, with the SeedSequence hashing done for all of them at once.

    ``SeedSequence((seed, i))`` hashes the 32-bit words of seed then of i,
    low word first, zero-padded to a pool of 4. At most 4 words never reach
    the pool's overflow step, and a 0 word hashes as a missing one does, so
    every id takes two words here with no per-stream branch. The pool then
    yields the 4 uint64 words that ``generate_state(4, uint64)`` returns."""
    seed %= 1 << 64
    ids = np.array([i % (1 << 64) for i in stream_ids], dtype=np.uint64)
    head = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    entropy = np.zeros((4, len(ids)), dtype=np.uint32)
    entropy[: len(head)] = _column(head)
    entropy[len(head)] = ids.astype(np.uint32)
    entropy[len(head) + 1] = (ids >> 32).astype(np.uint32)
    pool = _hashmix(entropy, *_FILL)
    for src, (xor, mult) in enumerate(_MIXES):
        word = pool[src].copy()
        pool = _mix(pool, _hashmix(word, xor, mult))
        pool[src] = word
    out = _hashmix(np.concatenate([pool, pool]), *_OUTPUT).astype(np.uint64)
    state = np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)
    return [Generator(PCG64(_State(row))) for row in state]


def _integer(name: str, value: object, least: int | None = None) -> int:
    """``value`` as an int: the one rule for every integer input. A
    ValueError naming ``name`` when it is no integer (a bool is not one) or,
    given ``least``, when it is below ``least``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return int(value)


def _is_real(kind: type) -> bool:
    """Whether a value of type ``kind`` is a real number: a bool is not one."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _real(name: str, value: object, domain: str = "(-inf, inf)") -> float:
    """``value`` as a float: the one rule for every real input. A ValueError
    naming ``name`` when it is no finite real number (a bool is not one; a
    NaN fails every comparison) or lies outside ``domain``, interval text
    such as "[0, 1)" whose brackets say which ends it includes."""
    low, high = map(float, domain[1:-1].split(","))
    try:
        x = float(value) if _is_real(type(value)) else math.nan
    except OverflowError:  # an int or a Fraction too large for a float
        x = math.nan
    if (low <= x if domain[0] == "[" else low < x) and (x <= high if domain[-1] == "]" else x < high):
        return x
    raise ValueError(f"{name} must be a real number in {domain}, got {value!r}")


def _as_generator(rng: RngStream | Generator) -> Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


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
        object.__setattr__(self, "threshold", _real("threshold", self.threshold))
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
        is Bernoulli, else None. ``parameters[f, i, j]`` is the family's field
        f (mean and variance, or p) of attribute (i, j). Empirical attributes
        each have their own support, so they have no such table."""
        families = {type(d) for row in self.arms for d in row}
        if families != {Gaussian} and families != {Bernoulli}:
            return None
        family = families.pop()
        params = [[[getattr(d, f.name) for d in row] for row in self.arms] for f in fields(family)]
        return family, np.array(params, dtype=np.float64)

    @cached_property
    def arm_means(self) -> np.ndarray:
        """Length-K vector of true arm means (simple attribute average)."""
        return self.attribute_means.mean(axis=1)

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

    Each empirical mean is its reward sum over its pull count. A
    never-pulled attribute has sum 0 and count 0, and its mean reads 0, as
    if the count were 1; this deliberately makes unsampled attributes look
    infeasible for any threshold >= 0.

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

    def total_pulls(self) -> int:
        return int(self.pull_counts.sum())

    def min_empirical_mean(self, arm: int) -> float:
        return float(self.empirical_means[arm - 1].min())

    def copy(self) -> "StatsState":
        return StatsState(
            self.reward_sums.copy(),
            self.pull_counts.copy(),
            self.empirical_means.copy(),
        )


def _gated_scores(mu: np.ndarray, threshold: float) -> np.ndarray:
    """Feasibility-gated score of each column of ``mu``, whose first axis
    runs over the attributes: ``mu[j]`` holds attribute j's means.

    The mean of the column when every entry strictly exceeds the threshold;
    otherwise the smallest entry. The rows are added one by one from the
    top, as Python's ``sum`` adds a sequence, where ``np.sum`` could add
    them pairwise, and the smallest entry is taken in the same loop; each
    step is one operation over contiguous rows when ``mu`` is. (A sum that
    starts from ``mu[0]`` rather than 0 differs only in the sign of a zero
    total, whose column scores its smallest entry either way.) The rounded
    mean of entries within a few ulps of each other can fall below the
    smallest of them, and so to the threshold; it is raised to the
    smallest entry, so that a column that passes the gate always scores
    above the threshold.
    """
    lowest = total = mu[0]
    for row in mu[1:]:
        total = total + row
        lowest = np.minimum(lowest, row)
    mean = total / len(mu)
    return np.where(lowest > threshold, np.where(mean > lowest, mean, lowest), lowest)
