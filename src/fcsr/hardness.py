"""Instance difficulty indices and adversarial instance families.

Three quantities drive how hard a grouped feasibility-constrained instance
is: discriminating arm means (mean hardness), ruling out infeasible arms
whose mean beats the target (risky hardness), and confirming the target's
own feasibility (feasibility hardness). The overall index is their maximum,
and both the lower- and upper-bound error exponents scale with it.

All logarithms here are natural. Arm identifiers follow the package-wide
convention: 1..K with 0 as the "no feasible arm" flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .core import BanditInstance, Bernoulli, _integer, _real, oracle

__all__ = [
    "HardnessReport",
    "ExponentPrediction",
    "compute_hardness",
    "predict_exponents",
    "generate_feasibility_class",
    "generate_risky_class",
    "mean_hardness_over_range",
]

LOWER_BOUND_CONSTANT = 1200.0
FEASIBILITY_FAMILY_CONSTANT = 120.0
RISKY_FAMILY_CONSTANT = 600.0
LOWER_BOUND_PREFACTOR = 1.0 / 6.0


def _inv_sq(gap: float) -> float:
    """1/gap^2 with the sentinel conventions: 0 for an infinite gap, inf for 0."""
    if math.isinf(gap):
        return 0.0
    if gap == 0.0:
        return math.inf
    return 1.0 / (gap * gap)


@dataclass(frozen=True)
class HardnessReport:
    """All gaps and difficulty indices of one instance, in its document's key order.

    ``threshold_gaps`` and ``suboptimality_gaps`` are reported in the
    instance's own arm order; the descending-mean re-indexing used to
    evaluate the mean-hardness maximum is internal, which is what makes the
    four indices invariant to arm permutations of the input.
    """

    num_arms: int
    num_attributes: int
    best_arm: int  # 0 when the feasible set is empty
    tied_best: tuple[int, ...]
    risky_set: tuple[int, ...]  # infeasible arms with mean >= the best arm's
    threshold_gaps: np.ndarray  # (K, M): |attribute mean - threshold|
    suboptimality_gaps: np.ndarray  # (K,): |best arm mean - arm mean|, inf if no best
    mean_hardness: float  # H over descending positions |risky|+2 .. K
    feasibility_hardness: float
    risky_hardness: float
    overall_hardness: float  # max of the three

    def __eq__(self, other: object) -> bool:  # the gaps are ndarrays
        if not isinstance(other, HardnessReport):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


def mean_hardness_over_range(sorted_gaps: list[float], first_position: int) -> float:
    """max over 1-based positions p in [first_position, K] of p / gap_p^2.

    ``sorted_gaps`` are suboptimality gaps in descending-mean arm order. An
    empty range yields 0, and widening the range can only increase the max.
    """
    best = 0.0
    for p in range(first_position, len(sorted_gaps) + 1):
        val = p * _inv_sq(sorted_gaps[p - 1])
        if val > best:
            best = val
    return best


def compute_hardness(instance: BanditInstance) -> HardnessReport:
    """Compute every gap vector and difficulty index for ``instance``.

    Handles the no-feasible-arm case through the standing sentinels: the
    flag arm has infinite mean and infinite threshold gaps, so every
    suboptimality gap becomes infinite and the mean/feasibility indices
    collapse to 0 while the risky index covers the whole (infeasible) field.

    Raises:
        ValueError: for K < 2, where log(K) <= 0 leaves the feasibility
            index undefined.
    """
    num_arms = instance.num_arms
    if num_arms < 2:
        raise ValueError("hardness indices need at least 2 arms (log K must be > 0)")
    truth = oracle(instance)
    arm_means = truth.arm_means
    best = truth.best_arm
    best_mean = arm_means[best - 1] if best else math.inf

    threshold_gaps = np.abs(instance.attribute_means - instance.threshold)
    subopt = np.abs(best_mean - arm_means)

    feasible = set(truth.feasible_arms)
    infeasible = [i for i in range(1, num_arms + 1) if i not in feasible]
    if best:
        risky = tuple(i for i in infeasible if arm_means[i - 1] >= best_mean)
    else:
        risky = tuple(infeasible)

    order = sorted(range(num_arms), key=lambda r: (-arm_means[r], r))
    sorted_gaps = [float(subopt[r]) for r in order]
    h_mean = mean_hardness_over_range(sorted_gaps, len(risky) + 2)

    log_k = math.log(num_arms)
    if best:
        h_feas = (num_arms / log_k) * max(
            _inv_sq(float(g)) for g in threshold_gaps[best - 1]
        )
    else:
        h_feas = 0.0

    if infeasible:
        h_risky = num_arms * max(
            sum(_inv_sq(float(g)) for g in threshold_gaps[i - 1]) for i in infeasible
        )
    else:
        h_risky = 0.0

    return HardnessReport(
        threshold_gaps=threshold_gaps,
        suboptimality_gaps=subopt,
        risky_set=risky,
        mean_hardness=h_mean,
        feasibility_hardness=h_feas,
        risky_hardness=h_risky,
        overall_hardness=max(h_mean, h_risky, h_feas),
        best_arm=best,
        tied_best=truth.tied_best,
        num_arms=num_arms,
        num_attributes=instance.num_attributes,
    )


@dataclass(frozen=True)
class ExponentPrediction:
    """Predicted error exponents for a budget, in its document's key order.

    The lower bound says some instance of matching difficulty forces error
    at least ``lower_bound_prefactor * exp(-lower_bound_exponent)``; the
    upper bound says the elimination algorithm's error is at most
    ``upper_bound_prefactor * exp(-upper_bound_exponent)``. The two family
    exponents expose the per-family constants (120 for the feasibility
    family, 600 for the risky family) that combine into the headline 1200;
    no attempt is made to reconcile them numerically. These are predictions
    of scaling, not certified numerics at experiment scale.
    """

    budget: int
    sub_gaussian_r: float
    lower_bound_exponent: float
    lower_bound_prefactor: float
    upper_bound_exponent: float
    upper_bound_prefactor: float
    feasibility_family_exponent: float
    risky_family_exponent: float


def predict_exponents(
    report: HardnessReport, budget: int, sub_gaussian_r: float = 1.0
) -> ExponentPrediction:
    """Evaluate the bound exponents for a budget and sub-Gaussian scale R.

    Both exponents are linear in the budget; budget 0 is allowed and gives
    zero exponents.

    Raises:
        ValueError: if R is no real number in (0, inf), the budget is not an
            integer >= 0, or the overall hardness is 0 (an unconstrained
            trivial instance, for which the prediction is vacuous).
    """
    sub_gaussian_r = _real("sub-Gaussian parameter R", sub_gaussian_r, "(0, inf)")
    _integer("budget", budget, 0)
    if report.overall_hardness <= 0.0:
        raise ValueError(
            "overall hardness is 0; the error-exponent prediction is vacuous"
        )
    log_k = math.log(report.num_arms)
    denom = log_k * report.overall_hardness
    c_upper = 1.0 / (32.0 * sub_gaussian_r * sub_gaussian_r)
    h_risky_mean = max(report.risky_hardness, report.mean_hardness)
    return ExponentPrediction(
        lower_bound_exponent=LOWER_BOUND_CONSTANT * budget / denom,
        upper_bound_exponent=c_upper * budget / denom,
        lower_bound_prefactor=LOWER_BOUND_PREFACTOR,
        upper_bound_prefactor=3.0 * report.num_arms**2,
        feasibility_family_exponent=(
            FEASIBILITY_FAMILY_CONSTANT * budget / (log_k * report.feasibility_hardness)
            if report.feasibility_hardness > 0.0
            else math.inf
        ),
        risky_family_exponent=(
            RISKY_FAMILY_CONSTANT * budget / (log_k * h_risky_mean)
            if h_risky_mean > 0.0
            else math.inf
        ),
        budget=budget,
        sub_gaussian_r=sub_gaussian_r,
    )


def generate_feasibility_class(d: float, num_arms: int) -> list[BanditInstance]:
    """The K+1 member feasibility family of square Bernoulli instances.

    All members share threshold 0.5 and K = M. Member 0 puts mean 0.5 - d on
    every attribute (no feasible arm); member k >= 1 raises arm k's
    attributes to 0.5 + d, making arm k the unique feasible arm.

    Args:
        d: gap parameter in (0, 1/4].
        num_arms: K = M >= 2.
    """
    d = _real("gap d", d, "(0, 0.25]")
    m = _integer("num_arms", num_arms, 2)
    low = Bernoulli(0.5 - d)
    high = Bernoulli(0.5 + d)
    members = []
    for flipped in range(num_arms + 1):
        arms = tuple(
            tuple(high if arm == flipped else low for _ in range(m))
            for arm in range(1, num_arms + 1)
        )
        members.append(BanditInstance(arms=arms, threshold=0.5))
    return members


def generate_risky_class(
    beta: float, num_arms: int, num_attributes: int
) -> list[BanditInstance]:
    """The K+M member risky family of Bernoulli instances at threshold 3/8.

    The base member gives arm 1 mean 1/2 on every attribute (feasible, and
    the best) and arm i mean 1/2 - d_i with
    d_i = (beta * i / (16 K)) * sqrt((K - 1) / (M K)), which keeps every
    other arm feasible (mean >= 7/16 > 3/8). Members 2..K raise arm j to
    1/2 + d_j so that arm j becomes the best. The final M members drop one
    attribute of arm 1 to 3/8 - 1/8 = 1/4, making arm 1 infeasible and arm 2
    the best. The construction's prose indexes one more attribute member
    than exists; exactly one member per real attribute is generated.

    Args:
        beta: difficulty parameter in (0, 1).
        num_arms: K >= 2.
        num_attributes: M >= 2.
    """
    beta = _real("beta", beta, "(0, 1)")
    k = _integer("num_arms", num_arms, 2)
    m = _integer("num_attributes", num_attributes, 2)
    threshold = 3.0 / 8.0
    d_risky = 1.0 / 8.0
    scale = math.sqrt((k - 1) / (m * k))
    gaps = {i: beta * i / (16.0 * k) * scale for i in range(2, k + 1)}

    def base_row(arm: int) -> tuple[Bernoulli, ...]:
        if arm == 1:
            return tuple(Bernoulli(threshold + d_risky) for _ in range(m))
        return tuple(Bernoulli(0.5 - gaps[arm]) for _ in range(m))

    members = [
        BanditInstance(
            arms=tuple(base_row(a) for a in range(1, k + 1)), threshold=threshold
        )
    ]
    for flipped in range(2, k + 1):
        arms = tuple(
            tuple(Bernoulli(0.5 + gaps[flipped]) for _ in range(m))
            if a == flipped
            else base_row(a)
            for a in range(1, k + 1)
        )
        members.append(BanditInstance(arms=arms, threshold=threshold))
    for attr in range(1, m + 1):
        first = tuple(
            Bernoulli(threshold - d_risky) if j == attr else Bernoulli(threshold + d_risky)
            for j in range(1, m + 1)
        )
        arms = (first,) + tuple(base_row(a) for a in range(2, k + 1))
        members.append(BanditInstance(arms=arms, threshold=threshold))
    return members
