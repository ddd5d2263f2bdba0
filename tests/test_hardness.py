"""Hardness-index tests against an independent brute-force oracle."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

from fcsr.core import BanditInstance, Bernoulli, Gaussian, oracle
from fcsr.hardness import (
    compute_hardness,
    generate_feasibility_class,
    generate_risky_class,
    mean_hardness_over_range,
    predict_exponents,
)
from fcsr.harness import build_synthetic


def brute_force_hardness(means, tau):
    """Naive re-derivation of all four indices straight from the definitions.

    Deliberately written with plain loops and its own sorting/feasibility
    logic so it shares nothing with the production implementation.
    """
    means = [list(row) for row in means]
    k = len(means)
    m = len(means[0])
    arm_means = [sum(row) / m for row in means]
    feasible = [i for i in range(k) if all(x > tau for x in means[i])]
    infeasible = [i for i in range(k) if i not in feasible]
    if feasible:
        best_value = max(arm_means[i] for i in feasible)
        best = min(i for i in feasible if arm_means[i] == best_value)
        mu_star = arm_means[best]
        subopt = [abs(mu_star - arm_means[i]) for i in range(k)]
        risky = [i for i in infeasible if arm_means[i] >= mu_star]
    else:
        best = None
        subopt = [math.inf] * k
        risky = list(infeasible)

    def inv_sq(g):
        if math.isinf(g):
            return 0.0
        if g == 0:
            return math.inf
        return 1.0 / g**2

    order = sorted(range(k), key=lambda i: (-arm_means[i], i))
    h_mean = 0.0
    for pos in range(len(risky) + 2, k + 1):
        h_mean = max(h_mean, pos * inv_sq(subopt[order[pos - 1]]))
    if best is not None:
        h_feas = (k / math.log(k)) * max(inv_sq(abs(x - tau)) for x in means[best])
    else:
        h_feas = 0.0
    h_risky = 0.0
    for i in infeasible:
        h_risky = max(h_risky, k * sum(inv_sq(abs(x - tau)) for x in means[i]))
    return h_mean, h_feas, h_risky, max(h_mean, h_feas, h_risky)


def _gaussian_instance(means, tau):
    rows = tuple(tuple(Gaussian(float(x), 0.1) for x in row) for row in means)
    return BanditInstance(rows, float(tau))


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(101)
    for _ in range(300):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(1, 6))
        means = rng.uniform(0, 1, size=(k, m))
        tau = float(rng.uniform(0.1, 0.9))
        report = compute_hardness(_gaussian_instance(means, tau))
        expected = brute_force_hardness(means, tau)
        got = (
            report.mean_hardness,
            report.feasibility_hardness,
            report.risky_hardness,
            report.overall_hardness,
        )
        for g, e in zip(got, expected):
            if math.isinf(e):
                assert math.isinf(g)
            else:
                assert g == pytest.approx(e, rel=1e-12)


def test_mean_identification_benchmark_values():
    # K=10, M=5, tau=0.3, a=0.003: no risky arms, the mean-hardness max is
    # hit at position 2 with gap a, so it equals 2/a^2; the feasibility term
    # is (10/ln 10) / 0.4^2.
    a = 0.003
    report = compute_hardness(build_synthetic("mean", gap=a))
    assert report.risky_set == ()
    assert report.mean_hardness == pytest.approx(2 / a**2, rel=1e-9)
    assert report.mean_hardness == pytest.approx(222222.2, rel=1e-6)
    assert report.feasibility_hardness == pytest.approx(
        (10 / math.log(10)) * 0.4**-2, rel=1e-12
    )
    assert report.feasibility_hardness == pytest.approx(27.14, abs=5e-3)
    assert report.risky_hardness == 0.0
    assert report.overall_hardness == report.mean_hardness


def test_risky_benchmark_values():
    # K=10, M=5, tau=0.5, a=0.01: all nine high-mean arms are risky, so the
    # mean-hardness index ranges over an empty set; the risky index is
    # 10 * (4 / 0.3025^2 + 1 / 0.01^2).
    a = 0.01
    report = compute_hardness(build_synthetic("risky", gap=a))
    assert len(report.risky_set) == 9
    assert report.mean_hardness == 0.0
    expected_risky = 10 * (4 * (0.3 + a / 4) ** -2 + a**-2)
    assert report.risky_hardness == pytest.approx(expected_risky, rel=1e-9)
    assert report.risky_hardness == pytest.approx(100437.0, rel=1e-5)
    assert report.overall_hardness == report.risky_hardness


def test_threshold_far_below_recovers_plain_mean_hardness():
    # tau far below every mean: no infeasible arms, a vanishing feasibility
    # term, and the overall index reduces to the classic max over positions
    # 2..K of position / gap^2.
    instance = BanditInstance(
        arms=build_synthetic("mean").arms, threshold=-1e6
    )
    report = compute_hardness(instance)
    truth = oracle(instance)
    assert report.risky_hardness == 0.0
    assert report.feasibility_hardness < 1e-6
    order = sorted(
        range(10), key=lambda i: (-truth.arm_means[i], i)
    )
    best_mean = truth.arm_means[order[0]]
    expected = max(
        (pos) * (abs(best_mean - truth.arm_means[order[pos - 1]])) ** -2
        for pos in range(2, 11)
    )
    assert report.overall_hardness == pytest.approx(expected, rel=1e-12)
    assert report.overall_hardness == report.mean_hardness


def test_hardness_invariant_to_arm_permutation():
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        means = rng.uniform(0, 1, size=(k, m))
        tau = float(rng.uniform(0.2, 0.8))
        base = compute_hardness(_gaussian_instance(means, tau))
        perm = rng.permutation(k)
        other = compute_hardness(_gaussian_instance(means[perm], tau))
        assert other.mean_hardness == base.mean_hardness
        assert other.feasibility_hardness == base.feasibility_hardness
        assert other.risky_hardness == base.risky_hardness
        assert other.overall_hardness == base.overall_hardness
        assert len(other.risky_set) == len(base.risky_set)


def test_single_arm_rejected():
    with pytest.raises(ValueError):
        compute_hardness(
            BanditInstance(arms=((Bernoulli(0.7), Bernoulli(0.8)),), threshold=0.5)
        )


def test_report_equality_compares_every_field():
    report = compute_hardness(build_synthetic("combined"))
    assert report == compute_hardness(build_synthetic("combined"))
    for f in fields(report):
        value = getattr(report, f.name)
        changed = value + (99,) if isinstance(value, tuple) else value + 1
        assert replace(report, **{f.name: changed}) != report, f.name


def test_mean_hardness_range_behaviour():
    gaps = [0.0, 0.1, 0.2, 0.3, 0.5]
    assert mean_hardness_over_range(gaps, 6) == 0.0  # empty range
    values = [mean_hardness_over_range(gaps, start) for start in range(5, 1, -1)]
    assert all(b >= a for a, b in zip(values, values[1:]))  # widening grows it


# ---------------------------------------------------------------------------
# Exponent predictions
# ---------------------------------------------------------------------------


def _report_with_overall(h):
    report = compute_hardness(build_synthetic("mean"))
    import dataclasses

    return dataclasses.replace(
        report,
        mean_hardness=0.0,
        risky_hardness=0.0,
        feasibility_hardness=h,
        overall_hardness=h,
    )


def test_predicted_upper_exponent_value():
    # Direct evaluation: T / (32 R^2 ln K * H) with H=100, K=10, T=1e4, R=1.
    report = _report_with_overall(100.0)
    pred = predict_exponents(report, 10_000, 1.0)
    expected = 10_000 / (32 * math.log(10) * 100)
    assert pred.upper_bound_exponent == pytest.approx(expected, rel=1e-12)
    assert pred.upper_bound_exponent == pytest.approx(1.357, abs=5e-4)
    assert pred.lower_bound_exponent == pytest.approx(
        1200 * 10_000 / (math.log(10) * 100), rel=1e-12
    )
    assert pred.lower_bound_prefactor == pytest.approx(1 / 6)
    assert pred.upper_bound_prefactor == 300.0


def test_prediction_linear_in_budget():
    report = _report_with_overall(50.0)
    zero = predict_exponents(report, 0, 1.0)
    assert zero.lower_bound_exponent == 0.0
    assert zero.upper_bound_exponent == 0.0
    single = predict_exponents(report, 5000, 2.0)
    double = predict_exponents(report, 10000, 2.0)
    assert double.lower_bound_exponent == pytest.approx(
        2 * single.lower_bound_exponent, rel=1e-12
    )
    assert double.upper_bound_exponent == pytest.approx(
        2 * single.upper_bound_exponent, rel=1e-12
    )


def test_prediction_validation():
    report = _report_with_overall(50.0)
    with pytest.raises(ValueError):
        predict_exponents(report, 100, 0.0)
    with pytest.raises(ValueError):
        predict_exponents(report, -1, 1.0)
    with pytest.raises(ValueError):
        predict_exponents(_report_with_overall(0.0), 100, 1.0)


# ---------------------------------------------------------------------------
# Adversarial families
# ---------------------------------------------------------------------------


def test_feasibility_family_shape_and_oracles():
    k = 5
    d = 0.1
    members = generate_feasibility_class(d, k)
    assert len(members) == k + 1
    base = oracle(members[0])
    assert base.feasible_arms == ()
    assert base.best_arm == 0
    for flipped in range(1, k + 1):
        truth = oracle(members[flipped])
        assert truth.feasible_arms == (flipped,)
        assert truth.best_arm == flipped
        report = compute_hardness(members[flipped])
        assert report.feasibility_hardness == pytest.approx(
            (k / math.log(k)) * d**-2, rel=1e-9
        )


def test_feasibility_family_symmetric_difficulty():
    members = generate_feasibility_class(0.05, 4)
    values = {
        round(compute_hardness(g).overall_hardness, 9) for g in members[1:]
    }
    assert len(values) == 1


def test_feasibility_family_validation():
    with pytest.raises(ValueError):
        generate_feasibility_class(0.3, 4)
    with pytest.raises(ValueError):
        generate_feasibility_class(0.0, 4)
    with pytest.raises(ValueError):
        generate_feasibility_class(0.1, 1)


def test_risky_family_shape_and_oracles():
    k, m, beta = 4, 3, 0.5
    members = generate_risky_class(beta, k, m)
    assert len(members) == k + m

    base = oracle(members[0])
    assert base.best_arm == 1
    assert base.arm_means[0] == pytest.approx(0.5, rel=1e-12)
    assert len(base.feasible_arms) == k  # every arm clears 3/8

    for j in range(2, k + 1):
        truth = oracle(members[j - 1])
        assert truth.best_arm == j
        assert truth.arm_means[j - 1] > 0.5

    for attr in range(1, m + 1):
        truth = oracle(members[k - 1 + attr])
        assert 1 not in truth.feasible_arms
        assert truth.best_arm == 2

    for member in members:
        means = member.arm_means
        assert all(means[i] >= 7 / 16 - 1e-12 for i in range(1, k))


def test_risky_family_validation():
    with pytest.raises(ValueError):
        generate_risky_class(0.0, 4, 4)
    with pytest.raises(ValueError):
        generate_risky_class(1.0, 4, 4)
    with pytest.raises(ValueError):
        generate_risky_class(0.5, 1, 4)
    with pytest.raises(ValueError):
        generate_risky_class(0.5, 4, 1)
