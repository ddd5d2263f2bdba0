"""Algorithm tests: schedule, phases, full runs, budget guard, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsr.algorithms import (
    ALGORITHM_IDS,
    ALGORITHM_PARAMS,
    apt_phase,
    build_schedule,
    run_algorithm,
    run_fcsr,
    sample_until_feasible,
    uniform_phase,
)
from fcsr.core import BanditInstance, Bernoulli, Gaussian, RngStream, StatsState
from reference_model import schedule_cumulative

# Two arms, deterministic rewards: arm 1 always pays 1, arm 2 always 0.
SEPARATING = BanditInstance(
    arms=((Bernoulli(1.0),), (Bernoulli(0.0),)), threshold=0.5
)


def _instance(means, tau, variance=0.1):
    rows = tuple(tuple(Gaussian(float(x), variance) for x in row) for row in means)
    return BanditInstance(rows, tau)


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


def test_schedule_smallest_case():
    spec = build_schedule(2, 100, 0.0)
    assert spec.nbar == 1.0
    assert spec.cumulative == (50,)
    assert spec.delta == (50,)


def test_schedule_reference_values():
    # nbar = 1/2 + sum_{k=2..10} 1/k; n_1 = ceil(8000 / (10 nbar)) = 330.
    spec = build_schedule(10, 10_000, 0.2)
    harmonic = sum(1 / k for k in range(2, 11))
    assert spec.nbar == pytest.approx(0.5 + harmonic, rel=1e-12)
    assert spec.nbar == pytest.approx(2.428968, abs=1e-6)
    assert spec.cumulative[0] == 330


def test_schedule_monotone_and_bounded():
    rng = np.random.default_rng(19)
    for _ in range(500):
        k = int(rng.integers(2, 40))
        budget = int(rng.integers(0, 100_000))
        f = round(float(rng.uniform(0.0, 0.9)), 4)
        spec = build_schedule(k, budget, f)
        assert all(d >= 0 for d in spec.delta)
        assert all(
            b >= a for a, b in zip(spec.cumulative, spec.cumulative[1:])
        )
        # Ceilings can overshoot the reserve-adjusted budget, but by < K.
        reserve_adjusted = int((1 - Fraction(str(f))) * budget // 1)
        assert spec.weighted_total() <= reserve_adjusted + (k - 1)


@settings(max_examples=500, deadline=None)
@given(
    k=st.integers(2, 64),
    budget=st.integers(0, 10**9),
    f=st.sampled_from((0, 0.2, 1 / 3, 0.999)),
)
def test_integer_schedule_matches_rational_formula(k, budget, f):
    """The schedule's integer ceilings equal the exact rational formula."""
    spec = build_schedule.__wrapped__(k, budget, f)
    assert list(spec.cumulative) == schedule_cumulative(k, budget, f)


def test_schedule_validation():
    with pytest.raises(ValueError):
        build_schedule(1, 100)
    with pytest.raises(ValueError):
        build_schedule(3, -1)
    with pytest.raises(ValueError):
        build_schedule(3, 100, 1.0)
    with pytest.raises(ValueError, match="num_arms must be an integer, got 2.5"):
        build_schedule(2.5, 100)
    with pytest.raises(ValueError, match="budget must be an integer, got 100.5"):
        build_schedule(3, 100.5)


def test_schedule_cache_echoes_each_callers_fraction():
    """``build_schedule`` is memoised. 0, 0.0 and Fraction(0) are equal keys
    with equal hashes, as are 0.2 and np.float64(0.2), so the cache must keep
    them apart: each caller gets a spec equal to a fresh computation that
    echoes its own value and type, called before or after the others."""
    fractions = (0, 0.0, Fraction(0), 0.2, np.float64(0.2), Fraction(1, 5), 0.5, Fraction(1, 2))
    grid = [(k, budget, f) for k in (2, 3, 10) for budget in (0, 7, 1001, 90_000) for f in fractions]
    for args in grid + grid[::-1]:
        fresh = build_schedule.__wrapped__(*args)
        spec = build_schedule(*args)
        assert spec == fresh
        assert spec is build_schedule(*args)
        assert spec.feasibility_fraction == args[2]
        assert type(spec.feasibility_fraction) is type(args[2])


# ---------------------------------------------------------------------------
# Uniform phase
# ---------------------------------------------------------------------------


def _fresh_stats(instance):
    return StatsState.for_instance(instance)


def test_uniform_exact_division():
    instance = _instance([[0.5] * 5], tau=0.4)
    stats = _fresh_stats(instance)
    pulls = uniform_phase(instance, stats, 1, 10, RngStream(0))
    assert pulls == 10
    assert stats.pull_counts[0].tolist() == [2, 2, 2, 2, 2]


def test_uniform_discards_remainder():
    instance = _instance([[0.5] * 5], tau=0.4)
    stats = _fresh_stats(instance)
    pulls = uniform_phase(instance, stats, 1, 11, RngStream(0))
    assert pulls == 10
    assert stats.pull_counts[0].tolist() == [2, 2, 2, 2, 2]


def test_uniform_floors_to_zero():
    instance = _instance([[0.5] * 5], tau=0.4)
    stats = _fresh_stats(instance)
    assert uniform_phase(instance, stats, 1, 3, RngStream(0)) == 0
    assert stats.total_pulls() == 0


def test_uniform_leaves_other_arms_alone():
    instance = _instance([[0.5, 0.5], [0.7, 0.7]], tau=0.4)
    stats = _fresh_stats(instance)
    uniform_phase(instance, stats, 2, 8, RngStream(1))
    assert stats.pull_counts[0].tolist() == [0, 0]
    assert stats.pull_counts[1].tolist() == [4, 4]


# ---------------------------------------------------------------------------
# Adaptive thresholding phase
# ---------------------------------------------------------------------------


def test_apt_pulls_smallest_index_score():
    # counts [4, 1], means [0.6, 0.55], tau 0.5 -> scores [0.2, 0.05]:
    # attribute 2 is pulled first.
    instance = BanditInstance(
        arms=((Bernoulli(1.0), Bernoulli(1.0)),), threshold=0.5
    )
    stats = _fresh_stats(instance)
    stats.reward_sums[0] = [2.4, 0.55]
    stats.pull_counts[0] = [4, 1]
    stats.empirical_means[0] = [0.6, 0.55]
    apt_phase(instance, stats, 1, 1, 0.5, RngStream(0))
    assert stats.pull_counts[0].tolist() == [4, 2]


def test_apt_zero_budget_is_noop():
    instance = _instance([[0.5, 0.7]], tau=0.5)
    stats = _fresh_stats(instance)
    before = stats.copy()
    assert apt_phase(instance, stats, 1, 0, 0.5, RngStream(0)) == 0
    assert np.array_equal(stats.pull_counts, before.pull_counts)


def test_apt_fresh_arm_breaks_ties_low():
    # All counts zero means every score is 0; the lowest index wins.
    instance = BanditInstance(
        arms=((Bernoulli(1.0), Bernoulli(1.0), Bernoulli(1.0)),), threshold=0.5
    )
    stats = _fresh_stats(instance)
    apt_phase(instance, stats, 1, 1, 0.5, RngStream(0))
    assert stats.pull_counts[0].tolist() == [1, 0, 0]


# ---------------------------------------------------------------------------
# Sample-until-feasible phase
# ---------------------------------------------------------------------------


def test_suf_stops_once_above_threshold():
    instance = BanditInstance(arms=((Bernoulli(1.0),),), threshold=0.5)
    stats = _fresh_stats(instance)
    stats.reward_sums[0, 0] = 0.4
    stats.pull_counts[0, 0] = 1
    stats.empirical_means[0, 0] = 0.4
    remaining = sample_until_feasible(instance, stats, 1, 5, 0.5, RngStream(0))
    assert remaining == 4
    assert stats.pull_counts[0, 0] == 2
    assert stats.empirical_means[0, 0] == pytest.approx(0.7)


def test_suf_noop_when_all_feasible():
    instance = BanditInstance(arms=((Bernoulli(1.0), Bernoulli(1.0)),), threshold=0.5)
    stats = _fresh_stats(instance)
    stats.reward_sums[0] = [0.9, 0.8]
    stats.pull_counts[0] = [1, 1]
    stats.empirical_means[0] = [0.9, 0.8]
    assert sample_until_feasible(instance, stats, 1, 7, 0.5, RngStream(0)) == 7
    assert stats.total_pulls() == 2


def test_suf_exhausts_budget_on_hopeless_attribute():
    instance = BanditInstance(arms=((Bernoulli(0.0),),), threshold=0.5)
    stats = _fresh_stats(instance)
    remaining = sample_until_feasible(instance, stats, 1, 7, 0.5, RngStream(0))
    assert remaining == 0
    assert stats.pull_counts[0, 0] == 7
    assert stats.empirical_means[0, 0] == 0.0


def test_suf_postcondition_randomized():
    rng = np.random.default_rng(37)
    for _ in range(300):
        m = int(rng.integers(1, 5))
        means = rng.uniform(0, 1, size=(1, m))
        tau = float(rng.uniform(0.1, 0.9))
        instance = _instance(means, tau, variance=0.2)
        stats = _fresh_stats(instance)
        budget = int(rng.integers(0, 60))
        remaining = sample_until_feasible(
            instance, stats, 1, budget, tau, RngStream(int(rng.integers(1 << 30)))
        )
        assert 0 <= remaining <= budget
        if remaining > 0:
            assert stats.min_empirical_mean(1) > tau


# ---------------------------------------------------------------------------
# Full runs
# ---------------------------------------------------------------------------


def test_fcsr_separates_deterministic_arms():
    for seed in range(30):
        trace = run_fcsr(SEPARATING, 100, RngStream(seed))
        assert trace.decision == 1
        assert trace.elimination_order == (2,)


def test_fcsr_flags_infeasible_instances():
    # Every attribute mean at least 0.2 below the threshold: the survivor
    # should look infeasible almost always.
    instance = _instance(
        [[0.25, 0.3], [0.2, 0.28], [0.1, 0.3]], tau=0.5, variance=0.3
    )
    zeros = sum(
        run_fcsr(instance, 100_000, RngStream(5, t)).decision == 0
        for t in range(60)
    )
    assert zeros >= 57  # >= 95%


def test_fcsr_eliminates_all_but_one():
    instance = _instance(np.linspace(0.2, 0.8, 12).reshape(4, 3), tau=0.1)
    trace = run_fcsr(instance, 5000, RngStream(11))
    assert len(trace.elimination_order) == 3
    survivor = (set(range(1, 5)) - set(trace.elimination_order)).pop()
    assert trace.decision in (0, survivor)
    assert len(trace.per_round_scores) == 3


def test_fcsr_identical_seeds_identical_traces():
    instance = _instance([[0.6, 0.4], [0.55, 0.52], [0.3, 0.9]], tau=0.45)
    a = run_fcsr(instance, 4000, RngStream(9, 3))
    b = run_fcsr(instance, 4000, RngStream(9, 3))
    c = run_fcsr(instance, 4000, RngStream(9, 4))
    assert a == b
    assert a != c


def test_fcsr_with_threshold_below_support_never_uses_feasibility_pass():
    # Bounded rewards in [0, 1] with tau = -0.5: no empirical mean can sit at
    # or below the threshold, so the feasibility pass never fires and the
    # final gate always passes.
    instance = BanditInstance(
        arms=tuple(
            (Bernoulli(p), Bernoulli(p / 2)) for p in (0.9, 0.6, 0.3)
        ),
        threshold=-0.5,
    )
    for seed in range(10):
        trace = run_fcsr(instance, 3000, RngStream(seed))
        assert trace.pulls_by_phase["suf"] == 0
        assert trace.decision != 0


def test_fcsr_budget_zero():
    trace = run_fcsr(SEPARATING, 0, RngStream(0))
    assert trace.decision == 0
    assert trace.pulls_total == 0


def test_fcsr_requires_two_arms():
    single = BanditInstance(arms=((Bernoulli(0.9),),), threshold=0.5)
    with pytest.raises(ValueError):
        run_fcsr(single, 100, RngStream(0))


def test_fcsr_config_validation():
    # Each fraction lies in [0, 1) and is a real number; 0 is legal.
    for bad in (1.0, -0.1, math.nan, "0.2", True):
        with pytest.raises(ValueError, match="feasibility_fraction"):
            run_fcsr(SEPARATING, 100, RngStream(0), feasibility_fraction=bad)
        with pytest.raises(ValueError, match="apt_fraction"):
            run_fcsr(SEPARATING, 100, RngStream(0), apt_fraction=bad)
    with pytest.raises(ValueError, match="budget"):
        run_fcsr(SEPARATING, -1, RngStream(0))


@pytest.mark.parametrize("name", ALGORITHM_IDS)
def test_every_algorithm_rejects_bad_threshold_and_budget(name):
    # The threshold is the instance's: no run reads it as a keyword.
    with pytest.raises(ValueError, match=rf"'{name}' does not read \['threshold'\]"):
        run_algorithm(name, SEPARATING, 100, RngStream(0), threshold=0.5)
    with pytest.raises(ValueError, match="budget must be non-negative"):
        run_algorithm(name, SEPARATING, -1, RngStream(0))
    # A budget is an integer: not a float, even a whole one, and not a bool.
    for budget in (1000.5, 2000.0, math.nan, math.inf, True):
        with pytest.raises(ValueError, match=rf"budget must be an integer, got {budget!r}"):
            run_algorithm(name, SEPARATING, budget, RngStream(0))


def test_algorithm_params_are_read_from_the_runs_that_declare_them():
    assert ALGORITHM_PARAMS == {
        "fcsr": ("feasibility_fraction", "apt_fraction"),
        "us": (),
        "sr": (),
        "etc": ("explore_fraction",),
    }


@pytest.mark.parametrize("name", ALGORITHM_IDS)
def test_no_algorithm_takes_the_batched_runs_log(name):
    with pytest.raises(ValueError, match=rf"'{name}' does not read \['log'\]"):
        run_algorithm(name, SEPARATING, 100, RngStream(0), log=[])


def _trace_hex(trace):
    scores = [[(i, s.hex()) for i, s in r] for r in trace.per_round_scores]
    return (trace.decision, trace.pulls_total, trace.pulls_by_phase,
            trace.elimination_order, scores)


@pytest.mark.parametrize("name, defaults", [
    ("etc", {"explore_fraction": 0.5}),
    ("fcsr", {"feasibility_fraction": 0.2, "apt_fraction": 0.3}),
])
def test_run_defaults_are_stated_once(name, defaults):
    # Leaving a keyword out runs its declared default, on the same draws.
    instance = _instance([[0.7, 0.6], [0.5, 0.4], [0.65, 0.55]], tau=0.5)
    for seed in range(3):
        implicit = run_algorithm(name, instance, 900, RngStream(seed))
        explicit = run_algorithm(name, instance, 900, RngStream(seed), **defaults)
        assert _trace_hex(implicit) == _trace_hex(explicit)


def test_uniform_baseline_examples():
    assert run_algorithm("us", SEPARATING, 100, RngStream(3)).decision == 1
    # Budget below one pull per attribute: zero data, nothing looks feasible.
    trace = run_algorithm("us", SEPARATING, 1, RngStream(3))
    assert trace.pulls_total == 0
    assert trace.decision == 0


def test_uniform_baseline_no_feasible_arm_returns_flag():
    instance = BanditInstance(
        arms=((Bernoulli(0.0),), (Bernoulli(0.0),)), threshold=0.5
    )
    assert run_algorithm("us", instance, 50, RngStream(1)).decision == 0


def test_sr_baseline_examples():
    assert run_algorithm("sr", SEPARATING, 100, RngStream(3)).decision == 1
    with pytest.raises(ValueError):
        run_algorithm(
            "sr",
            BanditInstance(arms=((Bernoulli(0.5),),), threshold=0.1), 10, RngStream(0)
        )


def test_sr_budget_guard_exact():
    # K=2, M=1, odd budget: the ceiling schedule wants one pull too many and
    # the guard must clamp the total at exactly the budget.
    instance = BanditInstance(
        arms=((Bernoulli(0.9),), (Bernoulli(0.1),)), threshold=0.5
    )
    trace = run_algorithm("sr", instance, 101, RngStream(2))
    assert trace.pulls_total == 101


def test_etc_baseline_examples():
    assert run_algorithm("etc", SEPARATING, 100, RngStream(3)).decision == 1
    with pytest.raises(ValueError):
        run_algorithm("etc", SEPARATING, 100, RngStream(3), explore_fraction=1.0)


def test_etc_candidate_set_degenerates_to_all_arms():
    # K <= M keeps every arm, so the second stage scores all of them.
    instance = _instance([[0.7, 0.6, 0.8], [0.5, 0.4, 0.9]], tau=0.2)
    trace = run_algorithm("etc", instance, 600, RngStream(8))
    assert len(trace.per_round_scores[1]) == 2


def test_exact_ties_drop_and_pick_the_lowest_arm():
    # Zero-variance draws at the dyadic mean 0.75 make every empirical mean
    # exactly 0.75, so every score ties: each round drops the lowest live
    # arm, the survivor is arm 4, and the one-shot rules pick arm 1.
    instance = BanditInstance(
        arms=tuple((Gaussian(0.75, 0.0),) * 2 for _ in range(4)), threshold=0.5
    )
    for budget in (100, 1001):
        traces = {name: run_algorithm(name, instance, budget, RngStream(3)) for name in ALGORITHM_IDS}
        for name in ("fcsr", "sr"):
            assert traces[name].elimination_order == (1, 2, 3)
            assert traces[name].decision == 4
        for name in ("us", "etc"):
            assert traces[name].decision == 1
        for trace in traces.values():
            assert trace.per_round_scores
            assert all(s == 0.75 for scores in trace.per_round_scores for _, s in scores)


def test_run_algorithm_dispatch():
    for name in ("fcsr", "us", "sr", "etc"):
        trace = run_algorithm(name, SEPARATING, 120, RngStream(4))
        assert trace.decision == 1
    with pytest.raises(ValueError):
        run_algorithm("nope", SEPARATING, 120, RngStream(4))
    # A keyword the algorithm does not read is an error, not ignored.
    with pytest.raises(ValueError, match="'us' does not read \\['feasibility_fraction'\\]"):
        run_algorithm("us", SEPARATING, 120, RngStream(4), feasibility_fraction=5.0)


def test_budget_compliance_randomized_small():
    rng = np.random.default_rng(53)
    names = ("fcsr", "us", "sr", "etc")
    # Run keywords from their own stream, so the instances stay as they were.
    pick, fractions = np.random.default_rng(54), (0, 0.2, 0.5, 0.9)
    for i in range(400):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 4))
        means = rng.uniform(0, 1, size=(k, m))
        tau = float(rng.uniform(0.2, 0.8))
        instance = _instance(means, tau, variance=0.2)
        budget = int(rng.integers(0, 400))
        name = names[i % 4]
        params = {key: fractions[pick.integers(4)] for key in ALGORITHM_PARAMS[name]}
        trace = run_algorithm(
            name, instance, budget, RngStream(int(rng.integers(1 << 30))), **params
        )
        assert trace.pulls_total <= budget
        assert trace.pulls_total == sum(trace.pulls_by_phase.values())
