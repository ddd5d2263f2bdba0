"""Environment-layer tests: distributions, statistics, scores, oracle, and
the public names of every module."""

import importlib
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsr.algorithms import (
    ALGORITHM_IDS,
    _decisions,
    apt_phase,
    build_schedule,
    run_algorithm,
    sample_until_feasible,
    uniform_phase,
)
from fcsr.core import (
    BanditInstance,
    Bernoulli,
    Empirical,
    Gaussian,
    RngStream,
    StatsState,
    _gated_scores,
    _State,
    _stream_generators,
    oracle,
)
from fcsr.hardness import (
    compute_hardness,
    generate_feasibility_class,
    generate_risky_class,
    predict_exponents,
)
from fcsr.harness import (
    SweepConfig,
    build_synthetic,
    run_sweep,
    trial_stream_id,
    weighted_log_error_slope,
)
from fcsr.movielens import (
    Movie,
    PortfolioSpec,
    RatingsCorpus,
    auto_select_portfolios,
    table1_surrogate_instance,
)


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Gaussian(0.5, -0.1)
    with pytest.raises(ValueError):
        Bernoulli(1.2)
    with pytest.raises(ValueError):
        Bernoulli(-0.01)
    with pytest.raises(ValueError):
        Empirical(())
    with pytest.raises(ValueError):
        Empirical((0.2, 1.4))
    # Non-finite input is rejected with an error naming the field.
    for bad_mean in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="Gaussian mean"):
            Gaussian(bad_mean, 0.3)
    for bad_variance in (math.nan, math.inf):
        with pytest.raises(ValueError, match="Gaussian variance"):
            Gaussian(0.5, bad_variance)
    for bad_values in ((math.nan, 0.5), (0.5, math.nan), (0.5, math.inf)):
        with pytest.raises(ValueError, match="Empirical values"):
            Empirical(bad_values)
    for bad_threshold in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="threshold"):
            BanditInstance(arms=((Bernoulli(0.5),),), threshold=bad_threshold)


@pytest.mark.parametrize(
    "values, message",
    [
        ((True, 0.5), "each item of values must be a number, got True"),
        (("0.5",), "each item of values must be a number, got '0.5'"),
        ((0.5, None), "each item of values must be a number, got None"),
        (5, "Empirical values must be a non-empty sequence of numbers, got 5"),
        ("0.5", "Empirical values must be a non-empty sequence of numbers, got '0.5'"),
        ((), "Empirical values must be a non-empty sequence of numbers, got ()"),
        ((0.5, 10**400), "Empirical values must be finite and lie in [0, 1]"),
        ((Fraction(10**400),), "Empirical values must be finite and lie in [0, 1]"),
    ],
    ids=["bool", "string-item", "none", "number", "string", "empty", "huge-int", "huge-fraction"],
)
def test_empirical_takes_a_non_empty_sequence_of_real_numbers_only(values, message):
    # A bool or a string item was kept (True as 1.0, "0.5" as 0.5), and a
    # number failed with a TypeError.
    with pytest.raises(ValueError) as err:
        Empirical(values)
    assert str(err.value) == message


def test_empirical_keeps_its_values_as_a_tuple_of_floats():
    for values in ([0.25, 1], np.array([0.25, 1.0]), (Fraction(1, 4), np.float32(1))):
        assert Empirical(values).values == (0.25, 1.0)
        assert all(type(v) is float for v in Empirical(values).values)


# Each real input: how to feed it a value, the field its error names, and a
# value just outside its domain.
_REAL_INPUTS = {
    "gaussian-mean": (lambda v: Gaussian(v, 0.3), "Gaussian mean", math.inf),
    "gaussian-variance": (lambda v: Gaussian(0.5, v), "Gaussian variance", math.nextafter(0.0, -1.0)),
    "bernoulli-p": (Bernoulli, "Bernoulli p", math.nextafter(1.0, 2.0)),
    "instance-threshold": (
        lambda v: BanditInstance(arms=((Bernoulli(0.5),),), threshold=v), "threshold", -math.inf,
    ),
    "portfolio-threshold": (
        lambda v: PortfolioSpec(genres=("Drama",), arms=({"Drama": 1},), threshold=v), "threshold", math.inf,
    ),
    "synthetic-gap": (lambda v: build_synthetic("risky", gap=v), "gap", 0.1),
    "sub-gaussian-r": (
        lambda v: predict_exponents(compute_hardness(build_synthetic("risky")), 10, sub_gaussian_r=v),
        "sub-Gaussian parameter R", 0.0,
    ),
    "feasibility-class-d": (lambda v: generate_feasibility_class(v, 3), "gap d", math.nextafter(0.25, 1.0)),
    "risky-class-beta": (lambda v: generate_risky_class(v, 3, 2), "beta", 1.0),
    **{
        f"{name}-{key}": (
            lambda v, name=name, key=key: run_algorithm(
                name, build_synthetic("risky"), 100, RngStream(1), **{key: v}
            ),
            key, 1.0,
        )
        for name, key in (
            ("fcsr", "feasibility_fraction"), ("fcsr", "apt_fraction"), ("etc", "explore_fraction"),
        )
    },
}


@pytest.mark.parametrize("kind", ["bool", "str", "nan", "outside", "huge-int", "huge-fraction"])
@pytest.mark.parametrize("input_name", list(_REAL_INPUTS))
def test_every_real_input_rejects_a_bool_a_string_a_nan_and_a_value_outside_its_domain(
    input_name, kind
):
    # A bool was kept as 1.0 or 0.0, and a string failed with a TypeError
    # that named no field.
    build, field_name, outside = _REAL_INPUTS[input_name]
    value = {
        "bool": True, "str": "0.5", "nan": math.nan, "outside": outside,
        "huge-int": 10**400, "huge-fraction": Fraction(10**400),  # too large for a float
    }[kind]
    with pytest.raises(ValueError) as err:
        build(value)
    assert f"{field_name} must be a real number in " in str(err.value)
    assert str(err.value).endswith(f", got {value!r}")


def test_real_inputs_accept_the_closed_ends_of_their_domains_and_store_floats():
    assert Gaussian(0.5, 0).variance == 0.0
    assert (Bernoulli(0).p, Bernoulli(1).p) == (0.0, 1.0)
    assert len(generate_feasibility_class(0.25, 3)) == 4
    risky = build_synthetic("risky")
    fcsr = run_algorithm("fcsr", risky, 100, RngStream(1), feasibility_fraction=0, apt_fraction=0)
    assert (fcsr.pulls_by_phase["suf"], fcsr.pulls_by_phase["apt"]) == (0, 0)
    assert run_algorithm("etc", risky, 100, RngStream(1), explore_fraction=0).pulls_by_phase["explore"] == 0
    gaussian = Gaussian(np.int64(1), Fraction(1, 4))
    instance = BanditInstance(arms=((gaussian,),), threshold=np.float32(0.5))
    assert [type(x) for x in (gaussian.mean, gaussian.variance, instance.threshold)] == [float] * 3


def test_degenerate_bernoulli_always_one():
    gen = RngStream(seed=1).generator()
    assert (Bernoulli(1.0).draw_many(25, gen) == 1.0).all()
    gen = RngStream(seed=1).generator()
    assert (Bernoulli(0.0).draw_many(25, gen) == 0.0).all()


def test_zero_variance_gaussian_is_constant():
    gen = RngStream(seed=2).generator()
    assert (Gaussian(0.7, 0.0).draw_many(25, gen) == 0.7).all()


def test_empirical_law_of_large_numbers():
    # Exact moments of the three-point support, computed independently here.
    support = (0.2, 0.4, 0.6)
    mean = sum(support) / 3
    variance = sum(v * v for v in support) / 3 - mean**2
    assert variance == pytest.approx(0.02666666666666667, rel=1e-12)

    n = 10**6
    draws = Empirical(support).draw_many(n, RngStream(seed=3).generator())
    tolerance = 3 * math.sqrt(variance / n)
    assert abs(draws.mean() - mean) < tolerance


def test_true_means():
    assert Gaussian(0.7, 0.3).true_mean() == 0.7
    assert Bernoulli(0.25).true_mean() == 0.25
    assert Empirical((0.2, 0.4, 0.6)).true_mean() == pytest.approx(0.4, rel=1e-12)


@pytest.mark.parametrize(
    "dist",
    [Gaussian(0.6, 0.25), Bernoulli(0.35), Empirical((0.1, 0.5, 0.8, 1.0))],
)
def test_draw_sum_matches_batched_mean(dist):
    # The one-shot sum draw must be distributed as the sum of n single draws:
    # check the first two moments against the exact values.
    gen = np.random.default_rng(11)
    n, reps = 40, 4000
    sums = np.array([dist.draw_sum(n, gen) for _ in range(reps)])
    mu = dist.true_mean()
    if isinstance(dist, Gaussian):
        var = dist.variance
    elif isinstance(dist, Bernoulli):
        var = dist.p * (1 - dist.p)
    else:
        arr = np.asarray(dist.values)
        var = float(arr.var())
    assert sums.mean() == pytest.approx(n * mu, abs=4 * math.sqrt(n * var / reps))
    assert sums.var() == pytest.approx(n * var, rel=0.15)


def test_draw_sum_degenerate_cases():
    gen = np.random.default_rng(0)
    assert Gaussian(0.7, 0.0).draw_sum(10, gen) == pytest.approx(7.0, rel=1e-12)
    assert Bernoulli(1.0).draw_sum(13, gen) == 13.0
    assert Empirical((0.5,)).draw_sum(8, gen) == pytest.approx(4.0, rel=1e-12)
    state = gen.bit_generator.state
    for dist in (Gaussian(0.7, 0.3), Bernoulli(0.5), Empirical((0.2, 0.9))):
        assert dist.draw_sum(0, gen) == 0.0
    assert gen.bit_generator.state == state  # no draw for no pulls


def test_normal_is_loc_plus_scale_times_standard_normal():
    """A Gaussian batch (``algorithms._Batch``) draws a trial's block sums
    as ``loc + scale * z`` from its standard normals z, where ``draw_sum``
    calls ``normal(loc, scale)`` once per cell. That holds only while numpy
    computes ``normal`` as ``loc + scale * z`` for the next standard normal
    z; a numpy that stops doing so fails here, bit for bit and generator
    state included, for scalar and array calls and for variance 0."""
    for seed in range(20):
        rng = np.random.default_rng([seed, 1])
        takes = rng.integers(1, 5000, size=7)
        means = rng.uniform(-1.0, 2.0, size=7)
        variances = rng.uniform(0.0, 0.5, size=7)
        variances[seed % 7] = 0.0
        loc = takes * means
        scale = np.sqrt(takes * variances)
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert a.normal(loc, scale).tobytes() == (loc + scale * b.standard_normal(7)).tobytes()
        for n, mu, var in zip(takes.tolist(), means.tolist(), variances.tolist()):
            scalar = Gaussian(mu, var).draw_sum(n, a)
            assert scalar.hex() == float(n * mu + math.sqrt(n * var) * b.standard_normal()).hex()
        assert a.bit_generator.state == b.bit_generator.state


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


def test_rng_stream_reproducible():
    first = RngStream(42, 7).generator().normal(size=10)
    again = RngStream(42, 7).generator().normal(size=10)
    other = RngStream(42, 8).generator().normal(size=10)
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def _assert_same_stream(gen, seed, stream_id):
    """``gen`` is at the start of stream (seed, stream_id): the state and the
    first 8 draws of ``RngStream.generator()`` and of numpy's own seeding."""
    entropy = (seed % 2**64, stream_id % 2**64)
    numpy_gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    reference = RngStream(seed, stream_id).generator()
    assert gen.bit_generator.state == reference.bit_generator.state == numpy_gen.bit_generator.state
    draws = gen.random(8)
    assert np.array_equal(draws, reference.random(8))
    assert np.array_equal(draws, numpy_gen.random(8))


_BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) - 3, 2**64, 2**64 + 2**32 + 5]
_BOUNDARY_IDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("seed", _BOUNDARY_SEEDS)
def test_batch_seeding_equals_numpy_at_the_word_boundaries(seed):
    ids = _BOUNDARY_IDS + [-1, 2**64, 2**64 + 7, 2**32 + 1, 2**63]
    for gen, stream_id in zip(_stream_generators(seed, ids), ids, strict=True):
        _assert_same_stream(gen, seed, stream_id)


@pytest.mark.parametrize("size", [1, 7, 20, 256])
def test_batch_seeding_equals_numpy_at_each_batch_size(size):
    ids = [trial_stream_id("us", 10000, t) for t in range(size)]
    for seed in (0, 11, 2**64 - 1):
        for gen, stream_id in zip(_stream_generators(seed, ids), ids, strict=True):
            _assert_same_stream(gen, seed, stream_id)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(st.integers(-(2**70), 2**70), st.sampled_from(_BOUNDARY_SEEDS)),
    ids=st.lists(
        st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.sampled_from(_BOUNDARY_IDS)),
        min_size=1, max_size=12,
    ),
)
def test_batch_seeding_equals_numpy(seed, ids):
    for gen, stream_id in zip(_stream_generators(seed, ids), ids, strict=True):
        _assert_same_stream(gen, seed, stream_id)


def test_batch_seeding_of_no_streams():
    assert _stream_generators(5, []) == []


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (3, np.uint64)])
def test_precomputed_state_serves_only_four_uint64_words(n_words, dtype):
    # A numpy that seeded PCG64 from another request would get wrong words.
    words = np.arange(4, dtype=np.uint64)
    with pytest.raises(ValueError, match="4 uint64 words"):
        _State(words).generate_state(n_words, dtype)
    assert _State(words).generate_state(4, np.uint64) is words


def _small_empirical_instance():
    """3 arms of 2 Empirical attributes; arm a's values are those of arm 0
    raised by 0.05 a."""
    ratings = [(0.2, 0.9, 0.7), (0.4, 0.8)]
    rows = tuple(
        tuple(Empirical(tuple(min(1.0, v + 0.05 * arm) for v in values)) for values in ratings)
        for arm in range(3)
    )
    return BanditInstance(arms=rows, threshold=0.5)


@pytest.mark.parametrize("algorithm", ALGORITHM_IDS)
@pytest.mark.parametrize("which", ["combined", "empirical"])
def test_decisions_over_batch_seeding_equal_the_per_trial_streams(algorithm, which):
    if which == "combined":
        instance, budget = build_synthetic("combined"), 400
    else:
        instance, budget = _small_empirical_instance(), 60
    ids = [trial_stream_id(algorithm, budget, t) for t in range(20)]
    streams = [RngStream(17, i) for i in ids]
    expected = _decisions(algorithm, instance, budget, streams)
    assert len(set(expected.tolist())) > 1  # the decisions depend on the draws
    assert np.array_equal(_decisions(algorithm, instance, budget, _stream_generators(17, ids)), expected)


# ---------------------------------------------------------------------------
# Statistics under the phase functions
# ---------------------------------------------------------------------------


def _phase_calls(instance, stats, arm, budget, gen):
    """One call of each phase function on ``arm``; each returns its pulls."""
    tau = instance.threshold
    return [
        lambda: uniform_phase(instance, stats, arm, budget, gen),
        lambda: apt_phase(instance, stats, arm, budget, tau, gen),
        lambda: budget - sample_until_feasible(instance, stats, arm, budget, tau, gen),
    ]


def test_update_index_errors():
    # Arms are numbered 1..K; every phase function rejects 0 and K + 1.
    instance = build_synthetic("risky", num_arms=3, num_attributes=2)
    stats = StatsState.for_instance(instance)
    gen = np.random.default_rng(0)
    for arm in (0, instance.num_arms + 1):
        for call in _phase_calls(instance, stats, arm, 10, gen):
            with pytest.raises(IndexError, match=f"arm {arm} out of range"):
                call()
    assert stats.total_pulls() == 0


def test_phase_functions_take_integer_budgets_only():
    # A budget is an integer >= 0: a float, even a whole one, or a bool is not.
    instance = build_synthetic("risky", num_arms=3, num_attributes=2)
    stats = StatsState.for_instance(instance)
    for budget in (-1, 2.5, 4.0, True):
        for call in _phase_calls(instance, stats, 1, budget, np.random.default_rng(0)):
            with pytest.raises(ValueError, match="budget must be"):
                call()
    assert stats.total_pulls() == 0


@pytest.mark.parametrize("phase", range(3), ids=["uniform", "apt", "suf"])
@pytest.mark.parametrize("shape, arm", [((2, 1), 1), ((2, 3), 1), ((3, 2), 3)])
def test_phase_functions_reject_stats_of_another_shape(phase, shape, arm):
    # Too few attributes would put every pull on the first, too many would
    # index past the instance, and a third arm row would pass the arm check.
    instance = build_synthetic("risky", num_arms=2, num_attributes=2)
    stats = StatsState.zeros(*shape)
    call = _phase_calls(instance, stats, arm, 10, np.random.default_rng(0))[phase]
    with pytest.raises(ValueError, match=rf"shapes \[{re.escape(str(shape))}.*\(K, M\) = \(2, 2\)"):
        call()
    assert stats.total_pulls() == 0


def test_stats_invariants_after_random_updates():
    # Arm 4 is never pulled, so its means must read 0.
    instance = build_synthetic("risky", num_arms=4, num_attributes=3)
    stats = StatsState.for_instance(instance)
    rng = np.random.default_rng(17)
    gen = np.random.default_rng(18)
    pulls = 0
    for _ in range(90):
        arm, budget = int(rng.integers(1, 4)), int(rng.integers(0, 200))
        pulls += _phase_calls(instance, stats, arm, budget, gen)[int(rng.integers(3))]()
    assert stats.total_pulls() == pulls > 0
    assert (stats.pull_counts[3] == 0).all() and (stats.pull_counts[:3] > 0).all()
    expected = stats.reward_sums / np.maximum(stats.pull_counts, 1)
    assert stats.empirical_means.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Elimination score
# ---------------------------------------------------------------------------


def _score(means, tau):
    """The gated score of one arm whose attribute means are ``means``: one
    column of ``_gated_scores``."""
    (value,) = _gated_scores(np.array(means, dtype=float)[:, None], tau)
    return float(value)


def test_score_feasible_returns_mean():
    assert _score([0.8, 0.6], 0.5) == pytest.approx(0.7)


def test_score_infeasible_returns_min():
    assert _score([0.8, 0.4], 0.5) == 0.4


def test_score_boundary_is_infeasible():
    # A minimum exactly at the threshold fails the strict comparison.
    assert _score([0.5, 0.9], 0.5) == 0.5


def test_score_of_row_above_threshold_stays_above_it():
    # Every entry exceeds 0.1, yet sum / len rounds to exactly 0.1. Scored as
    # 0.1 the row would tie with an infeasible row whose minimum is 0.1, and
    # the lowest-index tie-break could pick the infeasible one.
    row = [
        0.10000000000000006, 0.10000000000000002, 0.10000000000000005,
        0.10000000000000006, 0.10000000000000002, 0.10000000000000003,
        0.10000000000000002,
    ]
    assert sum(row) / len(row) == 0.1
    feasible = _score(row, 0.1)
    assert feasible == min(row) > 0.1
    assert feasible > _score([0.1] + row[1:], 0.1)


def test_score_permutation_behaviour():
    rng = np.random.default_rng(23)
    for _ in range(100):
        means = rng.uniform(0.0, 1.0, size=5)
        tau = float(rng.uniform(0.0, 1.0))
        base = _score(means, tau)
        perm = rng.permutation(means)
        permuted = _score(perm, tau)
        if means.min() > tau:
            assert permuted == pytest.approx(base, rel=1e-12)
        else:
            assert permuted == means.min() == base


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


def test_oracle_reference_portfolio():
    # 3 portfolios, 5 genres, threshold 0.73: only the first clears it.
    instance = table1_surrogate_instance()
    truth = oracle(instance)
    assert truth.feasible_arms == (1,)
    assert truth.best_arm == 1
    assert instance.label_of(truth.best_arm) == "0"


def test_oracle_empty_feasible_set_flags_zero():
    instance = BanditInstance(
        arms=(
            (Gaussian(0.4, 0.1), Gaussian(0.9, 0.1)),
            (Gaussian(0.45, 0.1), Gaussian(0.2, 0.1)),
        ),
        threshold=0.5,
    )
    truth = oracle(instance)
    assert truth.feasible_arms == ()
    assert truth.best_arm == 0
    assert truth.tied_best == ()


def test_oracle_risky_benchmark():
    truth = oracle(build_synthetic("risky"))
    assert truth.feasible_arms == (10,)
    assert truth.best_arm == 10


def test_oracle_attribute_order_invariant():
    rng = np.random.default_rng(31)
    for _ in range(50):
        k, m = int(rng.integers(2, 6)), int(rng.integers(2, 5))
        means = rng.uniform(0, 1, size=(k, m))
        tau = float(rng.uniform(0.2, 0.8))
        rows = tuple(tuple(Gaussian(x, 0.1) for x in row) for row in means)
        base = oracle(BanditInstance(rows, tau))
        shuffled_rows = tuple(
            tuple(row[j] for j in rng.permutation(m)) for row in rows
        )
        shuffled = oracle(BanditInstance(shuffled_rows, tau))
        assert shuffled.feasible_arms == base.feasible_arms
        assert shuffled.best_arm == base.best_arm


def test_oracle_reports_ties():
    instance = BanditInstance(
        arms=((Bernoulli(0.8),), (Bernoulli(0.8),), (Bernoulli(0.3),)),
        threshold=0.1,
    )
    truth = oracle(instance)
    assert truth.best_arm == 1
    assert truth.tied_best == (1, 2)
    # Equality compares every field, the arm means array included.
    assert truth == oracle(BanditInstance(instance.arms, 0.1))
    assert truth != oracle(BanditInstance(instance.arms, 0.5))
    assert truth != oracle(BanditInstance(instance.arms[:2] + ((Bernoulli(0.4),),), 0.1))
    assert truth != (truth.feasible_arms, truth.best_arm) and truth != "oracle"


def test_instance_validation():
    with pytest.raises(ValueError):
        BanditInstance(arms=(), threshold=0.5)
    with pytest.raises(ValueError):
        BanditInstance(arms=((Bernoulli(0.5),), ()), threshold=0.5)
    with pytest.raises(ValueError):
        BanditInstance(
            arms=((Bernoulli(0.5),), (Bernoulli(0.5), Bernoulli(0.5))), threshold=0.5
        )
    with pytest.raises(ValueError):
        BanditInstance(
            arms=((Bernoulli(0.5),),), threshold=0.5, arm_labels=("a", "b")
        )
    with pytest.raises(ValueError, match="at least one attribute"):
        BanditInstance(arms=((), ()), threshold=0.5)
    with pytest.raises(ValueError, match="attribute_labels length"):
        BanditInstance(arms=((Bernoulli(0.5),),), threshold=0.5, attribute_labels=("x", "y"))
    # Empirical values lie in [0, 1], both ends included.
    for bad in (-0.1, 1.0000001, -math.inf):
        with pytest.raises(ValueError, match="Empirical values"):
            Empirical((0.5, bad))
    edges = Empirical((0.0, -0.0, 1.0))
    assert [math.copysign(1.0, v) for v in edges.values] == [1.0, -1.0, 1.0]
    assert edges._array.tolist() == [0.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# Integer inputs
# ---------------------------------------------------------------------------


_SMALL = build_synthetic("risky", num_arms=3, num_attributes=2)
_SMALL_SWEEP = {"instance": _SMALL, "algorithms": ("us",), "budgets": (10,), "trials": 1, "base_seed": 0}
_ONE_MOVIE = RatingsCorpus(np.array([1]), np.array([4.0]), {1: Movie("A", ("Drama",))})


def _phase(k):
    """Phase function k of ``_phase_calls`` on fresh statistics, at budget v."""
    gen = np.random.default_rng(0)
    return lambda v: _phase_calls(_SMALL, StatsState.for_instance(_SMALL), 1, v, gen)[k]()


# Every integer input as (field name, least value or None, call): ``call(v)``
# passes v as that input, with every other argument valid.
_INTEGER_INPUTS = {
    "schedule-arms": ("num_arms", 2, lambda v: build_schedule(v, 100)),
    "schedule-budget": ("budget", 0, lambda v: build_schedule(3, v)),
    "uniform-budget": ("budget", 0, _phase(0)),
    "apt-budget": ("budget", 0, _phase(1)),
    "suf-budget": ("feasibility_budget", 0, _phase(2)),
    **{
        f"{algorithm}-budget": ("budget", 0, lambda v, a=algorithm: run_algorithm(a, _SMALL, v, RngStream(0)))
        for algorithm in ALGORITHM_IDS
    },
    "exponents-budget": ("budget", 0, lambda v: predict_exponents(compute_hardness(_SMALL), v)),
    "slope-trials": ("trials", 1, lambda v: weighted_log_error_slope([1000, 2000], [0.6, 0.8], v)),
    "sweep-workers": ("workers", 1, lambda v: run_sweep(SweepConfig(**_SMALL_SWEEP), v)),
    "sweep-budgets": ("each item of budgets", 0, lambda v: SweepConfig(**{**_SMALL_SWEEP, "budgets": (v,)})),
    "sweep-trials": ("trials", 1, lambda v: SweepConfig(**{**_SMALL_SWEEP, "trials": v})),
    "sweep-seed": ("base_seed", None, lambda v: SweepConfig(**{**_SMALL_SWEEP, "base_seed": v})),
    "synthetic-arms": ("num_arms", 2, lambda v: build_synthetic("risky", num_arms=v)),
    "synthetic-attributes": ("num_attributes", 2, lambda v: build_synthetic("risky", num_attributes=v)),
    "mean-attributes": ("num_attributes", 1, lambda v: build_synthetic("mean", num_attributes=v)),
    "feasibility-family-arms": ("num_arms", 2, lambda v: generate_feasibility_class(0.1, v)),
    "risky-family-arms": ("num_arms", 2, lambda v: generate_risky_class(0.5, v, 2)),
    "risky-family-attributes": ("num_attributes", 2, lambda v: generate_risky_class(0.5, 2, v)),
    "portfolio-arms": ("num_arms (--k)", 1, lambda v: auto_select_portfolios(_ONE_MOVIE, v, 1, 1)),
    "portfolio-attributes": ("num_attributes (--m)", 1, lambda v: auto_select_portfolios(_ONE_MOVIE, 1, v, 1)),
    "portfolio-min-ratings": ("min_ratings", 1, lambda v: PortfolioSpec(("Drama",), ({"Drama": 1},), 0.5, v)),
    "stream-seed": ("seed", None, lambda v: RngStream(v, 0)),
    "stream-id": ("stream_id", None, lambda v: RngStream(0, v)),
}


@pytest.mark.parametrize("name, least, call", _INTEGER_INPUTS.values(), ids=_INTEGER_INPUTS)
def test_every_integer_input_is_an_integer_at_least_its_least(name, least, call):
    # One rule: not a float (even a whole one), not a bool, not below the
    # least; each error names the field and the value. The least itself is taken.
    lowest = 0 if least is None else least
    bad = [(lowest + 1.0, f"{name} must be an integer, got {lowest + 1.0!r}"),
           (True, f"{name} must be an integer, got True")]
    if least is not None:
        bad.append((least - 1, f"{name} must be at least {least}, got {least - 1}"))
    for value, message in bad:
        with pytest.raises(ValueError) as err:
            call(value)
        assert str(err.value) == message
    call(lowest)
    call(np.int64(lowest))


def test_rng_stream_takes_any_integer_mod_2_to_the_64():
    stream = RngStream(np.int64(-1), np.uint64(7))
    assert (type(stream.seed), type(stream.stream_id)) == (int, int)
    assert np.array_equal(
        stream.generator().random(4), RngStream((1 << 64) - 1, (1 << 64) + 7).generator().random(4)
    )


# ---------------------------------------------------------------------------
# Public names
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "module",
    ["fcsr", "fcsr.algorithms", "fcsr.core", "fcsr.hardness", "fcsr.harness",
     "fcsr.movielens", "fcsr.serialize"],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
