"""The batched baselines against the one-trial-at-a-time oracle.

``scalar_kernel`` holds the baselines ``us``, ``sr`` and ``etc`` as they ran
one trial at a time, over ``ScalarRunState``, whose uniform pass makes one
``draw_sum`` call per (arm, attribute) cell. Every case here runs a batch of
trials on the engine and each trial on the oracle, from the same generator
state, and compares pulls, statistics or scores (as ``float.hex``), and the
generator state after. The generators count the calls made on them, so each
case also checks that a Gaussian trial makes one ``standard_normal`` call
per run (more only past the batch's bound on pre-drawn normals), a
Bernoulli trial one ``binomial`` call per uniform stage, and any other trial
one ``draw_sum`` per cell.

The last tests tie FCSR's one-arm passes and elimination loop to ``sr``'s
batch, and ``etc`` to ``us``: each run, with the fractions that switch its
extra stages off at 0, gives the other's trace bit for bit. They also scale
a Gaussian instance by powers of two, which scales every score exactly.
"""

import functools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcsr.algorithms as algorithms
from fcsr.algorithms import (
    _NORMALS,
    ALGORITHM_IDS,
    _Batch,
    _decisions,
    build_schedule,
    run_algorithm,
    run_fcsr,
    uniform_phase,
)
from fcsr.core import BanditInstance, Bernoulli, Empirical, Gaussian, RngStream, StatsState
from fcsr.harness import SYNTHETIC_NAMES, build_synthetic, trial_stream_id
from scalar_kernel import REFERENCE_RUNS, ScalarRunState

FAMILIES = ("gaussian", "bernoulli", "mixed", "empirical")
# The one call a trial of each family makes for a single uniform stage.
ONE_CALL = {"gaussian": "standard_normal", "bernoulli": "binomial"}


class Counted:
    """A generator that counts the calls made on it, by method name, and
    records the size of the ``out`` array of each call given one."""

    def __init__(self, gen: np.random.Generator) -> None:
        self.gen = gen
        self.calls: Counter = Counter()
        self.out_sizes: list[int] = []

    def __getattr__(self, name):
        method = getattr(self.gen, name)

        def counted(*args, **kwargs):
            self.calls[name] += 1
            if "out" in kwargs:
                self.out_sizes.append(kwargs["out"].size)
            return method(*args, **kwargs)

        return counted


def _instance(family: str, k: int, m: int, seed: int) -> BanditInstance:
    """K x M attributes of ``family``. Gaussian variances include 0, and
    Bernoulli p runs through 0, 1, 0.3 and 0.7 before random values; a mixed
    instance alternates the two families."""
    rng = np.random.default_rng(seed)
    ps = [0.0, 1.0, 0.3, 0.7]

    def dist(c: int):
        kind = family if family != "mixed" else ("gaussian", "bernoulli")[c % 2]
        if kind == "gaussian":
            variance = (0.0, 0.3, float(rng.uniform(0.01, 0.5)))[c % 3]
            return Gaussian(float(rng.uniform(0.2, 0.8)), variance)
        if kind == "bernoulli":
            return Bernoulli(ps[c] if c < len(ps) else float(rng.uniform(0.0, 1.0)))
        return Empirical(tuple(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30))).tolist()))

    arms = tuple(tuple(dist(i * m + j) for j in range(m)) for i in range(k))
    return BanditInstance(arms, 0.5)


def _hexed(table) -> list:
    return [[x.hex() for x in row] for row in table]


def _by_arm(batch: _Batch, table: np.ndarray, n: int) -> list:
    """Trial n's rows of a batch table, which follow its arms ``batch.arms[n]``,
    as a K-row table in arm order; an arm the batch no longer holds is zeros."""
    full = np.zeros((batch.instance.num_arms,) + table.shape[2:], dtype=table.dtype)
    full[batch.arms[n]] = table[n]
    return full.tolist()


def _batch_stage(instance, orders, quota: int, cap: int, seeds):
    """One uniform pass over the arms ``orders[n]`` of each trial n of a batch,
    which ``reorder`` puts first; per trial its pulls, statistics as hex, the
    generator state after it and the calls made on its generator."""
    gens = [Counted(np.random.default_rng(seed)) for seed in seeds]
    orders = np.array(orders)
    batch = _Batch(instance, gens, cap, [(quota, orders.shape[1] * instance.num_attributes)])
    batch.reorder(orders)
    assert np.array_equal(batch.arms, orders)
    batch.uniform()
    # Every trial shares the batch's one row of pull counts, by position.
    counts = np.broadcast_to(batch.counts.astype(np.int64).reshape(batch.sums.shape[1:]), batch.sums.shape)
    return [
        (batch.used, _hexed(_by_arm(batch, batch.sums, n)), _by_arm(batch, counts, n),
         _hexed(_by_arm(batch, batch.mu.transpose(1, 2, 0), n)), gen.gen.bit_generator.state)
        for n, gen in enumerate(gens)
    ], [gen.calls for gen in gens]


def _scalar_stage(instance, arms, quota: int, cap: int, seed: int, run_state=ScalarRunState):
    """One-arm passes of ``quota`` pulls per attribute over ``arms`` on a
    ``run_state``, by default the oracle's; its pulls, statistics as hex and
    the generator state after them."""
    gen = np.random.default_rng(seed)
    state = run_state(instance, gen, cap)
    for i in arms:
        state.uniform(i, quota * instance.num_attributes)
    return (state.used, _hexed(state.sums), state.counts, _hexed(state.mu), gen.bit_generator.state)


def _expected_calls(family: str, calls: Counter, cells: int) -> bool:
    """One call per trial on Gaussian and Bernoulli; one ``draw_sum`` per
    cell on the others."""
    if family in ONE_CALL:
        return calls == Counter({ONE_CALL[family]: 1})
    return sum(calls.values()) == cells


@pytest.mark.parametrize("family", FAMILIES)
def test_uniform_stage_matches_scalar_oracle(family):
    k, m = 5, 4
    # Each trial of a batch passes over its own arms, in its own order.
    batches = (
        [range(k)] * 3,
        [[3, 0, 4, 1, 2], [0, 1, 2, 3, 4], [4, 1, 2, 0, 3]],
        [[4, 1, 2, 0], [0, 1, 2, 3]],
        [[2, 0]],
    )
    for seed in range(10):
        instance = _instance(family, k, m, seed)
        for orders in batches:
            seeds = [seed * 10 + n for n in range(len(orders))]
            for quota in (1, 37, 500):
                batch, calls = _batch_stage(instance, orders, quota, 10**9, seeds)
                scalar = [_scalar_stage(instance, arms, quota, 10**9, s) for arms, s in zip(orders, seeds)]
                assert batch == scalar, f"{family} seed {seed} arms {orders} quota {quota}"
                cells = len(orders[0]) * m
                assert all(_expected_calls(family, c, cells) for c in calls)


@pytest.mark.parametrize("family", FAMILIES)
def test_stage_cut_by_the_cap_mid_arm_matches_scalar_oracle(family):
    """A cap of 137 on a pass of 10 pulls per cell over 5 x 4 cells ends it
    after 13 whole cells and 7 pulls of the 14th, in the fourth arm of each
    trial's order; each trial still draws its 14 block sums with the calls
    of :func:`_expected_calls`.

    FCSR's one-arm passes over the same arms, with those quotas and caps
    and with quotas 0 and 1, equal the oracle's one ``draw_sum`` per cell
    pulled: a pass the cap cuts draws for its cells up to the cut one and
    no further, so the generator ends in the oracle's state."""
    instance = _instance(family, 5, 4, 3)
    orders = [list(range(5)), [4, 2, 0, 3, 1], [1, 3, 4, 0, 2]]
    batch, calls = _batch_stage(instance, orders, 10, 137, [11, 12, 13])
    scalar = [_scalar_stage(instance, arms, 10, 137, s) for arms, s in zip(orders, [11, 12, 13])]
    assert batch == scalar
    for (used, _, counts, _, _), arms in zip(batch, orders):
        assert used == 137
        assert [counts[i] for i in arms] == [[10] * 4, [10] * 4, [10] * 4, [10, 7, 0, 0], [0] * 4]
    assert all(_expected_calls(family, c, 14) for c in calls)
    # Caps 137 and 6 cut a pass inside an arm at quotas 10 and 1.
    for quota, cap in ((10, 137), (10, 10**9), (0, 137), (1, 6), (1, 10**9)):
        for arms, s in zip(orders, [11, 12, 13]):
            one_arm = _scalar_stage(instance, arms, quota, cap, s, run_state=algorithms._RunState)
            assert one_arm == _scalar_stage(instance, arms, quota, cap, s), (quota, cap, arms)


@pytest.mark.parametrize("family", ("gaussian", "bernoulli"))
def test_uniform_phase_on_a_wide_arm_matches_scalar_oracle(family, monkeypatch):
    """FCSR's one-arm pass makes one ``standard_normal`` call on a Gaussian
    arm, even of 20 attributes, and one ``draw_sum`` per attribute on a
    Bernoulli one; a batch makes one call per trial over the same arm."""
    instance = _instance(family, 2, 20, 5)

    def run():
        gen = Counted(np.random.default_rng(8))
        stats = StatsState.for_instance(instance)
        pulls = [uniform_phase(instance, stats, arm, 20 * b + 3, gen) for arm, b in ((2, 7), (1, 40), (2, 1))]
        out = stats.reward_sums.tobytes(), stats.pull_counts.tobytes(), stats.empirical_means.tobytes()
        return pulls, out, gen.gen.bit_generator.state, gen.calls

    block = run()
    assert block[3] == Counter({"standard_normal": 3} if family == "gaussian" else {"binomial": 60})
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_RunState", ScalarRunState)
        scalar = run()
    # The same pulls, statistics and generator state as the oracle's draw_sum calls.
    assert scalar[:3] == block[:3]
    assert scalar[3] == Counter({"normal" if family == "gaussian" else "binomial": 60})
    batch, calls = _batch_stage(instance, [[1], [0]], 7, 10**9, [8, 9])
    assert batch == [_scalar_stage(instance, [i], 7, 10**9, s) for i, s in ((1, 8), (0, 9))]
    assert all(c == Counter({ONE_CALL[family]: 1}) for c in calls)


def _run_hex(run, instance: BanditInstance, budget: int, seed: int):
    trace = run(instance, budget, np.random.default_rng([seed, budget]))
    scores = [[(i, s.hex()) for i, s in r] for r in trace.per_round_scores]
    return trace.decision, trace.pulls_total, trace.pulls_by_phase, trace.elimination_order, scores


CASES = [
    ("combined", build_synthetic("combined")),
    # etc's stage 2 runs over all six arms in rank order, not index order.
    ("combined-k6-m10", build_synthetic("combined", num_arms=6, num_attributes=10)),
    ("gaussian", _instance("gaussian", 8, 3, 21)),
    ("bernoulli", _instance("bernoulli", 6, 4, 22)),
    ("mixed", _instance("mixed", 6, 4, 23)),
]


def _expected_run_calls(name: str, algorithm: str, instance, reference: Counter) -> Counter:
    """The calls a baseline trial makes at T=10000, where every stage pulls:
    one ``standard_normal`` per run on a Gaussian instance, one ``binomial``
    per stage on a Bernoulli one, and on a mixed one the calls of the
    reference run, which makes one ``draw_sum`` per cell."""
    stages = {"us": 1, "etc": 2, "sr": instance.num_arms - 1}[algorithm]
    if name == "bernoulli":
        return Counter({"binomial": stages})
    if name == "mixed":
        return reference
    return Counter({"standard_normal": 1})


@pytest.mark.parametrize("name,instance", CASES, ids=[c[0] for c in CASES])
def test_runs_match_scalar_oracle(name, instance, monkeypatch):
    """The one-trial runs: each baseline, a batch of one, against its
    reference loop, and FCSR against the one-pull-per-step run state. Each
    baseline trial also makes exactly the generator calls of
    ``_expected_run_calls``."""
    km = instance.num_arms * instance.num_attributes
    for algorithm in ("us", "sr", "etc", "fcsr"):
        run = functools.partial(run_algorithm, algorithm)
        for budget in (km - 1, km + 3, 10 * km + 7, 10000):
            for seed in range(3):
                block = _run_hex(run, instance, budget, seed)
                if algorithm == "fcsr":
                    with monkeypatch.context() as patch:
                        patch.setattr(algorithms, "_RunState", ScalarRunState)
                        scalar = _run_hex(run, instance, budget, seed)
                else:
                    scalar = _run_hex(REFERENCE_RUNS[algorithm], instance, budget, seed)
                assert block == scalar, f"{name} {algorithm} T={budget} seed {seed}"
        if algorithm in REFERENCE_RUNS:
            gen, reference = Counted(np.random.default_rng(0)), Counted(np.random.default_rng(0))
            run(instance, 10000, gen)
            REFERENCE_RUNS[algorithm](instance, 10000, reference)
            assert gen.gen.bit_generator.state == reference.gen.bit_generator.state
            expected = _expected_run_calls(name, algorithm, instance, reference.calls)
            assert gen.calls == expected, (name, algorithm)


def test_baselines_make_one_call_a_run_and_fcsr_one_a_uniform_pass(monkeypatch):
    """On combined (K=10, M=5) at T=10000, each trial of a batch makes one
    ``standard_normal`` call per run and no other call, for ``us``, ``etc``
    and the nine rounds of ``sr`` alike. FCSR makes one ``standard_normal``
    call per uniform pass that pulls and one ``normal`` call per buffer
    refill, and no other call."""
    instance = build_synthetic("combined")
    for algorithm in ("us", "etc", "sr"):
        gens = [Counted(np.random.default_rng(t)) for t in range(3)]
        _decisions(algorithm, instance, 10000, gens)
        assert [g.calls for g in gens] == [Counter({"standard_normal": 1})] * 3, algorithm
    passes, refills = [], []
    uniform, refill = algorithms._RunState.uniform, algorithms._RunState._refill
    monkeypatch.setattr(algorithms._RunState, "uniform",
                        lambda self, i, budget: passes.append(uniform(self, i, budget)) or passes[-1])
    monkeypatch.setattr(algorithms._RunState, "_refill",
                        lambda self, i, j: refills.append(1) or refill(self, i, j))
    gen = Counted(np.random.default_rng(0))
    run_algorithm("fcsr", instance, 10000, gen)
    pulled = sum(n > 0 for n in passes)
    assert pulled == 54 and len(refills) > 0  # every live arm's pass pulls, in each of the 9 rounds
    assert gen.calls == Counter({"standard_normal": pulled, "normal": len(refills)})


def _batch_traces(algorithm, instance, budget, seeds, gens=None, **params):
    """Each trial's decision, pulls, scores as hex, elimination order and
    generator state after one batch over ``gens``, by default generators
    seeded ``[seed, budget]``."""
    log: list = []
    if gens is None:
        gens = [np.random.default_rng([seed, budget]) for seed in seeds]
    batched = algorithms._RUNS[algorithm]
    decisions = batched(instance, budget, gens, log=log, **params)
    traces = []
    for n, decision in enumerate(decisions.tolist()):
        scores = [[(int(a) + 1, s.hex()) for a, s in zip(arms[n], sc[n].tolist())] for arms, sc, *_ in log]
        order = tuple(int(entry[3][n]) + 1 for entry in log if len(entry) == 4)
        state = getattr(gens[n], "gen", gens[n]).bit_generator.state
        traces.append((decision, log[-1][2], scores, order, state))
    return traces


def _reference_traces(algorithm, instance, budget, seeds, **params):
    traces = []
    for seed in seeds:
        gen = np.random.default_rng([seed, budget])
        trace = REFERENCE_RUNS[algorithm](instance, budget, gen, **params)
        scores = [[(i, s.hex()) for i, s in r] for r in trace.per_round_scores]
        traces.append((trace.decision, trace.pulls_total, scores, trace.elimination_order,
                       gen.bit_generator.state))
    return traces


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("size", (1, 2, 7, 50))
def test_batches_match_per_trial_reference(family, size):
    """Every trial of a batch of ``size`` equals its one-trial reference run,
    at budgets below and above K*M and at a budget where the cap cuts sr's
    last round inside an arm."""
    k, m = 5, 4
    instance = _instance(family, k, m, 40 + size)
    cut = next(t for t in range(100, 400) if _cut_mid_arm(k, m, t))
    seeds = range(size)
    for budget in (0, k * m - 1, 3 * k * m + 7, cut, 2001):
        for algorithm, params in (("us", {}), ("sr", {}), ("etc", {}), ("etc", {"explore_fraction": 0.9})):
            got = _batch_traces(algorithm, instance, budget, seeds, **params)
            assert got == _reference_traces(algorithm, instance, budget, seeds, **params), (
                f"{family} N={size} {algorithm} T={budget} {params}"
            )


def test_normals_past_the_bound_go_in_whole_stages():
    """``sr`` at K=40, M=20 and T=200000 pulls every cell of each of its 39
    rounds, 16380 cells a trial, four times the bound on a trial's
    pre-drawn normals. The normals then come in several ``standard_normal``
    calls, each of whole rounds and none over the bound, and every trial
    still equals its reference run, generator state included."""
    k, m, budget = 40, 20, 200000
    instance = _instance("gaussian", k, m, 60)
    quotas = [delta // m for delta in build_schedule(k, budget).delta]
    widths = [(k - r) * m for r in range(k - 1)]
    assert min(quotas) > 0 and sum(w * q for w, q in zip(widths, quotas)) <= budget
    ends = set(np.cumsum(widths).tolist())
    seeds = range(3)
    gens = [Counted(np.random.default_rng([seed, budget])) for seed in seeds]
    got = _batch_traces("sr", instance, budget, seeds, gens=gens)
    assert got == _reference_traces("sr", instance, budget, seeds)
    for gen in gens:
        sizes = gen.out_sizes
        assert gen.calls == Counter({"standard_normal": len(sizes)}) and len(sizes) > 1
        assert max(sizes) <= _NORMALS and sum(sizes) == sum(widths) > 3 * _NORMALS
        assert set(np.cumsum(sizes).tolist()) <= ends


def _cut_mid_arm(k: int, m: int, budget: int) -> bool:
    """Whether the cap ends one of sr's passes inside an arm at ``budget``:
    some pass cannot finish, and what is left of the budget when it starts
    is not a whole number of arms."""
    used = 0
    for r, delta in enumerate(build_schedule(k, budget).delta, start=1):
        quota = delta // m
        need = (k + 1 - r) * m * quota
        if used + need > budget:
            return (budget - used) % (m * quota) != 0
        used += need
    return False


def test_batch_results_do_not_depend_on_the_chunking():
    """The decisions of 50 sweep trials are the same as one batch, as
    batches of 1, 7 and 42, in two halves, and one trial at a time."""
    instance = build_synthetic("combined", num_arms=6, num_attributes=4)
    for algorithm in ("us", "sr", "etc"):
        rngs = [RngStream(3, trial_stream_id(algorithm, 900, t)) for t in range(50)]
        whole = _decisions(algorithm, instance, 900, rngs)
        for splits in ((1, 8), (25,)):
            parts = [_decisions(algorithm, instance, 900, rngs[lo:hi])
                     for lo, hi in zip((0,) + splits, splits + (50,))]
            assert np.array_equal(np.concatenate(parts), whole), (algorithm, splits)
        singles = [run_algorithm(algorithm, instance, 900, rng).decision for rng in rngs]
        assert whole.tolist() == singles


# FCSR with no adaptive budget, and etc with no exploration, are other runs.


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    k=st.integers(2, 6),
    m=st.integers(1, 4),
    budget=st.integers(0, 30_000),
    seed=st.integers(0, 2**32 - 1),
)
def test_fcsr_at_zero_is_sr(family, k, m, budget, seed):
    """FCSR at f = g = 0 makes only uniform passes, round by round, and gives
    ``sr``'s trace bit for bit: decision, elimination order, scores as hex
    and pulls, with no adaptive thresholding or sample-until-feasible pull.
    Its one-arm passes and elimination loop share no code with ``sr``'s
    batch."""
    instance = _instance(family, k, m, seed)
    fcsr = _run_hex(functools.partial(run_fcsr, feasibility_fraction=0, apt_fraction=0),
                    instance, budget, seed)
    sr = _run_hex(functools.partial(run_algorithm, "sr"), instance, budget, seed)
    assert fcsr[2] == {"uniform": sr[2]["uniform"], "apt": 0, "suf": 0}
    assert fcsr[:2] + fcsr[3:] == sr[:2] + sr[3:]


def test_fcsr_at_zero_decides_as_sr_in_a_sweep():
    """The same identity on the path a sweep runs, at T=90000 on each
    synthetic instance."""
    for name in SYNTHETIC_NAMES:
        instance = build_synthetic(name)
        rngs = [RngStream(5, trial_stream_id("sr", 90_000, t)) for t in range(20)]
        fcsr = _decisions("fcsr", instance, 90_000, rngs, feasibility_fraction=0, apt_fraction=0)
        assert fcsr.tolist() == _decisions("sr", instance, 90_000, rngs).tolist(), name


@settings(max_examples=100, deadline=None)
@given(
    k=st.integers(2, 6),
    m=st.integers(1, 4),
    budget=st.integers(0, 30_000),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-6, 6).filter(bool),
)
def test_scaling_a_gaussian_instance_by_a_power_of_two_scales_every_score_exactly(k, m, budget, seed, exponent):
    """The Gaussian member of ``FAMILIES``, zero variances included, with
    every mean and the threshold times c = 2**exponent and every variance
    times c**2, gives each algorithm the same decision, pulls and elimination
    order, and every per-round score times c exactly. A power of two makes
    every floating-point step exact, so an absolute constant in a draw,
    such as one in a block sum ``take*m + sqrt(take*v)*z``, breaks this."""
    instance, c = _instance("gaussian", k, m, seed), 2.0**exponent
    scaled = BanditInstance(
        tuple(tuple(Gaussian(c * d.mean, c * c * d.variance) for d in row) for row in instance.arms),
        c * instance.threshold,
    )
    for algorithm in ALGORITHM_IDS:
        trace, moved = (run_algorithm(algorithm, inst, budget, RngStream(seed, 7)) for inst in (instance, scaled))
        assert moved.per_round_scores == tuple(
            tuple((arm, c * score) for arm, score in scores) for scores in trace.per_round_scores
        ), algorithm
        assert (moved.decision, moved.pulls_total, moved.pulls_by_phase, moved.elimination_order) == (
            trace.decision, trace.pulls_total, trace.pulls_by_phase, trace.elimination_order
        ), algorithm


@pytest.mark.parametrize("family", FAMILIES)
def test_etc_at_zero_exploration_is_us_on_the_first_arms(family):
    """With no stage-one pulls every stage-one score ties, so ``etc`` keeps
    arms 1..min(M, K) and spends the whole budget on them as ``us`` does on
    an instance of just those arms: the same decision, pulls, final scores
    and generator state after."""
    for k, m in ((2, 1), (4, 3), (5, 4), (3, 6)):
        instance = _instance(family, k, m, 10 * k + m)
        first = BanditInstance(instance.arms[:min(m, k)], instance.threshold)
        for budget in (0, k * m - 1, 3 * k * m + 7, 2001, 30_000):
            for seed in range(5):
                gens = [np.random.default_rng([seed, budget]) for _ in range(2)]
                etc = run_algorithm("etc", instance, budget, gens[0], explore_fraction=0)
                us = run_algorithm("us", first, budget, gens[1])
                assert etc.pulls_by_phase == {"explore": 0, "commit": us.pulls_total}
                scores = [[(i, s.hex()) for i, s in t.per_round_scores[-1]] for t in (etc, us)]
                assert etc.decision == us.decision and scores[0] == scores[1]
                assert gens[0].bit_generator.state == gens[1].bit_generator.state
