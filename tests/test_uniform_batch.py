"""The one-call uniform pass against the one-call-per-cell oracle.

``scalar_kernel.ScalarRunState.uniform`` makes one ``draw_sum`` call per
(arm, attribute) cell, as the run engine did before a uniform pass over many
cells drew all its block sums with one generator call. Every case here runs
once on the engine and once on the oracle, from the same generator state,
and compares pulls, statistics (as ``float.hex`` or as bytes) and the
generator state after. The ``batched`` fixture counts the one-call draws,
so each case also checks that it took the path it is meant to.
"""

import numpy as np
import pytest

import fcsr.algorithms as algorithms
from fcsr.algorithms import _BATCH, _RunState, run_algorithm, uniform_phase
from fcsr.core import BanditInstance, Bernoulli, Empirical, Gaussian, StatsState
from fcsr.harness import build_synthetic
from scalar_kernel import ScalarRunState

FAMILIES = ("gaussian", "bernoulli", "mixed", "empirical")


@pytest.fixture
def batched(monkeypatch):
    """Calls of each family's one-call draw, ``Gaussian._draw_sums`` and
    ``Bernoulli._draw_sums``."""
    calls = {Gaussian: 0, Bernoulli: 0}
    for family in calls:

        def counted(n, params, gen, family=family, draw=family._draw_sums):
            calls[family] += 1
            return draw(n, params, gen)

        monkeypatch.setattr(family, "_draw_sums", staticmethod(counted))
    return calls


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


def _stage(state_class, instance, arms, budget: int, cap: int, seed: int):
    """One uniform pass over ``arms`` on a fresh run state; its pulls,
    statistics as hex and the generator state after it."""
    gen = np.random.default_rng(seed)
    state = state_class(instance, gen, cap)
    used = state.uniform(arms, budget)
    hexed = [[[x.hex() for x in row] for row in table] for table in (state.sums, state.mu)]
    return used, hexed, state.counts, state.used, gen.bit_generator.state


@pytest.mark.parametrize("family", FAMILIES)
def test_uniform_stage_matches_scalar_oracle(family, batched):
    k, m = 5, 4
    orders = (range(k), [3, 0, 4, 1, 2], [4, 1, 2, 0], [2, 0])
    for seed in range(10):
        instance = _instance(family, k, m, seed)
        for arms in orders:
            for budget in (m, 37 * m + 3, 2000):
                before = sum(batched.values())
                block = _stage(_RunState, instance, arms, budget, 10**9, seed)
                scalar = _stage(ScalarRunState, instance, arms, budget, 10**9, seed)
                assert block == scalar, f"{family} seed {seed} arms {list(arms)} budget {budget}"
                one_call = family in ("gaussian", "bernoulli") and len(arms) * m >= _BATCH
                assert sum(batched.values()) - before == one_call


@pytest.mark.parametrize("family", ("gaussian", "bernoulli"))
def test_stage_cut_by_the_cap_mid_arm_matches_scalar_oracle(family, batched):
    """A cap of 137 on a pass of 10 pulls per cell over 5 x 4 cells ends it
    after 13 whole cells and 7 pulls of the 14th, in the fourth arm of the
    order given. Such a pass draws one ``draw_sum`` per cell."""
    instance = _instance(family, 5, 4, 3)
    for arms in (range(5), [4, 2, 0, 3, 1]):
        block = _stage(_RunState, instance, arms, 40, 137, 11)
        scalar = _stage(ScalarRunState, instance, arms, 40, 137, 11)
        assert block == scalar
        assert block[0] == block[3] == 137
        counts = block[2]
        assert [counts[i] for i in arms] == [[10] * 4, [10] * 4, [10] * 4, [10, 7, 0, 0], [0] * 4]
    assert sum(batched.values()) == 0


@pytest.mark.parametrize("family", ("gaussian", "bernoulli"))
def test_uniform_phase_on_a_wide_arm_matches_scalar_oracle(family, monkeypatch, batched):
    """One arm of 20 attributes is past ``_BATCH`` cells on its own."""
    instance = _instance(family, 2, 20, 5)

    def run():
        gen = np.random.default_rng(8)
        stats = StatsState.for_instance(instance)
        pulls = [uniform_phase(instance, stats, arm, 20 * b + 3, gen) for arm, b in ((2, 7), (1, 40), (2, 1))]
        return pulls, stats.reward_sums.tobytes(), stats.pull_counts.tobytes(), stats.empirical_means.tobytes()

    block = run()
    assert sum(batched.values()) == 3
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_RunState", ScalarRunState)
        assert run() == block
    assert sum(batched.values()) == 3


def _run_hex(name: str, instance: BanditInstance, budget: int, seed: int):
    trace = run_algorithm(name, instance, budget, np.random.default_rng([seed, budget]))
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


@pytest.mark.parametrize("name,instance", CASES, ids=[c[0] for c in CASES])
def test_runs_match_scalar_oracle(name, instance, monkeypatch, batched):
    km = instance.num_arms * instance.num_attributes
    for algorithm in ("us", "sr", "etc", "fcsr"):
        for budget in (km - 1, km + 3, 10 * km + 7, 10000):
            for seed in range(3):
                block = _run_hex(algorithm, instance, budget, seed)
                with monkeypatch.context() as patch:
                    patch.setattr(algorithms, "_RunState", ScalarRunState)
                    scalar = _run_hex(algorithm, instance, budget, seed)
                assert block == scalar, f"{name} {algorithm} T={budget} seed {seed}"
    assert (sum(batched.values()) > 0) == (name != "mixed")


def test_baselines_reach_the_one_call_path_and_fcsr_one_arm_passes_do_not(batched):
    """On combined (K=10, M=5): ``us`` draws its one pass in one call,
    ``etc`` its two stages (50 and 25 cells), ``sr`` each round with at least
    ``_BATCH`` cells, and FCSR, whose arms hold feasibility budgets, none."""
    instance = build_synthetic("combined")
    m = instance.num_attributes
    sr_rounds = sum(1 for alive in range(10, 1, -1) if alive * m >= _BATCH)
    expected = {"us": 1, "etc": 2, "sr": sr_rounds, "fcsr": 0}
    for algorithm, calls in expected.items():
        for t in range(3):
            batched[Gaussian] = 0
            run_algorithm(algorithm, instance, 10000, np.random.default_rng(t))
            assert batched[Gaussian] == calls, algorithm
    assert batched[Bernoulli] == 0
