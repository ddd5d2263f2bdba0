"""The block APT and SUF kernel against the one-pull-per-step oracle.

``scalar_kernel.ScalarRunState`` holds the adaptive thresholding and
sample-until-feasible loops as they were before long runs of pulls went in
numpy blocks. Every case here runs once on the block kernel and once on the
oracle, from the same generator state, and compares pull counts and
statistics bit for bit. The budgets cross a ``_CHUNK`` refill, and the
cases count the blocks they reach and the blocks that start with a refill,
so a change that stops reaching either path fails here rather than passing
silently.
"""

import math

import numpy as np
import pytest

import fcsr.algorithms as algorithms
from fcsr.algorithms import (
    _CHUNK,
    _GALLOP,
    _on_row,
    _RunState,
    apt_phase,
    run_fcsr,
    sample_until_feasible,
    uniform_phase,
)
from fcsr.core import BanditInstance, Bernoulli, Empirical, Gaussian, StatsState
from fcsr.harness import build_synthetic
from scalar_kernel import ScalarRunState

KINDS = ("gaussian", "bernoulli", "empirical")
# Seeds of the Bernoulli(0.5) tie cases below on which a block that went on
# past an exact tie with a lower-index score (``ss <= lo`` for ``ss < lo``)
# gives different statistics from the oracle.
TIE_SEEDS = (559, 10198, 11101, 11367, 14175)


@pytest.fixture
def blocks(monkeypatch):
    """One entry per ``_gallop`` call: True when the budget, not the stay
    test, ended the run."""
    ends: list[bool] = []
    gallop = _RunState._gallop

    def counted(self, i, j, n, threshold, bound=None):
        out = gallop(self, i, j, n, threshold, bound)
        ends.append(out == n)
        return out

    monkeypatch.setattr(_RunState, "_gallop", counted)
    return ends


@pytest.fixture
def crossings(monkeypatch):
    """The pass, "apt" or "suf", of each ``_gallop`` call that starts at the
    end of a buffer it has drawn: earlier pulls used the buffer up, so the
    block's first value comes from a refill. An APT run passes its score
    bound, and a SUF run passes none."""
    passes: list[str] = []
    gallop = _RunState._gallop

    def counted(self, i, j, n, threshold, bound=None):
        if self.pos[i][j] == _CHUNK and self.views[i][j] is not None:
            passes.append("suf" if bound is None else "apt")
        return gallop(self, i, j, n, threshold, bound)

    monkeypatch.setattr(_RunState, "_gallop", counted)
    return passes


def _both(monkeypatch, run):
    """``run()`` on the block kernel, then on the oracle."""
    block = run()
    with monkeypatch.context() as patch:
        patch.setattr(algorithms, "_RunState", ScalarRunState)
        scalar = run()
    return block, scalar


def _stats_bytes(stats: StatsState) -> tuple[bytes, bytes, bytes]:
    return (
        stats.reward_sums.tobytes(),
        stats.pull_counts.tobytes(),
        stats.empirical_means.tobytes(),
    )


def _random_instance(kind: str, seed: int) -> BanditInstance:
    """K in 2..4 arms, M in 1..6 attributes, means near a random threshold."""
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(2, 5)), int(rng.integers(1, 7))
    tau = float(rng.uniform(0.3, 0.7))

    def dist():
        mu = float(np.clip(tau + rng.normal(0.0, 0.05), 0.0, 1.0))
        if kind == "gaussian":
            return Gaussian(mu, float(rng.uniform(0.01, 0.4)))
        if kind == "bernoulli":
            return Bernoulli(mu)
        return Empirical(tuple(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30))).tolist()))

    return BanditInstance(tuple(tuple(dist() for _ in range(m)) for _ in range(k)), tau)


def _phase_sequence(instance: BanditInstance, seed: int):
    """The three phase functions on every arm, then APT and SUF under a
    run-wide guard below their budgets; one generator throughout."""
    gen = np.random.default_rng([seed, 1])
    stats = StatsState.for_instance(instance)
    tau = instance.threshold
    m = instance.num_attributes
    out = []
    for arm in range(1, instance.num_arms + 1):
        out.append(uniform_phase(instance, stats, arm, 4 * m * arm, gen))
        out.append(apt_phase(instance, stats, arm, 3 * _CHUNK - 7, tau, gen))
        out.append(sample_until_feasible(instance, stats, arm, 2 * _CHUNK + 3, tau, gen))
        out.append(apt_phase(instance, stats, arm, _GALLOP + 1, tau, gen))
        for method in (algorithms._RunState.apt, algorithms._RunState.suf):
            out.append(_on_row(instance, stats, arm, 3 * _GALLOP + arm, gen, method, 900, tau))
    return out, _stats_bytes(stats)


@pytest.mark.parametrize("kind", KINDS)
def test_phase_functions_match_scalar_oracle(kind, monkeypatch, blocks):
    for seed in range(12):
        instance = _random_instance(kind, seed)
        block, scalar = _both(monkeypatch, lambda: _phase_sequence(instance, seed))
        assert block == scalar, f"{kind} seed {seed}"
    assert any(blocks) and not all(blocks), "no block ended by the budget, or none by a stay test"


@pytest.mark.parametrize("kind", KINDS)
def test_fcsr_runs_match_scalar_oracle(kind, monkeypatch, blocks):
    """Equal traces, and the generator left in the oracle's state, which
    checks directly that refills keep their order."""

    def run():
        gen = np.random.default_rng([seed, budget])
        trace = run_fcsr(instance, budget, gen, feasibility_fraction=0.2, apt_fraction=g)
        return trace, gen.bit_generator.state

    for seed in range(6):
        instance = _random_instance(kind, 100 + seed)
        km = instance.num_arms * instance.num_attributes
        # The schedule's ceilings overshoot floor((1-f)T) by up to K-1, so at
        # small budgets the run-wide guard cuts the last passes short.
        for budget, g in ((km + 1, 0.3), (40 * km + 3, 0.6), (6000, 0.3), (6001, 0.8)):
            (block, block_gen), (scalar, scalar_gen) = _both(monkeypatch, run)
            assert block == scalar, f"{kind} seed {seed} T={budget} g={g}"
            assert [[s.hex() for _, s in r] for r in block.per_round_scores] == [
                [s.hex() for _, s in r] for r in scalar.per_round_scores
            ]
            assert block_gen == scalar_gen, f"{kind} seed {seed} T={budget} g={g}"
    assert not all(blocks)


def _tie_start(seed: int):
    """Bernoulli(0.5) attributes at threshold 0.5, statistics from unequal
    counts, and the generator to go on with.

    Scores sqrt(c) |k/c - 1/2| = |2k - c| / (2 sqrt(c)) take equal values at
    different counts (0.5 at c = 4, 16, 36, ...), so an APT run can reach an
    exact tie with another attribute's score inside a block.
    """
    rng = np.random.default_rng([seed, 2])
    m = int(rng.integers(2, 6))
    instance = BanditInstance(((Bernoulli(0.5),) * m,), 0.5)
    stats = StatsState.for_instance(instance)
    counts = rng.integers(1, 80, size=m)
    sums = rng.binomial(counts, 0.5)
    stats.pull_counts[0] = counts
    stats.reward_sums[0] = sums
    stats.empirical_means[0] = sums / counts
    return instance, stats, rng


def _tie_case(seed: int):
    """APT from :func:`_tie_start`."""
    instance, stats, rng = _tie_start(seed)
    pulls = apt_phase(instance, stats, 1, 700, 0.5, rng)
    return pulls, _stats_bytes(stats)


@pytest.mark.parametrize("seeds", [TIE_SEEDS, range(300)], ids=["pinned", "range"])
def test_apt_score_ties_match_scalar_oracle(seeds, monkeypatch, blocks):
    for seed in seeds:
        block, scalar = _both(monkeypatch, lambda: _tie_case(seed))
        assert block == scalar, f"seed {seed}"
    assert blocks


def _low_first_instance(kind: str, seed: int) -> BanditInstance:
    """K = 2 arms of M in 2..4 attributes at threshold 0.5; attribute 0 of
    each arm lies well below it, so that SUF stays on it to the end of a
    pass."""
    rng = np.random.default_rng([seed, 4])
    m = int(rng.integers(2, 5))

    def dist(mu):
        if kind == "gaussian":
            return Gaussian(mu, float(rng.uniform(0.01, 0.2)))
        if kind == "bernoulli":
            return Bernoulli(mu)
        values = rng.normal(mu, 0.1, size=int(rng.integers(2, 30)))
        return Empirical(tuple(np.clip(values, 0.0, 1.0).tolist()))

    return BanditInstance(tuple(
        (dist(0.1),) + tuple(dist(float(rng.uniform(0.45, 0.55))) for _ in range(m - 1))
        for _ in range(2)
    ), 0.5)


def _long_run_sequence(instance: BanditInstance, seed: int):
    """SUF and APT passes on each arm of one run state. On an instance from
    :func:`_low_first_instance`, the first SUF pass stays on attribute 0 and
    ends 12 values before its buffer's end; the second one's block uses
    those up and goes on from a refill."""
    gen = np.random.default_rng([seed, 3])
    state = algorithms._RunState(instance, gen, 10**9)
    tau = instance.threshold
    pulls = []
    for i in range(instance.num_arms):
        pulls.append(state.suf(i, _CHUNK - 12, tau))
        pulls.append(state.suf(i, 30, tau))
        pulls.append(state.apt(i, 3 * _CHUNK, tau))
        pulls.append(state.suf(i, 3 * _GALLOP, tau))
    return pulls, state.sums, state.counts, state.mu, gen.bit_generator.state


def _stay_instance(kind: str, seed: int) -> BanditInstance:
    """One arm of one attribute, at a threshold that its empirical mean does
    not exceed, so that every APT and SUF pass on it runs its whole budget
    and ends at a known position of the buffer."""
    rng = np.random.default_rng([seed, 5])
    if kind == "gaussian":
        return BanditInstance(((Gaussian(float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.01, 0.2))),),), 100.0)
    if kind == "bernoulli":
        return BanditInstance(((Bernoulli(float(rng.uniform(0.2, 0.8))),),), 1.0)
    values = tuple(rng.uniform(0.0, 1.0, size=int(rng.integers(2, 30))).tolist())
    return BanditInstance(((Empirical(values),),), max(values) + 1.0)


# (pass, pulls) of :func:`_buffer_edge_sequence`, and the read position each
# leaves: runs that start 3, 2 and 1 values before the buffer's end, a SUF
# run that starts at it and one whose block goes on from a refill, and an
# APT run whose single pulls stop 1 value before the buffer's end, so that
# its block starts there.
EDGE_PASSES = (
    ("suf", _CHUNK - 3), ("suf", 1), ("apt", 1), ("suf", 1),
    ("suf", _CHUNK - _GALLOP - 1), ("suf", 3 * _GALLOP),
    ("apt", _CHUNK - 3 * _GALLOP), ("apt", 3 * _GALLOP),
)
EDGE_POSITIONS = (
    _CHUNK - 3, _CHUNK - 2, _CHUNK - 1, _CHUNK,
    _CHUNK - _GALLOP - 1, 2 * _GALLOP - 1, _CHUNK - _GALLOP - 1, 2 * _GALLOP - 1,
)


def _buffer_edge_sequence(instance: BanditInstance, seed: int):
    """The passes of ``EDGE_PASSES`` on an instance from :func:`_stay_instance`,
    with the read position after each."""
    gen = np.random.default_rng([seed, 6])
    state = algorithms._RunState(instance, gen, 10**9)
    out = []
    for name, pulls in EDGE_PASSES:
        out.append((getattr(state, name)(0, pulls, instance.threshold), state.pos[0][0]))
    return out, state.sums, state.counts, state.mu, gen.bit_generator.state


def _tie_sequence(seed: int):
    """Three APT passes over one run state from :func:`_tie_start`."""
    instance, stats, rng = _tie_start(seed)
    state = algorithms._RunState(instance, rng, 10**9)
    state.sums[0] = stats.reward_sums[0].tolist()
    state.counts[0] = stats.pull_counts[0].tolist()
    state.mu[0] = stats.empirical_means[0].tolist()
    pulls = [state.apt(0, 700, 0.5) for _ in range(3)]
    return pulls, state.sums, state.counts, state.mu, rng.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
def test_runs_across_a_refill_match_scalar_oracle(kind, monkeypatch, crossings):
    """Passes on one run state, whose runs start from part-read buffers and
    whose single pulls run out their buffer, and the runs of
    ``EDGE_PASSES``, which start or go on in a block next to a buffer's end;
    pulls, statistics and generator states stay bit-equal."""
    for seed in range(8):
        for instance in (_low_first_instance(kind, seed), _random_instance(kind, seed)):
            block, scalar = _both(monkeypatch, lambda: _long_run_sequence(instance, seed))
            assert block == scalar, f"{kind} seed {seed}"
        instance = _stay_instance(kind, seed)
        block, scalar = _both(monkeypatch, lambda: _buffer_edge_sequence(instance, seed))
        assert block == scalar, f"{kind} seed {seed}, runs at a buffer's end"
        assert block[0] == list(zip([pulls for _, pulls in EDGE_PASSES], EDGE_POSITIONS))
    assert set(crossings) == {"apt", "suf"}


def test_apt_passes_on_one_state_match_scalar_oracle_at_ties(monkeypatch, crossings):
    """Later passes start from buffers the earlier ones left part-read."""
    for seed in TIE_SEEDS + tuple(range(20)):
        block, scalar = _both(monkeypatch, lambda: _tie_sequence(seed))
        assert block == scalar, f"seed {seed}"
    assert crossings


def test_cumsum_adds_like_sequential_sum():
    """np.cumsum over [s, x1, ..., xn] equals the scalar s += x, bit for bit,
    and so does ``_gallop``'s form: ``np.add.accumulate`` in place over the
    head of one ``_CHUNK + 1`` buffer, reused by runs of every length."""
    rng = np.random.default_rng(4)
    buffer = np.empty(_CHUNK + 1)
    for _ in range(2000):
        n = int(rng.integers(1, 600))
        start = float(rng.normal(0.0, 10.0 ** rng.integers(-3, 4)))
        values = rng.normal(0.5, 0.5, size=n)
        run = np.empty(n + 1)
        run[0] = start
        run[1:] = values
        s, sequential = start, []
        for x in values.tolist():
            s += x
            sequential.append(s)
        assert np.cumsum(run)[1:].tobytes() == np.array(sequential).tobytes()
        k = min(n, _CHUNK)
        buffer[0] = start
        buffer[1:k + 1] = values[:k]
        head = buffer[:k + 1]
        np.add.accumulate(head, out=head)
        assert buffer[1:k + 1].tobytes() == np.array(sequential[:k]).tobytes()


@pytest.fixture
def ladders(monkeypatch):
    """Each ladder that ``_ladder`` returns, in order, from an empty one."""
    seen: list[tuple] = []
    ladder = algorithms._ladder

    def recorded(top):
        out = ladder(top)
        if not seen or out is not seen[-1]:
            seen.append(out)
        return out

    monkeypatch.setattr(algorithms, "_LADDER", (np.empty(0), np.empty(0)))
    monkeypatch.setattr(algorithms, "_ladder", recorded)
    return seen


def test_ladder_is_exact_read_only_and_grows_by_powers_of_two(ladders):
    """An FCSR run at T=90000 grows the ladder through powers of two; every
    count is exact and every root is ``math.sqrt``'s, byte for byte; each
    size keeps the smaller one's entries; and nothing can write into it."""
    run_fcsr(build_synthetic("risky"), 90000, np.random.default_rng(9))
    sizes = [len(counts) for counts, _ in ladders]
    assert len(sizes) > 1 and sizes == sorted(set(sizes))
    assert all(size & (size - 1) == 0 for size in sizes)
    assert ladders[-1] is algorithms._LADDER
    counts, roots = ladders[-1]
    top = len(counts)
    assert counts.tobytes() == np.array([float(i) for i in range(top)]).tobytes()
    assert roots.tobytes() == np.array([math.sqrt(i) for i in range(top)]).tobytes()
    for smaller, size in zip(ladders, sizes):
        assert counts[:size].tobytes() == smaller[0].tobytes()
        assert roots[:size].tobytes() == smaller[1].tobytes()
    for table in (counts, roots):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            np.add(table, 1.0, out=table)


def _past_the_first_ladder(kind: str, seed: int, fresh):
    """APT and SUF, each from a ladder that ``fresh()`` sets back to its
    first size, ``_CHUNK``, and from a preset count below it, on an instance
    from :func:`_stay_instance`: the APT run's single pulls stop below that
    size and its block goes on past it, one SUF run is a block across it,
    and one is a block whose last count is that size."""
    instance = _stay_instance(kind, seed)
    tau = instance.threshold
    gen = np.random.default_rng([seed, 7])
    out = []
    starts = ((apt_phase, _CHUNK - _GALLOP - 8), (sample_until_feasible, _CHUNK - 3),
              (sample_until_feasible, _CHUNK - 100))
    for phase, start in starts:
        fresh()
        stats = StatsState.for_instance(instance)
        stats.pull_counts[0, 0] = start
        stats.reward_sums[0, 0] = 0.25 * start
        stats.empirical_means[0, 0] = 0.25
        out.append((phase(instance, stats, 1, 100, tau, gen), _stats_bytes(stats)))
    return out, gen.bit_generator.state


@pytest.mark.parametrize("kind", KINDS)
def test_blocks_past_the_first_ladder_match_scalar_oracle(kind, monkeypatch, blocks, ladders):
    def fresh():
        monkeypatch.setattr(algorithms, "_LADDER", (np.empty(0), np.empty(0)))
        algorithms._ladder(_CHUNK - 1)

    for seed in range(4):
        block, scalar = _both(monkeypatch, lambda: _past_the_first_ladder(kind, seed, fresh))
        assert block == scalar, f"{kind} seed {seed}"
    assert len(blocks) == 3 * 4
    sizes = [len(counts) for counts, _ in ladders]
    assert sizes.count(_CHUNK) == 2 * 3 * 4 and sizes.count(2 * _CHUNK) == 3 * 4, "a block did not grow the ladder"
