"""Harness tests: benchmark construction, sweeps, aggregation."""

import hashlib
import json
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest

import fcsr.harness as harness
from fcsr.algorithms import ALGORITHM_PARAMS
from fcsr.core import BanditInstance, Bernoulli, RngStream, oracle
from fcsr.harness import (
    GAUSSIAN_VARIANCE,
    CellResult,
    SweepConfig,
    build_synthetic,
    run_sweep,
    trial_stream_id,
    weighted_log_error_slope,
)

SEPARATING = BanditInstance(
    arms=((Bernoulli(1.0),), (Bernoulli(0.0),)), threshold=0.5
)


# ---------------------------------------------------------------------------
# Synthetic benchmark instances
# ---------------------------------------------------------------------------


def test_risky_instance_layout():
    instance = build_synthetic("risky")
    truth = oracle(instance)
    assert truth.best_arm == 10
    assert truth.feasible_arms == (10,)
    assert truth.arm_means[9] == pytest.approx(0.7, rel=1e-12)
    for i in range(9):
        assert truth.arm_means[i] == pytest.approx(0.74, rel=1e-12)
        assert instance.attribute_means[i, 4] == pytest.approx(0.49, rel=1e-12)
    assert instance.threshold == 0.5
    assert all(d.variance == GAUSSIAN_VARIANCE for row in instance.arms for d in row)


def test_feasibility_instance_layout():
    instance = build_synthetic("feasibility")
    truth = oracle(instance)
    assert truth.best_arm == 10
    assert len(truth.feasible_arms) == 10
    assert instance.attribute_means[9, 4] == pytest.approx(0.51, rel=1e-12)
    assert truth.arm_means[0] == pytest.approx(0.6, rel=1e-12)


def test_mean_instance_layout():
    instance = build_synthetic("mean")
    truth = oracle(instance)
    assert truth.best_arm == 1
    assert len(truth.feasible_arms) == 10
    assert instance.threshold == 0.3
    gaps = truth.arm_means[0] - truth.arm_means
    assert np.allclose(gaps, [0.003 * i for i in range(10)], atol=1e-12)


def test_combined_instance_layout():
    instance = build_synthetic("combined")
    truth = oracle(instance)
    assert truth.best_arm == 10
    # First five arms: high mean, one attribute below threshold.
    for i in range(5):
        assert instance.attribute_means[i, 4] == pytest.approx(0.49, rel=1e-12)
        assert i + 1 not in truth.feasible_arms
        assert truth.arm_means[i] > truth.arm_means[9]
    report_means = [truth.arm_means[i] for i in range(5, 9)]
    assert report_means == pytest.approx([0.69, 0.68, 0.67, 0.66], rel=1e-12)
    assert instance.attribute_means[9, 4] == pytest.approx(0.51, rel=1e-12)


def test_synthetic_validation():
    with pytest.raises(ValueError):
        build_synthetic("unknown")
    with pytest.raises(ValueError):
        build_synthetic("risky", gap=0.5)
    with pytest.raises(ValueError):
        build_synthetic("mean", gap=0.001)


# ---------------------------------------------------------------------------
# Stream ids
# ---------------------------------------------------------------------------


def test_trial_stream_id_is_stable():
    # Frozen values: changing the hash silently would re-randomize every
    # recorded sweep.
    assert trial_stream_id("fcsr", 90000, 0) == 10815255977864102336
    assert trial_stream_id("fcsr", 90000, 1) == 4234292767487026578
    assert trial_stream_id("sr", 90000, 0) == 5963644564528447096


def test_trial_stream_id_distinctness():
    ids = {
        trial_stream_id(alg, budget, t)
        for alg in ("fcsr", "sr", "us", "etc")
        for budget in (10, 1000)
        for t in range(50)
    }
    assert len(ids) == 4 * 2 * 50


def _whole_string_stream_id(algorithm: str, budget: int, trial: int) -> int:
    """The stream id as first written: one blake2b of the whole key."""
    digest = hashlib.blake2b(f"{algorithm}|{budget}|{trial}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def test_stream_ids_from_one_prefix_equal_the_whole_string_hash():
    """A sweep hashes ``algorithm|budget|`` once and copies it for each trial;
    every id equals one hash of the whole key, for small and very large
    trial indices, and ``trial_stream_id`` is the one-trial case."""
    trials = [*range(3000), 10**6 - 1, 10**6, 2**31 - 1, 2**32, 2**63 - 1, 2**64, 10**40 + 7]
    for algorithm, budget in (("sr", 10000), ("fcsr", 90000), ("etc", 0), ("us", 10**12)):
        expected = [_whole_string_stream_id(algorithm, budget, t) for t in trials]
        assert harness._stream_ids(algorithm, budget, trials) == expected
        assert harness._stream_ids(algorithm, budget, range(3000)) == expected[:3000]
        assert [trial_stream_id(algorithm, budget, t) for t in trials[-300:]] == expected[-300:]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _tiny_config(**overrides):
    defaults = dict(
        instance=SEPARATING,
        algorithms=("fcsr", "sr"),
        budgets=(60, 120),
        trials=8,
        base_seed=99,
        instance_name="separating",
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


def test_sweep_deterministic_instance_is_exact():
    result = run_sweep(_tiny_config(algorithms=("fcsr", "sr", "us", "etc"), trials=1))
    for cell in result.cells:
        assert cell.accuracy == 1.0
        assert cell.error_count == 0
        assert cell.decisions == (0, 1, 0)


def test_sweep_repeatable_and_worker_invariant(monkeypatch):
    instance = build_synthetic("risky", num_arms=4, num_attributes=2)
    config = SweepConfig(
        instance=instance,
        algorithms=("fcsr", "us", "sr", "etc"),
        budgets=(400,),
        trials=40,
        base_seed=5,
        instance_name="small-risky",
    )
    serial_a = run_sweep(config, workers=1)
    serial_b = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=2)
    assert serial_a == serial_b
    assert serial_a == parallel  # wall_time excluded from equality
    # A cell's trials run as batches of at most _MAX_BATCH trials.
    monkeypatch.setattr(harness, "_MAX_BATCH", 3)
    assert run_sweep(config, workers=1) == serial_a
    assert run_sweep(config, workers=2) == serial_a


def test_a_pool_runs_the_batches_of_a_one_worker_sweep(monkeypatch):
    """A sweep cuts every cell's trials into the same spans at any worker
    count: a 2-worker sweep submits, in cell order, exactly the (algorithm,
    budget, lo, hi) batches that a one-worker sweep runs. The submits are
    recorded in the parent, so this holds under any start method."""
    config = _tiny_config(algorithms=("sr", "us"), trials=50)
    monkeypatch.setattr(harness, "_MAX_BATCH", 16)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def record_submit(self, fn, task):
        submitted.append(task)
        return submit(self, fn, task)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", record_submit)
    parallel = run_sweep(config, workers=2)
    ran = []
    count_decisions = harness._count_decisions

    def record_batch(config, *batch):
        ran.append(batch)
        return count_decisions(config, *batch)

    monkeypatch.setattr(harness, "_count_decisions", record_batch)
    assert run_sweep(config, workers=1) == parallel
    spans = [(0, 16), (16, 32), (32, 48), (48, 50)]
    assert ran == [(a, b, lo, hi) for a in ("sr", "us") for b in (60, 120) for lo, hi in spans]
    assert submitted == ran


@dataclass(frozen=True)
class _CrashOnce(Bernoulli):
    """A Bernoulli attribute whose block sum drawn outside process
    ``parent``, from a generator in state ``state``, kills that process;
    the file ``flag`` marks that it happened, so it happens once. Given a
    ``gate`` file, the process first waits for it (or a minute). The
    instance reaches pool workers pickled or forked, so this works under
    any start method."""

    flag: str = ""
    parent: int = 0
    state: int = 0
    gate: str = ""

    def draw_sum(self, n, gen):
        if os.getpid() != self.parent and gen.bit_generator.state["state"]["state"] == self.state:
            try:
                open(self.flag, "x").close()
            except FileExistsError:
                pass
            else:
                deadline = time.monotonic() + 60.0
                while self.gate and not os.path.exists(self.gate) and time.monotonic() < deadline:
                    time.sleep(0.01)
                os._exit(1)
        return super().draw_sum(n, gen)


def _first_draw(algorithm, budget):
    """The generator state of trial 0 of cell (algorithm, budget) at seed 3
    before its first draw, which is a block sum of arm 1's first attribute.
    A crash keyed to it falls in that cell, whichever tasks the pool's
    workers run at the same time."""
    gen = RngStream(3, trial_stream_id(algorithm, budget, 0)).generator()
    return gen.bit_generator.state["state"]["state"]


def test_sweep_survives_a_worker_crash(tmp_path):
    """One worker dies once: the pool is started again, that cell is run
    once more, and every cell equals the one-worker sweep's."""
    flag = tmp_path / "crashed"
    crash = _CrashOnce(0.7, flag=str(flag), parent=os.getpid(), state=_first_draw("us", 20))
    instance = BanditInstance(
        arms=((crash, Bernoulli(0.6)), (Bernoulli(0.8), Bernoulli(0.4))), threshold=0.5
    )
    config = SweepConfig(
        instance=instance,
        algorithms=("us", "sr", "etc"),
        budgets=(20, 40),
        trials=12,
        base_seed=3,
        instance_name="crash-once",
    )
    parallel = run_sweep(config, workers=2)
    assert flag.exists()
    serial = run_sweep(config, workers=1)
    notes = [cell.note for cell in parallel.cells]
    assert notes == ["retried after a worker crash"] + [""] * 5
    assert [replace(cell, note="") for cell in parallel.cells] == list(serial.cells)
    assert all(cell.error_count >= 0 for cell in serial.cells)


def test_sweep_survives_a_worker_crash_in_a_later_cell(tmp_path, monkeypatch):
    """A worker dies in the second cell, once the first is collected, while
    later cells wait in the queue: only that cell says it was retried, and
    every cell equals the one-worker sweep's."""
    flag, gate = tmp_path / "crashed", tmp_path / "first-cell-collected"
    crash = _CrashOnce(0.7, flag=str(flag), parent=os.getpid(), state=_first_draw("us", 40), gate=str(gate))
    instance = BanditInstance(
        arms=((crash, Bernoulli(0.6)), (Bernoulli(0.8), Bernoulli(0.4))), threshold=0.5
    )
    config = SweepConfig(
        instance=instance,
        algorithms=("us", "sr", "etc"),
        budgets=(20, 40),
        trials=12,
        base_seed=3,
        instance_name="crash-later",
    )
    cell_result = harness.CellResult

    def open_gate(**fields):  # called once a cell has been collected
        gate.touch()
        return cell_result(**fields)

    monkeypatch.setattr(harness, "CellResult", open_gate)
    parallel = run_sweep(config, workers=2)
    assert flag.exists()
    serial = run_sweep(config, workers=1)
    notes = [cell.note for cell in parallel.cells]
    assert notes == ["", "retried after a worker crash"] + [""] * 4
    assert [replace(cell, note="") for cell in parallel.cells] == list(serial.cells)


@dataclass(frozen=True)
class _FailAt(Bernoulli):
    """A Bernoulli attribute that raises on a block sum of ``size`` pulls."""

    size: int = 0

    def draw_sum(self, n, gen):
        if n == self.size:
            raise ValueError(f"no block of {n} pulls")
        return super().draw_sum(n, gen)


def test_a_failing_task_fails_only_its_own_cell():
    # Blocks of 15 pulls are drawn by cell (us, 60) alone, the second of four.
    instance = BanditInstance(
        arms=((_FailAt(0.7, size=15), Bernoulli(0.6)), (Bernoulli(0.8), Bernoulli(0.4))),
        threshold=0.5,
    )
    config = SweepConfig(
        instance=instance, algorithms=("us", "etc"), budgets=(20, 60), trials=12, base_seed=3
    )
    parallel = run_sweep(config, workers=2)
    assert [cell.note for cell in parallel.cells] == ["", "failed: no block of 15 pulls", "", ""]
    assert parallel.cell("us", 60).error_count == -1
    assert all(cell.error_count >= 0 for cell in parallel.cells if not cell.note)
    assert parallel == run_sweep(config, workers=1)


@pytest.mark.parametrize("workers", [1, 2])
def test_cell_wall_times_split_the_sweep(workers):
    config = _tiny_config(algorithms=("fcsr", "sr", "us", "etc"), trials=20)
    start = time.perf_counter()
    result = run_sweep(config, workers=workers)
    elapsed = time.perf_counter() - start
    assert all(cell.wall_time >= 0.0 for cell in result.cells)
    assert sum(cell.wall_time for cell in result.cells) <= elapsed


@dataclass(frozen=True)
class _Marked(Bernoulli):
    """A Bernoulli attribute whose every block sum takes ``pause`` seconds
    and leaves a file named after its block size in ``folder``."""

    folder: str = ""
    pause: float = 0.0

    def draw_sum(self, n, gen):
        time.sleep(self.pause)
        open(os.path.join(self.folder, str(n)), "a").close()
        return super().draw_sum(n, gen)


def test_an_interrupted_pool_sweep_drops_its_queued_tasks(tmp_path, monkeypatch):
    # One arm, one attribute and one trial a cell: each cell is one task that
    # draws one block of ``budget`` pulls, so each task leaves its own file.
    instance = BanditInstance(arms=((_Marked(0.7, folder=str(tmp_path), pause=0.05),),), threshold=0.5)
    budgets = tuple(range(10, 250, 10))
    config = SweepConfig(instance=instance, algorithms=("us",), budgets=budgets, trials=1, base_seed=3)

    def interrupt(**fields):  # called once the first cell has been collected
        raise KeyboardInterrupt

    monkeypatch.setattr(harness, "CellResult", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run_sweep(config, workers=2)
    ran = {int(path.name) for path in tmp_path.iterdir()}
    assert budgets[0] in ran
    assert len(ran) < len(budgets)


def test_sweep_counts_are_integers(monkeypatch):
    """Each cell's decision histogram has an entry per arm and one for no
    arm, sums to its trials over a cell of several spans at any worker
    count, and gives the error count and the accuracy; on an instance with
    no feasible arm, the right decision is no arm."""
    monkeypatch.setattr(harness, "_MAX_BATCH", 16)  # 40 trials: three spans
    infeasible = BanditInstance(
        arms=((Bernoulli(0.45), Bernoulli(0.6)), (Bernoulli(0.6), Bernoulli(0.4))), threshold=0.5
    )
    assert oracle(infeasible).best_arm == 0
    for instance in (build_synthetic("risky", num_arms=4, num_attributes=2), infeasible):
        best = oracle(instance).best_arm
        config = SweepConfig(
            instance=instance,
            algorithms=("fcsr", "sr", "us", "etc"),
            budgets=(40, 400),
            trials=40,
            base_seed=11,
        )
        results = [run_sweep(config, workers) for workers in (1, 2)]
        assert results[0] == results[1]
        for cell in results[0].cells:
            assert all(type(count) is int for count in (*cell.decisions, cell.error_count))
            assert len(cell.decisions) == instance.num_arms + 1
            assert sum(cell.decisions) == cell.trials
            assert cell.error_count == cell.trials - cell.decisions[best]
            assert cell.accuracy == 1 - cell.error_count / cell.trials


def test_sweep_low_budget_note():
    result = run_sweep(_tiny_config(budgets=(1,), trials=2))
    assert "below one pull per attribute" in result.cells[0].note


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        _tiny_config(algorithms=())
    with pytest.raises(ValueError):
        _tiny_config(algorithms=("fcsr", "bogus"))
    with pytest.raises(ValueError):
        _tiny_config(budgets=(100, 100))
    with pytest.raises(ValueError):
        _tiny_config(budgets=(200, 100))
    with pytest.raises(ValueError):
        _tiny_config(trials=0)
    with pytest.raises(ValueError):
        _tiny_config(params={"bogus": {}})
    # A key the algorithm does not read: a misspelling would fail every
    # trial of the cell, and a key meant for another algorithm would be
    # ignored.
    with pytest.raises(ValueError, match="'fcsr'.*apt_fracton"):
        _tiny_config(params={"fcsr": {"apt_fracton": 0.3}})
    with pytest.raises(ValueError, match="'sr'.*explore_fraction"):
        _tiny_config(params={"sr": {"explore_fraction": 0.9}})
    for algorithm, keys in ALGORITHM_PARAMS.items():
        _tiny_config(algorithms=(algorithm,), params={algorithm: {key: 0.4 for key in keys}})


def test_sweep_config_rejects_params_that_are_not_numbers():
    # A string failed every cell with a TypeError that named no field, and
    # True would run silently as 1.0.
    for value in ("0.3", True, [0.3]):
        with pytest.raises(ValueError, match=r"'etc': explore_fraction must be a real number in \[0, 1\)"):
            _tiny_config(algorithms=("etc",), params={"etc": {"explore_fraction": value}})
    with pytest.raises(ValueError, match=r"'etc': explore_fraction must be a real number in \[0, 1\), got None"):
        _tiny_config(algorithms=("etc",), params={"etc": {"explore_fraction": None}})
    with pytest.raises(ValueError, match=r"'us' does not read \['threshold'\]"):
        _tiny_config(algorithms=("us",), params={"us": {"threshold": None}})
    _tiny_config(algorithms=("etc",), params={"etc": {"explore_fraction": Fraction(1, 3)}})


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"budgets": (60, 100.9)}, "each item of budgets must be an integer, got 100.9"),
        ({"budgets": (True, 120)}, "each item of budgets must be an integer, got True"),
        ({"budgets": (-5, 120)}, "each item of budgets must be at least 0, got -5"),
        ({"trials": 8.0}, "trials must be an integer, got 8.0"),
        ({"trials": True}, "trials must be an integer, got True"),
        ({"base_seed": 99.5}, "base_seed must be an integer, got 99.5"),
    ],
    ids=["float-budget", "bool-budget", "negative-budget", "float-trials", "bool-trials", "float-seed"],
)
def test_sweep_config_rejects_a_count_or_seed_that_is_not_an_integer(overrides, message):
    # int() truncated budget 100.9 to 100 and read True as 1; a float trial
    # count or seed failed every cell with a message that named no field.
    with pytest.raises(ValueError) as err:
        _tiny_config(**overrides)
    assert str(err.value) == message


def test_sweep_config_takes_numpy_integers_as_ints():
    config = _tiny_config(budgets=np.array([60, 120]), trials=np.int64(8), base_seed=np.uint32(99))
    assert (config.budgets, config.trials, config.base_seed) == ((60, 120), 8, 99)
    assert all(type(x) is int for x in (*config.budgets, config.trials, config.base_seed))


def test_sweep_rejects_a_worker_count_that_is_not_an_integer():
    config = _tiny_config(algorithms=("us",), trials=1)
    for workers in (2.5, "2", True):
        with pytest.raises(ValueError, match=re.escape(f"workers must be an integer, got {workers!r}")):
            run_sweep(config, workers)


def test_sweep_config_rejects_params_for_an_algorithm_it_does_not_run():
    with pytest.raises(ValueError, match=r"params for \['etc'\], which the sweep does not run"):
        _tiny_config(algorithms=("us",), params={"etc": {"explore_fraction": 0.5}})
    with pytest.raises(ValueError, match=r"params for \['etc'\]"):
        _tiny_config(algorithms=("us",), params={"etc": {}})


def test_sweep_config_rejects_a_repeated_algorithm():
    # Each cell of a repeated algorithm would run twice on the same streams.
    with pytest.raises(ValueError, match=r"algorithms lists \['us'\] more than once"):
        _tiny_config(algorithms=("us", "sr", "us"))


def test_sweep_records_cell_failures():
    # One arm only: the round-based algorithms refuse, uniform still works.
    single = BanditInstance(arms=((Bernoulli(0.9),),), threshold=0.5)
    config = SweepConfig(
        instance=single,
        algorithms=("sr", "us"),
        budgets=(0, 50),
        trials=3,
        base_seed=1,
        instance_name="single",
    )
    result = run_sweep(config)
    sr_cell = result.cell("sr", 50)
    assert sr_cell.note.startswith("failed:")
    assert sr_cell.decisions == ()
    assert sr_cell.error_count == -1
    assert math.isnan(sr_cell.accuracy)
    assert result.cell("us", 50).accuracy == 1.0
    # A failed cell's note is the failure alone; a low budget is noted only
    # on a cell that ran.
    assert result.cell("sr", 0).note == "failed: num_arms must be at least 2, got 1"
    assert result.cell("us", 0).note == "budget below one pull per attribute (1)"
    # A threshold override is rejected when the config is built, naming it.
    with pytest.raises(ValueError, match=r"'sr' does not read \['threshold'\]"):
        replace(config, instance=SEPARATING, params={"sr": {"threshold": math.nan}})


def test_cell_equality_ignores_wall_time():
    cell = dict(algorithm="us", budget=10, trials=5, decisions=(0, 4, 1), error_count=1, accuracy=0.8)
    assert CellResult(**cell, wall_time=1.0) == CellResult(**cell, wall_time=9.0)


# ---------------------------------------------------------------------------
# Tables and JSON documents
# ---------------------------------------------------------------------------


def test_table_format():
    result = run_sweep(_tiny_config(trials=2))
    table = result.to_table()
    lines = table.strip().split("\n")
    assert lines[0] == "algorithm,budget,trials,error_count,accuracy"
    assert len(lines) == 1 + 4  # two algorithms x two budgets
    assert lines[1] == "fcsr,60,2,0,1.0"


def test_json_serialization_markers():
    # One arm: `sr` fails, so its accuracy is NaN, written as "nan".
    single = BanditInstance(arms=((Bernoulli(0.9),),), threshold=0.5)
    config = SweepConfig(instance=single, algorithms=("sr", "us"), budgets=(50,), trials=2, base_seed=1)
    doc = run_sweep(config).to_json_dict()
    failed, ran = doc["cells"]
    assert (failed["decisions"], failed["error_count"], failed["accuracy"]) == ([], -1, "nan")
    assert (ran["decisions"], ran["error_count"], ran["accuracy"]) == ([0, 2], 0, 1.0)
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


# ---------------------------------------------------------------------------
# Error-decay slope
# ---------------------------------------------------------------------------


def test_slope_recovers_linear_decay():
    budgets = [1000, 2000, 4000, 8000]
    rate = 3e-4
    accuracies = [1 - math.exp(-rate * t) for t in budgets]
    slope, stderr = weighted_log_error_slope(budgets, accuracies, trials=2000)
    assert slope == pytest.approx(-rate, rel=1e-9)
    assert stderr > 0


def test_slope_validation():
    with pytest.raises(ValueError):
        weighted_log_error_slope([1000], [0.5], 100)
    with pytest.raises(ValueError):
        weighted_log_error_slope([1000, 2000], [0.5, 1.0], 100)
    with pytest.raises(ValueError):
        weighted_log_error_slope([1000, 1000], [0.5, 0.6], 100)


def test_fcsr_at_least_matches_sr_on_risky_instance():
    # The risky instance stresses exactly what the feasibility budget buys:
    # FCSR should be no worse than plain successive rejects, up to binomial
    # noise. The ordering belongs to the moderate-noise regime (variance
    # 0.09); at variance 0.3 the crossover moves above budget 30000 because
    # the feasibility budget is too small to resolve the near-threshold
    # attributes there (see the README reproduction notes).
    n = 300
    config = SweepConfig(
        instance=build_synthetic("risky", variance=0.09),
        algorithms=("fcsr", "sr"),
        budgets=(30_000,),
        trials=n,
        base_seed=41,
        instance_name="risky",
    )
    result = run_sweep(config, workers=2)
    fcsr = result.accuracy("fcsr", 30_000)
    sr = result.accuracy("sr", 30_000)
    se_diff = math.sqrt(fcsr * (1 - fcsr) / n + sr * (1 - sr) / n)
    assert fcsr >= sr - 3 * se_diff


def test_uniform_baseline_error_decays_with_budget():
    # Monte-Carlo check on the cheap baseline: more budget, less error.
    instance = build_synthetic("risky")
    config = SweepConfig(
        instance=instance,
        algorithms=("us",),
        budgets=(10_000, 30_000, 50_000),
        trials=800,
        base_seed=2,
        instance_name="risky",
    )
    result = run_sweep(config, workers=2)
    accuracies = [c.accuracy for c in result.cells]
    assert all(0 < a < 1 for a in accuracies)
    slope, stderr = weighted_log_error_slope(
        [c.budget for c in result.cells], accuracies, trials=800
    )
    assert slope + 1.645 * stderr < 0


@pytest.mark.parametrize(
    "budgets, accuracies, trials, named",
    [
        ([1000, 2000], [0.6, 0.8], 0, "trials"),
        ([1000, math.inf], [0.6, 0.8], 100, "finite budgets"),
        ([1000, 2000], [0.6, math.nan], 100, "accuracies"),
        ([1000, 2000], [0.6, 0.8], 2.5, "trials must be an integer"),
        ([1000, 2000], [0.6, 0.8], True, "trials must be an integer"),
    ],
    ids=["no-trials", "infinite-budget", "nan-accuracy", "fractional-trials", "bool-trials"],
)
def test_slope_fit_rejects_inputs_that_would_give_nan(budgets, accuracies, trials, named):
    with pytest.raises(ValueError, match=named):
        weighted_log_error_slope(budgets, accuracies, trials)
