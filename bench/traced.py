"""Traced run of the benchmark (``--trace 1``): per-layer metrics.

Every traced run, whatever the workload, measures all layers; the workload
decides which sweep is traced and replayed. It runs in one interpreter and
calls the package directly:

1. ingest the seed's generated corpus through ``fcsr.cli.main``;
2. the workload's sweep through ``fcsr.cli.main``, untraced and with every
   span wrapper installed in turn, three times each, for
   ``trace.overhead_frac`` and the per-cell times;
3. every trial of the workload replayed through ``run_algorithm``, for the
   pull counts and per-trial checks;
4. ``run_algorithm`` at T=90000 on the four synthetic instances (and at
   T=1000 on the portfolio), trials of all pairs interleaved, for
   ``algorithms.run_ms.*``;
5. single calls into each layer's public functions at a run's typical
   call size;
6. the portfolio sweep at one worker and at one worker per CPU, for the
   pool metrics and the worker-independence check.

Spans are recorded around the calls into the package (bench/spans.py) and
written, with their self times, to ``.bench_out/``. Timings are reported as
p50 and p90; their sample counts are in the result file.
"""

from __future__ import annotations

import dataclasses
import pickle
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import numpy as np

import fcsr.algorithms as algorithms
import fcsr.cli as cli
import fcsr.core as core
import fcsr.hardness as hardness
import fcsr.harness as harness
import fcsr.movielens as movielens
import fcsr.serialize as serialize
from common import (
    NPROC,
    OUT_DIR,
    WORKLOADS,
    BenchError,
    cell_key,
    cell_times,
    check_cells,
    check_pinned_seed,
    fastest_s,
    ingest_args,
    instance_facts,
    load_pins,
    provenance,
    sweep_config,
    sweep_in_process,
)
from corpus import write_corpus
from spans import SpanRecorder

SYNTHETIC = ("risky", "combined", "mean", "feasibility")
ALGORITHMS = ("fcsr", "sr", "us", "etc")
RUN_BUDGET = 90000
PORTFOLIO_RUN_BUDGET = 1000
RUN_SAMPLES = 100
FCSR_PARAMS = {"feasibility_fraction": 0.2, "apt_fraction": 0.3}

# Per-call timings, reported as <name>.p50 and <name>.p90.
TIMINGS = {
    "algorithms.apt_ns_per_pull": "ns",
    "algorithms.suf_ns_per_pull": "ns",
    "algorithms.uniform_ns_per_pull": "ns",
    "algorithms.schedule_us": "us",
    **{
        f"algorithms.run_ms.{alg}.{inst}": "ms"
        for alg in ALGORITHMS for inst in SYNTHETIC + ("portfolio",)
    },
    "core.generator_us": "us",
    "core.draw_sum_us.gaussian": "us",
    "core.refill_us.gaussian": "us",
    "core.draw_sum_us.empirical": "us",
    "core.refill_us.empirical": "us",
    "core.oracle_us": "us",
    "hardness.compute_us": "us",
    "harness.stream_id_us": "us",
    "harness.task_pickle_ms": "ms",
    "harness.cell_s": "s",
    "movielens.select_ms": "ms",
    "movielens.build_ms": "ms",
    "serialize.instance_write_ms": "ms",
    "serialize.instance_read_ms": "ms",
}
# Single values.
SCALARS = {
    "algorithms.pulls_per_trial.uniform": "count",
    "algorithms.pulls_per_trial.apt": "count",
    "algorithms.pulls_per_trial.suf": "count",
    "algorithms.budget_used_frac": "ratio",
    "harness.task_pickle_kb": "KB",
    "harness.tasks_per_cell": "count",
    "harness.parallel_efficiency": "ratio",
    "movielens.parse_rows_per_s": "rows/s",
    "serialize.instance_doc_kb": "KB",
    "trace.overhead_frac": "ratio",
}


def _call_targets():
    """Public calls that get a span wherever they are used."""
    return [
        ("cli.main", cli, "main"),
        ("movielens.parse_corpus", movielens, "parse_corpus"),
        ("movielens.auto_select_portfolios", movielens, "auto_select_portfolios"),
        ("movielens.build_instance", movielens, "build_instance"),
        ("serialize.write_instance", serialize, "write_instance"),
        ("serialize.read_instance", serialize, "read_instance"),
        ("core.oracle", core, "oracle"),
        ("hardness.compute_hardness", hardness, "compute_hardness"),
        ("harness.run_sweep", harness, "run_sweep"),
        ("harness.trial_stream_id", harness, "trial_stream_id"),
        ("algorithms.run_algorithm", algorithms, "run_algorithm"),
        ("algorithms.build_schedule", algorithms, "build_schedule"),
        ("algorithms.uniform_phase", algorithms, "uniform_phase"),
        ("algorithms.apt_phase", algorithms, "apt_phase"),
        ("algorithms.sample_until_feasible", algorithms, "sample_until_feasible"),
        ("core.RngStream.generator", core.RngStream, "generator"),
    ]


def _leaf_targets():
    """Per-pull calls: spans here cost about a microsecond each, so they are
    installed only for the traced sweep, whose overhead is reported."""
    return [
        (f"core.{cls.__name__}.{method}", cls, method)
        for cls in (core.Gaussian, core.Empirical)
        for method in ("draw_sum", "draw_many")
    ]


class Tally:
    """Trials attempted and failed, with a note per failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: dict[str, str] = {}

    def fail(self, key: str, note: str, trials: int) -> None:
        self.problems[key] = note
        self.failed += trials


def _quantiles(values) -> tuple[float, float]:
    p50, p90 = np.percentile(np.asarray(values, dtype=np.float64), [50, 90])
    return float(p50), float(p90)


def _timed(rec: SpanRecorder, name: str, fn, calls, scale: float) -> list[float]:
    """Call ``fn(*args)`` for each args in ``calls`` inside spans named
    ``name`` under a fresh section; durations in ns divided by ``scale``."""
    traced = rec.wrap(name, fn)
    with rec.section(f"bench.{name}") as sec:
        for args in calls:
            traced(*args)
    return [d / scale for d in rec.durations_ns(name, parent=sec)]


def _sweep(work: Path, tag: str, config: dict, workers: int, tally: Tally) -> list[dict]:
    """One sweep through ``fcsr.cli.main``; returns its cells."""
    cells = sweep_in_process(work, tag, config, workers)
    tally.attempted += sum(c["trials"] for c in cells)
    return cells


def _errors(cells: list[dict]) -> dict[str, int]:
    return {cell_key(c): c["error_count"] for c in cells}


def _compare(tag: str, got: list[dict], want: list[dict], tally: Tally) -> None:
    """Cells of two sweeps of the same trials must count the same errors."""
    want_errors = _errors(want)
    for cell in got:
        key = cell_key(cell)
        if cell["error_count"] != want_errors.get(key):
            tally.fail(f"{tag}: {key}", f"{cell['error_count']} errors vs {want_errors.get(key)}", cell["trials"])


def _replay(instance, alg, budget, seed, trials: range, params, best, tally, key) -> dict:
    """Re-run trials exactly as the sweep does, checking each trace.

    Returns the pull totals by kind and the error count.
    """
    k = instance.num_arms
    pulls = {"uniform": 0, "apt": 0, "suf": 0, "total": 0}
    errors = 0
    for t in trials:
        rng = core.RngStream(seed, harness.trial_stream_id(alg, budget, t))
        trace = algorithms.run_algorithm(alg, instance, budget, rng, **params)
        if trace.pulls_total > budget or not 0 <= trace.decision <= k:
            tally.fail(f"{key} trial {t}", f"pulls {trace.pulls_total} of {budget}, decision {trace.decision}", 1)
        errors += trace.decision != best
        for phase, n in trace.pulls_by_phase.items():
            pulls[phase if phase in ("apt", "suf") else "uniform"] += n
        pulls["total"] += trace.pulls_total
    tally.attempted += len(trials)
    pulls["errors"] = errors
    return pulls


def _typical_sizes(inst) -> dict:
    """Median per-call budgets of FCSR's three passes on ``inst`` at T=90000."""
    k, m, budget = inst.num_arms, inst.num_attributes, RUN_BUDGET
    f, g = FCSR_PARAMS["feasibility_fraction"], FCSR_PARAMS["apt_fraction"]
    schedule = algorithms.build_schedule(k, budget, f)
    uniform, apt = [], []
    for r, delta in enumerate(schedule.delta, start=1):
        alive = k + 1 - r
        uniform += [int((1 - g) * delta)] * alive
        apt += [int(g * delta)] * alive
    per_attribute = int(np.median(uniform)) // m
    return {
        "uniform": per_attribute * m,
        "per_attribute": per_attribute,
        "apt": int(np.median(apt)),
        "suf": int(f * budget / k),
    }


def run_traced(workload: str, seed: int, work: Path) -> dict:
    spec = WORKLOADS[workload]
    pool_spec = WORKLOADS["portfolio-pool"]
    pins = load_pins()
    rec = SpanRecorder()
    tally = Tally()
    timings: dict[str, list[float]] = {}
    scalars: dict[str, float] = {}

    # 1. The seed's corpus, ingested as a user would.
    corpus = write_corpus(seed, work / "corpus")
    inst_path = work / "instance.json"
    with rec.installed(_call_targets()), rec.section("bench.ingest"):
        if cli.main(ingest_args(pool_spec, seed, corpus, inst_path)) != 0:
            raise BenchError("fcsr ingest failed")
    portfolio = serialize.read_instance(inst_path)
    portfolio_facts = instance_facts(portfolio)
    if workload == "portfolio-pool":
        instance, facts = portfolio, portfolio_facts
    else:
        instance = serialize.resolve_instance(spec["instance"])[0]
        facts = instance_facts(instance)

    # 2. The workload's sweep, untraced and traced in turn, three times each.
    config = sweep_config(spec, seed, str(inst_path))
    plain, traced = [], []
    for _ in range(3):
        plain.append(_sweep(work, "plain", config, spec["workers"], tally))
        with rec.installed(_call_targets() + _leaf_targets()), rec.section("bench.traced_sweep"):
            traced.append(_sweep(work, "traced", config, spec["workers"], tally))
    cells = plain[0]
    for key, note in check_cells(workload, seed, cells, pins).items():
        tally.fail(f"sweep: {key}", note, spec["trials"])
    for other in plain[1:] + traced:
        _compare("repeated sweep", other, cells, tally)
    trials, problems = check_pinned_seed(workload, work / "pinned", pins)
    tally.attempted += trials
    for key, note in problems.items():
        tally.fail(f"default seed: {key}", note, spec["trials"])
    scalars["trace.overhead_frac"] = 1.0 - (
        fastest_s([cell_times(c) for c in plain]) / fastest_s([cell_times(c) for c in traced])
    )
    timings["harness.cell_s"] = [c["wall_time"] for run in plain for c in run]

    # 3. Every trial of the workload, replayed.
    totals = {"uniform": 0, "apt": 0, "suf": 0, "total": 0}
    budget_sum = 0
    errors = _errors(cells)
    with rec.installed(_call_targets()), rec.section("bench.replay"):
        for alg in spec["algorithms"]:
            for budget in spec["budgets"]:
                key = f"{alg}@{budget}"
                got = _replay(instance, alg, budget, seed, range(spec["trials"]),
                              spec["params"].get(alg, {}), facts["best_arm"], tally, f"replay {key}")
                if got["errors"] != errors.get(key):
                    tally.fail(f"replay {key}", f"{got['errors']} errors vs sweep {errors.get(key)}", spec["trials"])
                for kind in totals:
                    totals[kind] += got[kind]
                budget_sum += budget * spec["trials"]
    replayed = spec["trials"] * len(spec["algorithms"]) * len(spec["budgets"])
    for kind in ("uniform", "apt", "suf"):
        scalars[f"algorithms.pulls_per_trial.{kind}"] = totals[kind] / replayed
    scalars["algorithms.budget_used_frac"] = totals["total"] / budget_sum

    # 4. Per-trial cost of each algorithm on each instance. Trials of the 20
    # (algorithm, instance) pairs are interleaved, so that a slow stretch of
    # the machine spreads over all of them.
    run_instances = {name: harness.build_synthetic(name) for name in SYNTHETIC}
    run_instances["portfolio"] = portfolio
    pairs = [
        (alg, name, inst, PORTFOLIO_RUN_BUDGET if name == "portfolio" else RUN_BUDGET,
         core.oracle(inst).best_arm)
        for name, inst in run_instances.items() for alg in ALGORITHMS
    ]
    with rec.installed(_call_targets()), rec.section("bench.run") as sec:
        for t in range(RUN_SAMPLES):
            for alg, name, inst, budget, best in pairs:
                _replay(inst, alg, budget, seed, range(t, t + 1),
                        FCSR_PARAMS if alg == "fcsr" else {}, best, tally, f"run {alg}.{name}")
    durations = rec.durations_ns("algorithms.run_algorithm", parent=sec)
    for i, (alg, name, *_) in enumerate(pairs):
        timings[f"algorithms.run_ms.{alg}.{name}"] = [d / 1e6 for d in durations[i::len(pairs)]]

    # 5. Single calls into each layer.
    risky = harness.build_synthetic("risky")
    sizes = _typical_sizes(risky)
    _measure_algorithms(rec, seed, risky, sizes, timings)
    _measure_core(rec, seed, sizes, instance, portfolio, spec, timings)
    _measure_movielens(rec, seed, corpus, pool_spec, portfolio, work, timings, scalars)

    # 6. The process pool.
    _measure_pool(rec, work, sweep_config(pool_spec, seed, str(inst_path)), tally, timings, scalars)

    for name, f in (("workload", facts), ("portfolio", portfolio_facts)):
        if "problem" in f:
            tally.fail(f"{name} instance", f["problem"], tally.attempted)

    metrics = {}
    for name, unit in TIMINGS.items():
        p50, p90 = _quantiles(timings[name])
        metrics[f"{name}.p50"] = {"value": p50, "unit": unit}
        metrics[f"{name}.p90"] = {"value": p90, "unit": unit}
    for name, unit in SCALARS.items():
        metrics[name] = {"value": scalars[name], "unit": unit}

    spans_path = OUT_DIR / f"{workload}-seed{seed}-spans.npz"
    OUT_DIR.mkdir(exist_ok=True)
    rec.write(spans_path)
    return {
        "attempted": tally.attempted,
        "failed": min(tally.failed, tally.attempted),
        "metrics": metrics,
        "details": {
            "provenance": provenance(
                workload, seed, spec["workers"], sweep_config(spec, seed, inst_path.name), facts
            ),
            "oracle": facts,
            "portfolio_oracle": portfolio_facts,
            "problems": tally.problems,
            "samples": {name: len(values) for name, values in timings.items()},
            "means": {name: float(np.mean(values)) for name, values in timings.items()},
            "self_time": rec.self_times(),
            "spans_file": spans_path.name,
        },
    }


def _measure_pool(rec, work, config, tally, timings, scalars) -> None:
    """The portfolio sweep at one worker and at one worker per CPU.

    The pool's tasks are captured by subclassing the executor the harness
    uses, then pickled again, one by one, to time what each task costs to
    send. If the harness stops using a ``ProcessPoolExecutor``, the task
    metrics read 0.
    """
    base = getattr(harness, "ProcessPoolExecutor", None)
    tasks: list[tuple] = []
    per_map: list[int] = []
    if base is not None:
        class CapturingExecutor(base):
            def map(self, fn, *iterables, **kwargs):
                columns = [list(it) for it in iterables]
                tasks.extend(zip(*columns))
                per_map.append(len(columns[0]))
                return super().map(fn, *columns, **kwargs)

    # Two rounds each, alternating, so that a slow stretch of the machine
    # does not land on one side only.
    one, many = [], []
    for _ in range(2):
        one.append(_sweep(work, "pool1", config, 1, tally))
        if base is not None:
            harness.ProcessPoolExecutor = CapturingExecutor
        try:
            many.append(_sweep(work, "pooln", config, NPROC, tally))
        finally:
            if base is not None:
                harness.ProcessPoolExecutor = base
    for cells in one[1:] + many:
        _compare(f"workers {NPROC} vs 1", cells, one[0], tally)
    scalars["harness.parallel_efficiency"] = fastest_s([cell_times(c) for c in one]) / (
        NPROC * fastest_s([cell_times(c) for c in many])
    )
    scalars["harness.tasks_per_cell"] = float(np.median(per_map)) if per_map else 0.0
    dumps = rec.wrap("harness.task_pickle", ForkingPickler.dumps)
    with rec.section("bench.harness.task_pickle") as sec:
        task_kb = [len(dumps(task, pickle.DEFAULT_PROTOCOL)) / 1024.0 for task in tasks]
    timings["harness.task_pickle_ms"] = [
        d / 1e6 for d in rec.durations_ns("harness.task_pickle", parent=sec)
    ] or [0.0]
    scalars["harness.task_pickle_kb"] = float(np.median(task_kb)) if task_kb else 0.0


def _measure_algorithms(rec: SpanRecorder, seed: int, inst, size: dict, timings: dict) -> None:
    """Phase functions and the schedule at FCSR's typical call sizes on risky@90000."""
    timings["algorithms.schedule_us"] = _timed(
        rec, "algorithms.build_schedule", algorithms.build_schedule,
        [(inst.num_arms, RUN_BUDGET, FCSR_PARAMS["feasibility_fraction"])] * 500, 1e3,
    )
    tau = inst.threshold
    # Arm 1 is risky: four attributes well above the threshold, one at 0.49.
    # Each sample runs the three passes in order on fresh statistics.
    states = [
        (core.StatsState.for_instance(inst), core.RngStream(seed, i).generator())
        for i in range(200)
    ]
    timings["algorithms.uniform_ns_per_pull"] = _timed(
        rec, "algorithms.uniform_phase", algorithms.uniform_phase,
        [(inst, stats, 1, size["uniform"], gen) for stats, gen in states], size["uniform"],
    )
    timings["algorithms.apt_ns_per_pull"] = _timed(
        rec, "algorithms.apt_phase", algorithms.apt_phase,
        [(inst, stats, 1, size["apt"], tau, gen) for stats, gen in states], size["apt"],
    )
    # SUF stops once the arm looks feasible, so its pulls per call vary.
    traced = rec.wrap("algorithms.sample_until_feasible", algorithms.sample_until_feasible)
    pulls = []
    with rec.section("bench.algorithms.sample_until_feasible") as sec:
        for stats, gen in states:
            before = stats.total_pulls()
            traced(inst, stats, 1, size["suf"], tau, gen)
            pulls.append(stats.total_pulls() - before)
    durations = rec.durations_ns("algorithms.sample_until_feasible", parent=sec)
    timings["algorithms.suf_ns_per_pull"] = [d / n for d, n in zip(durations, pulls) if n] or [0.0]


def _measure_core(rec, seed, sizes, instance, portfolio, spec, timings) -> None:
    gen = core.RngStream(seed, 1).generator()
    timings["core.generator_us"] = _timed(
        rec, "core.RngStream.generator", core.RngStream.generator,
        [(core.RngStream(seed, i),) for i in range(2000)], 1e3,
    )
    gauss = core.Gaussian(0.7, 0.3)
    quota = sizes["per_attribute"]
    timings["core.draw_sum_us.gaussian"] = _timed(
        rec, "core.Gaussian.draw_sum", core.Gaussian.draw_sum, [(gauss, quota, gen)] * 2000, 1e3
    )
    timings["core.refill_us.gaussian"] = _timed(
        rec, "core.Gaussian.draw_many", core.Gaussian.draw_many, [(gauss, 512, gen)] * 2000, 1e3
    )
    emp = portfolio.arms[0][0]
    quota = PORTFOLIO_RUN_BUDGET // (portfolio.num_arms * portfolio.num_attributes)
    timings["core.draw_sum_us.empirical"] = _timed(
        rec, "core.Empirical.draw_sum", core.Empirical.draw_sum, [(emp, quota, gen)] * 500, 1e3
    )
    timings["core.refill_us.empirical"] = _timed(
        rec, "core.Empirical.draw_many", core.Empirical.draw_many, [(emp, 512, gen)] * 1000, 1e3
    )
    timings["harness.stream_id_us"] = _timed(
        rec, "harness.trial_stream_id", harness.trial_stream_id,
        [("fcsr", RUN_BUDGET, t) for t in range(5000)], 1e3,
    )
    # Oracle and hardness on fresh copies of the workload's instance, so that
    # lazily computed means are paid for as in a fresh process.
    doc = serialize.instance_to_dict(instance)
    copies = 30 if spec["instance"] is None else 200
    timings["core.oracle_us"] = _timed(
        rec, "core.oracle", core.oracle,
        [(serialize.instance_from_dict(doc),) for _ in range(copies)], 1e3,
    )
    timings["hardness.compute_us"] = _timed(
        rec, "hardness.compute_hardness", hardness.compute_hardness,
        [(serialize.instance_from_dict(doc),) for _ in range(copies)], 1e3,
    )


def _measure_movielens(rec, seed, corpus, pool_spec, portfolio, work, timings, scalars) -> None:
    ing = pool_spec["ingest"]
    parse = rec.wrap("movielens.parse_corpus", movielens.parse_corpus)
    with rec.section("bench.movielens.parse_corpus") as sec:
        for _ in range(5):
            parsed = parse(corpus["ratings_csv"], corpus["movies_csv"])
    rows = len(parsed) + parsed.skipped_rows
    scalars["movielens.parse_rows_per_s"] = float(np.median(
        [rows * 1e9 / d for d in rec.durations_ns("movielens.parse_corpus", parent=sec)]
    ))
    select_args = (ing["k"], ing["m"], ing["min_ratings"])
    timings["movielens.select_ms"] = _timed(
        rec, "movielens.auto_select_portfolios", movielens.auto_select_portfolios,
        [(dataclasses.replace(parsed, _by_movie=None), *select_args) for _ in range(20)], 1e6,
    )
    pspec = movielens.auto_select_portfolios(parsed, *select_args, seed=seed)
    timings["movielens.build_ms"] = _timed(
        rec, "movielens.build_instance", movielens.build_instance, [(parsed, pspec)] * 20, 1e6
    )
    path = work / "written.json"
    timings["serialize.instance_write_ms"] = _timed(
        rec, "serialize.write_instance", serialize.write_instance, [(portfolio, path)] * 20, 1e6
    )
    scalars["serialize.instance_doc_kb"] = path.stat().st_size / 1024.0
    timings["serialize.instance_read_ms"] = _timed(
        rec, "serialize.read_instance", serialize.read_instance, [(path,)] * 20, 1e6
    )
