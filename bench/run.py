"""fcsr benchmark: Monte-Carlo sweep throughput, end to end and layer by layer.

Usage (from the root of a source checkout; nothing needs installing):

    python3 bench/run.py --workload fcsr-risky --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

* ``fcsr-risky``: FCSR on the ``risky`` instance at T=90000, one worker.
* ``baselines-grid``: ``sr``, ``us`` and ``etc`` on ``combined`` over the
  figure grid 10000..90000 (27 cells), one worker.
* ``portfolio-pool``: a MovieLens-layout corpus generated from the seed,
  ``fcsr ingest`` (K=3, M=5, 800 ratings), then all four algorithms at
  budgets 500 and 1000 with one worker per CPU.

With ``--trace 0`` the script drives the package as a user does, each
command in a fresh interpreter: ``fcsr ingest`` (for ``portfolio-pool``,
three times) and then ``fcsr sweep`` on a generated config, repeated for
``--seconds``. It reports the end-to-end metrics over those repetitions (see
``measure``). With ``--trace 1`` it runs the traced per-layer suite instead
(bench/traced.py), whose length does not depend on ``--seconds``. Either way
it checks the sweep outputs and prints, as its last stdout line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller
result file with provenance goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    END_TO_END,
    OUT_DIR,
    ROOT,
    SRC,
    WORK_PARENT,
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
    median,
    provenance,
    read_cells,
    sweep_args,
    sweep_config,
)

MIN_REPS = 3
INGESTS = 3
CHILD_TIMEOUT_S = 120

# ---------------------------------------------------------------------------
# Driving the CLI
# ---------------------------------------------------------------------------


def run_cli(args: list[str], cwd: Path) -> dict:
    """Run ``fcsr <args>`` through bench/runner.py in a fresh interpreter.

    Returns the runner's measurements plus ``wall_s``, the wall time of the
    whole child process as the parent saw it (interpreter start included).
    The child runs in its own process group, which is killed on timeout so
    that no pool worker outlives it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "runner.py"), *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"fcsr {args[0]} did not finish in {CHILD_TIMEOUT_S} s")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"fcsr {args[0]} exited with {proc.returncode}: {err.strip()[-2000:]}")
    stats = json.loads(out.strip().splitlines()[-1])
    stats["wall_s"] = wall
    return stats


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: int, work: Path) -> dict:
    """Repeat the workload's sweep for ``seconds`` and report the end-to-end metrics.

    Every repetition runs the same trials. The CPU of a shared machine can
    slow down by 1.5x or more for seconds at a time, so ``trials_per_s``
    sums, over the cells, each cell's fastest time in any repetition, and
    ``cpu_ms_per_trial`` is that of the cheapest repetition. ``setup_s``
    (interpreter start, imports, config and instance load, oracle, pool
    start-up and shutdown, result write, plus one ``fcsr ingest`` for
    ``portfolio-pool``) and ``peak_rss_mb`` are medians over repetitions.
    Medians of the first two go to the result file as well.
    """
    from fcsr.serialize import read_instance, resolve_instance

    spec = WORKLOADS[workload]
    pins = load_pins()
    inst_path = work / "instance.json"
    corpus = None
    if spec["instance"] is None:
        from corpus import write_corpus

        corpus = write_corpus(seed, work / "corpus")
    config = sweep_config(spec, seed, inst_path.name)
    config_path = work / "sweep.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    table = work / "cells.csv"

    deadline = time.perf_counter() + seconds
    # Ingest a few times (set-up cost), then repeat the sweep until the deadline.
    ingests = [
        run_cli(ingest_args(spec, seed, corpus, inst_path), work)
        | {"instance_sha256": hashlib.sha256(inst_path.read_bytes()).hexdigest()}
        for _ in range(INGESTS if corpus is not None else 0)
    ]
    reps: list[dict] = []
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        sweep = run_cli(sweep_args(config_path, table, spec["workers"]), work)
        cells = read_cells(table)
        trials = sum(c["trials"] for c in cells)
        sweep_s = sum(c["wall_time"] for c in cells)
        reps.append({
            "trials": trials,
            "sweep_s": sweep_s,
            "setup_s": sweep["wall_s"] - sweep_s,
            "cpu_s": sweep["cpu_s"],
            "maxrss_kb": sweep["maxrss_kb"],
            "cell_s": cell_times(cells),
            "errors": {cell_key(c): c["error_count"] for c in cells},
            "problems": check_cells(workload, seed, cells, pins),
        })

    instance = read_instance(inst_path) if corpus is not None else resolve_instance(spec["instance"])[0]
    facts = instance_facts(instance)
    # Repetitions run the same inputs, so they must agree exactly.
    for rep in reps[1:]:
        for key, errors in rep["errors"].items():
            if errors != reps[0]["errors"].get(key):
                rep["problems"].setdefault(key, f"{errors} errors, first repetition {reps[0]['errors'].get(key)}")
    if len({i["instance_sha256"] for i in ingests}) > 1:
        facts["problem"] = "fcsr ingest wrote different instances for the same inputs"

    # The timed runs are pinned only for a few seeds; decisions are checked
    # exactly on every run by an untimed sweep at the default seed.
    pinned_trials, pinned_problems = check_pinned_seed(workload, work / "pinned", pins)

    attempted = sum(rep["trials"] for rep in reps) + pinned_trials
    if "problem" in facts:
        failed = attempted
    else:
        failed = spec["trials"] * (sum(len(rep["problems"]) for rep in reps) + len(pinned_problems))
    metrics = {
        "trials_per_s": reps[0]["trials"] / fastest_s([r["cell_s"] for r in reps]),
        "cpu_ms_per_trial": min(1000.0 * r["cpu_s"] / r["trials"] for r in reps),
        "setup_s": median(r["setup_s"] for r in reps)
        + (median(i["wall_s"] for i in ingests) if ingests else 0.0),
        "peak_rss_mb": median(r["maxrss_kb"] / 1024.0 for r in reps),
    }
    medians = {
        "trials_per_s": median(r["trials"] / r["sweep_s"] for r in reps),
        "cpu_ms_per_trial": median(1000.0 * r["cpu_s"] / r["trials"] for r in reps),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
        "details": {
            "provenance": provenance(workload, seed, spec["workers"], config, facts),
            "oracle": facts,
            "default_seed_problems": pinned_problems,
            "median_over_repetitions": medians,
            "corpus": corpus and {k: v for k, v in corpus.items() if not k.endswith("_csv")},
            "ingests": [{k: i[k] for k in ("wall_s", "main_s", "cpu_s", "maxrss_kb", "instance_sha256")} for i in ingests],
            "repetitions": reps,
        },
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _import_package() -> None:
    """Import fcsr from this checkout's src/, or fail."""
    if not (SRC / "fcsr" / "cli.py").is_file():
        raise BenchError(f"no fcsr package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import fcsr

    if Path(fcsr.__file__).resolve().parent != (SRC / "fcsr").resolve():
        raise BenchError(f"imported fcsr from {fcsr.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = None
    try:
        _import_package()
        WORK_PARENT.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_PARENT))
        if args.trace:
            from traced import run_traced

            result = run_traced(args.workload, args.seed, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
            if WORK_PARENT.exists() and not any(WORK_PARENT.iterdir()):
                WORK_PARENT.rmdir()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(result["metrics"]):
        print(f"error: metrics {sorted(result['metrics'])} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    failed_frac = result["failed"] / result["attempted"]
    details = result.pop("details")
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(
        json.dumps({**result, "failed_frac": failed_frac, **details}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['attempted']} trials attempted, {result['failed']} failed; details in {out_path}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_frac = {failed_frac:.6g} ratio")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
