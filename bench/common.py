"""Workloads, sweep configs, correctness checks and provenance shared by the
untraced run (bench/run.py) and the traced run (bench/traced.py)."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_PARENT = ROOT / ".bench_work"
PINS_PATH = BENCH_DIR / "pins.json"

DEFAULT_SEED = 20250808
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = {
    "fcsr-risky": {
        "instance": {"name": "risky", "gap": 0.01, "variance": 0.3},
        "algorithms": ["fcsr"],
        "budgets": [90000],
        "trials": 20,
        "workers": 1,
        "params": {"fcsr": {"feasibility_fraction": 0.2, "apt_fraction": 0.3}},
    },
    "baselines-grid": {
        "instance": {"name": "combined", "gap": 0.01, "variance": 0.3},
        "algorithms": ["sr", "us", "etc"],
        "budgets": list(range(10000, 90001, 10000)),
        "trials": 50,
        "workers": 1,
        "params": {"etc": {"explore_fraction": 0.5}},
    },
    "portfolio-pool": {
        "instance": None,  # the file written by `fcsr ingest`
        "algorithms": ["fcsr", "sr", "us", "etc"],
        "budgets": [500, 1000],
        "trials": 50,
        "workers": NPROC,
        "params": {
            "fcsr": {"feasibility_fraction": 0.2, "apt_fraction": 0.3},
            "etc": {"explore_fraction": 0.5},
        },
        "ingest": {"k": 3, "m": 5, "min_ratings": 800},
    },
}

# (name, unit) of the end-to-end metrics of an untraced run.
END_TO_END = (
    ("trials_per_s", "trials/s"),
    ("cpu_ms_per_trial", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark could not run the program; no result is printed."""


def ingest_args(spec: dict, seed: int, corpus: dict, out: Path) -> list[str]:
    ing = spec["ingest"]
    return [
        "ingest", "--ratings", corpus["ratings_csv"], "--movies", corpus["movies_csv"],
        "--k", str(ing["k"]), "--m", str(ing["m"]), "--min-ratings", str(ing["min_ratings"]),
        "--seed", str(seed), "--out", str(out),
    ]


def sweep_config(spec: dict, seed: int, instance_ref) -> dict:
    """The sweep config document for one workload; its base seed is the workload seed."""
    return {
        "instance": instance_ref if spec["instance"] is None else spec["instance"],
        "algorithms": spec["algorithms"],
        "budgets": spec["budgets"],
        "trials": spec["trials"],
        "base_seed": seed,
        "params": spec["params"],
    }


def sweep_args(config_path: Path, out: Path, workers: int) -> list[str]:
    return ["sweep", "--config", str(config_path), "--out", str(out), "--workers", str(workers)]


def read_cells(table_path: Path) -> list[dict]:
    """Cells of the sweep JSON the CLI writes next to its table."""
    doc = json.loads(Path(str(table_path) + ".json").read_text(encoding="utf-8"))
    return doc["cells"]


def sweep_in_process(work: Path, tag: str, config: dict, workers: int) -> list[dict]:
    """One ``fcsr sweep`` through ``fcsr.cli.main`` in this interpreter; returns its cells."""
    from fcsr.cli import main as fcsr_main

    config_path = work / f"{tag}.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    table = work / f"{tag}.csv"
    if fcsr_main(sweep_args(config_path, table, workers)) != 0:
        raise BenchError(f"fcsr sweep ({tag}) failed")
    return read_cells(table)


def sweep_at_seed(workload: str, seed: int, work: Path) -> list[dict]:
    """The workload's sweep at ``seed`` in this interpreter with one worker,
    after ingesting the seed's corpus if the workload needs it."""
    from fcsr.cli import main as fcsr_main

    spec = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    instance_ref = None
    if spec["instance"] is None:
        from corpus import write_corpus

        corpus = write_corpus(seed, work / "corpus")
        instance_ref = str(work / "instance.json")
        if fcsr_main(ingest_args(spec, seed, corpus, Path(instance_ref))) != 0:
            raise BenchError("fcsr ingest failed")
    return sweep_in_process(work, f"{workload}-{seed}", sweep_config(spec, seed, instance_ref), 1)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------


def cell_key(cell: dict) -> str:
    return f"{cell['algorithm']}@{cell['budget']}"


def cell_times(cells: list[dict]) -> dict[str, float]:
    return {cell_key(c): c["wall_time"] for c in cells}


def fastest_s(runs: list[dict[str, float]]) -> float:
    """Sum over cells of each cell's fastest time in several runs of one sweep."""
    return sum(min(run[key] for run in runs) for key in runs[0])


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def check_cells(workload: str, seed: int, cells: list[dict], pins: dict) -> dict[str, str]:
    """Problems per cell key; an empty dict means every cell passed.

    Every cell must have run (no ``failed:`` note) with an error count in
    0..trials. For the seeds pinned in pins.json each count must also equal
    the count captured from the commit that added the benchmark.
    """
    spec = WORKLOADS[workload]
    pinned = pins[workload].get(str(seed))
    expected = {f"{a}@{b}" for a in spec["algorithms"] for b in spec["budgets"]}
    problems = {key: "cell missing" for key in expected - {cell_key(c) for c in cells}}
    for cell in cells:
        key, errors, n = cell_key(cell), cell["error_count"], cell["trials"]
        if cell["note"].startswith("failed"):
            problems[key] = cell["note"]
        elif n != spec["trials"] or not 0 <= errors <= n:
            problems[key] = f"{errors} errors in {n} trials"
        elif pinned is not None and errors != pinned.get(key):
            problems[key] = f"{errors} errors, pinned {pinned.get(key)}"
    return problems


def check_pinned_seed(workload: str, work: Path, pins: dict) -> tuple[int, dict[str, str]]:
    """Run the workload at the default seed, untimed, and check every cell
    against pins.json, so that a run at any seed checks decisions exactly.

    Returns the trials run and the problems per cell key.
    """
    cells = sweep_at_seed(workload, DEFAULT_SEED, work)
    return sum(c["trials"] for c in cells), check_cells(workload, DEFAULT_SEED, cells, pins)


def independent_oracle(doc: dict) -> dict:
    """Feasible arms and best arm computed from an instance document alone."""
    def mean(dist: dict) -> float:
        if dist["kind"] == "gaussian":
            return dist["mean"]
        if dist["kind"] == "bernoulli":
            return dist["p"]
        return math.fsum(dist["values"]) / len(dist["values"])

    tau = doc["threshold"]
    attr_means = [[mean(d) for d in arm["attributes"]] for arm in doc["arms"]]
    feasible = [i + 1 for i, row in enumerate(attr_means) if min(row) > tau]
    arm_means = [statistics.fmean(row) for row in attr_means]
    best = max(feasible, key=lambda i: (arm_means[i - 1], -i)) if feasible else 0
    return {"feasible_arms": feasible, "best_arm": best}


def instance_facts(instance) -> dict:
    """Digest and oracle of an instance, and a cross-check of the oracle."""
    from fcsr.core import oracle
    from fcsr.serialize import instance_to_dict

    doc = instance_to_dict(instance)
    truth = oracle(instance)
    facts = {
        "instance_digest": hashlib.sha256(
            json.dumps(doc, sort_keys=True).encode()
        ).hexdigest(),
        "num_arms": instance.num_arms,
        "num_attributes": instance.num_attributes,
        "feasible_arms": list(truth.feasible_arms),
        "best_arm": truth.best_arm,
    }
    mine = independent_oracle(doc)
    if mine != {"feasible_arms": facts["feasible_arms"], "best_arm": facts["best_arm"]}:
        facts["problem"] = f"package oracle {facts['feasible_arms']}/{facts['best_arm']} vs {mine}"
    elif not facts["feasible_arms"]:
        facts["problem"] = "no feasible arm"
    return facts


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, workers: int, config: dict, facts: dict) -> dict:
    import numpy
    import fcsr

    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "fcsr").rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode())
        src_digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "source_digest": src_digest.hexdigest(),
        "fcsr_version": fcsr.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": NPROC,
        "workers": workers,
        "workload": workload,
        "seed": seed,
        "instance_digest": facts.get("instance_digest"),
        "config": config,
    }


def median(values) -> float:
    return float(statistics.median(values))


