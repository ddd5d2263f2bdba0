"""Golden traces: the exact behaviour of every algorithm at fixed seeds.

A golden trace is one run's ``(decision, pulls_total, pulls_by_phase,
elimination_order, per_round_scores)`` with every score written as
``float.hex``, so a comparison is bit for bit; each scoring point is one
string of ``arm:score`` pairs. The grid covers all four algorithms on the
synthetic instances, ``combined`` at K=6, M=10 (which pins the score
arithmetic for M >= 8), a Bernoulli instance, ``table1-surrogate``, an
Empirical instance and seeded random Gaussian instances with M from 1 to 8,
at budgets 0, 1, K*M-1, K*M and an odd budget (0 and 1 on one synthetic
instance only), plus FCSR at T=90000 on risky
and combined, and a few runs with non-default fractions and thresholds. A
second section pins the three public phase functions applied in sequence to
one ``StatsState``.

``tests/test_golden_traces.py`` recomputes the grid and compares it with
``tests/golden_traces.json``. To rewrite that file, run from the repository
root::

    PYTHONPATH=src python tests/golden_capture.py

Regenerating the file changes what the suite accepts as correct behaviour:
do it only together with a CHANGES.md entry that says why the traces moved.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from fcsr.algorithms import (
    apt_phase,
    run_algorithm,
    sample_until_feasible,
    uniform_phase,
)
from fcsr.core import BanditInstance, Bernoulli, Empirical, Gaussian, RngStream, StatsState
from fcsr.harness import SYNTHETIC_NAMES, build_synthetic, trial_stream_id
from fcsr.movielens import table1_surrogate_instance

GOLDEN_PATH = Path(__file__).with_name("golden_traces.json")
ALGORITHMS = ("fcsr", "us", "sr", "etc")
SEED = 20250808
ODD_BUDGET = 1001
LONG_BUDGET = 90000
LONG_RUNS = ("risky", "combined")
# Runs away from the defaults: (instance, algorithm, budget, overrides), where
# an override is a run keyword or the instance's ``threshold``.
PARAM_RUNS = (
    ("combined", "fcsr", 2999, {"feasibility_fraction": 0.29, "apt_fraction": 0.55}),
    ("random3-k5-m6", "fcsr", 777, {"feasibility_fraction": 0.1, "apt_fraction": 0.9}),
    ("risky", "fcsr", 1001, {"threshold": 0.45}),
    ("mean", "sr", 1001, {"threshold": 0.69}),
    ("table1-surrogate", "us", 301, {"threshold": 0.6}),
    ("combined", "etc", 2999, {"explore_fraction": 0.29}),
    ("combined-k6-m10", "etc", 1001, {"explore_fraction": 0.9, "threshold": 0.52}),
)


def _random_gaussian(seed: int, k: int, m: int) -> BanditInstance:
    rng = np.random.default_rng(seed)
    rows = tuple(
        tuple(
            Gaussian(float(mu), float(var))
            for mu, var in zip(rng.uniform(0.3, 0.8, m), rng.uniform(0.05, 0.5, m))
        )
        for _ in range(k)
    )
    return BanditInstance(rows, 0.5)


def _bernoulli() -> BanditInstance:
    rng = np.random.default_rng(11)
    rows = tuple(
        tuple(Bernoulli(float(p)) for p in rng.uniform(0.4, 0.9, 3)) for _ in range(4)
    )
    return BanditInstance(rows, 0.55)


def _empirical() -> BanditInstance:
    rng = np.random.default_rng(12)
    rows = tuple(
        tuple(
            Empirical(tuple(float(v) for v in rng.integers(1, 11, rng.integers(5, 40)) / 10))
            for _ in range(5)
        )
        for _ in range(3)
    )
    return BanditInstance(rows, 0.5)


def instances() -> dict[str, BanditInstance]:
    """Every instance of the grid, by name."""
    named = {name: build_synthetic(name) for name in SYNTHETIC_NAMES}
    named["combined-k6-m10"] = build_synthetic("combined", num_arms=6, num_attributes=10)
    named["bernoulli-k4-m3"] = _bernoulli()
    named["table1-surrogate"] = table1_surrogate_instance()
    named["empirical-k3-m5"] = _empirical()
    for seed, (k, m) in enumerate(((2, 1), (3, 3), (5, 6), (4, 8)), start=1):
        named[f"random{seed}-k{k}-m{m}"] = _random_gaussian(seed, k, m)
    return named


def run_cases(named: dict[str, BanditInstance]) -> list[tuple[str, str, int, dict]]:
    """(instance, algorithm, budget, overrides) for every trace of the grid."""
    cases = []
    for name, instance in named.items():
        km = instance.num_arms * instance.num_attributes
        # Budgets 0 and 1 make no pulls on a K=10, M=5 instance, so their
        # traces are all zeros; one synthetic instance pins that.
        tiny = (0, 1) if name not in SYNTHETIC_NAMES[1:] else ()
        for budget in (*tiny, km - 1, km, ODD_BUDGET):
            cases.extend((name, alg, budget, {}) for alg in ALGORITHMS)
        if name in LONG_RUNS:
            cases.append((name, "fcsr", LONG_BUDGET, {}))
    return cases + list(PARAM_RUNS)


def trace_record(
    instance: BanditInstance, name: str, algorithm: str, budget: int, params: dict
) -> dict:
    rng = RngStream(SEED, trial_stream_id(algorithm, budget, 0))
    # A case's ``threshold`` replaces the instance's; the rest are run keywords.
    keywords = dict(params)
    if "threshold" in keywords:
        instance = replace(instance, threshold=keywords.pop("threshold"))
    trace = run_algorithm(algorithm, instance, budget, rng, **keywords)
    return {
        "instance": name,
        "algorithm": algorithm,
        "budget": budget,
        "params": params,
        "decision": trace.decision,
        "pulls_total": trace.pulls_total,
        "pulls_by_phase": dict(trace.pulls_by_phase),
        "elimination_order": list(trace.elimination_order),
        "per_round_scores": [
            " ".join(f"{arm}:{float(s).hex()}" for arm, s in scores)
            for scores in trace.per_round_scores
        ],
    }


# Phase calls on one shared StatsState and generator: (kind, arm, budget).
# Later calls continue from the statistics the earlier ones left behind.
PHASE_SCRIPT = (
    ("uniform", 1, 23),
    ("apt", 1, 40),
    ("suf", 1, 30),
    ("uniform", 2, 7),
    ("apt", 2, 0),
    ("suf", 2, 25),
    ("apt", 1, 10),
    ("suf", -1, 15),
)
PHASE_INSTANCES = ("risky", "table1-surrogate", "empirical-k3-m5", "random4-k4-m8")


def phase_record(instance: BanditInstance, name: str) -> dict:
    stats = StatsState.for_instance(instance)
    gen = RngStream(SEED, 7).generator()
    tau = instance.threshold
    returns = []
    for kind, arm, budget in PHASE_SCRIPT:
        arm = arm if arm > 0 else instance.num_arms
        if kind == "uniform":
            returns.append(uniform_phase(instance, stats, arm, budget, gen))
        elif kind == "apt":
            returns.append(apt_phase(instance, stats, arm, budget, tau, gen))
        else:
            returns.append(sample_until_feasible(instance, stats, arm, budget, tau, gen))
    return {
        "instance": name,
        "returns": returns,
        "pull_counts": stats.pull_counts.tolist(),
        "reward_sums": [[float(x).hex() for x in row] for row in stats.reward_sums],
        "empirical_means": [[float(x).hex() for x in row] for row in stats.empirical_means],
    }


def capture() -> dict:
    named = instances()
    return {
        "seed": SEED,
        "traces": [
            trace_record(named[name], name, alg, budget, params)
            for name, alg, budget, params in run_cases(named)
        ],
        "phases": [phase_record(named[name], name) for name in PHASE_INSTANCES],
    }


def dump(doc: dict) -> str:
    """One record per line, so a moved trace shows up as a one-line diff."""
    compact = dict(separators=(",", ":"))
    lines = ['{"seed":%d,' % doc["seed"], '"traces":[']
    lines.append(",\n".join(json.dumps(t, **compact) for t in doc["traces"]))
    lines.append('],\n"phases":[')
    lines.append(",\n".join(json.dumps(p, **compact) for p in doc["phases"]))
    lines.append("]}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    GOLDEN_PATH.write_text(dump(capture()), encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
