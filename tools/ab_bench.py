"""Parent-against-change numbers for one benchmark workload.

    python3 tools/ab_bench.py --ref HEAD~1 --workload baselines-grid --seeds 401-410

Extracts the git ref ``--ref`` with ``git archive`` into a temporary
directory, then runs ``bench/run.py --trace 0`` there and in the working
tree, once per seed on each side, alternating which side runs first. For
each end-to-end metric that ``BENCHMARK.json`` declares, it prints each
side's median and quartiles, the change's median over the ref's, how many
pairs the change won, and a verdict against the metric's declared bound:

* ``regressed``: the change's median is worse than the ref's by more than
  the bound;
* ``gain``: the change won at least 9 in 10 of the pairs (a tie counts for
  neither side), and its median is better than the ref's by more than the
  ref's quartile spread, the rule a claimed gain must meet;
* ``unresolved``: the ref's quartile spread, over its median, exceeds the
  bound, and not every run of the change beats every run of the ref;
* ``ok``: otherwise.

One more row, informational and given no verdict, holds each side's
whole-sweep throughput: ``median_over_repetitions.trials_per_s`` of each
run's result file, the trials over the summed cell times of one
repetition, where the benchmark's ``trials_per_s`` sums each cell's fastest
time over the repetitions. It also prints each side's source size: the
lines of ``src/fcsr/*.py`` and the number of names ``fcsr`` exports. Each
run's metrics go to stderr as it ends. The script exits 1 when a metric
regressed, or when a run did not read ``correct=true`` with 0 failed, and
names the runs that did not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """The seeds lo..hi of "lo-hi"."""
    lo, hi = (int(x) for x in text.split("-"))
    return list(range(lo, hi + 1))


def bench(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``, of the benchmark's own length;
    its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def whole_sweep(checkout: Path, workload: str, seed: int) -> float:
    """``median_over_repetitions.trials_per_s`` of the result file that the
    untraced run of ``workload`` at ``seed`` left in ``checkout``."""
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))["median_over_repetitions"]["trials_per_s"]


def source_size(checkout: Path) -> tuple[int, int]:
    """(lines of ``src/fcsr/*.py``, ``len(fcsr.__all__)``) of ``checkout``,
    the names read in a fresh interpreter that imports its ``src``."""
    lines = sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "fcsr").glob("*.py"))
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    names = subprocess.run([sys.executable, "-c", "import fcsr; print(len(fcsr.__all__))"],
                           cwd=checkout, env=env, capture_output=True, text=True, check=True)
    return lines, int(names.stdout)


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def row(name: str, ref: list[float], new: list[float]) -> str:
    """A table row's name, each side's median and quartiles, and the
    change's median over the ref's."""
    (r1, r2, r3), (c1, c2, c3) = summary(ref), summary(new)
    ref_col, new_col = f"{r2:.5g} [{r1:.5g}, {r3:.5g}]", f"{c2:.5g} [{c1:.5g}, {c3:.5g}]"
    return f"{name:<18} {ref_col:<34} {new_col:<34} {c2 / r2:<6.3f}"


def wins(ref: list[float], new: list[float], higher: bool) -> int:
    """How many pairs (ref[i], new[i]) the change won."""
    return sum((b > a) if higher else (b < a) for a, b in zip(ref, new, strict=True))


def verdict(ref: list[float], new: list[float], higher: bool, bound: float) -> str:
    """``regressed``, ``gain``, ``unresolved`` or ``ok``, as the module
    docstring says, of the paired runs ``ref[i]`` and ``new[i]``."""
    (r1, r2, r3), c2 = summary(ref), statistics.median(new)
    if (c2 < r2 * (1 - bound)) if higher else (c2 > r2 * (1 + bound)):
        return "regressed"
    better = c2 - r2 if higher else r2 - c2
    if 10 * wins(ref, new, higher) >= 9 * len(ref) and better > r3 - r1:
        return "gain"
    beats_all = min(new) > max(ref) if higher else max(new) < min(ref)
    if (r3 - r1) / r2 > bound and not beats_all:
        return "unresolved"
    return "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git ref to compare against, e.g. HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help='"lo-hi", e.g. "401-410"; one pair per seed')
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]

    runs: dict[str, list[dict]] = {"ref": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        sides = {"ref": Path(tmp), "change": ROOT}
        for i, seed in enumerate(seeds):
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for side in order:
                result = bench(sides[side], args.workload, seed)
                sweep = whole_sweep(sides[side], args.workload, seed)
                runs[side].append({"seed": seed, "whole_sweep": sweep, **result})
                print(f"seed {seed} {side}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
        sizes = {side: source_size(path) for side, path in sides.items()}

    print(f"{args.workload}: {args.ref} against the working tree, {len(seeds)} pairs, "
          f"seeds {args.seeds}")
    print("source lines, exported names: "
          + ", ".join(f"{side} {lines}, {names}" for side, (lines, names) in sizes.items()))
    print(f"{'metric':<18} {'ref median [q1, q3]':<34} {'change median [q1, q3]':<34} ratio  wins  verdict")
    regressed = []
    for metric in declared:
        name = metric["name"]
        ref = [r["metrics"][name]["value"] for r in runs["ref"]]
        new = [r["metrics"][name]["value"] for r in runs["change"]]
        higher = metric["better"] == "higher"
        mark = verdict(ref, new, higher, metric["bound"])
        if mark == "regressed":
            regressed.append(name)
        print(f"{row(name, ref, new)} {wins(ref, new, higher):>2}/{len(seeds):<3} {mark}")
    ref, new = ([r["whole_sweep"] for r in runs[side]] for side in ("ref", "change"))
    print(f"{row('sweep trials/s', ref, new)} informational, no verdict")
    wrong = [(side, r["seed"]) for side, rs in runs.items() for r in rs if not r["correct"] or r["failed"]]
    if wrong:
        print(f"runs not correct: {wrong}")
    else:
        print("every run read correct=true with 0 failed")
    if regressed:
        print(f"regressed beyond the declared bound: {regressed}")
    return 1 if wrong or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
