"""Parent-against-change numbers for one benchmark workload.

    python3 tools/ab_bench.py --ref HEAD~1 --workload baselines-grid --seeds 401-410

Extracts the git ref ``--ref`` with ``git archive`` into a temporary
directory, then runs ``bench/run.py --trace 0`` there and in the working
tree, once per seed on each side, alternating which side runs first. Each
side keeps its bytecode in its own fresh ``PYTHONPYCACHEPREFIX`` under the
temporary directory, so both start with none and compile in their first
run only. For
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

Three more rows, informational and given no verdict, read each run's
result file:

* ``sweep trials/s``, the whole-sweep throughput
  ``median_over_repetitions.trials_per_s``: the trials over the summed cell
  times of one repetition, where the benchmark's ``trials_per_s`` sums each
  cell's fastest time over the repetitions;
* ``ingest wall_s``, the median of ``ingests[*].wall_s``, for a workload
  that ingests ratings;
* ``sweep setup_s``, the median of ``repetitions[*].setup_s``.

The last two add up to ``setup_s``, so a change in it shows which command
it came from. The script also prints each side's source size: the
lines of ``src/fcsr/*.py`` and the number of names ``fcsr`` exports. Each
run's metrics go to stderr as it ends. The script exits 1 when a metric
regressed, or when a run did not read ``correct=true`` with 0 failed, and
names the runs that did not.

With ``--trace`` it runs ``bench/run.py --trace 1`` instead, on the same
alternating pairs, and prints, for each per-layer metric that
``BENCHMARK.json`` declares, each side's median and the change's median over
the ref's, with no verdict: one traced run per tree reads drift between
processes as large as the changes it is meant to show. The exit rule on
``correct=true`` with 0 failed is the same.

    python3 tools/ab_bench.py --ref HEAD~1 --workload fcsr-risky --seeds 401-405 --trace

With ``--json PATH`` it also writes what it printed as one JSON document:
the workload, the seeds, the ref with the commit it resolves to, the
working tree's base commit and whether the tree differs from it, the
command, each side's source size, every run's metrics, and each summary row
(each side's median and quartiles, or median alone for a per-layer row, the
ratio, and for an end-to-end metric its wins and verdict).

    python3 tools/ab_bench.py --ref HEAD --workload fcsr-risky --seeds 411-420 --json BENCH.json
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    """The seeds lo..hi of "lo-hi", two integers >= 0 with lo <= hi; a
    ValueError naming ``text`` otherwise."""
    match = re.fullmatch(r"(\d+)-(\d+)", text)
    if match is None or int(match[1]) > int(match[2]):
        raise ValueError(f'--seeds must read "lo-hi" with 0 <= lo <= hi, got {text!r}')
    return list(range(int(match[1]), int(match[2]) + 1))


def bench(checkout: Path, workload: str, seed: int, pycache: Path, trace: bool = False) -> dict:
    """One ``bench/run.py`` run in ``checkout``, of the benchmark's own length,
    traced when ``trace`` is set, with bytecode read from and written to
    ``pycache`` only; its last stdout line, parsed."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    # Bytecode is written even where PYTHONDONTWRITEBYTECODE is set, so that
    # only a side's first run compiles: numpy's installed bytecode is not
    # read from under a prefix either.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def result_file(checkout: Path, workload: str, seed: int) -> dict:
    """The result file that the untraced run of ``workload`` at ``seed``
    left in ``checkout``, parsed."""
    path = checkout / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text(encoding="utf-8"))


def whole_sweep(checkout: Path, workload: str, seed: int) -> float:
    """``median_over_repetitions.trials_per_s`` of that run's result file."""
    return result_file(checkout, workload, seed)["median_over_repetitions"]["trials_per_s"]


def setup_parts(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """The parts of that run's ``setup_s``: ``ingest wall_s``, when the run
    ingested, and ``sweep setup_s``, as the module docstring says."""
    doc = result_file(checkout, workload, seed)
    parts = {}
    if doc["ingests"]:
        parts["ingest wall_s"] = statistics.median(i["wall_s"] for i in doc["ingests"])
    parts["sweep setup_s"] = statistics.median(r["setup_s"] for r in doc["repetitions"])
    return parts


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


def spread(ref: list[float], new: list[float]) -> dict:
    """A summary row's numbers: each side's first quartile, median and third
    quartile, and the change's median over the ref's."""
    (r1, r2, r3), (c1, c2, c3) = summary(ref), summary(new)
    return {"ref": {"q1": r1, "median": r2, "q3": r3},
            "change": {"q1": c1, "median": c2, "q3": c3}, "ratio": c2 / r2}


def row(name: str, ref: list[float], new: list[float]) -> str:
    """A table row's name, each side's median and quartiles, and the
    change's median over the ref's."""
    numbers = spread(ref, new)
    r, c = numbers["ref"], numbers["change"]
    ref_col = f"{r['median']:.5g} [{r['q1']:.5g}, {r['q3']:.5g}]"
    new_col = f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
    return f"{name:<18} {ref_col:<34} {new_col:<34} {numbers['ratio']:<6.3f}"


def layer_spread(ref: list[float], new: list[float]) -> dict:
    """A per-layer row's numbers: each side's median and the change's median
    over the ref's, None when the ref's median is 0."""
    r2, c2 = statistics.median(ref), statistics.median(new)
    return {"ref": {"median": r2}, "change": {"median": c2}, "ratio": c2 / r2 if r2 else None}


def layer_row(name: str, ref: list[float], new: list[float]) -> str:
    """A per-layer row: each side's median and the change's median over the
    ref's, ``-`` when the ref's median is 0."""
    numbers = layer_spread(ref, new)
    ratio = "-" if numbers["ratio"] is None else f"{numbers['ratio']:.3f}"
    return f"{name:<42} {numbers['ref']['median']:<12.5g} {numbers['change']['median']:<12.5g} {ratio}"


def git(*args: str) -> str:
    """The stripped stdout of ``git args`` in the repository."""
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


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
    parser.add_argument("--trace", action="store_true",
                        help="compare the per-layer metrics of bench/run.py --trace 1")
    parser.add_argument("--json", metavar="PATH", type=Path,
                        help="also write the runs and the summary rows to PATH as JSON")
    args = parser.parse_args(argv)
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        parser.error(str(exc))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    runs: dict[str, list[dict]] = {"ref": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-bench-") as tmp:
        sides = {"ref": Path(tmp) / "ref", "change": ROOT}
        # Each side starts from no bytecode: the ref's archive has no
        # __pycache__, while the working tree's may hold one.
        pycaches = {side: Path(tmp) / f"pycache-{side}" for side in sides}
        sides["ref"].mkdir()
        archive = subprocess.run(["git", "archive", args.ref], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", sides["ref"]], input=archive.stdout, check=True)
        for i, seed in enumerate(seeds):
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for side in order:
                result = bench(sides[side], args.workload, seed, pycaches[side], args.trace)
                if not args.trace:
                    result["informational"] = {
                        "sweep trials/s": whole_sweep(sides[side], args.workload, seed),
                        **setup_parts(sides[side], args.workload, seed)}
                runs[side].append({"seed": seed, **result})
                print(f"seed {seed} {side}: correct={result['correct']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
        sizes = {side: source_size(path) for side, path in sides.items()}

    print(f"{args.workload}: {args.ref} against the working tree, {len(seeds)} pairs, "
          f"seeds {args.seeds}")
    print("source lines, exported names: "
          + ", ".join(f"{side} {lines}, {names}" for side, (lines, names) in sizes.items()))
    regressed = []
    rows = []
    if args.trace:
        print(f"{'per-layer metric':<42} {'ref median':<12} {'change median':<12} ratio, no verdict")
        for metric in declared["per_layer"]:
            ref, new = ([r["metrics"][metric["name"]]["value"] for r in runs[side]] for side in runs)
            print(layer_row(metric["name"], ref, new))
            rows.append({"metric": metric["name"], **layer_spread(ref, new)})
    else:
        print(f"{'metric':<18} {'ref median [q1, q3]':<34} {'change median [q1, q3]':<34} ratio  wins  verdict")
        for metric in declared["end_to_end"]:
            name = metric["name"]
            ref, new = ([r["metrics"][name]["value"] for r in runs[side]] for side in runs)
            higher = metric["better"] == "higher"
            mark = verdict(ref, new, higher, metric["bound"])
            if mark == "regressed":
                regressed.append(name)
            won = wins(ref, new, higher)
            print(f"{row(name, ref, new)} {won:>2}/{len(seeds):<3} {mark}")
            rows.append({"metric": name, "unit": metric["unit"], "better": metric["better"],
                         "bound": metric["bound"], **spread(ref, new), "wins": won, "verdict": mark})
        for name in runs["ref"][0]["informational"]:
            ref, new = ([r["informational"][name] for r in runs[side]] for side in runs)
            print(f"{row(name, ref, new)} informational, no verdict")
            rows.append({"metric": name, **spread(ref, new), "verdict": None})
    wrong = [(side, r["seed"]) for side, rs in runs.items() for r in rs if not r["correct"] or r["failed"]]
    if args.json:
        document = {
            "workload": args.workload,
            "seeds": seeds,
            "trace": args.trace,
            "command": " ".join(["python3", "tools/ab_bench.py", *(sys.argv[1:] if argv is None else argv)]),
            "ref": {"name": args.ref, "commit": git("rev-parse", "--verify", f"{args.ref}^{{commit}}")},
            "change": {"base": git("rev-parse", "HEAD"),
                       "modified": bool(git("status", "--porcelain"))},
            "source_size": {side: {"lines": lines, "exported_names": names}
                            for side, (lines, names) in sizes.items()},
            "runs": runs,
            "summary": rows,
            "not_correct": wrong,
            "regressed": regressed,
        }
        args.json.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if wrong:
        print(f"runs not correct: {wrong}")
    else:
        print("every run read correct=true with 0 failed")
    if regressed:
        print(f"regressed beyond the declared bound: {regressed}")
    return 1 if wrong or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
