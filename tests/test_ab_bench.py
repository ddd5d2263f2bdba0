"""The verdicts of tools/ab_bench.py on paired parent-against-change runs."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

import fcsr

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

REF = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]  # quartiles 99.125, 100.875


def test_gain_needs_nine_wins_in_ten_and_a_median_beyond_the_ref_spread():
    assert ab_bench.verdict(REF, [x * 1.4 for x in REF], higher=True, bound=0.25) == "gain"
    assert ab_bench.verdict(REF, [x * 0.7 for x in REF], higher=False, bound=0.25) == "gain"
    # Nine wins in ten still make a gain; eight do not.
    nine = [x * 1.4 for x in REF[:9]] + [REF[9] - 1]
    assert ab_bench.wins(REF, nine, higher=True) == 9
    assert ab_bench.verdict(REF, nine, higher=True, bound=0.25) == "gain"
    eight = [x * 1.4 for x in REF[:8]] + [REF[8], REF[9] - 1]
    assert ab_bench.wins(REF, eight, higher=True) == 8  # a tie counts for neither side
    assert ab_bench.verdict(REF, eight, higher=True, bound=0.25) == "ok"


def test_ten_wins_within_the_ref_spread_are_no_gain():
    assert ab_bench.verdict(REF, [x + 0.1 for x in REF], higher=True, bound=0.25) == "ok"


def test_a_change_within_the_bound_is_ok():
    assert ab_bench.verdict(REF, list(reversed(REF)), higher=True, bound=0.25) == "ok"
    assert ab_bench.verdict(REF, [x * 0.9 for x in REF], higher=True, bound=0.25) == "ok"


def test_a_ref_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert ab_bench.verdict(wide, list(reversed(wide)), higher=True, bound=0.25) == "unresolved"
    # Unless every run of the change beats every run of the ref.
    assert ab_bench.verdict(wide, [x + 100 for x in wide], higher=True, bound=0.25) == "gain"


@pytest.mark.parametrize("higher, factor", [(True, 0.7), (False, 1.3)])
def test_a_median_worse_than_the_bound_regressed(higher, factor):
    assert ab_bench.verdict(REF, [x * factor for x in REF], higher=higher, bound=0.25) == "regressed"


def test_source_size_counts_lines_and_exported_names():
    wc = subprocess.run("wc -l src/fcsr/*.py", shell=True, cwd=ab_bench.ROOT,
                        capture_output=True, text=True, check=True)
    total = int(wc.stdout.splitlines()[-1].split()[0])
    assert ab_bench.source_size(ab_bench.ROOT) == (total, len(fcsr.__all__))


def test_the_whole_sweep_row_reads_each_runs_result_file(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    for seed, rate in zip(range(1, 6), (1100.0, 1150.0, 1140.0, 1160.0, 1120.0)):
        doc = {"correct": True, "median_over_repetitions": {"trials_per_s": rate, "cpu_ms_per_trial": 0.5}}
        (out / f"portfolio-pool-seed{seed}-trace0.json").write_text(json.dumps(doc), encoding="utf-8")
    ref = [ab_bench.whole_sweep(tmp_path, "portfolio-pool", seed) for seed in range(1, 6)]
    assert ref == [1100.0, 1150.0, 1140.0, 1160.0, 1120.0]
    line = ab_bench.row("sweep trials/s", ref, [x * 1.25 for x in ref])
    assert line.split() == ["sweep", "trials/s", "1140", "[1120,", "1150]", "1425", "[1400,", "1437.5]", "1.250"]


def test_the_setup_rows_read_each_runs_ingests_and_repetitions(tmp_path):
    out = tmp_path / ".bench_out"
    out.mkdir()
    doc = {
        "median_over_repetitions": {"trials_per_s": 1140.0},
        "ingests": [{"wall_s": 0.19}, {"wall_s": 0.17}, {"wall_s": 0.18}],
        "repetitions": [{"setup_s": 0.14}, {"setup_s": 0.12}, {"setup_s": 0.13}, {"setup_s": 0.15}],
    }
    (out / "portfolio-pool-seed1-trace0.json").write_text(json.dumps(doc), encoding="utf-8")
    (out / "fcsr-risky-seed1-trace0.json").write_text(json.dumps({**doc, "ingests": []}), encoding="utf-8")
    parts = ab_bench.setup_parts(tmp_path, "portfolio-pool", 1)
    assert parts == {"ingest wall_s": 0.18, "sweep setup_s": pytest.approx(0.135)}
    # A workload that ingests nothing has no ingest row.
    assert ab_bench.setup_parts(tmp_path, "fcsr-risky", 1) == {"sweep setup_s": pytest.approx(0.135)}
    line = ab_bench.row("ingest wall_s", [0.18, 0.2, 0.19], [0.09, 0.1, 0.095])
    assert line.split() == [
        "ingest", "wall_s", "0.19", "[0.185,", "0.195]", "0.095", "[0.0925,", "0.0975]", "0.500",
    ]


def test_bench_gives_each_checkout_its_own_bytecode_prefix(tmp_path, monkeypatch):
    # Each side writes its bytecode to its own prefix, even where the
    # environment asks for none to be written.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    report = "import json, sys\nprint(json.dumps([sys.pycache_prefix, sys.dont_write_bytecode]))\n"
    seen = {}
    for side in ("ref", "change"):
        checkout = tmp_path / side
        (checkout / "bench").mkdir(parents=True)
        (checkout / "bench" / "run.py").write_text(report, encoding="utf-8")
        seen[side] = ab_bench.bench(checkout, "any", 1, tmp_path / f"pycache-{side}")
    assert seen == {side: [str(tmp_path / f"pycache-{side}"), False] for side in ("ref", "change")}


@pytest.mark.parametrize("text", ["10-5", "7", "", "1-2-3", "a-b", "-3-4"])
def test_a_malformed_seed_range_stops_before_any_checkout(monkeypatch, capsys, text):
    # "10-5" once read as no seeds: the tool extracted the ref and only
    # failed when it took the quartiles of no runs.
    with pytest.raises(ValueError, match=f"--seeds must read .* got {text!r}"):
        ab_bench.parse_seeds(text)
    monkeypatch.setattr(subprocess, "run", lambda *args, **kwargs: pytest.fail("ran a command"))
    with pytest.raises(SystemExit) as exit_:
        ab_bench.main(["--ref", "HEAD", "--workload", "fcsr-risky", f"--seeds={text}"])
    assert exit_.value.code == 2
    assert "--seeds must read" in capsys.readouterr().err


def test_seed_range_reads_both_ends():
    assert ab_bench.parse_seeds("401-410") == list(range(401, 411))
    assert ab_bench.parse_seeds("7-7") == [7]


def test_bench_runs_the_traced_suite_when_asked(tmp_path):
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("import json, sys\nprint(json.dumps(sys.argv[1:]))\n",
                                               encoding="utf-8")
    for trace, flag in ((False, "0"), (True, "1")):
        argv = ab_bench.bench(tmp_path, "fcsr-risky", 3, tmp_path / "pycache", trace)
        assert argv == ["--workload", "fcsr-risky", "--seed", "3", "--trace", flag]


def _traced_main(monkeypatch, failed: dict[tuple[str, int], int]) -> int:
    """``main --trace`` over fake traced runs: every per-layer metric reads
    the seed on the ref and twice the seed on the change, and run (side,
    seed) reports ``failed[(side, seed)]`` failed trials."""
    names = [m["name"] for m in json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    seen = []

    def fake_bench(checkout, workload, seed, pycache, trace=False):
        side = "change" if checkout == ab_bench.ROOT else "ref"
        seen.append((side, seed, trace))
        value = seed * (2.0 if side == "change" else 1.0)
        return {"correct": True, "failed": failed.get((side, seed), 0), "attempted": 10,
                "metrics": {name: {"value": value, "unit": "ns"} for name in names}}

    monkeypatch.setattr(ab_bench, "bench", fake_bench)
    monkeypatch.setattr(ab_bench, "source_size", lambda checkout: (3000, 33))
    # The ref's extraction: git archive, then tar, run as no-ops.
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, 0, b""))
    code = ab_bench.main(["--ref", "HEAD", "--workload", "fcsr-risky", "--seeds", "1-3", "--trace"])
    assert seen == [("ref", 1, True), ("change", 1, True), ("change", 2, True), ("ref", 2, True),
                    ("ref", 3, True), ("change", 3, True)]
    return code


def test_trace_mode_prints_each_per_layer_median_and_ratio(monkeypatch, capsys):
    assert _traced_main(monkeypatch, {}) == 0
    out = capsys.readouterr().out.splitlines()
    layer = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    rows = {line.split()[0]: line.split()[1:] for line in out if line.startswith(("algorithms.", "core.",
            "hardness.", "harness.", "movielens.", "serialize.", "trace."))}
    assert list(rows) == [m["name"] for m in layer]
    assert all(cols == ["2", "4", "2.000"] for cols in rows.values())
    assert not {"gain", "regressed", "unresolved", "ok"} & {word for line in out for word in line.split()}
    assert out[-1] == "every run read correct=true with 0 failed"


def test_trace_mode_fails_on_a_run_with_failed_trials(monkeypatch, capsys):
    assert _traced_main(monkeypatch, {("change", 2): 1}) == 1
    assert "runs not correct: [('change', 2)]" in capsys.readouterr().out


def test_json_holds_the_refs_seeds_every_run_and_every_summary_row(monkeypatch, tmp_path):
    # Every metric reads the seed on the ref and twice the seed on the change,
    # so higher-is-better metrics gain and lower-is-better ones regress.
    declared = json.loads((ab_bench.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_bench(checkout, workload, seed, pycache, trace=False):
        value = seed * (2.0 if checkout == ab_bench.ROOT else 1.0)
        return {"correct": True, "failed": 0, "attempted": 10,
                "metrics": {m["name"]: {"value": value, "unit": m["unit"]} for m in declared}}

    monkeypatch.setattr(ab_bench, "bench", fake_bench)
    monkeypatch.setattr(ab_bench, "whole_sweep", lambda checkout, workload, seed: float(seed))
    monkeypatch.setattr(ab_bench, "setup_parts", lambda checkout, workload, seed: {"sweep setup_s": 0.5})
    monkeypatch.setattr(ab_bench, "source_size", lambda checkout: (3000, 32))
    monkeypatch.setattr(ab_bench, "git", lambda *args: "c0ffee" if args[0] == "rev-parse" else " M src/x.py")
    monkeypatch.setattr(subprocess, "run", lambda *a, **k: subprocess.CompletedProcess(a, 0, b""))
    path = tmp_path / "bench.json"
    argv = ["--ref", "HEAD", "--workload", "fcsr-risky", "--seeds", "1-4", "--json", str(path)]
    assert ab_bench.main(argv) == 1  # the lower-is-better metrics regressed
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["workload"] == "fcsr-risky" and doc["seeds"] == [1, 2, 3, 4] and doc["trace"] is False
    assert doc["command"] == "python3 tools/ab_bench.py " + " ".join(argv)
    assert doc["ref"] == {"name": "HEAD", "commit": "c0ffee"}
    assert doc["change"] == {"base": "c0ffee", "modified": True}
    assert doc["source_size"] == {side: {"lines": 3000, "exported_names": 32} for side in ("ref", "change")}
    for side, factor in (("ref", 1.0), ("change", 2.0)):
        assert [r["seed"] for r in doc["runs"][side]] == [1, 2, 3, 4]
        assert [r["metrics"]["trials_per_s"]["value"] for r in doc["runs"][side]] == [factor * s for s in (1, 2, 3, 4)]
    rows = {r["metric"]: r for r in doc["summary"]}
    assert list(rows) == [m["name"] for m in declared] + ["sweep trials/s", "sweep setup_s"]
    assert rows["trials_per_s"] == {
        "metric": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.25,
        "ref": {"q1": 1.75, "median": 2.5, "q3": 3.25}, "change": {"q1": 3.5, "median": 5.0, "q3": 6.5},
        "ratio": 2.0, "wins": 4, "verdict": "gain",
    }
    assert rows["cpu_ms_per_trial"]["verdict"] == "regressed" and rows["cpu_ms_per_trial"]["wins"] == 0
    assert rows["sweep setup_s"]["verdict"] is None and rows["sweep setup_s"]["ratio"] == 1.0
    assert doc["regressed"] == ["cpu_ms_per_trial", "setup_s", "peak_rss_mb"] and doc["not_correct"] == []
