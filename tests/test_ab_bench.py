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
