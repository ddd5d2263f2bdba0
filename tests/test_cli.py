"""End-to-end command-line tests (direct main() invocation)."""

import json
import tempfile
from dataclasses import field, fields, make_dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcsr.algorithms import RunTrace, run_algorithm
from fcsr.cli import main
from fcsr.core import BanditInstance, Gaussian, RngStream, oracle
from fcsr.hardness import ExponentPrediction, HardnessReport, compute_hardness, predict_exponents
from fcsr.serialize import (
    hardness_to_dict,
    instance_to_dict,
    load_sweep_config,
    read_instance,
    trace_to_dict,
    write_instance,
)
from fcsr.harness import CellResult, SweepConfig, SweepResult, build_synthetic, run_sweep


def test_gen_instance_mean(tmp_path, capsys):
    out = tmp_path / "mean.json"
    assert main(["gen-instance", "mean", "--a", "0.003", "--out", str(out)]) == 0
    instance = read_instance(out)
    assert oracle(instance).best_arm == 1


def test_gen_instance_stdout(capsys):
    assert main(["gen-instance", "risky"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["threshold"] == 0.5
    assert len(doc["arms"]) == 10


def test_gen_instance_rejects_out_of_range_gap(tmp_path, capsys):
    out = tmp_path / "bad.json"
    code = main(["gen-instance", "mean", "--a", "0.5", "--out", str(out)])
    assert code != 0
    assert "0.001" in capsys.readouterr().err
    assert not out.exists()


def test_gen_risky_family_writes_one_file_per_member(tmp_path):
    out = tmp_path / "family"
    code = main(
        ["gen-instance", "risky-class", "--beta", "0.5", "--k", "4", "--m", "4",
         "--out", str(out)]
    )
    assert code == 0
    files = sorted(out.glob("*.json"))
    # Base member, K-1 raised-arm members, M dropped-attribute members.
    assert len(files) == 8
    first = read_instance(files[0])
    assert first.num_arms == 4 and first.num_attributes == 4


def test_gen_feasibility_family(tmp_path):
    out = tmp_path / "fam"
    assert main(
        ["gen-instance", "feasibility-class", "--d", "0.1", "--k", "3", "--out", str(out)]
    ) == 0
    assert len(list(out.glob("*.json"))) == 4


def test_hardness_output(tmp_path, capsys):
    path = tmp_path / "mean.json"
    write_instance(build_synthetic("mean"), path)
    assert main(["hardness", str(path), "--budget", "10000", "--r", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_arm"] == 1
    assert doc["overall_hardness"] == pytest.approx(2 / 0.003**2, rel=1e-9)
    assert doc["exponent_prediction"]["upper_bound_exponent"] > 0


@pytest.mark.parametrize("r", ["nan", "inf"])
def test_hardness_rejects_a_non_finite_r(tmp_path, capsys, r):
    path = tmp_path / "mean.json"
    write_instance(build_synthetic("mean"), path)
    assert main(["hardness", str(path), "--r", r]) == 2
    assert "parameter R must be positive and finite" in capsys.readouterr().err


def test_hardness_writes_infinite_risky_hardness_as_a_string(tmp_path, capsys):
    # Arm 2 is infeasible with one attribute exactly at the threshold.
    instance = BanditInstance(
        arms=((Gaussian(0.8, 0.3), Gaussian(0.8, 0.3)), (Gaussian(0.9, 0.3), Gaussian(0.5, 0.3))),
        threshold=0.5,
    )
    path = tmp_path / "at-threshold.json"
    write_instance(instance, path)
    assert main(["hardness", str(path), "--budget", "9000"]) == 0

    def reject(literal):
        raise ValueError(f"{literal} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["risky_hardness"] == "inf"
    assert doc["overall_hardness"] == "inf"


def test_result_documents_hold_their_dataclass_fields_in_order():
    names = lambda cls: [f.name for f in fields(cls)]
    instance = build_synthetic("risky", num_arms=3, num_attributes=2)
    report = compute_hardness(instance)
    doc = hardness_to_dict(report, predict_exponents(report, 9000))
    assert list(doc) == names(HardnessReport) + ["exponent_prediction"]
    assert list(doc["exponent_prediction"]) == names(ExponentPrediction)
    assert list(trace_to_dict(run_algorithm("fcsr", instance, 200, RngStream(1)))) == names(RunTrace)
    result = run_sweep(SweepConfig(instance, ("us",), (20,), 2, 1))
    doc = result.to_json_dict()
    assert list(doc) == ["instance", "base_seed", "trials", "cells"]
    assert [list(cell) for cell in doc["cells"]] == [names(CellResult)]
    # A field added to a cell reaches the document with no writer edit.
    extended = make_dataclass(
        "Extended", [("failure_modes", dict, field(default_factory=lambda: {"risky": 1}))],
        bases=(CellResult,), frozen=True,
    )
    cell = extended(*(getattr(result.cells[0], name) for name in names(CellResult)))
    doc = SweepResult("risky", 1, 2, (cell,)).to_json_dict()
    assert doc["cells"][0]["failure_modes"] == {"risky": 1}


def test_hardness_pretty(tmp_path, capsys):
    path = tmp_path / "risky.json"
    write_instance(build_synthetic("risky"), path)
    assert main(["hardness", str(path), "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "overall hardness" in out


def test_run_command_deterministic(tmp_path, capsys):
    path = tmp_path / "risky.json"
    write_instance(build_synthetic("risky"), path)
    argv = ["run", str(path), "--algorithm", "sr", "--budget", "2000", "--seed", "3"]
    assert main(argv) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    second = json.loads(capsys.readouterr().out)
    assert first == second
    assert first["pulls_total"] <= 2000
    assert first["decision"] in range(0, 11)


def test_run_rejects_non_finite_threshold(tmp_path, capsys):
    doc = instance_to_dict(build_synthetic("risky"))
    doc["threshold"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # written as the bare token NaN
    assert "NaN" in path.read_text()
    assert main(["run", str(path), "--algorithm", "fcsr", "--budget", "500", "--seed", "1"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err
    write_instance(build_synthetic("risky"), path)
    assert main(["run", str(path), "--algorithm", "us", "--budget", "500", "--tau", "nan"]) == 2
    assert "threshold must be finite" in capsys.readouterr().err


def test_run_tau_replaces_the_instance_threshold_and_is_recorded(tmp_path, capsys):
    risky, moved = tmp_path / "risky.json", tmp_path / "risky-045.json"
    write_instance(build_synthetic("risky"), risky)
    doc = instance_to_dict(build_synthetic("risky"))
    doc["threshold"] = 0.45
    moved.write_text(json.dumps(doc))
    argv = ["--algorithm", "fcsr", "--budget", "2000", "--seed", "3"]
    assert main(["run", str(risky), *argv, "--tau", "0.45"]) == 0
    flagged = json.loads(capsys.readouterr().out)
    assert main(["run", str(moved), *argv]) == 0
    assert flagged == json.loads(capsys.readouterr().out)
    assert flagged["threshold"] == 0.45
    assert main(["run", str(risky), *argv]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 0.5
    assert main(["run", str(risky), *argv, "--tau", "0.45", "--pretty"]) == 0
    assert "threshold: 0.45\n" in capsys.readouterr().out


def test_run_rejects_flags_and_budgets_the_algorithm_cannot_use(tmp_path, capsys):
    path = tmp_path / "risky.json"
    write_instance(build_synthetic("risky"), path)
    run = ["run", str(path), "--seed", "1", "--algorithm"]
    for argv, message in (
        (["us", "--budget", "500", "--f", "0.3"], "'us' does not read ['feasibility_fraction']"),
        (["sr", "--budget", "500", "--explore-fraction", "0.5"], "'sr' does not read ['explore_fraction']"),
        (["etc", "--budget", "-5"], "budget must be non-negative, got -5"),
        (["fcsr", "--budget", "500", "--g", "1.0"], "apt_fraction must lie in [0, 1), got 1.0"),
        (["fcsr", "--budget", "500", "--f", "-0.1"], "feasibility_fraction must lie in [0, 1), got -0.1"),
    ):
        assert main(run + argv) == 2
        assert message in capsys.readouterr().err
    assert main(run + ["fcsr", "--budget", "500", "--f", "0.3", "--g", "0.3"]) == 0
    assert main(run + ["fcsr", "--budget", "500", "--f", "0", "--g", "0"]) == 0


def test_run_names_arm_and_attribute_of_bad_distribution(tmp_path, capsys):
    doc = instance_to_dict(build_synthetic("risky"))
    doc["arms"][1]["attributes"][2]["mean"] = float("nan")
    path = tmp_path / "nan-mean.json"
    path.write_text(json.dumps(doc))
    assert main(["run", str(path), "--algorithm", "fcsr", "--budget", "500", "--seed", "1"]) == 2
    assert "arm 2 attribute 3: Gaussian mean must be finite, got nan" in capsys.readouterr().err


def test_run_logs_default_seed(tmp_path, capsys):
    path = tmp_path / "risky.json"
    write_instance(build_synthetic("risky"), path)
    assert main(["run", str(path), "--algorithm", "us", "--budget", "500"]) == 0
    captured = capsys.readouterr()
    assert "default" in captured.err


def _sweep_config(tmp_path, **overrides):
    doc = {
        "instance": "risky",
        "algorithms": ["us", "sr"],
        "budgets": [500, 1000],
        "trials": 5,
        "base_seed": 17,
    }
    doc.update(overrides)
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    return path


def test_sweep_end_to_end(tmp_path):
    config = _sweep_config(tmp_path)
    out = tmp_path / "results.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    table = out.read_text().strip().split("\n")
    assert table[0].startswith("algorithm,budget,trials,accuracy")
    assert len(table) == 5
    doc = json.loads((tmp_path / "results.csv.json").read_text())
    assert doc["trials"] == 5
    assert len(doc["cells"]) == 4


def test_sweep_is_idempotent(tmp_path):
    config = _sweep_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["sweep", "--config", str(config), "--out", str(out_b), "--workers", "2"]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    strip = lambda doc: [
        {k: v for k, v in cell.items() if k != "wall_time"} for cell in doc["cells"]
    ]
    a = json.loads((tmp_path / "a.csv.json").read_text())
    b = json.loads((tmp_path / "b.csv.json").read_text())
    assert strip(a) == strip(b)


def test_sweep_json_out_keeps_the_table(tmp_path):
    config = _sweep_config(tmp_path, algorithms=["us"], budgets=[200])
    out = tmp_path / "results.json"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["trials"] == 5
    assert (tmp_path / "results.csv").read_text().startswith("algorithm,")


def test_sweep_rejects_unknown_algorithm(tmp_path, capsys):
    config = _sweep_config(tmp_path, algorithms=["us", "bogus"])
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) != 0
    assert "bogus" in capsys.readouterr().err


def test_sweep_rejects_empty_algorithms(tmp_path):
    config = _sweep_config(tmp_path, algorithms=[])
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) != 0


def test_sweep_rejects_keys_it_does_not_read(tmp_path, capsys):
    # A misspelt key would otherwise leave its default in place and exit 0.
    for overrides, key in (
        ({"instance": {"name": "risky", "varaince": 0.09}}, "varaince"),
        ({"param": {"etc": {"explore_fraction": 0.5}}}, "param"),
    ):
        config = _sweep_config(tmp_path, **overrides)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"keys it does not read: ['{key}']" in capsys.readouterr().err
    config.write_text(json.dumps(["instance", "algorithms", "budgets", "trials"]))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


def test_sweep_config_rejects_bad_params(tmp_path):
    """A param that is not a number, or one for an algorithm the sweep does
    not run, is rejected when the config is loaded, naming the field."""
    doc = json.loads(_sweep_config(tmp_path, algorithms=["us"]).read_text())
    for algorithms, params, message in (
        (["etc"], {"etc": {"explore_fraction": "0.3"}},
         "algorithm 'etc': explore_fraction must be a real number, got '0.3'"),
        (["etc"], {"etc": {"explore_fraction": True}},
         "algorithm 'etc': explore_fraction must be a real number, got True"),
        (["us"], {"etc": {"explore_fraction": 0.5}}, "params for ['etc'], which the sweep does not run"),
    ):
        with pytest.raises(ValueError) as err:
            load_sweep_config(dict(doc, algorithms=algorithms, params=params), 1)
        assert message in str(err.value)


@pytest.mark.parametrize(
    "cases",
    [
        [({"fcsr": {"threshold": 0.45}}, "algorithm 'fcsr' does not read ['threshold']")],
        [({"fcsr": {"apt_fraction": x}}, f"algorithm 'fcsr': apt_fraction must lie in [0, 1), got {x}")
         for x in (1.0, -0.5)],
        [({"etc": {"explore_fraction": x}}, f"algorithm 'etc': explore_fraction must lie in [0, 1), got {x}")
         for x in (1.0, -0.5)],
    ],
    ids=["threshold", "apt-fraction", "explore-fraction"],
)
def test_sweep_rejects_a_threshold_or_a_fraction_outside_0_1(tmp_path, capsys, cases):
    """A run reads its threshold from the instance only, so a cell cannot be
    scored against a threshold its runs did not use; and a fraction outside
    [0, 1) fails the load rather than writing NaN cells."""
    for params, message in cases:
        config = _sweep_config(tmp_path, algorithms=["fcsr", "etc"], params=params)
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"params": {"us": 5}}, "params of 'us' must be a JSON object, got 5"),
        ({"algorithms": 5}, "algorithms must be a JSON array, got 5"),
        ({"budgets": 100}, "budgets must be a JSON array, got 100"),
        ({"budgets": [500, 1000.5]}, "each item of budgets must be an integer, got 1000.5"),
        ({"trials": [2]}, "trials must be an integer, got [2]"),
        ({"instance": 5}, "instance must be a string, got 5"),
        ({"instance": {"name": "risky", "num_arms": "4"}}, "instance num_arms must be an integer, got '4'"),
        ({"instance": {"name": "risky", "gap": None, "num_arms": None}},
         "instance gap must be a number, got None"),
        ({"instance": {"name": "risky", "num_arms": None}}, "instance num_arms must be an integer, got None"),
        ({"algorithms": ["us", "us"]}, "algorithms lists ['us'] more than once"),
    ],
    ids=["params", "algorithms", "budgets", "budget-item", "trials", "instance", "instance-key",
         "instance-null-gap", "instance-null-num-arms", "repeated-algorithm"],
)
def test_sweep_config_names_a_value_of_the_wrong_type(tmp_path, capsys, overrides, message):
    config = _sweep_config(tmp_path, **overrides)
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "o.csv")]) == 2
    assert message in capsys.readouterr().err


def _bad_mean(doc):
    doc["arms"][0]["attributes"][0]["mean"] = [1]
    return doc


def _bad_attributes(doc):
    doc["arms"][0]["attributes"] = {"mean": 0.5}
    return doc


def _misspelt_label(doc):
    doc["arms"][0]["lable"] = "first"
    return doc


def _misspelt_attribute_labels(doc):
    doc["atribute_labels"] = ["x"] * len(doc["arms"][0]["attributes"])
    return doc


def _bernoulli_with_variance(doc):
    doc["arms"][1]["attributes"][1] = {"kind": "bernoulli", "p": 0.6, "variance": 0.3}
    return doc


@pytest.mark.parametrize(
    "spoil, message",
    [
        (_bad_mean, "arm 1 attribute 1: mean must be a number, got [1]"),
        (_bad_attributes, "arm 1 attributes must be a JSON array, got {'mean': 0.5}"),
        (lambda doc: [doc], "an instance document must be a JSON object, got [{"),
        (_misspelt_label, "arm 1 has keys it does not read: ['lable']"),
        (_misspelt_attribute_labels, "instance document has keys it does not read: ['atribute_labels']"),
        (
            _bernoulli_with_variance,
            "arm 2 attribute 2: a bernoulli attribute has keys it does not read: ['variance']",
        ),
        (lambda doc: {**doc, "attribute_labels": ""}, "attribute_labels must be a JSON array, got ''"),
        (lambda doc: {**doc, "attribute_labels": 0}, "attribute_labels must be a JSON array, got 0"),
        (lambda doc: {**doc, "attribute_labels": None}, "attribute_labels must be a JSON array, got None"),
    ],
    ids=[
        "mean", "attributes", "top-level-list", "arm-label", "attribute-labels", "bernoulli-variance",
        "attribute-labels-empty-string", "attribute-labels-zero", "attribute-labels-null",
    ],
)
def test_instance_document_names_a_value_of_the_wrong_type(tmp_path, capsys, spoil, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spoil(instance_to_dict(build_synthetic("risky")))))
    assert main(["hardness", str(path)]) == 2
    assert message in capsys.readouterr().err


# Any JSON value; integers stay small, so that a replaced size, budget or
# trial count keeps the sweep short.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 60) | st.floats() | st.text(max_size=8),
    lambda items: st.lists(items, max_size=3) | st.dictionaries(st.text(max_size=5), items, max_size=3),
    max_leaves=6,
)
_CONFIG = {
    "instance": {"name": "risky", "num_arms": 3, "num_attributes": 2, "gap": 0.02},
    "algorithms": ["us", "sr", "etc"],
    "budgets": [6, 12],
    "trials": 2,
    "base_seed": 1,
    "params": {"etc": {"explore_fraction": 0.5}},
}
_PORTFOLIO = {
    "genres": ["Drama"],
    "arms": [{"Drama": 1}, {"Drama": 2}],
    "threshold": 0.7,
    "min_ratings": 5,
    "arm_labels": ["a", "b"],
}
_INSTANCE = {
    "threshold": 0.5,
    "arms": [
        {"label": "a", "attributes": [
            {"kind": "gaussian", "mean": 0.7, "variance": 0.3}, {"kind": "bernoulli", "p": 0.6},
        ]},
        {"attributes": [
            {"kind": "empirical", "values": [0.2, 0.9]}, {"kind": "gaussian", "mean": 0.4, "variance": 0.1},
        ]},
    ],
    "attribute_labels": ["x", "y"],
}


def _paths(doc, prefix=()):
    """The path of every value inside ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return doc


def _two_movie_corpus(tmp) -> list[str]:
    """Write six ratings of each of two Drama movies under ``tmp``; the
    ``fcsr ingest`` arguments that read them."""
    ratings_path, movies_path = Path(tmp) / "ratings.csv", Path(tmp) / "movies.csv"
    rows = [f"{u},{m},4.0,{u}" for m in (1, 2) for u in range(6)]
    ratings_path.write_text("userId,movieId,rating,timestamp\n" + "".join(r + "\n" for r in rows))
    movies_path.write_text("movieId,title,genres\n1,A,Drama\n2,B,Drama\n")
    return ["ingest", "--ratings", str(ratings_path), "--movies", str(movies_path)]


_BASES = {"config": _CONFIG, "instance": _INSTANCE, "portfolio": _PORTFOLIO}


def _exit_codes(which: str, doc, tmp) -> list[int]:
    """The exit code of each command that reads ``doc`` as a ``which``
    document, written under ``tmp``."""
    path = Path(tmp) / "doc.json"
    path.write_text(json.dumps(doc))
    if which == "config":
        runs = [["sweep", "--config", str(path), "--out", str(Path(tmp) / "o.csv")]]
    elif which == "portfolio":
        out = str(Path(tmp) / "o.json")
        runs = [[*_two_movie_corpus(tmp), "--portfolios", str(path), "--out", out]]
    else:
        runs = [["hardness", str(path)],
                ["run", str(path), "--algorithm", "fcsr", "--budget", "40", "--seed", "1"]]
    return [main(argv) for argv in runs]


@pytest.mark.parametrize("which", sorted(_BASES))
def test_each_fuzz_base_document_exits_0(which, tmp_path):
    """The fuzz test below spoils valid documents, so each base must be one."""
    assert _exit_codes(which, _BASES[which], tmp_path) in ([0], [0, 0])


@settings(max_examples=150, deadline=None)
@given(
    which=st.sampled_from(sorted(_BASES)),
    pick=st.integers(0, 10**6),
    value=_JSON,
)
def test_any_value_in_a_document_exits_0_or_2(which, pick, value):
    """One value of a valid sweep config, instance or portfolio document
    replaced by any JSON value: the command succeeds or exits 2, and never
    raises."""
    base = _BASES[which]
    paths = list(_paths(base))
    doc = _replaced(base, paths[pick % len(paths)], value)
    with tempfile.TemporaryDirectory() as tmp:
        assert set(_exit_codes(which, doc, tmp)) <= {0, 2}


def test_sweep_instance_from_file(tmp_path):
    inst_path = tmp_path / "inst.json"
    write_instance(build_synthetic("mean"), inst_path)
    config = _sweep_config(tmp_path, instance=str(inst_path), algorithms=["us"], budgets=[200])
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0


def test_sweep_builtin_surrogate_and_default_seed(tmp_path, capsys):
    doc = {
        "instance": "table1-surrogate",
        "algorithms": ["us"],
        "budgets": [300],
        "trials": 3,
    }
    config = tmp_path / "surrogate.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "res.csv"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert "default" in capsys.readouterr().err
    assert "us,300,3," in out.read_text()


def test_instance_round_trip_is_lossless(tmp_path):
    instance = build_synthetic("combined", gap=0.0123)
    path = tmp_path / "inst.json"
    write_instance(instance, path)
    again = read_instance(path)
    assert instance_to_dict(again) == instance_to_dict(instance)
    assert again.attribute_means.tolist() == instance.attribute_means.tolist()
    path2 = tmp_path / "inst2.json"
    write_instance(again, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_ingest_auto(tmp_path, capsys):
    genres = ["Comedy", "Action"]
    movies, rows = [], []
    movie_id = 1
    for genre in genres:
        for _ in range(2):
            movies.append(f"{movie_id},Film {movie_id},{genre}")
            rows.extend(f"{u},{movie_id},{3.5 + movie_id * 0.2},{u}" for u in range(6))
            movie_id += 1
    ratings_path = tmp_path / "ratings.csv"
    movies_path = tmp_path / "movies.csv"
    ratings_path.write_text("userId,movieId,rating,timestamp\n" + "".join(r + "\n" for r in rows))
    movies_path.write_text("movieId,title,genres\n" + "".join(m + "\n" for m in movies))
    out = tmp_path / "instance.json"
    code = main(
        ["ingest", "--ratings", str(ratings_path), "--movies", str(movies_path),
         "--k", "2", "--m", "2", "--min-ratings", "5", "--threshold", "0.7",
         "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    instance = read_instance(out)
    assert instance.num_arms == 2
    assert instance.num_attributes == 2
    assert instance.threshold == 0.7


def test_ingest_portfolio_file(tmp_path):
    movies = ["1,A,Drama", "2,B,Drama"]
    rows = [f"{u},{m},4.0,{u}" for m in (1, 2) for u in range(6)]
    ratings_path = tmp_path / "ratings.csv"
    movies_path = tmp_path / "movies.csv"
    ratings_path.write_text("userId,movieId,rating,timestamp\n" + "".join(r + "\n" for r in rows))
    movies_path.write_text("movieId,title,genres\n" + "".join(m + "\n" for m in movies))
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps({
        "genres": ["Drama"],
        "arms": [{"Drama": 1}, {"Drama": 2}],
        "min_ratings": 5,
        "threshold": 0.7,
    }))
    out = tmp_path / "instance.json"
    code = main(
        ["ingest", "--ratings", str(ratings_path), "--movies", str(movies_path),
         "--portfolios", str(portfolio), "--out", str(out)]
    )
    assert code == 0
    assert read_instance(out).num_arms == 2


@pytest.mark.parametrize(
    "doc, named",
    [
        ({**_PORTFOLIO, "arms": [5]}, "arm 1 must be a JSON object"),
        ([_PORTFOLIO], "a portfolio document must be a JSON object"),
        ({**_PORTFOLIO, "genres": "Drama"}, "genres must be a JSON array"),
        ({**_PORTFOLIO, "treshold": 0.2}, "keys it does not read: ['treshold']"),
        ({**_PORTFOLIO, "arms": [{"Drama": 2.7}, {"Drama": 1}]},
         "arm 1 genre 'Drama' must be an integer"),
        ({**_PORTFOLIO, "normalizer": 5.0}, "keys it does not read: ['normalizer']"),
    ],
    ids=["arm-not-object", "top-level-list", "genres-string", "misspelt-key", "float-movie-id",
         "normalizer"],
)
def test_ingest_rejects_a_malformed_portfolio_document(tmp_path, capsys, doc, named):
    portfolio = tmp_path / "portfolio.json"
    portfolio.write_text(json.dumps(doc))
    out = tmp_path / "instance.json"
    code = main([*_two_movie_corpus(tmp_path), "--portfolios", str(portfolio), "--out", str(out)])
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, field", [("--k", "num_arms"), ("--m", "num_attributes")])
@pytest.mark.parametrize("value", ["-1", "0"])
def test_ingest_rejects_a_count_below_one(tmp_path, capsys, flag, field, value):
    out = tmp_path / "instance.json"
    code = main([*_two_movie_corpus(tmp_path), "--min-ratings", "5", flag, value, "--out", str(out)])
    assert code == 2
    assert f"{field} ({flag}) must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_errors(tmp_path):
    assert main(["hardness", str(tmp_path / "nope.json")]) != 0


@pytest.mark.parametrize(
    "path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")),
    ids=lambda path: path.name,
)
def test_shipped_configs_load(path):
    config = load_sweep_config(json.loads(path.read_text()), 1)
    assert config.algorithms and config.budgets


def test_resolve_instance_forms(tmp_path):
    from fcsr.serialize import resolve_instance

    by_name, name = resolve_instance("mean")
    assert name == "mean" and by_name.threshold == 0.3

    by_dict, _ = resolve_instance(
        {"name": "risky", "gap": 0.02, "num_arms": 4, "num_attributes": 3,
         "variance": 0.09}
    )
    assert by_dict.num_arms == 4
    assert by_dict.arms[0][0].variance == 0.09
    assert by_dict.attribute_means[0, 2] == pytest.approx(0.48, rel=1e-12)

    with pytest.raises(ValueError, match="unknown synthetic"):
        resolve_instance({"name": "bogus"})
    with pytest.raises(ValueError, match="neither a known name"):
        resolve_instance(str(tmp_path / "missing.json"))
