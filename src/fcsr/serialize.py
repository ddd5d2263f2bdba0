"""File formats: instance, sweep config and portfolio documents, reports.

Instances, sweep configs and portfolios are JSON documents. Floats survive a
parse -> write -> parse round trip bit-exactly (Python's JSON writer emits
shortest-repr decimals), which is what makes instance files a reliable
interchange format between the generators, the harness, and the CLI.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .algorithms import RunTrace
from .core import (
    AttributeDistribution,
    BanditInstance,
    Bernoulli,
    Empirical,
    Gaussian,
)
from .hardness import ExponentPrediction, HardnessReport
from .harness import SYNTHETIC_NAMES, SweepConfig, SweepResult, _plain, build_synthetic
from .movielens import PortfolioSpec, table1_surrogate_instance

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "write_instance",
    "read_instance",
    "resolve_instance",
    "load_sweep_config",
    "portfolio_from_dict",
    "hardness_to_dict",
    "trace_to_dict",
    "write_sweep_result",
]


def _dist_to_dict(dist: AttributeDistribution) -> dict[str, Any]:
    if isinstance(dist, Gaussian):
        return {"kind": "gaussian", "mean": dist.mean, "variance": dist.variance}
    if isinstance(dist, Bernoulli):
        return {"kind": "bernoulli", "p": dist.p}
    if isinstance(dist, Empirical):
        return {"kind": "empirical", "values": list(dist.values)}
    raise TypeError(f"unknown distribution type {type(dist)!r}")


# The JSON types a document value is checked for: the types ``json.loads``
# reads each as (an integer is also a number; a bool is neither), and its name.
_JSON_TYPES = {
    dict: ((dict,), "a JSON object"), list: ((list,), "a JSON array"), str: ((str,), "a string"),
    int: ((int,), "an integer"), float: ((int, float), "a number"),
}


def _typed(value: Any, kind: type, what: str) -> Any:
    """``kind(value)`` when ``value`` has the JSON type ``kind``; otherwise a
    ``ValueError`` that names ``what``."""
    types, name = _JSON_TYPES[kind]
    if type(value) not in types:
        raise ValueError(f"{what} must be {name}, got {value!r}")
    return kind(value)


def _typed_items(value: Any, kind: type, what: str) -> tuple:
    """The items of the JSON array ``value``, each of the JSON type ``kind``,
    as a tuple; a ``ValueError`` names ``what`` and the first bad item."""
    types, name = _JSON_TYPES[kind]
    if not set(map(type, _typed(value, list, what))).issubset(types):
        bad = next(item for item in value if type(item) not in types)
        raise ValueError(f"each item of {what} must be {name}, got {bad!r}")
    return tuple(value)


def _keys(doc: dict, valid: tuple, required: tuple, what: str) -> None:
    """A ``ValueError`` that names each key of ``doc`` outside ``valid``, so
    that a misspelt key cannot silently leave a default in place, or else
    each key of ``required`` that ``doc`` lacks."""
    unread = [key for key in doc if key not in valid]
    if unread:
        raise ValueError(f"{what} has keys it does not read: {unread}; valid: {list(valid)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ValueError(f"{what} is missing keys: {', '.join(missing)}")


# The keys of each kind of attribute document, all of them required.
_ATTRIBUTE_KEYS = {
    "gaussian": ("kind", "mean", "variance"), "bernoulli": ("kind", "p"), "empirical": ("kind", "values"),
}
# The keys of instance and arm documents, required ones first.
_INSTANCE_REQUIRED = ("threshold", "arms")
_INSTANCE_KEYS = (*_INSTANCE_REQUIRED, "attribute_labels")
_ARM_REQUIRED = ("attributes",)
_ARM_KEYS = (*_ARM_REQUIRED, "label")


def _dist_from_dict(data: Any, arm: int, attribute: int) -> AttributeDistribution:
    """The distribution of one attribute document; a ``ValueError`` names
    the (1-based) arm and attribute it came from."""
    try:
        kind = _typed(data, dict, "the attribute").get("kind")
        valid = _ATTRIBUTE_KEYS.get(kind) if isinstance(kind, str) else None
        if valid is None:
            raise ValueError(f"unknown distribution kind {kind!r}")
        _keys(data, valid, valid, f"a {kind} attribute")
        if kind == "gaussian":
            return Gaussian(mean=data["mean"], variance=data["variance"])
        if kind == "bernoulli":
            return Bernoulli(p=data["p"])
        return Empirical(values=_typed_items(data["values"], float, "values"))
    except ValueError as exc:
        raise ValueError(f"arm {arm} attribute {attribute}: {exc}") from exc


def instance_to_dict(instance: BanditInstance) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "threshold": instance.threshold,
        "arms": [
            {"attributes": [_dist_to_dict(d) for d in row]}
            for row in instance.arms
        ],
    }
    if instance.arm_labels is not None:
        for arm_doc, label in zip(doc["arms"], instance.arm_labels):
            arm_doc["label"] = label
    if instance.attribute_labels is not None:
        doc["attribute_labels"] = list(instance.attribute_labels)
    return doc


def instance_from_dict(doc: Any) -> BanditInstance:
    """The instance of a parsed instance document. A key that the document,
    an arm or an attribute does not read is an error, as is a value of the
    wrong JSON type; the error names the (1-based) arm and attribute."""
    doc = _typed(doc, dict, "an instance document")
    _keys(doc, _INSTANCE_KEYS, _INSTANCE_REQUIRED, "instance document")
    arm_docs = _typed(doc["arms"], list, "arms")
    arms, labels = [], []
    for a, arm in enumerate(arm_docs, start=1):
        _keys(_typed(arm, dict, f"arm {a}"), _ARM_KEYS, _ARM_REQUIRED, f"arm {a}")
        attributes = _typed(arm["attributes"], list, f"arm {a} attributes")
        arms.append(tuple(_dist_from_dict(d, a, j) for j, d in enumerate(attributes, start=1)))
        labels.append(_typed(arm.get("label", str(a)), str, f"arm {a} label"))
    return BanditInstance(
        arms=tuple(arms),
        threshold=doc["threshold"],
        arm_labels=tuple(labels) if any("label" in arm for arm in arm_docs) else None,
        attribute_labels=(
            _typed_items(doc["attribute_labels"], str, "attribute_labels")
            if "attribute_labels" in doc else None
        ),
    )


def write_instance(instance: BanditInstance, path: str | Path) -> None:
    """Write ``instance`` as one line of JSON: with no ``indent``, json's C
    encoder writes it, about 3x faster than the indented form."""
    Path(path).write_text(json.dumps(instance_to_dict(instance)) + "\n", encoding="utf-8")


def read_instance(path: str | Path) -> BanditInstance:
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# The keyword arguments of ``build_synthetic`` an instance block may set,
# each with its JSON type.
_SYNTHETIC_KEYS = {"gap": float, "num_arms": int, "num_attributes": int, "variance": float}

# The keys of sweep config and portfolio documents, required ones first.
_SWEEP_REQUIRED = ("instance", "algorithms", "budgets", "trials")
_SWEEP_KEYS = (*_SWEEP_REQUIRED, "base_seed", "params")
_PORTFOLIO_REQUIRED = ("genres", "arms")
_PORTFOLIO_KEYS = (*_PORTFOLIO_REQUIRED, "threshold", "min_ratings", "arm_labels")


def resolve_instance(ref: str | dict[str, Any]) -> tuple[BanditInstance, str]:
    """Resolve an instance reference to (instance, display name).

    A string reference may be a synthetic instance name, the built-in
    ``table1-surrogate``, or a path to an instance document; a dict is
    synthetic-instance keyword arguments (``name`` plus optional ``gap``,
    ``num_arms``, ``num_attributes``, ``variance``). A key the dict form
    does not read is an error, so that a misspelt key cannot silently
    leave a default in place; so is a value of the wrong JSON type.
    """
    if isinstance(ref, dict):
        _keys(ref, ("name", *_SYNTHETIC_KEYS), (), "instance block")
        name = ref.get("name")
        if name not in SYNTHETIC_NAMES:
            raise ValueError(f"unknown synthetic instance name {name!r}")
        kwargs = {
            key: _typed(ref[key], kind, f"instance {key}") for key, kind in _SYNTHETIC_KEYS.items()
            if key in ref
        }
        return build_synthetic(name, **kwargs), name
    _typed(ref, str, "instance")
    if ref in SYNTHETIC_NAMES:
        return build_synthetic(ref), ref
    if ref == "table1-surrogate":
        return table1_surrogate_instance(), ref
    path = Path(ref)
    if not path.exists():
        raise ValueError(
            f"instance reference {ref!r} is neither a known name "
            f"({', '.join(SYNTHETIC_NAMES)}, table1-surrogate) nor a file"
        )
    return read_instance(path), path.name


def load_sweep_config(doc: dict[str, Any], base_seed: int) -> SweepConfig:
    """The sweep configuration of a parsed config document, run at ``base_seed``.

    Required keys: ``instance``, ``algorithms``, ``budgets``, ``trials``.
    Optional: ``base_seed``, which the caller resolves into ``base_seed``
    (the command line's ``--seed`` comes first), and ``params``. Any other
    key, or a value of the wrong JSON type, is an error that names it.
    """
    _keys(doc, _SWEEP_KEYS, _SWEEP_REQUIRED, "sweep config")
    instance, name = resolve_instance(doc["instance"])
    return SweepConfig(
        instance=instance,
        algorithms=_typed_items(doc["algorithms"], str, "algorithms"),
        budgets=_typed(doc["budgets"], list, "budgets"),  # SweepConfig checks the integers
        trials=doc["trials"],
        base_seed=base_seed,
        params={
            k: _typed(v, dict, f"params of {k!r}")
            for k, v in _typed(doc.get("params", {}), dict, "params").items()
        },
        instance_name=name,
    )


def portfolio_from_dict(doc: Any, threshold: float, min_ratings: int) -> PortfolioSpec:
    """The spec of a parsed portfolio document: ``genres``, an array of
    strings; ``arms``, an array of objects that map each genre to an integer
    movie id; optionally a number ``threshold`` and an integer
    ``min_ratings``, by default the arguments; and optionally ``arm_labels``,
    an array of strings. Any other key, or a value of the wrong JSON type,
    is an error that names it, or the (1-based) arm and the genre."""
    doc = _typed(doc, dict, "a portfolio document")
    _keys(doc, _PORTFOLIO_KEYS, _PORTFOLIO_REQUIRED, "portfolio document")
    arms = tuple(
        {genre: _typed(movie, int, f"arm {a} genre {genre!r}")
         for genre, movie in _typed(arm, dict, f"arm {a}").items()}
        for a, arm in enumerate(_typed(doc["arms"], list, "arms"), start=1)
    )
    return PortfolioSpec(
        genres=_typed_items(doc["genres"], str, "genres"),
        arms=arms,
        threshold=doc.get("threshold", threshold),
        min_ratings=doc.get("min_ratings", min_ratings),
        arm_labels=_typed_items(doc["arm_labels"], str, "arm_labels") if "arm_labels" in doc else None,
    )


def hardness_to_dict(
    report: HardnessReport, prediction: ExponentPrediction | None = None
) -> dict[str, Any]:
    doc = _plain(report)
    if prediction is not None:
        doc["exponent_prediction"] = _plain(prediction)
    return doc


def trace_to_dict(trace: RunTrace) -> dict[str, Any]:
    doc = _plain(trace)
    doc["per_round_scores"] = [
        {str(arm): score for arm, score in round_scores}
        for round_scores in doc["per_round_scores"]
    ]
    return doc


def write_sweep_result(result: SweepResult, table_path: str | Path, json_path: str | Path) -> None:
    """Write the comma-separated table and the JSON document."""
    Path(table_path).write_text(result.to_table(), encoding="utf-8")
    Path(json_path).write_text(
        json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
