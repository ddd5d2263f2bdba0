"""File formats: instance documents, sweep configs, reports.

Instances and sweep configurations are JSON documents. Floats survive a
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
from .harness import SYNTHETIC_NAMES, SweepConfig, SweepResult, _json_safe, build_synthetic
from .movielens import table1_surrogate_instance

__all__ = [
    "instance_to_dict",
    "instance_from_dict",
    "write_instance",
    "read_instance",
    "resolve_instance",
    "load_sweep_config",
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


def _dist_from_dict(data: dict[str, Any], arm: int, attribute: int) -> AttributeDistribution:
    """The distribution of one attribute document; a ``ValueError`` names
    the (1-based) arm and attribute it came from."""
    kind = data.get("kind")
    try:
        if kind == "gaussian":
            return Gaussian(mean=float(data["mean"]), variance=float(data["variance"]))
        if kind == "bernoulli":
            return Bernoulli(p=float(data["p"]))
        if kind == "empirical":
            return Empirical(values=tuple(data["values"]))
        raise ValueError(f"unknown distribution kind {kind!r}")
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


def instance_from_dict(doc: dict[str, Any]) -> BanditInstance:
    arms = tuple(
        tuple(_dist_from_dict(d, a, j) for j, d in enumerate(arm["attributes"], start=1))
        for a, arm in enumerate(doc["arms"], start=1)
    )
    labels = None
    if any("label" in arm for arm in doc["arms"]):
        labels = tuple(
            arm.get("label", str(i + 1)) for i, arm in enumerate(doc["arms"])
        )
    attr_labels = doc.get("attribute_labels")
    return BanditInstance(
        arms=arms,
        threshold=float(doc["threshold"]),
        arm_labels=labels,
        attribute_labels=tuple(attr_labels) if attr_labels else None,
    )


def write_instance(instance: BanditInstance, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(instance_to_dict(instance), indent=2) + "\n", encoding="utf-8"
    )


def read_instance(path: str | Path) -> BanditInstance:
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# The keyword arguments of ``build_synthetic`` an instance block may set,
# each with the type its value is read as.
_SYNTHETIC_KEYS = {"gap": float, "num_arms": int, "num_attributes": int, "variance": float}

# The keys of a sweep config document, required ones first.
_SWEEP_REQUIRED = ("instance", "algorithms", "budgets", "trials")
_SWEEP_KEYS = (*_SWEEP_REQUIRED, "base_seed", "params")


def resolve_instance(ref: str | dict[str, Any]) -> tuple[BanditInstance, str]:
    """Resolve an instance reference to (instance, display name).

    A string reference may be a synthetic instance name, the built-in
    ``table1-surrogate``, or a path to an instance document; a dict is
    synthetic-instance keyword arguments (``name`` plus optional ``gap``,
    ``num_arms``, ``num_attributes``, ``variance``). A key the dict form
    does not read is an error, so that a misspelt key cannot silently
    leave a default in place.
    """
    if isinstance(ref, dict):
        unread = [key for key in ref if key != "name" and key not in _SYNTHETIC_KEYS]
        if unread:
            raise ValueError(
                f"instance block has keys it does not read: {unread}; "
                f"valid: {['name', *_SYNTHETIC_KEYS]}"
            )
        name = ref.get("name")
        if name not in SYNTHETIC_NAMES:
            raise ValueError(f"unknown synthetic instance name {name!r}")
        kwargs = {
            key: read(ref[key]) for key, read in _SYNTHETIC_KEYS.items()
            if ref.get(key) is not None
        }
        return build_synthetic(name, **kwargs), name
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
    key is an error.
    """
    unread = [key for key in doc if key not in _SWEEP_KEYS]
    if unread:
        raise ValueError(
            f"sweep config has keys it does not read: {unread}; valid: {list(_SWEEP_KEYS)}"
        )
    missing = [k for k in _SWEEP_REQUIRED if k not in doc]
    if missing:
        raise ValueError(f"sweep config is missing keys: {', '.join(missing)}")
    instance, name = resolve_instance(doc["instance"])
    return SweepConfig(
        instance=instance,
        algorithms=tuple(doc["algorithms"]),
        budgets=tuple(int(b) for b in doc["budgets"]),
        trials=int(doc["trials"]),
        base_seed=int(base_seed),
        params={k: dict(v) for k, v in doc.get("params", {}).items()},
        instance_name=name,
    )


def hardness_to_dict(
    report: HardnessReport, prediction: ExponentPrediction | None = None
) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "num_arms": report.num_arms,
        "num_attributes": report.num_attributes,
        "best_arm": report.best_arm,
        "tied_best": list(report.tied_best),
        "risky_set": list(report.risky_set),
        "threshold_gaps": [
            [_json_safe(float(g)) for g in row] for row in report.threshold_gaps
        ],
        "suboptimality_gaps": [
            _json_safe(float(g)) for g in report.suboptimality_gaps
        ],
        "mean_hardness": _json_safe(report.mean_hardness),
        "feasibility_hardness": _json_safe(report.feasibility_hardness),
        "risky_hardness": _json_safe(report.risky_hardness),
        "overall_hardness": _json_safe(report.overall_hardness),
    }
    if prediction is not None:
        doc["exponent_prediction"] = {
            "budget": prediction.budget,
            "sub_gaussian_r": prediction.sub_gaussian_r,
            "lower_bound_exponent": _json_safe(prediction.lower_bound_exponent),
            "lower_bound_prefactor": prediction.lower_bound_prefactor,
            "upper_bound_exponent": _json_safe(prediction.upper_bound_exponent),
            "upper_bound_prefactor": prediction.upper_bound_prefactor,
            "feasibility_family_exponent": _json_safe(
                prediction.feasibility_family_exponent
            ),
            "risky_family_exponent": _json_safe(prediction.risky_family_exponent),
        }
    return doc


def trace_to_dict(trace: RunTrace) -> dict[str, Any]:
    return {
        "decision": trace.decision,
        "pulls_total": trace.pulls_total,
        "pulls_by_phase": dict(trace.pulls_by_phase),
        "elimination_order": list(trace.elimination_order),
        "per_round_scores": [
            {str(arm): score for arm, score in round_scores}
            for round_scores in trace.per_round_scores
        ],
    }


def write_sweep_result(result: SweepResult, table_path: str | Path, json_path: str | Path) -> None:
    """Write the comma-separated table and the JSON document."""
    Path(table_path).write_text(result.to_table(), encoding="utf-8")
    Path(json_path).write_text(
        json.dumps(result.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
