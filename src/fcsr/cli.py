"""Command-line interface.

Subcommands: ``gen-instance`` (synthetic benchmarks and the adversarial
families), ``hardness`` (difficulty indices and bound exponents for an
instance file), ``run`` (one traced algorithm run), ``sweep`` (Monte-Carlo
accuracy sweep from a config file), and ``ingest`` (ratings CSVs into an
instance document).

Data goes to stdout or files; progress and notes go to stderr, so pipelines
stay clean. Exit code 0 on success, 2 on configuration or validation
errors (per-cell sweep failures are recorded in the output instead).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .algorithms import ALGORITHM_IDS, run_algorithm
from .core import RngStream, oracle
from .hardness import (
    compute_hardness,
    generate_feasibility_class,
    generate_risky_class,
    predict_exponents,
)
from .harness import GAUSSIAN_VARIANCE, SYNTHETIC_NAMES, build_synthetic, run_sweep
from .movielens import (
    DEFAULT_MIN_RATINGS,
    DEFAULT_THRESHOLD,
    auto_select_portfolios,
    build_instance,
    parse_corpus,
)
from .serialize import (
    hardness_to_dict,
    instance_to_dict,
    load_sweep_config,
    portfolio_from_dict,
    read_instance,
    trace_to_dict,
    write_instance,
    write_sweep_result,
)

DEFAULT_SEED = 20250808

_CLASS_NAMES = ("feasibility-class", "risky-class")
# The flags of ``fcsr run`` that set a run keyword; unset unless given, so
# that the run's own default applies.
_RUN_FLAGS = (
    ("--f", "feasibility_fraction", "feasibility budget fraction (fcsr)"),
    ("--g", "apt_fraction", "adaptive thresholding fraction (fcsr)"),
    ("--explore-fraction", "explore_fraction", "stage-one fraction (etc)"),
)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _pick_seed(given: int | None) -> int:
    if given is not None:
        return given
    _log(f"no seed given; using recorded default {DEFAULT_SEED}")
    return DEFAULT_SEED


def _cmd_gen_instance(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind in SYNTHETIC_NAMES:
        instance = build_synthetic(
            kind, gap=args.a, num_arms=args.k, num_attributes=args.m,
            variance=args.variance,
        )
        if args.out:
            write_instance(instance, args.out)
            _log(f"wrote {args.out}")
        else:
            print(json.dumps(instance_to_dict(instance), indent=2))
        return 0
    # family generators write one file per member
    if args.out is None:
        raise ValueError(f"{kind} generates multiple instances; --out DIR is required")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "feasibility-class":
        if args.d is None:
            raise ValueError("feasibility-class requires --d")
        members = generate_feasibility_class(args.d, args.k)
    else:
        if args.beta is None:
            raise ValueError("risky-class requires --beta")
        members = generate_risky_class(args.beta, args.k, args.m)
    for idx, member in enumerate(members):
        path = out_dir / f"{kind}-{idx:03d}.json"
        write_instance(member, path)
    _log(f"wrote {len(members)} instance files to {out_dir}")
    return 0


def _cmd_hardness(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    report = compute_hardness(instance)
    prediction = None
    if report.overall_hardness > 0.0:
        prediction = predict_exponents(report, args.budget, args.r)
    else:
        _log("overall hardness is 0; exponent prediction is vacuous and omitted")
    doc = hardness_to_dict(report, prediction)
    if args.pretty:
        best = report.best_arm if report.best_arm else "none (flag 0)"
        print(f"arms: {report.num_arms}  attributes: {report.num_attributes}")
        print(f"best arm: {best}   risky arms: {list(report.risky_set) or '[]'}")
        print(f"mean hardness:        {report.mean_hardness:.6g}")
        print(f"risky hardness:       {report.risky_hardness:.6g}")
        print(f"feasibility hardness: {report.feasibility_hardness:.6g}")
        print(f"overall hardness:     {report.overall_hardness:.6g}")
        if prediction:
            print(
                f"predicted exponents at T={args.budget}, R={args.r}: "
                f"lower {prediction.lower_bound_exponent:.6g} "
                f"(prefactor 1/6), upper {prediction.upper_bound_exponent:.6g} "
                f"(prefactor 3K^2 = {prediction.upper_bound_prefactor:.6g})"
            )
    else:
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    if args.tau is not None:
        instance = dataclasses.replace(instance, threshold=args.tau)
    seed = _pick_seed(args.seed)
    # Only the flags given: one the algorithm does not read is an error.
    params = {key: getattr(args, key) for _, key, _ in _RUN_FLAGS if key in args}
    trace = run_algorithm(args.algorithm, instance, args.budget, RngStream(seed), **params)
    doc = trace_to_dict(trace)
    doc.update(algorithm=args.algorithm, budget=args.budget, seed=seed, threshold=instance.threshold)
    if args.pretty:
        label = (
            instance.label_of(trace.decision) if trace.decision else "none (flag 0)"
        )
        print(f"decision: {trace.decision} ({label})")
        print(f"threshold: {instance.threshold}")
        print(f"pulls: {trace.pulls_total} of {args.budget}")
        for phase, pulls in trace.pulls_by_phase.items():
            print(f"  {phase}: {pulls}")
        if trace.elimination_order:
            print(f"elimination order: {list(trace.elimination_order)}")
    else:
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{args.config}: a sweep config must be a JSON object")
    seed = _pick_seed(args.seed if args.seed is not None else doc.get("base_seed"))
    config = load_sweep_config(doc, seed)
    _log(
        f"sweep: instance={config.instance_name} algorithms={list(config.algorithms)} "
        f"budgets={list(config.budgets)} trials={config.trials} workers={args.workers}"
    )
    result = run_sweep(config, workers=args.workers)
    out = Path(args.out)
    if out.suffix == ".json":
        table_out, json_out = out.with_suffix(".csv"), out
    else:
        table_out, json_out = out, out.with_suffix(out.suffix + ".json")
    write_sweep_result(result, table_out, json_out)
    for cell in result.cells:
        if cell.note:
            _log(f"[{cell.algorithm} @ {cell.budget}] {cell.note}")
    _log(f"wrote {table_out} and {json_out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    corpus = parse_corpus(args.ratings, args.movies)
    _log(
        f"parsed {len(corpus)} ratings over {len(corpus.movies)} movies "
        f"({corpus.skipped_rows} rows skipped)"
    )
    if args.portfolios:
        doc = json.loads(Path(args.portfolios).read_text(encoding="utf-8"))
        spec = portfolio_from_dict(doc, args.threshold, args.min_ratings)
    else:
        seed = _pick_seed(args.seed)
        spec = auto_select_portfolios(
            corpus,
            num_arms=args.k,
            num_attributes=args.m,
            min_ratings=args.min_ratings,
            threshold=args.threshold,
            seed=seed,
        )
    instance = build_instance(corpus, spec)
    write_instance(instance, args.out)
    truth = oracle(instance)
    _log(
        f"wrote {args.out}: K={instance.num_arms} M={instance.num_attributes} "
        f"feasible={list(truth.feasible_arms)} best={truth.best_arm}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcsr",
        description=(
            "Feasibility-constrained fixed-budget best-arm identification: "
            "instance generation, hardness reports, runs, and Monte-Carlo sweeps."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen-instance",
        help="generate a synthetic benchmark instance or an adversarial family",
    )
    gen.add_argument("kind", choices=SYNTHETIC_NAMES + _CLASS_NAMES)
    gen.add_argument("--a", type=float, default=None, help="difficulty gap in (0.001, 0.1)")
    gen.add_argument("--k", type=int, default=10, help="number of arms")
    gen.add_argument("--m", type=int, default=5, help="number of attributes")
    gen.add_argument("--variance", type=float, default=GAUSSIAN_VARIANCE,
                     help="Gaussian reward variance for the synthetic benchmarks")
    gen.add_argument("--d", type=float, default=None, help="feasibility-class gap in (0, 0.25]")
    gen.add_argument("--beta", type=float, default=None, help="risky-class difficulty in (0, 1)")
    gen.add_argument("--out", default=None, help="output file (or directory for families)")
    gen.set_defaults(handler=_cmd_gen_instance)

    hardness = sub.add_parser("hardness", help="difficulty indices for an instance file")
    hardness.add_argument("instance", help="instance document path")
    hardness.add_argument("--budget", type=int, default=10000, help="budget T for exponent predictions")
    hardness.add_argument("--r", type=float, default=1.0, help="sub-Gaussian scale R")
    hardness.add_argument("--pretty", action="store_true", help="human-readable output")
    hardness.set_defaults(handler=_cmd_hardness)

    run = sub.add_parser("run", help="one traced run of an algorithm")
    run.add_argument("instance", help="instance document path")
    run.add_argument("--algorithm", choices=ALGORITHM_IDS, required=True)
    run.add_argument("--budget", type=int, required=True)
    run.add_argument("--seed", type=int, default=None)
    for flag, key, help_text in _RUN_FLAGS:
        run.add_argument(flag, dest=key, type=float, default=argparse.SUPPRESS, help=help_text)
    run.add_argument("--tau", type=float, help="threshold in place of the instance's own")
    run.add_argument("--pretty", action="store_true", help="human-readable output")
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser("sweep", help="Monte-Carlo sweep from a config file")
    sweep.add_argument("--config", required=True, help="sweep config document")
    sweep.add_argument("--out", required=True, help="output table path (JSON written alongside)")
    sweep.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    sweep.add_argument("--seed", type=int, default=None, help="override the config base seed")
    sweep.set_defaults(handler=_cmd_sweep)

    ingest = sub.add_parser("ingest", help="build an instance from ratings CSVs")
    ingest.add_argument("--ratings", required=True, help="ratings.csv path")
    ingest.add_argument("--movies", required=True, help="movies.csv path")
    ingest.add_argument("--portfolios", default=None,
                        help="portfolio document (genre -> movie id per arm); omit to auto-select")
    ingest.add_argument("--k", type=int, default=3, help="portfolios to auto-select")
    ingest.add_argument("--m", type=int, default=5, help="genres to auto-select")
    ingest.add_argument("--min-ratings", type=int, default=DEFAULT_MIN_RATINGS)
    ingest.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    ingest.add_argument("--seed", type=int, default=None)
    ingest.add_argument("--out", required=True, help="output instance path")
    ingest.set_defaults(handler=_cmd_ingest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, KeyError, OSError) as exc:
        _log(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
