"""Command line front end.

Each analysis subcommand runs the report's stages that its own stage
needs, through the same ``stratlogit.pipeline`` functions as
``report``, and writes that stage's files in the report's formats:

    ingest       normalized.csv
    describe     features.csv, descriptive_stats.csv, correlation.csv, vif.csv
    fit          inference.csv, fit.json
    select       comparison.csv, selection.json
    evaluate     confusion.csv, metrics.csv, roc.csv
    attribute    shap_values.csv, importance.csv, trend_<feature>.csv
    communities  partition.csv, dendrogram.json of the co-author graph
    report       report.json plus the CSV side files of every stage

``fit``, ``evaluate`` and ``attribute`` use the ``--features`` subset
(default all) where the report uses the selected model.  A flag that
sets a RunConfig field takes the field's default, and every flag value,
``--out`` included, is checked before any input is read.  This module
parses arguments and prints one summary line; it builds no payload, and
every file, with its layout, is written by ``stratlogit.emit``.

Exit codes: 0 success, 2 configuration, 3 data, 4 numerical,
5 internal invariant breach.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import __version__
from .emit import (
    out_path,
    write_attribute_files,
    write_dendrogram_json,
    write_describe_files,
    write_evaluate_files,
    write_fit_files,
    write_partition_csv,
    write_report_files,
    write_select_files,
)
from .errors import ConfigError, PipelineError, StratLogitError
from .indicators import FEATURE_COLUMNS
from .ingest import write_dataset_csv
from .network import build_graph, check_target_communities, girvan_newman, read_edge_list
from .pipeline import (
    SELECTION_MODES,
    RunConfig,
    attribute_fit,
    build_indicators,
    describe_indicators,
    evaluate_fit,
    fit_features,
    load_dataset,
    run_pipeline,
    select_model,
    split_rows,
    training_means,
    trend_rows,
)


def _add_field_arg(p, flag, field, text, **kwargs):
    """``flag`` setting the RunConfig field ``field``, with the field's
    default and that default's type."""
    default = RunConfig.__dataclass_fields__[field].default
    p.add_argument(
        flag,
        dest=field,
        type=type(default),
        default=default,
        help=f"{text} (default %(default)s)",
        **kwargs,
    )


def _add_input_args(p):
    p.add_argument("--input", dest="input_path", required=True, help="scholar activity CSV")
    _add_field_arg(p, "--delimiter", "delimiter", "CSV delimiter")


def _add_weight_args(p):
    _add_field_arg(p, "--alpha", "alpha", "composite weight of post density")
    _add_field_arg(p, "--beta", "beta", "composite weight of followers/followed")


def _add_model_args(p):
    _add_weight_args(p)
    _add_field_arg(p, "--train-frac", "train_fraction", "training fraction")
    _add_field_arg(p, "--seed", "seed", "split seed")
    _add_field_arg(p, "--max-iter", "max_iter", "solver iteration cap")
    _add_field_arg(p, "--tol", "tol", "gradient convergence tolerance")


def _add_select_arg(p):
    _add_field_arg(p, "--select", "selection", "search strategy", choices=SELECTION_MODES)


def _add_out_arg(p):
    p.add_argument("--out", dest="out_dir", required=True, help="output directory")


def _add_features_arg(p):
    p.add_argument(
        "--features",
        default=None,
        help=f"comma separated subset of {','.join(FEATURE_COLUMNS)} (default: all)",
    )


def _parse_features(raw):
    if raw is None:
        return tuple(FEATURE_COLUMNS)
    names = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not names:
        raise ConfigError("--features must name at least one feature")
    unknown = [n for n in names if n not in FEATURE_COLUMNS]
    if unknown:
        raise ConfigError(
            f"unknown features {unknown}; valid names: {', '.join(FEATURE_COLUMNS)}"
        )
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate features in {names}")
    return names


def _check_out(out_dir) -> None:
    """ConfigError, naming ``out_dir``, when it cannot be a directory: it
    exists and is not one, or its nearest existing ancestor is not one.
    Nothing is created, so a run that fails on its input leaves no trace."""
    path = target = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        reason = "File exists" if path == target else "Not a directory"
        raise ConfigError(f"cannot create output directory {out_dir}: {reason}")


def _config(args) -> RunConfig:
    """The RunConfig of a subcommand's flags, checked as it is made; a
    field the subcommand has no flag for keeps its default."""
    return RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    )


def _split(cfg):
    """Ingest, indicators and split: what every model stage starts from."""
    _, dataset = load_dataset(cfg)
    fm = build_indicators(cfg, dataset)
    return fm, split_rows(cfg, fm)


def _fit(args):
    """Stages up to fit, for the ``--features`` subset."""
    features = _parse_features(args.features)
    cfg = _config(args)
    fm, split = _split(cfg)
    return fm, split, fit_features(cfg, fm, split, features)


def cmd_ingest(args) -> int:
    cfg = _config(args)
    raw, eligible = load_dataset(cfg)
    kept = raw if args.keep_ineligible else eligible
    path = out_path(args.out_dir, "normalized.csv")
    write_dataset_csv(kept, path)
    print(f"read {raw.provenance.rows_read} rows, kept {len(kept.scholar_id)}, wrote {path}")
    return 0


def cmd_describe(args) -> int:
    cfg = _config(args)
    _, dataset = load_dataset(cfg)
    fm = build_indicators(cfg, dataset)
    description = describe_indicators(fm)
    write_describe_files(args.out_dir, fm, description)
    print(
        f"described {len(fm.column_names)} variables over {fm.n_rows} rows "
        f"(mean VIF {float(np.mean(description[2]))!r})"
    )
    return 0


def cmd_fit(args) -> int:
    _, _, fit = _fit(args)
    write_fit_files(args.out_dir, fit)
    print(
        f"fit {'+'.join(fit.feature_names)} on {fit.n_obs} rows: converged={fit.converged} "
        f"iterations={fit.iterations} loglik={fit.log_lik!r} aic={fit.aic!r}"
    )
    return 0


def cmd_select(args) -> int:
    cfg = _config(args)
    fm, split = _split(cfg)
    table, best_row = select_model(cfg, fm, split, fit_features(cfg, fm, split))
    write_select_files(args.out_dir, cfg.selection, table, best_row)
    print(
        f"{len(table.rows)} models in comparison.csv ({cfg.selection}); "
        f"best {'+'.join(best_row.spec.features)} aic={best_row.aic!r}"
    )
    return 0


def cmd_evaluate(args) -> int:
    fm, split, fit = _fit(args)
    cm, mets, roc = evaluate_fit(fm, split, fit)
    write_evaluate_files(args.out_dir, cm, mets, roc)
    print(
        f"evaluated {'+'.join(fit.feature_names)} on {split.n_val} held-out rows: "
        f"accuracy={mets.accuracy!r} auc={roc.auc!r}"
    )
    return 0


def cmd_attribute(args) -> int:
    fm, split, fit = _fit(args)
    shap, ranking = attribute_fit(fm, training_means(fm, split), fit, "attributed")
    write_attribute_files(args.out_dir, fm, shap, ranking, trend_rows(fm, (shap,)))
    top = ranking.entries[0]
    print(
        f"attributed {len(fit.feature_names)} features over {fm.n_rows} rows; "
        f"top importance {top[0]}={top[1]!r}"
    )
    return 0


def cmd_communities(args) -> int:
    check_target_communities(args.target_communities)
    edges = read_edge_list(args.coauthor_edges, delimiter=args.delimiter)
    graph = build_graph(edges)
    dendrogram, best = girvan_newman(graph, target_communities=args.target_communities)
    write_partition_csv(best, out_path(args.out_dir, "partition.csv"))
    write_dendrogram_json(dendrogram, out_path(args.out_dir, "dendrogram.json"))
    print(
        f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges "
        f"({graph.self_loops_dropped} self-loops dropped); "
        f"best partition: {best.n_communities} communities, "
        f"modularity={best.modularity!r}"
    )
    return 0


def cmd_report(args) -> int:
    report = run_pipeline(_config(args))
    written = write_report_files(report, args.out_dir)
    best = report.best_row
    print(
        f"wrote {len(written)} files to {args.out_dir}; best model "
        f"{'+'.join(best.spec.features)} aic={best.aic!r}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratlogit",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and normalize the scholar CSV")
    _add_input_args(p)
    _add_out_arg(p)
    p.add_argument(
        "--keep-ineligible",
        action="store_true",
        help="keep records failing the eligibility screens",
    )
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("describe", help="indicator stats, correlations and VIF")
    _add_input_args(p)
    _add_weight_args(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_describe)

    p = sub.add_parser("fit", help="fit one logistic model on the training split")
    _add_input_args(p)
    _add_model_args(p)
    _add_features_arg(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("select", help="search feature subsets by AIC")
    _add_input_args(p)
    _add_model_args(p)
    _add_select_arg(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_select)

    p = sub.add_parser("evaluate", help="validation metrics and ROC for one model")
    _add_input_args(p)
    _add_model_args(p)
    _add_features_arg(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("attribute", help="additive attributions and trend curves")
    _add_input_args(p)
    _add_model_args(p)
    _add_features_arg(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_attribute)

    p = sub.add_parser("communities", help="divisive communities of the co-author graph")
    p.add_argument("--coauthor-edges", required=True, help="edge list CSV")
    _add_field_arg(p, "--delimiter", "delimiter", "CSV delimiter")
    p.add_argument(
        "--target-communities",
        type=int,
        default=None,
        help="stop once this many components exist (default: run to exhaustion)",
    )
    _add_out_arg(p)
    p.set_defaults(handler=cmd_communities)

    p = sub.add_parser("report", help="full pipeline with JSON + CSV emission")
    _add_input_args(p)
    _add_model_args(p)
    _add_select_arg(p)
    _add_out_arg(p)
    p.set_defaults(handler=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out_dir)
        return args.handler(args)
    except PipelineError as exc:
        print(
            f"error[{exc.code}] stage={exc.stage} "
            f"partial_report={str(exc.partial_report).lower()}: {exc.cause}",
            file=sys.stderr,
        )
        return exc.exit_code
    except StratLogitError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
