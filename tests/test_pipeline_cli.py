"""End-to-end pipeline runs, deterministic emission, and the command
line front end (exit codes, file outputs, error formatting)."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DATA,
    ROOT,
    calibrate_labels_ref,
    comparison_to_dicts_ref,
    dataset_rows,
    make_dataset,
    make_problem,
    read_comparison_csv,
    read_roc_csv,
    to_json_ref,
)
from stratlogit import logit, model_select, pipeline, synth
from stratlogit.attribution import lowess
from stratlogit.cli import _config, build_parser, main
from stratlogit.emit import report_payload, to_json, write_report_files, write_select_files
from stratlogit.errors import ConfigError, DegenerateInputError, PipelineError, StratLogitError
from stratlogit.evaluate import make_split
from stratlogit.indicators import FEATURE_COLUMNS, CompositeWeights, build_feature_matrix
from stratlogit.ingest import COLUMNS, filter_eligible, parse_dataset, write_dataset_csv
from stratlogit.logit import fit_logistic
from stratlogit.pipeline import RunConfig, run_pipeline
from stratlogit.synth import make_coauthor_edges, make_scholar_dataset

SCHOLARS = str(DATA / "synthetic_scholars.csv")
EDGES = str(DATA / "coauthor_edges.csv")
# Every command variant that fits a model.
FITTING_COMMANDS = [
    ["fit"],
    ["evaluate"],
    ["attribute"],
    ["select", "--select", "enumerate"],
    ["select", "--select", "stepwise"],
    ["report", "--select", "enumerate"],
    ["report", "--select", "stepwise"],
]

HEADER = (
    "scholar_id,account_days,post_count,followers_current,followers_historical,"
    "followed_count,publications,citations,per_cited,amount_weight,h_index,"
    "professional_declaration,science_dedicated"
)


@pytest.fixture(scope="module")
def stepwise_report():
    return run_pipeline(RunConfig(input_path=SCHOLARS, selection="stepwise"))


def _csv_columns(path):
    """{header: tuple of that column's cells} of a written CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return dict(zip(rows[0], zip(*rows[1:])))


class TestRunPipeline:
    def test_report_sections(self, stepwise_report):
        report = stepwise_report
        d = report_payload(report)
        assert set(d) == {
            "tool",
            "config",
            "dataset",
            "descriptive_stats",
            "correlation",
            "vif",
            "split",
            "full_model",
            "selection",
            "evaluation",
            "attribution",
        }
        assert d["tool"]["name"] == "stratlogit"
        assert d["dataset"]["rows_read"] == 459
        assert d["dataset"]["rows_eligible"] == 459
        assert d["split"] == {
            "seed": 0,
            "train_fraction": 0.7,
            "n_train": 321,
            "n_val": 138,
        }
        assert len(d["descriptive_stats"]) == 9
        assert len(d["vif"]["values"]) == 9
        assert d["full_model"]["k_params"] == 10
        assert len(d["full_model"]["inference"]) == 9
        assert d["selection"]["mode"] == "stepwise"
        cm = d["evaluation"]["confusion"]
        assert cm["tp"] + cm["fp"] + cm["tn"] + cm["fn"] == 138
        assert 0.0 <= d["evaluation"]["roc"]["auc"] <= 1.0
        assert set(d["attribution"]["trends"]) == set(d["vif"]["names"])
        # out_dir is an emission detail, not part of the analysis echo
        assert "out_dir" not in d["config"]

    def test_selection_best_consistent(self, stepwise_report):
        d = report_payload(stepwise_report)
        best = d["selection"]["best"]
        table = stepwise_report.comparison.rows
        assert table[-1].model_id == best["model_id"]
        assert table[-1].aic == best["aic"]
        aics = [row.aic for row in table]
        assert aics == sorted(aics, reverse=True)

    # 8 is the fewest iterations at which the lone full fit from zeros
    # converges on the fixture, so the fit stage passes the cap and the
    # warm-started candidates run under it.
    @pytest.mark.parametrize(
        "selection,max_iter,tol",
        [
            ("enumerate", 1000, 1e-8),
            ("enumerate", 8, 1e-8),
            ("enumerate", 1000, 0.1),
            ("stepwise", 1000, 1e-8),
            ("stepwise", 1000, 0.1),
        ],
    )
    def test_best_refit_reproduces_its_row(self, selection, max_iter, tol):
        cfg = RunConfig(input_path=SCHOLARS, selection=selection, max_iter=max_iter, tol=tol)
        _, dataset = pipeline.load_dataset(cfg)
        fm = pipeline.build_indicators(cfg, dataset)
        split = pipeline.split_rows(cfg, fm)
        full = pipeline.fit_features(cfg, fm, split)
        _, best_row = pipeline.select_model(cfg, fm, split, full)
        best_fit = best_row.fit
        assert best_fit.iterations == best_row.iterations
        assert best_fit.aic == best_row.aic
        assert best_fit.coef.tolist() == list(best_row.coefficients.values())

    @pytest.mark.parametrize("selection", pipeline.SELECTION_MODES)
    def test_select_makes_no_second_fit(self, selection, monkeypatch):
        # The full model is the run's one lone fit and the search's
        # all-feature row; the selected model is its table row's fit from
        # the search. Every design is fitted once: the 511 subsets, or the
        # full model and the 35 deletions of the stepwise steps.
        calls, designs = [], []

        def counted(*args, **kwargs):
            calls.append(args[0].feature_names)
            return real(*args, **kwargs)

        def counted_batch(X, *args, **kwargs):
            designs.append(len(X))
            return real_batch(X, *args, **kwargs)

        real, real_batch = pipeline.fit_logistic, logit.fit_logistic_batch
        monkeypatch.setattr(pipeline, "fit_logistic", counted)
        monkeypatch.setattr(logit, "fit_logistic_batch", counted_batch)
        monkeypatch.setattr(model_select, "fit_logistic_batch", counted_batch)
        report = run_pipeline(RunConfig(input_path=SCHOLARS, selection=selection, seed=7))
        assert calls == [tuple(FEATURE_COLUMNS)]
        assert sum(designs) == {"enumerate": 511, "stepwise": 36}[selection]
        (full_row,) = [
            row for row in report.comparison.rows if row.spec.features == tuple(FEATURE_COLUMNS)
        ]
        assert full_row.fit is report.full_fit

    def test_trend_entries_flag_dropped_features(self, stepwise_report):
        d = report_payload(stepwise_report)
        kept = set(d["selection"]["best"]["features"])
        for name, entry in d["attribution"]["trends"].items():
            assert len(entry["x"]) == len(entry["full"])
            if name in kept:
                assert entry["missing_from"] == []
                assert len(entry["optimized"]) == len(entry["x"])
            else:
                assert entry["missing_from"] == ["optimized"]
                assert entry["optimized"] is None

    # Each bad value with the call that applies it: RunConfig checks the
    # value by that call's own rule, so both raise the same error.
    @pytest.mark.parametrize(
        "field, value, apply",
        [
            ("alpha", -1.0, lambda v: CompositeWeights(alpha=v)),
            ("beta", math.nan, lambda v: CompositeWeights(beta=v)),
            ("alpha", "1", lambda v: CompositeWeights(alpha=v)),
            ("train_fraction", 1.0, lambda v: make_split(10, v, 0)),
            ("seed", -1, lambda v: make_split(10, 0.7, v)),
            ("seed", 1.5, lambda v: make_split(10, 0.7, v)),
            ("max_iter", 0, lambda v: fit_logistic(make_problem(0, n=40)[0], max_iter=v)),
            ("max_iter", 2.5, lambda v: fit_logistic(make_problem(0, n=40)[0], max_iter=v)),
            ("tol", math.inf, lambda v: fit_logistic(make_problem(0, n=40)[0], tol=v)),
            ("delimiter", ";;", lambda v: parse_dataset(SCHOLARS, delimiter=v)),
        ],
    )
    def test_config_error_matches_the_applying_call(self, field, value, apply):
        with pytest.raises(StratLogitError) as made:
            RunConfig(input_path=SCHOLARS, **{field: value})
        with pytest.raises(StratLogitError) as applied:
            apply(value)
        assert type(made.value) is type(applied.value) is ConfigError
        assert str(made.value) == str(applied.value)

    def test_cli_defaults_are_the_config_defaults(self):
        args = build_parser().parse_args(["report", "--input", SCHOLARS, "--out", "out"])
        assert _config(args) == RunConfig(input_path=SCHOLARS)

    def test_config_validation_runs_before_stages(self):
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig(input_path=SCHOLARS, train_fraction=1.5))
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig(input_path=SCHOLARS, selection="grid"))
        # open() would take 5 as a file descriptor.
        for path in ("", 5, SCHOLARS.encode()):
            with pytest.raises(ConfigError, match="input_path must be a non-empty string"):
                run_pipeline(RunConfig(input_path=path))

    def test_missing_input_fails_in_ingest_stage(self):
        with pytest.raises(PipelineError) as info:
            run_pipeline(RunConfig(input_path="/nonexistent/input.csv"))
        assert info.value.stage == "ingest"
        assert info.value.exit_code == 3
        assert info.value.partial_report is False

    def test_mid_stage_failure_reports_partial(self, tmp_path):
        # followed_count 0 passes ingest but breaks the following-ratio
        # indicator, so the failure lands in the indicators stage
        rows = [HEADER]
        for i, followed in enumerate((10, 0, 5, 7)):
            rows.append(
                f"S{i:04d},100,50,20,0,{followed},4,9,2.25,3,2,1,1"
            )
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(PipelineError) as info:
            run_pipeline(RunConfig(input_path=str(path)))
        assert info.value.stage == "indicators"
        assert info.value.partial_report is True
        assert info.value.exit_code == 3
        assert "S0001" in str(info.value.cause)


class TestDeterminism:
    def test_byte_identical_json(self):
        cfg = RunConfig(input_path=SCHOLARS, selection="stepwise", seed=3)
        a = to_json(report_payload(run_pipeline(cfg)))
        b = to_json(report_payload(run_pipeline(cfg)))
        assert a == b

    def test_config_echo_has_no_threads_key(self, stepwise_report):
        # The search runs on one thread, so the report echoes no thread count.
        assert "threads" not in report_payload(stepwise_report)["config"]

    def test_normalized_roundtrip_preserves_analysis(self, tmp_path, stepwise_report):
        rc = main(["ingest", "--input", SCHOLARS, "--out", str(tmp_path)])
        assert rc == 0
        normalized = tmp_path / "normalized.csv"
        assert normalized.exists()
        second = run_pipeline(
            RunConfig(input_path=str(normalized), selection="stepwise")
        )
        a = report_payload(stepwise_report)
        b = report_payload(second)
        # provenance naturally differs; every analytic section must not
        for key in (
            "descriptive_stats",
            "correlation",
            "vif",
            "split",
            "full_model",
            "selection",
            "evaluation",
            "attribution",
        ):
            assert a[key] == b[key], key
        assert a["config"]["input_path"] != b["config"]["input_path"]


class TestFixtureProvenance:
    def test_scholar_csv_matches_generator(self):
        generated = make_scholar_dataset()
        parsed = parse_dataset(SCHOLARS)
        assert len(parsed.scholar_id) == 459
        assert dataset_rows(parsed) == dataset_rows(generated)

    def test_default_label_count_scales_with_n(self):
        # The default keeps the fixture's 226 of 459 label-1 rows as a
        # share: round(226 * 2000 / 459) = 985.
        ds = make_scholar_dataset(n=2000, seed=1)
        assert int(build_feature_matrix(filter_eligible(ds)).target.sum()) == 985

    @pytest.mark.parametrize("n", [40, 80, 120])
    def test_label_calibration_equals_oracle(self, n):
        # Each swap's label count comes from the two rows' traded ranks;
        # the oracle relabels every row per trial.  Some cases stall.
        for seed in range(5):
            ds = make_scholar_dataset(n, seed, target_increase=None)
            followers, h_index = ds.followers_current, ds.h_index
            for target in (n // 4, n // 2, 3 * n // 4):
                try:
                    want = calibrate_labels_ref(followers, h_index, target)
                except DegenerateInputError as exc:
                    with pytest.raises(DegenerateInputError, match=f"^{exc}$"):
                        synth._calibrate_labels(followers, h_index, target)
                    continue
                got = synth._calibrate_labels(followers, h_index, target)
                assert got.tolist() == want.tolist(), (seed, target)

    def test_edge_csv_matches_generator(self):
        from stratlogit.network import build_graph, read_edge_list

        bundled = read_edge_list(EDGES)
        regenerated = make_coauthor_edges(seed=7)
        assert bundled == regenerated
        assert build_graph(bundled).edges == build_graph(regenerated).edges


class TestCliReport:
    def test_report_writes_files(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(
            [
                "report",
                "--input",
                SCHOLARS,
                "--select",
                "stepwise",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        names = sorted(os.listdir(out))
        assert "report.json" in names
        assert "features.csv" in names
        assert "comparison.csv" in names
        assert "confusion.csv" in names
        assert "roc.csv" in names
        assert sum(1 for n in names if n.startswith("trend_")) == 9
        assert sum(1 for n in names if n.startswith("inference_")) == 2
        assert sum(1 for n in names if n.startswith("shap_")) == 2
        assert sum(1 for n in names if n.startswith("importance_")) == 2
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["split"]["n_train"] == 321
        assert "wrote" in capsys.readouterr().out

    def test_repeat_runs_emit_identical_bytes(self, tmp_path):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            assert (
                main(
                    [
                        "report",
                        "--input",
                        SCHOLARS,
                        "--select",
                        "stepwise",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestCliErrors:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("ingest", ["--delimiter", ";;"]),
            ("describe", ["--delimiter", ";;"]),
            ("fit", ["--delimiter", ";;"]),
            ("communities", ["--delimiter", ";;"]),
            ("communities", ["--target-communities", "0"]),
            ("fit", ["--max-iter", "0"]),
            ("fit", ["--tol", "-1"]),
            ("evaluate", ["--max-iter", "0"]),
            ("evaluate", ["--tol", "-1"]),
            ("select", ["--tol", "0"]),
            ("fit", ["--tol", "inf"]),
            ("report", ["--tol", "inf"]),
            ("select", ["--tol", "nan"]),
            ("attribute", ["--max-iter", "0"]),
            ("report", ["--train-frac", "1"]),
            ("report", ["--seed", "-1"]),
            ("fit", ["--seed", "-1"]),
        ],
    )
    def test_bad_flag_exit_2_before_reading_input(self, command, flags, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        source = ["--coauthor-edges" if command == "communities" else "--input", missing]
        rc = main([command, *source, *flags, "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config_error]") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "communities"])
    def test_non_utf8_input_exit_3(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        if command == "report":
            text = HEADER + "\nMuñoz,100,5,20,0,10,4,9,,3,2,1,1\n"
        else:
            text = "author_a,author_b\nMuñoz,Lee\n"
        path.write_bytes(text.encode("latin-1"))
        source = "--coauthor-edges" if command == "communities" else "--input"
        rc = main([command, source, str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data_error]") and "Traceback" not in err
        assert str(path) in err and "not UTF-8" in err
        assert ("stage=ingest" in err) == (command == "report")
        assert not (tmp_path / "out").exists()

    # Counts end at 2**53, so no count overflows a statistic; a composite
    # weight this large makes CA's statistics overflow: at 1e305 its
    # standard deviation, at 1e122 the cube in its skewness.
    @pytest.mark.parametrize("alpha", ["1e305", "1e122"])
    @pytest.mark.parametrize("command", ["report", "describe"])
    def test_overflowing_statistic_exit_3_in_describe(
        self, command, alpha, tmp_path, capsys
    ):
        path = str(tmp_path / "scholars.csv")
        write_dataset_csv(make_scholar_dataset(n=80, seed=1, target_increase=None), path)
        rc = main([command, "--input", path, "--alpha", alpha, "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data_error]") and "Traceback" not in err
        assert "of CA is" in err
        assert ("stage=describe" in err) == (command == "report")
        assert not (tmp_path / "out").exists()

    def test_missing_input_exit_3_with_stage(self, capsys):
        rc = main(["report", "--input", "/nonexistent.csv", "--out", "/tmp/x"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error[" in err and "stage=ingest" in err
        assert "partial_report=false" in err

    def test_bad_feature_exit_2_before_reading_input(self, capsys):
        rc = main(
            ["fit", "--input", "/nonexistent.csv", "--features", "BOGUS", "--out", "/tmp/x"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "error[config_error]" in err and "BOGUS" in err

    def test_duplicate_feature_exit_2(self, capsys):
        rc = main(
            ["fit", "--input", SCHOLARS, "--features", "FR,FR", "--out", "/tmp/x"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "weights",
        [["inf", "1", "1"], ["1e308"] * 3, ["5e307"] * 3],
        ids=["inf", "1e308x3", "5e307x3"],
    )
    def test_unusable_edge_weights_exit_before_writing(self, weights, tmp_path, capsys):
        path = tmp_path / "edges.csv"
        rows = zip(("a,b", "b,c", "a,c"), weights)
        path.write_text(
            "author_a,author_b,weight\n" + "".join(f"{e},{w}\n" for e, w in rows),
            encoding="utf-8",
        )
        out = tmp_path / "out"
        rc = main(["communities", "--coauthor-edges", str(path), "--out", str(out)])
        assert rc in (3, 4)
        err = capsys.readouterr().err
        assert err.startswith("error[") and "Traceback" not in err
        assert not (out / "dendrogram.json").exists()
        assert not (out / "partition.csv").exists()

    # (command, the first file it writes)
    FIRST_FILES = [
        ("ingest", "normalized.csv"),
        ("describe", "features.csv"),
        ("fit", "inference.csv"),
        ("select", "comparison.csv"),
        ("evaluate", "confusion.csv"),
        ("attribute", "shap_values.csv"),
        ("report", "report.json"),
        ("communities", "partition.csv"),
    ]

    @pytest.mark.parametrize("blocked", ["out_is_file", "out_under_file", "file_is_dir"])
    @pytest.mark.parametrize("command, first", FIRST_FILES, ids=[c for c, _ in FIRST_FILES])
    def test_unwritable_out_exit_2(self, command, first, blocked, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("keep", encoding="utf-8")
        outs = {"out_is_file": taken, "out_under_file": taken / "sub"}
        out = outs.get(blocked, tmp_path / "out")
        if blocked == "file_is_dir":
            (out / first).mkdir(parents=True)
        source = ["--coauthor-edges", EDGES] if command == "communities" else ["--input", SCHOLARS]
        search = ["--select", "stepwise"] if command in ("select", "report") else []
        rc = main([command, *source, *search, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error[config_error]") and "Traceback" not in err
        assert str(out) in err
        assert taken.read_text(encoding="utf-8") == "keep"
        if blocked != "file_is_dir":
            # The unusable --out is found before the input is read.
            source[1] = str(tmp_path / "missing.csv")
            rc = main([command, *source, *search, "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("error[config_error]") and str(out) in err

    @pytest.mark.parametrize(
        "argv, cap",
        [pytest.param(argv, "1", id=" ".join(argv)) for argv in FITTING_COMMANDS]
        + [
            pytest.param(
                ["select", "--select", "enumerate"],
                "5",
                id="select --select enumerate --max-iter 5",
            )
        ],
    )
    def test_unconverged_fit_exit_4(self, argv, cap, tmp_path, capsys):
        # One Newton step cannot converge on the fixture: every command that
        # fits refuses to report a point that is not the maximum. The lone
        # full fit from zeros needs 8, and select makes it before its
        # search, so select fails at 5 too, though its warm-started
        # candidates would converge.
        out = tmp_path / "out"
        rc = main([*argv, "--input", SCHOLARS, "--max-iter", cap, "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[not_converged]") and "Traceback" not in err
        assert f"{cap} iterations" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["fit"], ["select", "--select", "stepwise"]], ids=" ".join)
    def test_collinear_design_exit_4(self, argv, tmp_path, capsys):
        # citations = 3 * publications with per_cited blank: the full design
        # is rank deficient, a numerical error of the lone full fit that
        # select makes before its search, as fit does.
        with open(SCHOLARS, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        for row in rows:
            row.update(citations=str(3 * int(row["publications"])), per_cited="")
        path = tmp_path / "collinear.csv"
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "out"
        rc = main([*argv, "--input", str(path), "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[singular_matrix]") and "Traceback" not in err
        assert "rank deficient" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", FITTING_COMMANDS, ids=" ".join)
    def test_fit_below_null_exit_4(self, argv, tmp_path, capsys):
        # At this tolerance every fit stops at beta = 0, before its first
        # step, below the intercept-only likelihood: not at its maximum.
        out = tmp_path / "out"
        rc = main([*argv, "--input", SCHOLARS, "--tol", "1e300", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert err.startswith("error[not_converged]") and "Traceback" not in err
        assert "below the intercept-only log-likelihood" in err and "smaller --tol" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--select", "enumerate", "--tol", "0.1"],
            ["report", "--select", "enumerate", "--tol", "0.1"],
            ["report", "--select", "stepwise", "--tol", "0.1"],
        ],
        ids=" ".join,
    )
    def test_best_refit_is_its_row(self, argv, tmp_path):
        # The search's fits start warm, and a cold fit of the best model
        # stops elsewhere within a loose tolerance. The optimized model is
        # the row's own fit, so the run succeeds and its coefficients are
        # the best row's.
        out = tmp_path / "out"
        assert main([*argv, "--input", SCHOLARS, "--out", str(out)]) == 0
        summary = out / ("selection.json" if argv[0] == "select" else "report.json")
        with open(summary, encoding="utf-8") as handle:
            selection = json.load(handle)
        best_id = selection.get("selection", selection)["best"]["model_id"]
        rows = read_comparison_csv(out / "comparison.csv")
        (best,) = [row for row in rows if row["model_id"] == best_id]
        if argv[0] == "report":
            with open(out / "inference_optimized.csv", newline="", encoding="utf-8") as handle:
                refit = {row["feature"]: float(row["coef"]) for row in csv.DictReader(handle)}
            assert refit == {f: best["coefficients"][f] for f in best["features"]}

    def test_data_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\nS0001,100,-5,20,0,10,4,9,,3,2,1,1\n", encoding="utf-8")
        rc = main(["ingest", "--input", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "error[" in capsys.readouterr().err

    def test_column_named_twice_exit_3_and_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "twice.csv"
        path.write_text(
            HEADER + ",post_count\nS0001,100,5,20,0,10,4,9,,3,2,1,1,7\n", encoding="utf-8"
        )
        rc = main(["report", "--input", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error[data_error]") and "Traceback" not in err
        assert "'post_count'" in err and "more than once" in err and "stage=ingest" in err
        assert not (tmp_path / "out").exists()


class TestCliSubcommands:
    def test_no_command_loads_scipy(self, tmp_path):
        # numpy and math compute everything, the chi-squared tail included,
        # so a fresh interpreter running every subcommand never loads scipy.
        runs = [["communities", "--coauthor-edges", EDGES, "--out", str(tmp_path / "c")]]
        for command in ("ingest", "describe", "fit", "select", "evaluate", "attribute", "report"):
            runs.append([command, "--input", SCHOLARS, "--out", str(tmp_path / command)])
        code = (
            "import sys\n"
            "from stratlogit.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"

    def test_ingest_keep_ineligible(self, tmp_path, capsys):
        # Only the rows that get features must pass the indicators' rules,
        # so an ineligible row with account_days 0 is read, written on
        # request, and screened out before the indicators.
        rows = dataset_rows(parse_dataset(SCHOLARS))
        rows[3].update(account_days=0, science_dedicated=False)
        path = str(tmp_path / "scholars.csv")
        write_dataset_csv(make_dataset(rows), path)
        for flags, out, kept in (([], "eligible", rows[:3] + rows[4:]),
                                 (["--keep-ineligible"], "all", rows)):
            assert main(["ingest", *flags, "--input", path, "--out", str(tmp_path / out)]) == 0
            assert f"read 459 rows, kept {len(kept)}," in capsys.readouterr().out
            assert dataset_rows(parse_dataset(tmp_path / out / "normalized.csv")) == kept
        out = tmp_path / "report"
        assert main(["report", "--select", "stepwise", "--input", path, "--out", str(out)]) == 0
        dataset = json.loads((out / "report.json").read_text(encoding="utf-8"))["dataset"]
        assert (dataset["rows_read"], dataset["rows_eligible"]) == (459, 458)

    def test_describe(self, tmp_path, capsys):
        rc = main(["describe", "--input", SCHOLARS, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("features.csv", "descriptive_stats.csv", "correlation.csv", "vif.csv"):
            assert (tmp_path / name).exists()
        assert "VIF" in capsys.readouterr().out

    def test_fit_select_evaluate_attribute(self, tmp_path):
        rc = main(
            ["fit", "--input", SCHOLARS, "--features", "FR,CA,AW", "--out", str(tmp_path)]
        )
        assert rc == 0
        fit_payload = json.loads((tmp_path / "fit.json").read_text(encoding="utf-8"))
        assert fit_payload["features"] == ["FR", "CA", "AW"]
        assert (tmp_path / "inference.csv").exists()

        rc = main(
            [
                "select",
                "--input",
                SCHOLARS,
                "--select",
                "stepwise",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "comparison.csv").exists()
        sel = json.loads((tmp_path / "selection.json").read_text(encoding="utf-8"))
        assert sel["mode"] == "stepwise"
        # the candidates are comparison.csv's alone
        assert set(sel) == {"mode", "n_models", "best"}
        assert set(sel["best"]) == {"model_id", "features", "aic", "bic"}

        rc = main(
            [
                "evaluate",
                "--input",
                SCHOLARS,
                "--features",
                "FR,CA,AW",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        for name in ("confusion.csv", "metrics.csv", "roc.csv"):
            assert (tmp_path / name).exists()

        rc = main(
            [
                "attribute",
                "--input",
                SCHOLARS,
                "--features",
                "FR,CA,AW",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert (tmp_path / "shap_values.csv").exists()
        assert (tmp_path / "importance.csv").exists()
        assert (tmp_path / "trend_FR.csv").exists()

    # enumerate: every one of the 2^9 - 1 candidates; stepwise: only the
    # accepted path, though each step fits every single-feature deletion.
    @pytest.mark.parametrize("mode, n_models", [("enumerate", 511), ("stepwise", 5)])
    def test_select_counts_the_models_in_comparison_csv(self, mode, n_models, tmp_path, capsys):
        rc = main(["select", "--input", SCHOLARS, "--select", mode, "--out", str(tmp_path)])
        assert rc == 0
        assert len(read_comparison_csv(tmp_path / "comparison.csv")) == n_models
        sel = json.loads((tmp_path / "selection.json").read_text(encoding="utf-8"))
        assert sel["n_models"] == n_models
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith(f"{n_models} models in comparison.csv ({mode}); best "), line

    # At seed 0 with --max-iter 7 --tol 1.0 the full fit converges in 6
    # iterations and two warm-started subsets stop at the cap.
    CAPPED = ["--seed", "0", "--max-iter", "7", "--tol", "1.0"]

    @pytest.mark.parametrize("command", ["select", "report"])
    def test_failed_candidates_leave_the_best_usable_row(self, command, tmp_path):
        out = tmp_path / "out"
        argv = [command, "--select", "enumerate", *self.CAPPED]
        assert main([*argv, "--input", SCHOLARS, "--out", str(out)]) == 0
        rows = read_comparison_csv(out / "comparison.csv")
        failed = [(r["model_id"], "+".join(r["features"])) for r in rows if r["failed"]]
        assert failed == [("model_084", "FGR+CA+C"), ("model_116", "FGR+CA+P+C")]
        assert all(r["failure"] == "not converged in 7 iterations" for r in rows if r["failed"])
        summary = out / ("selection.json" if command == "select" else "report.json")
        best = json.loads(summary.read_text(encoding="utf-8"))
        best = best.get("selection", best)["best"]
        assert (best["model_id"], best["features"]) == ("model_348", ["FGR", "FR", "CA", "C", "AW"])
        assert best["aic"] == 322.3558313069913
        usable = [r for r in rows if not r["failed"]]
        assert rows[0]["model_id"] == "model_348"
        assert rows[0]["aic"] == min(r["aic"] for r in usable)

    @pytest.mark.parametrize("mode", pipeline.SELECTION_MODES)
    def test_best_row_is_read_off_the_ordered_table(self, mode):
        cfg = RunConfig(input_path=SCHOLARS, selection=mode, seed=0, max_iter=7, tol=1.0)
        _, dataset = pipeline.load_dataset(cfg)
        fm = pipeline.build_indicators(cfg, dataset)
        split = pipeline.split_rows(cfg, fm)
        full = pipeline.fit_features(cfg, fm, split)
        assert full.iterations == 6
        ordered, best_row = pipeline.select_model(cfg, fm, split, full)
        assert best_row is ordered.rows[0 if mode == "enumerate" else -1]
        assert not best_row.failed

    @pytest.mark.parametrize("mode", pipeline.SELECTION_MODES)
    def test_one_full_model_per_run(self, mode, tmp_path):
        # The fit stage's lone fit is the search's all-feature row, so
        # comparison.csv holds fit's model to the bit, as report.json does.
        for argv in (["fit"], ["report", "--select", mode], ["select", "--select", mode]):
            out = tmp_path / argv[0]
            assert main([*argv, "--input", SCHOLARS, "--out", str(out)]) == 0
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text(encoding="utf-8"))
        report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
        full_model = report["full_model"]
        assert {k: v for k, v in full_model.items() if k != "model_id"} == {
            k: v for k, v in fit.items() if k != "model_id"
        }
        for command in ("report", "select"):
            rows = read_comparison_csv(tmp_path / command / "comparison.csv")
            (row,) = [r for r in rows if r["features"] == list(FEATURE_COLUMNS)]
            assert row["coefficients"] == fit["coefficients"]
            assert row["iterations"] == fit["iterations"]

    def test_attribute_importance_equals_report(self, tmp_path, stepwise_report):
        # One model, two paths: the same importance and trend bits.
        report_files = tmp_path / "report"
        write_report_files(stepwise_report, report_files)
        rc = main(["attribute", "--input", SCHOLARS, "--out", str(tmp_path / "attribute")])
        assert rc == 0
        assert (tmp_path / "attribute" / "importance.csv").read_bytes() == (
            report_files / "importance_full.csv"
        ).read_bytes()
        for name in FEATURE_COLUMNS:
            attributed = _csv_columns(tmp_path / "attribute" / f"trend_{name}.csv")
            reported = _csv_columns(report_files / f"trend_{name}.csv")
            assert attributed["x"] == reported["x"]
            assert attributed["attribution"] == reported["attribution_full"]

    def test_communities(self, tmp_path, capsys):
        rc = main(
            ["communities", "--coauthor-edges", EDGES, "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "partition.csv").exists()
        dendro = json.loads((tmp_path / "dendrogram.json").read_text(encoding="utf-8"))
        assert dendro[0]["communities"] == 1


# (seed of a 2000-row synthetic set, or None for the fixture; selection mode)
TREND_SOURCES = [(None, "enumerate"), (None, "stepwise")] + [
    (seed, "stepwise") for seed in (1, 2, 3)
]


@pytest.fixture(
    scope="module",
    params=TREND_SOURCES,
    ids=lambda p: f"{'fixture' if p[0] is None else f'synth2000-seed{p[0]}'}-{p[1]}",
)
def trend_report(request, tmp_path_factory):
    seed, selection = request.param
    path = SCHOLARS
    if seed is not None:
        path = str(tmp_path_factory.mktemp("synth") / "scholars.csv")
        write_dataset_csv(make_scholar_dataset(n=2000, seed=seed, target_increase=None), path)
    return run_pipeline(RunConfig(input_path=path, selection=selection))


class TestTrendCurves:
    def test_closed_form_matches_lowess(self, trend_report):
        report = trend_report
        for name, tc in report.trends.items():
            for curve, shap in (
                (tc.full_curve, report.full_shap),
                (tc.optimized_curve, report.optimized_shap),
            ):
                if curve is None:
                    continue
                oracle = lowess(report.feature_matrix.column(name), shap.column(name), frac=2.0 / 3.0)
                assert np.array_equal(curve.x, oracle.x)
                # Relative to the curve's size: a pointwise relative gap
                # blows up where the curve crosses zero.
                gap = float(np.max(np.abs(curve.y - oracle.y)))
                scale = float(np.max(np.abs(oracle.y)))
                assert gap <= 1e-12 * scale, (name, shap.model_id, gap / scale)

    def test_curve_values_are_shap_csv_cells(self, trend_report, tmp_path):
        write_report_files(trend_report, tmp_path)
        features = _csv_columns(tmp_path / "features.csv")
        for key in ("full", "optimized"):
            shap = _csv_columns(tmp_path / f"shap_{key}.csv")
            for name in shap.keys() - {"scholar_id"}:
                cells = {}
                for x, phi in zip(features[name], shap[name]):
                    cells.setdefault(float(x), set()).add(phi)
                trend = _csv_columns(tmp_path / f"trend_{name}.csv")
                assert [float(x) for x in trend["x"]] == sorted(cells)
                for x, y in zip(trend["x"], trend[f"attribution_{key}"]):
                    assert cells[float(x)] == {y}, (key, name, x)


# Counts at the edges of what ingest accepts: zero, and up to 2**53.
EXTREME_COUNTS = [0, 1, 10**15, 2**53]
COUNT_COLUMNS = (
    "account_days",
    "post_count",
    "followers_current",
    "followed_count",
    "publications",
    "citations",
    "amount_weight",
    "h_index",
)
hostile_id = st.text(
    st.sampled_from(list(',"\r\n\t é日ß x')) | st.characters(codec="utf-8"), max_size=5
)


@st.composite
def scholar_tables(draw):
    """Rows of a scholar CSV: 40 to 60 synthetic scholars with hostile ids,
    and up to four counts replaced by extreme ones."""
    n = draw(st.integers(40, 60))
    base = make_scholar_dataset(n=n, seed=draw(st.integers(0, 10**6)), target_increase=None)
    rows = dataset_rows(base)
    for i, values in enumerate(rows):
        values["scholar_id"] = f"{draw(hostile_id)}#{i}"
        values["per_cited"] = ""  # derived from the counts
    hits = st.tuples(
        st.integers(0, n - 1), st.sampled_from(COUNT_COLUMNS), st.sampled_from(EXTREME_COUNTS)
    )
    for i, name, count in draw(st.lists(hits, max_size=4)):
        rows[i][name] = count
    for values in rows:
        values["followers_historical"] = min(
            values["followers_historical"], values["followers_current"]
        )
    return [[int(v) if isinstance(v, bool) else v for v in values.values()] for values in rows]


class TestReportFuzz:
    """Whole ``report`` runs past ingest on small hostile tables."""

    @settings(max_examples=25)
    @given(table=scholar_tables())
    def test_exit_is_classified_and_ids_survive(self, tmp_path_factory, table):
        work = tmp_path_factory.mktemp("fuzz")
        path = str(work / "scholars.csv")
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(COLUMNS)
            writer.writerows(table)
        out = work / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ) as err:
            rc = main(["report", "--input", path, "--out", str(out), "--select", "stepwise"])
        assert rc in (0, 2, 3, 4, 5), err.getvalue()
        if rc == 0:
            with open(out / "shap_full.csv", newline="", encoding="utf-8") as handle:
                ids = [row[0] for row in csv.reader(handle)][1:]
            assert ids == list(filter_eligible(parse_dataset(path)).scholar_id)


def _report_exit(argv):
    """(exit code, stderr) of one ``main`` run."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        rc = main(argv)
    return rc, err.getvalue()


class TestShapAdditivityCheck:
    """The report's additivity check is relative to the size of the
    summed terms: rounding in a row with one huge count passes, a moved
    attribution does not."""

    @pytest.mark.parametrize("select", ["enumerate", "stepwise"])
    @pytest.mark.parametrize("seed", [1, 8, 10])
    def test_huge_count_is_not_a_breach(self, seed, select, tmp_path):
        base = make_scholar_dataset(n=55, seed=seed, target_increase=None)
        rows = dataset_rows(base)
        rows[seed]["account_days"] = 10**12
        path = tmp_path / "scholars.csv"
        write_dataset_csv(make_dataset(rows), path)
        rc, err = _report_exit(
            ["report", "--input", str(path), "--out", str(tmp_path / "out"), "--select", select]
        )
        assert rc == 0, err

    def test_moved_attribution_is_a_breach(self, monkeypatch, tmp_path):
        real = pipeline.linear_shap

        def moved(fit, X, background, model_id):
            shap = real(fit, X, background, model_id=model_id)
            scale = max(
                1.0,
                abs(fit.coef[0]) + float(np.sum(np.abs(X[0] * fit.coef[1:]))),
                abs(shap.base_value) + float(np.sum(np.abs(shap.values[0]))),
            )
            values = shap.values.copy()
            values[0, 0] += 1e-6 * scale
            return dataclasses.replace(shap, values=values)

        monkeypatch.setattr(pipeline, "linear_shap", moved)
        rc, err = _report_exit(["report", "--input", SCHOLARS, "--out", str(tmp_path)])
        assert rc == 5, err
        assert "shap additivity violated for full" in err


def _list_lengths(value, path=""):
    """(key path, length) of every list in a JSON value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _list_lengths(item, f"{path}.{key}")
    elif isinstance(value, list):
        yield path, len(value)
        for item in value:
            yield from _list_lengths(item, path)


class TestEachTableOnce:
    """Every table lives in one file: report.json is the summary, and
    the side files hold each value it once repeated, to the bit."""

    def test_side_files_hold_the_tables(self, trend_report, tmp_path):
        write_report_files(trend_report, tmp_path)
        got = read_comparison_csv(tmp_path / "comparison.csv")
        want = comparison_to_dicts_ref(trend_report.comparison)
        assert got == want and to_json_ref(got) == to_json_ref(want)
        # The oracle's ids, features and AICs are the table's, row by row.
        assert [(d["model_id"], d["features"], d["aic"]) for d in got] == [
            (r.model_id, list(r.spec.features), r.aic) for r in trend_report.comparison.rows
        ]
        roc = trend_report.roc
        got = read_roc_csv(tmp_path / "roc.csv")
        assert got == (roc.points, roc.thresholds)
        assert to_json_ref(got) == to_json_ref((roc.points, roc.thresholds))

    def test_no_json_list_per_candidate_or_roc_point(self, trend_report, tmp_path):
        """Outside the trends, which hold a point per distinct value, no
        list in report.json or selection.json is longer than one entry
        per feature column, as a list per ROC point (or per enumerated
        candidate) would be; the selection summaries hold no table."""
        report = trend_report
        write_report_files(report, tmp_path)
        write_select_files(tmp_path, report.config.selection, report.comparison, report.best_row)
        width = report.feature_matrix.values.shape[1]
        assert len(report.roc.points) > width
        payloads = {
            name: json.loads((tmp_path / name).read_text(encoding="utf-8"))
            for name in ("report.json", "selection.json")
        }
        for name, payload in payloads.items():
            for path, length in _list_lengths(payload):
                assert path.startswith(".attribution.trends.") or length <= width, (name, path)
        d = payloads["report.json"]
        summary = {"mode", "n_models", "best"}
        assert set(d["selection"]) == set(payloads["selection.json"]) == summary
        assert d["selection"]["n_models"] == len(report.comparison.rows)
        assert d["evaluation"]["roc"] == {"auc": report.roc.auc}
