"""End-to-end pipeline runs, deterministic emission, and the command
line front end (exit codes, file outputs, error formatting)."""

import csv
import json
import os

import numpy as np
import pytest

from conftest import DATA
from stratlogit.attribution import lowess
from stratlogit.cli import main
from stratlogit.emit import to_json, write_report_files
from stratlogit.errors import ConfigError, PipelineError
from stratlogit.indicators import FEATURE_COLUMNS
from stratlogit.ingest import parse_dataset, write_dataset_csv
from stratlogit.pipeline import RunConfig, run_pipeline
from stratlogit.synth import make_coauthor_edges, make_scholar_dataset

SCHOLARS = str(DATA / "synthetic_scholars.csv")
EDGES = str(DATA / "coauthor_edges.csv")

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
        d = report.to_json_dict()
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
        d = stepwise_report.to_json_dict()
        best = d["selection"]["best"]
        table = d["selection"]["table"]
        assert table[-1]["model_id"] == best["model_id"]
        assert table[-1]["aic"] == best["aic"]
        aics = [row["aic"] for row in table]
        assert aics == sorted(aics, reverse=True)

    def test_trend_entries_flag_dropped_features(self, stepwise_report):
        d = stepwise_report.to_json_dict()
        kept = set(d["selection"]["best"]["features"])
        for name, entry in d["attribution"]["trends"].items():
            assert len(entry["x"]) == len(entry["full"])
            if name in kept:
                assert entry["missing_from"] == []
                assert len(entry["optimized"]) == len(entry["x"])
            else:
                assert entry["missing_from"] == ["optimized"]
                assert entry["optimized"] is None

    def test_config_validation_runs_before_stages(self):
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig(input_path=SCHOLARS, train_fraction=1.5))
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig(input_path=SCHOLARS, selection="grid"))
        with pytest.raises(ConfigError):
            run_pipeline(RunConfig(input_path=""))

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
        a = to_json(run_pipeline(cfg).to_json_dict())
        b = to_json(run_pipeline(cfg).to_json_dict())
        assert a == b

    def test_out_dir_does_not_leak_into_report(self):
        a = run_pipeline(
            RunConfig(input_path=SCHOLARS, selection="stepwise", out_dir="/tmp/a")
        )
        b = run_pipeline(
            RunConfig(input_path=SCHOLARS, selection="stepwise", out_dir="/tmp/b")
        )
        assert to_json(a.to_json_dict()) == to_json(b.to_json_dict())

    def test_config_echo_has_no_thread_count(self, stepwise_report):
        # STRAT_THREADS never changes the output, so the report echoes no thread count.
        assert "threads" not in stepwise_report.to_json_dict()["config"]

    def test_normalized_roundtrip_preserves_analysis(self, tmp_path, stepwise_report):
        rc = main(["ingest", "--input", SCHOLARS, "--out", str(tmp_path)])
        assert rc == 0
        normalized = tmp_path / "normalized.csv"
        assert normalized.exists()
        second = run_pipeline(
            RunConfig(input_path=str(normalized), selection="stepwise")
        )
        a = stepwise_report.to_json_dict()
        b = second.to_json_dict()
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
        assert len(parsed.records) == 459
        assert parsed.records == generated.records

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
            ("fit", ["--max-iter", "0"]),
            ("fit", ["--tol", "-1"]),
            ("evaluate", ["--max-iter", "0"]),
            ("evaluate", ["--tol", "-1"]),
            ("select", ["--tol", "0"]),
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

    def test_data_error_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(HEADER + "\nS0001,100,-5,20,0,10,4,9,,3,2,1,1\n", encoding="utf-8")
        rc = main(["ingest", "--input", str(path), "--out", str(tmp_path)])
        assert rc == 3
        assert "error[" in capsys.readouterr().err


class TestCliSubcommands:
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

    def test_write_report_files_needs_artifacts(self, tmp_path, stepwise_report):
        import dataclasses

        bare = dataclasses.replace(stepwise_report, artifacts=None)
        with pytest.raises(ConfigError):
            write_report_files(bare, tmp_path)


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
        art = trend_report.artifacts
        for name, tc in art.trends.items():
            for curve, shap in (
                (tc.full_curve, art.full_shap),
                (tc.optimized_curve, art.optimized_shap),
            ):
                if curve is None:
                    continue
                oracle = lowess(art.feature_matrix.column(name), shap.column(name), frac=2.0 / 3.0)
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
