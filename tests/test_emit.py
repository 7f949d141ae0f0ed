"""emit's JSON encoder and its one CSV writer against the standard
library paths they replace (``to_json_ref`` and ``write_csv_ref`` in
conftest): the same text, byte for byte, and the same refusals.  Every
table is checked against its row-by-row layout through the csv module,
and the column renderer, whose texts a report shares between its files,
against ``float.__repr__`` a value at a time."""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    comparison_to_dicts_ref,
    inference_rows_ref,
    made_fit,
    make_problem,
    read_comparison_csv,
    read_roc_csv,
    to_json_ref,
    trend_payload_ref,
    write_csv_ref,
)
from stratlogit import emit
from stratlogit.attribution import (
    ImportanceRanking,
    ShapMatrix,
    linear_shap,
    mean_abs_importance,
    trend_compare,
)
from stratlogit.evaluate import ClassificationMetrics, ConfusionMatrix, metrics, roc_auc
from stratlogit.indicators import FeatureMatrix
from stratlogit.ingest import COLUMNS, parse_dataset, write_dataset_csv
from stratlogit.logit import fit_logistic
from stratlogit.model_select import (
    ComparisonTable,
    ModelRow,
    ModelSpec,
    enumerate_subsets,
    fit_all,
)
from stratlogit.network import Partition
from stratlogit.pipeline import (
    RunConfig,
    attribute_fit,
    describe_indicators,
    run_pipeline,
    trend_curves,
)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-05, 1e22, -1.5e-300, 0.1, 123456789.0]

finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
any_float = st.floats() | st.sampled_from(EDGE_FLOATS + [math.inf, -math.inf, math.nan])
# Text the csv module quotes, text it does not, and any other character.
hostile_text = st.text(
    st.sampled_from(list(',"\r\n\t é日ß x')) | st.characters(codec="utf-8"), max_size=6
)

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**60), 10**60)
    | finite
    | finite.map(np.float64)
    | st.text()
)
payloads = st.recursive(
    scalars | st.lists(finite),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=30,
)


class TestToJson:
    @settings(max_examples=300)
    @given(payloads)
    def test_text_equals_standard_library(self, payload):
        assert emit.to_json(payload) == to_json_ref(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {},
            (),
            [[], {}, ()],
            {"b": [1.5, -0.0, 5e-324], "a": {"z": None, "y": True, "x": False}},
            [1.0, 2.0, 3.0],
            [1.0, np.float64(2.0), 3],
            (0.5, 0.25),
            {"é": "日本", "q\"x": "a\nb", "": ""},
            [10**40, -(10**40), True, 0],
            "top-level text",
            2.5,
            None,
        ],
        ids=repr,
    )
    def test_examples(self, payload):
        assert emit.to_json(payload) == to_json_ref(payload)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")], ids=repr)
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda b: b,
            lambda b: [b],
            lambda b: [1.0, 2.0, b],
            lambda b: (0.5, b),
            lambda b: {"a": [0.5, {"b": b}]},
            lambda b: {b: 1},
        ],
    )
    def test_non_finite_refused(self, bad, wrap, tmp_path):
        payload = wrap(bad)
        with pytest.raises(ValueError):
            to_json_ref(payload)
        with pytest.raises(ValueError):
            emit.to_json(payload)
        path = tmp_path / "out.json"
        with pytest.raises(ValueError):
            emit.write_json(payload, path)
        assert not path.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            object(),
            np.int64(1),
            [np.bool_(True)],
            {"a": np.array([1.0])},
            {1, 2},
            b"bytes",
            {(1, 2): 3},
            {1: 2, "a": 3},
        ],
        ids=repr,
    )
    def test_unsupported_type_refused(self, payload):
        with pytest.raises(TypeError):
            to_json_ref(payload)
        with pytest.raises(TypeError):
            emit.to_json(payload)


# The cells of one column of each kind ``tables`` draws; "array" is a
# float array, the others lists of values.
COLUMN_CELLS = {
    "array": any_float,
    "float": any_float,
    "np.float64": any_float.map(np.float64),
    "int": st.integers() | st.integers(-(10**60), 10**60),
    "bool": st.booleans(),
    "none": st.none(),
    "text": hostile_text,
    "mixed": st.one_of(any_float, st.integers(), st.booleans(), st.none(), hostile_text),
}


@st.composite
def tables(draw):
    """(header, columns): 0 to 6 rows of 1 to 4 columns, each of one of
    the kinds of ``COLUMN_CELLS``."""
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(sorted(COLUMN_CELLS)), min_size=1, max_size=4))
    header = draw(st.lists(hostile_text, min_size=len(kinds), max_size=len(kinds)))
    columns = []
    for kind in kinds:
        values = draw(st.lists(COLUMN_CELLS[kind], min_size=n, max_size=n))
        columns.append(np.array(values, dtype=float) if kind == "array" else values)
    return header, columns


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestWriteCsv:
    @settings(max_examples=400)
    @given(tables())
    def test_bytes_equal_csv_module(self, tmp_path_factory, table):
        header, columns = table
        out = tmp_path_factory.mktemp("cols")
        emit.write_csv(out / "new.csv", header, columns)
        write_csv_ref(out / "ref.csv", header, zip(*columns))
        assert file_bytes(out / "new.csv") == file_bytes(out / "ref.csv")

    @pytest.mark.parametrize(
        "header, column",
        [
            ([""], ["", "a", ""]),
            (["x"], [None, None]),
            (["x"], ["", ",", '"', "\r", "\n"]),
            ([""], np.array([1.0])),
            ([""], []),
        ],
    )
    def test_one_column_quotes_an_empty_line(self, header, column, tmp_path):
        # The csv module writes a line holding one empty cell as "".
        emit.write_csv(tmp_path / "new.csv", header, [column])
        write_csv_ref(tmp_path / "ref.csv", header, ([v] for v in column))
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")


class TestFloatTables:
    """The float-table writers against the row-wise layout they replaced."""

    @settings(max_examples=50)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(hostile_text, min_size=n, max_size=n),
                st.lists(st.lists(finite, min_size=2, max_size=2), min_size=n, max_size=n),
            )
        )
    )
    def test_shap_values_with_hostile_ids(self, tmp_path_factory, case):
        row_ids, values = case
        shap = ShapMatrix(
            model_id="m", feature_names=("a", "b"), values=np.array(values), base_value=0.0
        )
        out = tmp_path_factory.mktemp("shap")
        emit.write_shap_values_csv(shap, row_ids, out / "new.csv")
        write_csv_ref(
            out / "ref.csv",
            ["scholar_id", "a", "b"],
            ([rid] + row for rid, row in zip(row_ids, values)),
        )
        assert file_bytes(out / "new.csv") == file_bytes(out / "ref.csv")

    def test_feature_matrix(self, fixture_matrix, tmp_path):
        m = fixture_matrix
        emit.write_feature_matrix_csv(m, tmp_path / "new.csv")
        write_csv_ref(
            tmp_path / "ref.csv",
            [*m.column_names, "target"],
            (row + [int(t)] for row, t in zip(m.values.tolist(), m.target.tolist())),
        )
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")

    def test_feature_matrix_edge_floats(self, tmp_path):
        values = np.array([EDGE_FLOATS, EDGE_FLOATS[::-1]]).T
        m = FeatureMatrix(
            column_names=("u", "v"),
            values=values,
            target=np.arange(len(EDGE_FLOATS)) % 2.0,
            row_ids=tuple(f"s{i}" for i in range(len(EDGE_FLOATS))),
        )
        emit.write_feature_matrix_csv(m, tmp_path / "new.csv")
        write_csv_ref(
            tmp_path / "ref.csv",
            ["u", "v", "target"],
            (row + [int(t)] for row, t in zip(values.tolist(), m.target.tolist())),
        )
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")

    def test_trend_with_a_missing_curve(self, tmp_path):
        x = np.array(EDGE_FLOATS[2:])
        full = x[::-1] * -3.0
        ys = {"attribution_full": full, "attribution_optimized": None}
        emit.write_trend_csv(x, ys, tmp_path / "new.csv")
        write_csv_ref(
            tmp_path / "ref.csv",
            ["x", *ys],
            zip(x.tolist(), full.tolist(), [None] * x.size),
        )
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")


# Names and ids the csv module must quote: delimiter, quote, CR, LF, CRLF.
HOSTILE_NAMES = ("a,b", 'q"x', "l\nm", "c\rr", "cr\r\nlf", '"', ",", "é日ß")


def comparison_rows_ref(table) -> list:
    """The wide comparison layout as rows, header first."""
    models = comparison_to_dicts_ref(table)
    fitted = [m["coefficients"] is not None for m in models]
    names = dict.fromkeys(["intercept"] + [f for m in models for f in m["features"]])
    rows = [["row"] + [m["model_id"] for m in models]]
    for key in models[0]:
        values = [m[key] for m in models]
        if key == "features":
            values = ["+".join(v) for v in values]
        elif key == "coefficients":
            rows += [[f"coef_{n}"] + [c and c.get(n) for c in values] for n in names]
            continue
        elif key in emit.METRIC_FIELDS:
            values = [emit.UNDEFINED if v is None and ok else v for v, ok in zip(values, fitted)]
        if key != "model_id":
            rows.append([key] + values)
    return rows


def equal_to_rows(tmp_path, write, header, rows) -> None:
    """``write(path)`` writes the bytes the csv module writes for ``rows``."""
    write(tmp_path / "new.csv")
    write_csv_ref(tmp_path / "ref.csv", header, rows)
    assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")


def hostile_fit():
    """A converged fit whose three features carry hostile names, and its design."""
    design, _ = make_problem(3, n=200, p=3)
    return fit_logistic(replace(design, feature_names=HOSTILE_NAMES[:3])), design


def failed_and_undefined_table():
    """A comparison table of a fitted candidate with undefined metrics and
    a failed one, both with hostile feature names and texts."""
    features = HOSTILE_NAMES[:2]
    fitted = ModelRow(
        "model_001",
        ModelSpec(features=features),
        10,
        fit=made_fit(features, [0.25, -1.5, 5e-324]),
        score=ClassificationMetrics(accuracy=0.1, precision=None, recall=0.0, f1=None),
    )
    failed = ModelRow(
        "model_002",
        ModelSpec(features=HOSTILE_NAMES[2:5]),
        10,
        error='separation: "b", then\r\nmore',
    )
    return ComparisonTable(rows=(fitted, failed))


class TestRowTables:
    """The tables once written row by row through the csv module."""

    def test_comparison_of_a_search(self, fixture_matrix, fixture_split, tmp_path):
        subsets = enumerate_subsets(fixture_matrix.column_names[:4])
        table = fit_all(fixture_matrix, subsets, fixture_split)
        rows = comparison_rows_ref(table)
        equal_to_rows(
            tmp_path, lambda p: emit.write_comparison_csv(table, p), rows[0], rows[1:]
        )

    def test_comparison_with_failed_row_and_undefined_metric(self, tmp_path):
        table = failed_and_undefined_table()
        rows = comparison_rows_ref(table)
        assert [emit.UNDEFINED, None] in [r[1:] for r in rows]
        equal_to_rows(
            tmp_path, lambda p: emit.write_comparison_csv(table, p), rows[0], rows[1:]
        )

    def test_comparison_reads_back_to_its_rows(self, tmp_path):
        """comparison.csv holds every value of the table, to the bit: it
        is the one copy, as no JSON file repeats it."""
        table = failed_and_undefined_table()
        emit.write_comparison_csv(table, tmp_path / "comparison.csv")
        got = read_comparison_csv(tmp_path / "comparison.csv")
        assert got == comparison_to_dicts_ref(table)
        assert to_json_ref(got) == to_json_ref(comparison_to_dicts_ref(table))

    def test_inference(self, tmp_path):
        fit, _ = hostile_fit()
        equal_to_rows(
            tmp_path,
            lambda p: emit.write_inference_csv(fit, p),
            emit.INFERENCE_FIELDS,
            inference_rows_ref(fit),
        )

    @pytest.mark.parametrize("hostile", [False, True])
    def test_describe_tables(self, fixture_matrix, hostile, tmp_path):
        fm = fixture_matrix
        if hostile:
            fm = replace(fm, column_names=HOSTILE_NAMES + ("plain",))
        stats, corr, vifs = description = describe_indicators(fm)
        emit.write_describe_files(tmp_path / "new", fm, description)
        fields = ("mean", "std_dev", "minimum", "median", "maximum", "skewness")
        refs = {
            "descriptive_stats.csv": (
                ["variable", "n", *fields],
                [[row["variable"], row["n"]] + [row[f] for f in fields] for row in stats],
            ),
            "correlation.csv": (
                ["variable", *corr.names],
                [[name] + row for name, row in zip(corr.names, corr.r.tolist())],
            ),
            "vif.csv": (["variable", "vif"], list(zip(fm.column_names, vifs.tolist()))),
        }
        for name, (header, rows) in refs.items():
            write_csv_ref(tmp_path / name, header, rows)
            assert file_bytes(tmp_path / "new" / name) == file_bytes(tmp_path / name), name

    def test_evaluate_tables_with_undefined_metrics(self, tmp_path):
        cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=3)
        mets = metrics(cm)
        assert mets.precision is None and mets.f1 is None
        roc = roc_auc([0.9, 0.1, 0.4, 0.4, 1e-300], [1, 0, 1, 0, 0])
        assert roc.thresholds[0] is None
        emit.write_evaluate_files(tmp_path / "new", cm, mets, roc)
        refs = {
            "confusion.csv": (["tp", "fp", "tn", "fn"], [[0, 0, 5, 3]]),
            "metrics.csv": (
                ["metric", "value"],
                [
                    ["accuracy", 0.625],
                    ["precision", "undefined"],
                    ["recall", 0.0],
                    ["f1", "undefined"],
                ],
            ),
            "roc.csv": (
                ["fpr", "tpr", "threshold"],
                [[fpr, tpr, t] for (fpr, tpr), t in zip(roc.points, roc.thresholds)],
            ),
        }
        for name, (header, rows) in refs.items():
            write_csv_ref(tmp_path / name, header, rows)
            assert file_bytes(tmp_path / "new" / name) == file_bytes(tmp_path / name), name

    @pytest.mark.parametrize("hostile", [False, True])
    def test_importance(self, hostile, tmp_path):
        if hostile:
            ranking = ImportanceRanking(
                model_id="m", entries=tuple(zip(HOSTILE_NAMES, EDGE_FLOATS))
            )
        else:
            fit, design = hostile_fit()
            ranking = mean_abs_importance(
                linear_shap(fit, design.X[:, 1:], design.X[:, 1:].mean(axis=0))
            )
        equal_to_rows(
            tmp_path,
            lambda p: emit.write_importance_csv(ranking, p),
            ["feature", "mean_abs_shap"],
            ranking.entries,
        )

    def test_partition_with_hostile_authors(self, tmp_path):
        authors = HOSTILE_NAMES + ("plain", " lead space")
        p = Partition(
            assignment={a: i % 3 for i, a in enumerate(authors)}, n_communities=3, modularity=0.0
        )
        equal_to_rows(
            tmp_path,
            lambda path: emit.write_partition_csv(p, path),
            ["author", "community_id"],
            ((a, p.assignment[a]) for a in sorted(p.assignment)),
        )

    def test_normalized_dataset_with_hostile_ids(self, fixture_dataset, tmp_path):
        records = fixture_dataset.records[: len(HOSTILE_NAMES)]
        ds = replace(
            fixture_dataset,
            records=tuple(replace(r, scholar_id=i) for r, i in zip(records, HOSTILE_NAMES)),
        )
        equal_to_rows(
            tmp_path,
            lambda p: write_dataset_csv(ds, p),
            COLUMNS,
            ([getattr(r, name) for name in COLUMNS] for r in ds.records),
        )
        assert parse_dataset(tmp_path / "new.csv").records == ds.records


# Floats that a column repeats: the edge cases, the largest magnitudes
# and non-finite values, drawn again and again beside any other float.
REPEATED = st.sampled_from(
    EDGE_FLOATS + [5e-324 * 3, -1e16, 1.7976931348623157e308, -1e308, math.inf, -math.nan]
)


class TestFloatTexts:
    """``float_texts`` renders each distinct value of a column once; its
    texts are those of ``float.__repr__`` a value at a time."""

    @settings(max_examples=400)
    @given(st.lists(REPEATED | any_float, max_size=40))
    def test_equals_repr_per_value(self, values):
        a = np.array(values, dtype=float)
        texts = emit.float_texts(a)
        assert isinstance(texts, emit.FloatTexts)
        assert list(texts) == list(map(float.__repr__, a.tolist()))

    def test_signed_zeros_keep_their_sign(self):
        a = np.array([0.0, -0.0, -0.0, 0.0, 1.0, -0.0])
        assert emit.float_texts(a) == ("0.0", "-0.0", "-0.0", "0.0", "1.0", "-0.0")
        assert emit.float_texts(a[1:3]) == ("-0.0", "-0.0")

    @settings(max_examples=200)
    @given(st.lists(REPEATED.filter(math.isfinite) | finite, max_size=12))
    def test_json_list_equals_standard_library(self, values):
        payload = {"v": emit.float_texts(np.array(values, dtype=float)), "w": [values]}
        ref = {"v": values, "w": [values]}
        assert emit.to_json(payload) == to_json_ref(ref)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_json_refuses_non_finite_texts(self, bad):
        with pytest.raises(ValueError):
            emit.to_json([emit.float_texts(np.array([1.0, bad]))])

    def test_csv_column_of_texts(self, tmp_path):
        a = np.array(EDGE_FLOATS * 2)
        emit.write_csv(tmp_path / "new.csv", ["t", "id"], [emit.float_texts(a), HOSTILE_NAMES * 2])
        write_csv_ref(tmp_path / "ref.csv", ["t", "id"], zip(a.tolist(), HOSTILE_NAMES * 2))
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")


def signed_zeros(values) -> int:
    return int(np.sum(np.signbit(values) & (values == 0.0)))


@pytest.fixture(scope="module")
def repeating_report(scholar_csv):
    """The fixture's stepwise report with features that repeat values,
    one feature holding -0.0 (its first zero included), and a background
    that row 3 holds, so attributions are ±0.0 there; one coefficient of
    the full model is so small that its attributions underflow to ±0.0
    at many sites.  Attributions and trends are recomputed as
    ``run_pipeline`` computes them."""
    report = run_pipeline(RunConfig(input_path=scholar_csv, selection="stepwise"))
    fm = report.feature_matrix
    values = np.round(fm.values, 1)
    values[::5, 1] = -0.0
    values[1::5, 1] = 0.0
    fm = replace(fm, values=values)
    background = values[3] + 0.0
    coef = report.full_fit.coef.copy()
    coef[3] = -5e-324
    full_fit = replace(report.full_fit, coef=coef)
    full_shap, full_rank = attribute_fit(fm, background, full_fit, "full")
    opt_shap, opt_rank = attribute_fit(fm, background, report.best_row.fit, "optimized")
    return replace(
        report,
        feature_matrix=fm,
        full_fit=full_fit,
        background=background,
        full_shap=full_shap,
        full_importance=full_rank,
        optimized_shap=opt_shap,
        optimized_importance=opt_rank,
        trends={
            name: trend_compare(full_shap, opt_shap, name, fm.column(name))
            for name in fm.column_names
        },
    )


def report_files_ref(report, out) -> None:
    """Every file of ``write_report_files``, a value at a time through
    ``write_csv_ref`` and ``to_json_ref``."""
    fm, (stats, corr, vifs) = report.feature_matrix, report.description
    fields = ("mean", "std_dev", "minimum", "median", "maximum", "skewness")
    comparison = comparison_rows_ref(report.comparison)
    mets, roc = report.metrics, report.roc
    tables = {
        "features.csv": (
            [*fm.column_names, "target"],
            (row + [int(t)] for row, t in zip(fm.values.tolist(), fm.target.tolist())),
        ),
        "descriptive_stats.csv": (
            ["variable", "n", *fields],
            [[row["variable"], row["n"]] + [row[f] for f in fields] for row in stats],
        ),
        "correlation.csv": (
            ["variable", *corr.names],
            [[name] + row for name, row in zip(corr.names, corr.r.tolist())],
        ),
        "vif.csv": (["variable", "vif"], list(zip(fm.column_names, vifs.tolist()))),
        "comparison.csv": (comparison[0], comparison[1:]),
        "confusion.csv": (
            ["tp", "fp", "tn", "fn"],
            [[getattr(report.confusion, f) for f in ("tp", "fp", "tn", "fn")]],
        ),
        "metrics.csv": (
            ["metric", "value"],
            [
                [n, emit.UNDEFINED if getattr(mets, n) is None else getattr(mets, n)]
                for n in ("accuracy", "precision", "recall", "f1")
            ],
        ),
        "roc.csv": (
            ["fpr", "tpr", "threshold"],
            [[fpr, tpr, t] for (fpr, tpr), t in zip(roc.points, roc.thresholds)],
        ),
    }
    for key, fit, shap, ranking in emit._models(report):
        tables[f"inference_{key}.csv"] = (emit.INFERENCE_FIELDS, inference_rows_ref(fit))
        tables[f"shap_{key}.csv"] = (
            ["scholar_id", *shap.feature_names],
            ([rid] + row for rid, row in zip(fm.row_ids, shap.values.tolist())),
        )
        tables[f"importance_{key}.csv"] = (["feature", "mean_abs_shap"], ranking.entries)
    for name, tc in report.trends.items():
        x, full, opt = tc.full_curve.x, tc.full_curve.y, tc.optimized_curve
        tables[f"trend_{name}.csv"] = (
            ["x", "attribution_full", "attribution_optimized"],
            zip(x.tolist(), full.tolist(), opt.y.tolist() if opt else [None] * x.size),
        )
    for name, (header, rows) in tables.items():
        write_csv_ref(out / name, header, rows)
    payload = emit.report_payload(report)
    payload["attribution"]["trends"] = trend_payload_ref(report)
    (out / "report.json").write_text(to_json_ref(payload), encoding="utf-8")


class TestSharedRenderings:
    """Files whose texts come from one rendering per column equal the
    files written a value at a time."""

    def test_case_holds_repeats_and_signed_zeros(self, repeating_report):
        fm = repeating_report.feature_matrix
        assert all(np.unique(c).size < c.size for c in fm.values.T)
        assert signed_zeros(fm.values) > 0 and fm.values[0, 1] == 0.0
        for _, _, shap, _ in emit._models(repeating_report):
            assert signed_zeros(shap.values) > 0, shap.model_id
        assert repeating_report.trends[fm.column_names[1]].full_curve.x[0] == 0.0
        underflow = repeating_report.full_shap.values[:, 2]
        assert np.unique(fm.values[underflow == 0.0, 2]).size > 1 and signed_zeros(underflow) > 1

    def test_report_files(self, repeating_report, tmp_path):
        written = emit.write_report_files(repeating_report, tmp_path / "new")
        (tmp_path / "ref").mkdir()
        report_files_ref(repeating_report, tmp_path / "ref")
        names = sorted(p.name for p in (tmp_path / "ref").iterdir())
        assert sorted(os.path.basename(p) for p in written) == names
        for name in names:
            assert file_bytes(tmp_path / "new" / name) == file_bytes(tmp_path / "ref" / name), name

    def test_report_payload_alone(self, repeating_report):
        payload = emit.report_payload(repeating_report)
        ref = emit.report_payload(repeating_report)
        ref["attribution"]["trends"] = trend_payload_ref(repeating_report)
        assert emit.to_json(payload) == to_json_ref(ref)

    def test_describe_features(self, repeating_report, tmp_path):
        fm = repeating_report.feature_matrix
        emit.write_describe_files(tmp_path, fm, repeating_report.description)
        write_csv_ref(
            tmp_path / "ref.csv",
            [*fm.column_names, "target"],
            (row + [int(t)] for row, t in zip(fm.values.tolist(), fm.target.tolist())),
        )
        assert file_bytes(tmp_path / "features.csv") == file_bytes(tmp_path / "ref.csv")

    @pytest.mark.parametrize("key", ["full", "optimized"])
    def test_attribute_files(self, repeating_report, key, tmp_path):
        # The files ``attribute`` writes: attributions, then one trend file per feature.
        fm = repeating_report.feature_matrix
        shap = getattr(repeating_report, f"{key}_shap")
        emit.write_shap_values_csv(shap, fm.row_ids, tmp_path / "new.csv")
        write_csv_ref(
            tmp_path / "ref.csv",
            ["scholar_id", *shap.feature_names],
            ([rid] + row for rid, row in zip(fm.row_ids, shap.values.tolist())),
        )
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")
        for name, curve in trend_curves(fm, shap).items():
            emit.write_trend_csv(curve.x, {"attribution": curve.y}, tmp_path / "new.csv")
            rows = zip(curve.x.tolist(), curve.y.tolist())
            write_csv_ref(tmp_path / "ref.csv", ["x", "attribution"], rows)
            assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv"), name
