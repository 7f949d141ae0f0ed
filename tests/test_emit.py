"""emit's JSON encoder and column-wise CSV writer against the standard
library paths they replace (``to_json_ref`` and ``write_csv_ref`` in
conftest): the same text, byte for byte, and the same refusals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import to_json_ref, write_csv_ref
from stratlogit import emit
from stratlogit.attribution import ShapMatrix, TrendCurve
from stratlogit.indicators import FeatureMatrix

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
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
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


@st.composite
def tables(draw):
    """(header, kinds, columns): 0 to 6 rows of 1 to 4 columns, each a
    float, text or None column."""
    n = draw(st.integers(0, 6))
    kinds = draw(st.lists(st.sampled_from(["float", "text", "none"]), min_size=1, max_size=4))
    header = draw(st.lists(hostile_text, min_size=len(kinds), max_size=len(kinds)))
    cells = {"float": any_float, "text": hostile_text, "none": st.none()}
    columns = [draw(st.lists(cells[k], min_size=n, max_size=n)) for k in kinds]
    return header, kinds, columns


def column_texts(kind, column):
    """The cell texts ``write_columns`` takes for one column of ``tables``."""
    if kind == "float":
        return emit.float_texts(column)
    if kind == "text":
        return list(map(emit.quote_cell, column))
    return [""] * len(column)


def file_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


class TestWriteColumns:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(tables())
    def test_bytes_equal_csv_module(self, tmp_path_factory, table):
        header, kinds, columns = table
        out = tmp_path_factory.mktemp("cols")
        emit.write_columns(
            out / "new.csv", header, [column_texts(k, c) for k, c in zip(kinds, columns)]
        )
        write_csv_ref(out / "ref.csv", header, zip(*columns))
        assert file_bytes(out / "new.csv") == file_bytes(out / "ref.csv")

    @pytest.mark.parametrize(
        "header, kind, column",
        [
            ([""], "text", ["", "a", ""]),
            (["x"], "none", [None, None]),
            (["x"], "text", ["", ",", '"', "\r", "\n"]),
            ([""], "float", [1.0]),
        ],
    )
    def test_one_column_quotes_an_empty_line(self, header, kind, column, tmp_path):
        # The csv module writes a line holding one empty cell as "".
        emit.write_columns(tmp_path / "new.csv", header, [column_texts(kind, column)])
        write_csv_ref(tmp_path / "ref.csv", header, ([v] for v in column))
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")


class TestFloatTables:
    """The float-table writers against the row-wise layout they replaced."""

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
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
        full = TrendCurve(feature="f", model_id="full", x=x, y=x[::-1] * -3.0)
        curves = {"attribution_full": full, "attribution_optimized": None}
        emit.write_trend_csv(curves, tmp_path / "new.csv")
        write_csv_ref(
            tmp_path / "ref.csv",
            ["x", *curves],
            zip(x.tolist(), full.y.tolist(), [None] * x.size),
        )
        assert file_bytes(tmp_path / "new.csv") == file_bytes(tmp_path / "ref.csv")
