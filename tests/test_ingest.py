"""CSV ingestion: parsing, validation, screening, round-trips."""

import csv

import numpy as np
import pytest
from conftest import dataset_rows, make_dataset, parse_dataset_ref
from hypothesis import given, settings
from hypothesis import strategies as st

from stratlogit.errors import (
    CellParseError,
    ConfigError,
    DataError,
    DuplicateIdError,
    MissingColumnError,
    RecordInvariantError,
    StratLogitError,
)
from stratlogit.ingest import (
    COLUMNS,
    filter_eligible,
    parse_dataset,
    write_dataset_csv,
)
from stratlogit.network import build_graph, read_edge_list

HEADER = ",".join(COLUMNS)


def write_csv(tmp_path, rows, header=HEADER, name="in.csv"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return str(path)


def row(
    sid="a1",
    account_days="100",
    post_count="10",
    followers_current="50",
    followers_historical="0",
    followed_count="20",
    publications="4",
    citations="8",
    per_cited="",
    amount_weight="3",
    h_index="2",
    professional="1",
    science="1",
):
    return ",".join(
        [
            sid,
            account_days,
            post_count,
            followers_current,
            followers_historical,
            followed_count,
            publications,
            citations,
            per_cited,
            amount_weight,
            h_index,
            professional,
            science,
        ]
    )


class TestParse:
    def test_happy_path_types(self, tmp_path):
        ds = parse_dataset(write_csv(tmp_path, [row()]))
        assert ds.scholar_id == ("a1",)
        assert ds.account_days.dtype == np.int64 and ds.account_days.tolist() == [100]
        assert ds.per_cited.dtype == np.float64
        assert ds.professional_declaration.dtype == bool
        assert ds.professional_declaration.tolist() == [True]
        assert ds.provenance.rows_read == 1

    def test_per_cited_derived_when_blank(self, tmp_path):
        ds = parse_dataset(write_csv(tmp_path, [row(publications="4", citations="10")]))
        assert ds.per_cited.tolist() == [2.5]

    def test_per_cited_zero_without_publications(self, tmp_path):
        ds = parse_dataset(
            write_csv(tmp_path, [row(publications="0", citations="0")])
        )
        assert ds.per_cited.tolist() == [0.0]

    def test_per_cited_supplied_and_consistent(self, tmp_path):
        ds = parse_dataset(
            write_csv(tmp_path, [row(publications="4", citations="10", per_cited="2.5")])
        )
        assert ds.per_cited.tolist() == [2.5]

    def test_per_cited_conflict_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, [row(publications="4", citations="10", per_cited="9.0")]
        )
        with pytest.raises(RecordInvariantError, match="row 1"):
            parse_dataset(path)

    def test_booleans_accept_words_and_digits(self, tmp_path):
        ds = parse_dataset(
            write_csv(
                tmp_path,
                [row(sid="a", professional="true", science="FALSE"),
                 row(sid="b", professional="0", science="1")],
            )
        )
        assert ds.professional_declaration.tolist() == [True, False]
        assert ds.science_dedicated.tolist() == [False, True]

    def test_bad_boolean_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row(professional="yes")])
        with pytest.raises(CellParseError, match="professional_declaration"):
            parse_dataset(path)

    def test_negative_count_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path, [row(sid="a"), row(sid="b", post_count="-3")])
        with pytest.raises(CellParseError) as e:
            parse_dataset(path)
        assert e.value.row == 2
        assert e.value.column == "post_count"
        assert "-3" in str(e.value)

    def test_non_integer_count_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row(account_days="3.5")])
        with pytest.raises(CellParseError, match="account_days"):
            parse_dataset(path)

    def test_count_beyond_float_range_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row(citations="9" * 400)])
        with pytest.raises(CellParseError, match="citations"):
            parse_dataset(path)

    def test_counts_end_at_2_pow_53(self, tmp_path):
        # Every count up to 2**53 is an exact double, so the indicators
        # read it exactly; the next integer is refused.
        top = str(2**53)
        ds = parse_dataset(
            write_csv(tmp_path, [row(followers_current=top, followers_historical=top)])
        )
        assert ds.followers_current.tolist() == [2**53]
        for column in ("followers_current", "h_index"):
            path = write_csv(tmp_path, [row(**{column: str(2**53 + 1)})])
            with pytest.raises(CellParseError) as info:
                parse_dataset(path)
            assert (info.value.row, info.value.column) == (1, column)
            assert info.value.reason == "must be <= 2**53 = 9007199254740992"
        rows = dataset_rows(ds)
        rows[0]["h_index"] = 2**53 + 1
        with pytest.raises(CellParseError, match="^row 1, column h_index: must be <= 2"):
            make_dataset(rows)

    def test_missing_column(self, tmp_path):
        header = ",".join(c for c in COLUMNS if c != "citations")
        bad_row = ",".join(["a1"] + ["1"] * (len(COLUMNS) - 2))
        path = write_csv(tmp_path, [bad_row], header=header)
        with pytest.raises(MissingColumnError, match="citations"):
            parse_dataset(path)

    @pytest.mark.parametrize("column", ["post_count", " post_count ", "per_cited"])
    def test_column_named_twice_rejected(self, tmp_path, column):
        """A second copy of an input column is an error: which copy's
        cells to read cannot be told from the file."""
        path = write_csv(tmp_path, [row() + ",7"], header=HEADER + "," + column)
        with pytest.raises(DataError, match=column.strip()) as info:
            parse_dataset(path)
        assert not isinstance(info.value, MissingColumnError)
        assert "more than once" in str(info.value)

    def test_extra_column_named_twice_accepted(self, tmp_path):
        path = write_csv(tmp_path, [row() + ",x,y"], header=HEADER + ",note,note")
        assert parse_dataset(path).post_count.tolist() == [10]

    def test_optional_columns_may_be_absent(self, tmp_path):
        keep = [c for c in COLUMNS if c not in ("followers_historical", "per_cited")]
        header = ",".join(keep)
        line = ",".join(
            ["a1", "100", "10", "50", "20", "4", "8", "3", "2", "1", "1"]
        )
        ds = parse_dataset(write_csv(tmp_path, [line], header=header))
        assert ds.followers_historical.tolist() == [0]
        assert ds.per_cited.tolist() == [2.0]

    def test_duplicate_id(self, tmp_path):
        path = write_csv(tmp_path, [row(sid="dup"), row(sid="dup")])
        with pytest.raises(DuplicateIdError, match="dup"):
            parse_dataset(path)

    def test_historical_above_current_rejected(self, tmp_path):
        path = write_csv(
            tmp_path, [row(followers_current="10", followers_historical="20")]
        )
        with pytest.raises(RecordInvariantError, match="row 1"):
            parse_dataset(path)

    def test_record_rule_on_an_earlier_row_wins(self, tmp_path):
        rows = [row(sid="a"), "", row(sid="b", per_cited="9.0"), row(sid="c", post_count="x")]
        with pytest.raises(RecordInvariantError, match="^row 3: per_cited 9.0 disagrees"):
            parse_dataset(write_csv(tmp_path, rows))

    def test_checks_of_a_row_run_in_order(self, tmp_path):
        # Row 2 breaks every check; mending the named one names the next:
        # the id, the counts, per_cited, the flags, then the record rules.
        counts = ["account_days", "post_count", "followers_current", "followers_historical",
                  "followed_count", "publications", "citations", "amount_weight", "h_index"]
        cells = dict(zip(COLUMNS, row(sid=" ", per_cited="nan", professional="yes",
                                      science="no").split(",")), **dict.fromkeys(counts, "-1"))
        mended = dict(zip(COLUMNS, row(sid="dup", followers_historical="51",
                                       per_cited="9.0").split(",")))
        for column in ["scholar_id", *counts, "per_cited", "professional_declaration",
                       "science_dedicated"]:
            path = write_csv(tmp_path, [row(sid="dup"), ",".join(cells.values())])
            with pytest.raises(CellParseError) as info:
                parse_dataset(path)
            assert (info.value.row, info.value.column) == (2, column)
            cells[column] = mended[column]
        for error, text, column, mend in [
            (RecordInvariantError, "^row 2: followers_historical exceeds",
             "followers_historical", "0"),
            (RecordInvariantError, "^row 2: per_cited 9.0 disagrees", "per_cited", ""),
            (DuplicateIdError, "on rows 1 and 2$", "scholar_id", "b"),
        ]:
            path = write_csv(tmp_path, [row(sid="dup"), ",".join(cells.values())])
            with pytest.raises(error, match=text):
                parse_dataset(path)
            cells[column] = mend
        path = write_csv(tmp_path, [row(sid="dup"), ",".join(cells.values())])
        assert parse_dataset(path).scholar_id == ("dup", "b")

    def test_bad_row_before_an_unreadable_one_is_named(self, tmp_path):
        rows = [row(sid="a", post_count="x"), row(sid='"' + "x" * 200_000)]
        with pytest.raises(CellParseError, match="row 1, column post_count"):
            parse_dataset(write_csv(tmp_path, rows))

    def test_dataset_columns_must_have_their_types(self):
        ds = make_dataset([{**dict.fromkeys(COLUMNS, 1), "scholar_id": "a", "per_cited": 1.0}])
        for name, bad in (("post_count", ds.post_count.astype(float)),
                          ("per_cited", ds.per_cited[:0]), ("science_dedicated", [True])):
            with pytest.raises(DataError, match=f"^Dataset column {name}: need 1 "):
                type(ds)(**{**vars(ds), name: bad})

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            parse_dataset(str(tmp_path / "nope.csv"))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            parse_dataset(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        ds = parse_dataset(write_csv(tmp_path, [row(sid="a"), "", row(sid="b")]))
        assert ds.scholar_id == ("a", "b")

    def test_delimiter_must_be_one_character(self, tmp_path):
        path = write_csv(tmp_path, [row()])
        for bad in (";;", ""):
            with pytest.raises(ConfigError, match="single character"):
                parse_dataset(path, delimiter=bad)

    def test_utf8_bom_header_accepted(self, tmp_path, scholar_csv):
        # spreadsheet CSV exports often start with a byte order mark
        path = tmp_path / "bom.csv"
        with open(scholar_csv, encoding="utf-8", newline="") as handle:
            path.write_text("\ufeff" + handle.read(), encoding="utf-8", newline="")
        bom, plain = parse_dataset(str(path)), parse_dataset(scholar_csv)
        assert dataset_rows(bom) == dataset_rows(plain)
        assert bom.provenance.rows_read == plain.provenance.rows_read

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes((HEADER + "\n" + row(sid="Muñoz") + "\n").encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8") as info:
            parse_dataset(str(path))
        assert str(path) in str(info.value)

    def test_field_over_csv_limit_rejected(self, tmp_path):
        path = write_csv(tmp_path, [row(sid='"' + "x" * 200_000)])
        with pytest.raises(DataError, match="malformed CSV"):
            parse_dataset(path)


class TestFilterAndRoundTrip:
    def test_filter_eligible_requires_both_flags(self, tmp_path):
        ds = parse_dataset(
            write_csv(
                tmp_path,
                [
                    row(sid="keep", professional="1", science="1"),
                    row(sid="noprof", professional="0", science="1"),
                    row(sid="nosci", professional="1", science="0"),
                ],
            )
        )
        kept = filter_eligible(ds)
        assert kept.scholar_id == ("keep",)
        assert kept.provenance.rows_read == 3

    def test_round_trip_identity(self, tmp_path):
        ds = parse_dataset(
            write_csv(
                tmp_path,
                [
                    row(sid="a", publications="3", citations="10"),
                    row(sid="b", professional="0"),
                ],
            )
        )
        out = tmp_path / "normalized.csv"
        write_dataset_csv(ds, out)
        again = parse_dataset(str(out))
        assert dataset_rows(again) == dataset_rows(ds)
        # serialization is stable under a second round trip
        out2 = tmp_path / "normalized2.csv"
        write_dataset_csv(again, out2)
        assert out.read_text() == out2.read_text()

    def test_row_order_preserved(self, tmp_path):
        ids = [f"s{i}" for i in range(10)]
        ds = parse_dataset(write_csv(tmp_path, [row(sid=i) for i in ids]))
        assert list(ds.scholar_id) == ids


# Cell texts that break a cell's rule in some column, or pass at an edge.
_ODD_TEXTS = ["x", "1.5", "", " ", "nan", "inf", "-1", "-0", " 7 ", "-0.5", "2.5e3", "yes",
              "TRUE", str(2**53), str(2**53 + 1), "9" * 400]


@st.composite
def scholar_lines(draw):
    """Data lines of a scholar CSV: a few drawn rows with up to three
    broken cells or rules (odd cell text, historical above current
    followers, a conflicting per_cited, a duplicate id), and blank lines
    between them."""
    small = st.integers(0, 9).map(str)
    rows = []
    for i in range(draw(st.integers(1, 6))):
        pubs, cites = draw(st.integers(0, 4)), draw(st.integers(0, 30))
        given = repr(cites / pubs) if pubs else draw(st.sampled_from(["0.0", "4.5"]))
        rows.append({
            **{name: draw(small) for name in COLUMNS},
            "scholar_id": f"s{i}",
            "followers_historical": draw(st.sampled_from(["", "0"])),
            "publications": str(pubs),
            "citations": str(cites),
            "per_cited": draw(st.sampled_from(["", given])),
            "professional_declaration": draw(st.sampled_from(["1", "0", "true", " False"])),
            "science_dedicated": "1",
        })
    which = st.integers(0, len(rows) - 1)
    for _ in range(draw(st.integers(0, 3))):
        r, edit = rows[draw(which)], draw(st.sampled_from(["cell", "historical", "ratio", "id"]))
        if edit == "cell":
            r[draw(st.sampled_from(COLUMNS))] = draw(st.sampled_from(_ODD_TEXTS))
        elif edit == "historical" and r["followers_current"].isdigit():
            r["followers_historical"] = str(int(r["followers_current"]) + 1)
        elif edit == "ratio":
            r["per_cited"] = "99.5"
        elif edit == "id":
            r["scholar_id"] = rows[draw(which)]["scholar_id"]
    lines = []
    for r in rows:
        lines.extend(draw(st.lists(st.sampled_from(["", " , ,"]), max_size=1)))
        lines.append(",".join(r[name] for name in COLUMNS))
    return lines


def parse_outcome(parse, path):
    """The rows ``parse`` reads, or its error's type, row, column and text."""
    try:
        return parse(path)
    except StratLogitError as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "column", None), str(exc)


class TestAgainstPerRowParser:
    @settings(max_examples=400)
    @given(data=st.data(), lines=scholar_lines())
    def test_same_columns_or_same_first_error(self, data, lines, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "scholars.csv"
        perm = data.draw(st.permutations(range(len(lines))))
        got = []
        for ordered in (lines, [lines[i] for i in perm]):
            path.write_text("\n".join([HEADER, *ordered]) + "\n", encoding="utf-8")
            want = parse_outcome(parse_dataset_ref, path)
            got.append(parse_outcome(lambda p: dataset_rows(parse_dataset(p)), path))
            assert got[-1] == want
        if isinstance(got[0], list):  # permuted rows parse to the same rows, permuted
            assert sorted(got[1], key=str) == sorted(got[0], key=str)


# Pieces of hostile CSV text: separators, quotes, line ends, numbers at
# the edges of the parsers, a BOM, bytes that are not UTF-8, and noise.
_PIECES = st.sampled_from(
    [b",", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"1", b"-1", b"0", b"1e308", b"inf",
     b"nan", b"true", b"a", b" ", b"9" * 400, b"\xef\xbb\xbf", b"\xff", b"\xc3",
     b"\xe2\x80\xa8"]
) | st.binary(max_size=6)


class TestHostileBytes:
    @settings(max_examples=150)
    @given(
        header=st.sampled_from([b"", (HEADER + "\n").encode(), b"author_a,author_b,weight\n"]),
        body=st.lists(_PIECES, max_size=40).map(b"".join),
    )
    def test_readers_return_or_raise_classified(self, header, body, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "hostile.csv"
        path.write_bytes(header + body)
        for read in (parse_dataset, lambda p: build_graph(read_edge_list(p))):
            try:
                read(str(path))
            except StratLogitError:
                pass


# Text that must survive a write and a read: separators, quotes, line
# ends and non-ASCII letters inside a cell, no whitespace around it (the
# readers strip ids and endpoints).
_NAMES = st.text(
    st.sampled_from([",", ";", '"', "\r", "\n", " ", "\t", "é", "中", "\u2028", "\x00"])
    | st.characters(codec="utf-8", exclude_categories=("Cs",)),
    min_size=1,
    max_size=8,
).filter(lambda s: s == s.strip())
_COUNTS = st.integers(0, 2**53)


@st.composite
def scholar_records(draw):
    """Rows that ``parse_dataset`` accepts: unique ids, historical
    followers at most current ones, ``per_cited`` derived."""
    records = []
    for sid in draw(st.lists(_NAMES, max_size=6, unique=True)):
        current, publications, citations = draw(_COUNTS), draw(_COUNTS), draw(_COUNTS)
        records.append(
            dict(
                scholar_id=sid,
                account_days=draw(_COUNTS),
                post_count=draw(_COUNTS),
                followers_current=current,
                followers_historical=draw(st.integers(0, current)),
                followed_count=draw(_COUNTS),
                publications=publications,
                citations=citations,
                per_cited=citations / publications if publications else 0.0,
                amount_weight=draw(_COUNTS),
                h_index=draw(_COUNTS),
                professional_declaration=draw(st.booleans()),
                science_dedicated=draw(st.booleans()),
            )
        )
    return records


class TestRoundTripProperties:
    @settings(max_examples=200, database=None, derandomize=True)
    @given(records=scholar_records(), bom=st.booleans())
    def test_scholar_table(self, records, bom, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "records.csv"
        write_dataset_csv(make_dataset(records, "drawn"), path)
        if bom:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        parsed = parse_dataset(path)
        assert dataset_rows(parsed) == records
        assert parsed.provenance.rows_read == len(records)

    @settings(max_examples=200, database=None, derandomize=True)
    @given(
        edges=st.lists(
            st.tuples(
                _NAMES,
                _NAMES,
                st.none()
                | st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
            ),
            max_size=6,
        ),
        order=st.permutations(["author_a", "author_b", "weight"]),
    )
    def test_edge_list(self, edges, order, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "edges.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(order)
            for a, b, w in edges:
                cells = {"author_a": a, "author_b": b, "weight": "" if w is None else w}
                writer.writerow([cells[name] for name in order])
        assert read_edge_list(path) == [(a, b) if w is None else (a, b, w) for a, b, w in edges]
