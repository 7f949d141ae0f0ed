"""CSV ingestion: parsing, validation, screening, round-trips."""

import pytest
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
        assert len(ds) == 1
        r = ds.records[0]
        assert r.scholar_id == "a1"
        assert r.account_days == 100
        assert isinstance(r.professional_declaration, bool)
        assert r.professional_declaration is True
        assert ds.provenance.rows_read == 1

    def test_per_cited_derived_when_blank(self, tmp_path):
        ds = parse_dataset(write_csv(tmp_path, [row(publications="4", citations="10")]))
        assert ds.records[0].per_cited == 2.5

    def test_per_cited_zero_without_publications(self, tmp_path):
        ds = parse_dataset(
            write_csv(tmp_path, [row(publications="0", citations="0")])
        )
        assert ds.records[0].per_cited == 0.0

    def test_per_cited_supplied_and_consistent(self, tmp_path):
        ds = parse_dataset(
            write_csv(tmp_path, [row(publications="4", citations="10", per_cited="2.5")])
        )
        assert ds.records[0].per_cited == 2.5

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
        assert ds.records[0].professional_declaration is True
        assert ds.records[0].science_dedicated is False
        assert ds.records[1].professional_declaration is False

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

    def test_missing_column(self, tmp_path):
        header = ",".join(c for c in COLUMNS if c != "citations")
        bad_row = ",".join(["a1"] + ["1"] * (len(COLUMNS) - 2))
        path = write_csv(tmp_path, [bad_row], header=header)
        with pytest.raises(MissingColumnError, match="citations"):
            parse_dataset(path)

    def test_optional_columns_may_be_absent(self, tmp_path):
        keep = [c for c in COLUMNS if c not in ("followers_historical", "per_cited")]
        header = ",".join(keep)
        line = ",".join(
            ["a1", "100", "10", "50", "20", "4", "8", "3", "2", "1", "1"]
        )
        ds = parse_dataset(write_csv(tmp_path, [line], header=header))
        assert ds.records[0].followers_historical == 0
        assert ds.records[0].per_cited == 2.0

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
        assert [r.scholar_id for r in ds.records] == ["a", "b"]

    def test_schema_renames_columns(self, tmp_path):
        header = HEADER.replace("scholar_id", "user")
        ds = parse_dataset(
            write_csv(tmp_path, [row()], header=header),
            schema={"scholar_id": "user"},
        )
        assert ds.records[0].scholar_id == "a1"

    def test_schema_rejects_unknown_canonical_names(self, tmp_path):
        path = write_csv(tmp_path, [row()])
        with pytest.raises(DataError, match="unknown columns"):
            parse_dataset(path, schema={"bogus": "x"})

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
        assert bom.records == plain.records
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
        assert [r.scholar_id for r in kept.records] == ["keep"]
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
        assert again.records == ds.records
        # serialization is stable under a second round trip
        out2 = tmp_path / "normalized2.csv"
        write_dataset_csv(again, out2)
        assert out.read_text() == out2.read_text()

    def test_row_order_preserved(self, tmp_path):
        ids = [f"s{i}" for i in range(10)]
        ds = parse_dataset(write_csv(tmp_path, [row(sid=i) for i in ids]))
        assert [r.scholar_id for r in ds.records] == ids


# Pieces of hostile CSV text: separators, quotes, line ends, numbers at
# the edges of the parsers, a BOM, bytes that are not UTF-8, and noise.
_PIECES = st.sampled_from(
    [b",", b"\n", b"\r", b"\r\n", b'"', b"\x00", b"1", b"-1", b"0", b"1e308", b"inf",
     b"nan", b"true", b"a", b" ", b"9" * 400, b"\xef\xbb\xbf", b"\xff", b"\xc3",
     b"\xe2\x80\xa8"]
) | st.binary(max_size=6)


class TestHostileBytes:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
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
