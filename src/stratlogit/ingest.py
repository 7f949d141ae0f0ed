"""Scholar record ingestion.

Reads the activity CSV (one row per scholar account) through
``read_csv``, the reader of every CSV input, which hands over cells by
header name only; validates every cell, applies the two eligibility
screens, and writes the normalized table back out so downstream stages
can be re-run from a clean file.
"""

from __future__ import annotations

import contextlib
import csv
import math
import sys
from dataclasses import dataclass

from .emit import write_csv
from .errors import (
    CellParseError,
    ConfigError,
    DataError,
    DuplicateIdError,
    MissingColumnError,
    RecordInvariantError,
)

# Canonical column order of the input and normalized CSV.
COLUMNS = (
    "scholar_id",
    "account_days",
    "post_count",
    "followers_current",
    "followers_historical",
    "followed_count",
    "publications",
    "citations",
    "per_cited",
    "amount_weight",
    "h_index",
    "professional_declaration",
    "science_dedicated",
)

# Columns that may be absent or blank; everything else is required.
OPTIONAL_COLUMNS = ("followers_historical", "per_cited")

_INT_COLUMNS = (
    "account_days",
    "post_count",
    "followers_current",
    "followers_historical",
    "followed_count",
    "publications",
    "citations",
    "amount_weight",
    "h_index",
)

_BOOL_COLUMNS = ("professional_declaration", "science_dedicated")

_TRUE = {"1", "true"}
_FALSE = {"0", "false"}


@dataclass(frozen=True)
class ScholarRecord:
    """One scholar account, fully typed and validated."""

    scholar_id: str
    account_days: int
    post_count: int
    followers_current: int
    followers_historical: int
    followed_count: int
    publications: int
    citations: int
    per_cited: float
    amount_weight: int
    h_index: int
    professional_declaration: bool
    science_dedicated: bool

    @property
    def eligible(self) -> bool:
        """Passes both screens: own professional account, science focused."""
        return self.professional_declaration and self.science_dedicated


@dataclass(frozen=True)
class Provenance:
    source: str
    rows_read: int


@dataclass(frozen=True)
class Dataset:
    records: tuple
    provenance: Provenance

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def _parse_int(raw: str, row: int, column: str) -> int:
    try:
        value = int(raw.strip())
    except ValueError:
        raise CellParseError(row, column, raw, "expected an integer") from None
    if value < 0:
        raise CellParseError(row, column, raw, "must be >= 0")
    # Every count becomes a float in the indicators; a larger one overflows.
    if value > sys.float_info.max:
        raise CellParseError(row, column, raw, "too large for a float")
    return value


def _parse_float(raw: str, row: int, column: str) -> float:
    try:
        value = float(raw.strip())
    except ValueError:
        raise CellParseError(row, column, raw, "expected a number") from None
    if not math.isfinite(value):
        raise CellParseError(row, column, raw, "must be finite")
    if value < 0:
        raise CellParseError(row, column, raw, "must be >= 0")
    return value


def _parse_bool(raw: str, row: int, column: str) -> bool:
    token = raw.strip().lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise CellParseError(row, column, raw, "expected one of 0, 1, true, false")


def check_delimiter(delimiter) -> None:
    """``read_csv``'s rule: a ConfigError unless ``delimiter`` is one character."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")


@contextlib.contextmanager
def read_csv(path, delimiter: str, columns, optional=()):
    """(header, rows) of the CSV input at ``path``, read inside the
    ``with`` block: the stripped header names, and (row number, cells)
    for each row with a non-blank cell, numbered from 1 with blank rows
    counted.  ``cells`` maps each name in ``columns`` to the raw cell
    under it ("" past the row's end or for an absent ``optional`` one);
    no other cell is read.

    A UTF-8 byte order mark before the header is skipped.  A delimiter
    that fails ``check_delimiter`` is a ConfigError, and a header without a
    column not in ``optional`` a MissingColumnError.  An unopenable or
    empty file, a header naming a column twice, and bytes that are not
    UTF-8 or a record the csv module refuses are a DataError naming it.
    """
    check_delimiter(delimiter)
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read input file {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, expected a header row")
            header = [name.strip() for name in header]
            for name in columns:
                if header.count(name) > 1:
                    raise DataError(f"{path}: header names column {name!r} more than once")
            missing = [name for name in columns if name not in header and name not in optional]
            if missing:
                raise MissingColumnError(f"{path}: missing required columns {missing}")
            # An absent optional column's position is past every row.
            where = [
                (name, header.index(name) if name in header else sys.maxsize) for name in columns
            ]
            yield header, (
                (row_num, {name: cells[i] if i < len(cells) else "" for name, i in where})
                for row_num, cells in enumerate(reader, start=1)
                if any(map(str.strip, cells))
            )
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text ({exc})") from exc
        except csv.Error as exc:
            raise DataError(f"{path}: malformed CSV ({exc})") from exc


def parse_dataset(path, delimiter: str = ",") -> Dataset:
    """Parse the scholar activity CSV at ``path`` (``read_csv``).

    Blank ``followers_historical`` defaults to 0; blank ``per_cited`` is
    derived as citations divided by publications (0 when there are no
    publications).  When ``per_cited`` is supplied alongside a positive
    publication count it must agree with the derived ratio to a
    relative 1e-6.

    Data rows are numbered from 1 in every error message.
    """
    records = []
    seen = {}
    with read_csv(path, delimiter, COLUMNS, OPTIONAL_COLUMNS) as (_, rows):
        for row_num, cells in rows:
            values = {"scholar_id": cells["scholar_id"].strip()}
            if not values["scholar_id"]:
                raise CellParseError(
                    row_num, "scholar_id", cells["scholar_id"], "must be non-empty"
                )
            for name in _INT_COLUMNS:
                raw = cells[name]
                if name == "followers_historical" and not raw.strip():
                    values[name] = 0
                else:
                    values[name] = _parse_int(raw, row_num, name)
            publications = values["publications"]
            derived = values["citations"] / publications if publications else 0.0
            if cells["per_cited"].strip():
                values["per_cited"] = _parse_float(cells["per_cited"], row_num, "per_cited")
            else:
                values["per_cited"] = derived
            for name in _BOOL_COLUMNS:
                values[name] = _parse_bool(cells[name], row_num, name)

            if values["followers_historical"] > values["followers_current"]:
                raise RecordInvariantError(
                    row_num,
                    "followers_historical exceeds followers_current "
                    f"({values['followers_historical']} > {values['followers_current']})",
                )
            if publications and not math.isclose(
                values["per_cited"], derived, rel_tol=1e-6, abs_tol=1e-9
            ):
                raise RecordInvariantError(
                    row_num,
                    f"per_cited {values['per_cited']} disagrees with "
                    f"citations/publications {derived}",
                )
            sid = values["scholar_id"]
            if sid in seen:
                raise DuplicateIdError(
                    f"duplicate scholar_id {sid!r} on rows {seen[sid]} and {row_num}"
                )
            seen[sid] = row_num
            records.append(ScholarRecord(**values))

    return Dataset(
        records=tuple(records),
        provenance=Provenance(source=str(path), rows_read=len(records)),
    )


def filter_eligible(d: Dataset) -> Dataset:
    """Keep only records passing both boolean screens."""
    kept = tuple(r for r in d.records if r.eligible)
    return Dataset(records=kept, provenance=d.provenance)


def write_dataset_csv(d: Dataset, path) -> None:
    """Write the normalized canonical CSV; parse(write(d)) reproduces d."""
    write_csv(path, COLUMNS, [[getattr(r, name) for r in d.records] for name in COLUMNS])
