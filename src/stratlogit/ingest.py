"""Scholar record ingestion.

Reads the activity CSV (one row per scholar account) through
``read_csv``, the reader of every CSV input, into a ``Dataset``, whose
fields declare each column once; converts each column of cells once and
checks the record rules (``_first_error``) over whole columns; applies the
two eligibility screens, and writes the normalized table back out so
downstream stages can be re-run from a clean file.
"""

from __future__ import annotations

import contextlib
import csv
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .emit import write_csv
from .errors import (
    CellParseError,
    ConfigError,
    DataError,
    DuplicateIdError,
    MissingColumnError,
    RecordInvariantError,
)

# The indicators read counts as doubles, which hold every integer up to
# 2**53 exactly; so counts are refused beyond it.
MAX_COUNT = 2**53


def per_cited_of(citations, publications) -> np.ndarray:
    """Citations per publication, 0 without publications: what a blank
    ``per_cited`` stands for, and what a given one must agree with."""
    return np.divide(citations, publications, out=np.zeros(len(publications)),
                     where=publications > 0)


_FLAGS = {"1": True, "true": True, "0": False, "false": False}

# Each kind of column: its type, the conversion of a stripped cell, the
# reason a cell it refuses is given, and the rules every value must
# pass, in the order they are checked.
_KINDS = {
    "id": (tuple, None, None, ((lambda ids: [not s.strip() for s in ids], "must be non-empty"),)),
    "count": (np.int64, int, "expected an integer", (
        (lambda c: c < 0, "must be >= 0"),
        (lambda c: c > MAX_COUNT, f"must be <= 2**53 = {MAX_COUNT}"),
    )),
    "number": (np.float64, float, "expected a number", (
        (lambda c: ~np.isfinite(c), "must be finite"),
        (lambda c: c < 0, "must be >= 0"),
    )),
    "flag": (np.bool_, lambda s: _FLAGS[s.lower()], "expected one of 0, 1, true, false", ()),
}


@dataclass(frozen=True)
class Provenance:
    source: str
    rows_read: int


@dataclass(frozen=True, eq=False)
class Dataset:
    """The scholar table, one field per column in the CSV's order.  A
    table that breaks a record rule is refused as its CSV would be, rows
    numbered from 1 in table order."""

    scholar_id: tuple = field(metadata={"kind": "id"})
    account_days: np.ndarray = field(metadata={"kind": "count"})
    post_count: np.ndarray = field(metadata={"kind": "count"})
    followers_current: np.ndarray = field(metadata={"kind": "count"})
    followers_historical: np.ndarray = field(metadata={"kind": "count", "blank": lambda t: 0})
    followed_count: np.ndarray = field(metadata={"kind": "count"})
    publications: np.ndarray = field(metadata={"kind": "count"})
    citations: np.ndarray = field(metadata={"kind": "count"})
    per_cited: np.ndarray = field(metadata={
        "kind": "number", "blank": lambda t: per_cited_of(t["citations"], t["publications"])
    })
    amount_weight: np.ndarray = field(metadata={"kind": "count"})
    h_index: np.ndarray = field(metadata={"kind": "count"})
    professional_declaration: np.ndarray = field(metadata={"kind": "flag"})
    science_dedicated: np.ndarray = field(metadata={"kind": "flag"})
    provenance: Provenance

    def __post_init__(self):
        n = len(self.scholar_id)
        for name in COLUMNS[1:]:
            col, dtype = getattr(self, name), _KINDS[SCHEMA[name][0]][0]
            if not isinstance(col, np.ndarray) or col.dtype != dtype or col.shape != (n,):
                raise DataError(f"Dataset column {name}: need {n} {dtype.__name__} values")
        error = _first_error(
            vars(self), range(1, n + 1), lambda name, i: str(getattr(self, name)[i]), {}
        )
        if error is not None:
            raise error


# Each column's kind and, for an optional one, ``blank``: the value a
# blank cell stands for, as a function of the table's columns.
SCHEMA = {f.name: (f.metadata["kind"], f.metadata.get("blank"))
          for f in fields(Dataset) if f.metadata}
COLUMNS = tuple(SCHEMA)
OPTIONAL_COLUMNS = tuple(name for name, (_, blank) in SCHEMA.items() if blank is not None)
# A row's cells are checked kind by kind, then its record rules.
_CHECK_ORDER = sorted(COLUMNS, key=lambda name: list(_KINDS).index(SCHEMA[name][0]))


def _first_error(t, rows, raw, refused):
    """The error of the first row that fails a check, naming the first
    check it fails, or None: its cells in ``_CHECK_ORDER``, each for a
    conversion ``refused`` and then its kind's rules, then the record
    rules below.  ``t`` maps each column to its values, ``rows`` each
    position to its row number and ``refused`` a column to the mask of
    the cells its conversion refused; ``raw(name, i)`` is a cell's text.
    """

    def cell(name, reason):
        return lambda i: CellParseError(rows[i], name, raw(name, i), reason)

    checks = []  # (mask of the failing positions, the error naming one)
    for name in _CHECK_ORDER:
        _, _, refusal, rules = _KINDS[SCHEMA[name][0]]
        if name in refused:
            checks.append((refused[name], cell(name, refusal)))
        checks += [(test(t[name]), cell(name, reason)) for test, reason in rules]
    hist, cur = t["followers_historical"], t["followers_current"]
    checks.append((hist > cur, lambda i: RecordInvariantError(
        rows[i], f"followers_historical exceeds followers_current ({hist[i]} > {cur[i]})"
    )))
    # math.isclose(per_cited, derived, rel_tol=1e-6, abs_tol=1e-9)
    pc, derived = t["per_cited"], per_cited_of(t["citations"], t["publications"])
    close = np.abs(pc - derived) <= np.maximum(
        1e-6 * np.maximum(np.abs(pc), np.abs(derived)), 1e-9
    )
    checks.append(((t["publications"] > 0) & ~close, lambda i: RecordInvariantError(
        rows[i],
        f"per_cited {float(pc[i])} disagrees with citations/publications {float(derived[i])}",
    )))
    ids, first = t["scholar_id"], {}
    repeats = [first.setdefault(sid, i) != i for i, sid in enumerate(ids)]
    checks.append((repeats, lambda i: DuplicateIdError(
        f"duplicate scholar_id {ids[i]!r} on rows {rows[first[ids[i]]]} and {rows[i]}"
    )))
    fails = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(checks) if np.any(mask)]
    if fails:
        i, k = min(fails)
        return checks[k][1](i)
    return None


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




def _convert(texts, convert, dtype) -> tuple:
    """The array of ``convert`` of each text, and the mask of the texts
    it refuses, which read as ``convert("0")`` (None if it refuses none)."""
    refused = None
    try:
        values = list(map(convert, texts))
    except (ValueError, KeyError):
        values, refused = [], np.zeros(len(texts), dtype=bool)
        for i, text in enumerate(texts):
            try:
                values.append(convert(text))
            except (ValueError, KeyError):
                values.append(convert("0"))
                refused[i] = True
    try:
        return np.array(values, dtype=dtype), refused
    except OverflowError:  # a count beyond int64 keeps its side of the count rules
        return np.array([min(max(v, -1), MAX_COUNT + 1) for v in values], dtype=dtype), refused


def parse_dataset(path, delimiter: str = ",") -> Dataset:
    """Parse the scholar activity CSV at ``path`` (``read_csv``).

    A blank optional cell stands for its column's ``blank`` value.  The
    first row that breaks a record rule is named, with the first check
    it fails (``_first_error``); data rows are numbered from 1.
    """
    rows, unread = [], None
    try:
        with read_csv(path, delimiter, COLUMNS, OPTIONAL_COLUMNS) as (_, cells):
            rows.extend(cells)
    except DataError as exc:
        # A row read before the one that cannot be read may break a rule.
        unread = exc
    t, refused = {}, {}
    for name in _CHECK_ORDER:
        kind, blank = SCHEMA[name]
        dtype, convert = _KINDS[kind][:2]
        texts = [cells[name].strip() for _, cells in rows]
        if dtype is tuple:
            t[name] = tuple(texts)
            continue
        t[name], mask = _convert([s or "0" for s in texts] if blank else texts, convert, dtype)
        if mask is not None:
            refused[name] = mask
        if blank and "" in texts:
            t[name] = np.where([not s for s in texts], blank(t), t[name])
    error = _first_error(t, [n for n, _ in rows], lambda name, i: rows[i][1][name], refused)
    if error is not None:
        raise error
    if unread is not None:
        raise unread
    return Dataset(**t, provenance=Provenance(source=str(path), rows_read=len(rows)))


def filter_eligible(d: Dataset) -> Dataset:
    """Keep only the rows passing both screens: an own professional
    account, science focused."""
    keep = d.professional_declaration & d.science_dedicated
    ids = tuple(sid for sid, kept in zip(d.scholar_id, keep) if kept)
    return Dataset(ids, *(getattr(d, name)[keep] for name in COLUMNS[1:]), d.provenance)


def write_dataset_csv(d: Dataset, path) -> None:
    """Write the normalized canonical CSV; parse(write(d)) reproduces d."""
    write_csv(path, COLUMNS, [getattr(d, name) for name in COLUMNS])
