"""Compare two output directories file by file, for a golden re-pin.

    python scripts/compare_outputs.py OLD_DIR NEW_DIR

For every file under either directory it prints the sizes on both sides.
For a CSV or JSON file whose bytes differ it then lists the fields on
one side only and, per field present on both sides, the largest relative
deviation |old - new| / max(|old|, |new|) over its float values, the
number of values that moved, and the number of other values (ints,
texts, a float against a text) that changed.

A CSV field is a column header, its values keyed by row number; in a
wide table, whose first header is ``row`` (comparison.csv), a field is a
row label and its values are keyed by column header.  A JSON field is a
key path with list indices folded to ``[]``.  Uses the standard library
only.
"""

import csv
import json
import os
import sys


def _csv_fields(path) -> dict:
    """{field: {value key: cell text}} of a CSV file."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle)) or [[]]
    if header[:1] == ["row"]:
        return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}
    return {
        name: {i: row[j] for i, row in enumerate(rows) if j < len(row)}
        for j, name in enumerate(header)
    }


def _json_fields(value, fields=None, field="", key=()) -> dict:
    """{folded key path: {full key path: leaf value}} of a JSON value."""
    fields = {} if fields is None else fields
    if isinstance(value, dict):
        for k, item in value.items():
            _json_fields(item, fields, f"{field}.{k}", key + (k,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_fields(item, fields, field + "[]", key + (i,))
    else:
        fields.setdefault(field or ".", {})[key] = value
    return fields


def _fields(path) -> dict:
    if path.endswith(".csv"):
        return _csv_fields(path)
    with open(path, encoding="utf-8") as handle:
        return _json_fields(json.load(handle))


def _float(value):
    """``value`` as a float if it is one (a CSV cell by its text), else None."""
    if isinstance(value, int):  # bools too
        return None
    if isinstance(value, str):
        if value.lstrip("-").isdigit():
            return None
        try:
            return float(value)
        except ValueError:
            return None
    return value if isinstance(value, float) else None


def compare_fields(old: dict, new: dict) -> list:
    """Lines describing how the fields of one file moved."""
    lines = [f"  only in old: {f}" for f in old if f not in new]
    lines += [f"  only in new: {f}" for f in new if f not in old]
    for field in (f for f in old if f in new):
        a, b = old[field], new[field]
        worst, moved, floats, changed = 0.0, 0, 0, 0
        for key in a.keys() & b.keys():
            x, y = _float(a[key]), _float(b[key])
            if x is None or y is None:
                changed += a[key] != b[key]
                continue
            floats += 1
            if x != y:
                moved += 1
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        one_side = len(a.keys() ^ b.keys())
        if moved or changed or one_side:
            lines.append(
                f"  {field}: max rel dev {worst:.2g}, {moved}/{floats} floats moved, "
                f"{changed} other values changed, {one_side} values on one side only"
            )
    return lines


def compare_dirs(old_dir, new_dir) -> list:
    """Lines describing every file under ``old_dir`` and ``new_dir``."""
    names = set()
    for top in (old_dir, new_dir):
        for root, _, files in os.walk(top):
            names.update(os.path.relpath(os.path.join(root, f), top) for f in files)
    lines = []
    for name in sorted(names):
        old, new = os.path.join(old_dir, name), os.path.join(new_dir, name)
        sizes = [os.path.getsize(p) if os.path.exists(p) else None for p in (old, new)]
        lines.append(f"{name}: {sizes[0]} -> {sizes[1]} B")
        if None in sizes or not name.endswith((".csv", ".json")):
            continue
        with open(old, "rb") as a, open(new, "rb") as b:
            if a.read() == b.read():
                continue
        lines += compare_fields(_fields(old), _fields(new))
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    print("\n".join(compare_dirs(sys.argv[1], sys.argv[2])))
