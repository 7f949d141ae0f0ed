"""scripts/compare_outputs.py, the deviation table of a golden re-pin,
on two small output directories with known differences."""

import importlib.util
import json

from conftest import ROOT

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def write_tree(top, files) -> None:
    top.mkdir()
    for name, text in files.items():
        (top / name).write_text(text, encoding="utf-8", newline="")


def test_deviations_sizes_and_one_sided_fields(tmp_path):
    same = "variable,vif\r\nFR,1.5\r\n"
    write_tree(
        tmp_path / "old",
        {
            "vif.csv": "variable,vif\r\nFR,1.5\r\nCA,2.0\r\n",
            "comparison.csv": "row,m1,m2\r\nk_params,2,3\r\naic,10.0,undefined\r\n",
            "report.json": json.dumps({"v": [1.0, 4.0], "table": [{"aic": 1.0}], "n": 2}),
            "same.csv": same,
            "gone.txt": "x",
        },
    )
    write_tree(
        tmp_path / "new",
        {
            "vif.csv": "variable,vif\r\nFR,1.5000000000000002\r\nCA,2.0\r\n",
            "comparison.csv": "row,m1,m2\r\nk_params,2,4\r\niterations,5,\r\naic,10.0,12.5\r\n",
            "report.json": json.dumps({"v": [1.0, 5.0], "n": 2}),
            "same.csv": same,
        },
    )
    lines = compare_outputs.compare_dirs(str(tmp_path / "old"), str(tmp_path / "new"))

    def sizes(name):
        old, new = ((tmp_path / side / name).stat().st_size for side in ("old", "new"))
        return f"{name}: {old} -> {new} B"

    def field(name, dev, moved, floats, other=0):
        return (
            f"  {name}: max rel dev {dev}, {moved}/{floats} floats moved, "
            f"{other} other values changed, 0 values on one side only"
        )

    assert lines == [
        sizes("comparison.csv"),
        "  only in new: iterations",
        field("k_params", 0, 0, 0, other=1),
        field("aic", 0, 0, 1, other=1),
        "gone.txt: 1 -> None B",
        sizes("report.json"),
        "  only in old: .table[].aic",
        field(".v[]", 0.2, 1, 2),
        sizes("same.csv"),
        sizes("vif.csv"),
        field("vif", 1.5e-16, 1, 2),
    ]
