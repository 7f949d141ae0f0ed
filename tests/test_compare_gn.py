"""scripts/compare_gn.py, the Girvan-Newman bit rule, on two small graph
families: this tree against itself, and against a copy whose betweenness
values move while its cuts stay the same."""

import shutil

from conftest import ROOT, compare_gn

FAMILIES = ["--family", "path30", "--family", "40edges-and-a-path"]


def digests(line) -> str:
    """The dendrogram and betweenness digests of a tree's line."""
    return line.split(": ", 1)[1].split(" cpu ")[0]


def test_tree_equals_itself(capsys):
    src = str(ROOT / "src")
    assert compare_gn.main([src, src, *FAMILIES]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [lines[0], lines[3]] == [
        "path30: 1 graph(s), 29 -> 29 cuts, equal",
        "40edges-and-a-path: 1 graph(s), 42 -> 42 cuts, equal",
    ]
    for k in (1, 4):
        assert lines[k].startswith("  old: dendrogram ")
        assert lines[k + 1].startswith("  new: dendrogram ")
        assert digests(lines[k]) == digests(lines[k + 1])


def test_moved_betweenness_differs(tmp_path, capsys):
    # Quartering instead of halving keeps every cut and partition, so
    # only the betweenness digest tells the trees apart.
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    network = src / "stratlogit" / "network.py"
    text = network.read_text(encoding="utf-8")
    assert text.count(".sum(axis=0) / 2.0") == 1
    network.write_text(text.replace(".sum(axis=0) / 2.0", ".sum(axis=0) / 4.0"), encoding="utf-8")
    assert compare_gn.main([str(ROOT / "src"), str(src), *FAMILIES]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [lines[0], lines[3]] == [
        "path30: 1 graph(s), 29 -> 29 cuts, DIFFERENT",
        "40edges-and-a-path: 1 graph(s), 42 -> 42 cuts, DIFFERENT",
    ]
    for k in (1, 4):
        old, new = (digests(line).split(" btw ") for line in lines[k:k + 2])
        assert old[0] == new[0] and old[1] != new[1]
