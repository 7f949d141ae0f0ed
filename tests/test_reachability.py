"""Every function in the package is reached by a command or by README's
"Library use" block, or is on ``ALLOWED`` with its reason.

A fresh interpreter sets ``sys.setprofile`` before it imports
``stratlogit``, so calls made while the modules load count too, then
runs every subcommand on the fixtures, a few failing inputs and the
README block, and records each package function that was called.
"""

import inspect
import json
import os
import re
import subprocess
import sys
import types

from conftest import DATA, ROOT

PACKAGE = ROOT / "src" / "stratlogit"

# "module.qualname" (or "module.*" for a whole module): why nothing the
# audit runs calls it.
ALLOWED = {
    "attribution.lowess": "patched by name by the benchmark's tracer (perfbench/spans.py)",
    "attribution._local_fit": "lowess's local fit",
    "attribution.TrendCurve.__post_init__": "checks lowess's result",
    "network.Partition.communities": "read by the benchmark's workloads (perfbench)",
    "logit._singular_error": (
        "error path of a singular step, reached by test_logit.py::TestStepSolveFailures::"
        "test_saturated_start_is_separation_and_neighbour_unchanged"
    ),
    "synth.*": "the fixture generator: scripts/make_fixtures.py, perfbench and the tests",
}

# Runs in the child: argv[1] the package's parent directory, argv[2] the
# commands as JSON, argv[3] the directory the README block runs in,
# argv[4] that block, argv[5] the file the result is written to.
AUDIT = r"""
import json, os, sys

package = os.path.join(os.path.abspath(sys.argv[1]), "stratlogit") + os.sep
reached = set()


def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        code = frame.f_code
        reached.add((os.path.basename(code.co_filename), code.co_firstlineno, code.co_qualname))


sys.setprofile(profile)
sys.path.insert(0, sys.argv[1])
from stratlogit.cli import main

codes = [main(argv) for argv in json.loads(sys.argv[2])]
os.chdir(sys.argv[3])
exec(compile(sys.argv[4], "README.md", "exec"), {"__name__": "__main__"})
sys.setprofile(None)
with open(sys.argv[5], "w", encoding="utf-8") as handle:
    json.dump({"codes": codes, "reached": sorted(reached)}, handle)
"""


def package_functions() -> dict:
    """{(file name, first line, qualname): "module.qualname"} of every
    function the package's modules define with ``def``.  Lambdas (the
    record rules' predicates and error texts), comprehensions, class
    bodies and module bodies are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            if code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<"):
                key = (path.name, code.co_firstlineno, code.co_qualname)
                found[key] = f"{path.stem}.{code.co_qualname}"
    return found


def library_use_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^## Library use\n+```python\n(.*?)^```$", readme, re.M | re.S)
    return block


def commands(tmp_path) -> list:
    """(argv, exit code) of every subcommand, each option that changes
    what runs, and three failing inputs."""
    scholars, edges = str(DATA / "synthetic_scholars.csv"), str(DATA / "coauthor_edges.csv")
    lines = (DATA / "synthetic_scholars.csv").read_text(encoding="utf-8").splitlines()
    header, row = lines[0].split(","), lines[1].split(",")
    bad_cell = row.copy()
    bad_cell[header.index("post_count")] = "many"
    broken_rule = row.copy()
    current = int(row[header.index("followers_current")])
    broken_rule[header.index("followers_historical")] = str(current + 1)
    bad_csv = {}
    for name, cells in (("bad_cell", bad_cell), ("broken_rule", broken_rule)):
        bad_csv[name] = str(tmp_path / f"{name}.csv")
        with open(bad_csv[name], "w", encoding="utf-8") as handle:
            handle.write("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
    runs = [
        (["ingest", "--input", scholars], 0),
        (["ingest", "--keep-ineligible", "--input", scholars], 0),
        (["describe", "--input", scholars], 0),
        (["fit", "--input", scholars], 0),
        (["fit", "--features", "FR,CA,AW", "--input", scholars], 0),
        (["select", "--select", "enumerate", "--input", scholars], 0),
        (["select", "--select", "stepwise", "--input", scholars], 0),
        (["evaluate", "--features", "FR,CA,AW", "--input", scholars], 0),
        (["attribute", "--input", scholars], 0),
        (["attribute", "--features", "FR,CA,AW", "--input", scholars], 0),
        (["communities", "--coauthor-edges", edges], 0),
        (["communities", "--target-communities", "2", "--coauthor-edges", edges], 0),
        (["report", "--select", "enumerate", "--input", scholars], 0),
        (["report", "--select", "stepwise", "--input", scholars], 0),
        (["report", "--input", str(tmp_path / "missing.csv")], 3),
        (["report", "--input", bad_csv["bad_cell"]], 3),
        (["ingest", "--input", bad_csv["broken_rule"]], 3),
    ]
    return [
        ([*argv, "--out", str(tmp_path / f"out{i}")], code) for i, (argv, code) in enumerate(runs)
    ]


def test_every_function_is_reached_or_allowed(tmp_path):
    runs = commands(tmp_path)
    result = tmp_path / "reached.json"
    subprocess.run(
        [
            sys.executable,
            "-c",
            AUDIT,
            str(PACKAGE.parent),
            json.dumps([argv for argv, _ in runs]),
            str(ROOT),
            library_use_block(),
            str(result),
        ],
        check=True,
        capture_output=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
    )
    audit = json.loads(result.read_text(encoding="utf-8"))
    assert audit["codes"] == [code for _, code in runs]
    functions = package_functions()
    # Module and class bodies and comprehensions are reached too; only
    # the functions count.
    reached = {tuple(key) for key in audit["reached"]} & functions.keys()
    assert len(reached) > 150
    def entries(name):
        """The entries of ALLOWED that cover the function ``name``."""
        return {name, f"{name.split('.')[0]}.*"} & ALLOWED.keys()

    unreached = sorted(
        name for key, name in functions.items() if key not in reached and not entries(name)
    )
    assert not unreached, unreached
    # Each entry still covers only functions nothing reaches.
    stale = sorted(set().union(*(entries(functions[key]) for key in reached)))
    assert not stale, stale
