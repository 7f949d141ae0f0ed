"""Package-wide checks on the public API."""

import ast
import dataclasses
import importlib
import pkgutil
import typing

import stratlogit
from conftest import ROOT


def public_dataclasses():
    for info in pkgutil.iter_modules(stratlogit.__path__):
        module = importlib.import_module(f"stratlogit.{info.name}")
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and dataclasses.is_dataclass(obj)
                and obj.__module__ == module.__name__
            ):
                yield obj


def test_public_dataclass_type_hints_resolve():
    classes = list(public_dataclasses())
    assert len(classes) > 10
    for cls in classes:
        typing.get_type_hints(cls)


def test_benchmark_boundaries_resolve():
    # perfbench's tracer patches these (module, name) pairs by name, so a
    # rename or deletion breaks the benchmark; spans.py is parsed, not run.
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (boundaries,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["BOUNDARIES"]
    ]
    assert len(boundaries) > 20
    missing = [
        (module, name)
        for module, name, _ in boundaries
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing
