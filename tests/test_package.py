"""Package-wide checks on the public API."""

import dataclasses
import importlib
import pkgutil
import typing

import stratlogit


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
