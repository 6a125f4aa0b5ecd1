"""The package's sources parse as Python 3.10, the oldest version that
pyproject.toml declares, even when the tests run on a newer interpreter,
and every module that defines a record postpones its annotations."""

import ast
import sys
from pathlib import Path

import pytest

import bcnkit
from bcnkit import observe  # noqa: F401  (with what it imports, every module that defines a record)
from bcnkit.record import Record

SOURCES = sorted(Path(bcnkit.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "observe.py", "paper.py", "record.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_record_modules_postpone_annotations():
    """A record's fields are the names its class body annotates, read from
    the body's annotations dict, which the future import keeps plain."""
    classes, modules = [Record], set()
    while classes:
        cls = classes.pop()
        modules.add(cls.__module__)
        classes += cls.__subclasses__()
    assert modules >= {"bcnkit.record", "bcnkit.netlang", "bcnkit.compiler", "bcnkit.reach", "bcnkit.observe"}
    for name in modules:
        tree = ast.parse(Path(sys.modules[name].__file__).read_text(encoding="utf-8"))
        first = tree.body[1] if ast.get_docstring(tree) is not None else tree.body[0]
        assert ast.unparse(first) == "from __future__ import annotations", name
