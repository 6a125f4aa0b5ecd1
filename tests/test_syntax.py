"""The package's sources parse as Python 3.10, the oldest version that
pyproject.toml declares, even when the tests run on a newer interpreter."""

import ast
from pathlib import Path

import pytest

import bcnkit

SOURCES = sorted(Path(bcnkit.__file__).resolve().parent.glob("*.py"))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "observe.py", "paper.py", "record.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
