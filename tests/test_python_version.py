"""Every package module parses as the oldest Python that pyproject.toml allows.

A test run uses one interpreter, which may be newer than that minimum, so
syntax the minimum lacks would go unnoticed without this check.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mortsurv").glob("*.py"))


def _minimum_python() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("module", MODULES, ids=[m.name for m in MODULES])
def test_module_parses_as_the_minimum_python(module):
    ast.parse(module.read_text(encoding="utf-8"), filename=str(module),
              feature_version=_minimum_python())
