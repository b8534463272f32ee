"""The version is written in two places; they must not drift apart."""

from __future__ import annotations

import pathlib
import re

import repro


def test_pyproject_and_package_versions_agree():
    pyproject = pathlib.Path(__file__).parent.parent / "pyproject.toml"
    declared = re.search(r'^version = "([^"]+)"$', pyproject.read_text(),
                         re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == repro.__version__
