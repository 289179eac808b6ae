"""The documentation lint's code-anchor check (``tools/check_docs.py``)."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def _anchor_errors(text):
    errors = []
    check_docs.check_links(REPO / "docs" / "ARCHITECTURE.md", [text], errors)
    return errors


def test_package_relative_anchors_are_checked():
    errors = _anchor_errors("see `core/nothing.py:1` and `core/presolve.py:99999`")
    assert len(errors) == 2, errors
    assert "dead code anchor -> core/nothing.py" in errors[0]
    assert "core/presolve.py:99999 past end of file" in errors[1]


def test_valid_anchors_are_not_reported():
    text = (
        "see `core/presolve.py:1`, `sat/cdcl.py:1`, "
        "`src/repro/core/presolve.py:1` and `tools/check_docs.py:1`"
    )
    assert _anchor_errors(text) == []


def test_root_anchors_are_still_checked():
    errors = _anchor_errors("see `tools/nothing.py:3`")
    assert errors == ["ARCHITECTURE.md: dead code anchor -> tools/nothing.py"]
