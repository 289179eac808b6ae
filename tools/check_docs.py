#!/usr/bin/env python
"""Documentation lint: markdown structure, mermaid blocks, links, doctests.

Stdlib-only so it runs identically in CI and on a bare checkout
(``python tools/check_docs.py``).  Four passes over ``README.md``,
``DESIGN.md``, and ``docs/*.md``:

1. **Markdown lint** — code fences must be balanced, every fenced block
   carries an info string (so renderers pick a highlighter), and heading
   levels never jump by more than one.
2. **Mermaid lint** — each ``mermaid`` fence opens with a known diagram
   keyword, brackets balance per block, and every node referenced by an
   edge is defined somewhere in the block.
3. **Dead-link check** — relative markdown links must resolve on disk
   (``#fragments`` stripped), and ``path.py:NNN``-style code anchors must
   point inside the referenced file.  An anchor's path is read from the
   repository root (``src/...``, ``tests/...``, ``tools/...``) or, when its
   first segment is a package of ``src/repro`` (``core/presolve.py:456``),
   from ``src/repro``.  External ``http(s)`` URLs are skipped: CI has no
   business depending on the network.
4. **Doctests** — ``doctest.testmod`` over the modules listed in
   ``DOCTEST_MODULES``; the pass fails if a module yields zero tests, so
   deleting the examples cannot silently turn this into a no-op.

Exit status 0 on success, 1 with a per-file failure listing otherwise.
"""

from __future__ import annotations

import doctest
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Modules whose docstring examples CI executes.
DOCTEST_MODULES = [
    "repro.linear.lp",
    "repro.linear.difference",
    "repro.sat.cnf",
]

_MERMAID_HEADERS = (
    "flowchart",
    "graph",
    "sequenceDiagram",
    "classDiagram",
    "stateDiagram",
    "erDiagram",
    "gantt",
    "pie",
)

_LINK_RE = re.compile(r"(?<!!)\[[^\]]+\]\(([^)\s]+)\)")
_ANCHOR_RE = re.compile(r"`([\w-]+/[\w./-]+\.\w+):(\d+)`")

#: Top-level directories whose anchors are written from the repository root.
_ROOT_DIRS = ("src", "tests", "benchmarks", "examples", "tools")

#: Where anchors written relative to the package resolve.
PACKAGE = REPO / "src" / "repro"


def resolve_anchor(anchor: str):
    """The file a code anchor's path names, or None when it is no anchor."""
    first = anchor.split("/", 1)[0]
    if first in _ROOT_DIRS:
        return REPO / anchor
    if (PACKAGE / first).is_dir():
        return PACKAGE / anchor
    return None


def _doc_files() -> list[Path]:
    files = [REPO / "README.md", REPO / "DESIGN.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [path for path in files if path.exists()]


def _fenced_blocks(lines: list[str]):
    """Yield (start_line, info_string, block_lines) for each ``` fence."""
    info, start, block = None, 0, []
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            if info is None:
                info, start, block = stripped[3:].strip(), number, []
            else:
                yield start, info, block
                info = None
        elif info is not None:
            block.append(line)
    if info is not None:
        yield start, "<unclosed>", block


def lint_markdown(path: Path, lines: list[str], errors: list[str]) -> None:
    in_fence = False
    previous_level = 0
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            if in_fence and not stripped[3:].strip():
                errors.append(f"{path.name}:{number}: fence without an info string")
            continue
        if in_fence:
            continue
        match = re.match(r"(#{1,6})\s", line)
        if match:
            level = len(match.group(1))
            if previous_level and level > previous_level + 1:
                errors.append(
                    f"{path.name}:{number}: heading level jumps "
                    f"h{previous_level} -> h{level}"
                )
            previous_level = level
    if in_fence:
        errors.append(f"{path.name}: unclosed code fence")


def lint_mermaid(path: Path, lines: list[str], errors: list[str]) -> None:
    for start, info, block in _fenced_blocks(lines):
        if (info.split()[0] if info else "") != "mermaid":
            continue
        body = [line for line in block if line.strip() and not line.strip().startswith("%%")]
        if not body:
            errors.append(f"{path.name}:{start}: empty mermaid block")
            continue
        header = body[0].strip().split()[0]
        if header not in _MERMAID_HEADERS:
            errors.append(
                f"{path.name}:{start}: mermaid block opens with {header!r}, "
                f"not one of {_MERMAID_HEADERS}"
            )
        text = "\n".join(body)
        for open_char, close_char in ("[]", "()", "{}"):
            if text.count(open_char) != text.count(close_char):
                errors.append(
                    f"{path.name}:{start}: unbalanced {open_char}{close_char} "
                    "in mermaid block"
                )
        if header in ("flowchart", "graph"):
            defined = set(re.findall(r"(\w+)\s*[\[({]", text))
            defined |= set(re.findall(r"subgraph\s+(\w+)", text))
            for source, target in re.findall(r"(\w+)\s*-[-.]*>\s*(?:\|[^|]*\|\s*)?(\w+)", text):
                for node in (source, target):
                    if node not in defined:
                        errors.append(
                            f"{path.name}:{start}: edge references undefined "
                            f"node {node!r}"
                        )


def check_links(path: Path, lines: list[str], errors: list[str]) -> None:
    text = "\n".join(lines)
    for target in _LINK_RE.findall(text):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue  # same-file fragment
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(f"{path.name}: dead link -> {target}")
    for anchor, line_number in _ANCHOR_RE.findall(text):
        resolved = resolve_anchor(anchor)
        if resolved is None:
            continue
        if not resolved.exists():
            errors.append(f"{path.name}: dead code anchor -> {anchor}")
            continue
        length = len(resolved.read_text().splitlines())
        if int(line_number) > length:
            errors.append(
                f"{path.name}: code anchor {anchor}:{line_number} past "
                f"end of file ({length} lines)"
            )


def run_doctests(errors: list[str]) -> int:
    sys.path.insert(0, str(REPO / "src"))
    total = 0
    for name in DOCTEST_MODULES:
        module = importlib.import_module(name)
        result = doctest.testmod(module, verbose=False)
        if result.attempted == 0:
            errors.append(f"doctest: {name} has no examples (pass is vacuous)")
        if result.failed:
            errors.append(f"doctest: {name}: {result.failed}/{result.attempted} failed")
        total += result.attempted
    return total


def main() -> int:
    errors: list[str] = []
    files = _doc_files()
    for path in files:
        lines = path.read_text().splitlines()
        lint_markdown(path, lines, errors)
        lint_mermaid(path, lines, errors)
        check_links(path, lines, errors)
    attempted = run_doctests(errors)
    if errors:
        print(f"check_docs: {len(errors)} problem(s):")
        for error in errors:
            print(f"  - {error}")
        return 1
    print(
        f"check_docs: OK — {len(files)} markdown files linted, "
        f"{attempted} doctest examples passed"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
