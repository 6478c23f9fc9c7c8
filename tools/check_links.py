#!/usr/bin/env python3
"""Fail on broken relative links in Markdown files and Python docstrings.

Usage::

    PYTHONPATH=src python tools/check_links.py README.md docs src

Every ``[text](target)`` whose target is not an absolute URL or a pure
anchor must resolve to an existing file or directory, relative to the
Markdown file containing it (anchors are stripped before the check).
Targets that escape the repository root (e.g. GitHub-served
``../../actions/...`` badge paths) cannot be validated on disk and are
skipped.  Directories are walked recursively for ``*.md`` files.

Python files are checked too: every ``*.md`` path mentioned in a module
docstring (e.g. ``docs/EXPERIMENTS.md records ...``) must exist — a
docstring promising documentation that was never written is exactly the
drift this would have caught.  A bare reference (``ARCHITECTURE.md``)
resolves against the repository root, ``docs/``, and the module's own
directory;
a reference containing ``/`` resolves against the repository root and
the module's directory.  Directories passed on the command line are
walked recursively for ``*.py`` as well.

Every Sphinx cross-reference to the package in any docstring of a Python
file (``:mod:`repro.sql```, ``:class:`~repro.sql.engine.Database```,
``:func:``, ``:meth:``) must name something that exists: the longest
importable module prefix is imported and the rest resolved by
``getattr``.  This catches docstrings pointing at renamed or deleted
code, so ``repro`` must be importable (``PYTHONPATH=src``).

Exits non-zero listing every broken link.
"""

from __future__ import annotations

import ast
import importlib
import re
import sys
from pathlib import Path

#: Links resolving outside this root are GitHub-side paths, not files.
_REPO_ROOT = Path(__file__).resolve().parent.parent

#: Inline Markdown links; images share the syntax (leading ``!`` ignored).
_LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Markdown file references inside docstrings (``docs/FOO.md``, ``BAR.md``).
_DOCSTRING_MD_PATTERN = re.compile(r"(?<![\w/.-])([\w./-]+\.md)\b")

#: Sphinx cross-references into the package (``~`` only shortens the text).
_DOCSTRING_XREF_PATTERN = re.compile(r":(?:mod|class|func|meth):`~?(repro(?:\.\w+)*)`")

#: Targets that are not relative file links.
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")


def source_files(arguments: list[str]) -> list[Path]:
    """Expand the CLI arguments into Markdown and Python file paths."""
    files: list[Path] = []
    for argument in arguments:
        path = Path(argument)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def broken_links(markdown_path: Path) -> list[tuple[int, str]]:
    """(line number, target) for each unresolvable relative link."""
    problems: list[tuple[int, str]] = []
    for line_number, line in enumerate(
        markdown_path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        for match in _LINK_PATTERN.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL_PREFIXES):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            resolved = (markdown_path.parent / relative).resolve()
            if not resolved.is_relative_to(_REPO_ROOT):
                continue
            if not resolved.exists():
                problems.append((line_number, target))
    return problems


def docstring_references(python_path: Path) -> list[str]:
    """Markdown paths referenced from the module's docstring."""
    try:
        tree = ast.parse(python_path.read_text(encoding="utf-8"))
    except SyntaxError:
        return []
    docstring = ast.get_docstring(tree) or ""
    return _DOCSTRING_MD_PATTERN.findall(docstring)


def all_docstrings(python_path: Path) -> list[str]:
    """Docstrings of the module and of every class and function in it."""
    try:
        tree = ast.parse(python_path.read_text(encoding="utf-8"))
    except SyntaxError:
        return []
    nodes = [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module or an attribute reachable from one."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def broken_cross_references(python_path: Path) -> tuple[int, list[str]]:
    """(references checked, those naming nothing) across all docstrings."""
    references = [
        reference
        for docstring in all_docstrings(python_path)
        for reference in _DOCSTRING_XREF_PATTERN.findall(docstring)
    ]
    return len(references), [reference for reference in references if not resolves(reference)]


def broken_docstring_links(python_path: Path) -> list[str]:
    """Docstring ``*.md`` references that resolve to no file on disk."""
    problems: list[str] = []
    for reference in docstring_references(python_path):
        candidates = [_REPO_ROOT / reference, python_path.parent / reference]
        if "/" not in reference:
            candidates.append(_REPO_ROOT / "docs" / reference)
        if not any(candidate.exists() for candidate in candidates):
            problems.append(reference)
    return problems


def main(arguments: list[str]) -> int:
    if not arguments:
        print("usage: check_links.py <file-or-directory> ...", file=sys.stderr)
        return 2
    files = source_files(arguments)
    failures = 0
    cross_references = 0
    for path in files:
        if not path.exists():
            print(f"MISSING FILE {path}", file=sys.stderr)
            failures += 1
            continue
        if path.suffix == ".py":
            for reference in broken_docstring_links(path):
                print(f"BROKEN DOCSTRING REF {path}: {reference}", file=sys.stderr)
                failures += 1
            checked_here, broken = broken_cross_references(path)
            cross_references += checked_here
            for reference in broken:
                print(f"BROKEN CROSS-REFERENCE {path}: {reference}", file=sys.stderr)
                failures += 1
            continue
        for line_number, target in broken_links(path):
            print(f"BROKEN {path}:{line_number}: {target}", file=sys.stderr)
            failures += 1
    checked = len(files)
    if failures:
        print(f"{failures} broken link(s) across {checked} file(s)", file=sys.stderr)
        return 1
    print(
        f"OK: {checked} file(s), no broken relative links or docstring refs; "
        f"{cross_references} cross-reference(s) resolve"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
