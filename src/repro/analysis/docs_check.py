"""Docs honesty checks: link integrity + executable examples.

Run as ``python -m repro.analysis docs``.  Two checks:

1. **Links** — every relative markdown link in ``docs/*.md`` and
   ``README.md`` must point at an existing file (fragments are stripped;
   external ``http(s)``/``mailto`` links are not fetched).
2. **Examples** — the fenced ``python`` blocks of the executable pages
   (``docs/api_guide.md``, ``docs/serving.md``, ``docs/kernels.md``,
   ``docs/observability.md``) are run top-to-bottom in
   one shared namespace per page, from a scratch working directory.  A
   block preceded by an ``<!-- doccheck: skip -->`` marker is
   compile-checked only (used for pages whose examples would train
   models).

Usage::

    python -m repro.analysis docs [--links-only] [--root DIR]

Exits non-zero on the first category of failure, listing every offender.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

__all__ = ["check_links", "run_examples", "main"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```")
SKIP_MARKER = "<!-- doccheck: skip -->"

#: Pages whose python blocks must execute end-to-end.
EXECUTABLE_PAGES = (
    "docs/api_guide.md", "docs/serving.md", "docs/kernels.md", "docs/observability.md",
)


def iter_doc_files(root: Path) -> Iterator[Path]:
    """README plus every page under ``docs/``."""
    readme = root / "README.md"
    if readme.exists():
        yield readme
    yield from sorted((root / "docs").glob("*.md"))


def check_links(root: Path) -> List[str]:
    """Return a list of ``file:line: broken-target`` strings."""
    errors = []
    for path in iter_doc_files(root):
        text = path.read_text(encoding="utf-8")
        # ignore links inside fenced code blocks
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if FENCE_RE.match(line.strip()):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                rel = target.split("#", 1)[0]
                if not rel:  # pure fragment, same-page anchor
                    continue
                resolved = (path.parent / rel).resolve()
                if not resolved.exists():
                    errors.append(f"{path.relative_to(root)}:{lineno}: {target}")
    return errors


@dataclass
class CodeBlock:
    """One fenced python block of a documentation page."""

    lineno: int
    source: str
    skip: bool


def extract_python_blocks(path: Path) -> List[CodeBlock]:
    """Fenced ``python`` blocks with their skip markers, in page order."""
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    i = 0
    pending_skip = False
    while i < len(lines):
        stripped = lines[i].strip()
        if stripped == SKIP_MARKER:
            pending_skip = True
        elif stripped.startswith("```python"):
            start = i + 1
            body = []
            i += 1
            while i < len(lines) and not lines[i].strip().startswith("```"):
                body.append(lines[i])
                i += 1
            blocks.append(CodeBlock(start + 1, "\n".join(body), pending_skip))
            pending_skip = False
        elif stripped:  # any other non-blank line clears a dangling marker
            pending_skip = False
        i += 1
    return blocks


def run_examples(root: Path, rel_path: str) -> List[str]:
    """Execute (or compile) every python block of one page; return errors."""
    path = root / rel_path
    blocks = extract_python_blocks(path)
    if not blocks:
        return [f"{rel_path}: no python blocks found"]
    errors = []
    namespace: dict = {"__name__": f"doccheck_{path.stem}"}
    with tempfile.TemporaryDirectory(prefix="doccheck-") as scratch:
        with contextlib.ExitStack() as stack:
            cwd = os.getcwd()
            os.chdir(scratch)
            stack.callback(os.chdir, cwd)
            for block in blocks:
                label = f"{rel_path}:{block.lineno}"
                try:
                    code = compile(block.source, label, "exec")
                except SyntaxError:
                    errors.append(f"{label}: syntax error\n{traceback.format_exc()}")
                    continue
                if block.skip:
                    print(f"  compiled  {label}")
                    continue
                try:
                    exec(code, namespace)
                except Exception:
                    errors.append(f"{label}: raised\n{traceback.format_exc()}")
                    break  # later blocks depend on this namespace
                print(f"  executed  {label}")
    return errors


def main(argv: Optional[Sequence[str]] = None, root: Optional[Path] = None) -> int:
    """CLI entry; ``root`` (repo root) defaults to ``--root`` or the cwd."""
    parser = argparse.ArgumentParser(
        prog="repro.analysis docs",
        description="doc link integrity + executable examples",
    )
    parser.add_argument(
        "--links-only", action="store_true", help="skip executing doc examples"
    )
    parser.add_argument(
        "--root", type=Path, default=None,
        help="repository root holding README.md and docs/ (default: cwd)",
    )
    args = parser.parse_args(argv)
    root = args.root if args.root is not None else (root or Path.cwd())
    # Doc examples import repro; make a source checkout work uninstalled.
    src = root / "src"
    if src.is_dir() and str(src) not in sys.path:
        sys.path.insert(0, str(src))

    link_errors = check_links(root)
    n_files = len(list(iter_doc_files(root)))
    if link_errors:
        print(f"broken links ({len(link_errors)}):")
        for err in link_errors:
            print(f"  {err}")
        return 1
    print(f"links ok across {n_files} markdown files")

    if not args.links_only:
        for rel_path in EXECUTABLE_PAGES:
            print(f"running examples in {rel_path}")
            errors = run_examples(root, rel_path)
            if errors:
                for err in errors:
                    print(err)
                return 1
    print("docs ok")
    return 0
