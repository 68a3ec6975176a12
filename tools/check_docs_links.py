"""Check that internal documentation links resolve.

Scans every tracked Markdown file for:

* inline links ``[text](target)`` and ``[text](target#anchor)`` whose
  target is a repository-relative or document-relative path — the file
  must exist, and when an anchor is given the target document must
  contain a heading whose GitHub slug matches it;
* bare in-document anchors ``[text](#anchor)``;
* wiki-style refs ``[[name]]`` — ``name`` (with ``.md`` appended when
  absent) must exist next to the referring file or under ``docs/``.

External schemes (``http(s)``, ``mailto``) and code spans/fences are
ignored.  Exit status is the number of broken references (0 = clean),
so CI can run it directly.

Usage::

    python tools/check_docs_links.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable, List, Set

LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
WIKIREF_RE = re.compile(r"\[\[([^\]\n]+)\]\]")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
FENCE_RE = re.compile(r"^(```|~~~)")
CODE_SPAN_RE = re.compile(r"`[^`\n]*`")
EXTERNAL_SCHEMES = ("http://", "https://", "mailto:", "ftp://")

#: Directories never scanned (third-party or generated content).
SKIP_DIRS = {".git", ".pytest_cache", "__pycache__", "node_modules", ".venv"}


def github_slug(heading: str) -> str:
    """Return the GitHub anchor slug for a heading's text.

    Mirrors GitHub's slugger: strip formatting, lowercase, drop anything
    that is not a word character, space or hyphen, then hyphenate spaces.
    """
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # unwrap code spans
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # unwrap links
    text = re.sub(r"[*_]", "", text)  # emphasis markers
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> List[Path]:
    """Every Markdown file under ``root``, skipping noise directories."""
    found = []
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            found.append(path)
    return found


def strip_code(lines: Iterable[str]) -> List[str]:
    """Blank out fenced code blocks and inline code spans."""
    stripped: List[str] = []
    in_fence = False
    for line in lines:
        if FENCE_RE.match(line.strip()):
            in_fence = not in_fence
            stripped.append("")
            continue
        stripped.append("" if in_fence else CODE_SPAN_RE.sub("", line))
    return stripped


def heading_slugs(path: Path) -> Set[str]:
    """The set of anchor slugs offered by a Markdown document."""
    slugs: Set[str] = set()
    counts: dict = {}
    for line in strip_code(path.read_text(encoding="utf-8").splitlines()):
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        # GitHub de-duplicates repeated headings with -1, -2, … suffixes.
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    return slugs


def check_file(path: Path, root: Path) -> List[str]:
    """Return a list of human-readable problems found in one document."""
    problems: List[str] = []
    lines = strip_code(path.read_text(encoding="utf-8").splitlines())

    def resolve(target: str) -> Path:
        if target.startswith("/"):
            return (root / target.lstrip("/")).resolve()
        return (path.parent / target).resolve()

    for lineno, line in enumerate(lines, start=1):
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(EXTERNAL_SCHEMES):
                continue
            base, _, anchor = target.partition("#")
            if not base:  # in-document anchor
                if anchor and anchor not in heading_slugs(path):
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: "
                        f"no heading for anchor #{anchor}"
                    )
                continue
            dest = resolve(base)
            if not dest.exists():
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: broken link {target}"
                )
                continue
            if anchor and dest.suffix == ".md":
                if anchor not in heading_slugs(dest):
                    problems.append(
                        f"{path.relative_to(root)}:{lineno}: "
                        f"{base} has no heading for anchor #{anchor}"
                    )
        for match in WIKIREF_RE.finditer(line):
            name = match.group(1).strip()
            candidates = [name] if name.endswith(".md") else [name, name + ".md"]
            if not any(
                (base_dir / candidate).exists()
                for candidate in candidates
                for base_dir in (path.parent, root, root / "docs")
            ):
                problems.append(
                    f"{path.relative_to(root)}:{lineno}: "
                    f"unresolved [[{name}]] reference"
                )
    return problems


def main(argv: List[str]) -> int:
    """Scan the tree and print problems; exit code = problem count."""
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path.cwd()
    files = markdown_files(root)
    problems: List[str] = []
    for path in files:
        problems.extend(check_file(path, root))
    for problem in problems:
        print(problem)
    print(
        f"checked {len(files)} markdown files: "
        f"{len(problems)} broken reference(s)"
    )
    return min(len(problems), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
