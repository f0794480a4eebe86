#!/usr/bin/env python3
"""Check that every relative markdown link in the repo docs resolves.

Usage: check_links.py [FILE_OR_DIR ...]   (default: README.md docs/)

Scans markdown files for inline links and images (`[text](target)`),
skips external schemes (http/https/mailto) — the build must stay
offline — and fails if a relative target, resolved against the linking
file's directory, does not exist in the worktree. An anchor must name
a heading slug of the file it points into: the linking file itself for
a bare `#section`, the target for `other.md#section` (anchors into
files that are not markdown are not checked).
"""

import functools
import os
import re
import sys

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:", re.IGNORECASE)


def slug(heading: str) -> str:
    """GitHub-style anchor slug for a heading line (keeps `_`, as GitHub
    does)."""
    text = re.sub(r"[`*\[\]()]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def read_markdown(path: str) -> str:
    """The file's text without fenced code blocks, which hold example
    paths and comment lines, not links or headings."""
    with open(path, encoding="utf-8") as f:
        return re.sub(r"```.*?```", "", f.read(), flags=re.DOTALL)


@functools.cache
def slugs(path: str) -> frozenset[str]:
    """Anchor slugs of every heading in the markdown file at `path`."""
    return frozenset(slug(h) for h in HEADING.findall(read_markdown(path)))


def check_file(path: str) -> list[str]:
    errors = []
    for target in LINK.findall(read_markdown(path)):
        if SCHEME.match(target):
            continue
        base, _, anchor = target.partition("#")
        resolved = os.path.normpath(os.path.join(os.path.dirname(path), base)) if base else path
        if not os.path.exists(resolved):
            errors.append(f"{path}: broken link {target} -> {resolved}")
        elif anchor and resolved.endswith(".md") and anchor not in slugs(resolved):
            errors.append(f"{path}: broken anchor {target}")
    return errors


def collect(arg: str) -> list[str]:
    if os.path.isdir(arg):
        return sorted(
            os.path.join(root, name)
            for root, _, names in os.walk(arg)
            for name in names
            if name.endswith(".md")
        )
    return [arg]


def main() -> int:
    args = sys.argv[1:] or ["README.md", "docs"]
    files = [f for a in args for f in collect(a)]
    if not files:
        print("FAIL: no markdown files found", file=sys.stderr)
        return 2
    errors = []
    for path in files:
        errors.extend(check_file(path))
    for e in errors:
        print(f"FAIL: {e}")
    if errors:
        return 1
    print(f"OK: {len(files)} files, all relative links resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
