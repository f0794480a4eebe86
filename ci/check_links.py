#!/usr/bin/env python3
"""Check that every relative markdown link in the repo docs resolves.

Usage: check_links.py [FILE_OR_DIR ...]
       (default: README.md docs/ .claude/skills/verify/SKILL.md)

Scans markdown files for inline links and images (`[text](target)`),
skips external schemes (http/https/mailto) — the build must stay
offline — and fails if a relative target, resolved against the linking
file's directory, does not exist in the worktree. An anchor must name
a heading slug of the file it points into: the linking file itself for
a bare `#section`, the target for `other.md#section` (anchors into
files that are not markdown are not checked).

It also fails on a stale code name, checked against the `*.rs` files
git tracks:

* a backticked snake_case identifier with at least three underscores
  (the last segment of a `a::b::name` path, so test and function names)
  that occurs as a word in none of them, such as a test cited by name
  that was renamed or never written;
* a backticked SCREAMING_SNAKE constant (`NAME_WITH_UNDERSCORES`, the
  last segment of a path) that occurs as a word in none of them;
* a backticked `Type::Variant` path, both segments capitalised, that
  occurs literally in none of them, such as a deleted enum variant.
"""

import functools
import os
import re
import subprocess
import sys

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#+\s+(.*)$", re.MULTILINE)
SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:", re.IGNORECASE)
CODE_NAME = re.compile(r"`(?:\w+::)*([a-z][a-z0-9]*(?:_[a-z0-9]+){3,})(?:\(\))?`")
CONSTANT = re.compile(r"`(?:\w+::)*([A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+)`")
VARIANT = re.compile(r"`([A-Z][A-Za-z0-9]*::[A-Z][A-Za-z0-9]*)`")


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


@functools.cache
def rust_text() -> str:
    """Every `*.rs` file git tracks, concatenated."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "*.rs"], capture_output=True, text=True, check=True
    ).stdout
    texts = []
    for name in filter(None, listed.split("\0")):
        with open(name, encoding="utf-8") as f:
            texts.append(f.read())
    return "\n".join(texts)


@functools.cache
def rust_words() -> frozenset[str]:
    """Every word of every `*.rs` file git tracks."""
    return frozenset(re.findall(r"\w+", rust_text()))


def check_file(path: str) -> list[str]:
    errors = []
    text = read_markdown(path)
    names = CODE_NAME.findall(text) + CONSTANT.findall(text)
    stale = [n for n in names if n not in rust_words()]
    stale += [p for p in VARIANT.findall(text) if p not in rust_text()]
    for name in stale:
        errors.append(f"{path}: `{name}` names nothing in a tracked *.rs file")
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
    args = sys.argv[1:] or ["README.md", "docs", ".claude/skills/verify/SKILL.md"]
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
    print(f"OK: {len(files)} files, all relative links resolve, all code names exist")
    return 0


if __name__ == "__main__":
    sys.exit(main())
