#!/usr/bin/env bash
# Markdown link check for the repo's top-level docs.
#
# `cargo doc -D warnings` already fails the docs job on broken *rustdoc*
# intra-doc links; this script covers what rustdoc cannot see — the
# markdown cross-references between README.md, DESIGN.md, ROADMAP.md,
# and friends:
#
#   * every relative link target `[text](path)` must exist on disk;
#   * every fragment link into a markdown file (`DESIGN.md#anchor`,
#     `#anchor`) must match a heading in that file, using GitHub's
#     heading-slug rules;
#   * every file the prose names in backticks as `SOMETHING.md` or
#     `scripts/*.sh` must exist (catches stale "see FOO.md" references
#     after a rename);
#   * every source path the prose names in backticks as `path/to/file.rs`,
#     optionally followed by `:line` or `:first–last`, must name a file in
#     the repo, exactly or as a path suffix (`run.rs:12` matches
#     `crates/core/src/run.rs`) — catches references a deletion left
#     behind. CHANGES.md is exempt: it is history and names deleted files.
#
# Usage: scripts/check_doc_links.sh [file.md ...]   (default: repo docs)
set -euo pipefail
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
  files=(README.md DESIGN.md ROADMAP.md PAPER.md CHANGES.md shims/README.md)
fi

python3 - "${files[@]}" <<'PY'
import os, re, sys

files = [f for f in sys.argv[1:] if os.path.exists(f)]
errors = []

def slugify(heading):
    """GitHub's markdown heading -> anchor slug."""
    s = re.sub(r"[`*_]", "", heading.strip().lower())
    s = re.sub(r"[^\w\- ]", "", s, flags=re.UNICODE)
    return s.replace(" ", "-")

def anchors_of(path):
    slugs = set()
    counts = {}
    for line in open(path, encoding="utf-8"):
        m = re.match(r"#{1,6}\s+(.*)", line)
        if m:
            base = slugify(m.group(1))
            n = counts.get(base, 0)
            counts[base] = n + 1
            slugs.add(base if n == 0 else f"{base}-{n}")
    return slugs

def repo_sources():
    """Every `.rs` file in the repo, as a `/`-prefixed relative path."""
    out = []
    for root, dirs, names in os.walk("."):
        dirs[:] = [d for d in dirs if d != "target" and not d.startswith(".")]
        out += [os.path.join(root, n)[1:] for n in names if n.endswith(".rs")]
    return out

sources = repo_sources()
anchor_cache = {}
for f in files:
    text = open(f, encoding="utf-8").read()
    base = os.path.dirname(f)
    # Relative markdown links (skip code fences' content is fine: links in
    # fences are rare and a false positive beats a rotted reference).
    for m in re.finditer(r"\[[^\]]+\]\(([^)\s]+)\)", text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path, _, frag = target.partition("#")
        resolved = os.path.normpath(os.path.join(base, path)) if path else f
        if path and not os.path.exists(resolved):
            errors.append(f"{f}: broken link target {target!r}")
            continue
        if frag and resolved.endswith(".md"):
            if resolved not in anchor_cache:
                anchor_cache[resolved] = anchors_of(resolved)
            if frag not in anchor_cache[resolved]:
                errors.append(f"{f}: missing anchor {target!r}")
    # Backticked doc/script references.
    for m in re.finditer(r"`([\w./-]+\.(?:md|sh))`", text):
        ref = m.group(1)
        candidates = [ref, os.path.normpath(os.path.join(base, ref))]
        if not any(os.path.exists(c) for c in candidates):
            errors.append(f"{f}: names nonexistent file `{ref}`")
    # Backticked source paths, with an optional `:line` / `:first–last`.
    if os.path.basename(f) != "CHANGES.md":
        for m in re.finditer(r"`([\w./-]+\.rs)(?::\d+(?:[–-]\d+)?)?`", text):
            ref = "/" + os.path.normpath(m.group(1)).lstrip("./")
            if not any(s.endswith(ref) for s in sources):
                errors.append(f"{f}: names nonexistent source file `{m.group(1)}`")

for e in errors:
    print(f"check_doc_links: {e}", file=sys.stderr)
if errors:
    sys.exit(1)
print(f"check_doc_links: {len(files)} files ok")
PY
