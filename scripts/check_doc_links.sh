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
#     after a rename).
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

for e in errors:
    print(f"check_doc_links: {e}", file=sys.stderr)
if errors:
    sys.exit(1)
print(f"check_doc_links: {len(files)} files ok")
PY
