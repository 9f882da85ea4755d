#!/bin/sh
# checkdocs.sh — the CI docs gate (`make docs`). Two checks:
#
#  1. Every package in the module (internal layers, the public API,
#     commands, examples) carries a godoc package comment, so
#     `go doc <pkg>` always gives an orientation paragraph.
#  2. README.md, DESIGN.md, ARCHITECTURE.md, the Makefile and ci.yml name
#     no cmd/<dir>, BENCH*.json or *.md file, or `make <target>`, that
#     does not exist — a deleted tool or record must take its mentions
#     with it.
#
# Run from the repository root:  sh scripts/checkdocs.sh
set -eu

missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$missing" ]; then
    echo "packages missing a godoc package comment:" >&2
    echo "$missing" | sed 's/^/  /' >&2
    echo "add a '// Package <name> ...' (or '// Command <name> ...') comment above the package clause." >&2
    exit 1
fi
echo "package docs OK ($(go list ./... | wc -l | tr -d ' ') packages)"

targets=$(sed -n 's/^\([a-z][a-z0-9-]*\):.*/\1/p' Makefile)
dangling=0
for f in README.md DESIGN.md ARCHITECTURE.md Makefile .github/workflows/ci.yml; do
    # Paths: a cmd/ directory, a BENCH*.json record, any .md document
    # (relative to the repository root or to the file naming it).
    for ref in $(grep -o 'cmd/[a-z][a-z0-9_-]*\|BENCH[A-Za-z0-9_]*\.json\|[A-Za-z0-9_./-]*[A-Za-z0-9_]\.md' "$f" | sort -u); do
        if [ ! -e "$ref" ] && [ ! -e "$(dirname "$f")/$ref" ]; then
            echo "$f: names $ref, which does not exist" >&2
            dangling=1
        fi
    done
    # Make targets: `make x` in backticks, "run: make x" in a workflow,
    # or a line starting "make x" inside a ``` fence. Prose that merely
    # uses the verb is not a reference.
    for t in $(awk '
        /^```/ { fence = !fence; next }
        {
            line = $0
            if (fence && match(line, /^make [a-z][a-z0-9-]*/))
                print substr(line, 6, RLENGTH - 5)
            while (match(line, /(`|run: )make [a-z][a-z0-9-]*/)) {
                ref = substr(line, RSTART, RLENGTH)
                sub(/.*make /, "", ref)
                print ref
                line = substr(line, RSTART + RLENGTH)
            }
        }' "$f" | sort -u); do
        if ! echo "$targets" | grep -qx "$t"; then
            echo "$f: names \`make $t\`, which is not a Makefile target" >&2
            dangling=1
        fi
    done
done
if [ "$dangling" -ne 0 ]; then
    echo "fix the reference, or delete it with the thing it named." >&2
    exit 1
fi
echo "doc references OK (cmd/ dirs, BENCH*.json, *.md, make targets)"
