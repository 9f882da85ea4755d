#!/bin/sh
# checkdocs.sh — the CI docs gate (`make docs`). Three checks:
#
#  1. Every package in the module (internal layers, the public API,
#     commands, examples) carries a godoc package comment, so
#     `go doc <pkg>` always gives an orientation paragraph.
#  2. README.md, DESIGN.md, ARCHITECTURE.md, the Makefile and ci.yml name
#     no cmd/<dir>, BENCH*.json or *.md file, or `make <target>`, that
#     does not exist — a deleted tool or record must take its mentions
#     with it.
#  3. A backticked `pkg.Ident` (or `pkg.Type.Method`) in README.md,
#     DESIGN.md or ARCHITECTURE.md, where pkg is the root package (the
#     public API, `zkphire`) or an internal/ package, names something
#     that package's non-test files still declare. Only identifiers with
#     an upper-case letter count: the all-lower-case dotted names in
#     those files are metrics and fault points.
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

pkgs=$(go list -f '{{.Name}} {{.Dir}}' . ./internal/...)
stale=0
for f in README.md DESIGN.md ARCHITECTURE.md; do
    for ref in $(grep -o '`[^`]*`' "$f" | grep -oE '(^|[^A-Za-z0-9_.])[a-z][a-z0-9]*(\.[A-Za-z_][A-Za-z0-9_]*)+' | sed 's/^[^a-z]//' | sort -u); do
        dir=$(echo "$pkgs" | awk -v p="${ref%%.*}" '$1 == p { print $2 }')
        [ -n "$dir" ] || continue
        for id in $(echo "${ref#*.}" | tr . ' '); do
            case $id in *[A-Z]*) ;; *) continue ;; esac
            # A func, method, type, var or const, or a name inside a
            # grouped declaration (or a struct field).
            if ! cat $(ls "$dir"/*.go | grep -v '_test\.go$') |
                grep -qE "^(func (\([^)]*\) )?|type |var |const )$id([^A-Za-z0-9_]|\$)|^	$id([ ,=]|\$)"; then
                where=${dir#"$PWD"/}
                if [ "$dir" = "$PWD" ]; then where="the root package"; fi
                echo "$f: names \`$ref\`, but $where declares no $id" >&2
                stale=1
            fi
        done
    done
done
if [ "$stale" -ne 0 ]; then
    echo "rename the reference, or delete it with the identifier it named." >&2
    exit 1
fi
echo "doc identifiers OK (backticked pkg.Ident of the root and internal/ packages)"
