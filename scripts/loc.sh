#!/usr/bin/env bash
# Lines of Rust per crate, split into `src` and `tests`: the non-blank lines
# that are not `//` comments (so `///` and `//!` docs are not counted
# either). `tests` holds the files under a crate's `tests/` and the
# `#[cfg(test)] mod ... { }` blocks inside its `src/`; `src` holds the rest.
# Takes no options:
#
#     scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# "code tests" line counts of the `.rs` files under directory $1.
count() {
    [ -d "$1" ] || { echo 0 0; return; }
    find "$1" -name '*.rs' -print0 | xargs -0 -r awk '
        FNR == 1 { pending = 0; held = 0; intest = 0 }
        /^[[:space:]]*(\/\/|$)/ { next }
        intest { tests++; if ($0 ~ /^}/) intest = 0; next }
        /^#\[cfg\(test\)\]/ { pending = 1; held = 1; next }
        pending && /^#\[/ { held++; next }
        pending && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{/ {
            tests += held + 1; pending = 0; intest = 1; next
        }
        { code += held + 1; pending = 0; held = 0 }
        END { print code + 0, tests + 0 }' |
        awk '{ code += $1; tests += $2 } END { print code + 0, tests + 0 }'
}

printf '%-24s %8s %8s\n' crate src tests
src_total=0
tests_total=0
for dir in crates/* vendor/* perfbench examples; do
    [ -d "$dir" ] || continue
    if [ "$dir" = examples ]; then
        read -r src unit < <(count examples)
        integration=0
    else
        read -r src unit < <(count "$dir/src")
        read -r a b < <(count "$dir/tests")
        integration=$((a + b))
    fi
    tests=$((unit + integration))
    printf '%-24s %8d %8d\n' "$dir" "$src" "$tests"
    src_total=$((src_total + src))
    tests_total=$((tests_total + tests))
done
printf '%-24s %8d %8d\n' total "$src_total" "$tests_total"
