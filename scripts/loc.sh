#!/usr/bin/env bash
# Counts the Rust code this repository ships: lines under crates/*/src that
# are not blank, not comment-only and not unit tests. Unit tests here live
# in a file's trailing `#[cfg(test)] mod tests { ... }` block (counting
# stops there) or in a file behind a `#[cfg(test)] mod x;` declaration
# (that file is skipped).
#
#   scripts/loc.sh              per crate and in total
#   scripts/loc.sh FILE...      per named file and in total
set -euo pipefail
cd "$(dirname "$0")/.."

# Files that a `#[cfg(test)] mod x;` declaration in "$1" points at.
test_only_files() {
  local dir stem name
  dir="$(dirname "$1")"
  stem="$(basename "$1" .rs)"
  awk '/^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; next }
       armed && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ {
         sub(/;.*/, ""); print $NF }
       !/^[[:space:]]*(#\[|$)/ { armed = 0 }' "$1" |
    while read -r name; do
      for f in "$dir/$name.rs" "$dir/$name/mod.rs" \
               "$dir/$stem/$name.rs" "$dir/$stem/$name/mod.rs"; do
        if [ -f "$f" ]; then echo "$f"; fi
      done
    done
}

# Code lines of one file, up to its trailing test module.
count_file() {
  awk '/^#\[cfg\(test\)\]/ { pending = 1; next }
       pending && /^mod [A-Za-z0-9_]+ *\{/ { exit }
       pending && !/^[[:space:]]*(#\[|$)/ { pending = 0 }
       /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
       { n++ }
       END { print n + 0 }' "$1"
}

total=0
if [ "$#" -gt 0 ]; then
  for f in "$@"; do
    n="$(count_file "$f")"
    printf '%7d  %s\n' "$n" "$f"
    total=$((total + n))
  done
else
  for crate in crates/*/; do
    files="$(find "${crate}src" -name '*.rs' | sort)"
    skip="$(for f in $files; do test_only_files "$f"; done)"
    sum=0
    for f in $files; do
      case $'\n'"$skip"$'\n' in *$'\n'"$f"$'\n'*) continue ;; esac
      sum=$((sum + $(count_file "$f")))
    done
    printf '%7d  %s\n' "$sum" "$(basename "$crate")"
    total=$((total + sum))
  done
fi
printf '%7d  total\n' "$total"
