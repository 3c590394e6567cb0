#!/usr/bin/env bash
# Runs the README's estimate-grid example through the installed console
# script and checks its first rows against the ones the README shows.
# Usage: .github/check_readme_example.sh DIR  (run from the repository root;
# leaves DIR/grid.cfg, DIR/expected.csv and the run's output DIR/run1)
set -euo pipefail
dir="$1"
mkdir -p "$dir"
sed -n '/^\$ cat grid.cfg$/,/^$/p' README.md | sed '1d;$d' > "$dir/grid.cfg"
sed -n '/^\$ head -3 run1\/grid.csv$/,/^```$/p' README.md | sed '1d;$d' > "$dir/expected.csv"
test -s "$dir/grid.cfg"
test "$(wc -l < "$dir/expected.csv")" -eq 3
csmark estimate-grid --config "$dir/grid.cfg" --out "$dir/run1"
head -3 "$dir/run1/grid.csv" | diff "$dir/expected.csv" -
