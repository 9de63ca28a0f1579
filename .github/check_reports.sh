#!/usr/bin/env bash
# Check that this commit keeps gaitview's inputs and reports byte-identical
# to those of a base commit, but for the report files it declares changed.
#
#   bash .github/check_reports.sh <base>
#
# Run it from the root of the commit under test. The merge base of <base>
# and HEAD is checked out in a temporary worktree, so the history must be
# there (actions/checkout with fetch-depth: 0). Each side, with
# PYTHONPATH=<side>/src, generates the inputs of the three benchmark
# workloads (perfbench/gen.py --seed 1) and of
# `synth --subjects 18 --seed 42 --noise-sd 2.0`; the two input trees must
# be identical. Both sides then analyze the base's inputs: with the defaults
# on every cohort, with per-subject PCA on cohort_gaps, and with a subset of
# --metrics and --features on the seed-42 cohort, each followed by recommend
# (--alpha 0.01 after the subset run). Each analyze runs a second time with
# every CSV number written at full precision (`repr` in place of
# gaitview.report's _fmt), since a 6-digit report hides a change in the last
# bits of a value. The names of the report files that differ in either run
# must equal the list on the `Reports changed:` line this commit adds to
# CHANGES.md:
# `Reports changed: none`, or comma-separated file names such as
# `Reports changed: radar.json, stats_step_length.csv`.
#
# Both sides run on one machine: the walking axis and PCA go through
# LAPACK's SVD, so pinned digests would tie the check to one numpy build.
set -euo pipefail

base=$(git merge-base "${1:?usage: bash .github/check_reports.sh <base>}" HEAD)
head=$PWD
work=$(mktemp -d)
trap 'git worktree remove --force "$work/base-src" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT
git worktree add --quiet --detach "$work/base-src" "$base"

run() {  # <side> <command ...>: the side's gaitview, its own source first on the path
  PYTHONPATH="$1/src" python3 "${@:2}" >/dev/null
}

full_precision='import sys; from gaitview import cli
cli.report._fmt = repr
sys.exit(cli.main(sys.argv[1:]))'

analyze() {  # <side> <out> <analyze args ...>: the reports, then at full precision
  run "$1" -m gaitview.cli analyze --out "$2" "${@:3}"
  run "$1" -c "$full_precision" analyze --out "$2.full" "${@:3}"
}

inputs() {  # <side> <dir>
  for workload in paper18 long600 cohort_gaps; do
    run "$1" "$1/perfbench/gen.py" --workload "$workload" --seed 1 --out "$2/$workload"
  done
  run "$1" -m gaitview.cli synth --subjects 18 --seed 42 --noise-sd 2.0 --out "$2/synth42"
}

reports() {  # <side> <dir>: analyze and recommend the base's inputs
  local data=$work/inputs/base
  for cohort in paper18 long600 cohort_gaps synth42; do
    analyze "$1" "$2/$cohort" --manifest "$data/$cohort/manifest.csv"
    run "$1" -m gaitview.cli recommend --analyzed "$2/$cohort"
  done
  analyze "$1" "$2/cohort_gaps_per_subject" --manifest "$data/cohort_gaps/manifest.csv" \
    --pca-scope per-subject
  run "$1" -m gaitview.cli recommend --analyzed "$2/cohort_gaps_per_subject"
  analyze "$1" "$2/synth42_subset" --manifest "$data/synth42/manifest.csv" \
    --metrics dtw,kld --features step_length,trunk_rotation
  run "$1" -m gaitview.cli recommend --analyzed "$2/synth42_subset" --alpha 0.01
}

for side in base head; do
  src=$work/base-src
  if [ "$side" = head ]; then src=$head; fi
  loaded=$(PYTHONPATH="$src/src" python3 -c 'import gaitview; print(gaitview.__file__)')
  if [ "$loaded" != "$src/src/gaitview/__init__.py" ]; then
    echo "FAIL: the $side side imports $loaded, not its own source" >&2
    exit 1
  fi
  inputs "$src" "$work/inputs/$side"
done
if ! diff -r "$work/inputs/base" "$work/inputs/head"; then
  echo "FAIL: the generated inputs differ from the base's ($base)" >&2
  exit 1
fi
reports "$work/base-src" "$work/reports/base"
reports "$head" "$work/reports/head"

# one name per differing file: "Files A/x and B/x differ" or "Only in DIR: x"
changed=$({ diff -rq "$work/reports/base" "$work/reports/head" || true; } \
  | awk '/^Only in / { print $NF; next } { n = split($2, part, "/"); print part[n] }' \
  | sort -u | paste -sd, -)
declared=$(git diff "$base" -- CHANGES.md | grep '^+' \
  | grep -oE 'Reports changed: [A-Za-z0-9_.-]*[A-Za-z0-9_](, [A-Za-z0-9_.-]*[A-Za-z0-9_])*' \
  | sed 's/^Reports changed: //; s/, /\n/g' | sort -u | paste -sd, -) || true
if [ -z "$declared" ]; then
  echo "FAIL: CHANGES.md adds no 'Reports changed: none|<file>, ...' line" >&2
  exit 1
fi
if [ "$declared" = none ]; then declared=; fi
if [ "$changed" != "$declared" ]; then
  diff -rq "$work/reports/base" "$work/reports/head" | head -n 20 >&2 || true
  echo "FAIL: reports changed: ${changed:-none}; CHANGES.md declares: ${declared:-none}" >&2
  exit 1
fi
echo "inputs identical; reports changed: ${changed:-none}, as CHANGES.md declares (base $base)"
