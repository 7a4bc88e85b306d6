#!/usr/bin/env bash
# Fails unless the output files that differ between HEAD and its merge base
# with <base ref> are exactly the ones that the change declares.  It checks
# out both commits as `git worktree`s, runs HEAD's output_digests.sh on each
# and compares the digests file by file.  A change that alters outputs adds
# a line to CHANGES.md that starts with `Outputs changed:` and lists them as
# output_digests.sh names them, separated by commas:
#
#   Outputs changed: bounds-scenario2/report.csv, bounds-scenario2-700001/report.csv
#
# Every differing file must be declared, and every declared file must differ.
#
# usage: .github/scripts/output_changes.sh <base ref> <work directory>
# (from a checkout of the change that holds the base ref's history)
set -euo pipefail
base=$(git merge-base "$1" HEAD)
head=$(git rev-parse HEAD)
mkdir -p "$2"
work=$(cd "$2" && pwd)

cleanup() {
  git worktree remove --force "$work/base" 2> /dev/null || true
  git worktree remove --force "$work/head" 2> /dev/null || true
}
trap cleanup EXIT
git worktree add --detach "$work/base" "$base" > /dev/null
git worktree add --detach "$work/head" "$head" > /dev/null
digests="$work/head/.github/scripts/output_digests.sh"
(cd "$work/base" && "$digests" "$work/out-base") > "$work/base.sha256"
(cd "$work/head" && "$digests" "$work/out-head") > "$work/head.sha256"
git diff "$base" "$head" -- CHANGES.md > "$work/changes.diff"

python3 - "$work/base.sha256" "$work/head.sha256" "$work/changes.diff" <<'PY'
import sys


def digests(path):
    with open(path, encoding="utf-8") as fh:
        return {name: digest for digest, name in (line.split() for line in fh)}


base, head = digests(sys.argv[1]), digests(sys.argv[2])
changed = {name for name in base.keys() | head.keys() if base.get(name) != head.get(name)}
declared = set()
marker = "+Outputs changed:"
with open(sys.argv[3], encoding="utf-8") as fh:
    for line in fh:
        if line.startswith(marker):
            declared.update(n.strip() for n in line[len(marker):].split(",") if n.strip())
print(f"{len(changed)} of {len(head)} output files differ from the merge base")
for name in sorted(changed):
    print(f"  {name}")
undeclared, unchanged = changed - declared, declared - changed
if undeclared:
    print("differ, but no `Outputs changed:` line in CHANGES.md names them:", *sorted(undeclared), sep="\n  ")
if unchanged:
    print("declared in CHANGES.md, but identical at the merge base:", *sorted(unchanged), sep="\n  ")
sys.exit(1 if undeclared or unchanged else 0)
PY
