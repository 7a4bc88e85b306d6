#!/usr/bin/env bash
# Runs `creditbounds bounds` on the four shipped fixtures and `creditbounds
# oracle` on the oracle example at one and at three workers, and fails unless
# every report file matches byte for byte across the two worker counts, and
# each fixture's meta.json, parsed as strict JSON, matches too apart from its
# worker count and timings.
#
# usage: .github/scripts/reports_across_workers.sh <output directory>
# (from the repository root, with the package installed)
set -euo pipefail
out=$1
fixtures=src/creditbounds/fixtures

# chunks are laid out by the sample count alone; 50,001 samples leave
# batches of unequal size, and the reports must still match byte for byte
for f in scenario1 scenario2 idb_scenario1 idb_scenario2; do
  for w in 1 3; do
    creditbounds bounds --scenario "$fixtures/$f.json" \
      --out "$out/$f-w$w" --samples 50001 --workers $w > /dev/null
  done
  cmp "$out/$f-w1/report.csv" "$out/$f-w3/report.csv"
  python3 - "$out/$f-w1/meta.json" "$out/$f-w3/meta.json" <<'PY'
import json
import sys


def reject(token):
    raise ValueError(f"{token} is not JSON")


def load(path):
    with open(path, encoding="utf-8") as fh:
        meta = json.load(fh, parse_constant=reject)
    for key in ("wall_time_s", "run_times", "workers"):
        del meta[key]
    return meta


if load(sys.argv[1]) != load(sys.argv[2]):
    sys.exit(f"meta.json differs across worker counts: {sys.argv[1]} {sys.argv[2]}")
PY
done

# the oracle's Monte Carlo samples settle their singletons' band draws after
# the last chunk, and its exact files come from the package's own binomial
# pmf; they must match too
for w in 1 3; do
  creditbounds oracle --scenario "$fixtures/oracle_example.json" \
    --out "$out/oracle-w$w" --workers $w > /dev/null
done
for f in "$out"/oracle-w1/oracle_report.csv "$out"/oracle-w1/exact_*.csv; do
  cmp "$f" "$out/oracle-w3/$(basename "$f")"
done
