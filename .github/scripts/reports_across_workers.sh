#!/usr/bin/env bash
# Runs `creditbounds bounds` on the four shipped fixtures and `creditbounds
# oracle` on the two oracle fixtures at one and at three workers, and fails
# unless every report file matches byte for byte across the two worker
# counts, and each meta.json, parsed as strict JSON, matches too once
# `workers` and every timing (a key ending in `_s`, at any depth) are dropped.
#
# usage: .github/scripts/reports_across_workers.sh <output directory>
# (from the repository root, with the package installed)
set -euo pipefail
out=$1
fixtures=src/creditbounds/fixtures

same_meta() {
  python3 - "$1/meta.json" "$2/meta.json" <<'PY'
import json
import sys


def reject(token):
    raise ValueError(f"{token} is not JSON")


def untimed(value):
    if isinstance(value, dict):
        return {k: untimed(v) for k, v in value.items() if k != "workers" and not k.endswith("_s")}
    if isinstance(value, list):
        return [untimed(v) for v in value]
    return value


def load(path):
    with open(path, encoding="utf-8") as fh:
        return untimed(json.load(fh, parse_constant=reject))


if load(sys.argv[1]) != load(sys.argv[2]):
    sys.exit(f"meta.json differs across worker counts: {sys.argv[1]} {sys.argv[2]}")
PY
}

# chunks are laid out by the sample count alone; 50,001 samples leave
# batches of unequal size, and the reports must still match byte for byte;
# 700,001 samples cut each batch into two chunks of unequal size, whose
# largest draws each run's tail merges (on IDB after settling band draws,
# and on scenario2 after drawing the beta-LGD pool in three blocks a chunk)
for run in scenario1:50001 scenario2:50001 idb_scenario1:50001 idb_scenario2:50001 \
    scenario1:700001 scenario2:700001 idb_scenario1:700001; do
  f=${run%:*}
  n=${run#*:}
  for w in 1 3; do
    creditbounds bounds --scenario "$fixtures/$f.json" \
      --out "$out/$f-$n-w$w" --samples "$n" --workers $w > /dev/null
  done
  cmp "$out/$f-$n-w1/report.csv" "$out/$f-$n-w3/report.csv"
  same_meta "$out/$f-$n-w1" "$out/$f-$n-w3"
done

# the oracle's exact files come from the package's own binomial pmf, and its
# Monte Carlo samples hold every draw; oracle_example pools its 8 identical
# borrowers into one group, while oracle_singletons' 12 borrowers of distinct
# exposure (seed 11) are singletons that settle their band draws after the
# last chunk; every file must match too
for f in oracle_example oracle_singletons; do
  for w in 1 3; do
    creditbounds oracle --scenario "$fixtures/$f.json" \
      --out "$out/oracle-$f-w$w" --workers $w > /dev/null
  done
  for g in "$out/oracle-$f-w1"/oracle_report.csv "$out/oracle-$f-w1"/exact_*.csv; do
    cmp "$g" "$out/oracle-$f-w3/$(basename "$g")"
  done
  same_meta "$out/oracle-$f-w1" "$out/oracle-$f-w3"
done
