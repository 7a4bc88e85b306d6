#!/usr/bin/env bash
# Prints the sha256 digest of every output file (meta.json excepted, since it
# holds timings and the environment) that `creditbounds bounds`, `curves` and
# `oracle` write for the shipped fixtures.  Two checkouts whose printouts are
# equal wrote byte-identical reports, curves and exact files.
#
# usage: .github/scripts/output_digests.sh <output directory>
# (from the root of a checkout; runs the checkout's own src/, installed or not)
set -euo pipefail
out=$1
fixtures=src/creditbounds/fixtures
cb() { PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m creditbounds.cli "$@" > /dev/null; }

for f in scenario1 scenario2 idb_scenario1 idb_scenario2; do
  cb bounds --scenario "$fixtures/$f.json" --out "$out/bounds-$f" --samples 50001
  cb curves --scenario "$fixtures/$f.json" --out "$out/curves-$f"
done
# 700,001 samples cut each batch into two chunks of unequal size, so each
# run's tail merges the largest draws of several chunks, and on IDB those of
# chunks whose band draws settle after the last chunk; scenario2's pooled
# beta-LGD group draws each chunk in three blocks
for f in scenario1 scenario2 idb_scenario1; do
  cb bounds --scenario "$fixtures/$f.json" --out "$out/bounds-$f-700001" --samples 700001
done
cb oracle --scenario "$fixtures/oracle_example.json" --out "$out/oracle-oracle_example"
# 12 borrowers of distinct exposure, each its own group: the whole-sample
# path that settles the singletons' band draws after the last chunk
cb oracle --scenario "$fixtures/oracle_singletons.json" --out "$out/oracle-oracle_singletons"
cb oracle --scenario "$fixtures/scenario1.json" --out "$out/oracle-scenario1" --samples 20001

cd "$out"
find bounds-* curves-* oracle-* -type f ! -name meta.json | LC_ALL=C sort | xargs sha256sum
