"""Correctness gate applied to every operation's output files.

`bounds` operations must reproduce the published table within the
acceptance-suite tolerances widened by sqrt(10^6 / samples), plus three of
the run's own batch standard errors (see `check_bounds`), and the ordering
chain independent <= lower <= upper <= comonotone must hold within three
pooled standard errors.  `oracle` operations must exit 0 with every sup
distance inside the DKW band.  Each function returns a list of failure
messages; an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

ALPHAS = (0.95, 0.99)


def read_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))


def read_report(path: Path) -> dict:
    """report.csv rows keyed by (model, alpha), numeric columns as floats.

    The leading scenario label is written unquoted and may itself contain
    commas, so columns are taken from the right.
    """
    header, *lines = path.read_text(encoding="utf-8").splitlines()
    names = header.split(",")[1:]
    rows = {}
    for line in lines:
        r = dict(zip(names, line.split(",")[-len(names):]))
        key = (r.pop("model"), float(r.pop("alpha")))
        rows[key] = {k: float(v) for k, v in r.items()}
    return rows


def check_bounds(report_csv: Path, reference, samples: int) -> list[str]:
    """Compare a `bounds` report.csv against a published table.

    The published values come from one Monte Carlo run and the acceptance
    tolerances were fixed for one seed; across seeds the estimate moves by
    its own sampling error, so the allowed deviation is the widened
    tolerance plus three batch standard errors of the value checked.
    """
    widen = max(1.0, math.sqrt(1_000_000 / samples))
    rows = read_report(report_csv)
    failures = []

    def compare(label, got, se, ref, tol):
        allowed = tol * widen + 3.0 * 100.0 * se
        if not abs(100.0 * got - ref) <= allowed:
            failures.append(f"{label}: {100.0 * got:.4f}% vs published {ref}% "
                            f"(allowed {allowed:.4f})")

    for model, per_alpha in reference.table.items():
        for alpha, (ref_lo, ref_up), tol in zip(ALPHAS, per_alpha,
                                                 (reference.tol_95, reference.tol_99)):
            if model == "clayton" and alpha == 0.99 and reference.clayton_99_tol is not None:
                tol = reference.clayton_99_tol
            row = rows.get((model, alpha))
            if row is None:
                failures.append(f"{model}@{alpha}: missing from report")
                continue
            compare(f"{model}@{alpha} lower", row["avar_lower"], row["se_lower"], ref_lo, tol)
            compare(f"{model}@{alpha} upper", row["avar_upper"], row["se_upper"], ref_up, tol)
    for alpha, (ref_ind, ref_com), tol in zip(ALPHAS, reference.bench,
                                             (reference.tol_95, reference.tol_99)):
        row = next((r for (m, a), r in rows.items() if a == alpha), None)
        if row is None:
            failures.append(f"benchmarks@{alpha}: missing from report")
            continue
        compare(f"independent@{alpha}", row["avar_indep"], row["se_indep"], ref_ind, tol)
        compare(f"comonotone@{alpha}", row["avar_comon"], row["se_comon"], ref_com, tol)
    for (model, alpha), r in rows.items():
        chain = (
            ("indep<=lower", "indep", "lower"),
            ("lower<=upper", "lower", "upper"),
            ("upper<=comon", "upper", "comon"),
        )
        for label, a, b in chain:
            slack = 3.0 * math.hypot(r[f"se_{a}"], r[f"se_{b}"]) + 1e-15
            if not r[f"avar_{a}"] <= r[f"avar_{b}"] + slack:
                failures.append(f"{model}@{alpha}: ordering chain {label} broken")
    return failures


def dkw_epsilon(n: int, confidence: float = 0.999) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band, computed here
    independently of the program."""
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


def check_oracle(report_csv: Path, models, samples: int) -> list[str]:
    """Every model has an oracle row and every sup distance is within DKW epsilon."""
    eps = dkw_epsilon(samples)
    rows = read_rows(report_csv)
    failures = [f"{m}: no oracle row" for m in models if not any(r["model"] == m for r in rows)]
    for r in rows:
        dist = float(r["sup_distance"])
        if not (dist <= eps and r["pass"] == "True"):
            failures.append(f"{r['model']}/{r['side']}: sup distance {dist:.5f} > DKW {eps:.5f}")
    return failures
