"""Workload definitions, published reference values and the seeded input generator.

Every workload is one `creditbounds` subcommand run in-process through
`creditbounds.cli.main`; the program receives its inputs only through
`--scenario`, `--samples`, `--seed` and `--workers`.  The workload seed is
the Monte Carlo seed of the MC workloads and the generator seed of
`exact_oracle`.

Layers are the package modules: portfolio, copulas, profiles, simulate,
risk and cli.  Each workload states which layer it stresses and which it
bypasses, so that an optimisation of one layer has a workload on which it
should move `run_s` and one on which it should not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FIXTURES = Path("src") / "creditbounds" / "fixtures"
FAMILIES = ("gaussian", "clayton", "survival_clayton", "gauss_clayton")


@dataclass(frozen=True)
class Reference:
    """Published AVaR table in percent with the acceptance-suite tolerances.

    ``table`` maps model -> ((lo95, up95), (lo99, up99)); ``bench`` holds
    ((indep95, comon95), (indep99, comon99)).  ``clayton_99_tol`` applies
    to the Clayton bounds at 99% only, as in the acceptance suite.
    """

    table: dict
    bench: tuple
    tol_95: float
    tol_99: float
    clayton_99_tol: float | None = None


# Tables 1-3 of the paper, copied from the acceptance suite.
TABLE1 = Reference(
    table={
        "gaussian": ((0.80, 1.21), (1.17, 2.00)),
        "clayton": ((2.02, 2.83), (4.45, 6.56)),
        "survival_clayton": ((0.37, 0.44), (0.42, 0.49)),
        "gauss_clayton": ((0.95, 2.37), (1.47, 5.35)),
    },
    bench=((0.30, 4.02), (0.33, 10.0)),
    tol_95=0.05,
    tol_99=0.05,
    clayton_99_tol=0.15,
)
TABLE2 = Reference(
    table={
        "gaussian": ((0.83, 1.24), (1.22, 2.02)),
        "clayton": ((2.03, 2.84), (4.46, 6.58)),
        "survival_clayton": ((0.46, 0.51), (0.54, 0.61)),
        "gauss_clayton": ((0.99, 2.38), (1.50, 5.36)),
    },
    bench=((0.39, 4.02), (0.46, 10.4)),
    tol_95=0.05,
    tol_99=0.05,
    clayton_99_tol=0.15,
)
TABLE3 = Reference(
    table={
        "gaussian": ((2.72, 2.83), (3.32, 3.51)),
        "clayton": ((2.96, 3.22), (4.27, 4.91)),
        "survival_clayton": ((2.67, 2.70), (3.21, 3.25)),
        "gauss_clayton": ((2.77, 3.10), (3.41, 4.63)),
    },
    bench=((2.64, 3.68), (3.18, 5.89)),
    tol_95=0.05,
    tol_99=0.10,
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # creditbounds subcommand
    samples: int
    workers: int  # 0 means one per CPU
    why: str
    stresses: str
    bypasses: str
    scenario: Path | None = None  # shipped fixture; None means generated from the seed
    reference: Reference | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="homog_det",
            command="bounds",
            scenario=FIXTURES / "scenario1.json",
            samples=1_000_000,
            workers=1,
            reference=TABLE1,
            why="Table 1 at full scale: 1000 loans, deterministic LGD, four families, "
                "published tolerances unwidened",
            stresses="risk: one pooled group and lattice losses leave AVaR and its batch "
                     "standard errors (420 full sorts per report) as most of the work",
            bypasses="simulate's LGD draws and its many-group loop",
        ),
        Workload(
            name="homog_beta",
            command="bounds",
            scenario=FIXTURES / "scenario2.json",
            samples=200_000,
            workers=1,
            reference=TABLE2,
            why="Table 2: the same portfolio with beta LGD",
            stresses="simulate's LGD path (a beta draw per default, then repeat/bincount); "
                     "continuous losses give risk a tie-free sort",
            bypasses="the many-group loop and thread scaling",
        ),
        Workload(
            name="idb_det",
            command="bounds",
            scenario=FIXTURES / "idb_scenario1.json",
            samples=400_000,
            workers=0,
            reference=TABLE3,
            why="Table 3: 26 sovereigns pooled into up to 14 groups, gauss_clayton envelope "
                "with convex repair, one worker per CPU",
            stresses="simulate's per-group loop (copula conditional PDs and norm_ppf once per "
                     "group per chunk, GIL-bound) and profiles' envelope construction; the only "
                     "workload that shows thread scaling",
            bypasses="LGD draws; the homog_* workloads bypass the per-group loop instead",
        ),
        Workload(
            name="exact_oracle",
            command="oracle",
            samples=100_000,
            workers=1,
            why="the exact path: factor quadrature times full product enumeration on a "
                "16-borrower heterogeneous portfolio generated from the seed",
            stresses="simulate's exact distribution (65,536 support points) and the "
                     "sup-distance check; support size drives time and memory",
            bypasses="risk: no AVaR, no batch standard errors, no full-sample sort",
        ),
    )
}

# Fixed so that support size, and with it time and memory, does not vary
# with the seed; every borrower gets its own pooling group.
ORACLE_BORROWERS = 16


def generate_oracle_inputs(seed: int, out_dir: Path) -> Path:
    """Write a seeded heterogeneous portfolio CSV and its scenario JSON.

    Exposures, pds, LGDs and correlation intervals are all drawn per
    borrower, so no two borrowers pool and the exact path enumerates
    2**16 default combinations.  Returns the scenario path.
    """
    rng = np.random.default_rng(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["name,amount,pd,lgd_kind,lgd_mean,lgd_vol,corr_lo,corr_hi"]
    for i in range(ORACLE_BORROWERS):
        amount = float(rng.uniform(0.5, 2.0))
        pd = float(rng.uniform(0.005, 0.25))
        lgd = float(rng.uniform(0.2, 1.0))
        point = float(rng.uniform(0.08, 0.35))
        half = float(rng.uniform(0.02, 0.05))
        rows.append(
            f"b{i:02d},{amount!r},{pd!r},deterministic,{lgd!r},,{point - half!r},{point + half!r}"
        )
    (out_dir / "portfolio.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    scenario = {
        "label": f"exact_oracle seed {seed}",
        "portfolio": {"kind": "csv", "path": "portfolio.csv"},
        "models": list(FAMILIES),
        "alphas": [0.95, 0.99],
        "mc": {"samples": WORKLOADS["exact_oracle"].samples, "seed": seed, "workers": 1},
    }
    path = out_dir / "scenario.json"
    path.write_text(json.dumps(scenario, indent=2) + "\n", encoding="utf-8")
    return path

