"""Acceptance suite: published-table reproduction, exact oracles, ordering laws.

Runs the four shipped scenario fixtures end to end and checks every
reference number at its stated tolerance, printing one PASS/FAIL line per
criterion (use ``pytest -s`` to see them as they complete).

Full scale is 10^6 Monte Carlo samples per run.  Set CB_ACCEPT_SAMPLES
(e.g. 200000 in CI) to run reduced; Monte Carlo tolerances widen by
sqrt(10^6 / samples) accordingly.
"""

import math
import os
import time
import warnings

import numpy as np
import pytest

from creditbounds.copulas import (
    Clayton,
    Comonotone,
    Gaussian,
    Independence,
    SurvivalClayton,
    check_si,
    clayton_theta_matching_gaussian,
    is_pointwise_leq,
)
from creditbounds.portfolio import (
    Borrower,
    DeterministicLgd,
    homogeneous_portfolio,
    irb_correlation,
    load_portfolio_csv,
    load_scenario,
)
from creditbounds.profiles import (
    ComonotoneProfile,
    GridProfile,
    IndependentProfile,
    TabulatedPdCurve,
    clayton_profile,
    envelope,
    gaussian_profile,
    profile_from_copula,
    survival_clayton_profile,
    validate_profile,
)
from creditbounds.risk import avar, bound_profiles, check_cx_dominance, risk_report
from creditbounds.simulate import (
    dkw_epsilon,
    exact_loss_distribution,
    simulate_losses,
    sup_cdf_distance,
)

from conftest import FIXTURES

SAMPLES = int(os.environ.get("CB_ACCEPT_SAMPLES", "1000000"))
TOL_SCALE = max(1.0, math.sqrt(1_000_000 / SAMPLES))

MODELS = ("gaussian", "clayton", "survival_clayton", "gauss_clayton")

# Reference AVaR bounds in percent: {model: ((lo95, up95), (lo99, up99))},
# benchmarks as ((indep95, comon95), (indep99, comon99)).
TABLE1 = {
    "gaussian": ((0.80, 1.21), (1.17, 2.00)),
    "clayton": ((2.02, 2.83), (4.45, 6.56)),
    "survival_clayton": ((0.37, 0.44), (0.42, 0.49)),
    "gauss_clayton": ((0.95, 2.37), (1.47, 5.35)),
}
BENCH1 = ((0.30, 4.02), (0.33, 10.0))
TABLE2 = {
    "gaussian": ((0.83, 1.24), (1.22, 2.02)),
    "clayton": ((2.03, 2.84), (4.46, 6.58)),
    "survival_clayton": ((0.46, 0.51), (0.54, 0.61)),
    "gauss_clayton": ((0.99, 2.38), (1.50, 5.36)),
}
BENCH2 = ((0.39, 4.02), (0.46, 10.4))
TABLE3 = {
    "gaussian": ((2.72, 2.83), (3.32, 3.51)),
    "clayton": ((2.96, 3.22), (4.27, 4.91)),
    "survival_clayton": ((2.67, 2.70), (3.21, 3.25)),
    "gauss_clayton": ((2.77, 3.10), (3.41, 4.63)),
}
BENCH3 = ((2.64, 3.68), (3.18, 5.89))
TABLE4 = {
    "gaussian": ((8.44, 8.46), (11.19, 11.22)),
    "clayton": ((8.48, 8.53), (11.27, 11.36)),
    "survival_clayton": ((8.44, 8.45), (11.16, 11.17)),
    "gauss_clayton": ((8.45, 8.51), (11.21, 11.32)),
}
BENCH4 = ((8.44, 8.63), (11.18, 11.55))

# Published per-borrower dependence parameters: exposure share and the
# Clayton parameter interval matched to the shifted regulatory correlations.
IDB_REFERENCE = {
    "Argentina": (14.33, 0.37, 0.71),
    "Bahamas": (0.67, 0.64, 0.96),
    "Barbados": (0.58, 0.39, 0.72),
    "Belize": (0.15, 0.39, 0.72),
    "Bolivia": (3.70, 0.39, 0.72),
    "Brazil": (13.99, 0.72, 1.04),
    "Chile": (2.11, 0.90, 1.24),
    "Colombia": (10.27, 0.86, 1.19),
    "Costa Rica": (2.26, 0.64, 0.96),
    "Dominican Republic": (3.66, 0.81, 1.14),
    "Ecuador": (6.95, 0.39, 0.72),
    "El Salvador": (2.13, 0.37, 0.71),
    "Guatemala": (1.76, 0.81, 1.14),
    "Guyana": (0.73, 0.72, 1.04),
    "Haiti": (0.00, 0.37, 0.71),
    "Honduras": (2.83, 0.72, 1.04),
    "Jamaica": (1.56, 0.72, 1.04),
    "Mexico": (14.21, 0.89, 1.22),
    "Nicaragua": (2.13, 0.54, 0.87),
    "Panama": (4.01, 0.89, 1.22),
    "Paraguay": (2.83, 0.81, 1.14),
    "Peru": (2.91, 0.89, 1.22),
    "Suriname": (0.60, 0.37, 0.71),
    "Trinidad and Tobago": (0.68, 0.87, 1.21),
    "Uruguay": (3.11, 0.89, 1.22),
    "Venezuela": (1.85, 0.37, 0.71),
}


def _report(name: str):
    scenario = load_scenario(FIXTURES / f"{name}.json")
    if SAMPLES != scenario.mc.samples:
        import dataclasses

        scenario = dataclasses.replace(
            scenario, mc=dataclasses.replace(scenario.mc, samples=SAMPLES)
        )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return risk_report(scenario)


@pytest.fixture(scope="module")
def reports():
    return {name: _report(name) for name in
            ("scenario1", "scenario2", "idb_scenario1", "idb_scenario2")}


def _verdict(number: int, label: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f" [{'; '.join(failures[:4])}]"
    print(f"criterion {number} ({label}): {status}{detail}")
    assert not failures, f"criterion {number}: {failures}"


def _compare_table(report, table, bench, tol_95, tol_99, clayton_99_tol=None):
    failures = []
    for model, per_alpha in table.items():
        for alpha, (ref_lo, ref_up), base_tol in zip(
            (0.95, 0.99), per_alpha, (tol_95, tol_99)
        ):
            tol = base_tol
            if clayton_99_tol is not None and model == "clayton" and alpha == 0.99:
                tol = clayton_99_tol
            _, lower, upper, _ = report.chain(model)
            i = report.alphas.index(alpha)
            for got, ref, side in ((lower.avar[i], ref_lo, "lower"), (upper.avar[i], ref_up, "upper")):
                dev = abs(100.0 * got - ref)
                if dev > tol * TOL_SCALE:
                    failures.append(f"{model}@{alpha} {side}: {100 * got:.3f} vs {ref} (tol {tol})")
    for alpha, (ref_ind, ref_com), base_tol in zip((0.95, 0.99), bench, (tol_95, tol_99)):
        indep, _, _, comon = report.chain(report.models[0])
        i = report.alphas.index(alpha)
        for got, ref, side in ((indep.avar[i], ref_ind, "indep"), (comon.avar[i], ref_com, "comon")):
            dev = abs(100.0 * got - ref)
            if dev > base_tol * TOL_SCALE:
                failures.append(f"benchmark@{alpha} {side}: {100 * got:.3f} vs {ref}")
    return failures


def test_criterion_1_table1_reproduction(reports):
    failures = _compare_table(reports["scenario1"], TABLE1, BENCH1,
                              tol_95=0.05, tol_99=0.05, clayton_99_tol=0.15)
    _verdict(1, f"homogeneous portfolio, deterministic LGD, {SAMPLES} samples", failures)


def test_criterion_2_table2_reproduction(reports):
    failures = _compare_table(reports["scenario2"], TABLE2, BENCH2,
                              tol_95=0.05, tol_99=0.05, clayton_99_tol=0.15)
    _verdict(2, f"homogeneous portfolio, beta LGD, {SAMPLES} samples", failures)


def test_criterion_3_real_data_reproduction(reports):
    failures = _compare_table(reports["idb_scenario1"], TABLE3, BENCH3, tol_95=0.05, tol_99=0.10)
    failures += [
        "scenario2/" + f
        for f in _compare_table(reports["idb_scenario2"], TABLE4, BENCH4, tol_95=0.05, tol_99=0.10)
    ]
    _verdict(3, "sovereign portfolio, both LGD scenarios", failures)


def test_criterion_4_analytic_comonotone_benchmark():
    portfolio = homogeneous_portfolio(1000, 0.02, DeterministicLgd(0.1))
    exact = exact_loss_distribution([ComonotoneProfile(0.02)] * 1000, portfolio)
    failures = []
    for conf, expected in ((0.95, 0.04), (0.99, 0.10)):
        got = avar(exact, conf)
        if abs(got - expected) > 1e-12:
            failures.append(f"AVaR@{conf}: {got!r} vs {expected}")
    _verdict(4, "exact two-point comonotone AVaR", failures)


def test_exact_table1_bounds():
    """Table 1 from the exact distributions: 1,000 pooled borrowers, 1,001 points."""
    scenario = load_scenario(FIXTURES / "scenario1.json")
    borrowers = scenario.borrowers
    failures = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for model, per_alpha in TABLE1.items():
            lowers, uppers = bound_profiles(model, borrowers, scenario.point_copulas)
            exact = [exact_loss_distribution(p, borrowers) for p in (lowers, uppers)]
            for alpha, refs in zip((0.95, 0.99), per_alpha):
                tol = 0.15 if (model, alpha) == ("clayton", 0.99) else 0.05
                for dist, ref, side in zip(exact, refs, ("lower", "upper")):
                    got = 100.0 * avar(dist, alpha)
                    if abs(got - ref) > tol:
                        failures.append(f"{model}@{alpha} {side}: {got:.3f} vs {ref} (tol {tol})")
    assert not failures, failures


def _random_portfolio(rng):
    n = int(rng.integers(3, 13))
    raw = rng.uniform(0.5, 2.0, n)
    weights = raw / raw.sum()
    borrowers = []
    for i in range(n):
        pd = float(rng.uniform(0.005, 0.25))
        point = float(rng.uniform(0.08, 0.35))
        half = float(rng.uniform(0.02, 0.05))
        borrowers.append(
            Borrower(
                name=f"b{i}",
                pd=pd,
                exposure_weight=float(weights[i]),
                lgd=DeterministicLgd(float(rng.uniform(0.2, 1.0))),
                corr_interval=(max(0.01, point - half), min(0.6, point + half)),
                corr_point=point,
            )
        )
    return borrowers


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(20240805)
    start = time.perf_counter()
    failures = []
    eps = dkw_epsilon(100_000)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(10):
            borrowers = _random_portfolio(rng)
            cases = []
            for model in MODELS:
                lowers, uppers = bound_profiles(model, borrowers)
                cases.append((f"{model}/lower", lowers))
                cases.append((f"{model}/upper", uppers))
            cases.append(("independent", [IndependentProfile(b.pd) for b in borrowers]))
            cases.append(("comonotone", [ComonotoneProfile(b.pd) for b in borrowers]))
            for j, (label, profiles) in enumerate(cases):
                exact = exact_loss_distribution(profiles, borrowers, quad_nodes=192)
                mc = simulate_losses(profiles, borrowers, 100_000, seed=6000 + 100 * k + j)
                dist = sup_cdf_distance(mc, exact)
                if dist > eps:
                    failures.append(f"portfolio {k} {label}: sup distance {dist:.4f} > {eps:.4f}")
    elapsed = time.perf_counter() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(5, f"MC inside 99.9% DKW band, 10 random portfolios ({elapsed:.1f}s)", failures)


def test_criterion_6_ordering_chain(reports):
    failures = []
    for name, report in reports.items():
        for model in report.models:
            indep, lower, upper, comon = report.chain(model)
            for i, alpha in enumerate(report.alphas):
                chain = [
                    ("indep<=lower", indep.avar[i], indep.se[i], lower.avar[i], lower.se[i]),
                    ("lower<=upper", lower.avar[i], lower.se[i], upper.avar[i], upper.se[i]),
                    ("upper<=comon", upper.avar[i], upper.se[i], comon.avar[i], comon.se[i]),
                ]
                for label, a, se_a, b, se_b in chain:
                    if a > b + 3.0 * math.hypot(se_a, se_b) + 1e-15:
                        failures.append(f"{name} {model}@{alpha}: {label} broken")
    _verdict(6, "AVaR ordering chain on all fixtures", failures)


def test_criterion_7_convex_order_suite():
    failures = []
    port = homogeneous_portfolio(100, 0.02, DeterministicLgd(0.1))
    n_samples = 100_000

    def sim(profiles, seed, borrowers=port):
        return simulate_losses(profiles, borrowers, n_samples, seed)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # (i) correlation interval endpoints
        verdict = check_cx_dominance(
            sim([gaussian_profile(0.12, 0.02)] * 100, 7001),
            sim([gaussian_profile(0.24, 0.02)] * 100, 7002),
        )
        if verdict != "dominates":
            failures.append(f"gaussian endpoints: {verdict}")
        # (ii) Clayton parameter endpoints
        th_lo = clayton_theta_matching_gaussian(0.12)
        th_hi = clayton_theta_matching_gaussian(0.24)
        verdict = check_cx_dominance(
            sim([clayton_profile(th_lo, 0.02)] * 100, 7003),
            sim([clayton_profile(th_hi, 0.02)] * 100, 7004),
        )
        if verdict != "dominates":
            failures.append(f"clayton endpoints: {verdict}")
        # (iii) hybrid-class lower bound against 20 random interior members
        rho = irb_correlation(0.02, 0.12, 0.24)
        env = envelope([
            gaussian_profile(rho, 0.02),
            clayton_profile(clayton_theta_matching_gaussian(rho), 0.02),
        ])
        lower_sample = sim([env.lower] * 100, 7005)
        s_grid = np.linspace(0.0, 1.0, 1001)
        g_lo, g_up = env.lower._g(s_grid), env.upper._g(s_grid)
        rng = np.random.default_rng(7006)
        for j in range(20):
            lam = rng.uniform(0.05, 0.95)
            member = GridProfile(lam * g_lo + (1.0 - lam) * g_up, 0.02)
            verdict = check_cx_dominance(lower_sample, sim([member] * 100, 7100 + j))
            if verdict != "dominates":
                failures.append(f"interior member {j} (lambda={lam:.2f}): {verdict}")
        # (iv) non-monotone conditional default curve vs its rearrangement
        port50 = homogeneous_portfolio(50, 0.02, DeterministicLgd(0.1))
        t = (np.arange(2000) + 0.5) / 2000
        curve = TabulatedPdCurve(0.02 * (1.0 + np.sin(2.0 * np.pi * t)))
        verdict = check_cx_dominance(
            sim([curve] * 50, 7200, borrowers=port50),
            sim([curve.rearranged_profile()] * 50, 7201, borrowers=port50),
        )
        if verdict != "dominates":
            failures.append(f"rearrangement: {verdict}")
    _verdict(7, "empirical convex-order dominance suite", failures)


def _integral_of_conditional(cop, u, v):
    from scipy.integrate import quad

    # adaptive: the conditional has unbounded slope as the condition tends to 0
    val, _ = quad(lambda s: cop.conditional(u, s), 0.0, v, limit=200)
    return val


def test_criterion_8_invariant_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(808)
    families = [
        Independence(),
        Comonotone(),
        Gaussian(0.405),
        Gaussian(0.9),
        Clayton(0.723),
        Clayton(3.0),
        SurvivalClayton(0.723),
    ]
    grid = np.sort(rng.uniform(0.0, 1.0, 32))
    for cop in families:
        c = cop.cdf(grid[:, None], grid[None, :])
        if not (
            np.max(np.abs(cop.cdf(grid, np.zeros_like(grid)))) <= 1e-12
            and np.max(np.abs(cop.cdf(grid, np.ones_like(grid)) - grid)) <= 1e-9
        ):
            failures.append(f"{cop!r}: margins")
        rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
        if rect.min() < -1e-9:
            failures.append(f"{cop!r}: 2-increasing")
        if not check_si(cop):
            failures.append(f"{cop!r}: SI")
    for cop in [Gaussian(0.405), Clayton(0.723), SurvivalClayton(0.723)]:
        for u, v in ((0.3, 0.6), (0.8, 0.4)):
            integral = _integral_of_conditional(cop, u, v)
            if abs(integral - cop.cdf(u, v)) > 1e-8:
                failures.append(f"{cop!r}: conditional/CDF consistency at ({u}, {v})")
    t = rng.uniform(1e-6, 1 - 1e-6, 2000)
    v = rng.uniform(1e-3, 1 - 1e-3, 2000)
    for cop, tol in ((Gaussian(0.405), 1e-10), (Clayton(0.723), 1e-10), (SurvivalClayton(0.723), 1e-8)):
        err = np.max(np.abs(cop.conditional(cop.inverse_conditional(t, v), v) - t))
        if err > tol:
            failures.append(f"{cop!r}: inverse round trip {err:.2e}")
    profiles = [
        IndependentProfile(0.02),
        ComonotoneProfile(0.02),
        gaussian_profile(0.12, 0.02),
        gaussian_profile(0.24, 0.02),
        clayton_profile(0.723, 0.02),
        survival_clayton_profile(0.723, 0.02),
        gaussian_profile(0.11, 0.848),
    ]
    for p in profiles:
        try:
            validate_profile(p)
        except ValueError as exc:
            failures.append(f"{type(p).__name__}({p.pd}): {exc}")
    s = np.linspace(0.0, 1.0, 1001)
    two_path = np.max(np.abs(
        gaussian_profile(0.165, 0.02)._g(s)
        - profile_from_copula(Gaussian(math.sqrt(0.165)), 0.02)._g(s)
    ))
    if two_path > 1e-9:
        failures.append(f"two-path profile identity: {two_path:.2e}")
    if not is_pointwise_leq(Gaussian(math.sqrt(0.12)), Gaussian(math.sqrt(0.24))):
        failures.append("gaussian parameter monotonicity")
    elapsed = time.perf_counter() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict(8, f"copula/profile invariant suite ({elapsed:.1f}s)", failures)


def test_criterion_9_parameter_resolution():
    failures = []
    rho = irb_correlation(0.02, 0.12, 0.24)
    if abs(rho - 0.1644) > 5e-4:
        failures.append(f"asset correlation at pd=2%: {rho:.6f}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        portfolio = load_portfolio_csv(
            FIXTURES / "idb_portfolio.csv", irb_bounds=(0.11, 0.27), corr_shift=0.05
        )
    for b in portfolio:
        ref_weight, ref_lo, ref_hi = IDB_REFERENCE[b.name]
        if abs(100.0 * b.exposure_weight - ref_weight) > 0.01:
            failures.append(f"{b.name}: weight {100 * b.exposure_weight:.3f} vs {ref_weight}")
        if abs(b.theta_interval[0] - ref_lo) > 0.01:
            failures.append(f"{b.name}: theta_lo {b.theta_interval[0]:.3f} vs {ref_lo}")
        if abs(b.theta_interval[1] - ref_hi) > 0.01:
            failures.append(f"{b.name}: theta_hi {b.theta_interval[1]:.3f} vs {ref_hi}")
    _verdict(9, "regulatory correlations and matched Clayton parameters", failures)
