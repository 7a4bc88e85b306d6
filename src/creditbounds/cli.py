"""Command-line front end: bound tables, profile curves, validation, oracle checks.

Subcommands::

    creditbounds bounds   --scenario s.json --out dir   # AVaR bound report
    creditbounds curves   --scenario s.json --out dir   # default-profile curves
    creditbounds validate --scenario s.json             # resolve and print parameters
    creditbounds oracle   --scenario s.json --out dir   # exact vs MC distribution check

Exit codes: 0 success, 1 configuration or I/O error, 2 result-invariant
violation (the computed ordering chain is broken beyond tolerance).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import platform
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

from . import __version__
from ._floatrepr import repr_rows
from .portfolio import ConfigError, DeterministicLgd, Scenario, load_scenario
from .profiles import MODELS, curve_table
from .risk import ResultInvariantError, bound_profiles, model_runs, risk_report
from .simulate import dkw_epsilon, exact_loss_distribution, simulate_losses, sup_cdf_distance


def _add_common(parser: argparse.ArgumentParser, needs_out: bool, mc_overrides: bool = True) -> None:
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    if needs_out:
        parser.add_argument("--out", required=True, help="output directory")
    if mc_overrides:
        parser.add_argument("--samples", type=int, default=None, help="override MC sample count")
        parser.add_argument("--seed", type=int, default=None, help="override MC seed")
        parser.add_argument("--workers", type=int, default=None, help="override worker count")


def _resolve_scenario(args) -> Scenario:
    scenario = load_scenario(args.scenario)
    mc = scenario.mc
    try:
        mc = dataclasses.replace(
            mc,
            samples=args.samples if args.samples is not None else mc.samples,
            seed=args.seed if args.seed is not None else mc.seed,
            workers=args.workers if args.workers is not None else mc.workers,
        )
    except ValueError as exc:
        raise ConfigError(f"mc override: {exc}") from None
    return dataclasses.replace(scenario, mc=mc)


def _config_hash(scenario: Scenario, **settings) -> str:
    """Hash of the scenario and of any other ``settings`` that change the
    outputs (the oracle's ``quad_nodes``)."""
    canonical = json.dumps(
        {
            "label": scenario.label,
            "models": scenario.models,
            "alphas": scenario.alphas,
            # worker count never changes results
            "mc": {"samples": scenario.mc.samples, "seed": scenario.mc.seed},
            "point_copulas": [repr(c) for c in scenario.point_copulas or ()],
            "borrowers": [
                (b.name, b.pd, b.exposure_weight, repr(b.lgd), b.corr_interval, b.corr_point)
                for b in scenario.borrowers
            ],
            **settings,
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_meta(out_dir: Path, scenario: Scenario, wall_time: float, extra: dict, **settings) -> None:
    meta = {
        "version": __version__,
        "config_hash": _config_hash(scenario, **settings),
        "label": scenario.label,
        "models": list(scenario.models),
        "alphas": list(scenario.alphas),
        "samples": scenario.mc.samples,
        "seed": scenario.mc.seed,
        "workers": scenario.mc.workers,
        "wall_time_s": round(wall_time, 3),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
        },
    }
    meta.update(settings)
    meta.update(extra)
    # strict JSON: callers give a value that is not a finite number as None
    # (null), and a NaN or infinity left over raises here
    text = json.dumps(meta, indent=2, allow_nan=False)
    (out_dir / "meta.json").write_text(text + "\n", encoding="utf-8")


@contextlib.contextmanager
def _recorded_warnings():
    """Record the warnings of the block, then issue them again under the
    caller's filters, as if never recorded; fills the yielded list with one
    {category, message, count} entry per distinct warning."""
    fired = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield fired
    finally:
        registry = {}
        for w in caught:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, registry=registry)
        counts = Counter((w.category.__name__, str(w.message)) for w in caught)
        fired.extend({"category": c, "message": m, "count": n} for (c, m), n in counts.items())


def _finite(x):
    """``x``, with a float that is not a finite number as None (null), item
    by item in a tuple."""
    if isinstance(x, tuple):
        return [_finite(v) for v in x]
    return None if isinstance(x, float) and not math.isfinite(x) else x


def cmd_bounds(args) -> int:
    out_dir = Path(args.out)
    with _recorded_warnings() as fired:
        scenario = _resolve_scenario(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        report = risk_report(scenario)
        wall = time.perf_counter() - start
    (out_dir / "report.csv").write_text(report.to_csv(), encoding="utf-8")
    (out_dir / "report.txt").write_text(report.to_text(), encoding="utf-8")
    # RunResult is the schema of a run: its fields are written as they are
    runs = [{k: _finite(v) for k, v in dataclasses.asdict(r).items()} for r in report.runs]
    _write_meta(
        out_dir, scenario, wall,
        {"runs": runs, "chain_margins": report.chain_margins(), "warnings": fired},
    )
    sys.stdout.write(report.to_text())
    return 0


def cmd_curves(args) -> int:
    scenario = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for model in scenario.models:
        spec = MODELS[model]
        firsts, _ = spec.shared(scenario.borrowers, scenario.point_copulas)
        lowers, uppers = bound_profiles(model, scenario.borrowers, scenario.point_copulas)
        lines = ["borrower,s,g_lower,g_point,g_upper,pd_lower,pd_point,pd_upper"]
        for i, (b, c) in firsts.items():
            s, g_lo, p_lo = curve_table(lowers[i])
            _, g_pt, p_pt = curve_table(spec.point(b, c))
            _, g_up, p_up = curve_table(uppers[i])
            for row in zip(s, g_lo, g_pt, g_up, p_lo, p_pt, p_up):
                lines.append(b.name + "," + ",".join(repr(float(v)) for v in row))
        (out_dir / f"curves_{model}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote curves_{model}.csv\n")
    return 0


def _lgd_text(lgd) -> str:
    if isinstance(lgd, DeterministicLgd):
        return f"deterministic {lgd.value:g}"
    a, b = lgd.shape
    return f"beta mean={lgd.mean_:g} vol={lgd.vol:g} (a={a:.6g}, b={b:.6g})"


def cmd_validate(args) -> int:
    scenario = _resolve_scenario(args)
    w = sys.stdout.write
    w(f"scenario {scenario.label!r}: {len(scenario.borrowers)} borrowers, "
      f"models {', '.join(scenario.models)}, alphas {list(scenario.alphas)}\n")
    w(f"mc: samples={scenario.mc.samples} seed={scenario.mc.seed} workers={scenario.mc.workers}\n")
    w(f"{'name':24}{'pd':>10}{'weight':>10}{'corr_lo':>9}{'corr':>9}{'corr_hi':>9}"
      f"{'th_lo':>8}{'theta':>8}{'th_hi':>8}  lgd\n")
    for b in scenario.borrowers[:40]:
        w(
            f"{b.name:24}{b.pd:>10.6f}{b.exposure_weight:>10.6f}"
            f"{b.corr_interval[0]:>9.4f}{b.corr_point:>9.4f}{b.corr_interval[1]:>9.4f}"
            f"{b.theta_interval[0]:>8.4f}{b.theta_point:>8.4f}{b.theta_interval[1]:>8.4f}"
            f"  {_lgd_text(b.lgd)}\n"
        )
    if len(scenario.borrowers) > 40:
        w(f"... {len(scenario.borrowers) - 40} more identical-format rows\n")
    return 0


# rows per write of an exact_*.csv, so that no whole file body is ever held
_CSV_BLOCK_ROWS = 4096


def _write_exact_csv(path: Path, losses: np.ndarray, weights: np.ndarray) -> None:
    """Write ``loss,probability`` rows, each ``f"{x!r},{p!r}"`` with LF line
    ends, a block at a time, formatted by the vectorised ``repr``."""
    with open(path, "wb") as fh:
        fh.write(b"loss,probability\n")
        for i in range(0, len(losses), _CSV_BLOCK_ROWS):
            j = i + _CSV_BLOCK_ROWS
            fh.write(repr_rows(losses[i:j], weights[i:j]))


def cmd_oracle(args) -> int:
    out_dir = Path(args.out)
    rows = ["model,side,samples,sup_distance,dkw_epsilon,pass"]
    exact_rows = []
    all_pass = True
    with _recorded_warnings() as fired:
        scenario = _resolve_scenario(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        for model, side, run, profiles in model_runs(scenario):
            t0 = time.perf_counter()
            try:
                exact = exact_loss_distribution(profiles, scenario.borrowers, args.quad_nodes)
            except ValueError as exc:
                raise ConfigError(f"oracle check: {exc}") from None
            t1 = time.perf_counter()
            mc = simulate_losses(
                profiles, scenario.borrowers, scenario.mc.samples, scenario.mc.seed, scenario.mc.workers, run
            )
            t2 = time.perf_counter()
            dist = sup_cdf_distance(mc, exact)
            eps = dkw_epsilon(scenario.mc.samples)
            ok = dist <= eps
            all_pass &= ok
            rows.append(f"{model},{side},{scenario.mc.samples},{dist!r},{eps!r},{ok}")
            t3 = time.perf_counter()
            _write_exact_csv(out_dir / f"exact_{model}_{side}.csv", exact.losses, exact.weights)
            exact_rows.append({
                "model": model,
                "side": side,
                "support": exact.size,
                "weight_sum_error": abs(float(exact.weights.sum()) - 1.0),
                "exact_s": round(t1 - t0, 3),
                "mc_s": round(t2 - t1, 3),
                "write_s": round(time.perf_counter() - t3, 3),
            })
            # one exact distribution and one sample alive at a time
            del exact, mc
        wall = time.perf_counter() - start
    (out_dir / "oracle_report.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    _write_meta(
        out_dir, scenario, wall, {"exact": exact_rows, "warnings": fired}, quad_nodes=args.quad_nodes
    )
    sys.stdout.write("\n".join(rows) + "\n")
    return 0 if all_pass else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="creditbounds",
        description="Credit portfolio AVaR bounds under dependence uncertainty",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="simulate a scenario and write the bound report")
    _add_common(p_bounds, needs_out=True)
    p_bounds.set_defaults(fn=cmd_bounds)

    p_curves = sub.add_parser("curves", help="export default-profile curves as CSV")
    _add_common(p_curves, needs_out=True, mc_overrides=False)
    p_curves.set_defaults(fn=cmd_curves)

    p_validate = sub.add_parser("validate", help="parse and print resolved parameters")
    _add_common(p_validate, needs_out=False)
    p_validate.set_defaults(fn=cmd_validate)

    p_oracle = sub.add_parser("oracle", help="compare MC against the exact distribution")
    _add_common(p_oracle, needs_out=True)
    p_oracle.add_argument("--quad-nodes", type=int, default=256, help="factor quadrature nodes")
    p_oracle.set_defaults(fn=cmd_oracle)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except ResultInvariantError as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
