"""Risk measures, stochastic-order diagnostics and the bound report.

The expected-shortfall estimator is the exact plug-in of the tail integral
of the empirical quantile function: the boundary order statistic gets a
fractional weight, so atoms are handled without the O(1/k) bias of a
naive top-k mean.  Confidence levels follow the reporting convention
(alpha = 0.95 averages the worst 5% of outcomes).  AVaR depends only on
that tail, and the tail of a higher level is part of the tail of a lower
one, so on an equally weighted Monte Carlo sample ``avar`` partitions out
the worst ceil((1 - alpha) n) + 1 draws at the lowest requested level,
sorts only those, and reads every level's tail as a slice of them; exact
(weighted) and pre-sorted samples use the whole sorted support.

``risk_report`` runs a scenario end to end: per-borrower profile bounds
for each requested model family, a lower- and an upper-bound simulation
per family plus the shared independence/comonotone benchmarks, AVaR at
every level with batch-means standard errors (one sorted tail per sample
and per batch), and a validity check of the ordering chain.  Each run is
reduced to those numbers as soon as it ends, so a report holds one loss
sample at a time.
Every simulation draws from the scenario seed and its own run id
(``model_runs``, shared with the oracle), so no two runs share a stream.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .portfolio import Scenario
from .profiles import MODELS, model_spec
from .simulate import (
    _N_BATCHES,
    LossSample,
    batch_standard_error,
    simulate_comonotone,
    simulate_independent,
    simulate_losses,
)

__all__ = [
    "ResultInvariantError",
    "avar",
    "var",
    "stop_loss_curve",
    "check_cx_dominance",
    "bound_profiles",
    "risk_report",
    "BoundRow",
    "BenchmarkRow",
    "RiskReport",
    "model_runs",
]

# a batch-means standard error of AVaR is noise when a batch's tail holds
# fewer draws than this
_MIN_TAIL_DRAWS = 10
# the ordering chain and the convex-order test allow this many pooled batch
# standard errors of slack
_SLACK_SE = 3.0


class ResultInvariantError(RuntimeError):
    """A computed report violates the ordering chain beyond tolerance."""


def _sorted_with_cum(sample: LossSample):
    s = sample.sorted()
    if s.weights is None:
        cum = np.arange(1, s.size + 1) / s.size
        total = 1.0
    else:
        cum = np.cumsum(s.weights)
        total = float(cum[-1])
    return s.losses, cum, total


def avar(sample: LossSample, confidence, *, in_place: bool = False):
    """Average Value-at-Risk: mean of the worst (1 - confidence) tail.

    Exact plug-in of the quantile-function integral over the empirical (or
    exact) distribution; positively homogeneous and translation-additive.
    ``confidence`` is one level, giving a float, or a sequence of levels,
    giving an array in the same order.  All levels read one sorted tail:
    each sums the same draws in the same order as a call at that level alone.
    An equally weighted sample's draws are partitioned in a copy, or with
    ``in_place`` in the sample itself, which only reorders them.
    """
    levels = np.asarray(confidence, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if sample.size == 0:
        raise ValueError("empty loss sample")
    alphas = [float(a) for a in levels.flat]
    n = sample.size
    if sample.weights is None and not sample.is_sorted:
        # only draws of rank >= floor(alpha * n) carry weight; one more below
        # keeps a float tie at the boundary weighted as in a full sort
        firsts = [max(math.floor(a * n) - 1, 0) for a in alphas]
        start = min(firsts)
        losses = sample.losses if in_place else sample.losses.copy()
        losses.partition(start)
        x = LossSample(losses[start:]).sorted().losses
        cum, prev, total = np.arange(start + 1, n + 1) / n, np.arange(start, n) / n, 1.0
    else:
        x, cum, total = _sorted_with_cum(sample)
        prev = np.concatenate([[0.0], cum[:-1]])
        firsts, start = [0] * len(alphas), 0
    # level i reads the draws from rank firsts[i] on; x starts at rank start
    values = []
    for alpha, first in zip(alphas, firsts):
        k, q = first - start, alpha * total
        overlap = np.clip(cum[k:] - np.maximum(prev[k:], q), 0.0, None)
        values.append(float((x[k:] * overlap).sum() / (total - q)))
    return values[0] if levels.ndim == 0 else np.array(values)


def var(sample: LossSample, confidence: float) -> float:
    """Empirical quantile (left-continuous generalized inverse)."""
    if not (0.0 < confidence < 1.0):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if sample.size == 0:
        raise ValueError("empty loss sample")
    x, cum, total = _sorted_with_cum(sample)
    # tiny relative slack so that exact-tie quantiles stay inclusive
    idx = int(np.searchsorted(cum, confidence * total * (1.0 - 1e-12), side="left"))
    return float(x[min(idx, x.size - 1)])


def stop_loss_curve(sample: LossSample, thresholds) -> np.ndarray:
    """E[(L - k)+] per threshold; decreasing and convex in the threshold."""
    ks = np.asarray(thresholds, dtype=float)
    if np.any(np.diff(ks) < 0.0):
        raise ValueError("thresholds must be sorted ascending")
    s = sample.sorted()
    x = s.losses
    w = s.weights if s.weights is not None else np.full(x.size, 1.0 / x.size)
    suffix_w = np.concatenate([np.cumsum(w[::-1])[::-1], [0.0]])
    suffix_xw = np.concatenate([np.cumsum((w * x)[::-1])[::-1], [0.0]])
    idx = np.searchsorted(x, ks, side="right")
    return suffix_xw[idx] - ks * suffix_w[idx]


def check_cx_dominance(a: LossSample, b: LossSample, thresholds=None) -> str:
    """Empirical convex-order test: is a <=_cx b?

    Returns ``"dominates"`` when every stop-loss value of ``a`` stays below
    that of ``b`` within a slack band of three pooled batch standard errors
    and the means agree within the same band, ``"violates"`` when some
    threshold exceeds the band the wrong way, and ``"indistinguishable"``
    otherwise.  Statistical evidence, not proof.
    """
    # the batch statistics below read the draws in simulation order
    sorted_a, sorted_b = a.sorted(), b.sorted()
    if thresholds is None:
        hi = max(var(sorted_a, 0.9999), var(sorted_b, 0.9999))
        thresholds = np.linspace(0.0, hi if hi > 0 else 1.0, 101)
    ks = np.asarray(thresholds, dtype=float)

    def curve(s):
        return stop_loss_curve(s, ks)

    band = _SLACK_SE * np.hypot(batch_standard_error(a, curve), batch_standard_error(b, curve)) + 1e-15
    diff = curve(sorted_a) - curve(sorted_b)

    se_mean = math.hypot(
        batch_standard_error(a, LossSample.mean), batch_standard_error(b, LossSample.mean)
    )
    means_match = abs(a.mean() - b.mean()) <= _SLACK_SE * se_mean + 1e-15

    if np.any(diff > band):
        return "violates"
    if means_match:
        return "dominates"
    return "indistinguishable"


def bound_profiles(model: str, borrowers, point_copulas=None):
    """Per-borrower (lower, upper) default profiles for a model family.

    The lower profile is the pointwise-max default integral function (the
    least risky member: low correlation / low theta); the upper profile is
    the pointwise min.  The hybrid family takes the envelope of the
    Gaussian and Clayton point models, which generally requires the convex
    repair of the pointwise min.  A degenerate family, whose upper profiles
    are the lower model, returns the lower list itself as the upper one, and
    ``model_runs`` plans no upper runs for it.
    """
    spec = model_spec(model)
    firsts, owners = spec.shared(borrowers, point_copulas)
    bounds = {i: spec.bounds(b, c) for i, (b, c) in firsts.items()}
    lowers = [bounds[i][0] for i in owners]
    uppers = [bounds[i][1] for i in owners]
    if all(lo.group_key() == up.group_key() for lo, up in zip(lowers, uppers)):
        return lowers, lowers
    return lowers, uppers


def model_runs(scenario: Scenario):
    """(model, side, run id, profiles) per bound simulation, in run order:
    side j of the k-th model is run 2 + 2k + j (runs 0 and 1 are the
    benchmarks), and a degenerate family has no upper side."""
    for k, model in enumerate(scenario.models):
        lowers, uppers = bound_profiles(model, scenario.borrowers, scenario.point_copulas)
        yield model, "lower", 2 + 2 * k, lowers
        if uppers is not lowers:
            yield model, "upper", 3 + 2 * k, uppers


@dataclass(frozen=True)
class BoundRow:
    """AVaR bounds of one model family at one confidence level."""

    model: str
    alpha: float
    avar_lower: float
    avar_upper: float
    se_lower: float
    se_upper: float


@dataclass(frozen=True)
class BenchmarkRow:
    """Independence/comonotone benchmark AVaR at one confidence level."""

    alpha: float
    avar_indep: float
    avar_comon: float
    se_indep: float
    se_comon: float


@dataclass(frozen=True)
class RiskReport:
    """Scenario results ready for serialization."""

    scenario_label: str
    models: tuple
    alphas: tuple
    rows: tuple  # BoundRow, ordered by (model, alpha)
    benchmarks: tuple  # BenchmarkRow, ordered by alpha
    samples: int
    seed: int
    # one {"run", "groups", "singleton_groups", "exact_pd_share"} dict per
    # simulation run, in run order, as meta.json's "pooled_groups" lists them
    pooling: tuple = ()

    def row(self, model: str, alpha: float) -> BoundRow:
        for r in self.rows:
            if (r.model, r.alpha) == (model, alpha):
                return r
        raise KeyError((model, alpha))

    def benchmark(self, alpha: float) -> BenchmarkRow:
        for r in self.benchmarks:
            if r.alpha == alpha:
                return r
        raise KeyError(alpha)

    def chain_links(self):
        """(model, alpha, a, b) per ordering-chain link a <= b, in row order;
        a and b are (name, AVaR, SE)."""
        for r in self.rows:
            bench = self.benchmark(r.alpha)
            chain = [
                ("independent", bench.avar_indep, bench.se_indep),
                ("lower", r.avar_lower, r.se_lower),
                ("upper", r.avar_upper, r.se_upper),
                ("comonotone", bench.avar_comon, bench.se_comon),
            ]
            for a, b in zip(chain, chain[1:]):
                yield r.model, r.alpha, a, b

    def chain_margins(self) -> list:
        """One {model, alpha, link, margin_se} per chain link a <= b: AVaR_b -
        AVaR_a in pooled standard errors, None where both are 0."""
        return [
            {"model": model, "alpha": alpha, "link": f"{name_a}<={name_b}",
             "margin_se": (val_b - val_a) / math.hypot(se_a, se_b) if se_a or se_b else None}
            for model, alpha, (name_a, val_a, se_a), (name_b, val_b, se_b) in self.chain_links()
        ]

    def to_csv(self) -> str:
        out = StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["scenario", "model", "alpha", "avar_lower", "avar_upper", "avar_indep",
             "avar_comon", "se_lower", "se_upper", "se_indep", "se_comon"]
        )
        for r in self.rows:
            bench = self.benchmark(r.alpha)
            values = (r.alpha, r.avar_lower, r.avar_upper, bench.avar_indep, bench.avar_comon,
                      r.se_lower, r.se_upper, bench.se_indep, bench.se_comon)
            writer.writerow([self.scenario_label, r.model, *map(repr, values)])
        return out.getvalue()

    def to_text(self) -> str:
        def pct(x: float) -> str:
            return f"{100.0 * x:.2f}"

        out = StringIO()
        out.write(
            f"{self.scenario_label}: AVaR bounds in % of total exposure "
            f"({self.samples} samples, seed {self.seed})\n"
        )
        header1 = f"{'':>8}"
        header2 = f"{'alpha':>8}"
        for m in self.models:
            header1 += f"{MODELS[m].label:>22}"
            header2 += f"{'lower':>11}{'upper':>11}"
        header1 += f"{'':>22}"
        header2 += f"{'indep':>11}{'comon':>11}"
        out.write(header1 + "\n" + header2 + "\n")
        for alpha in self.alphas:
            line = f"{100 * alpha:>7.0f}%"
            for m in self.models:
                r = self.row(m, alpha)
                line += f"{pct(r.avar_lower):>11}{pct(r.avar_upper):>11}"
            bench = self.benchmark(alpha)
            line += f"{pct(bench.avar_indep):>11}{pct(bench.avar_comon):>11}"
            out.write(line + "\n")
        return out.getvalue()


def _avar_with_se(sample: LossSample, alphas) -> tuple[list, list]:
    """AVaR per level and its batch standard errors, from one sorted tail per
    sample and batch, reordering the draws of the sample, which is the
    caller's to give up: each batch is partitioned in place first, moving
    draws only inside it, and then the whole sample, so no copy of it is made."""
    se = batch_standard_error(sample, lambda s: avar(s, alphas, in_place=True))
    values = avar(sample, alphas, in_place=True)
    return values.tolist(), np.broadcast_to(se, values.shape).tolist()


def _tail_draws_per_batch(samples: int, alpha: float) -> int:
    return math.floor(samples / _N_BATCHES * (1.0 - alpha))


def _warn_thin_tails(samples: int, alphas) -> None:
    for alpha in alphas:
        draws = _tail_draws_per_batch(samples, alpha)
        if draws < _MIN_TAIL_DRAWS:
            needed = math.ceil(_MIN_TAIL_DRAWS * _N_BATCHES / (1.0 - alpha))
            while _tail_draws_per_batch(needed, alpha) < _MIN_TAIL_DRAWS:
                needed += 1  # float rounding of the division above
            warnings.warn(
                f"alpha {alpha}: {draws} tail draws per standard-error batch, fewer than "
                f"{_MIN_TAIL_DRAWS}; a batch standard error needs --samples {needed} or more",
                stacklevel=3,
            )


def _check_chain(report: RiskReport) -> None:
    for model, alpha, (name_a, val_a, se_a), (name_b, val_b, se_b) in report.chain_links():
        slack = _SLACK_SE * math.hypot(se_a, se_b) + 1e-15
        if val_a > val_b + slack:
            raise ResultInvariantError(
                f"{report.scenario_label}, model {model}, alpha {alpha}: "
                f"AVaR({name_a}) = {val_a:.6f} exceeds AVaR({name_b}) = {val_b:.6f} "
                f"beyond {_SLACK_SE:g} pooled standard errors"
            )


def risk_report(scenario: Scenario) -> RiskReport:
    """Simulate a scenario and assemble its AVaR bound report.

    Each run is reduced to its pooling, AVaR and standard errors as soon as
    it ends, and its sample is dropped before the next run draws."""
    borrowers = scenario.borrowers
    mc = scenario.mc
    _warn_thin_tails(mc.samples, scenario.alphas)

    alphas = scenario.alphas
    pooling = []

    def summary(run: str, sample: LossSample) -> tuple[list, list]:
        sizes = sample.group_sizes
        pooling.append({"run": run, "groups": len(sizes), "singleton_groups": sizes.count(1),
                        "exact_pd_share": sample.exact_pd_share})
        return _avar_with_se(sample, alphas)

    ai, si = summary("independent", simulate_independent(borrowers, mc.samples, mc.seed, mc.workers, run=0))
    ac, sc = summary("comonotone", simulate_comonotone(borrowers, mc.samples, mc.seed, mc.workers, run=1))
    benchmarks = [BenchmarkRow(*row) for row in zip(alphas, ai, ac, si, sc)]

    # (AVaR, SE) per model and side; binding the sample to a name would keep
    # it alive while the next run draws
    results = {
        (model, side): summary(
            f"{model} {side}",
            simulate_losses(profiles, borrowers, mc.samples, mc.seed, mc.workers, run),
        )
        for model, side, run, profiles in model_runs(scenario)
    }
    rows = []
    for model in scenario.models:
        # a degenerate family's upper side is its lower one
        lo = results[model, "lower"]
        (alo, slo), (aup, sup) = lo, results.get((model, "upper"), lo)
        rows.extend(BoundRow(model, *row) for row in zip(alphas, alo, aup, slo, sup))

    report = RiskReport(
        scenario_label=scenario.label,
        models=tuple(scenario.models),
        alphas=tuple(scenario.alphas),
        rows=tuple(rows),
        benchmarks=tuple(benchmarks),
        samples=mc.samples,
        seed=mc.seed,
        pooling=tuple(pooling),
    )
    _check_chain(report)
    return report
