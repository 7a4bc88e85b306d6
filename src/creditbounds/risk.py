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
(weighted) and pre-sorted samples use the whole sorted support.  A tail
(``LossSample``), which holds only those worst draws of its sample and of
each batch, gives the same values by the same arithmetic.

``risk_report`` runs a scenario end to end, one loop over one plan: the
independence and comonotone benchmarks as runs 0 and 1, then a lower- and
an upper-bound simulation per requested model family (``model_runs``,
shared with the oracle; a degenerate family has no upper run), all through
``simulate_losses``.  Each run keeps only the tail its lowest level reads
(``simulate_losses(..., tail=...)``), and is reduced as soon as it ends to
one ``RunResult``: AVaR at every level with batch-means standard errors
(one sorted tail per sample and per batch, each read from the kept draws),
how many draws it kept, its pooling and its timings, so a report never
holds a loss sample.  Everything the report writes and
checks, the ordering chain included, reads those records.
Every simulation draws from the scenario seed and its own run id, so no
two runs share a stream.
"""

from __future__ import annotations

import csv
import itertools
import math
import time
import warnings
from dataclasses import dataclass
from io import StringIO

import numpy as np

from .portfolio import Scenario
from .profiles import MODELS, ComonotoneProfile, IndependentProfile, model_spec
from .simulate import _N_BATCHES, LossSample, _tail_start, batch_standard_error, simulate_losses

# not called here: perfbench's span tracer (perfbench/spans.py) looks both
# names up on this module
from .simulate import simulate_comonotone, simulate_independent  # noqa: F401

__all__ = [
    "ResultInvariantError",
    "avar",
    "var",
    "stop_loss_curve",
    "check_cx_dominance",
    "bound_profiles",
    "risk_report",
    "RunResult",
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
    An equally weighted sample's draws are partitioned and its tail sorted
    in a copy, or with ``in_place`` in the sample itself, which only
    reorders them.  A tail answers only levels whose draws it kept, and
    raises ValueError for a lower one.
    """
    levels = np.asarray(confidence, dtype=float)
    if not np.all((levels > 0.0) & (levels < 1.0)):
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if sample.size == 0:
        raise ValueError("empty loss sample")
    alphas = [float(a) for a in levels.flat]
    n = sample.size
    if sample.weights is None and not sample.is_sorted:
        firsts = [_tail_start(n, a) for a in alphas]
        start = min(firsts, default=n - 1)  # no level reads a draw
        # a tail holds the draws of rank >= dropped
        dropped = n - sample.losses.size
        if start < dropped:
            raise ValueError(f"the tail of {n} draws kept too few for confidence {confidence}")
        losses = sample.losses if in_place else sample.losses.copy()
        losses.partition(start - dropped)
        x = LossSample(losses[start - dropped:]).sorted(in_place=True).losses
        # the weights below each draw from rank start on, and below the next
        steps = np.arange(start, n + 1, dtype=float)
        steps /= n
        total = 1.0
    else:
        x, cum, total = _sorted_with_cum(sample)
        steps = np.concatenate([[0.0], cum])
        firsts, start = [0] * len(alphas), 0
    prev, cum = steps[:-1], steps[1:]
    # level i reads the draws from rank firsts[i] on; x starts at rank start.
    # One buffer holds each level's weighted draws, in place
    buf = np.empty(x.size)
    values = []
    for alpha, first in zip(alphas, firsts):
        k, q = first - start, alpha * total
        w = buf[:x.size - k]
        np.maximum(prev[k:], q, out=w)
        np.subtract(cum[k:], w, out=w)
        np.clip(w, 0.0, None, out=w)
        w *= x[k:]
        values.append(float(w.sum() / (total - q)))
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


def check_cx_dominance(a: LossSample, b: LossSample) -> str:
    """Empirical convex-order test: is a <=_cx b?

    Returns ``"dominates"`` when every stop-loss value of ``a``, at 101
    thresholds from 0 to the larger 99.99 % VaR, stays below that of ``b``
    within a slack band of three pooled batch standard errors and the means
    agree within the same band, ``"violates"`` when some threshold exceeds
    the band the wrong way, and ``"indistinguishable"`` otherwise.
    Statistical evidence, not proof.
    """
    # the batch statistics below read the draws in simulation order
    sorted_a, sorted_b = a.sorted(), b.sorted()
    hi = max(var(sorted_a, 0.9999), var(sorted_b, 0.9999))
    ks = np.linspace(0.0, hi if hi > 0 else 1.0, 101)

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


_CHAIN = ("independent", "lower", "upper", "comonotone")


@dataclass(frozen=True)
class RunResult:
    """One simulation of a report: its AVaR and batch standard error per
    level, in the report's alpha order, its pooling and its timings."""

    name: str  # "independent", "comonotone" or "<model> <side>"
    avar: tuple
    se: tuple
    groups: int
    singleton_groups: int
    exact_pd_share: float | None
    # the draws the run kept for its AVaR: its samples where it kept them all
    kept_draws: int
    simulate_s: float
    avar_s: float


@dataclass(frozen=True)
class RiskReport:
    """Scenario results ready for serialization."""

    scenario_label: str
    models: tuple
    alphas: tuple
    runs: tuple  # RunResult per simulation, in run order
    samples: int
    seed: int

    def chain(self, model: str) -> tuple:
        """The records of a model's ordering chain: independent, lower, upper,
        comonotone.  A degenerate family's upper side reads its lower run."""
        runs = {r.name: r for r in self.runs}
        lower = runs[f"{model} lower"]
        return runs["independent"], lower, runs.get(f"{model} upper", lower), runs["comonotone"]

    def chain_links(self):
        """(model, alpha, a, b, se) per ordering-chain link a <= b, by model
        and then alpha; a and b are (name, AVaR) and se is their pooled
        standard error."""
        for model in self.models:
            chain = self.chain(model)
            for i, alpha in enumerate(self.alphas):
                for (name_a, a), (name_b, b) in itertools.pairwise(zip(_CHAIN, chain)):
                    se = math.hypot(a.se[i], b.se[i])
                    yield model, alpha, (name_a, a.avar[i]), (name_b, b.avar[i]), se

    def chain_margins(self) -> list:
        """One {model, alpha, link, margin_se} per chain link a <= b: AVaR_b -
        AVaR_a in pooled standard errors, None where that is not a finite
        number (both standard errors 0, or none for want of samples)."""
        margins = []
        for model, alpha, (name_a, val_a), (name_b, val_b), se in self.chain_links():
            margin = (val_b - val_a) / se if se else math.nan
            margins.append({"model": model, "alpha": alpha, "link": f"{name_a}<={name_b}",
                            "margin_se": margin if math.isfinite(margin) else None})
        return margins

    def to_csv(self) -> str:
        out = StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["scenario", "model", "alpha", "avar_lower", "avar_upper", "avar_indep",
             "avar_comon", "se_lower", "se_upper", "se_indep", "se_comon"]
        )
        for model in self.models:
            indep, lower, upper, comon = self.chain(model)
            for i, alpha in enumerate(self.alphas):
                values = (alpha, lower.avar[i], upper.avar[i], indep.avar[i], comon.avar[i],
                          lower.se[i], upper.se[i], indep.se[i], comon.se[i])
                writer.writerow([self.scenario_label, model, *map(repr, values)])
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
        chains = [self.chain(m) for m in self.models]
        indep, _, _, comon = chains[0]
        for i, alpha in enumerate(self.alphas):
            line = f"{100 * alpha:>7.0f}%"
            for _, lower, upper, _ in chains:
                line += f"{pct(lower.avar[i]):>11}{pct(upper.avar[i]):>11}"
            line += f"{pct(indep.avar[i]):>11}{pct(comon.avar[i]):>11}"
            out.write(line + "\n")
        return out.getvalue()


def _avar_with_se(sample: LossSample, alphas) -> tuple[tuple, tuple]:
    """AVaR per level and its batch standard errors, from one sorted tail per
    sample and batch, reordering the draws of the sample, which is the
    caller's to give up: each batch is partitioned in place first, moving
    draws only inside it, and then the whole sample, so no copy of it is made."""
    se = batch_standard_error(sample, lambda s: avar(s, alphas, in_place=True))
    values = avar(sample, alphas, in_place=True)
    return tuple(values.tolist()), tuple(np.broadcast_to(se, values.shape).tolist())


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
    for model, alpha, (name_a, val_a), (name_b, val_b), se in report.chain_links():
        slack = _SLACK_SE * se + 1e-15
        if math.isnan(slack):  # fewer samples than batches: no standard error, no slack bound
            slack = math.inf
        # written so that a NaN AVaR fails too
        if not val_a <= val_b + slack:
            relation = "is not ordered with" if math.isnan(val_a - val_b) else "exceeds"
            raise ResultInvariantError(
                f"{report.scenario_label}, model {model}, alpha {alpha}: "
                f"AVaR({name_a}) = {val_a:.6f} {relation} AVaR({name_b}) = {val_b:.6f} "
                f"beyond {_SLACK_SE:g} pooled standard errors"
            )


def _run_result(scenario: Scenario, name: str, run: int, profiles) -> RunResult:
    """Simulate one run and reduce it to its record; its sample is dropped on
    return, before the next run draws."""
    mc = scenario.mc
    start = time.perf_counter()
    # read from the module globals when called, so that a tracer that
    # replaces simulate_losses sees every run
    sample = simulate_losses(
        profiles, scenario.borrowers, mc.samples, mc.seed, mc.workers, run, tail=min(scenario.alphas)
    )
    simulated = time.perf_counter()
    sizes = sample.group_sizes
    values, ses = _avar_with_se(sample, scenario.alphas)
    return RunResult(name, values, ses, len(sizes), sizes.count(1), sample.exact_pd_share,
                     sample.losses.size, round(simulated - start, 3),
                     round(time.perf_counter() - simulated, 3))


def _report_plan(scenario: Scenario):
    """(name, run id, profiles) per simulation of a report, in run order: the
    benchmarks, then the bound runs; each run's profiles are built when it
    is reached."""
    borrowers = scenario.borrowers
    yield "independent", 0, [IndependentProfile(b.pd) for b in borrowers]
    yield "comonotone", 1, [ComonotoneProfile(b.pd) for b in borrowers]
    for model, side, run, profiles in model_runs(scenario):
        yield f"{model} {side}", run, profiles


def risk_report(scenario: Scenario) -> RiskReport:
    """Simulate a scenario and assemble its AVaR bound report: the
    independence and comonotone benchmarks as runs 0 and 1, then every bound
    run of ``model_runs``, one record per run in that order."""
    _warn_thin_tails(scenario.mc.samples, scenario.alphas)
    report = RiskReport(
        scenario_label=scenario.label,
        models=tuple(scenario.models),
        alphas=tuple(scenario.alphas),
        runs=tuple(_run_result(scenario, *step) for step in _report_plan(scenario)),
        samples=scenario.mc.samples,
        seed=scenario.mc.seed,
    )
    _check_chain(report)
    return report
