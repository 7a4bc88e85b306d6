"""Seeded Monte Carlo engine for portfolio losses, plus an exact loss-distribution oracle.

Draws are organized in fixed-size chunks; each chunk owns a Philox
(counter-based) generator keyed by the global seed and the chunk index, so
results are bit-identical for a given (seed, samples) no matter how many
worker threads execute the chunks.

Borrowers that share a profile, an LGD specification and an exposure
weight are pooled: conditionally on the factor their default count is
binomial, which is what makes million-sample runs over thousand-loan
portfolios cheap without changing the loss distribution.  A group of one
borrower (every IDB borrower, say) is a single Bernoulli draw: it takes
one uniform compare that replays numpy's ``binomial(1, p)`` draw for draw,
so it consumes the same uniforms and keeps every stream.  Every group's
conditional default probability reads one shared ``Factor`` per chunk (per
quadrature batch on the exact path), so each factor transform runs once.

The exact path integrates the product of the groups' conditional binomial
pmfs over the factor.  It splits the pooled groups into a prefix A and a
suffix B of about equal combination counts and contracts the quadrature
with one matrix product, weights[a, b] = sum_q w_q P_A[q, a] P_B[q, b], so
no (nodes x support) array is ever built.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .copulas import Factor
from .portfolio import DeterministicLgd
from .profiles import ComonotoneProfile, IndependentProfile

__all__ = [
    "LossSample",
    "simulate_losses",
    "simulate_independent",
    "simulate_comonotone",
    "exact_loss_distribution",
    "batch_standard_error",
    "sup_cdf_distance",
    "dkw_epsilon",
]

_CHUNK = 1 << 14
_MAX_EXACT_SUPPORT = 2**20
_N_BATCHES = 20
_DKW_CONFIDENCE = 0.999


@dataclass(frozen=True, eq=False)
class LossSample:
    """Portfolio losses as fractions of total exposure.

    Monte Carlo samples carry equally likely draws (``weights is None``)
    and the sizes of the pooled groups that drew them; exact distributions
    carry support points with probabilities.
    """

    losses: np.ndarray
    weights: np.ndarray | None = None
    is_sorted: bool = False
    group_sizes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
            if self.weights.shape != self.losses.shape:
                raise ValueError("weights must match losses in shape")

    @property
    def size(self) -> int:
        return self.losses.size

    def sorted(self) -> "LossSample":
        if self.is_sorted:
            return self
        if self.weights is None:
            return LossSample(np.sort(self.losses), is_sorted=True)
        order = np.argsort(self.losses, kind="stable")
        return LossSample(self.losses[order], self.weights[order], is_sorted=True)

    def mean(self) -> float:
        if self.weights is None:
            return float(self.losses.mean())
        return float(self.losses @ self.weights / self.weights.sum())


@dataclass(frozen=True)
class _Group:
    """Borrowers pooled for conditional-binomial sampling."""

    n: int
    weight: float
    pd: float
    lgd: object
    profile: object


def _pool(borrowers, profiles):
    keyed = {}
    for b, p in zip(borrowers, profiles):
        key = (p.group_key(), b.lgd, b.exposure_weight, b.pd)
        if key not in keyed:
            keyed[key] = [0, b, p]
        keyed[key][0] += 1
    return [
        _Group(n=c, weight=b.exposure_weight, pd=b.pd, lgd=b.lgd, profile=p)
        for c, b, p in keyed.values()
    ]


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.Philox(ss))


def _lgd_total(rng, lgd, counts: np.ndarray) -> np.ndarray:
    """Sum of iid LGD draws per scenario, given default counts."""
    if isinstance(lgd, DeterministicLgd):
        return lgd.value * counts
    total = int(counts.sum())
    if total == 0:
        return np.zeros(counts.size)
    draws = lgd.draw(rng, total)
    idx = np.repeat(np.arange(counts.size), counts)
    return np.bincount(idx, weights=draws, minlength=counts.size)


def _bernoulli(rng, p, m: int) -> np.ndarray:
    """m Bernoulli(p) draws, p a scalar or an (m,) array in [0, 1], that equal
    ``rng.binomial(1, p, size=m)`` and leave ``rng`` in the same state.

    For n = 1 numpy's binomial inverts one uniform U per p > 0 and draws
    nothing at p == 0; p <= 0.5 defaults when U > 1 - p, and p > 0.5, drawn
    as one minus a Bernoulli(1 - p), when U <= 1 - (1 - p).  numpy forms
    its threshold q = 1 - p as exp(log(q)), which is q wherever libm rounds
    both correctly; elsewhere a draw differs only if U lands on that ulp.
    """
    p = np.broadcast_to(np.asarray(p, dtype=float), (m,))
    lo, hi = p.min(), p.max()
    if not (0.0 <= lo and hi <= 1.0):
        raise ValueError("p < 0, p > 1 or p contains NaNs")

    def hits(u, p):
        return np.where(p <= 0.5, u > 1.0 - p, u <= 1.0 - (1.0 - p))

    if lo > 0.0:
        return hits(rng.random(m), p)
    out = np.zeros(m, dtype=bool)
    live = p > 0.0
    out[live] = hits(rng.random(np.count_nonzero(live)), p[live])
    return out


def _run_chunks(samples: int, seed: int, workers: int, chunk_fn) -> np.ndarray:
    out = np.empty(samples)

    def task(ci: int) -> None:
        lo = ci * _CHUNK
        hi = min(samples, lo + _CHUNK)
        out[lo:hi] = chunk_fn(_chunk_rng(seed, ci), hi - lo)

    n_chunks = (samples + _CHUNK - 1) // _CHUNK
    if workers <= 1 or n_chunks == 1:
        for ci in range(n_chunks):
            task(ci)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(task, range(n_chunks)))
    return out


def _validate_alignment(profiles, borrowers) -> None:
    if len(profiles) != len(borrowers):
        raise ValueError(
            f"got {len(profiles)} profiles for {len(borrowers)} borrowers"
        )
    for p, b in zip(profiles, borrowers):
        if abs(p.pd - b.pd) > 1e-9:
            raise ValueError(
                f"profile pd {p.pd} does not match borrower {b.name!r} pd {b.pd}"
            )


def simulate_losses(profiles, portfolio, samples: int, seed: int, workers: int = 1) -> LossSample:
    """Factor-driven losses: one factor draw per scenario, conditionally
    independent defaults with each borrower's conditional default
    probability, iid LGD draws, exposure-weighted aggregation.

    The dependence extremes draw their default counts directly: the
    generic binomial route is slower for them, and ``binomial(n, 1.0)``
    would still consume a uniform per scenario.  Every other group of one
    borrower draws its default as one uniform compare (``_bernoulli``),
    several times faster than numpy's per-element binomial setup; it
    consumes the same uniforms and returns the same draws, so the losses
    are those of ``binomial(1, p)`` bit for bit.  The returned sample
    records the pooled group sizes.
    """
    _validate_alignment(profiles, portfolio)
    groups = _pool(portfolio, profiles)

    def chunk(rng, m):
        f = Factor(rng.random(m))
        loss = np.zeros(m)
        for grp in groups:
            p = grp.profile
            if isinstance(p, ComonotoneProfile):
                counts = grp.n * (f.t >= 1.0 - p.pd).astype(np.int64)
            elif grp.n == 1:
                pd = p.pd if isinstance(p, IndependentProfile) else np.clip(p._cpd(f), 0.0, 1.0)
                hit = _bernoulli(rng, pd, m)
                if isinstance(grp.lgd, DeterministicLgd):
                    # multiplying by 0 or 1 is exact: weight * (value * count) bit for bit
                    loss += (grp.weight * grp.lgd.value) * hit
                    continue
                counts = hit
            elif isinstance(p, IndependentProfile):
                counts = rng.binomial(grp.n, p.pd, size=m)
            else:
                counts = rng.binomial(grp.n, np.clip(p._cpd(f), 0.0, 1.0))
            loss += grp.weight * _lgd_total(rng, grp.lgd, counts)
        return loss

    losses = _run_chunks(samples, seed, workers, chunk)
    return LossSample(losses, group_sizes=tuple(g.n for g in groups))


def simulate_independent(portfolio, samples: int, seed: int, workers: int = 1) -> LossSample:
    """Benchmark with unconditionally independent defaults."""
    profiles = [IndependentProfile(b.pd) for b in portfolio]
    return simulate_losses(profiles, portfolio, samples, seed, workers)


def simulate_comonotone(portfolio, samples: int, seed: int, workers: int = 1) -> LossSample:
    """Benchmark with comonotone defaults: one uniform drives all borrowers."""
    profiles = [ComonotoneProfile(b.pd) for b in portfolio]
    return simulate_losses(profiles, portfolio, samples, seed, workers)


def _merge_support(support: np.ndarray, weights: np.ndarray) -> LossSample:
    order = np.argsort(support, kind="stable")
    s = support[order]
    w = weights[order]
    # losses closer than this are one atom summed in different orders
    new_point = np.concatenate([[True], np.diff(s) > 1e-12])
    idx = np.flatnonzero(new_point)
    merged_w = np.add.reduceat(w, idx)
    return LossSample(s[idx], merged_w, is_sorted=True)


def _exact_comonotone(groups) -> LossSample:
    # one uniform drives everything: borrowers default in order of
    # descending pd as it passes their thresholds 1 - pd; groups sharing a
    # threshold default together, so they add to one atom
    items = sorted(
        ((1.0 - g.pd, g.n * g.weight * g.lgd.value) for g in groups),
        key=lambda pair: pair[0],
    )
    support = [0.0]
    weights = []
    prev = 0.0
    acc = 0.0
    for tau, amount in items:
        acc += amount
        if weights and tau == prev:
            support[-1] = acc
        else:
            weights.append(tau - prev)
            support.append(acc)
            prev = tau
    weights.append(1.0 - prev)
    return _merge_support(np.asarray(support), np.asarray(weights))


@functools.lru_cache(maxsize=8)
def _gauss_legendre(quad_nodes: int):
    """Read-only Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    t, wq = 0.5 * (x + 1.0), 0.5 * w
    t.setflags(write=False)
    wq.setflags(write=False)
    return t, wq


def _combination_pmf(f: Factor, groups) -> np.ndarray:
    """(nodes x combinations) conditional pmf of the groups' default counts,
    the last group varying fastest."""
    # imported here: scipy.stats takes most of a second and only this path needs it
    from scipy.stats import binom

    probs = np.ones((f.t.size, 1))
    for grp in groups:
        p = np.clip(grp.profile._cpd(f), 0.0, 1.0)
        pmf = binom.pmf(np.arange(grp.n + 1)[None, :], grp.n, p[:, None])
        probs = (probs[:, :, None] * pmf[:, None, :]).reshape(f.t.size, -1)
    return probs


def _exact_general(groups, quad_nodes: int) -> LossSample:
    sizes = [g.n + 1 for g in groups]
    if all(isinstance(g.profile, IndependentProfile) for g in groups):
        # the integrand does not depend on the factor: one node is exact,
        # and a prefix holding every group keeps the plain product
        t, wq = np.array([0.5]), np.array([1.0])
        split = len(groups)
    else:
        t, wq = _gauss_legendre(quad_nodes)
        # the prefix/suffix cut with the most even halves
        split = min(
            range(len(groups) + 1),
            key=lambda j: max(math.prod(sizes[:j]), math.prod(sizes[j:])),
        )
    na, nb = math.prod(sizes[:split]), math.prod(sizes[split:])

    # support over default-count combinations across pooled groups
    support = np.array([0.0])
    for grp in groups:
        unit = grp.weight * grp.lgd.value
        support = (support[:, None] + unit * np.arange(grp.n + 1)[None, :]).ravel()

    # weights[a, b] = sum_q wq[q] P_A[q, a] P_B[q, b] over prefix A and
    # suffix B; its row-major ravel is the support order
    weights = np.zeros((na, nb))
    batch = max(1, 2_000_000 // max(na, nb))
    for q0 in range(0, t.size, batch):
        f = Factor(t[q0:q0 + batch])
        pa = _combination_pmf(f, groups[:split])
        pb = _combination_pmf(f, groups[split:])
        weights += (pa * wq[q0:q0 + batch, None]).T @ pb
    return _merge_support(support, weights.ravel())


def exact_loss_distribution(profiles, portfolio, quad_nodes: int = 256) -> LossSample:
    """Exact loss distribution for portfolios with deterministic LGD.

    All-comonotone profile sets have a closed form and no size cap.  Every
    other set integrates the conditional default probabilities over the
    factor with ``quad_nodes``-point Gauss-Legendre quadrature (one node when
    every profile is independent) and convolves the pooled binomial default
    counts, for at most 2**20 support points: the product of group size + 1
    over pooled groups, checked before anything is built.  The quadrature
    is one matrix product between the conditional pmfs of a prefix and a
    suffix of the groups, each about the square root of the support in
    size; an all-independent set keeps every group in the prefix.
    The returned weights sum to one within 1e-12.
    """
    _validate_alignment(profiles, portfolio)
    if not 16 <= quad_nodes <= 4096:
        raise ValueError(f"quad_nodes must lie in [16, 4096], got {quad_nodes}")
    if not all(isinstance(b.lgd, DeterministicLgd) for b in portfolio):
        raise ValueError("exact distribution requires deterministic LGD for every borrower")

    groups = _pool(portfolio, profiles)
    if all(isinstance(g.profile, ComonotoneProfile) for g in groups):
        return _exact_comonotone(groups)
    size = math.prod(g.n + 1 for g in groups)
    if size > _MAX_EXACT_SUPPORT:
        raise ValueError(
            f"exact distribution has {size} support points, "
            f"above the cap of {_MAX_EXACT_SUPPORT}"
        )
    sample = _exact_general(groups, quad_nodes)
    total = sample.weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise RuntimeError(f"exact distribution weights sum to {total!r}")
    return sample


def batch_standard_error(sample: LossSample, stat_fn):
    """Batch-means standard error of a statistic of an MC loss sample; one per
    entry when the statistic is an array, each equal to the standard error of
    that entry alone."""
    if sample.weights is not None:
        return 0.0
    losses = sample.losses
    if losses.size < _N_BATCHES:
        return float("nan")
    stats = np.array([stat_fn(LossSample(part)) for part in np.array_split(losses, _N_BATCHES)])
    # one contiguous row per entry: numpy sums a row in the order of a 1-D
    # array, but sums down a column in another
    se = np.std(np.ascontiguousarray(stats.T), axis=-1, ddof=1) / math.sqrt(_N_BATCHES)
    return float(se) if np.ndim(se) == 0 else se


def dkw_epsilon(n: int) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band at 99.9% confidence."""
    return math.sqrt(math.log(2.0 / (1.0 - _DKW_CONFIDENCE)) / (2.0 * n))


def sup_cdf_distance(mc: LossSample, exact: LossSample) -> float:
    """Supremum distance between the empirical CDF and an exact CDF.

    Simulated and exact losses sum the same borrower contributions in
    different orders, so atoms are matched with a fuzz well below the atom
    spacing rather than bit-exactly.
    """
    if exact.weights is None:
        raise ValueError("second argument must be an exact (weighted) distribution")
    exact = exact.sorted()
    xs = exact.losses
    cdf = np.cumsum(exact.weights)
    cdf_left = cdf - exact.weights
    data = np.sort(mc.losses)
    n = data.size
    fuzz = 1e-9 if xs.size < 2 else min(1e-9, 0.49 * float(np.min(np.diff(xs))))
    emp_right = np.searchsorted(data, xs + fuzz, side="right") / n
    emp_left = np.searchsorted(data, xs - fuzz, side="left") / n
    return float(
        max(np.max(np.abs(emp_right - cdf)), np.max(np.abs(emp_left - cdf_left)))
    )
