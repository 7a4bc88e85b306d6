"""Seeded Monte Carlo engine for portfolio losses, plus an exact loss-distribution oracle.

Each standard-error batch (see ``batch_standard_error``) is cut into chunks
of at most ``_CHUNK`` draws, laid out by the sample count alone.  Each chunk
owns an SFC64 generator keyed by the seed, the run id and the chunk index,
so results are bit-identical for a given (seed, run, samples) under any
number of worker threads.  A chunk of m draws stratifies the factor: draw j
is (j + U_j) / m (Glasserman 2004, section 4.3).  Nothing reads a batch's
draws in order, so they need no permutation.

Borrowers that share a profile, an LGD specification and an exposure
weight are pooled: conditionally on the factor their default count is
binomial, which is what makes million-sample runs over thousand-loan
portfolios cheap without changing the loss distribution.  A group of one
borrower (every IDB borrower, say) defaults when its uniform u falls below
its conditional default probability p(t).  Defaults are stochastically
increasing in the factor, so p(t) is nondecreasing in t: a table of p at the
edges of 4,096 uniform factor cells, widened by an absolute slack of 1e-12
for rounding, bounds p on each cell and decides u < p for all but the draws
whose uniform falls between those bounds.  Only those draws, the band, and
every draw in a cell where p may decrease (a table that decreases, or a
breakpoint the profile reports) evaluate p itself (``_PdTable``).
A singleton with deterministic LGD settles its band once per run: each
chunk records the band draws' positions, factor values and uniforms, and
after the last chunk every table evaluates p once over all of its band
draws and the scenarios they touch are summed again in group order, so
each loss keeps the bits of the draw-by-draw loop (``_settle_bands``).  A
beta-LGD singleton settles its band inside the chunk, because how many LGD
values it draws depends on its defaults.  Every evaluated conditional
default probability comes from the profile's one clipped and checked call
(``_pd_at``), so a NaN raises ValueError on every path.  It reads one
shared ``Factor`` per chunk (per quadrature batch on the exact path, and
one per process for the table edges), so each factor transform runs at
most once.

The exact path integrates the product of the groups' conditional binomial
pmfs over the factor.  It splits the pooled groups into a prefix A and a
suffix B of about equal combination counts and contracts the quadrature
with one matrix product, weights[a, b] = sum_q w_q P_A[q, a] P_B[q, b], so
no (nodes x support) array is ever built.  The pmfs are its own numpy code
(``_binomial_pmf``): the closed form (1 - p, p) for a group of one, and
Loader's (2000) saddle-point form, as in R's ``dbinom``, for pooled groups.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .copulas import Factor
from .portfolio import DeterministicLgd
from .profiles import ComonotoneProfile, IndependentProfile, _cell

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

_CHUNK = 1 << 15
_MAX_EXACT_SUPPORT = 2**20
_N_BATCHES = 20
_DKW_CONFIDENCE = 0.999
# the largest double below 1
_T_MAX = 1.0 - 2.0**-53


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
    # share of the table-drawn singleton draws whose pd was evaluated
    # (see _PdTable); None when no group drew from a table
    exact_pd_share: float | None = None

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


def _chunk_rng(seed: int, run: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(run, chunk))
    return np.random.Generator(np.random.SFC64(ss))


def _split_edges(n: int, parts: int) -> np.ndarray:
    """Edges of ``np.array_split`` of n items into ``parts`` parts."""
    i = np.arange(parts + 1)
    q, r = divmod(n, parts)
    return i * q + np.minimum(i, r)


def _chunk_bounds(samples: int) -> list:
    """(start, stop) per chunk: each standard-error batch cut into the fewest
    near-equal chunks of at most ``_CHUNK`` draws."""
    bounds = []
    edges = _split_edges(samples, _N_BATCHES).tolist()
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            cuts = (a + _split_edges(b - a, -(-(b - a) // _CHUNK))).tolist()
            bounds.extend(zip(cuts[:-1], cuts[1:]))
    return bounds


def _stratified(rng, m: int) -> np.ndarray:
    """m factor draws, draw j uniform on the stratum [j/m, (j+1)/m) of [0, 1)."""
    t = np.arange(m) + rng.random(m)
    t /= m
    # j + U can round up to j + 1, and t to 1.0 at the last stratum
    return np.minimum(t, _T_MAX, out=t)


def _lgd_total(rng, lgd, counts: np.ndarray) -> np.ndarray:
    """Sum of iid LGD draws per scenario, given default counts."""
    if isinstance(lgd, DeterministicLgd):
        return lgd.value * counts
    total = np.zeros(counts.size)
    hit = np.flatnonzero(counts)
    if hit.size:
        n = counts[hit]
        draws = lgd.draw(rng, int(n.sum()))
        # one segment of draws per scenario with defaults, in scenario order
        total[hit] = np.add.reduceat(draws, np.cumsum(n) - n)
    return total


# uniform factor cells of a singleton's pd table, and the absolute slack by
# which an evaluated pd may fall short of (or exceed) the table's edge values
_PD_CELLS = 1 << 12
_PD_SLACK = 1e-12


class _PdTable:
    """Bernoulli draws ``u < p`` of one borrower at its clipped pd p that
    evaluate p only near the threshold.

    The pd p(t) of a profile is nondecreasing in the factor t, so on the
    cell [e_c, e_(c+1)) it lies within [lo_c, hi_c] = [p(e_c), p(e_(c+1))]
    widened by ``_PD_SLACK``: u < lo_c defaults and u >= hi_c does not.  Only
    the draws in between evaluate p.  A cell that may not be monotone (the
    table decreases, or the cell or a neighbour holds a breakpoint) has the
    band [0, inf), so every draw in it evaluates p.
    """

    def __init__(self, profile):
        self.profile = profile
        p = self.pd(_table_edges())
        self.lo, self.hi = p[:-1] - _PD_SLACK, p[1:] + _PD_SLACK
        monotone = np.diff(p) >= 0.0
        near = np.floor(profile._breakpoints() * _PD_CELLS).astype(int)
        monotone[np.clip(np.concatenate([near - 1, near, near + 1]), 0, _PD_CELLS - 1)] = False
        self.lo[~monotone], self.hi[~monotone] = 0.0, np.inf

    def pd(self, f: Factor) -> np.ndarray:
        return self.profile._pd_at(f)

    def decide(self, rng, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uniforms u of draws in the table cells ``cell``, the defaults the
        table decides (u < lo), and the band: the draws it leaves to p."""
        u = rng.random(cell.size)
        hit = u < self.lo[cell]
        return u, hit, np.flatnonzero((u < self.hi[cell]) ^ hit)

    def draw(self, rng, f: Factor, cell: np.ndarray) -> tuple[np.ndarray, int]:
        """Defaults at the factor f, whose table cells are ``cell``, and the
        number of draws whose pd was evaluated."""
        u, hit, band = self.decide(rng, cell)
        if band.size:
            hit[band] = u[band] < self.pd(f[band])
        return hit, band.size


@functools.cache
def _table_edges() -> Factor:
    """Read-only factor at the pd-table cell edges, shared by every table,
    with the transforms of the copula conditionals computed once."""
    f = Factor(np.linspace(0.0, 1.0, _PD_CELLS + 1))
    c = f.clipped
    for a in (f.t, c.t, c.ppf, c.log, c.flip.t, c.flip.log):
        a.setflags(write=False)
    return f


def _run_chunks(samples: int, seed: int, run: int, workers: int, chunk_fn) -> tuple[np.ndarray, list]:
    """Losses of every chunk and the chunk results in chunk order:
    ``chunk_fn(rng, loss)`` adds one chunk's losses into ``loss``, its zeroed
    slice of the output."""
    out = np.zeros(samples)
    bounds = _chunk_bounds(samples)

    def task(ci: int):
        lo, hi = bounds[ci]
        return chunk_fn(_chunk_rng(seed, run, ci), out[lo:hi])

    if workers <= 1 or len(bounds) == 1:
        results = [task(ci) for ci in range(len(bounds))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(len(bounds))))
    return out, results


@dataclass(frozen=True, eq=False)
class _Deferred:
    """Band draws a chunk left to its deterministic-LGD tables.

    ``touched`` are the chunk positions in any band.  Group g's loss term
    there is ``scales[g] * values[g]`` (``simulate_losses``): the defaults
    of a deterministic-LGD singleton, False at its own band draws, or the
    LGD total of any other group.  ``bands[j]`` holds the (column in
    ``touched``, factor value, uniform) arrays of the j-th deferring table.
    """

    loss: np.ndarray
    touched: np.ndarray
    values: list
    bands: list


def _settle_bands(deferred: list, scales: list, tables: dict) -> None:
    """Evaluate each deferring table's pd once over its band draws from every
    chunk, then sum the touched scenarios' terms again in group order;
    ``tables`` maps the deferring groups' indices, in order, to their tables."""
    offsets = np.cumsum([0] + [d.touched.size for d in deferred])
    band_of = {g: j for j, g in enumerate(tables)}
    total = np.zeros(offsets[-1])
    for g, scale in enumerate(scales):
        values = np.concatenate([d.values[g] for d in deferred])
        if g in band_of:
            bands = [d.bands[band_of[g]] for d in deferred]
            cols = np.concatenate([c + off for (c, _, _), off in zip(bands, offsets)])
            if cols.size:
                t = np.concatenate([t for _, t, _ in bands])
                u = np.concatenate([u for _, _, u in bands])
                values[cols] = u < tables[g].pd(Factor(t))
        total += scale * values
    for d, a, b in zip(deferred, offsets[:-1], offsets[1:]):
        d.loss[d.touched] = total[a:b]


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


def simulate_losses(
    profiles, portfolio, samples: int, seed: int, workers: int = 1, run: int = 0
) -> LossSample:
    """Factor-driven losses: one stratified factor draw per scenario,
    conditionally independent defaults with each borrower's conditional
    default probability, iid LGD draws, exposure-weighted aggregation.

    ``run`` keys the streams with ``seed``.  A comonotone group defaults
    where the factor passes its threshold 1 - pd, and an independent
    singleton where a uniform falls below its pd.  Any other singleton does
    too, but its pd table (``_PdTable``) decides most draws without
    evaluating the pd; a deterministic-LGD singleton's table evaluates it
    once per run (``_settle_bands``).  Every other pooled group draws a
    binomial count at its pd.  The sample records the pooled group sizes
    and the share of the table-drawn draws that evaluated their pd.
    """
    _validate_alignment(profiles, portfolio)
    groups = _pool(portfolio, profiles)
    tables = [
        _PdTable(g.profile)
        if g.n == 1 and not isinstance(g.profile, (IndependentProfile, ComonotoneProfile))
        else None
        for g in groups
    ]
    n_tables = sum(t is not None for t in tables)
    # a deterministic-LGD singleton's loss term is (weight * value) * its
    # default count, weight * (value * count) bit for bit because the count is
    # 0 or 1; any other group's is weight * its LGD total
    bits = [g.n == 1 and isinstance(g.lgd, DeterministicLgd) for g in groups]
    scales = [g.weight * g.lgd.value if b else g.weight for g, b in zip(groups, bits)]
    # the tables whose band draws wait for the end of the run, by group index
    deferring = {i: t for i, (t, b) in enumerate(zip(tables, bits)) if t is not None and b}

    def chunk(rng, loss):
        m = loss.size
        f = Factor(_stratified(rng, m))
        cell = _cell(f.t, _PD_CELLS) if n_tables else None
        n_eval = 0
        values, bands = [], []  # per group, and (band, t, u) per deferring table
        for grp, table, scale, bit in zip(groups, tables, scales, bits):
            p = grp.profile
            if isinstance(p, ComonotoneProfile):
                counts = grp.n * (f.t >= 1.0 - p.pd).astype(np.int64)
            elif grp.n == 1:
                if table is None:
                    counts = rng.random(m) < p.pd
                elif bit:
                    u, counts, band = table.decide(rng, cell)
                    bands.append((band, f.t[band], u[band]))
                    n_eval += band.size
                else:
                    counts, k = table.draw(rng, f, cell)
                    n_eval += k
            else:
                counts = rng.binomial(grp.n, p._pd_at(f))
            v = counts if bit else _lgd_total(rng, grp.lgd, counts)
            loss += scale * v
            if deferring:
                values.append(v)
        if deferring:
            touched = np.unique(np.concatenate([band for band, _, _ in bands]))
            if touched.size:
                return n_eval, _Deferred(
                    loss,
                    touched,
                    [v[touched] for v in values],
                    [(np.searchsorted(touched, band), t, u) for band, t, u in bands],
                )
        return n_eval, None

    losses, results = _run_chunks(samples, seed, run, workers, chunk)
    deferred = [d for _, d in results if d is not None]
    if deferred:
        _settle_bands(deferred, scales, deferring)
    return LossSample(
        losses,
        group_sizes=tuple(g.n for g in groups),
        exact_pd_share=sum(n for n, _ in results) / (samples * n_tables) if n_tables else None,
    )


def simulate_independent(portfolio, samples: int, seed: int, workers: int = 1, run: int = 0) -> LossSample:
    """Benchmark with unconditionally independent defaults."""
    profiles = [IndependentProfile(b.pd) for b in portfolio]
    return simulate_losses(profiles, portfolio, samples, seed, workers, run)


def simulate_comonotone(portfolio, samples: int, seed: int, workers: int = 1, run: int = 0) -> LossSample:
    """Benchmark with comonotone defaults: one uniform drives all borrowers."""
    profiles = [ComonotoneProfile(b.pd) for b in portfolio]
    return simulate_losses(profiles, portfolio, samples, seed, workers, run)


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


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) for |x| < 1, by the three-term recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Gauss-Legendre nodes on [-1, 1], ascending, and their weights:
    Newton's method on P_n from Tricomi's approximations of its roots, in
    O(n^2) work and without a matrix.  Only the roots in [0, 1) are found,
    and the others mirrored, so the rule is exactly symmetric."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    if n % 2:
        x[-1] = 0.0  # P_n is odd
    dp = _legendre(n, x)[1]
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    half = n // 2  # the roots in (0, 1); an odd n adds 0 after them
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


@functools.lru_cache(maxsize=8)
def _gauss_legendre(quad_nodes: int):
    """Read-only Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = _legendre_rule(quad_nodes)
    t, wq = 0.5 * (x + 1.0), 0.5 * w
    t.setflags(write=False)
    wq.setflags(write=False)
    return t, wq


# stirlerr(k) for k = 0..15 (0 is a placeholder)
_STIRLERR = np.array([
    0.0, 0.08106146679532725822, 0.04134069595540929409, 0.02767792568499833915,
    0.02079067210376509311, 0.01664469118982119216, 0.01387612882307074800,
    0.01189670994589177010, 0.01041126526197209650, 0.009255462182712732918,
    0.008330563433362871256, 0.007573675487951840795, 0.006942840107209529866,
    0.006408994188004207068, 0.005951370112758847736, 0.005554733551962801371,
])
# extended precision where numpy has it (80-bit on x86-64): the far tails'
# log-pmf sums terms of size k log k that cancel to the log of a small number,
# and plain double there costs about two digits
_LD = np.longdouble


def _stirlerr(k: np.ndarray) -> np.ndarray:
    """log k! - (k + 1/2) log k + k - log sqrt(2 pi) for integers k >= 1:
    a table up to 15, then the asymptotic series."""
    kk = k * k
    s0, s1, s2, s3, s4 = 1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188
    # fewer series terms as k grows, with R's cut-offs
    out = np.select(
        [k > 500, k > 80, k > 35],
        [(s0 - s1 / kk) / k, (s0 - (s1 - s2 / kk) / kk) / k, (s0 - (s1 - (s2 - s3 / kk) / kk) / kk) / k],
        (s0 - (s1 - (s2 - (s3 - s4 / kk) / kk) / kk) / kk) / k,
    )
    small = k <= 15
    out[small] = _STIRLERR[k[small]]
    return out


def _bd0(k: np.ndarray, klk: np.ndarray, m: np.ndarray) -> np.ndarray:
    """k log(k / m) + m - k for counts k (columns, with ``klk = k log k - k``)
    and means m (rows).  Where |k - m| < 0.1 (k + m) it takes the series in
    v = (k - m) / (k + m), which has no cancellation."""
    out = klk - k * np.log(m) + m
    near = (k > m * (9 / 11)) & (k < m * (11 / 9))
    if near.any():
        kn, mn = np.broadcast_to(k, out.shape)[near], np.broadcast_to(m, out.shape)[near]
        d, kn = (kn - mn).astype(float), kn.astype(float)
        v = d / (2.0 * kn - d)
        s, term, v2 = d * v, 2.0 * kn * v, v * v
        for j in range(3, 100, 2):
            term *= v2
            s, last = s + term / j, s
            if np.array_equal(s, last):
                break
        out[near] = s
    return out


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """(p.size x n + 1) binomial pmf of n trials at success probabilities p.

    One trial is the closed form (1 - p, p).  More trials take Loader's
    (2000) saddle-point form, as in R's ``dbinom_raw``: count k has
    exp(stirlerr(n) - stirlerr(k) - stirlerr(n - k) - bd0(k, np) -
    bd0(n - k, nq)) / sqrt(2 pi k (n - k) / n), and counts 0 and n have
    q^n and p^n.
    """
    if n == 1:
        return np.stack([1.0 - p, p], axis=1)
    se = _stirlerr(np.arange(1, n + 1))  # stirlerr(1..n)
    k = np.arange(1, n)
    lead = se[-1] - se[:-1] - se[-2::-1] - 0.5 * np.log(2.0 * math.pi * (k * (n - k)) / n)
    kl = k.astype(_LD)
    klk = kl * np.log(kl) - kl
    pl = p.astype(_LD)[:, None]
    log_pmf = np.empty((p.size, n + 1), dtype=_LD)
    with np.errstate(divide="ignore"):
        log_pmf[:, :1] = n * np.log1p(-pl)
        log_pmf[:, n:] = n * np.log(pl)
        log_pmf[:, 1:n] = lead - _bd0(kl, klk, n * pl) - _bd0(kl[::-1], klk[::-1], n * (1.0 - pl))
    return np.exp(log_pmf.astype(float))


def _combination_pmf(f: Factor, groups) -> np.ndarray:
    """(nodes x combinations) conditional pmf of the groups' default counts,
    the last group varying fastest."""
    probs = np.ones((f.t.size, 1))
    for grp in groups:
        pmf = _binomial_pmf(grp.n, grp.profile._pd_at(f))
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
    A NaN conditional pd raises ValueError, as on the Monte Carlo path.
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
    # written so that a NaN total fails too
    if not abs(total - 1.0) <= 1e-12:
        raise RuntimeError(f"exact distribution weights sum to {total!r}")
    return sample


def batch_standard_error(sample: LossSample, stat_fn):
    """Batch-means standard error of a statistic of an MC loss sample; one per
    entry when the statistic is an array, each equal to the standard error of
    that entry alone.  The batches are ``np.array_split``'s, the ones each
    simulation lays its chunks out in."""
    if sample.weights is not None:
        return 0.0
    losses = sample.losses
    if losses.size < _N_BATCHES:
        return float("nan")
    edges = _split_edges(losses.size, _N_BATCHES).tolist()
    stats = np.array([stat_fn(LossSample(losses[a:b])) for a, b in zip(edges[:-1], edges[1:])])
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
