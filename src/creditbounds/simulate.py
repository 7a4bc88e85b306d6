"""Seeded Monte Carlo engine for portfolio losses, plus an exact loss-distribution oracle.

Each standard-error batch (see ``batch_standard_error``) is cut into chunks
of at most ``_CHUNK`` draws, laid out by the sample count alone.  Each chunk
owns an SFC64 generator keyed by the seed, the run id and the chunk index,
so results are bit-identical for a given (seed, run, samples) under any
number of worker threads.  A chunk of m draws stratifies the factor: draw j
is (j + U_j) / m (Glasserman 2004, section 4.3).  Nothing reads a batch's
draws in order, so they need no permutation.

A run for a report holds no sample: given the lowest level alpha its AVaR
reads (``tail``), each chunk adds its losses in a buffer of its own and keeps
only its K = min(m, ceil(2 m (1 - alpha)) + 64) largest (``_keep``), about
0.82 MB of draws at 10^6 samples and alpha 0.95.  AVaR at alpha reads the
T largest draws of each batch and of the whole sample, and the batches' own
tails do not hold the whole sample's (scenario2 at 10^6 samples, seed 7:
9 of 20 batches hold more than their 2,501 of its top 50,001), so every
chunk keeps twice its expected share.  A certificate (``_tail_edges``)
checks that the kept draws hold each T largest; where it cannot, the run
is simulated again whole, so every AVaR has the bits of the whole sample's.
A pooled group evaluates its pd, draws its binomial counts and, with a
deterministic LGD, adds its losses a block of at most ``_BLOCK`` draws at
a time: each works draw by draw, so the stream is the same, and without a
sample-sized array the C allocator would otherwise return and fault in a
chunk's larger temporaries again every chunk.

Borrowers that share a profile, an LGD specification and an exposure
weight are pooled: conditionally on the factor their default count is
binomial, which is what makes million-sample runs over thousand-loan
portfolios cheap without changing the loss distribution.  A group of one
borrower (every IDB borrower, say) defaults when its uniform u falls below
its conditional default probability p(t).  The profile bounds p on each of
4,096 uniform factor cells (``DefaultProfile._cell_bounds``), built once per
profile per run, and those bounds decide u < p for all but the draws whose
uniform falls between them (``_decide``).  Only those draws, the band, and
every draw in a cell where p may decrease evaluate p itself.
A singleton with deterministic LGD settles its band once per run: each
chunk records the band draws' positions, factor values and uniforms, and
after the last chunk every such singleton evaluates p once over all of its
band draws and the scenarios they touch are summed again in group order, so
each loss keeps the bits of the draw-by-draw loop (``_settle_bands``).  A
beta-LGD singleton settles its band inside the chunk, because how many LGD
values it draws depends on its defaults.  Beta LGD values come from the
exact table sampler of ``_beta``, one table per beta shape, built before
the chunks start so that worker threads only read it; a pooled group sums
its draws per scenario a round at a time (``BetaTable.sums``).  Every
evaluated conditional default probability comes from the profile's one
clipped and checked call (``_pd_at``), so a NaN raises ValueError on every
path.  It reads one shared ``Factor`` per chunk (per quadrature batch on
the exact path, and one per process for the cell edges), so each factor
transform runs once per chunk for the profiles that read the whole
factor.  An envelope's members read masked subsets of it, which carry
only the transforms computed before the mask was taken
(``Factor.__getitem__``), so each member recomputes the others
(``norm_ppf``, ``log``) on its own subset.

The exact path integrates the product of the groups' conditional binomial
pmfs over the factor.  It splits the pooled groups into a prefix A and a
suffix B of about equal combination counts and contracts the quadrature
with one matrix product, weights[a, b] = sum_q w_q P_A[q, a] P_B[q, b], so
no (nodes x support) array is ever built.  The pmfs are its own numpy code
(``_binomial_pmf``): the closed form (1 - p, p) for a group of one, and
for pooled groups the product of the ratios pmf(k + 1) / pmf(k) outward
from the mode, normalised to sum to one, in plain double precision.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._normal import _legendre_rule
from .copulas import Factor
from .portfolio import DeterministicLgd
from .profiles import _PD_CELLS, ComonotoneProfile, IndependentProfile, _cell

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
# pooled groups draw a chunk in near-equal blocks of at most this many draws
_BLOCK = 1 << 13
# a tail run's chunk of m draws keeps its top min(m, ceil(2 m (1 - alpha)) +
# 64) draws (``_keep``): twice its expected share of the whole sample's tail
# at level alpha, plus 64 for small chunks, whose share varies more.  At
# 10^6 samples no chunk of the four shipped fixtures held more than 1.08
# times its share of the whole sample's or its batch's tail at alpha 0.95.
_KEEP_FACTOR = 2.0
_KEEP_EXTRA = 64
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
    carry support points with probabilities.  A tail stands for ``draws``
    equally likely draws but holds only the worst of them, all that an AVaR
    at its level reads, batch by batch: batch i's at
    ``losses[kept_edges[i]:kept_edges[i + 1]]``.  ``size`` counts the
    draws, and only ``avar`` and ``batch_standard_error`` read a tail.
    """

    losses: np.ndarray
    weights: np.ndarray | None = None
    is_sorted: bool = False
    group_sizes: tuple = ()
    # share of the draws of singletons decided by their cell bounds whose pd
    # was evaluated (see _decide); None when no group drew from cell bounds
    exact_pd_share: float | None = None
    draws: int | None = None
    kept_edges: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "losses", np.asarray(self.losses, dtype=float))
        if self.weights is not None:
            object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
            if self.weights.shape != self.losses.shape:
                raise ValueError("weights must match losses in shape")

    @property
    def size(self) -> int:
        return self.losses.size if self.draws is None else self.draws

    def _whole(self) -> None:
        if self.draws is not None:
            raise ValueError(f"a tail holds {self.losses.size} of its {self.draws} draws")

    def batches(self) -> list:
        """The standard-error batches in draw order, ``np.array_split``'s of
        the draws; a tail's batches are the tails of its batches."""
        edges = _split_edges(self.size, _N_BATCHES).tolist()
        if self.draws is None:
            return [LossSample(self.losses[a:b]) for a, b in itertools.pairwise(edges)]
        draws = np.diff(edges).tolist()
        kept = itertools.pairwise(self.kept_edges)
        return [LossSample(self.losses[a:b], draws=d) for (a, b), d in zip(kept, draws, strict=True)]

    def sorted(self, in_place: bool = False) -> "LossSample":
        """The sample in ascending order; ``in_place`` sorts the draws of an
        equally weighted sample where they are."""
        if self.is_sorted:
            return self
        self._whole()
        if self.weights is None:
            if in_place:
                self.losses.sort()
                return LossSample(self.losses, is_sorted=True)
            return LossSample(np.sort(self.losses), is_sorted=True)
        order = np.argsort(self.losses, kind="stable")
        return LossSample(self.losses[order], self.weights[order], is_sorted=True)

    def mean(self) -> float:
        self._whole()
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
    """Sum of iid LGD draws per scenario, given default counts; a beta
    LGD's table sums them without holding them all."""
    if isinstance(lgd, DeterministicLgd):
        return lgd.value * counts
    return lgd.table.sums(rng, counts)


def _decide(rng, bounds: tuple, cell: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uniforms u of draws in the factor cells ``cell``, the defaults that
    the cell bounds (lo, hi) decide (u < lo), and the band: the draws they
    leave to the pd."""
    lo, hi = bounds
    u = rng.random(cell.size)
    hit = u < lo[cell]
    return u, hit, np.flatnonzero((u < hi[cell]) ^ hit)


def _run_chunks(chunks: list, seed: int, run: int, workers: int, chunk_fn) -> list:
    """The chunk results in chunk order: ``chunk_fn(rng, ci)`` simulates
    chunk ci, the draws ``chunks[ci]``."""

    def task(ci: int):
        return chunk_fn(_chunk_rng(seed, run, ci), ci)

    if workers <= 1 or len(chunks) == 1:
        results = [task(ci) for ci in range(len(chunks))]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(task, range(len(chunks))))
    return results


def _tail_start(n: int, alpha: float) -> int:
    """Rank of the least draw, of n equally likely ones, that AVaR at alpha
    reads: draws of rank >= floor(alpha n) carry weight, and one more below
    keeps a float tie at the boundary weighted as in a full sort."""
    return max(math.floor(alpha * n) - 1, 0)


def _keep(m: int, alpha: float) -> int:
    """How many of its m draws a chunk of a tail run at level alpha keeps."""
    return min(m, math.ceil(_KEEP_FACTOR * m * (1.0 - alpha)) + _KEEP_EXTRA)


def _top(x: np.ndarray, k: int) -> np.ndarray:
    """The k largest values of x: x itself when it holds no more, else a view
    of x after partitioning it in place."""
    if x.size <= k:
        return x
    x.partition(x.size - k - 1)
    return x[x.size - k:]


def _tail_edges(kept: np.ndarray, slots: np.ndarray, chunks: list, samples: int, alpha: float):
    """The edges of each standard-error batch's draws in ``kept``, where chunk
    c kept its largest draws at ``kept[slots[c]:slots[c + 1]]``; None unless
    they hold every draw that AVaR at alpha reads.

    A scope, the whole sample or one batch, reads its T largest draws
    (``_tail_start``).  Every draw a chunk dropped is at most the least it
    kept, so the scope's kept draws hold its T largest, ties in any order,
    when at least T of them are at or above the least kept draw of each
    chunk of the scope that dropped draws.
    """
    floors = np.array([
        -np.inf if b - a == hi - lo else kept[a:b].min(initial=np.inf)
        for (a, b), (lo, hi) in zip(itertools.pairwise(slots.tolist()), chunks)
    ])
    edges = _split_edges(samples, _N_BATCHES)
    # the first chunk of each batch, and of none past the last
    first = np.searchsorted([lo for lo, _ in chunks], edges)
    for c0, c1, n in [*zip(first[:-1], first[1:], np.diff(edges)), (0, len(chunks), samples)]:
        floor = floors[c0:c1].max(initial=-np.inf)
        reads = n - _tail_start(int(n), alpha)
        if floor > -np.inf and np.count_nonzero(kept[slots[c0]:slots[c1]] >= floor) < reads:
            return None
    return tuple(slots[first].tolist())


@dataclass(frozen=True, eq=False)
class _Deferred:
    """Band draws a chunk left to its deterministic-LGD singletons.

    ``loss[touched]`` are the losses of the chunk's draws in any band, in
    draw order.  Group g's loss term there is ``scales[g] * values[g]``
    (``simulate_losses``): the defaults of a deterministic-LGD singleton,
    False at its own band draws, or the LGD total of any other group.
    ``bands[j]`` holds the (column in ``touched``, factor value, uniform)
    arrays of the j-th deferring group.
    """

    loss: np.ndarray
    touched: np.ndarray
    values: list
    bands: list


def _settle_bands(deferred: list, scales: list, profiles: dict) -> None:
    """Evaluate each deferring group's pd once over its band draws from every
    chunk, then sum the touched scenarios' terms again in group order;
    ``profiles`` maps the deferring groups' indices, in order, to their profiles."""
    offsets = np.cumsum([0] + [d.touched.size for d in deferred])
    band_of = {g: j for j, g in enumerate(profiles)}
    total = np.zeros(offsets[-1])
    for g, scale in enumerate(scales):
        values = np.concatenate([d.values[g] for d in deferred])
        if g in band_of:
            bands = [d.bands[band_of[g]] for d in deferred]
            cols = np.concatenate([c + off for (c, _, _), off in zip(bands, offsets)])
            if cols.size:
                t = np.concatenate([t for _, t, _ in bands])
                u = np.concatenate([u for _, _, u in bands])
                values[cols] = u < profiles[g]._pd_at(Factor(t))
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
    profiles, portfolio, samples: int, seed: int, workers: int = 1, run: int = 0,
    tail: float | None = None,
) -> LossSample:
    """Factor-driven losses: one stratified factor draw per scenario,
    conditionally independent defaults with each borrower's conditional
    default probability, iid LGD draws, exposure-weighted aggregation.

    ``run`` keys the streams with ``seed``.  A comonotone group defaults
    where the factor passes its threshold 1 - pd, and an independent
    singleton where a uniform falls below its pd.  Any other singleton does
    too, but its profile's cell bounds, built once per profile, decide most
    draws without evaluating the pd (``_decide``); a deterministic-LGD
    singleton evaluates it once per run (``_settle_bands``).  Every other
    pooled group draws a binomial count at its pd.  The sample records the
    pooled group sizes and the share of the bounds-decided draws that
    evaluated their pd.

    Without ``tail`` the sample holds every draw.  With ``tail``, the lowest
    level an AVaR of the run reads, it is a tail (``LossSample``): a chunk
    of m draws adds its losses in a buffer of its own and keeps its
    ``_keep(m, tail)`` largest, and a chunk that defers band draws keeps its
    touched draws beside the others' largest until they are settled, since
    settling only raises a loss.  Where the kept draws may miss a draw that
    AVaR at ``tail`` reads (``_tail_edges``), the run is simulated again
    without ``tail``.  Either way every draw has the same bits.
    """
    _validate_alignment(profiles, portfolio)
    chunks = _chunk_bounds(samples)
    if tail is None:
        # the losses first: they then take the heap block the previous run's
        # losses freed, before the cell bounds' 32 KB arrays can split it and
        # push them onto new heap (2.7 MB more peak RSS in some processes)
        losses = np.zeros(samples)
    else:
        # chunk c keeps its largest draws at losses[slots[c]:slots[c + 1]]
        slots = np.cumsum([0] + [_keep(hi - lo, tail) for lo, hi in chunks])
        losses = np.empty(slots[-1])
    groups = _pool(portfolio, profiles)
    # the cell bounds of the profiles singletons draw from, built once per profile
    drawn = dict.fromkeys(
        g.profile for g in groups
        if g.n == 1 and not isinstance(g.profile, (IndependentProfile, ComonotoneProfile))
    )
    bounds_of = {p: p._cell_bounds() for p in drawn}
    cell_bounds = [bounds_of.get(g.profile) if g.n == 1 else None for g in groups]
    n_bounded = sum(b is not None for b in cell_bounds)
    # a deterministic-LGD singleton's loss term is (weight * value) * its
    # default count, weight * (value * count) bit for bit because the count is
    # 0 or 1; any other group's is weight * its LGD total
    bits = [g.n == 1 and isinstance(g.lgd, DeterministicLgd) for g in groups]
    scales = [g.weight * g.lgd.value if b else g.weight for g, b in zip(groups, bits)]
    # the profiles whose band draws wait for the end of the run, by group index
    deferring = {i: g.profile for i, (g, b) in enumerate(zip(groups, bits)) if b and cell_bounds[i]}
    # the beta LGDs' sampling tables, built before the chunks so that the
    # workers only read them
    for g in groups:
        if not isinstance(g.lgd, DeterministicLgd):
            _ = g.lgd.table

    # the last group that evaluates its pd on the whole factor
    last_pooled = max(
        (i for i, g in enumerate(groups) if g.n > 1 and not isinstance(g.profile, ComonotoneProfile)),
        default=-1,
    )

    def chunk(rng, ci):
        lo, hi = chunks[ci]
        m = hi - lo
        loss = np.zeros(m) if tail is not None else losses[lo:hi]
        f = Factor(_stratified(rng, m))
        # the pd, the binomial and the loss sums work draw by draw, so taking a
        # pooled group a block at a time keeps the stream and the bits, and
        # bounds each temporary by a block
        cuts = _split_edges(m, -(-m // _BLOCK)).tolist()
        blocks = [slice(a, b) for a, b in itertools.pairwise(cuts)]
        # the blocks' factors, which pooled groups share until the last of them
        factors = [f[block] for block in blocks]
        cell = _cell(f.t, _PD_CELLS) if n_bounded else None
        n_eval = 0
        values, bands = [], []  # per group, and (band, t, u) per deferring group
        for gi, (grp, bounds, scale, bit) in enumerate(zip(groups, cell_bounds, scales, bits)):
            p = grp.profile
            if isinstance(p, ComonotoneProfile):
                counts = grp.n * (f.t >= 1.0 - p.pd).astype(np.int64)
            elif bounds is not None:
                u, counts, band = _decide(rng, bounds, cell)
                n_eval += band.size
                if bit:
                    bands.append((band, f.t[band], u[band]))
                elif band.size:
                    counts[band] = u[band] < p._pd_at(f[band])
            elif grp.n == 1:
                counts = rng.random(m) < p.pd
            else:
                # a deterministic LGD adds each block's losses as it is drawn;
                # a beta LGD's table and a deferred band read the whole chunk's
                whole = deferring or not isinstance(grp.lgd, DeterministicLgd)
                counts = np.empty(m, dtype=np.int64) if whole else None
                for j, block in enumerate(blocks):
                    c = rng.binomial(grp.n, p._pd_at(factors[j]))
                    if whole:
                        counts[block] = c
                    else:
                        loss[block] += scale * (grp.lgd.value * c)
                    if gi == last_pooled:
                        factors[j] = None  # its transforms have no reader left
                if not whole:
                    continue
            v = counts if bit else _lgd_total(rng, grp.lgd, counts)
            loss += scale * v
            if deferring:
                values.append(v)
        touched = np.empty(0, dtype=np.intp)
        if deferring:
            # the distinct positions, ascending (np.unique would import numpy.ma)
            touched = np.sort(np.concatenate([band for band, _, _ in bands]))
            first = np.ones(touched.size, dtype=bool)
            first[1:] = touched[1:] != touched[:-1]
            touched = touched[first]
        at = touched
        if tail is not None:
            keep = slots[ci + 1] - slots[ci]
            if touched.size:
                # settling can still raise a touched draw's loss: keep those
                # beside the others' largest, and choose after settling
                loss = np.concatenate([_top(np.delete(loss, touched), keep), loss[touched]])
                at = np.arange(loss.size - touched.size, loss.size)
            else:
                losses[slots[ci]:slots[ci + 1]] = _top(loss, keep)
        if not touched.size:
            return n_eval, None
        return n_eval, _Deferred(
            loss,
            at,
            [v[touched] for v in values],
            [(np.searchsorted(touched, band), t, u) for band, t, u in bands],
        )

    results = _run_chunks(chunks, seed, run, workers, chunk)
    deferred = [d for _, d in results if d is not None]
    if deferred:
        _settle_bands(deferred, scales, deferring)
    pooling = {
        "group_sizes": tuple(g.n for g in groups),
        "exact_pd_share": sum(n for n, _ in results) / (samples * n_bounded) if n_bounded else None,
    }
    if tail is None:
        return LossSample(losses, **pooling)
    for ci, (_, d) in enumerate(results):
        if d is not None:
            losses[slots[ci]:slots[ci + 1]] = _top(d.loss, slots[ci + 1] - slots[ci])
    kept_edges = _tail_edges(losses, slots, chunks, samples, tail)
    if kept_edges is None:
        return simulate_losses(profiles, portfolio, samples, seed, workers, run)
    return LossSample(losses, draws=samples, kept_edges=kept_edges, **pooling)


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


@functools.lru_cache(maxsize=8)
def _gauss_legendre(quad_nodes: int):
    """Read-only Gauss-Legendre nodes and weights on (0, 1)."""
    x, w = _legendre_rule(quad_nodes)
    t, wq = 0.5 * (x + 1.0), 0.5 * w
    t.setflags(write=False)
    wq.setflags(write=False)
    return t, wq


def _binomial_pmf(n: int, p: np.ndarray) -> np.ndarray:
    """(p.size x n + 1) binomial pmf of n trials at success probabilities p.

    One trial is the closed form (1 - p, p).  More trials multiply the
    ratios r_k = pmf(k + 1) / pmf(k) = (n - k) p / ((k + 1) q) outward from
    the mode m = min(floor((n + 1) p), n): r_k for k >= m to the right,
    1 / r_k for k < m to the left, then divide each row by its sum.  Every
    factor is at most one and each side falls away from the mode, so
    nothing overflows and an underflowed value has only smaller values
    beyond it.  p = 0 and p = 1 give unit mass at 0 and at n.
    """
    if n == 1:
        return np.stack([1.0 - p, p], axis=1)
    p = p[:, None]
    q = 1.0 - p
    k = np.arange(n)
    right = k >= np.minimum(np.floor((n + 1) * p), n)
    # the quotient np.where discards may overflow or divide by zero
    with np.errstate(divide="ignore", over="ignore"):
        step = np.where(right, (n - k) * p / ((k + 1) * q), (k + 1) * q / ((n - k) * p))
    ones = np.ones_like(p)
    rise = np.cumprod(np.concatenate([ones, np.where(right, step, 1.0)], axis=1), axis=1)
    fall = np.cumprod(np.concatenate([ones, np.where(right, 1.0, step)[:, ::-1]], axis=1), axis=1)
    pmf = rise * fall[:, ::-1]
    return pmf / pmf.sum(axis=1, keepdims=True)


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
    simulation lays its chunks out in (``LossSample.batches``)."""
    if sample.weights is not None:
        return 0.0
    if sample.size < _N_BATCHES:
        return float("nan")
    stats = np.array([stat_fn(batch) for batch in sample.batches()])
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
