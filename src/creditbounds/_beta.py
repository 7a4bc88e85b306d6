"""Exact beta sampler: rejection from a piecewise-constant envelope.

``BetaTable(a, b)`` draws Beta(a, b) variates by the table method of the
ziggurat family (Marsaglia and Tsang 2000; Devroye 1986, ch. VIII): a
partition of (0, 1) into pieces, each with a constant envelope above the
density and a constant squeeze below it, one piece picked per draw by an
alias table in proportion to its envelope area.

Layout.  With f(x) = x^(a-1) (1-x)^(b-1), the table is built for a <= b
and a draw is flipped to 1 - x when the shape was given the other way
round, so doubles resolve the end that holds the mean.  The interior
critical point (a-1)/(a+b-2), where f turns, is a breakpoint, so f is
monotone on every interior piece.  Interior breakpoints sit where log f
crosses a level grid: ``_STEP`` nats apart down to ``_DEPTH`` nats below
the top of each monotone stretch, then at drops growing by powers of two,
so every piece that can carry mass has a density ratio near exp(_STEP)
and the tails take few pieces.  The two end pieces (0, x_lo] and
[x_hi, 1) take the power-law proposals x = x_lo V^(1/a) and
1 - x = (1 - x_hi) V^(1/b), which carry the factors x^(a-1) and
(1-x)^(b-1) exactly, singular or not; the other factor is bounded on the
piece, and x_lo, x_hi are chosen so that it varies by at most ``_STEP``
nats there (a singular end begins ``_RISE`` nats further in).  Every
shape a, b > 0 is covered, a = 1 and b = 1 included.

Exactness.  A draw picks piece i with probability proportional to its
envelope area, proposes x from the piece's proposal (uniform inside an
interior piece), and accepts when w env_i(x) < f(x) for a uniform w;
otherwise the draw is discarded.  That is rejection from the mixture whose
density is proportional to the envelope, so an accepted x has density f
exactly, provided the envelope lies on or above the density as evaluated.
f is monotone on the piece, so its maximum is at an end; the envelope is
the larger end value raised by twice a bound E_i on the error of the
evaluated log f over the piece, and the squeeze is the smaller end value
lowered by the same, so the squeeze also lies on or below every evaluated
density, and a draw under the squeeze is accepted without evaluating f,
which does not change the law (the end pieces have no squeeze).  log f is evaluated relative to
r = a/(a+b), as (a-1) log(x/r) + (b-1) log((1-x)/(1-r)), each log taken
as log1p of a relative difference near r and as a difference of logs
away from it, so that at a + b near 1e18 its error is set by the
distance from r and not by the size of the terms.  With u = 2^-53, the
error of these end values is at most 32 u |a-1| (|log(x/r)| + s1) +
32 u |b-1| (|log((1-x)/(1-r))| + s2), s = 0 near r and the two logs'
magnitudes away from it (the rounding of the quotients, of log and log1p
taken as 4 ulps, and of the products), plus 32 u (1 + |log f|) for the
sums and the exp of the test; every part is largest at an end of the
piece.  The density test adds to the value at the piece's left end the
increments (a-1) log1p(d/p) + (b-1) log1p(-d/(1-p)), d = x - p, which
carry 16 u times their size and 4 u |b-1| (q-p)/(1-q) more; the placed
point is rounded by an ulp or two, which moves log f by up to
4 u |x (log f)'(x)|.  The envelope clears the larger end value by twice
the first bound plus the others.  The critical point is a rounded
double, so the two pieces beside it add the tangent bound |(log f)'|
times their width.  What is left is the rounding of the output
arithmetic, of the table's probabilities (to the 2^-64 resolution of the
alias thresholds; a piece below it is never picked) and the 53-bit
resolution of the uniforms.

Sampling draws candidates in rounds of at most ``_BLOCK``, a sixteenth and
two more than the draws still needed, and copies the accepted ones, in
candidate order, into the output, so that no temporary outgrows a round.
``sums`` adds them up per scenario a round at a time instead, so that a
pooled group never holds all of a chunk's LGD draws; where every count is
0 or 1 (a single borrower) it takes them from ``draw``, as many as the
scenarios that default.  Per candidate one 64-bit word picks the
alias column and side, and one uniform w decides the squeeze
(w < squeeze/envelope) and, divided by that ratio, places the draw inside
its piece; only draws above the squeeze take a fresh place and the
density.  The table is read-only once built, so threads may share it.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["BetaTable"]

# log-density range of one fine piece in nats.  Interleaved timings of
# 200,000 draws of Beta(0.3, 2.7), (2, 5), (35, 315) and (0.5, 0.5) on a
# 2-vCPU Xeon gave 16.5-16.9 ns per draw at 0.01, 16.9-17.6 at 0.02,
# 18.0-18.4 at 0.04 and 20.4-21.4 at 0.08 (numpy's beta: 48-71 ns): a
# coarser step sends more draws to the density, and 0.02 needs half the
# pieces of 0.01 (961 against 2,085 for Beta(0.3, 2.7))
_STEP = 0.02
# fine pieces cover this many nats below the top of each monotone stretch;
# beyond it the density is below exp(-_DEPTH) of its top
_DEPTH = 40.0
# nats a singular end's density rises inside the interior before its end
# piece begins: at 10, Beta(0.3, 2.7) sends 0.5 % of its draws to the
# power-law proposal, at 5 nats 4.4 % (and 2.5 ns more per draw)
_RISE = 10.0
_BLOCK = 8192
_BISECTIONS = 64
_U = 2.0**-53
_TINY = sys.float_info.min
# rounding-error bound of the evaluated log density, in units of u times
# the magnitudes it is made of (see the module docstring)
_ERR = 32.0
_INTERIOR, _LEFT, _RIGHT = 0, 1, 2


def _round(need: int) -> int:
    """Candidates per round: a sixteenth and two more than the draws still
    needed, so that one round usually fills a block, up to a block."""
    return min(_BLOCK, need + (need >> 4) + 2)


def _expit(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow at either end."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


class BetaTable:
    """Read-only sampling table of Beta(a, b) for any a, b > 0."""

    def __init__(self, a: float, b: float):
        a, b = float(a), float(b)
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ValueError(f"beta shapes must be finite and positive, got ({a!r}, {b!r})")
        self.flip = a > b
        if self.flip:
            a, b = b, a
        self._a, self._b = a, b
        self._am1, self._bm1 = a - 1.0, b - 1.0
        # any double in (0, 1/2] serves as the reference; a + b may overflow,
        # and a normal r keeps every x / r below the overflow threshold
        r = a / (a + b) if a + b < math.inf else 1.0 / (1.0 + b / a)
        self._r = r = max(r, _TINY)
        # the branch points of the two log ratios (see _t1, _t2)
        self._h1, self._h2 = 0.5 * r, 0.5 + 0.5 * r
        self._log_r, self._log1m_r = math.log(r), math.log1p(-r)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._build()

    # log(x / r) and log((1 - x) / (1 - r)), each accurate to a few ulps of
    # its own size near r (log1p of an exact or once-rounded difference)
    # (both branches are evaluated everywhere: callers ignore the divide and
    # invalid warnings of the branch that is not taken)
    def _t1(self, x):
        return np.where(x >= self._h1, np.log1p((x - self._r) / self._r), np.log(x) - self._log_r)

    def _t2(self, x):
        return np.where(x <= self._h2, np.log1p((self._r - x) / (1.0 - self._r)), np.log1p(-x) - self._log1m_r)

    def _log_f(self, x):
        """log f(x) - log f(r); a zero coefficient contributes 0."""
        out = np.zeros(np.shape(x))
        if self._am1:
            out += self._am1 * self._t1(x)
        if self._bm1:
            out += self._bm1 * self._t2(x)
        return out

    def _error(self, p, q):
        """Bound on the rounding error of ``_log_f`` over each piece [p, q]."""
        s1 = np.where(p >= self._h1, 0.0, np.abs(np.log(p)) + abs(self._log_r))
        s2 = np.where(q <= self._h2, 0.0, np.abs(np.log1p(-q)) + abs(self._log1m_r))
        t1 = np.maximum(np.abs(self._t1(p)), np.abs(self._t1(q)))
        t2 = np.maximum(np.abs(self._t2(p)), np.abs(self._t2(q)))
        return _ERR * _U * (abs(self._am1) * (t1 + s1) + abs(self._bm1) * (t2 + s2))

    def _breaks(self, p: float, q: float) -> np.ndarray:
        """Points of (p, q), on which log f is monotone, where it crosses
        the level grid below the higher end."""
        ends = self._log_f(np.array([p, q]))
        top, drop = ends.max(), abs(ends[1] - ends[0])
        fine = _STEP * np.arange(1, math.ceil(min(drop, _DEPTH) / _STEP))
        coarse = _DEPTH * 2.0 ** np.arange(1, max(1, math.ceil(math.log2(max(drop / _DEPTH, 1.0)))))
        drops = np.concatenate([fine, coarse[coarse < drop]])
        if not drops.size:
            return drops
        levels = top - drops
        rising = ends[1] > ends[0]
        # bisect in logit coordinates, which resolve both ends of (0, 1),
        # until each crossing is known within an eighth of its level step
        tol = np.where(drops <= _DEPTH, _STEP, 0.5 * drops) / 8.0
        lo = np.full(levels.size, math.log(p) - math.log1p(-p))
        hi = np.full(levels.size, math.log(q) - math.log1p(-q))
        f_lo, f_hi = np.full(levels.size, ends[0]), np.full(levels.size, ends[1])
        for _ in range(_BISECTIONS):
            if np.all(np.abs(f_hi - f_lo) <= tol):
                break
            mid = 0.5 * (lo + hi)
            f_mid = self._log_f(_expit(mid))
            below = (f_mid < levels) == rising
            lo, f_lo = np.where(below, mid, lo), np.where(below, f_mid, f_lo)
            hi, f_hi = np.where(below, hi, mid), np.where(below, f_hi, f_mid)
        return _expit(lo)

    def _build(self) -> None:
        a, b, am1, bm1 = self._a, self._b, self._am1, self._bm1
        # the factor an end piece bounds varies by at most _STEP nats on it;
        # a singular end starts _RISE nats up its singularity, so that its
        # power-law proposal, dearer per draw, takes few of the draws
        x_lo = -math.expm1(-_STEP / abs(bm1)) if bm1 else 1.0
        y_hi = -math.expm1(-_STEP / abs(am1)) if am1 else 1.0
        if am1 < 0.0:
            x_lo *= math.exp(_RISE / am1)
        if bm1 < 0.0:
            y_hi *= math.exp(_RISE / bm1)
        x_lo, x_hi = min(x_lo, 0.5), max(1.0 - y_hi, 0.5)
        knots, crit = [], math.nan
        if am1 * bm1 > 0.0:  # an interior maximum or minimum of f
            crit = am1 / (am1 + bm1)
            x_lo, x_hi = min(x_lo, crit), max(x_hi, crit)
            if x_lo < crit < x_hi:
                knots.append(crit)
        # a normal x_lo keeps 1 / x_lo finite
        x_lo, x_hi = max(x_lo, _TINY), min(x_hi, 1.0 - _U)
        y_hi = 1.0 - x_hi  # exact: x_hi >= 1/2
        edges = [x_lo, *knots, x_hi]
        x = np.sort(np.concatenate(
            [edges] + [self._breaks(p, q) for p, q in zip(edges[:-1], edges[1:]) if q > p]
        ))
        # distinct breakpoints inside [x_lo, x_hi] (np.unique would import numpy.ma)
        x = x[(x >= x_lo) & (x <= x_hi) & np.concatenate([[True], x[1:] > x[:-1]])]
        p, q = x[:-1], x[1:]

        ends = self._log_f(x)
        top = np.maximum(ends[:-1], ends[1:])
        bottom = np.minimum(ends[:-1], ends[1:])
        t1, t2 = self._t1(x), self._t2(x)
        # the envelope clears the largest end value by: twice the error of
        # the end values (the evaluated log f, and the sums and exp of the
        # test at its size); the error of the increments from p that the
        # sampler adds (log1p(d / p) and log1p(-d / (1 - p)), d = x - p);
        # and the rounding of the placed point itself, an ulp or two, which
        # moves log f by up to 4 u |x (log f)'(x)|, monotone in x
        slope = np.abs((am1 - (am1 + bm1) * x) / (1.0 - x))
        err = (
            2.0 * (self._error(p, q) + _ERR * _U * (1.0 + np.maximum(np.abs(top), np.abs(bottom))))
            + 16.0 * _U * (abs(am1) * np.abs(t1[1:] - t1[:-1]) + abs(bm1) * np.abs(t2[1:] - t2[:-1]))
            + 4.0 * _U * abs(bm1) * (q - p) / (1.0 - q)
            + 4.0 * _U * np.maximum(slope[:-1], slope[1:])
        )
        # the critical point is rounded to a double, so a piece that ends
        # there may hold the true one: log f is concave (or convex) there and
        # stays within its tangent at that end, |(log f)'| times the width
        at_crit = (p == crit) | (q == crit)
        if at_crit.any():
            slope = abs(am1 / crit - bm1 / (1.0 - crit)) + 4.0 * _U * (abs(am1) / crit + abs(bm1) / (1.0 - crit))
            err = np.where(at_crit, err + slope * (q - p), err)
        # the end pieces: the bounded factor, (b-1) t2 on (0, x_lo] and
        # (a-1) t1 on [x_hi, 1), is monotone, so its largest value is at an
        # end; they have no squeeze, and their draws always read the density
        env_ends, at_ref = [], []
        for coef, t, at in ((bm1, self._t2, [0.0, x_lo]), (am1, self._t1, [x_hi, 1.0])):
            if coef:
                vals = t(np.array(at))
                part = coef * vals
                e = 2.0 * _ERR * _U * (abs(coef) * np.abs(vals).max() + 1.0 + np.abs(part).max())
            else:
                part, e = np.zeros(2), 0.0
            env_ends.append(part.max() + e)
            at_ref.append(part[0])
        left_env, right_env = env_ends
        # areas in the units of f / f(r): the left proposal integrates to
        # x_lo / a (x_lo / r)^(a-1), the right one to y_hi / b (y_hi / (1-r))^(b-1)
        log_area = np.concatenate([
            [math.log(x_lo) - math.log(a) + am1 * t1[0] + left_env],
            np.log(q - p) + top + err,
            [math.log(y_hi) - math.log(b) + bm1 * t2[-1] + right_env],
        ])
        self.kind = np.concatenate([[_LEFT], np.full(p.size, _INTERIOR), [_RIGHT]]).astype(np.int8)
        self.lo = np.concatenate([[0.0], p, [1.0]])
        self.width = np.concatenate([[x_lo], q - p, [-y_hi]])
        self.log_env = np.concatenate([[left_env], top + err, [right_env]])
        ratio = np.exp(np.concatenate([[-np.inf], bottom - err - self.log_env[1:-1], [-np.inf]]))
        # a subnormal ratio has lost bits that its squeeze needs: no squeeze there
        self.ratio = np.where(ratio < _TINY, 0.0, ratio)
        self.power = np.concatenate([[1.0 / a], np.ones(p.size), [1.0 / b]])
        # per piece, what a draw above the squeeze reads: its proposal (lo,
        # width, power) and log(f / env) as the value at a reference point
        # of the piece plus the increments from there, (a-1) log1p(d / ref)
        # + (b-1) log1p(-d / (1 - ref)) with d = x - ref; an end piece reads
        # only the factor its proposal leaves out
        self._rows = np.stack([
            self.lo, self.width, self.power,
            np.concatenate([[0.0], p, [x_hi]]),
            np.concatenate([[0.0], 1.0 / p, [1.0 / x_hi]]),
            np.concatenate([[1.0], 1.0 / (1.0 - p), [0.0]]),
            np.where(self.kind == _LEFT, 0.0, am1),
            np.where(self.kind == _RIGHT, 0.0, bm1),
            np.concatenate([[at_ref[0]], ends[:-1], [at_ref[1]]]) - self.log_env,
        ], axis=1)
        prob = np.exp(log_area - log_area.max())
        self._alias(prob / prob.sum())

    def _alias(self, prob: np.ndarray) -> None:
        """Vose's alias table over 2^bits columns (pieces padded with empty
        ones): column c keeps piece c when the low bits of its word fall
        below its threshold and takes its alias otherwise.  Slot 2c is the
        column's own piece and slot 2c + 1 its alias."""
        n = prob.size
        self.bits = max(1, (n - 1).bit_length())
        cols = 1 << self.bits
        scaled = np.zeros(cols)
        scaled[:n] = prob * cols
        scaled = scaled.tolist()
        alias = list(range(cols))
        small = [i for i, s in enumerate(scaled) if s < 1.0]
        large = [i for i, s in enumerate(scaled) if s >= 1.0]
        while small and large:
            s, g = small.pop(), large[-1]
            alias[s] = g
            scaled[g] -= 1.0 - scaled[s]
            if scaled[g] < 1.0:
                small.append(large.pop())
        for i in small + large:  # left over by rounding: full columns
            scaled[i] = 1.0
        low = 2.0 ** (64 - self.bits)
        self._thr = np.minimum(np.array(scaled) * low, low).astype(np.uint64)
        own = np.minimum(np.arange(cols), n - 1)
        self.slot_piece = np.stack([own, np.array(alias)], axis=1).ravel()
        # per-slot copies of what every draw reads: a draw under the
        # squeeze lands at lo + (width / ratio) w
        self._slot_ratio = self.ratio[self.slot_piece]
        self._slot_lo = self.lo[self.slot_piece]
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = self.width[self.slot_piece] / self._slot_ratio
        self._slot_scale = np.where(self._slot_ratio > 0.0, scale, 0.0)
        self._shift = np.uint64(64 - self.bits)
        self._mask = np.uint64((1 << (64 - self.bits)) - 1)
        for v in vars(self).values():
            if isinstance(v, np.ndarray):
                v.setflags(write=False)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` Beta(a, b) draws from ``rng``."""
        out = np.empty(size)
        done = 0
        while done < size:
            done += self._candidates(rng, _round(size - done), out[done:])
        if self.flip:
            np.subtract(1.0, out, out=out)
        return out

    def sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        """Per entry of ``counts``, the sum of that many consecutive draws,
        the draws being those of ``draw(rng, counts.sum())``, summed a round
        at a time so that they are never all in memory at once."""
        total = np.zeros(counts.size)
        hit = counts.nonzero()[0]
        n = counts[hit]
        size = int(n.sum())
        if size == hit.size:  # one draw per scenario with a default, if any
            total[hit] = self.draw(rng, size)
            return total
        ends = np.cumsum(n)
        starts = ends - n
        block = np.empty(min(size, _BLOCK))
        done = 0
        while done < size:
            values = block[:self._candidates(rng, _round(size - done), block[:size - done])]
            if not values.size:  # a round that accepted no candidate
                continue
            if self.flip:
                np.subtract(1.0, values, out=values)
            # the scenarios whose draws overlap [done, stop); the first of
            # them may have begun in an earlier round
            stop = done + values.size
            first = np.searchsorted(ends, done, side="right") if done else 0
            last = hit.size if stop == size else np.searchsorted(starts, stop, side="left")
            cuts = starts[first:last] - done
            cuts[0] = 0
            total[hit[first:last]] += np.add.reduceat(values, cuts)
            done = stop
        return total

    def _candidates(self, rng, m: int, out: np.ndarray) -> int:
        """Draw m candidates and write the accepted ones, in candidate
        order, to the start of ``out``, as many as it holds; returns how
        many."""
        # the column from a word's top bits, its own piece or its alias by
        # the rest (a signed index gathers without a cast; each round-sized
        # temporary is released once read, so that few are held at a time)
        words = rng.bit_generator.random_raw(m)
        slot = (words >> self._shift).view(np.int64)
        words &= self._mask
        side = words >= self._thr[slot]
        del words
        slot <<= 1
        slot |= side
        w = rng.random(m)
        keep = w < self._slot_ratio[slot]
        # under the squeeze w / ratio is uniform on [0, 1) and places the draw
        x = self._slot_lo[slot]
        step = self._slot_scale[slot]
        step *= w
        x += step
        del step
        # a draw above it (every draw of an end piece) takes a fresh place
        # and the density
        cap = np.logical_not(keep).nonzero()[0]
        if cap.size:
            piece = self.slot_piece[slot[cap]]
            x[cap] = x_cap = self._place(piece, rng.random(cap.size))
            keep[cap] = w[cap] < np.exp(self._log_ratio(piece, x_cap))
        # the last round keeps the first draws
        x = x[keep][:out.size]
        out[:x.size] = x
        return x.size

    def _place(self, piece, v) -> np.ndarray:
        """Points at fraction v of the pieces' proposals: uniform inside an
        interior piece (its power is 1), the power law on an end piece."""
        lo, width, power = self._rows[piece, :3].T
        return lo + width * np.power(v, power)

    def _log_ratio(self, piece, x) -> np.ndarray:
        """log(f(x) / env(x)) at points x of the given pieces (x below 1 in
        every piece but the right end, whose inverse 1 - ref is zero, so
        no log1p reads -1)."""
        ref, inv_ref, inv_cref, coef1, coef2, base = self._rows[piece, 3:].T
        d = x - ref
        return base + coef1 * np.log1p(d * inv_ref) + coef2 * np.log1p(-(d * inv_cref))
