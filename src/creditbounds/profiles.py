"""Default integral functions: each borrower's cumulative dependence on the factor.

A profile G is an increasing convex function on [0, 1] with G(0) = 0,
G(1) = pd and Lipschitz constant at most one.  Its derivative is the
conditional default probability as a function of the uniformized factor;
G itself is what the comparison machinery orders pointwise: a smaller G
means stronger positive dependence on the factor and hence a riskier
borrower.

Profiles come in four flavours: the independence line, the comonotone
kink, copula-backed analytic profiles (G(s) = s - C_hat(1 - pd, s)) and
grid-backed profiles.  Envelopes (pointwise max / min over a family) are
represented exactly through their members, bridging with straight
segments only where the pointwise min fails convexity.
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .copulas import CHECK_TOL, Copula, Factor, Gaussian, Clayton, SurvivalClayton, check_si
from .copulas import _as_open_unit, _as_unit, _scalar_or_array

__all__ = [
    "DefaultProfile",
    "IndependentProfile",
    "ComonotoneProfile",
    "CopulaProfile",
    "GridProfile",
    "EnvelopeProfile",
    "ProfileEnvelope",
    "TabulatedPdCurve",
    "profile_from_copula",
    "gaussian_profile",
    "clayton_profile",
    "survival_clayton_profile",
    "envelope",
    "increasing_rearrangement",
    "check_membership",
    "validate_profile",
    "curve_table",
    "ModelSpec",
    "MODELS",
    "model_spec",
    "PROFILE_GRID_N",
]

# knots for grid-backed forms and for all envelope / membership checks
PROFILE_GRID_N = 1001


def _check_pd(pd: float) -> float:
    if not (0.0 < pd < 1.0):  # NaN included
        raise ValueError(f"pd must lie in (0, 1), got {pd}")
    return float(pd)


def _cell(t: np.ndarray, n: int) -> np.ndarray:
    """Index of the uniform cell [i/n, (i+1)/n) of [0, 1] that holds each t."""
    return np.clip((t * n).astype(int), 0, n - 1)


def _checked_pd(p: np.ndarray) -> np.ndarray:
    """p unchanged, or a ValueError for p outside [0, 1] or NaN."""
    if p.size and not (0.0 <= p.min() and p.max() <= 1.0):
        raise ValueError("p < 0, p > 1 or p contains NaNs")
    return p


def _downward_steps(steps: np.ndarray) -> np.ndarray:
    """Cell edges where a step function over uniform cells of [0, 1] decreases."""
    return (np.flatnonzero(np.diff(steps) < 0.0) + 1) / steps.size


# uniform factor cells of a profile's cell bounds, and the absolute slack by
# which an evaluated pd may fall short of (or exceed) a cell's edge values
_PD_CELLS = 1 << 12
_PD_SLACK = 1e-12


@cache
def _table_edges() -> Factor:
    """Read-only factor at the edges of the ``_PD_CELLS`` cells, shared by
    every profile, with the transforms of the copula conditionals computed once."""
    f = Factor(np.linspace(0.0, 1.0, _PD_CELLS + 1))
    c = f.clipped
    for a in (f.t, c.t, c.ppf, c.log, c.flip.t, c.flip.log):
        a.setflags(write=False)
    return f


class DefaultProfile(ABC):
    """Interface shared by all default integral functions."""

    pd: float

    def __post_init__(self):
        _check_pd(self.pd)

    @abstractmethod
    def _g(self, s: np.ndarray) -> np.ndarray:
        """G(s) on unvalidated arrays with s in [0, 1]."""

    @abstractmethod
    def _cpd(self, f: Factor) -> np.ndarray:
        """Conditional default probability G'(t) on the one-dimensional factor f."""

    @abstractmethod
    def group_key(self) -> tuple:
        """Hashable identity used to pool identical borrowers in simulation."""

    def g(self, s):
        """Evaluate G(s) for s in [0, 1]."""
        s = _as_unit(s, "s")
        return _scalar_or_array(self._g(s), s)

    def _pd_at(self, f: Factor) -> np.ndarray:
        """G'(t) on the factor f clipped to [0, 1]; a NaN raises ValueError."""
        return _checked_pd(np.clip(self._cpd(f), 0.0, 1.0))

    def _breakpoints(self) -> np.ndarray:
        """Factor levels where the conditional pd may decrease."""
        return np.empty(0)

    def _cell_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) per uniform factor cell: the clipped pd p is nondecreasing
        in the factor t, so on the cell [e_c, e_(c+1)) it lies within
        [lo_c, hi_c] = [p(e_c), p(e_(c+1))] widened by ``_PD_SLACK``.  A cell
        where p may decrease (its edge values decrease, or it or a neighbour
        holds a breakpoint) gets [0, inf), which bounds nothing."""
        p = self._pd_at(_table_edges())
        lo, hi = p[:-1] - _PD_SLACK, p[1:] + _PD_SLACK
        monotone = np.diff(p) >= 0.0
        near = np.floor(self._breakpoints() * _PD_CELLS).astype(int)
        monotone[np.clip(np.concatenate([near - 1, near, near + 1]), 0, _PD_CELLS - 1)] = False
        lo[~monotone], hi[~monotone] = 0.0, np.inf
        return lo, hi

    def conditional_pd(self, t):
        """Conditional default probability at factor level t in (0, 1)."""
        t = _as_open_unit(t, "t")
        return _scalar_or_array(self._pd_at(Factor(t.ravel())).reshape(t.shape), t)


@dataclass(frozen=True)
class IndependentProfile(DefaultProfile):
    """G(s) = pd * s: defaults carry no information about the factor."""

    pd: float

    def _g(self, s):
        return self.pd * s

    def _cpd(self, f):
        return np.full(f.t.shape, self.pd)

    def group_key(self):
        return ("independent", self.pd)


@dataclass(frozen=True)
class ComonotoneProfile(DefaultProfile):
    """G(s) = (s - 1 + pd)^+ : default is a deterministic function of the factor."""

    pd: float

    def _g(self, s):
        return np.maximum(0.0, s - 1.0 + self.pd)

    def _cpd(self, f):
        return np.where(f.t >= 1.0 - self.pd, 1.0, 0.0)

    def group_key(self):
        return ("comonotone", self.pd)


@dataclass(frozen=True)
class CopulaProfile(DefaultProfile):
    """Profile of a threshold model whose latent-factor copula is SI.

    With C the copula of the latent variable and the factor, the default
    indicator couples to the factor through the survival copula, giving
    G(s) = s - C_hat(1 - pd, s) and G'(t) = 1 - C_hat(1 - pd | t).
    """

    copula: Copula
    pd: float

    def _g(self, s):
        return s - self.copula.survival()._cdf(np.asarray(1.0 - self.pd), np.asarray(s))

    def _cpd(self, f):
        """1 - C_hat(1 - pd | t), reading the shared factor transforms (norm_ppf,
        log, log(1 - t)) computed once per chunk; the threshold 1 - pd stays a scalar."""
        return 1.0 - self.copula.survival()._conditional(1.0 - self.pd, f.clipped)

    def group_key(self):
        return ("copula", repr(self.copula), self.pd)


@dataclass(frozen=True, eq=False)
class GridProfile(DefaultProfile):
    """Piecewise-linear G on uniformly spaced knots over [0, 1].

    The derivative is the forward difference, i.e. a step function that is
    constant on each knot interval.
    """

    knots: np.ndarray  # G values on a uniform grid including both endpoints
    pd: float

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "knots", np.asarray(self.knots, dtype=float))
        if self.knots.ndim != 1 or self.knots.size < 2:
            raise ValueError("grid profile needs at least two knot values")

    @property
    def _n_cells(self) -> int:
        return self.knots.size - 1

    def _grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.knots.size)

    def _slopes(self) -> np.ndarray:
        return np.diff(self.knots) * self._n_cells

    def _g(self, s):
        return np.interp(s, self._grid(), self.knots)

    def _cpd(self, f):
        return self._slopes()[_cell(f.t, self._n_cells)]

    def _breakpoints(self):
        # nothing requires the knots of a grid profile to be convex
        return _downward_steps(self._slopes())

    def group_key(self):
        return ("grid", self.pd, self.knots.tobytes())


@dataclass(frozen=True, eq=False)
class EnvelopeProfile(DefaultProfile):
    """Pointwise max or min of member profiles, evaluated through the members.

    For the pointwise min, ``bridges`` lists the straight segments of the
    greatest convex minorant wherever the raw min has a concave kink; the
    raw min is kept when ``bridges`` is empty.
    """

    members: tuple
    take: str  # "max" or "min"
    pd: float
    bridges: tuple = field(default_factory=tuple)  # (a, b, g(a), g(b)) segments

    def __post_init__(self):
        super().__post_init__()
        if self.take not in ("max", "min"):
            raise ValueError("take must be 'max' or 'min'")

    def _member_values(self, s):
        return np.stack([m._g(s) for m in self.members])

    def _g(self, s):
        s = np.asarray(s, dtype=float)
        vals = self._member_values(s)
        out = vals.max(axis=0) if self.take == "max" else vals.min(axis=0)
        out = np.atleast_1d(out)
        flat_s = np.atleast_1d(s)
        for a, b, ga, gb in self.bridges:
            mask = (flat_s > a) & (flat_s < b)
            if np.any(mask):
                chord = ga + (gb - ga) * (flat_s[mask] - a) / (b - a)
                out[mask] = np.minimum(out[mask], chord)
        return out.reshape(np.shape(s))

    @cached_property
    def _selection(self):
        """Piecewise member choice: (boundaries, member index per piece).

        Boundaries are located on a fine grid once; inside a bridge the
        choice is irrelevant because the chord slope overrides the
        derivative there.  Threads that compute it at once get equal arrays.
        """
        # cell midpoints: all members tie exactly at s = 0 and s = 1,
        # which would otherwise corrupt the first and last piece
        n = 4 * PROFILE_GRID_N
        s = (np.arange(n) + 0.5) / n
        vals = self._member_values(s)
        pick = vals.argmax(axis=0) if self.take == "max" else vals.argmin(axis=0)
        change = np.flatnonzero(np.diff(pick))
        boundaries = 0.5 * (s[change] + s[change + 1])
        piece_members = np.concatenate([pick[change], [pick[-1]]])
        return boundaries, piece_members

    def _cpd(self, f):
        boundaries, piece_members = self._selection
        pick = piece_members[np.searchsorted(boundaries, f.t, side="right")]
        out = np.empty(f.t.shape)
        for i, m in enumerate(self.members):
            mask = pick == i
            if np.any(mask):
                out[mask] = m._cpd(f[mask])
        for a, b, ga, gb in self.bridges:
            mask = (f.t > a) & (f.t < b)
            out[mask] = (gb - ga) / (b - a)
        return out

    def _breakpoints(self):
        """The selection boundaries and the bridge ends."""
        boundaries, _ = self._selection
        return np.concatenate([boundaries, [x for a, b, *_ in self.bridges for x in (a, b)]])

    def group_key(self):
        return ("envelope", self.take, self.pd, self.bridges,
                tuple(m.group_key() for m in self.members))


@dataclass(frozen=True)
class ProfileEnvelope:
    """Lower/upper default integral bounds of a profile family.

    ``lower`` is the pointwise max of the family (the least risky bound),
    ``upper`` the pointwise min (the riskiest); the names follow the loss
    ordering, not the curve ordering, so lower.g >= upper.g pointwise.
    """

    lower: DefaultProfile
    upper: DefaultProfile

    @property
    def pd(self) -> float:
        return self.lower.pd


def profile_from_copula(copula: Copula, pd: float) -> CopulaProfile:
    """Build the default profile of a threshold model with the given SI copula."""
    if not check_si(copula):
        raise ValueError(f"{copula!r} is not stochastically increasing; cannot build a profile")
    return CopulaProfile(copula, _check_pd(pd))


def gaussian_profile(asset_corr: float, pd: float) -> CopulaProfile:
    """Profile of the one-factor Gaussian threshold model.

    ``asset_corr`` is the squared factor loading; the latent copula
    parameter is its square root.
    """
    if not (0.0 < asset_corr < 1.0):
        raise ValueError(f"asset correlation must lie in (0, 1), got {asset_corr}")
    return CopulaProfile(Gaussian(math.sqrt(asset_corr)), _check_pd(pd))


def clayton_profile(theta: float, pd: float) -> CopulaProfile:
    """Profile of the Clayton-coupled threshold model (lower tail dependent)."""
    return CopulaProfile(Clayton(theta), _check_pd(pd))


def survival_clayton_profile(theta: float, pd: float) -> CopulaProfile:
    """Profile of the survival-Clayton-coupled threshold model (upper tail dependent)."""
    return CopulaProfile(SurvivalClayton(theta), _check_pd(pd))


def increasing_rearrangement(values) -> np.ndarray:
    """Sorted (ascending) copy of the values; preserves the multiset."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a one-dimensional array of values")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    return np.sort(arr)


@dataclass(frozen=True, eq=False)
class TabulatedPdCurve:
    """Conditional default probability step curve that need not be monotone.

    Used for general (not stochastically increasing) mixture models, mainly
    to demonstrate that sorting the curve dominates it in convex order.
    ``values[i]`` applies on the factor cell [i/n, (i+1)/n).
    """

    values: np.ndarray

    def __post_init__(self):
        arr = _as_unit(self.values, "conditional default probabilities")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("expected a one-dimensional array of probabilities")
        object.__setattr__(self, "values", arr)

    @property
    def pd(self) -> float:
        return float(self.values.mean())

    def _cpd(self, f):
        return self.values[_cell(f.t, self.values.size)]

    def _breakpoints(self):
        return _downward_steps(self.values)

    _pd_at = DefaultProfile._pd_at
    _cell_bounds = DefaultProfile._cell_bounds
    conditional_pd = DefaultProfile.conditional_pd

    def group_key(self):
        return ("pd_curve", self.values.tobytes())

    def rearranged_profile(self) -> GridProfile:
        """Grid profile of the stochastically increasing rearrangement."""
        sorted_values = increasing_rearrangement(self.values)
        knots = np.concatenate([[0.0], np.cumsum(sorted_values) / sorted_values.size])
        return GridProfile(knots, float(knots[-1]))


def validate_profile(profile) -> None:
    """Raise if the profile violates the default-integral-function axioms."""
    s = np.linspace(0.0, 1.0, PROFILE_GRID_N)
    g = profile._g(s)
    h = s[1] - s[0]
    if abs(g[0]) > 1e-12:
        raise ValueError(f"G(0) = {g[0]:.3e} is not 0")
    if abs(g[-1] - profile.pd) > 1e-9:
        raise ValueError(f"G(1) = {g[-1]:.10f} does not match pd = {profile.pd}")
    steps = np.diff(g)
    if np.any(steps < -CHECK_TOL):
        raise ValueError("G is not increasing")
    if np.any(steps > h + CHECK_TOL):
        raise ValueError("G violates the unit Lipschitz bound")
    second = g[2:] - 2.0 * g[1:-1] + g[:-2]
    if np.any(second < -CHECK_TOL):
        raise ValueError("G is not convex")


def _dominating_member(values: np.ndarray, take: str):
    """Index of a member attaining the max/min everywhere, or None."""
    target = values.max(axis=0) if take == "max" else values.min(axis=0)
    for i in range(values.shape[0]):
        if np.all(np.abs(values[i] - target) <= 1e-14):
            return i
    return None


def _lower_hull_indices(x: np.ndarray, y: np.ndarray) -> list:
    """Vertex indices of the lower convex hull of the graph points."""
    hull: list = []
    for i in range(x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            cross = (x[i1] - x[i0]) * (y[i] - y[i0]) - (y[i1] - y[i0]) * (x[i] - x[i0])
            if cross <= 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


# smallest slope decrease treated as a real concave kink; fp noise in the
# analytic profiles stays orders of magnitude below this
_SLOPE_DROP_TOL = 1e-7


def _min_envelope(members: tuple, pd: float, s: np.ndarray, values: np.ndarray) -> DefaultProfile:
    fine = np.linspace(0.0, 1.0, 4 * PROFILE_GRID_N)
    fine_values = np.stack([m._g(fine) for m in members])
    idx = _dominating_member(fine_values, "min")
    if idx is not None:
        return members[idx]
    slopes = np.diff(fine_values.min(axis=0)) * (fine.size - 1)
    if np.all(np.diff(slopes) >= -_SLOPE_DROP_TOL):
        return EnvelopeProfile(members, "min", pd)
    # repair: greatest convex minorant, replacing kinked stretches by chords.
    # The hull is anchored on the standard profile grid so that the repaired
    # values are a convex sequence exactly where the axioms are checked.
    raw = values.min(axis=0)
    hull = _lower_hull_indices(s, raw)
    bridges = []
    for a, b in zip(hull[:-1], hull[1:]):
        if b - a > 1:
            chord = raw[a] + (raw[b] - raw[a]) * (s[a + 1:b] - s[a]) / (s[b] - s[a])
            if np.any(raw[a + 1:b] > chord + 1e-13):
                bridges.append((float(s[a]), float(s[b]), float(raw[a]), float(raw[b])))
    warnings.warn(
        "pointwise min of the profile family is not convex; "
        f"replaced by its greatest convex minorant across {len(bridges)} segment(s)",
        stacklevel=3,
    )
    return EnvelopeProfile(members, "min", pd, tuple(bridges))


def envelope(profiles) -> ProfileEnvelope:
    """Lower/upper default integral bounds of a non-empty profile family.

    All members must share the same default probability.  Whenever one
    member attains the pointwise max (min) everywhere it is returned
    directly; otherwise an exact envelope object backed by the members is
    built.  A non-convex pointwise min is repaired to its greatest convex
    minorant with a warning.
    """
    members = tuple(profiles)
    if not members:
        raise ValueError("profile family must not be empty")
    pd = members[0].pd
    if any(abs(m.pd - pd) > 1e-12 for m in members):
        raise ValueError("all profiles in a family must share the same default probability")
    if len(members) == 1:
        return ProfileEnvelope(members[0], members[0])

    s = np.linspace(0.0, 1.0, PROFILE_GRID_N)
    values = np.stack([m._g(s) for m in members])

    idx = _dominating_member(values, "max")
    lower = members[idx] if idx is not None else EnvelopeProfile(members, "max", pd)
    upper = _min_envelope(members, pd, s, values)
    validate_profile(lower)
    validate_profile(upper)
    return ProfileEnvelope(lower, upper)


def check_membership(profile, env: ProfileEnvelope) -> bool:
    """True iff the profile lies between the envelope bounds on the grid.

    The upper envelope bounds profiles from below in G (it is the pointwise
    min) and the lower envelope from above; the naming follows the loss
    ordering.
    """
    if abs(profile.pd - env.pd) > 1e-12:
        raise ValueError("profile and envelope default probabilities differ")
    s = np.linspace(0.0, 1.0, PROFILE_GRID_N)
    g = profile._g(s)
    return bool(
        np.all(env.upper._g(s) <= g + CHECK_TOL) and np.all(g <= env.lower._g(s) + CHECK_TOL)
    )


def curve_table(profile):
    """(s, G(s), conditional_pd(s)) columns on a uniform grid, for CSV export.

    The derivative column is evaluated just inside the open interval at the
    endpoints, where the conditional default probability itself is defined
    only almost everywhere.
    """
    s = np.linspace(0.0, 1.0, PROFILE_GRID_N)
    g = profile._g(s)
    t = np.clip(s, 1e-12, 1.0 - 1e-12)
    return s, g, profile._pd_at(Factor(t))


@dataclass(frozen=True)
class ModelSpec:
    """How one model family turns a borrower into default profiles.

    ``point`` builds the family's point profile and ``interval`` its
    (lower, upper) bound profiles, both from a borrower and its point copula.
    Families without an interval have one member, which is both bounds.
    ``per_copula`` families read the borrower's point copula instead of its
    correlations.
    """

    label: str
    point: Callable
    interval: Callable | None = None
    per_copula: bool = False

    def bounds(self, borrower, copula=None) -> tuple:
        if self.interval is None:
            p = self.point(borrower, copula)
            return p, p
        return self.interval(borrower, copula)

    def key(self, borrower, copula=None) -> tuple:
        """Borrowers with equal keys get identical profiles."""
        if self.per_copula:
            return (borrower.pd, repr(copula))
        return (borrower.pd, borrower.corr_interval, borrower.corr_point)

    def shared(self, borrowers, point_copulas=None) -> tuple[dict, list]:
        """Which borrowers share profiles: ({i: (borrower, copula)} for the
        first borrower i of each key, in borrower order, and per borrower the
        i of its key).  Only ``per_copula`` families read ``point_copulas``."""
        copulas = point_copulas if self.per_copula else [None] * len(borrowers)
        firsts, first_of_key, owners = {}, {}, []
        for i, (b, c) in enumerate(zip(borrowers, copulas)):
            owner = first_of_key.setdefault(self.key(b, c), i)
            if owner == i:
                firsts[i] = (b, c)
            owners.append(owner)
        return firsts, owners


def _gauss_clayton_bounds(b, copula):
    env = envelope([gaussian_profile(b.corr_point, b.pd), clayton_profile(b.theta_point, b.pd)])
    return env.lower, env.upper


# an interval lists (lower, upper): the low dependence parameter gives the
# pointwise-max G (least risky), the high one the pointwise min
MODELS = {
    "gaussian": ModelSpec(
        "Gaussian",
        lambda b, c: gaussian_profile(b.corr_point, b.pd),
        lambda b, c: tuple(gaussian_profile(r, b.pd) for r in b.corr_interval),
    ),
    "clayton": ModelSpec(
        "Clayton",
        lambda b, c: clayton_profile(b.theta_point, b.pd),
        lambda b, c: tuple(clayton_profile(th, b.pd) for th in b.theta_interval),
    ),
    "survival_clayton": ModelSpec(
        "Surv. Clayton",
        lambda b, c: survival_clayton_profile(b.theta_point, b.pd),
        lambda b, c: tuple(survival_clayton_profile(th, b.pd) for th in b.theta_interval),
    ),
    # the hybrid has no single point model; its point is the Gaussian generator
    "gauss_clayton": ModelSpec(
        "Gauss-Clayton",
        lambda b, c: gaussian_profile(b.corr_point, b.pd),
        _gauss_clayton_bounds,
    ),
    "independent": ModelSpec("Independent", lambda b, c: IndependentProfile(b.pd)),
    "comonotone": ModelSpec("Comonotone", lambda b, c: ComonotoneProfile(b.pd)),
    "single_point": ModelSpec(
        "Point", lambda b, c: profile_from_copula(c, b.pd), per_copula=True
    ),
}


def model_spec(name: str) -> ModelSpec:
    """The registered model family called ``name``."""
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; expected one of {tuple(MODELS)}") from None
