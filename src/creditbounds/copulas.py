"""Bivariate copula families used to couple borrowers to the common factor.

Five families cover the engine's needs: the independence copula, the
comonotone (upper Frechet) copula, the Gaussian copula with non-negative
correlation, and the Clayton copula together with its survival copula.
All of them are stochastically increasing (SI), i.e. concave in the second
argument, which is what makes the factor construction monotone.

Every object is a frozen dataclass; operations are pure and accept scalars
or numpy arrays (broadcasting elementwise, returning floats for scalar
input).  Each boundary rule is stated once: ``_on_inner`` for the first
argument of a conditional and its inverse, ``_with_margins`` for the edges
of a CDF.  Both conditionals read v through a ``Factor``, whose transforms
(norm_ppf, log, 1 - v) are computed once however many conditionals read it.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._normal import bvn_cdf, norm_cdf, norm_ppf

__all__ = [
    "Factor",
    "Copula",
    "Independence",
    "Comonotone",
    "Gaussian",
    "Clayton",
    "SurvivalClayton",
    "CHECK_TOL",
    "clayton_theta_matching_gaussian",
    "is_pointwise_leq",
    "check_si",
]


# slack of the grid-based copula and profile checks on sign conditions
# (2-increasingness, concavity, pointwise ordering) whose exact value is zero
# up to floating point noise
CHECK_TOL = 1e-9


def _as_unit(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} contains NaN")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _as_open_unit(x, name):
    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise ValueError(f"{name} contains NaN")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"{name} must lie in the open interval (0, 1)")
    return arr


def _scalar_or_array(x, *inputs):
    if all(np.ndim(i) == 0 for i in inputs):
        return float(x)
    return x


class Factor:
    """Uniformized factor values with their transforms, each computed at most once.

    Every borrower's conditional default probability is a function of the
    same factor draw, so one ``Factor`` serves every conditional evaluated
    on it.  ``clipped`` keeps t inside (0, 1), where every transform is
    finite; ``flip`` is 1 - t with transforms of its own.  ``f[mask]`` is
    the subset, carrying the transforms already computed.
    """

    def __init__(self, t):
        self.t = np.asarray(t, dtype=float)

    @cached_property
    def clipped(self) -> "Factor":
        return Factor(np.clip(self.t, 1e-300, 1.0 - 1e-16))

    @cached_property
    def ppf(self) -> np.ndarray:
        return norm_ppf(self.t)

    @cached_property
    def log(self) -> np.ndarray:
        return np.log(self.t)

    @cached_property
    def flip(self) -> "Factor":
        return Factor(1.0 - self.t)

    def __getitem__(self, mask) -> "Factor":
        sub = object.__new__(Factor)
        vars(sub).update((name, value[mask]) for name, value in vars(self).items())
        return sub


def _on_inner(u, f: Factor, fn):
    """fn(u, f) where 0 < u < 1, else 0 (u <= 0) or 1 (u >= 1).  A scalar u
    inside (0, 1), as every default profile passes, stays a scalar."""
    if np.ndim(u) == 0 and 0.0 < u < 1.0:
        return fn(u, f)
    u, t = np.broadcast_arrays(u, f.t)
    inner = (u > 0.0) & (u < 1.0)
    out = np.where(u >= 1.0, 1.0, 0.0)
    out[inner] = fn(u[inner], Factor(t[inner]))
    return out


def _with_margins(u, v, fn):
    """fn(u, v) inside (0, 1)^2; on the edges the copula's exact margins:
    0 where u or v is 0, the other argument where one of them is 1.  A scalar
    u inside (0, 1), as every default profile passes, stays a scalar."""
    scalar = np.ndim(u) == 0 and 0.0 < u < 1.0
    if not scalar:
        u, v = np.broadcast_arrays(u, v)
    out = np.where((v >= 1.0) & (u > 0.0), u, np.where((u >= 1.0) & (v > 0.0), v, 0.0))
    inner = (u > 0.0) & (v > 0.0) & (u < 1.0) & (v < 1.0)
    out[inner] = fn(u if scalar else u[inner], v[inner])
    return out


class Copula(ABC):
    """Bivariate copula interface: CDF, conditionals, survival transform."""

    @abstractmethod
    def _cdf(self, u, v):
        """C(u, v) on validated arrays; families with a closed form only inside
        the unit square take their edges from ``_with_margins``."""

    @abstractmethod
    def _conditional(self, u, f: Factor):
        """C(u | v) = d C(u, v) / dv for validated u and the factor f of v in (0, 1);
        continuous conditionals take the edges u in {0, 1} from ``_on_inner``."""

    @abstractmethod
    def _inverse_conditional(self, t, f: Factor):
        """Generalized inverse of u -> C(u | v) for validated t and the factor f of v;
        continuous conditionals take the edges t in {0, 1} from ``_on_inner``."""

    @abstractmethod
    def survival(self) -> "Copula":
        """The survival copula u + v - 1 + C(1-u, 1-v), as a family member."""

    @abstractmethod
    def kendall_tau(self) -> float:
        """Kendall's tau from the family's closed form."""

    def cdf(self, u, v):
        """Evaluate C(u, v) for u, v in [0, 1]."""
        u = _as_unit(u, "u")
        v = _as_unit(v, "v")
        return _scalar_or_array(self._cdf(u, v), u, v)

    def conditional(self, u, v):
        """Evaluate C(u | v) = P(U <= u | V = v) for u in [0, 1], v in (0, 1).

        The conditional CDF only exists for almost every v, so the
        endpoints v = 0 and v = 1 are rejected rather than extended by
        limits.
        """
        u = _as_unit(u, "u")
        v = _as_open_unit(v, "v")
        return _scalar_or_array(self._conditional(u, Factor(v)), u, v)

    def inverse_conditional(self, t, v):
        """Evaluate inf{u : C(u | v) >= t} for t in [0, 1], v in (0, 1)."""
        t = _as_unit(t, "t")
        v = _as_open_unit(v, "v")
        return _scalar_or_array(self._inverse_conditional(t, Factor(v)), t, v)


@dataclass(frozen=True)
class Independence(Copula):
    """Product copula: C(u, v) = u v."""

    def _cdf(self, u, v):
        return u * v

    def _conditional(self, u, f):
        return np.broadcast_arrays(u, f.t)[0].copy()

    _inverse_conditional = _conditional  # u -> C(u | v) = u is its own inverse

    def survival(self):
        return Independence()

    def kendall_tau(self):
        return 0.0


@dataclass(frozen=True)
class Comonotone(Copula):
    """Upper Frechet copula: C(u, v) = min(u, v)."""

    def _cdf(self, u, v):
        return np.minimum(u, v)

    def _conditional(self, u, f):
        return np.where(u >= f.t, 1.0, 0.0)

    def _inverse_conditional(self, t, f):
        # the step 1{u >= v} reaches every t in (0, 1] at u = v
        t, v = np.broadcast_arrays(t, f.t)
        return np.where(t > 0.0, v, 0.0)

    def survival(self):
        return Comonotone()

    def kendall_tau(self):
        return 1.0


@dataclass(frozen=True)
class Gaussian(Copula):
    """Gaussian copula with correlation parameter r in [0, 1].

    Only non-negative parameters are admitted because the factor
    construction requires the SI property, which the Gaussian copula has
    exactly for r >= 0.
    """

    r: float

    def __post_init__(self):
        if not (0.0 <= self.r <= 1.0) or math.isnan(self.r):
            raise ValueError(f"Gaussian copula parameter must lie in [0, 1], got {self.r}")

    # r = 0 is the independence copula and r = 1 the comonotone one
    def _cdf(self, u, v):
        if self.r == 0.0:
            return Independence()._cdf(u, v)
        if self.r == 1.0:
            return Comonotone()._cdf(u, v)
        return _with_margins(u, v, lambda u, v: bvn_cdf(norm_ppf(u), norm_ppf(v), self.r))

    def _conditional(self, u, f):
        if self.r == 1.0:
            return Comonotone()._conditional(u, f)
        s = math.sqrt(1.0 - self.r * self.r)
        return _on_inner(u, f, lambda u, f: norm_cdf((norm_ppf(u) - self.r * f.ppf) / s))

    def _inverse_conditional(self, t, f):
        if self.r == 1.0:
            return Comonotone()._inverse_conditional(t, f)
        s = math.sqrt(1.0 - self.r * self.r)
        return _on_inner(t, f, lambda t, f: norm_cdf(self.r * f.ppf + s * norm_ppf(t)))

    def _level(self, u, w):
        """The factor level v with C(u | v) = w, for a scalar u and w in (0, 1)."""
        return norm_cdf((norm_ppf(u) - math.sqrt(1.0 - self.r * self.r) * norm_ppf(w)) / self.r)

    def survival(self):
        # the bivariate normal is radially symmetric
        return Gaussian(self.r)

    def kendall_tau(self):
        return 2.0 / math.pi * math.asin(self.r)


def _log_expm1(x):
    """log(exp(x) - 1) for x >= 0 without overflow."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return np.where(x > 30.0, x, np.log(np.expm1(np.minimum(x, 30.0))))


def _clayton_log_s(log_u, log_v, theta):
    """log(u^-theta + v^-theta - 1) from log u, log v; stable for large theta, small u, v."""
    a = -theta * log_u
    b = -theta * log_v
    m = np.maximum(a, b)
    return m + np.log(np.exp(a - m) + np.exp(b - m) - np.exp(-m))


@dataclass(frozen=True)
class Clayton(Copula):
    """Clayton copula with parameter theta > 0 (lower tail dependent)."""

    theta: float

    def __post_init__(self):
        if not (self.theta > 0.0) or math.isinf(self.theta):
            raise ValueError(f"Clayton parameter must be a finite positive real, got {self.theta}")

    def _cdf(self, u, v):
        th = self.theta
        return _with_margins(u, v, lambda u, v: np.exp(
            -_clayton_log_s(np.log(u), np.log(v), th) / th))

    def _conditional(self, u, f):
        th = self.theta
        return _on_inner(u, f, lambda u, f: np.minimum(1.0, np.exp(
            -(th + 1.0) * f.log - (1.0 / th + 1.0) * _clayton_log_s(np.log(u), f.log, th))))

    def _inverse_conditional(self, t, f):
        # u^-theta = v^-theta (t^(-theta/(theta+1)) - 1) + 1
        th = self.theta
        return _on_inner(t, f, lambda t, f: np.exp(-np.logaddexp(
            -th * f.log + _log_expm1(-th / (th + 1.0) * np.log(t)), 0.0) / th))

    def _level(self, u, w):
        # C(u | v) = (1 + v^theta (u^-theta - 1))^(-(theta+1)/theta)
        th = self.theta
        return np.exp((_log_expm1(-th / (th + 1.0) * np.log(w)) - _log_expm1(-th * np.log(u))) / th)

    def survival(self):
        return SurvivalClayton(self.theta)

    def kendall_tau(self):
        return self.theta / (self.theta + 2.0)


@dataclass(frozen=True)
class SurvivalClayton(Copula):
    """Survival Clayton copula with parameter theta > 0 (upper tail dependent)."""

    theta: float

    def __post_init__(self):
        self._base()  # the Clayton constructor checks theta

    def _base(self):
        return Clayton(self.theta)

    def _cdf(self, u, v):
        return _with_margins(u, v, lambda u, v: np.maximum(
            0.0, u + v - 1.0 + self._base()._cdf(1.0 - u, 1.0 - v)))

    def _conditional(self, u, f):
        out = _on_inner(u, f, lambda u, f: 1.0 - self._base()._conditional(1.0 - u, f.flip))
        return np.clip(out, 0.0, 1.0)

    def _inverse_conditional(self, t, f):
        # C(u|v) = 1 - C_cl(1-u | 1-v) is continuous and strictly increasing
        # in u, so the generalized inverse reduces to the Clayton one.
        return _on_inner(t, f, lambda t, f: 1.0 - self._base()._inverse_conditional(1.0 - t, f.flip))

    def _level(self, u, w):
        return 1.0 - self._base()._level(1.0 - u, 1.0 - w)

    def survival(self):
        return Clayton(self.theta)

    def kendall_tau(self):
        return self.theta / (self.theta + 2.0)


def clayton_theta_matching_gaussian(asset_corr: float) -> float:
    """Clayton parameter with the same Kendall's tau as the Gaussian copula
    implied by an asset correlation.

    The Gaussian copula parameter is the factor loading sqrt(asset_corr);
    its tau is (2/pi) arcsin(r), and theta = 2 tau / (1 - tau) inverts the
    Clayton tau formula theta / (theta + 2).
    """
    if not (0.0 < asset_corr < 1.0) or math.isnan(asset_corr):
        raise ValueError(f"asset correlation must lie in (0, 1), got {asset_corr}")
    tau = Gaussian(math.sqrt(asset_corr)).kendall_tau()
    return 2.0 * tau / (1.0 - tau)


# points per axis of the open grid on which copulas are compared and checked
# for stochastic increasingness
_CHECK_GRID_N = 64


def _open_grid() -> np.ndarray:
    return np.arange(1, _CHECK_GRID_N + 1) / (_CHECK_GRID_N + 1.0)


def is_pointwise_leq(a: Copula, b: Copula) -> bool:
    """True iff a.cdf <= b.cdf (within tolerance) on a uniform grid over (0,1)^2."""
    g = _open_grid()
    u = g[:, None]
    v = g[None, :]
    return bool(np.all(a.cdf(u, v) <= b.cdf(u, v) + CHECK_TOL))


def check_si(c: Copula) -> bool:
    """True iff v -> C(u, v) is concave on the grid for every grid u.

    Concavity of the CDF in the conditioning argument is equivalent to the
    copula being stochastically increasing.
    """
    g = _open_grid()
    cvals = c.cdf(g[:, None], g[None, :])
    second = cvals[:, 2:] - 2.0 * cvals[:, 1:-1] + cvals[:, :-2]
    return bool(np.all(second <= CHECK_TOL))
