"""Univariate and bivariate standard normal helpers.

``norm_cdf`` and ``norm_ppf`` are numpy ports of Cephes ``ndtr`` and
``ndtri`` (Moshier 1989): the same rational forms, coefficients and order
of operations.  ``ndtr`` takes erf(x / sqrt 2) from a ratio of polynomials
for |x| < sqrt 2 and erfc from two rational forms beyond, split at
|x| = 8 sqrt 2.  It is within 5e-13 relative of Phi wherever Phi >= 1e-300,
the error growing into the far left tail because exp(-x^2 / 2) rounds x^2
first.  ``ndtri`` is a rational function of p - 1/2 on
[exp(-2), 1 - exp(-2)] and of 1 / sqrt(-2 log y), y = p or 1 - p, on the
tails, good to about 1e-16 relative.  Both are elementwise: any shape in
gives the same shape out and a scalar a numpy scalar; ``ndtri`` maps 0 and
1 to -inf and inf and NaN or a value outside [0, 1] to NaN, ``ndtr`` maps
-inf and inf to 0 and 1, and no floating-point warning escapes.  Each form
runs only on the values that need it (``_runs``): a monotone input, as the
factor draws and every transform of them are, splits into slices, and any
other is grouped by piece first.

The bivariate CDF follows Genz's rewrite of the Drezner-Wesolowsky
Gauss-Legendre scheme (bvn.m), which is accurate to about 5e-16 in
double precision and therefore well inside the 5e-9 budget the copula
layer assumes.  Its 20-point rule comes from ``_legendre_rule``, which also
gives the exact path its factor quadrature.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["norm_cdf", "norm_ppf", "bvn_cdf"]


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


# bvn's 20-point rule as the fractions 1 - x, 1 + x of its positive nodes x,
# descending, and their weights, in the order the terms are summed
_GL_X, _GL_W = _legendre_rule(20)
_GL_ARC = np.stack([1.0 + _GL_X[:10], 1.0 - _GL_X[:10]], axis=1).ravel()
_GL_ARC_W = np.repeat(_GL_W[:10], 2)

# |x| beyond this is 0/1 at double precision; clipping avoids inf*0 = nan.
_XMAX = 37.5


def _runs(x: np.ndarray, cuts) -> tuple:
    """(order, pieces): piece k of the 1-D x split at the ascending cut points
    is x[order][pieces[k]], or x[pieces[k]] where order is None.  Piece k
    holds the values v with cuts[k - 1] < v <= cuts[k]; one more piece holds
    the NaNs.  A monotone x needs no order; any other x is grouped by piece
    with a stable counting sort."""
    n = x.size
    order = None
    if n and x[0] <= x[-1] and (x[:-1] <= x[1:]).all():
        ends = np.searchsorted(x, cuts, side="right").tolist()
        bounds = [*zip([0, *ends], [*ends, n]), (n, n)]
    elif n and x[0] > x[-1] and (x[:-1] >= x[1:]).all():
        ends = (n - np.searchsorted(x[::-1], cuts, side="right")).tolist()
        bounds = [*zip([*ends, 0], [n, *ends]), (0, 0)]
    else:
        piece = np.searchsorted(cuts, x).astype(np.uint8)
        piece[np.isnan(x)] = len(cuts) + 1
        ends = np.cumsum(np.bincount(piece, minlength=len(cuts) + 2)).tolist()
        order, bounds = np.argsort(piece, kind="stable"), zip([0, *ends], ends)
    return order, [slice(a, b) for a, b in bounds]


def _in_order(values: np.ndarray, order) -> np.ndarray:
    """Values computed at x[order] (``_runs``) put back in the order of x."""
    if order is None:
        return values
    out = np.empty(values.shape)
    out[order] = values
    return out


def _elementwise(kernel):
    """A kernel on 1-D float arrays as an elementwise function of an array or
    a scalar.  Scalars are memoised: the copula conditionals pass the same
    thresholds 1 - pd on every call."""

    def apply(x: np.ndarray) -> np.ndarray:
        with np.errstate(under="ignore"):  # erfc is subnormal far out
            return kernel(x.ravel()).reshape(x.shape)

    @functools.lru_cache(maxsize=1024)
    def scalar(x: float):
        return apply(np.array(x))[()]

    @functools.wraps(kernel)
    def fn(x):
        if np.ndim(x) == 0:
            return scalar(float(x))
        return apply(np.asarray(x, dtype=float))

    return fn


def _polevl(x, coef, out):
    """coef[0] x^N + ... + coef[N] by Horner's rule, into out (not x)."""
    np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef, out):
    """x^N + coef[0] x^(N-1) + ... + coef[N-1], into out (not x)."""
    np.add(x, coef[0], out=out)
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _split(x, cut: float, lower, upper, out) -> None:
    """``lower(v, out)`` where x < cut and ``upper(v, out)`` elsewhere; each
    kernel, and so this, may write over its input."""
    high = x >= cut
    if not high.any():
        lower(x, out)
        return
    for kernel, mask in ((lower, ~high), (upper, high)):
        part = x[mask]
        if part.size:
            kernel(part, part)
            out[mask] = part


def _two_tails(kernel, lo: np.ndarray, hi: np.ndarray) -> None:
    """``kernel(v, v)`` over the values of both tails in place, in one call
    where both hold values."""
    if lo.size and hi.size:
        both = np.concatenate((lo, hi))
        kernel(both, both)
        lo[...], hi[...] = both[:lo.size], both[lo.size:]
    elif lo.size or hi.size:
        v = lo if lo.size else hi
        kernel(v, v)


# ndtri: a ratio in (p - 1/2)^2 on the central piece, and z P(z) / Q(z) in
# z = 1 / x, x = sqrt(-2 log y), for 2 <= x < 8 and for x >= 8
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_S2PI = 2.50662827463100050242  # sqrt(2 pi) as Cephes rounds it
# p < 0, p = 0, the low tail, the central piece, the high tail, p = 1, p > 1
_NDTRI_CUTS = (-5e-324, 0.0, _EXP_M2, 1.0 - _EXP_M2, np.nextafter(1.0, 0.0), 1.0)


def _ndtri_central(p, out):
    y2 = np.subtract(p, 0.5)
    y2 *= y2
    _polevl(y2, _P0, out)
    out *= y2
    out /= _p1evl(y2, _Q0, np.empty_like(y2))
    y = np.subtract(p, 0.5, out=y2)
    out *= y
    out += y
    out *= _S2PI


def _tail_ratio(p, q):
    """Kernel of z P(z) / Q(z) at z = 1 / x."""

    def kernel(x, out):
        z = np.divide(1.0, x, out=out)
        num = _polevl(z, p, np.empty_like(z))
        den = _p1evl(z, q, np.empty_like(z))
        z *= num
        z /= den

    return kernel


_TAIL_NEAR, _TAIL_FAR = _tail_ratio(_P1, _Q1), _tail_ratio(_P2, _Q2)


def _ndtri_tail(y, out):
    """-ndtri(y) for 0 < y <= exp(-2), into out, which may be y."""
    x = np.log(y, out=out)
    x *= -2.0
    np.sqrt(x, out=x)
    x1 = np.empty_like(x)
    _split(x, 8.0, _TAIL_NEAR, _TAIL_FAR, x1)
    x0 = np.log(x)
    x0 /= x
    x -= x0
    x -= x1


@_elementwise
def norm_ppf(p):
    """Standard normal quantile function, elementwise."""
    order, pieces = _runs(p, _NDTRI_CUTS)
    if order is not None:
        p = p[order]
    below, zero, low, central, high, one, above, nan = pieces
    out = np.empty(p.shape)
    for piece, value in ((below, np.nan), (zero, -np.inf), (one, np.inf), (above, np.nan),
                         (nan, np.nan)):
        out[piece] = value
    if p[central].size:
        _ndtri_central(p[central], out[central])
    lo = out[low]
    lo[...] = p[low]
    _two_tails(_ndtri_tail, lo, np.subtract(1.0, p[high], out=out[high]))
    np.negative(lo, out=lo)
    return _in_order(out, order)


# ndtr: erf(x) = x T(x^2) / U(x^2) for |x| < 1, erfc(z) = exp(-z^2) P(z) / Q(z)
# for 1 <= z < 8 and exp(-z^2) R(z) / S(z) for z >= 8
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_SQRT1_2 = 0.70710678118654752440


def _largest_root(bound: float) -> float:
    """The largest double whose square rounds to at most ``bound``."""
    r = math.sqrt(bound)
    while r * r > bound:
        r = math.nextafter(r, 0.0)
    while math.nextafter(r, math.inf) ** 2 <= bound:
        r = math.nextafter(r, math.inf)
    return r


# past this |x|, exp(-x^2) is below the least normal double and Cephes gives
# erfc 0; the pieces are 0, the left tail, erf, the right tail and 1
_X_UNDERFLOW = _largest_root(7.09782712893383996843e2)
_NDTR_CUTS = (np.nextafter(-_X_UNDERFLOW, -np.inf), -1.0, np.nextafter(1.0, 0.0), _X_UNDERFLOW)


def _half_erfc(p, q):
    """Kernel of erfc(z) / 2 = exp(-z^2) P(z) / Q(z) / 2."""

    def kernel(z, out):
        num = _polevl(z, p, np.empty_like(z))
        den = _p1evl(z, q, np.empty_like(z))
        e = np.multiply(z, z, out=out)
        np.negative(e, out=e)
        np.exp(e, out=e)
        e *= num
        e /= den
        e *= 0.5

    return kernel


_ERFC_NEAR, _ERFC_FAR = _half_erfc(_P, _Q), _half_erfc(_R, _S)


def _ndtr_tail(z, out):
    """0.5 erfc(z) for 1 <= z <= _X_UNDERFLOW, into out, which may be z."""
    _split(z, 8.0, _ERFC_NEAR, _ERFC_FAR, out)


@_elementwise
def norm_cdf(a):
    """Standard normal CDF, elementwise."""
    x = np.multiply(a, _SQRT1_2)
    order, pieces = _runs(x, _NDTR_CUTS)
    if order is not None:
        x = x[order]
    zero, left, mid, right, one, nan = pieces
    out = np.empty(x.shape)
    for piece, value in ((zero, 0.0), (one, 1.0), (nan, np.nan)):
        out[piece] = value
    if x[mid].size:
        # 1/2 + erf(x) / 2 throughout; Cephes takes 1 - erfc(x) / 2 for
        # x >= sqrt(1/2), which agreed to the last bit on 4 million points
        v, m = x[mid], out[mid]
        v2 = v * v
        _polevl(v2, _T, m)
        m *= v
        m /= _p1evl(v2, _U, np.empty_like(v2))
        m *= 0.5
        m += 0.5
    lo = np.negative(x[left], out=out[left])
    hi = out[right]
    hi[...] = x[right]
    _two_tails(_ndtr_tail, lo, hi)
    np.subtract(1.0, hi, out=hi)
    return _in_order(out, order)


def _bvnu_moderate(h, k, r: float):
    """P(X > h, Y > k) for |r| < 0.925 via the arcsine-transformed rule."""
    hk = h * k
    hs = 0.5 * (h * h + k * k)
    asr = np.arcsin(r)
    # the rule's nodes depend on r alone: one sine each, shaped to broadcast
    sn = np.sin(0.5 * asr * _GL_ARC).reshape((-1,) + (1,) * hk.ndim)
    total = np.zeros(hk.shape)
    for term in _GL_ARC_W.reshape(sn.shape) * np.exp((sn * hk - hs) / (1.0 - sn * sn)):
        total += term
    return total * asr / (4.0 * np.pi) + norm_cdf(-h) * norm_cdf(-k)


def _bvnu_extreme(h, k, r):
    """P(X > h, Y > k) for 0.925 <= |r| < 1 (tail expansion plus correction)."""
    neg = r < 0
    k = np.where(neg, -k, k)
    hk = h * k

    ass = (1.0 - r) * (1.0 + r)
    a = np.sqrt(ass)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 16.0
    asr = -(bs / ass + hk) / 2.0

    with np.errstate(over="ignore", invalid="ignore"):
        bvn = np.where(
            asr > -100.0,
            a * np.exp(asr) * (1.0 - c * (bs - ass) * (1.0 - d * bs / 5.0) / 3.0 + c * d * ass * ass / 5.0),
            0.0,
        )
        b = np.sqrt(bs)
        sp = np.sqrt(2.0 * np.pi) * norm_cdf(-b / a)
        bvn = bvn - np.where(
            -hk < 100.0,
            np.exp(-hk / 2.0) * sp * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
            0.0,
        )
        a = a / 2.0
        for arc, w in zip(_GL_ARC, _GL_ARC_W):
            xs = (a * arc) ** 2
            rs = np.sqrt(1.0 - xs)
            asr = -(bs / xs + hk) / 2.0
            sp = 1.0 + c * xs * (1.0 + d * xs)
            ep = np.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
            bvn = bvn + np.where(asr > -100.0, a * w * np.exp(asr) * (ep - sp), 0.0)
        bvn = -bvn / (2.0 * np.pi)

    pos_part = norm_cdf(-np.maximum(h, k))
    neg_part = np.maximum(0.0, norm_cdf(-h) - norm_cdf(-k))
    return np.where(neg, neg_part - bvn, pos_part + bvn)


def bvn_cdf(x, y, rho):
    """P(X <= x, Y <= y) for standard bivariate normal with correlation rho.

    Accepts scalars or broadcastable arrays x, y and a scalar rho; returns
    values clipped to [0, 1].
    """
    # P(X > h, Y > k) at h = -x, k = -y; a scalar stays one
    h = -np.clip(np.asarray(x, dtype=float), -_XMAX, _XMAX)
    k = -np.clip(np.asarray(y, dtype=float), -_XMAX, _XMAX)
    r = float(rho)
    if r >= 1.0:  # joint survival is the smaller tail
        p = norm_cdf(-np.maximum(h, k))
    elif r <= -1.0:  # overlap of tails
        p = np.maximum(0.0, norm_cdf(-h) - norm_cdf(k))
    elif abs(r) < 0.925:
        p = _bvnu_moderate(h, k, r)
    else:
        p = _bvnu_extreme(h, k, np.full(np.broadcast(h, k).shape, r))
    if p.ndim == 0:
        return float(min(1.0, max(0.0, p)))
    return np.clip(p, 0.0, 1.0)
