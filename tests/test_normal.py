import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from creditbounds._normal import bvn_cdf, norm_cdf, norm_ppf


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.3464, 0.405, 0.49, 0.7, 0.9, 0.93, 0.99])
def test_bvn_matches_scipy(rho):
    rng = np.random.default_rng(2024)
    x = rng.normal(size=200)
    y = rng.normal(size=200)
    ref = multivariate_normal(mean=[0, 0], cov=[[1, rho], [rho, 1]]).cdf(
        np.column_stack([x, y])
    )
    assert np.max(np.abs(bvn_cdf(x, y, rho) - ref)) < 5e-9


def test_bvn_independence_and_perfect_correlation():
    x, y = 0.3, -0.7
    assert bvn_cdf(x, y, 0.0) == pytest.approx(norm_cdf(x) * norm_cdf(y), abs=1e-14)
    assert bvn_cdf(x, y, 1.0) == pytest.approx(min(norm_cdf(x), norm_cdf(y)), abs=1e-14)
    # antithetic: X = -Y, so the joint CDF is the overlap of the two tails
    assert bvn_cdf(1.0, 1.0, -1.0) == pytest.approx(2 * norm_cdf(1.0) - 1.0, abs=1e-14)
    assert bvn_cdf(-1.0, -1.0, -1.0) == 0.0


def test_bvn_handles_extremes():
    assert bvn_cdf(np.inf, 0.5, 0.3) == pytest.approx(norm_cdf(0.5), abs=1e-12)
    assert bvn_cdf(-np.inf, 0.5, 0.3) < 1e-300
    assert bvn_cdf(50.0, 50.0, 0.9) == pytest.approx(1.0, abs=1e-12)


def test_norm_round_trip():
    p = np.linspace(1e-12, 1 - 1e-12, 1001)
    assert np.max(np.abs(norm_cdf(norm_ppf(p)) - p)) < 1e-11


# the package's own Phi and Phi^-1 against scipy.special, from which they are
# ported, and against mpmath
def _relative(a, b):
    return np.abs(a - b) / np.where(b == 0.0, 1.0, np.abs(b))


def test_norm_ppf_matches_ndtri_on_a_log_grid():
    e = np.linspace(-300.0, np.log10(0.5), 20001)
    p = np.concatenate([10.0**e, 1.0 - 10.0**e[e > -16.0], [1.0 - 2.0**-53, 0.5]])
    assert _relative(norm_ppf(p), ndtri(p)).max() <= 1e-15


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-300, 1.0 - 2.0**-53))
def test_norm_ppf_matches_ndtri(p):
    assert _relative(norm_ppf(p), ndtri(p)) <= 1e-15


def test_norm_cdf_matches_mpmath_down_to_1e_300():
    # scipy is as far off in the far left tail, where exp(-x^2 / 2) rounds x^2
    mpmath.mp.dps = 30
    x = np.linspace(-37.5, 37.5, 3001)
    ref = np.array([float(mpmath.ncdf(v)) for v in x])
    keep = ref >= 1e-300
    assert _relative(norm_cdf(x[keep]), ref[keep]).max() <= 5e-13


@settings(max_examples=300, deadline=None)
@given(st.floats(-37.5, 37.5))
def test_norm_cdf_matches_ndtr(x):
    # both are the Cephes forms; numpy's exp may round differently from libm's
    expected = ndtr(x)
    assume(expected >= 1e-300)
    assert _relative(norm_cdf(x), expected) <= 1e-15


def test_special_values_and_shapes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            ppf = norm_ppf(np.array([0.0, -0.0, 1.0, -1e-300, 1.5, np.nan, -np.inf, np.inf]))
            cdf = norm_cdf(np.array([-np.inf, np.inf, np.nan, -40.0, 40.0, 0.0]))
            far = norm_cdf(np.linspace(-38.6, -37.0, 50))
    assert np.array_equal(ppf, [-np.inf, -np.inf, np.inf, np.nan, np.nan, np.nan, np.nan, np.nan],
                          equal_nan=True)
    assert np.array_equal(cdf, [0.0, 1.0, np.nan, 0.0, 1.0, 0.5], equal_nan=True)
    assert np.array_equal(far, ndtr(np.linspace(-38.6, -37.0, 50)))
    for fn in (norm_ppf, norm_cdf):
        given = np.linspace(0.9, 0.1, 9)
        fn(given)
        assert np.array_equal(given, np.linspace(0.9, 0.1, 9))  # the input is left alone
        assert isinstance(fn(0.3), np.float64)
        assert isinstance(fn(np.float64(0.3)), np.float64)
        assert fn(np.array(0.3)).shape == ()
        assert fn(np.full((2, 3), 0.3)).shape == (2, 3)
        assert fn(np.empty(0)).shape == (0,)
        assert fn([0.1, 0.2]).shape == (2,)
    assert np.isnan(norm_ppf(np.nan)) and np.isnan(norm_cdf(np.nan))
    assert norm_ppf(0.0) == -np.inf and norm_ppf(1.0) == np.inf


@pytest.mark.parametrize("fn, values", [
    (norm_ppf, np.concatenate([np.linspace(0.0, 1.0, 4097), [1e-20, 1.0 - 1e-16, 1e-300]])),
    (norm_cdf, np.concatenate([np.linspace(-40.0, 40.0, 4097), [-12.0, 11.5, 1.0, -1.0]])),
])
def test_any_order_of_the_input_gives_the_same_bits(fn, values):
    # monotone inputs split into slices, any other into groups
    ascending = np.sort(values)
    expected = fn(ascending)
    assert np.array_equal(fn(ascending[::-1]), expected[::-1])
    order = np.random.default_rng(5).permutation(values.size)
    assert np.array_equal(fn(ascending[order]), expected[order])
    with_nan = np.insert(ascending[order], 7, np.nan)
    assert np.array_equal(fn(with_nan), np.insert(expected[order], 7, np.nan), equal_nan=True)
    assert np.array_equal([fn(v) for v in ascending[:50]], expected[:50])
