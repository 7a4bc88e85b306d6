import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from creditbounds._normal import norm_cdf, norm_ppf
from creditbounds.copulas import (
    CHECK_TOLS,
    Clayton,
    Comonotone,
    Factor,
    Gaussian,
    Independence,
    SurvivalClayton,
    is_pointwise_leq,
)
from creditbounds.portfolio import Borrower, DeterministicLgd
from creditbounds.profiles import (
    MODELS,
    ComonotoneProfile,
    EnvelopeProfile,
    GridProfile,
    IndependentProfile,
    TabulatedPdCurve,
    check_membership,
    clayton_profile,
    curve_table,
    envelope,
    gaussian_profile,
    increasing_rearrangement,
    profile_from_copula,
    survival_clayton_profile,
    validate_profile,
)

S_GRID = np.linspace(0.0, 1.0, 1001)


def gaussian_closed_form(asset_corr, pd, s):
    """Bound-model curve written out directly, as an independent check."""
    r = math.sqrt(asset_corr)
    # derivative of the profile: conditional default probability given the factor
    def deriv(t):
        return norm_cdf((norm_ppf(pd) + r * norm_ppf(t)) / math.sqrt(1.0 - asset_corr))

    val, err = quad(deriv, 0.0, s, limit=200)
    return val


class TestConstruction:
    def test_independence_is_a_line(self):
        p = profile_from_copula(Independence(), 0.2)
        assert np.max(np.abs(p.g(S_GRID) - 0.2 * S_GRID)) < 1e-14

    def test_comonotone_is_a_kink(self):
        p = profile_from_copula(Comonotone(), 0.2)
        assert np.max(np.abs(p.g(S_GRID) - np.maximum(0.0, S_GRID - 0.8))) < 1e-14

    def test_gaussian_profile_matches_quadrature_oracle(self):
        p = gaussian_profile(0.165, 0.02)
        for s in (0.1, 0.5, 0.9, 0.98):
            assert p.g(s) == pytest.approx(gaussian_closed_form(0.165, 0.02, s), abs=1e-9)

    def test_gaussian_profile_equals_copula_route(self):
        direct = gaussian_profile(0.165, 0.02)
        via_copula = profile_from_copula(Gaussian(math.sqrt(0.165)), 0.02)
        assert np.max(np.abs(direct.g(S_GRID) - via_copula.g(S_GRID))) < 1e-10

    def test_clayton_closed_form(self):
        theta, pd = 0.723, 0.02
        p = clayton_profile(theta, pd)
        cop = Clayton(theta)
        s = np.linspace(0.001, 0.999, 27)
        expected = pd - cop.cdf(np.full_like(s, pd), 1.0 - s)
        assert np.max(np.abs(p.g(s) - expected)) < 1e-12

    def test_survival_clayton_closed_form(self):
        theta, pd = 0.723, 0.02
        p = survival_clayton_profile(theta, pd)
        s = np.linspace(0.001, 0.999, 27)
        expected = s - ((1 - pd) ** -theta + s ** -theta - 1.0) ** (-1.0 / theta)
        assert np.max(np.abs(p.g(s) - expected)) < 1e-12

    def test_small_parameter_limits_tend_to_independence(self):
        line = 0.02 * S_GRID
        assert np.max(np.abs(gaussian_profile(1e-12, 0.02).g(S_GRID) - line)) < 1e-6
        assert np.max(np.abs(clayton_profile(1e-8, 0.02).g(S_GRID) - line)) < 1e-6
        assert np.max(np.abs(survival_clayton_profile(1e-8, 0.02).g(S_GRID) - line)) < 1e-6

    def test_large_clayton_parameter_approaches_comonotone(self):
        kink = ComonotoneProfile(0.02).g(S_GRID)
        assert np.max(np.abs(clayton_profile(1e3, 0.02).g(S_GRID) - kink)) < 1e-2

    def test_degenerate_pd_rejected(self):
        for pd in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                IndependentProfile(pd)
            with pytest.raises(ValueError):
                gaussian_profile(0.2, pd)

    @pytest.mark.parametrize(
        "profile",
        [
            IndependentProfile(0.02),
            ComonotoneProfile(0.02),
            gaussian_profile(0.165, 0.02),
            gaussian_profile(0.12, 0.02),
            gaussian_profile(0.24, 0.02),
            clayton_profile(0.723, 0.02),
            survival_clayton_profile(0.723, 0.02),
            gaussian_profile(0.11, 0.848),
            clayton_profile(0.5485, 0.848),
        ],
        ids=lambda p: type(p).__name__ + f"-{p.pd}",
    )
    def test_axioms(self, profile):
        validate_profile(profile)
        assert abs(profile.g(0.0)) <= 1e-12
        assert profile.g(1.0) == pytest.approx(profile.pd, abs=1e-9)


class TestConditionalPd:
    def test_independent_is_constant(self):
        p = IndependentProfile(0.2)
        t = np.linspace(0.01, 0.99, 11)
        assert np.allclose(p.conditional_pd(t), 0.2)

    def test_comonotone_is_indicator(self):
        p = ComonotoneProfile(0.2)
        assert p.conditional_pd(0.79) == 0.0
        assert p.conditional_pd(0.81) == 1.0

    def test_integrates_to_pd(self):
        for p in (
            gaussian_profile(0.165, 0.02),
            clayton_profile(0.723, 0.02),
            survival_clayton_profile(0.723, 0.02),
        ):
            val, _ = quad(lambda t: p.conditional_pd(t), 0.0, 1.0, limit=200)
            assert val == pytest.approx(p.pd, abs=1e-6)

    def test_is_derivative_of_g(self):
        p = clayton_profile(0.723, 0.02)
        t = np.linspace(1e-6, 1 - 1e-6, 20001)
        integral = np.concatenate([[0.0], np.cumsum((p.conditional_pd(t)[1:] + p.conditional_pd(t)[:-1]) / 2 * np.diff(t))])
        assert np.max(np.abs(integral - (p.g(t) - p.g(t[0])))) < 1e-6

    def test_increasing(self):
        t = np.linspace(0.001, 0.999, 301)
        for p in (gaussian_profile(0.24, 0.02), clayton_profile(0.97, 0.02)):
            assert np.all(np.diff(p.conditional_pd(t)) >= -1e-12)

    def test_rejects_closed_endpoints(self):
        p = gaussian_profile(0.165, 0.02)
        for t in (0.0, 1.0):
            with pytest.raises(ValueError):
                p.conditional_pd(t)


class TestOrderingTransfer:
    def test_pointwise_larger_copula_gives_smaller_profile(self):
        pairs = [
            (Gaussian(math.sqrt(0.12)), Gaussian(math.sqrt(0.24))),
            (Clayton(0.58), Clayton(0.97)),
            (SurvivalClayton(0.58), SurvivalClayton(0.97)),
        ]
        for small, large in pairs:
            assert is_pointwise_leq(small, large)
            g_small = profile_from_copula(small, 0.02).g(S_GRID)
            g_large = profile_from_copula(large, 0.02).g(S_GRID)
            assert np.all(g_large <= g_small + 1e-9)

    def test_survival_clayton_less_risky_than_clayton_before_the_tail(self):
        s = np.linspace(0.02, 0.9, 50)
        g_cl = clayton_profile(0.723, 0.02).g(s)
        g_scl = survival_clayton_profile(0.723, 0.02).g(s)
        assert np.all(g_scl >= g_cl - 1e-12)


class TestEnvelope:
    def test_extreme_generators_span_everything(self):
        env = envelope([IndependentProfile(0.02), ComonotoneProfile(0.02)])
        assert isinstance(env.lower, IndependentProfile)
        assert isinstance(env.upper, ComonotoneProfile)
        for p in (
            gaussian_profile(0.165, 0.02),
            clayton_profile(0.723, 0.02),
            survival_clayton_profile(0.723, 0.02),
        ):
            assert check_membership(p, env)

    def test_gaussian_interval_attained_at_endpoints(self):
        lo, hi = gaussian_profile(0.12, 0.02), gaussian_profile(0.24, 0.02)
        env = envelope([lo, hi])
        assert env.lower is lo
        assert env.upper is hi
        assert check_membership(gaussian_profile(0.165, 0.02), env)
        assert not check_membership(ComonotoneProfile(0.02), env)

    def test_singleton(self):
        p = gaussian_profile(0.2, 0.05)
        env = envelope([p])
        assert env.lower is p and env.upper is p

    def test_idempotence(self):
        env = envelope([gaussian_profile(0.12, 0.02), gaussian_profile(0.24, 0.02)])
        again = envelope([env.lower, env.upper])
        assert again.lower is env.lower
        assert again.upper is env.upper

    def test_rejects_mixed_pd_and_empty(self):
        with pytest.raises(ValueError):
            envelope([IndependentProfile(0.02), IndependentProfile(0.03)])
        with pytest.raises(ValueError):
            envelope([])

    def test_hybrid_crossing_triggers_convex_repair(self):
        ga = gaussian_profile(0.1641, 0.02)
        cl = clayton_profile(0.7232, 0.02)
        with pytest.warns(UserWarning, match="convex minorant"):
            env = envelope([ga, cl])
        validate_profile(env.lower)
        validate_profile(env.upper)
        assert isinstance(env.upper, EnvelopeProfile)
        assert env.upper.bridges
        # both generators stay inside their own envelope
        assert check_membership(ga, env)
        assert check_membership(cl, env)
        # repaired min never exceeds either member
        s = np.linspace(0.0, 1.0, 2001)
        assert np.all(env.upper._g(s) <= ga._g(s) + 1e-12)
        assert np.all(env.upper._g(s) <= cl._g(s) + 1e-12)

    def test_envelope_derivative_matches_members_outside_bridges(self):
        ga = gaussian_profile(0.1641, 0.02)
        cl = clayton_profile(0.7232, 0.02)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            env = envelope([ga, cl])
        # the riskier bound follows the Clayton curve in the tail
        t = np.linspace(0.9, 0.999, 31)
        assert np.allclose(env.upper.conditional_pd(t), cl.conditional_pd(t))
        assert np.allclose(env.lower.conditional_pd(t), ga.conditional_pd(t))

    def test_membership_rejects_pd_mismatch(self):
        env = envelope([IndependentProfile(0.02), ComonotoneProfile(0.02)])
        with pytest.raises(ValueError):
            check_membership(IndependentProfile(0.05), env)


class TestRearrangement:
    def test_sorts(self):
        assert list(increasing_rearrangement([0.3, 0.1, 0.2])) == [0.1, 0.2, 0.3]

    def test_increasing_input_unchanged(self):
        vals = np.linspace(0.0, 0.5, 17)
        assert np.array_equal(increasing_rearrangement(vals), vals)

    def test_partial_sums_dominated_from_the_right(self):
        n = 1000
        t = (np.arange(n) + 0.5) / n
        curve = 0.02 * (1.0 + np.sin(2.0 * np.pi * t))
        sorted_curve = increasing_rearrangement(curve)
        suffix = np.cumsum(curve[::-1])[::-1]
        suffix_sorted = np.cumsum(sorted_curve[::-1])[::-1]
        assert np.all(suffix <= suffix_sorted + 1e-12)
        assert suffix[0] == pytest.approx(suffix_sorted[0], abs=1e-12)

    def test_rearranged_profile_is_valid(self):
        n = 1000
        t = (np.arange(n) + 0.5) / n
        curve = TabulatedPdCurve(0.02 * (1.0 + np.sin(2.0 * np.pi * t)))
        prof = curve.rearranged_profile()
        validate_profile(prof)
        assert prof.pd == pytest.approx(curve.pd, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            increasing_rearrangement([0.1, float("inf")])


class TestGridProfile:
    def test_interpolation_and_forward_difference(self):
        knots = np.array([0.0, 0.01, 0.05, 0.2])
        p = GridProfile(knots, 0.2)
        assert p.g(0.5) == pytest.approx(0.03, abs=1e-15)
        assert p.conditional_pd(0.1) == pytest.approx(0.03, abs=1e-15)  # first cell slope
        assert p.conditional_pd(0.9) == pytest.approx(0.45, abs=1e-15)

    def test_curve_table_boundaries(self):
        s, g, p = curve_table(gaussian_profile(0.165, 0.02))
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(0.02, abs=1e-9)
        assert np.all((p >= 0.0) & (p <= 1.0))


class TestModelRegistry:
    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=300, deadline=None)
    @given(
        model=st.sampled_from(sorted(m for m, spec in MODELS.items() if not spec.per_copula)),
        pd=st.floats(0.001, 0.5),
        corrs=st.lists(st.floats(0.01, 0.9), min_size=3, max_size=3).map(sorted),
    )
    def test_bounds_lie_between_the_dependence_extremes(self, model, pd, corrs):
        lo, point, hi = corrs
        b = Borrower("b", pd, 1.0, DeterministicLgd(0.1), (lo, hi), point)
        lower, upper = MODELS[model].bounds(b)
        tol = CHECK_TOLS.absolute
        g_lower, g_upper = lower.g(S_GRID), upper.g(S_GRID)
        assert np.all(pd * S_GRID >= g_lower - tol)
        assert np.all(g_lower >= g_upper - tol)
        assert np.all(g_upper >= np.maximum(0.0, S_GRID - 1.0 + pd) - tol)


def _shared_factor_profiles(pd, lo, point, hi):
    """Every registered model's bounds, a repaired envelope, a grid profile
    and a tabulated curve: each kind of conditional that reads a factor."""
    b = Borrower("b", pd, 1.0, DeterministicLgd(0.1), (lo, hi), point)
    out = []
    for spec in MODELS.values():
        out.extend(spec.bounds(b, Clayton(1.3)))
    repaired = envelope([gaussian_profile(0.1641, 0.02), clayton_profile(0.7232, 0.02)]).upper
    assert repaired.bridges
    knots = np.concatenate([[0.0], np.cumsum(np.linspace(0.0, 2.0 * pd, 50)) / 50])
    curve = TabulatedPdCurve(np.linspace(0.5, 0.0, 7) ** 2)
    return out + [repaired, GridProfile(knots, float(knots[-1])), curve]


class TestSharedFactor:
    """One factor per chunk serves every profile: the values must equal
    per-call factors bit for bit, also on masked subsets of a factor whose
    transforms are partly cached."""

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=100, deadline=None)
    @given(
        pd=st.floats(0.001, 0.5),
        corrs=st.lists(st.floats(0.01, 0.9), min_size=3, max_size=3).map(sorted),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
    )
    def test_shared_factor_equals_per_call_route(self, pd, corrs, seed, n):
        rng = np.random.default_rng(seed)
        profiles = _shared_factor_profiles(pd, *corrs)
        t = rng.random(n)
        t[rng.integers(n)] = 0.0
        per_call = [p._cpd(Factor(t)) for p in profiles]

        # warm a random part of the transforms, then take a masked subset
        f = Factor(t)
        warm = rng.random(len(profiles)) < 0.5
        for p, w in zip(profiles, warm):
            if w:
                p._cpd(f)
        mask = rng.random(n) < rng.random()
        sub = f[mask]
        for p, expected in zip(profiles, per_call):
            assert np.array_equal(p._cpd(sub), expected[mask])
        for p, expected in zip(profiles, per_call):
            assert np.array_equal(p._cpd(f), expected)
            assert np.array_equal(p.conditional_pd(np.where(t > 0.0, t, 0.5))[t > 0.0],
                                  np.clip(expected, 0.0, 1.0)[t > 0.0])
