import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import FIXTURES
from creditbounds import profiles
from creditbounds._normal import norm_cdf, norm_ppf
from creditbounds.copulas import (
    CHECK_TOL,
    Clayton,
    Comonotone,
    Factor,
    Gaussian,
    Independence,
    SurvivalClayton,
    clayton_theta_matching_gaussian,
    is_pointwise_leq,
)
from creditbounds.portfolio import Borrower, DeterministicLgd, load_scenario
from creditbounds.profiles import (
    MODELS,
    ComonotoneProfile,
    CopulaProfile,
    EnvelopeProfile,
    GridProfile,
    IndependentProfile,
    check_membership,
    clayton_profile,
    curve_table,
    envelope,
    gaussian_profile,
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


def _hybrid_pair():
    """The Gauss-Clayton pair whose envelope needs the convex repair."""
    return gaussian_profile(0.1641, 0.02), clayton_profile(0.7232, 0.02)


def _kendall_pair(pd, corr):
    """The Gaussian profile and the Clayton profile of the same Kendall's tau."""
    return gaussian_profile(corr, pd), clayton_profile(clayton_theta_matching_gaussian(corr), pd)


def _quiet_envelope(members):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return envelope(members)


def _gauss_clayton_bounds(fixture):
    """{borrower name: (lower, upper)} of a fixture's distinct Gauss-Clayton
    borrowers, and the convex-minorant repair warnings that building them fired."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        scenario = load_scenario(FIXTURES / fixture)
        spec = MODELS["gauss_clayton"]
        firsts, _ = spec.shared(scenario.borrowers, scenario.point_copulas)
        bounds = {b.name: spec.bounds(b, c) for b, c in firsts.values()}
    return bounds, [str(w.message) for w in caught if "greatest convex minorant" in str(w.message)]


class TestEnvelopeDecidedWhenBuilt:
    """``envelope`` takes every decision when it is built; the profiles it
    builds never evaluate a member's G for their conditional pd."""

    def test_members_are_never_evaluated_for_the_conditional(self, monkeypatch):
        ga, cl = _hybrid_pair()
        with pytest.warns(UserWarning, match="convex minorant"):
            env = envelope([ga, cl])
        calls = collections.Counter()
        g = CopulaProfile._g

        def counting(self, s):
            calls[id(self)] += 1
            return g(self, s)

        monkeypatch.setattr(CopulaProfile, "_g", counting)
        for side in (env.lower, env.upper):
            assert isinstance(side, EnvelopeProfile)
            side._cell_bounds()
            side.conditional_pd(np.linspace(0.001, 0.999, 999))
        assert not calls

    def test_idb_scenario1_every_crossing_is_bridged(self):
        bounds, repairs = _gauss_clayton_bounds("idb_scenario1.json")
        assert len(bounds) == 14 and len(repairs) == 13
        envelopes = [p for pair in bounds.values() for p in pair if isinstance(p, EnvelopeProfile)]
        assert len(envelopes) == 26
        uppers = [up for _, up in bounds.values() if isinstance(up, EnvelopeProfile)]
        assert all(len(up.bridges) == 1 == up.pieces[0].size for up in uppers)
        # the fixture's smallest kinks: slope drops of 7.9e-9 and 1.4e-7
        for name in ("Chile", "Uruguay"):
            assert bounds[name][1].bridges

    def test_two_crossings_get_two_bridges(self):
        with pytest.warns(UserWarning, match="across 2 bridge"):
            env = envelope(_kendall_pair(0.62, 0.9))
        for side in (env.lower, env.upper):
            assert side.pieces[0].size == 2
            assert list(side.pieces[1]) == ([1, 0, 1] if side.take == "max" else [0, 1, 0])
        (a1, b1, *_), (a2, b2, *_) = env.upper.bridges
        assert 0.0 < a1 < env.upper.pieces[0][0] < b1 < a2 < env.upper.pieces[0][1] < b2 < 1.0

    @pytest.mark.parametrize("fixture", ["scenario1.json", "scenario2.json",
                                         "idb_scenario1.json", "idb_scenario2.json"])
    def test_table_envelopes_bound_every_cell(self, fixture):
        bounds, _ = _gauss_clayton_bounds(fixture)
        envelopes = [p for pair in bounds.values() for p in pair if isinstance(p, EnvelopeProfile)]
        assert envelopes
        for env in envelopes:
            lo, hi = env._cell_bounds()
            assert np.all(np.isfinite(hi))


class TestExactEnvelope:
    """The envelope of a Gaussian/Clayton pair against the members' closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(pd=st.floats(1e-4, 0.99), corr=st.floats(0.01, 0.9))
    def test_greatest_convex_minorant_and_raw_max(self, pd, corr):
        ga, cl = _kendall_pair(pd, corr)
        env = _quiet_envelope([ga, cl])
        s = np.linspace(0.0, 1.0, 10_001)
        g = np.stack([ga._g(s), cl._g(s)])
        raw_min, raw_max = g.min(axis=0), g.max(axis=0)
        upper = env.upper._g(s)
        validate_profile(env.lower)
        validate_profile(env.upper)
        # a member that dominates up to ties is each side itself
        tie = profiles._TIE_TOL
        assert np.all(np.abs(env.lower._g(s) - raw_max) <= tie)
        if not isinstance(env.upper, EnvelopeProfile):
            assert np.all(np.abs(upper - raw_min) <= tie)
            return
        assert np.array_equal(env.lower._g(s), raw_max)
        assert np.all(upper <= raw_min)
        bridged = np.zeros(s.size, dtype=bool)
        for a, b, ga_, slope in env.upper.bridges:
            bridged |= (s > a) & (s < b)
            ends = Factor(np.array([a, b]))
            pa, pb = (m._pd_at(ends) for m in env.upper.members)
            # tangent to one member at a and to the other at b, and the line
            # meets the members' G at both ends
            assert min(abs(pa[0] - slope), abs(pb[0] - slope)) <= profiles._TANGENT_TOL
            assert min(abs(pa[1] - slope), abs(pb[1] - slope)) <= profiles._TANGENT_TOL
            gb = min(m._g(np.array([b]))[0] for m in env.upper.members)
            assert ga_ == min(m._g(np.array([a]))[0] for m in env.upper.members)
            assert abs(ga_ + slope * (b - a) - gb) <= 1e-15
        assert np.array_equal(upper[~bridged], raw_min[~bridged])
        # the pieces follow the members' crossings: the conditional pd is the
        # derivative of the raw max, and of the raw min outside the bridges
        t = np.linspace(1e-3, 1.0 - 1e-3, 997)
        g_t = np.stack([ga._g(t), cl._g(t)])
        near = np.any(np.abs(t[:, None] - env.upper.pieces[0][None, :]) < 1e-9, axis=1)
        near |= np.abs(g_t[0] - g_t[1]) <= tie
        p_t = np.stack([ga.conditional_pd(t), cl.conditional_pd(t)])
        cols = np.arange(t.size)
        top, bottom = g_t.argmax(axis=0), g_t.argmin(axis=0)
        assert np.array_equal(env.lower.conditional_pd(t)[~near], p_t[top, cols][~near])
        outside = ~near & ~np.any([(t > a) & (t < b) for a, b, *_ in env.upper.bridges], axis=0)
        assert np.array_equal(env.upper.conditional_pd(t)[outside], p_t[bottom, cols][outside])

    def test_repair_warning_names_the_bridges_and_the_gap(self):
        with pytest.warns(UserWarning) as shown:
            env = envelope(_hybrid_pair())
        (message,) = [str(w.message) for w in shown]
        ((a, b, ga_, slope),) = env.upper.bridges
        assert "is not convex" in message and "greatest convex minorant" in message
        assert "pd 0.02" in message and f"a = {a:.9g}, b = {b:.9g}, slope = {slope:.9g}" in message
        s_star = env.upper.pieces[0][0]
        gap = env.upper.members[0]._g(np.array([s_star]))[0] - (ga_ + slope * (s_star - a))
        assert f"largest gap to the raw min {gap:.3e}" in message

    def test_more_than_two_members_are_refused(self):
        with pytest.raises(ValueError, match="one or two members"):
            envelope([*_hybrid_pair(), gaussian_profile(0.2, 0.02)])

    def test_crossing_members_must_be_copula_profiles(self):
        _, cl = _hybrid_pair()
        # the Clayton member as a step curve on 4,096 cells still crosses the Gaussian
        steps = GridProfile(np.diff(cl._g(np.linspace(0.0, 1.0, 4097))) * 4096)
        with pytest.raises(ValueError, match=r"(?s)pd 0.02 of CopulaProfile.*GridProfile.*copula profiles"):
            envelope([gaussian_profile(0.1641, steps.pd), steps])
        # a pair that does not cross needs no closed form
        env = envelope([IndependentProfile(steps.pd), steps])
        assert env.upper is steps

    def test_a_missed_tangency_fails(self, monkeypatch):
        level = CopulaProfile._level
        monkeypatch.setattr(CopulaProfile, "_level", lambda self, m: level(self, m) * (1.0 + 1e-6))
        with pytest.raises(ValueError, match="pd 0.02 .* misses tangency"):
            _quiet_envelope(_hybrid_pair())

    def test_overlapping_bridges_fail(self, monkeypatch):
        level = CopulaProfile._level
        monkeypatch.setattr(profiles, "_TANGENT_TOL", np.inf)
        monkeypatch.setattr(CopulaProfile, "_level", lambda self, m: 1.0 - level(self, m))
        with pytest.raises(ValueError, match="pd 0.02 .* would overlap"):
            _quiet_envelope(_hybrid_pair())


class TestRearrangement:
    def test_sorts(self):
        p = GridProfile([0.3, 0.1, 0.2])
        assert list(p.rearranged_profile().steps) == [0.1, 0.2, 0.3]

    def test_increasing_input_unchanged(self):
        vals = np.linspace(0.0, 0.5, 17)
        assert np.array_equal(GridProfile(vals).rearranged_profile().steps, vals)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200))
    def test_integral_dominated_at_every_knot(self, steps):
        assume(0.0 < np.mean(steps) < 1.0)
        curve = GridProfile(steps)
        knots = np.linspace(0.0, 1.0, len(steps) + 1)
        g, g_sorted = curve.g(knots), curve.rearranged_profile().g(knots)
        assert np.all(g_sorted <= g + 1e-12)
        assert g_sorted[-1] == pytest.approx(g[-1], abs=1e-12)

    def test_rearranged_profile_is_valid(self):
        n = 1000
        t = (np.arange(n) + 0.5) / n
        curve = GridProfile(0.02 * (1.0 + np.sin(2.0 * np.pi * t)))
        prof = curve.rearranged_profile()
        validate_profile(prof)
        assert prof.pd == pytest.approx(curve.pd, abs=1e-12)


class TestGridProfile:
    def test_running_integral_and_steps(self):
        p = GridProfile(np.array([0.03, 0.12, 0.45]))
        assert p.pd == pytest.approx(0.2, abs=1e-15)
        assert p.g(0.5) == pytest.approx(0.03, abs=1e-15)
        assert p.conditional_pd(0.1) == pytest.approx(0.03, abs=1e-15)  # first cell
        assert p.conditional_pd(0.9) == pytest.approx(0.45, abs=1e-15)

    def test_steps_are_a_read_only_copy(self):
        steps = np.array([0.1, 0.3])
        p = GridProfile(steps)
        steps[0] = np.nan
        assert p.conditional_pd(0.25) == 0.1 and p.pd == pytest.approx(0.2, abs=1e-15)
        with pytest.raises(ValueError):
            p.steps[0] = 0.2

    @pytest.mark.parametrize("steps", [
        [0.1, float("inf")], [0.1, float("nan")], [0.1, -0.1], [0.1, 1.5], [], [[0.1, 0.2]],
        [0.0, 0.0], [1.0, 1.0],
    ])
    def test_rejects_invalid_steps(self, steps):
        with pytest.raises(ValueError):
            GridProfile(steps)

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
        tol = CHECK_TOL
        g_lower, g_upper = lower.g(S_GRID), upper.g(S_GRID)
        assert np.all(pd * S_GRID >= g_lower - tol)
        assert np.all(g_lower >= g_upper - tol)
        assert np.all(g_upper >= np.maximum(0.0, S_GRID - 1.0 + pd) - tol)


def _shared_factor_profiles(pd, lo, point, hi):
    """Every registered model's bounds, a repaired envelope, and an
    increasing and a decreasing step curve: each kind of conditional that
    reads a factor."""
    b = Borrower("b", pd, 1.0, DeterministicLgd(0.1), (lo, hi), point)
    out = []
    for spec in MODELS.values():
        out.extend(spec.bounds(b, Clayton(1.3)))
    repaired = envelope([gaussian_profile(0.1641, 0.02), clayton_profile(0.7232, 0.02)]).upper
    assert repaired.bridges
    steps = [np.linspace(0.0, 2.0 * pd, 50), np.linspace(0.5, 0.0, 7) ** 2]
    return out + [repaired] + [GridProfile(s) for s in steps]


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
