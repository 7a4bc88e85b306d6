import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from creditbounds.copulas import (
    Clayton,
    Comonotone,
    Factor,
    Gaussian,
    Independence,
    SurvivalClayton,
    check_si,
    clayton_theta_matching_gaussian,
    is_pointwise_leq,
)

ALL_FAMILIES = [
    Independence(),
    Comonotone(),
    Gaussian(0.0),
    Gaussian(0.405),
    Gaussian(0.9),
    Clayton(0.3),
    Clayton(0.723),
    Clayton(3.0),
    SurvivalClayton(0.723),
    SurvivalClayton(2.0),
]

SMOOTH_FAMILIES = [c for c in ALL_FAMILIES if not isinstance(c, Comonotone)]


class TestCdf:
    def test_uniform_margins_gaussian(self):
        c = Gaussian(0.5)
        for u in (0.0, 0.3, 1.0):
            assert c.cdf(u, 1.0) == pytest.approx(u, abs=1e-12)
            assert c.cdf(1.0, u) == pytest.approx(u, abs=1e-12)

    def test_clayton_hand_value(self):
        # (0.5^-1 + 0.5^-1 - 1)^-1 = 1/3
        assert Clayton(1.0).cdf(0.5, 0.5) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_product_and_frechet(self):
        assert Independence().cdf(0.3, 0.8) == pytest.approx(0.24, abs=1e-15)
        assert Comonotone().cdf(0.3, 0.8) == 0.3

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            Gaussian(0.5).cdf(-0.1, 0.5)
        with pytest.raises(ValueError):
            Clayton(1.0).cdf(0.5, 1.2)
        with pytest.raises(ValueError):
            Independence().cdf(float("nan"), 0.5)

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=repr)
    def test_axioms_on_random_grid(self, cop):
        rng = np.random.default_rng(99)
        g = np.sort(rng.uniform(0.0, 1.0, 24))
        # groundedness and uniform margins
        assert np.max(np.abs(cop.cdf(g, np.zeros_like(g)))) <= 1e-12
        assert np.max(np.abs(cop.cdf(np.zeros_like(g), g))) <= 1e-12
        assert np.max(np.abs(cop.cdf(g, np.ones_like(g)) - g)) <= 1e-9
        assert np.max(np.abs(cop.cdf(np.ones_like(g), g) - g)) <= 1e-9
        # 2-increasing: rectangle mass is non-negative
        u1, u2 = g[:-1][:, None], g[1:][:, None]
        v1, v2 = g[:-1][None, :], g[1:][None, :]
        rect = cop.cdf(u2, v2) - cop.cdf(u1, v2) - cop.cdf(u2, v1) + cop.cdf(u1, v1)
        assert rect.min() >= -1e-9


class TestConditional:
    def test_independence(self):
        rng = np.random.default_rng(1)
        u, v = rng.uniform(0, 1, 20), rng.uniform(0.01, 0.99, 20)
        assert np.allclose(Independence().conditional(u, v), u)

    def test_gaussian_zero_corr_reduces_to_independence(self):
        assert Gaussian(0.0).conditional(0.7, 0.2) == pytest.approx(0.7, abs=1e-14)

    def test_clayton_hand_value(self):
        # 0.5^-3 * (0.5^-2 + 0.5^-2 - 1)^-1.5 = 8 * 7^-1.5
        expected = 8.0 * 7.0 ** -1.5
        assert Clayton(2.0).conditional(0.5, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_rejects_boundary_v(self):
        for v in (0.0, 1.0):
            with pytest.raises(ValueError):
                Gaussian(0.3).conditional(0.5, v)

    @pytest.mark.parametrize("cop", SMOOTH_FAMILIES, ids=repr)
    def test_integral_of_conditional_recovers_cdf(self, cop):
        # d/dv C(u, v) integrates back to the copula itself
        for u, v in [(0.3, 0.6), (0.7, 0.25), (0.9, 0.9)]:
            integral, err = quad(lambda w: cop.conditional(u, w), 0.0, v, limit=200)
            assert integral == pytest.approx(cop.cdf(u, v), abs=max(1e-8, 10 * err))

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=repr)
    def test_monotone_in_u_and_si_decreasing_in_v(self, cop):
        u = np.linspace(0.0, 1.0, 41)
        for v in (0.2, 0.5, 0.8):
            vals = cop.conditional(u, np.full_like(u, v))
            assert np.all(np.diff(vals) >= -1e-12)
        v = np.linspace(0.05, 0.95, 41)
        for u0 in (0.25, 0.6, 0.9):
            vals = cop.conditional(np.full_like(v, u0), v)
            assert np.all(np.diff(vals) <= 1e-9)


    scalar_u_cases = given(
        cop=st.sampled_from(ALL_FAMILIES + [Gaussian(1.0)]),
        u=st.floats(1e-12, 1.0, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
    )

    @staticmethod
    def check_scalar_u(public, private, u, seed, n):
        # default profiles pass their threshold 1 - pd as a scalar against a
        # shared factor, possibly a masked subset of one with cached transforms
        rng = np.random.default_rng(seed)
        v = rng.random(n)
        v[v == 0.0] = 0.5
        scalar = public(u, v)
        assert np.array_equal(scalar, public(np.full(n, u), v))
        f = Factor(v)
        assert np.array_equal(private(u, f), scalar)
        mask = rng.random(n) < rng.random()
        assert np.array_equal(private(u, f[mask]), scalar[mask])

    @settings(max_examples=200, deadline=None)
    @scalar_u_cases
    def test_scalar_u_equals_broadcast_u(self, cop, u, seed, n):
        self.check_scalar_u(cop.conditional, cop._conditional, u, seed, n)

    @settings(max_examples=200, deadline=None)
    @scalar_u_cases
    def test_scalar_u_equals_broadcast_u_inverse(self, cop, u, seed, n):
        self.check_scalar_u(cop.inverse_conditional, cop._inverse_conditional, u, seed, n)


@pytest.mark.parametrize("cop", ALL_FAMILIES + [Gaussian(1.0)], ids=repr)
def test_edges_are_exact(cop):
    # grid points k/64 keep u + v - 1 exact, so the survival formula's
    # margins are exact too
    x = np.arange(65) / 64.0
    zero, one = np.zeros_like(x), np.ones_like(x)
    assert np.all(cop.cdf(x, zero) == 0.0)
    assert np.all(cop.cdf(zero, x) == 0.0)
    assert np.array_equal(cop.cdf(one, x), x)
    assert np.array_equal(cop.cdf(x, one), x)
    v = x[1:-1]
    assert np.all(cop.inverse_conditional(0.0, v) == 0.0)
    # the comonotone step 1{u >= v} reaches t = 1 at u = v, the others at u = 1
    step = isinstance(cop, Comonotone) or cop == Gaussian(1.0)
    assert np.array_equal(cop.inverse_conditional(1.0, v), v if step else np.ones_like(v))


@pytest.mark.parametrize("cop", ALL_FAMILIES, ids=repr)
def test_margins_are_exact_at_random_points(cop):
    x = np.random.default_rng(23).random(100_000)
    assert np.array_equal(cop.cdf(1.0, x), x)
    assert np.array_equal(cop.cdf(x, 1.0), x)


class TestInverseConditional:
    def test_independence_identity(self):
        assert Independence().inverse_conditional(0.42, 0.9) == pytest.approx(0.42)

    def test_gaussian_median_fixed_point(self):
        assert Gaussian(0.405).inverse_conditional(0.5, 0.5) == pytest.approx(0.5, abs=1e-14)

    def test_clayton_against_root_finding_oracle(self):
        cop = Clayton(0.723)
        t, v = 0.3, 0.7
        oracle = brentq(lambda u: cop.conditional(u, v) - t, 1e-12, 1 - 1e-12, xtol=1e-14)
        assert cop.inverse_conditional(t, v) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize(
        "cop,tol",
        [(Gaussian(0.405), 1e-10), (Clayton(0.723), 1e-10), (SurvivalClayton(0.723), 1e-8)],
        ids=repr,
    )
    def test_round_trip(self, cop, tol):
        rng = np.random.default_rng(5)
        t = rng.uniform(1e-6, 1 - 1e-6, 500)
        v = rng.uniform(1e-3, 1 - 1e-3, 500)
        u = cop.inverse_conditional(t, v)
        assert np.max(np.abs(cop.conditional(u, v) - t)) < tol


class TestLevel:
    """``_level(u, w)`` is the factor level v with C(u | v) = w."""

    # the conditional carries w to full relative precision, or 1 - w for the
    # survival Clayton, whose conditional is one minus a Clayton conditional
    @pytest.mark.parametrize(
        "cop,complement",
        [(Gaussian(0.1), False), (Gaussian(0.405), False), (Gaussian(0.9), False),
         (Clayton(0.05), False), (Clayton(0.723), False), (Clayton(3.0), False),
         (SurvivalClayton(0.723), True), (SurvivalClayton(3.0), True)],
        ids=repr,
    )
    def test_round_trips_through_the_conditional(self, cop, complement):
        tails = np.geomspace(1e-12, 0.5, 60)
        w = np.concatenate([tails, 1.0 - tails])
        for u in np.concatenate([np.geomspace(1e-9, 0.5, 12), 1.0 - np.geomspace(1e-9, 0.5, 12)]):
            v = cop._level(u, w)
            # w outside the range of v -> C(u | v) has no level in (0, 1), and
            # beyond v = 0.999 a double holds too few bits of 1 - v to pin w
            inside = (v >= 1e-12) & (v <= 0.999)
            back = cop._conditional(u, Factor(v[inside]))
            want = w[inside]
            err = np.abs(back - want) / (1.0 - want if complement else want)
            assert np.all(err <= 1e-12), (u, want[np.argmax(err)], err.max())


class TestSurvival:
    def test_clayton_pair(self):
        assert Clayton(0.723).survival() == SurvivalClayton(0.723)
        assert SurvivalClayton(0.723).survival() == Clayton(0.723)

    def test_gaussian_radial_symmetry(self):
        assert Gaussian(0.405).survival() == Gaussian(0.405)

    def test_involution(self):
        for cop in ALL_FAMILIES:
            assert cop.survival().survival() == cop

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=repr)
    def test_survival_identity_numerically(self, cop):
        rng = np.random.default_rng(8)
        u, v = rng.uniform(0, 1, 50), rng.uniform(0, 1, 50)
        direct = cop.survival().cdf(u, v)
        formula = u + v - 1.0 + cop.cdf(1.0 - u, 1.0 - v)
        assert np.max(np.abs(direct - formula)) < 1e-9


class TestKendallTau:
    def test_gaussian_from_irb_point(self):
        assert Gaussian(math.sqrt(0.165)).kendall_tau() == pytest.approx(0.266, abs=1e-3)

    def test_clayton_matches_gaussian_tau(self):
        assert Clayton(0.723).kendall_tau() == pytest.approx(0.266, abs=1e-3)

    def test_degenerate(self):
        assert Gaussian(0.0).kendall_tau() == 0.0
        assert Independence().kendall_tau() == 0.0
        assert Comonotone().kendall_tau() == 1.0

    def test_invariant_under_survival(self):
        for cop in ALL_FAMILIES:
            assert cop.survival().kendall_tau() == pytest.approx(cop.kendall_tau(), abs=1e-15)


class TestThetaMatching:
    @pytest.mark.parametrize(
        "asset_corr,theta",
        [(0.2371, 0.96), (0.1371, 0.64), (0.1641, 0.723)],
    )
    def test_reproduces_published_parameters(self, asset_corr, theta):
        assert clayton_theta_matching_gaussian(asset_corr) == pytest.approx(theta, abs=0.01)

    def test_matched_tau_agrees(self):
        rho = 0.165
        theta = clayton_theta_matching_gaussian(rho)
        assert Clayton(theta).kendall_tau() == pytest.approx(
            Gaussian(math.sqrt(rho)).kendall_tau(), abs=1e-14
        )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                clayton_theta_matching_gaussian(bad)


class TestOrderingAndSi:
    def test_gaussian_parameter_ordering(self):
        assert is_pointwise_leq(Gaussian(0.2), Gaussian(0.5))
        assert not is_pointwise_leq(Gaussian(0.5), Gaussian(0.2))

    def test_clayton_parameter_ordering(self):
        assert is_pointwise_leq(Clayton(0.5), Clayton(1.0))
        assert is_pointwise_leq(SurvivalClayton(0.5), SurvivalClayton(1.0))

    def test_frechet_bounds_order(self):
        for cop in ALL_FAMILIES:
            assert is_pointwise_leq(cop, Comonotone())

    @pytest.mark.parametrize("cop", ALL_FAMILIES, ids=repr)
    def test_all_families_are_si(self, cop):
        assert check_si(cop)


class TestLimits:
    def test_clayton_tends_to_independence(self):
        g = np.linspace(0.05, 0.95, 13)
        small = Clayton(1e-8).cdf(g[:, None], g[None, :])
        assert np.max(np.abs(small - g[:, None] * g[None, :])) < 1e-6

    def test_gaussian_unit_correlation_is_comonotone(self):
        g = np.linspace(0.0, 1.0, 21)
        assert np.max(np.abs(Gaussian(1.0).cdf(g[:, None], g[None, :])
                             - np.minimum(g[:, None], g[None, :]))) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Gaussian(1.5)
        with pytest.raises(ValueError):
            Gaussian(-0.2)
        with pytest.raises(ValueError):
            Clayton(0.0)
        with pytest.raises(ValueError):
            SurvivalClayton(-1.0)
