import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from creditbounds.copulas import Clayton, Factor
from creditbounds.portfolio import BetaLgd, Borrower, DeterministicLgd, homogeneous_portfolio
from creditbounds.profiles import (
    MODELS,
    ComonotoneProfile,
    GridProfile,
    IndependentProfile,
    TabulatedPdCurve,
    clayton_profile,
    envelope,
    gaussian_profile,
    survival_clayton_profile,
)
from creditbounds.simulate import (
    LossSample,
    _bernoulli,
    _chunk_rng,
    _gauss_legendre,
    _lgd_total,
    _merge_support,
    _pool,
    _run_chunks,
    batch_standard_error,
    dkw_epsilon,
    exact_loss_distribution,
    simulate_comonotone,
    simulate_independent,
    simulate_losses,
    sup_cdf_distance,
)

PORT = homogeneous_portfolio(1000, 0.02, DeterministicLgd(0.1))
IND_PROFILES = [IndependentProfile(0.02)] * 1000
COM_PROFILES = [ComonotoneProfile(0.02)] * 1000


def _node_by_node(profiles, borrowers, quad_nodes):
    """Exact distribution from the full product of the group pmfs at every
    quadrature node, reduced over the nodes afterwards."""
    groups = _pool(borrowers, profiles)
    if all(isinstance(g.profile, IndependentProfile) for g in groups):
        t, wq = np.array([0.5]), np.array([1.0])
    else:
        x, w = np.polynomial.legendre.leggauss(quad_nodes)
        t, wq = 0.5 * (x + 1.0), 0.5 * w
    f = Factor(t)
    support, probs = np.array([0.0]), np.ones((t.size, 1))
    for grp in groups:
        counts = np.arange(grp.n + 1)
        support = (support[:, None] + grp.weight * grp.lgd.value * counts[None, :]).ravel()
        p = np.clip(grp.profile._cpd(f), 0.0, 1.0)
        pmf = binom.pmf(counts[None, :], grp.n, p[:, None])
        probs = (probs[:, :, None] * pmf[:, None, :]).reshape(t.size, -1)
    return _merge_support(support, wq @ probs)


def _all_binomial(profiles, borrowers, samples, seed):
    """Losses of the chunk loop that draws every group, singletons too, with
    ``rng.binomial``."""
    groups = _pool(borrowers, profiles)

    def chunk(rng, m):
        f = Factor(rng.random(m))
        loss = np.zeros(m)
        for grp in groups:
            p = grp.profile
            if isinstance(p, IndependentProfile):
                counts = rng.binomial(grp.n, p.pd, size=m)
            elif isinstance(p, ComonotoneProfile):
                counts = grp.n * (f.t >= 1.0 - p.pd).astype(np.int64)
            else:
                counts = rng.binomial(grp.n, np.clip(p._cpd(f), 0.0, 1.0))
            loss += grp.weight * _lgd_total(rng, grp.lgd, counts)
        return loss

    return _run_chunks(samples, seed, 1, chunk)


# thresholds where the replay rule switches branch or draws nothing
EDGE_PDS = [0.0, 1.0, 0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 1e-310, 5e-324,
            np.nextafter(1.0, 0.0)]


@st.composite
def mixed_groups(draw, max_support=2**14):
    """2-12 borrower groups of 1-6 each, every group under a registered
    model's lower or upper profile, with at most ``max_support`` default-count
    combinations."""
    k = draw(st.integers(2, 12))
    room = max_support
    groups = []
    for i in range(k):
        # leave at least two combinations for each group still to come
        n = draw(st.integers(1, min(6, room // 2 ** (k - i - 1) - 1)))
        room //= n + 1
        groups.append((
            n,
            draw(st.floats(0.005, 0.5)),
            draw(st.floats(0.1, 3.0)),
            draw(st.sampled_from([0.2, 0.45, 1.0])),
            draw(st.sampled_from(tuple(MODELS))),
            draw(st.sampled_from([0, 1])),
            draw(st.floats(0.05, 0.4)),
            draw(st.floats(0.0, 0.2)),
        ))
    return groups


class TestSimulateLosses:
    def test_mean_matches_expected_loss(self):
        sample = simulate_losses(IND_PROFILES, PORT, 100_000, seed=11)
        se = batch_standard_error(sample, lambda s: s.mean())
        assert abs(sample.mean() - 0.002) <= 4 * se

    def test_comonotone_profiles_give_two_point_losses(self):
        sample = simulate_losses(COM_PROFILES, PORT, 50_000, seed=12)
        vals = np.unique(sample.losses)
        assert vals.size == 2 and vals[0] == 0.0 and vals[1] == pytest.approx(0.1)
        frac = (sample.losses > 0.05).mean()
        assert frac == pytest.approx(0.02, abs=3 * np.sqrt(0.02 * 0.98 / 50_000))

    def test_deterministic_across_worker_counts(self):
        runs = [
            simulate_losses([gaussian_profile(0.165, 0.02)] * 1000, PORT, 60_000, seed=5, workers=w)
            for w in (1, 4, 16)
        ]
        assert np.array_equal(runs[0].losses, runs[1].losses)
        assert np.array_equal(runs[1].losses, runs[2].losses)

    def test_same_seed_same_sample_different_seed_differs(self):
        a = simulate_losses(IND_PROFILES, PORT, 10_000, seed=1)
        b = simulate_losses(IND_PROFILES, PORT, 10_000, seed=1)
        c = simulate_losses(IND_PROFILES, PORT, 10_000, seed=2)
        assert np.array_equal(a.losses, b.losses)
        assert not np.array_equal(a.losses, c.losses)

    def test_losses_bounded_by_maximal_loss(self):
        port = homogeneous_portfolio(50, 0.3, BetaLgd(0.4, 0.2))
        sample = simulate_losses([gaussian_profile(0.3, 0.3)] * 50, port, 20_000, seed=3)
        assert np.all(sample.losses >= 0.0)
        assert np.all(sample.losses <= 1.0)
        assert np.all(np.isfinite(sample.losses))

    def test_profile_borrower_mismatch_rejected(self):
        with pytest.raises(ValueError, match="profiles"):
            simulate_losses(IND_PROFILES[:10], PORT, 100, seed=1)
        with pytest.raises(ValueError, match="does not match"):
            simulate_losses([IndependentProfile(0.5)] * 1000, PORT, 100, seed=1)


class TestBernoulli:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(EDGE_PDS), st.floats(0.0, 1.0)), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    def test_replays_the_binomial_stream(self, ps, seed):
        p = np.array(ps)
        a, b = _chunk_rng(seed, 0), _chunk_rng(seed, 0)
        assert np.array_equal(_bernoulli(a, p, p.size), b.binomial(1, p))
        assert a.random() == b.random()
        # a scalar p draws like binomial(1, p, size=m)
        assert np.array_equal(_bernoulli(a, p[0], 50), b.binomial(1, p[0], size=50))
        assert a.random() == b.random()

    def test_replays_a_million_draws(self):
        rng = np.random.default_rng(3)
        p = rng.random(1_000_000) ** rng.choice([1.0, 4.0, 40.0], 1_000_000)
        p[rng.integers(0, p.size, 8000)] = np.repeat(EDGE_PDS, 1000)
        a, b = _chunk_rng(9, 0), _chunk_rng(9, 0)
        assert np.array_equal(_bernoulli(a, p, p.size), b.binomial(1, p))
        assert a.random() == b.random()

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_invalid_p_raises_like_binomial(self, bad):
        p = np.array([0.2, bad, 0.3])
        with pytest.raises(ValueError):
            _chunk_rng(1, 0).binomial(1, p)
        with pytest.raises(ValueError, match="NaN"):
            _bernoulli(_chunk_rng(1, 0), p, 3)
        with pytest.raises(ValueError, match="NaN"):
            _bernoulli(_chunk_rng(1, 0), bad, 3)

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("lgd", [DeterministicLgd(0.45), BetaLgd(0.45, 0.2)], ids=repr)
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_singleton_losses_equal_the_all_binomial_chunk(self, model, side, lgd):
        rng = np.random.default_rng(17)
        pds = [0.004, 0.02, 0.3, 0.5, 0.62, 0.9, 1.0 - 1e-9]
        amounts = rng.uniform(0.5, 2.0, len(pds))
        borrowers = [
            Borrower(f"b{i}", pd, a / amounts.sum(), lgd, (0.1, 0.3), 0.2)
            for i, (pd, a) in enumerate(zip(pds, amounts))
        ]
        # one pooled group of three keeps the binomial path in the same chunk
        borrowers += [Borrower("pool", 0.05, 0.1, lgd, (0.1, 0.3), 0.2)] * 3
        bounds = [MODELS[model].bounds(b, Clayton(b.theta_point))[side] for b in borrowers]
        for profiles in (
            bounds,
            [IndependentProfile(b.pd) for b in borrowers],
            bounds[:3] + [IndependentProfile(b.pd) for b in borrowers[3:5]]
            + [ComonotoneProfile(b.pd) for b in borrowers[5:]],
        ):
            reference = _all_binomial(profiles, borrowers, 40_000, seed=8)
            for workers in (1, 2):
                sample = simulate_losses(profiles, borrowers, 40_000, seed=8, workers=workers)
                assert np.array_equal(sample.losses, reference)

    def test_sample_records_the_pooled_group_sizes(self):
        sample = simulate_losses(IND_PROFILES, PORT, 100, seed=1)
        assert sample.group_sizes == (1000,)
        borrowers = [
            Borrower(f"b{i}", 0.1, w, DeterministicLgd(1.0), (0.1, 0.2), 0.15)
            for i, w in enumerate([0.2, 0.2, 0.1, 0.5])
        ]
        sample = simulate_losses([IndependentProfile(0.1)] * 4, borrowers, 100, seed=1)
        assert sample.group_sizes == (2, 1, 1)


# pds at which the table's cells switch branch, vanish or saturate
TABLE_PDS = [1e-6, 0.5, 0.62, 1.0 - 1e-9]


def _repaired_envelope():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        env = envelope([gaussian_profile(0.1641, 0.02), clayton_profile(0.7232, 0.02)])
    assert env.upper.bridges
    return env.upper


@st.composite
def singletons(draw):
    """1-12 borrowers of distinct exposure, each under a registered model's
    lower or upper profile or a bridged Gauss-Clayton envelope."""
    k = draw(st.integers(1, 12))
    amounts = draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k, unique=True))
    borrowers, profiles = [], []
    for i, amount in enumerate(amounts):
        lgd = draw(st.sampled_from([DeterministicLgd(0.45), DeterministicLgd(1.0), BetaLgd(0.45, 0.2)]))
        if draw(st.booleans()) and i % 3 == 0:
            profile = _repaired_envelope()
            pd = profile.pd
        else:
            pd = draw(st.one_of(st.sampled_from(TABLE_PDS), st.floats(1e-6, 0.999)))
            lo = draw(st.floats(0.03, 0.4))
            b = Borrower("b", pd, 1.0, lgd, (lo, lo + draw(st.floats(0.0, 0.3))), lo)
            model = draw(st.sampled_from(sorted(MODELS)))
            profile = MODELS[model].bounds(b, Clayton(b.theta_point))[draw(st.sampled_from([0, 1]))]
        borrowers.append(Borrower(f"b{i}", pd, amount / sum(amounts), lgd, (0.1, 0.3), 0.2))
        profiles.append(profile)
    return borrowers, profiles


def _assert_replays_binomial(profiles, borrowers, samples, seed):
    reference = _all_binomial(profiles, borrowers, samples, seed)
    for workers in (1, 2):
        sample = simulate_losses(profiles, borrowers, samples, seed, workers)
        assert np.array_equal(sample.losses, reference)


def _grid(slopes) -> GridProfile:
    """Unvalidated grid profile whose pd steps through ``slopes``."""
    knots = np.concatenate([[0.0], np.cumsum(slopes) / len(slopes)])
    return GridProfile(knots, float(knots[-1]))


class TestPdTable:
    """Singletons decided from the per-cell pd table replay binomial(1, p)."""

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=40, deadline=None)
    @given(singletons(), st.integers(0, 2**32 - 1))
    def test_replays_the_binomial_stream(self, drawn, seed):
        borrowers, profiles = drawn
        _assert_replays_binomial(profiles, borrowers, 20_000, seed)

    def _with_gaussian(self, profile):
        """The profile's borrower, then a Gaussian one whose draws shift with any
        uniform the first one consumes wrongly."""
        borrowers = [
            Borrower("a", profile.pd, 0.6, DeterministicLgd(1.0), (0.1, 0.3), 0.2),
            Borrower("b", 0.3, 0.4, DeterministicLgd(1.0), (0.1, 0.3), 0.2),
        ]
        return [profile, gaussian_profile(0.2, 0.3)], borrowers

    def test_zero_pd_draws_take_no_uniform(self):
        # pd is exactly 0 on the first 30% of the factor
        slopes = np.where(np.arange(1000) < 300, 0.0, np.linspace(0.0, 0.9, 1000))
        profiles, borrowers = self._with_gaussian(_grid(slopes))
        assert np.all(profiles[0].conditional_pd(np.linspace(0.01, 0.29, 50)) == 0.0)
        _assert_replays_binomial(profiles, borrowers, 40_000, seed=3)

    # dips narrower than a table cell, which the table edges never see
    ZIGZAG = np.where(np.arange(3 * 4096) % 3 == 1, 0.05, np.linspace(0.2, 0.8, 3 * 4096))

    @pytest.mark.parametrize("profile", [
        # a table that decreases over the second half
        _grid(0.3 + 0.25 * np.sin(np.linspace(0.0, 2.0 * np.pi, 1000))),
        _grid(ZIGZAG),
        TabulatedPdCurve(ZIGZAG),
    ], ids=["coarse-grid", "grid-finer-than-the-table", "curve-finer-than-the-table"])
    def test_non_monotone_profile_falls_back_to_the_exact_pd(self, profile):
        profiles, borrowers = self._with_gaussian(profile)
        _assert_replays_binomial(profiles, borrowers, 40_000, seed=4)

    def test_nan_in_the_table_raises_like_bernoulli(self):
        knots = np.linspace(0.0, 0.2, 1001)
        knots[500] = np.nan
        profiles, borrowers = self._with_gaussian(GridProfile(knots, 0.2))
        with pytest.raises(ValueError, match="NaN"):
            simulate_losses(profiles, borrowers, 100, seed=1)


class TestBenchmarks:
    def test_independent_is_the_profile_route(self):
        direct = simulate_independent(PORT, 100_000, seed=21)
        via_profiles = simulate_losses(IND_PROFILES, PORT, 100_000, seed=21)
        assert np.array_equal(direct.losses, via_profiles.losses)

    def test_comonotone_is_the_profile_route(self):
        direct = simulate_comonotone(PORT, 100_000, seed=21)
        via_profiles = simulate_losses(COM_PROFILES, PORT, 100_000, seed=21)
        assert np.array_equal(direct.losses, via_profiles.losses)

    def test_single_borrower_fair_coin(self):
        port = homogeneous_portfolio(1, 0.5, DeterministicLgd(1.0))
        sample = simulate_independent(port, 40_000, seed=4)
        assert np.array_equal(np.unique(sample.losses), [0.0, 1.0])
        assert sample.mean() == pytest.approx(0.5, abs=0.01)

    def test_comonotone_two_point_support(self):
        sample = simulate_comonotone(PORT, 50_000, seed=6)
        vals = np.unique(sample.losses)
        assert vals.size == 2 and vals[0] == 0.0 and vals[1] == pytest.approx(0.1)

    def test_comonotone_heterogeneous_defaults_are_nested(self):
        borrowers = [
            Borrower("a", 0.5, 0.5, DeterministicLgd(1.0), (0.1, 0.2), 0.15),
            Borrower("b", 0.1, 0.5, DeterministicLgd(1.0), (0.1, 0.2), 0.15),
        ]
        sample = simulate_comonotone(borrowers, 50_000, seed=7)
        # the rarer default only ever happens together with the likelier one
        assert set(np.round(np.unique(sample.losses), 12)) <= {0.0, 0.5, 1.0}
        assert np.isclose(sample.losses, 0.5).mean() == pytest.approx(0.4, abs=0.01)


class TestExactDistribution:
    def test_single_independent_borrower(self):
        port = homogeneous_portfolio(1, 0.3, DeterministicLgd(1.0))
        ex = exact_loss_distribution([IndependentProfile(0.3)], port)
        assert np.allclose(ex.losses, [0.0, 1.0])
        assert np.allclose(ex.weights, [0.7, 0.3])

    def test_two_comonotone_borrowers_default_together(self):
        port = homogeneous_portfolio(2, 0.5, DeterministicLgd(1.0))
        ex = exact_loss_distribution([ComonotoneProfile(0.5)] * 2, port)
        assert np.allclose(ex.losses, [0.0, 1.0])
        assert np.allclose(ex.weights, [0.5, 0.5])

    def test_comonotone_closed_form_has_no_size_cap(self):
        ex = exact_loss_distribution(COM_PROFILES, PORT)
        assert np.allclose(ex.losses, [0.0, 0.1])
        assert np.allclose(ex.weights, [0.98, 0.02])

    def test_weights_sum_to_one(self):
        port = homogeneous_portfolio(8, 0.1, DeterministicLgd(1.0))
        ex = exact_loss_distribution([gaussian_profile(0.2, 0.1)] * 8, port)
        assert abs(ex.weights.sum() - 1.0) < 1e-12

    def test_quadrature_vs_mc_all_default_probability(self):
        port = homogeneous_portfolio(8, 0.1, DeterministicLgd(1.0))
        profiles = [gaussian_profile(0.2, 0.1)] * 8
        ex = exact_loss_distribution(profiles, port)
        p_all = ex.weights[np.isclose(ex.losses, 1.0)].sum()
        mc = simulate_losses(profiles, port, 400_000, seed=31)
        frac = np.isclose(mc.losses, 1.0).mean()
        se = np.sqrt(frac * (1 - frac) / mc.size)
        assert abs(frac - p_all) <= 3 * se

    def test_mc_inside_dkw_band(self):
        port = homogeneous_portfolio(10, 0.08, DeterministicLgd(1.0))
        for profiles in (
            [clayton_profile(0.7, 0.08)] * 10,
            [survival_clayton_profile(0.7, 0.08)] * 10,
            [gaussian_profile(0.25, 0.08)] * 10,
        ):
            ex = exact_loss_distribution(profiles, port)
            mc = simulate_losses(profiles, port, 100_000, seed=32)
            assert sup_cdf_distance(mc, ex) < dkw_epsilon(100_000)

    def test_comonotone_shared_threshold_is_one_atom(self):
        borrowers = [
            Borrower("a", 0.1, 0.6, DeterministicLgd(1.0), (0.1, 0.2), 0.15),
            Borrower("b", 0.1, 0.4, DeterministicLgd(1.0), (0.1, 0.2), 0.15),
        ]
        ex = exact_loss_distribution([ComonotoneProfile(0.1)] * 2, borrowers)
        assert np.array_equal(ex.losses, [0.0, 1.0])
        assert np.allclose(ex.weights, [0.9, 0.1])

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_zero_exposure_borrower_changes_nothing(self, model, side):
        # a borrower with exposure 0 adds a group whose every default count
        # loses nothing: its pmf must collapse to a unit mass at zero loss
        a = Borrower("a", 0.05, 1.0 / 3.5, DeterministicLgd(0.6), (0.1, 0.2), 0.15)
        z = Borrower("z", 0.1, 0.0, DeterministicLgd(0.5), (0.15, 0.25), 0.2)
        c = Borrower("c", 0.02, 2.5 / 3.5, DeterministicLgd(0.4), (0.12, 0.3), 0.2)

        def exact(borrowers):
            profiles = [MODELS[model].bounds(b, Clayton(b.theta_point))[side] for b in borrowers]
            return exact_loss_distribution(profiles, borrowers)

        with_zero, without = exact([a, z, c]), exact([a, c])
        assert np.array_equal(with_zero.losses, without.losses)
        np.testing.assert_allclose(with_zero.weights, without.weights, rtol=1e-13, atol=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 12),
                st.floats(0.001, 0.999),
                st.sampled_from([0.25, 0.45, 1.0]),
                st.sampled_from([0.5, 1.0, 1.7]),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda g: g[1:],
        )
    )
    def test_independent_is_the_product_of_binomials(self, groups):
        total = sum(n * amount for n, _, _, amount in groups)
        borrowers, support, probs = [], np.array([0.0]), np.ones(1)
        for n, pd, lgd, amount in groups:
            weight = amount / total
            borrowers += [
                Borrower(f"b{len(borrowers) + i}", pd, weight, DeterministicLgd(lgd), (0.1, 0.2), 0.15)
                for i in range(n)
            ]
            pmf = binom.pmf(np.arange(n + 1), n, pd)
            support = (support[:, None] + weight * lgd * np.arange(n + 1)[None, :]).ravel()
            probs = (probs[:, None] * pmf[None, :]).ravel()
        reference = _merge_support(support, probs)
        ex = exact_loss_distribution([IndependentProfile(b.pd) for b in borrowers], borrowers)
        assert np.array_equal(ex.losses, reference.losses)
        assert np.array_equal(ex.weights, reference.weights)

    def test_scope_errors(self):
        # 25 pooled borrowers are 26 support points, far below the cap
        port = homogeneous_portfolio(25, 0.1, DeterministicLgd(1.0))
        assert exact_loss_distribution([gaussian_profile(0.2, 0.1)] * 25, port).size == 26
        # distinct exposures keep 21 borrowers apart: 2^21 support points
        port21 = [
            Borrower(f"b{i}", 0.1, (i + 1) / 231, DeterministicLgd(1.0), (0.1, 0.2), 0.15)
            for i in range(21)
        ]
        with pytest.raises(ValueError, match=f"{2**21} support points"):
            exact_loss_distribution([gaussian_profile(0.2, 0.1)] * 21, port21)
        port_beta = homogeneous_portfolio(5, 0.1, BetaLgd(0.1, 0.15))
        with pytest.raises(ValueError, match="deterministic LGD"):
            exact_loss_distribution([gaussian_profile(0.2, 0.1)] * 5, port_beta)
        port5 = homogeneous_portfolio(5, 0.1, DeterministicLgd(1.0))
        for nodes in (8, 4097):
            with pytest.raises(ValueError, match="quad_nodes"):
                exact_loss_distribution([gaussian_profile(0.2, 0.1)] * 5, port5, quad_nodes=nodes)

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=120, deadline=None)
    @given(mixed_groups(), st.sampled_from([16, 64, 256]))
    def test_split_contraction_equals_the_node_by_node_product(self, groups, quad_nodes):
        total = sum(n * amount for n, _, amount, *_ in groups)
        borrowers, profiles = [], []
        for n, pd, amount, lgd, model, side, corr_lo, width in groups:
            b = Borrower(
                f"b{len(borrowers)}", pd, amount / total, DeterministicLgd(lgd),
                (corr_lo, corr_lo + width), corr_lo + width / 2,
            )
            borrowers += [b] * n
            profiles += [MODELS[model].bounds(b, Clayton(b.theta_point))[side]] * n
        # all-comonotone sets take the closed form, not the quadrature
        assume(not all(isinstance(p, ComonotoneProfile) for p in profiles))
        ex = exact_loss_distribution(profiles, borrowers, quad_nodes)
        reference = _node_by_node(profiles, borrowers, quad_nodes)
        assert np.array_equal(ex.losses, reference.losses)
        np.testing.assert_allclose(ex.weights, reference.weights, rtol=1e-13, atol=1e-16)

    def test_twenty_distinct_exposures_fill_the_cap_on_an_integer_lattice(self):
        # exposures k/210 make 2^20 default combinations over 211 losses
        borrowers = [
            Borrower(f"b{k}", 0.1, k / 210, DeterministicLgd(1.0), (0.1, 0.2), 0.15)
            for k in range(1, 21)
        ]
        profile = gaussian_profile(0.2, 0.1)
        ex = exact_loss_distribution([profile] * 20, borrowers)
        assert len(_pool(borrowers, [profile] * 20)) == 20
        assert np.allclose(ex.losses, np.arange(211) / 210, rtol=0.0, atol=1e-12)

        # reference: convolve borrower by borrower on the loss lattice k at each node
        x, w = np.polynomial.legendre.leggauss(256)
        t, wq = 0.5 * (x + 1.0), 0.5 * w
        reference = np.zeros(211)
        for p, wt in zip(profile.conditional_pd(t), wq):
            pmf = np.ones(1)
            for k in range(1, 21):
                step = np.zeros(k + 1)
                step[0], step[k] = 1.0 - p, p
                pmf = np.convolve(pmf, step)
            reference += wt * pmf
        np.testing.assert_allclose(ex.weights, reference, rtol=1e-12, atol=0.0)

    def test_quadrature_nodes_are_computed_once_and_read_only(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        _gauss_legendre.cache_clear()
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        port = homogeneous_portfolio(8, 0.1, DeterministicLgd(1.0))
        for corr in (0.2, 0.3):
            exact_loss_distribution([gaussian_profile(corr, 0.1)] * 8, port)
        assert calls == [256]
        t, wq = _gauss_legendre(256)
        assert not t.flags.writeable and not wq.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.5


class TestLossSample:
    def test_sorting_is_stable_and_weighted(self):
        s = LossSample(np.array([0.3, 0.1, 0.2]), np.array([0.5, 0.25, 0.25]))
        srt = s.sorted()
        assert np.allclose(srt.losses, [0.1, 0.2, 0.3])
        assert np.allclose(srt.weights, [0.25, 0.25, 0.5])
        assert srt.sorted() is srt

    def test_weighted_mean(self):
        s = LossSample(np.array([0.0, 1.0]), np.array([0.75, 0.25]))
        assert s.mean() == 0.25

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LossSample(np.zeros(3), np.zeros(2))

    def test_batch_se_shrinks_with_samples(self):
        small = simulate_independent(PORT, 20_000, seed=41)
        large = simulate_independent(PORT, 200_000, seed=41)
        se_small = batch_standard_error(small, lambda s: s.mean())
        se_large = batch_standard_error(large, lambda s: s.mean())
        assert se_large < se_small
