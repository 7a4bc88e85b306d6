import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from creditbounds.portfolio import BetaLgd, Borrower, DeterministicLgd, homogeneous_portfolio
from creditbounds.profiles import (
    ComonotoneProfile,
    IndependentProfile,
    clayton_profile,
    gaussian_profile,
    survival_clayton_profile,
)
from creditbounds.simulate import (
    LossSample,
    _merge_support,
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
