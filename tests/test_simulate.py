import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from conftest import FIXTURES
from creditbounds import _normal, risk, simulate
from creditbounds._normal import _legendre_rule
from creditbounds.copulas import Clayton, Factor
from creditbounds.portfolio import BetaLgd, Borrower, DeterministicLgd, homogeneous_portfolio, load_scenario
from creditbounds.profiles import (
    MODELS,
    ComonotoneProfile,
    DefaultProfile,
    GridProfile,
    IndependentProfile,
    clayton_profile,
    curve_table,
    envelope,
    gaussian_profile,
    survival_clayton_profile,
    _checked_pd,
)
from creditbounds.simulate import (
    _CHUNK,
    _N_BATCHES,
    _T_MAX,
    LossSample,
    _binomial_pmf,
    _chunk_bounds,
    _chunk_rng,
    _gauss_legendre,
    _keep,
    _lgd_total,
    _merge_support,
    _pool,
    _run_chunks,
    _stratified,
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
        t, wq = _gauss_legendre(quad_nodes)
    f = Factor(t)
    support, probs = np.array([0.0]), np.ones((t.size, 1))
    for grp in groups:
        counts = np.arange(grp.n + 1)
        support = (support[:, None] + grp.weight * grp.lgd.value * counts[None, :]).ravel()
        p = np.clip(grp.profile._cpd(f), 0.0, 1.0)
        pmf = binom.pmf(counts[None, :], grp.n, p[:, None])
        probs = (probs[:, :, None] * pmf[:, None, :]).reshape(t.size, -1)
    return _merge_support(support, wq @ probs)


def _all_evaluated(profiles, borrowers, samples, seed):
    """Losses of the chunk loop that evaluates every singleton's pd at every
    draw and defaults it where its uniform falls below."""
    groups = _pool(borrowers, profiles)

    def chunk(rng, loss):
        m = loss.size
        f = Factor(_stratified(rng, m))
        for grp in groups:
            p = grp.profile
            if isinstance(p, ComonotoneProfile):
                counts = grp.n * (f.t >= 1.0 - p.pd).astype(np.int64)
            elif grp.n == 1:
                counts = rng.random(m) < _checked_pd(np.clip(p._cpd(f), 0.0, 1.0))
            elif isinstance(p, IndependentProfile):
                counts = rng.binomial(grp.n, p.pd, size=m)
            else:
                counts = rng.binomial(grp.n, np.clip(p._cpd(f), 0.0, 1.0))
            loss += grp.weight * _lgd_total(rng, grp.lgd, counts)

    out = np.zeros(samples)
    chunks = _chunk_bounds(samples)
    _run_chunks(chunks, seed, 0, 1, lambda rng, ci: chunk(rng, out[slice(*chunks[ci])]))
    return out


def _assert_matches_all_evaluated(profiles, borrowers, samples, seed):
    reference = _all_evaluated(profiles, borrowers, samples, seed)
    for workers in (1, 2):
        sample = simulate_losses(profiles, borrowers, samples, seed, workers)
        assert np.array_equal(sample.losses, reference)


# pds at the ends of [0, 1], around 0.5 and at the smallest positive doubles
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
    """Singletons default where their uniform falls below their pd."""

    @staticmethod
    def _curve_and_constant(ps):
        """A singleton whose pd steps through ps, then one at the constant pd
        ps[0] (when it is a valid pd), whose draws shift with any uniform the
        first consumes wrongly."""
        profiles = [GridProfile(ps)]
        if 0.0 < ps[0] < 1.0:
            profiles.append(IndependentProfile(float(ps[0])))
        borrowers = [
            Borrower(f"b{i}", p.pd, w, DeterministicLgd(1.0), (0.1, 0.3), 0.2)
            for i, (p, w) in enumerate(zip(profiles, (0.6, 0.4)))
        ]
        return profiles, borrowers

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(st.sampled_from(EDGE_PDS), st.floats(0.0, 1.0)), min_size=1, max_size=300),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_all_evaluated_draws(self, ps, seed):
        # the curve's mean is its borrower's pd
        assume(0.0 < np.mean(ps) < 1.0)
        profiles, borrowers = self._curve_and_constant(ps)
        _assert_matches_all_evaluated(profiles, borrowers, 2_000, seed)

    def test_matches_a_million_evaluated_draws(self):
        rng = np.random.default_rng(3)
        p = rng.random(1_000_000) ** rng.choice([1.0, 4.0, 40.0], 1_000_000)
        p[rng.integers(0, p.size, 8000)] = np.repeat(EDGE_PDS, 1000)
        profiles, borrowers = self._curve_and_constant(p.tolist())
        _assert_matches_all_evaluated(profiles, borrowers, 1_000_000, 9)

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5])
    def test_invalid_p_raises_like_binomial(self, bad):
        p = np.array([0.2, bad, 0.3])
        with pytest.raises(ValueError):
            _chunk_rng(1, 0, 0).binomial(1, p)
        with pytest.raises(ValueError, match="NaN"):
            _checked_pd(p)
        with pytest.raises(ValueError, match="NaN"):
            _checked_pd(np.float64(bad))

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("lgd", [DeterministicLgd(0.45), BetaLgd(0.45, 0.2)], ids=repr)
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_singleton_losses_equal_the_all_evaluated_chunk(self, model, side, lgd):
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
            _assert_matches_all_evaluated(profiles, borrowers, 40_000, seed=8)

    def test_sample_records_the_pooled_group_sizes(self):
        sample = simulate_losses(IND_PROFILES, PORT, 100, seed=1)
        assert sample.group_sizes == (1000,)
        borrowers = [
            Borrower(f"b{i}", 0.1, w, DeterministicLgd(1.0), (0.1, 0.2), 0.15)
            for i, w in enumerate([0.2, 0.2, 0.1, 0.5])
        ]
        sample = simulate_losses([IndependentProfile(0.1)] * 4, borrowers, 100, seed=1)
        assert sample.group_sizes == (2, 1, 1)


# pds whose cell bounds reach 0, cross 0.5 or saturate
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


def _grid_with_nan(steps, nan_steps) -> GridProfile:
    """Step-curve profile of ``steps`` with NaN swapped into the steps
    ``nan_steps`` after construction, which rejects a NaN step."""
    profile = GridProfile(steps)
    steps = profile.steps.copy()
    steps[nan_steps] = np.nan
    object.__setattr__(profile, "steps", steps)
    return profile


class TestPdTable:
    """Singletons decided by their profile's cell bounds draw as if every pd were evaluated."""

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=40, deadline=None)
    @given(singletons(), st.integers(0, 2**32 - 1))
    def test_matches_the_all_evaluated_draws(self, drawn, seed):
        borrowers, profiles = drawn
        _assert_matches_all_evaluated(profiles, borrowers, 20_000, seed)

    def _with_gaussian(self, profile):
        """The profile's borrower, then a Gaussian one whose draws shift with any
        uniform the first one consumes wrongly."""
        borrowers = [
            Borrower("a", profile.pd, 0.6, DeterministicLgd(1.0), (0.1, 0.3), 0.2),
            Borrower("b", 0.3, 0.4, DeterministicLgd(1.0), (0.1, 0.3), 0.2),
        ]
        return [profile, gaussian_profile(0.2, 0.3)], borrowers

    def test_zero_pd_stretch_matches_the_all_evaluated_draws(self):
        # pd is exactly 0 on the first 30% of the factor
        slopes = np.where(np.arange(1000) < 300, 0.0, np.linspace(0.0, 0.9, 1000))
        profiles, borrowers = self._with_gaussian(GridProfile(slopes))
        assert np.all(profiles[0].conditional_pd(np.linspace(0.01, 0.29, 50)) == 0.0)
        _assert_matches_all_evaluated(profiles, borrowers, 40_000, seed=3)

    # dips narrower than a cell, which the cell edges never see
    ZIGZAG = np.where(np.arange(3 * 4096) % 3 == 1, 0.05, np.linspace(0.2, 0.8, 3 * 4096))

    @pytest.mark.parametrize("profile", [
        # cell edge values that decrease over the second half
        GridProfile(0.3 + 0.25 * np.sin(np.linspace(0.0, 2.0 * np.pi, 1000))),
        GridProfile(ZIGZAG),
    ], ids=["coarse-grid", "grid-finer-than-the-table"])
    def test_non_monotone_profile_falls_back_to_the_exact_pd(self, profile):
        profiles, borrowers = self._with_gaussian(profile)
        _assert_matches_all_evaluated(profiles, borrowers, 40_000, seed=4)

    def test_nan_in_the_table_raises(self):
        profiles, borrowers = self._with_gaussian(_grid_with_nan(np.full(1000, 0.2), slice(499, 501)))
        with pytest.raises(ValueError, match="NaN"):
            simulate_losses(profiles, borrowers, 100, seed=1)
        with pytest.raises(ValueError, match="NaN"):
            profiles[0].conditional_pd(0.4995)
        with pytest.raises(ValueError, match="NaN"):
            curve_table(profiles[0])


class TestDeferredBands:
    """Deterministic-LGD singletons settle their band draws once per run."""

    @staticmethod
    def _mixed():
        """Deterministic and beta singletons on cell bounds, a pooled group of
        three, an independent singleton, comonotone members, and pooled
        independent and Gaussian groups large enough for numpy's BTPE
        binomial on both sides of p = 0.5."""
        det, beta = DeterministicLgd(0.45), BetaLgd(0.45, 0.2)
        specs = [
            ("gaussian", 0, 0.02, det), ("clayton", 1, 0.3, det), ("gauss_clayton", 1, 0.05, det),
            ("survival_clayton", 1, 0.1, det), ("gaussian", 1, 0.04, beta), ("clayton", 0, 0.2, beta),
        ]
        borrowers, profiles = [], []
        for i, (model, side, pd, lgd) in enumerate(specs):
            b = Borrower(f"s{i}", pd, 0.05 + 0.01 * i, lgd, (0.1, 0.3), 0.2)
            borrowers.append(b)
            profiles.append(MODELS[model].bounds(b, Clayton(b.theta_point))[side])
        pool = Borrower("pool", 0.05, 0.04, det, (0.1, 0.3), 0.2)
        borrowers += [pool] * 3
        profiles += [MODELS["gaussian"].bounds(pool, None)[1]] * 3
        borrowers.append(Borrower("indep", 0.1, 0.07, det, (0.1, 0.3), 0.2))
        profiles.append(IndependentProfile(0.1))
        for i, lgd in enumerate([det, det, beta]):
            borrowers.append(Borrower(f"c{i}", 0.03, 0.02 + 0.01 * i, lgd, (0.1, 0.3), 0.2))
            profiles.append(ComonotoneProfile(0.03))
        for n, pd in ((1000, 0.05), (200, 0.7)):
            for profile in (IndependentProfile(pd), gaussian_profile(0.2, pd)):
                borrowers += [Borrower(f"{n}", pd, 1e-4, det, (0.1, 0.3), 0.2)] * n
                profiles += [profile] * n
        return profiles, borrowers

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("workers", [1, 3])
    def test_mixed_portfolio_matches_the_all_evaluated_draws(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_CHUNK", 700)
        profiles, borrowers = self._mixed()
        samples = 30_001
        assert len(_chunk_bounds(samples)) >= 2 * _N_BATCHES
        settled = []
        settle = simulate._settle_bands

        def spy(deferred, *args):
            settled.append(len(deferred))
            settle(deferred, *args)

        monkeypatch.setattr(simulate, "_settle_bands", spy)
        reference = _all_evaluated(profiles, borrowers, samples, seed=12)
        sample = simulate_losses(profiles, borrowers, samples, seed=12, workers=workers)
        assert np.array_equal(sample.losses, reference)
        # one settlement per run, over band draws from many chunks
        assert len(settled) == 1 and settled[0] > _N_BATCHES

    def test_nan_reached_only_by_a_deferred_band_raises(self):
        # a dip in every third step makes every cell non-monotone, so
        # all draws fall in the band; the NaN steps lie inside one cell,
        # away from the cell edges, which read every third step
        profile = _grid_with_nan(TestPdTable.ZIGZAG, slice(3 * 2000 + 1, 3 * 2000 + 3))
        assert np.all(profile._cell_bounds()[0] == 0.0)
        profiles, borrowers = TestPdTable()._with_gaussian(profile)
        with pytest.raises(ValueError, match="NaN"):
            simulate_losses(profiles, borrowers, 40_000, seed=1)

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_table_evaluates_its_pd_once_per_run(self, monkeypatch, workers):
        monkeypatch.setattr(simulate, "_CHUNK", 500)
        calls = {}
        pd_at = DefaultProfile._pd_at

        def counting(self, f):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return pd_at(self, f)

        monkeypatch.setattr(DefaultProfile, "_pd_at", counting)
        profiles, borrowers = self._mixed()
        # the deterministic-LGD singletons only
        sample = simulate_losses(profiles[:4], borrowers[:4], 40_000, seed=5, workers=workers)
        assert sample.exact_pd_share > 0.0
        # once for the cell bounds, and once for the band draws of all 80
        # chunks unless none of them fell in the band
        assert set(calls) == {id(p) for p in profiles[:4]}
        assert max(calls.values()) == 2 and min(calls.values()) >= 1

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.filterwarnings("ignore:.*clamped to 1 - 1e-9")
    def test_cell_bounds_are_built_once_per_profile_per_run(self, monkeypatch):
        built = []
        cell_bounds = DefaultProfile._cell_bounds

        def counting(self):
            built.append(id(self))
            return cell_bounds(self)

        monkeypatch.setattr(DefaultProfile, "_cell_bounds", counting)
        scenario = load_scenario(FIXTURES / "idb_scenario1.json")
        total = 0
        for _, _, run, profiles in risk.model_runs(scenario):
            built.clear()
            simulate_losses(profiles, scenario.borrowers, 2_000, seed=7, run=run)
            # IDB sovereigns of equal pd share one profile object
            assert sorted(built) == sorted({id(p) for p in profiles})
            total += len(built)
        # 26 singletons in each of the eight runs would be 208 builds
        assert total == 112


def _reprs(values_and_ses) -> list:
    return [[repr(v) for v in part] for part in values_and_ses]


class TestTails:
    """A tail run keeps only the draws its AVaR reads, and the report reads
    the same bits from them as from the whole sample."""

    @staticmethod
    def _portfolio(kind):
        """Tie-heavy pooled lattice losses, continuous beta-LGD ones, or the
        mixed portfolio whose deterministic-LGD singletons defer their bands."""
        if kind == "mixed":
            return TestDeferredBands._mixed()
        lgd = DeterministicLgd(0.45) if kind == "lattice" else BetaLgd(0.45, 0.2)
        b = Borrower("pool", 0.05, 0.01, lgd, (0.1, 0.3), 0.2)
        return [MODELS["gaussian"].bounds(b, None)[1]] * 40, [b] * 40

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["lattice", "continuous", "mixed"]),
        st.integers(20, 5_000),
        st.integers(16, 160),
        st.lists(st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]), min_size=1, max_size=2, unique=True),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1, 2]),
        st.sampled_from([0, 4, 16, 64]),
    )
    def test_reads_the_bits_of_the_whole_sample(self, kind, samples, chunk, levels, seed, workers, extra):
        profiles, borrowers = self._portfolio(kind)
        # small chunks put several in a batch, and a small keep margin drops
        # more draws and sometimes falls back to the whole sample
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "_CHUNK", chunk)
            mp.setattr(simulate, "_KEEP_EXTRA", extra)
            whole = simulate_losses(profiles, borrowers, samples, seed)
            tail = simulate_losses(profiles, borrowers, samples, seed, workers, tail=min(levels))
        assert tail.size == samples and tail.losses.size <= samples
        got = _reprs(risk._avar_with_se(tail, levels))
        assert got == _reprs(risk._avar_with_se(whole, levels))

    @pytest.mark.filterwarnings("ignore:pointwise min of the profile family")
    @pytest.mark.parametrize("kind", ["lattice", "continuous", "mixed"])
    def test_several_chunks_a_batch_keep_their_largest_draws(self, monkeypatch, kind):
        monkeypatch.setattr(simulate, "_CHUNK", 500)
        profiles, borrowers = self._portfolio(kind)
        samples = 30_001  # three chunks a batch, four of unequal size in the first
        whole = simulate_losses(profiles, borrowers, samples, seed=4)
        tail = simulate_losses(profiles, borrowers, samples, seed=4, workers=3, tail=0.95)
        chunks = _chunk_bounds(samples)
        assert len(chunks) == 3 * _N_BATCHES + 1
        # no fallback: each chunk kept its own largest draws, in chunk order
        keeps = [_keep(hi - lo, 0.95) for lo, hi in chunks]
        assert tail.losses.size == sum(keeps) < samples / 4
        at = 0
        for (lo, hi), k in zip(chunks, keeps):
            expected = np.sort(whole.losses[lo:hi])[-k:]
            assert np.array_equal(np.sort(tail.losses[at:at + k]), expected)
            at += k
        assert _reprs(risk._avar_with_se(tail, (0.95, 0.99))) == _reprs(risk._avar_with_se(whole, (0.95, 0.99)))

    def test_a_tail_answers_only_what_it_kept(self):
        profiles = [IndependentProfile(b.pd) for b in PORT]
        tail = simulate_losses(profiles, PORT, 40_000, seed=2, tail=0.95)
        assert tail.losses.size < tail.size == 40_000
        assert np.isfinite(risk.avar(tail, (0.95, 0.99))).all()
        with pytest.raises(ValueError, match="kept too few"):
            risk.avar(tail, 0.5)
        for whole_only in (tail.sorted, tail.mean):
            with pytest.raises(ValueError, match="tail holds"):
                whole_only()


class TestStreams:
    @pytest.mark.parametrize("samples", [1, 19, 20, 21, 16_385, 50_001, 400_000, 1_000_000])
    def test_chunks_nest_in_batches_and_cover_every_sample_once(self, samples):
        batches = np.array_split(np.arange(samples), _N_BATCHES)
        starts = np.cumsum([0] + [b.size for b in batches])
        covered = np.zeros(samples, dtype=int)
        for lo, hi in _chunk_bounds(samples):
            assert 0 < hi - lo <= _CHUNK
            k = np.searchsorted(starts, lo, side="right") - 1
            assert starts[k] <= lo < hi <= starts[k + 1]
            covered[lo:hi] += 1
        assert np.all(covered == 1)

    def test_stratified_draws_fill_their_strata(self):
        m = 10_000
        t = _stratified(_chunk_rng(5, 0, 0), m)
        j = np.arange(m)
        assert np.all((j / m <= t) & (t <= (j + 1) / m)) and t.max() < 1.0

    @pytest.mark.parametrize("m", [1, 3, 16_384, _CHUNK])
    def test_stratified_t_is_never_one(self, m):
        class Largest:
            """A generator whose every uniform is the largest double below 1."""

            def random(self, size):
                return np.full(size, _T_MAX)

        t = _stratified(Largest(), m)
        if m > 1:
            # the last stratum's j + U rounds up to m
            assert (m - 1) + _T_MAX == m
        assert t.max() == _T_MAX

    def test_runs_of_two_seeds_never_share_a_stream(self):
        # a seed-plus-offset scheme would give seed 7's run 2 the stream of seed 9's run 0
        assert not np.array_equal(_chunk_rng(7, 2, 0).random(8), _chunk_rng(9, 0, 0).random(8))
        profiles = [gaussian_profile(0.165, 0.02)] * 1000
        a = simulate_losses(profiles, PORT, 20_000, seed=7, run=2)
        b = simulate_losses(profiles, PORT, 20_000, seed=9, run=0)
        assert not np.array_equal(a.losses, b.losses)

    def test_batch_standard_error_matches_the_spread_over_40_seeds(self):
        from creditbounds.risk import avar

        profiles = [gaussian_profile(0.24, 0.02)] * 1000
        alphas = (0.95, 0.99)
        estimates, ses = [], []
        for seed in range(40):
            sample = simulate_losses(profiles, PORT, 20_000, seed=seed, run=3)
            estimates.append(avar(sample, alphas))
            ses.append(batch_standard_error(sample, lambda s: avar(s, alphas)))
        ratio = np.std(estimates, axis=0, ddof=1) / np.mean(ses, axis=0)
        # 40 estimates know their spread to about 11%: allow three times that
        assert np.all((0.67 < ratio) & (ratio < 1.33)), ratio


class TestLgdTotal:
    def test_beta_sums_match_per_scenario_fsum(self):
        lgd = BetaLgd(0.45, 0.2)
        counts = np.random.default_rng(2).binomial(60, 0.3, 5_000)
        counts[::7] = 0
        total = _lgd_total(_chunk_rng(3, 0, 0), lgd, counts)
        draws = lgd.draw(_chunk_rng(3, 0, 0), int(counts.sum()))
        ends = np.cumsum(counts)
        reference = [math.fsum(draws[e - n:e]) for n, e in zip(counts, ends)]
        np.testing.assert_allclose(total, reference, rtol=1e-13, atol=0.0)
        assert np.all(total[counts == 0] == 0.0) and np.all(total[counts > 0] > 0.0)

    def test_no_defaults_give_exact_zeros(self):
        total = _lgd_total(_chunk_rng(3, 0, 0), BetaLgd(0.45, 0.2), np.zeros(10, dtype=np.int64))
        assert np.array_equal(total, np.zeros(10))


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

    def test_distance_needs_every_draw_equally_weighted(self):
        port = homogeneous_portfolio(10, 0.08, DeterministicLgd(1.0))
        profiles = [gaussian_profile(0.25, 0.08)] * 10
        ex = exact_loss_distribution(profiles, port)
        tail = simulate_losses(profiles, port, 20_000, seed=32, tail=0.95)
        assert tail.draws == 20_000 and tail.losses.size < 20_000
        for mc in (tail, ex):
            with pytest.raises(ValueError, match="every draw"):
                sup_cdf_distance(mc, ex)

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
            pmf = _binomial_pmf(n, np.array([pd]))[0]
            support = (support[:, None] + weight * lgd * np.arange(n + 1)[None, :]).ravel()
            probs = (probs[:, None] * pmf[None, :]).ravel()
        reference = _merge_support(support, probs)
        ex = exact_loss_distribution([IndependentProfile(b.pd) for b in borrowers], borrowers)
        assert np.array_equal(ex.losses, reference.losses)
        assert np.array_equal(ex.weights, reference.weights)

    def test_nan_pd_raises(self):
        profiles, borrowers = TestPdTable()._with_gaussian(_grid_with_nan(np.full(1000, 0.2), slice(399, 601)))
        with pytest.raises(ValueError, match="NaN"):
            exact_loss_distribution(profiles, borrowers)

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
        t, wq = _gauss_legendre(256)
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
        rule = simulate._legendre_rule

        def counting(n):
            calls.append(n)
            return rule(n)

        _gauss_legendre.cache_clear()
        monkeypatch.setattr(simulate, "_legendre_rule", counting)
        port = homogeneous_portfolio(8, 0.1, DeterministicLgd(1.0))
        for corr in (0.2, 0.3):
            exact_loss_distribution([gaussian_profile(corr, 0.1)] * 8, port)
        assert calls == [256]
        t, wq = _gauss_legendre(256)
        assert not t.flags.writeable and not wq.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            t[0] = 0.5


class TestGaussLegendre:
    """The exact path's own quadrature rule: Newton's method, no eigenproblem."""

    @pytest.mark.parametrize("n", [16, 17, 256])
    def test_matches_leggauss(self, n):
        t, wq = _gauss_legendre(n)
        x, w = np.polynomial.legendre.leggauss(n)
        assert np.abs(t - 0.5 * (x + 1.0)).max() <= 1e-14
        assert np.abs(wq - 0.5 * w).max() <= 1e-14

    @pytest.mark.parametrize("n", [16, 17, 256, 4096])
    def test_symmetric_ascending_and_normalised(self, n):
        x, w = _legendre_rule(n)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
        assert abs(_gauss_legendre(n)[1].sum() - 1.0) <= 1e-14

    def test_bvn_takes_the_positive_half_of_the_20_point_rule(self):
        x, w = np.polynomial.legendre.leggauss(20)
        assert np.abs(_normal._GL_X - x[:9:-1]).max() <= 1e-14
        assert np.abs(_normal._GL_W - w[:9:-1]).max() <= 1e-14

    def test_4096_nodes_against_mpmath(self):
        # leggauss(4096) solves a 4096 x 4096 eigenproblem, and its end
        # weights are off by 2e-13; refine three nodes at 30 digits instead
        n = 4096
        x, w = _legendre_rule(n)
        mpmath.mp.dps = 30

        def recurrence(v):
            p_prev, p = mpmath.mpf(1), v
            for j in range(2, n + 1):
                p_prev, p = p, ((2 * j - 1) * v * p - (j - 1) * p_prev) / j
            return p, p_prev

        for i in (0, 1, n // 2 - 1):
            v = mpmath.mpf(x[i])
            for _ in range(3):
                p, p_prev = recurrence(v)
                v -= p * (1 - v * v) / (n * (p_prev - v * p))
            weight = 2 * (1 - v * v) / (n * recurrence(v)[1]) ** 2
            assert abs(float(v) - x[i]) <= 1e-14
            assert abs(float(weight) - w[i]) <= 1e-14


class TestBinomialPmf:
    """The exact path's own binomial pmf against scipy.stats and mpmath."""

    # scipy.stats raises OverflowError for 0 < p < 1e-300 or so
    PROBABILITIES = st.one_of(
        st.sampled_from([0.0, 1.0, 1e-300, 1.0 - 1e-16]),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0).map(lambda u: u**8),
    ).filter(lambda p: p == 0.0 or p >= 1e-300)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 2000), st.lists(PROBABILITIES, min_size=1, max_size=8))
    def test_matches_scipy(self, n, probs):
        p = np.array(probs)
        pmf = _binomial_pmf(n, p)
        reference = binom.pmf(np.arange(n + 1)[None, :], n, p[:, None])
        assert pmf.shape == (p.size, n + 1)
        assert np.all(np.isfinite(pmf)) and np.all(pmf >= 0.0)
        compared = reference >= 1e-300
        rel = np.abs(pmf[compared] - reference[compared]) / reference[compared]
        assert rel.max() <= 1e-12
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
        if n == 1:
            assert np.array_equal(pmf, np.stack([1.0 - p, p], axis=1))

    @pytest.mark.parametrize("p", [0.5, 0.3, 1e-3, 0.999])
    def test_matches_mpmath_at_2000_trials(self, p):
        # scipy's own error (about 6e-13) hides errors of this size
        n = 2000
        k = np.unique(np.r_[0:50, 50:n - 50:3, n - 50:n + 1])
        with mpmath.workdps(40):
            mp, mq = mpmath.mpf(p), 1 - mpmath.mpf(p)
            reference = np.array([float(mpmath.binomial(n, int(j)) * mp**int(j) * mq**int(n - j)) for j in k])
        pmf = _binomial_pmf(n, np.array([p]))[0, k]
        compared = reference >= 1e-300
        assert compared.sum() >= 50
        rel = np.abs(pmf[compared] - reference[compared]) / reference[compared]
        assert rel.max() <= 2e-13

    def test_large_n_stays_finite_and_normalised(self):
        # one pooled group may reach 2**20 - 1 borrowers under the exact cap
        pmf = _binomial_pmf(10**5, np.array([1e-300, 1e-5, 0.5, 1.0 - 1e-16]))
        assert pmf.shape == (4, 10**5 + 1)
        assert np.all(np.isfinite(pmf)) and np.all(pmf >= 0.0)
        np.testing.assert_allclose(pmf.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 4, 2000])
    def test_subnormal_p_puts_all_mass_on_zero(self, n):
        pmf = _binomial_pmf(n, np.array([5e-324, 2.2250738585072014e-308]))
        assert np.all(np.isfinite(pmf)) and np.all(pmf[:, 0] == 1.0)
        assert np.all(pmf[:, 1:] < 1e-300)


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
