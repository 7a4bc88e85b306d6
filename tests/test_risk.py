import csv
import dataclasses
import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditbounds import risk
from creditbounds.portfolio import DeterministicLgd, homogeneous_portfolio, load_scenario, scenario_from_dict
from creditbounds.profiles import gaussian_profile
from creditbounds.risk import (
    ResultInvariantError,
    RiskReport,
    RunResult,
    _check_chain,
    avar,
    bound_profiles,
    check_cx_dominance,
    model_runs,
    risk_report,
    stop_loss_curve,
    var,
)
from creditbounds.simulate import (
    LossSample,
    batch_standard_error,
    simulate_comonotone,
    simulate_independent,
    simulate_losses,
)

TWO_POINT = LossSample(np.array([0.0, 0.1]), np.array([0.98, 0.02]))


class TestAvar:
    def test_exact_tail_entirely_in_the_atom(self):
        assert avar(TWO_POINT, 0.99) == pytest.approx(0.1, abs=1e-12)

    def test_exact_fractional_tail(self):
        # 0.1 * 0.02 / 0.05
        assert avar(TWO_POINT, 0.95) == pytest.approx(0.04, abs=1e-12)

    def test_constant_sample(self):
        s = LossSample(np.full(1000, 0.07))
        for conf in (0.5, 0.95, 0.999):
            assert avar(s, conf) == pytest.approx(0.07, abs=1e-15)

    def test_positive_homogeneity_and_translation(self):
        rng = np.random.default_rng(3)
        s = LossSample(rng.exponential(0.01, 5000))
        scaled = LossSample(2.5 * s.losses + 0.3)
        for conf in (0.9, 0.95, 0.99):
            assert avar(scaled, conf) == pytest.approx(2.5 * avar(s, conf) + 0.3, rel=1e-12)

    def test_monotone_in_confidence(self):
        rng = np.random.default_rng(4)
        s = LossSample(rng.exponential(0.01, 20_000))
        values = [avar(s, c) for c in np.linspace(0.5, 0.999, 40)]
        assert np.all(np.diff(values) >= -1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            avar(TWO_POINT, 1.0)
        with pytest.raises(ValueError):
            avar(TWO_POINT, [0.95, float("nan")])
        with pytest.raises(ValueError):
            avar(LossSample(np.array([])), 0.95)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
        lattice=st.booleans(),
        data=st.data(),
    )
    def test_tail_matches_full_sort(self, n, seed, lattice, data):
        rng = np.random.default_rng(seed)
        losses = rng.integers(0, 6, n) * 0.01 if lattice else rng.exponential(0.01, n)
        open_unit = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        # alpha * n an integer puts the tail boundary exactly on a draw
        alpha = data.draw(
            st.one_of(open_unit, st.integers(1, n - 1).map(lambda k: k / n)) if n > 1 else open_unit
        )
        x = np.sort(losses)
        cum = np.arange(1, n + 1) / n
        overlap = np.clip(cum - np.maximum(np.arange(n) / n, alpha), 0.0, None)
        reference = float((x * overlap).sum() / (1.0 - alpha))
        assert avar(LossSample(losses), alpha) == pytest.approx(reference, rel=1e-12, abs=1e-15)
        # several levels, unsorted and repeated, read one tail yet keep each
        # level's bytes, for the sample and for its batch standard errors
        levels = data.draw(st.lists(st.sampled_from([alpha, 0.5, 0.95, 0.99]) | open_unit,
                                    min_size=1, max_size=6))
        sample = LossSample(losses)
        assert np.array_equal(avar(sample, levels), [avar(sample, a) for a in levels])
        se = batch_standard_error(sample, lambda s: avar(s, levels))
        each = [batch_standard_error(sample, lambda s: avar(s, a)) for a in levels]
        assert np.array_equal(np.broadcast_to(se, len(levels)), each, equal_nan=True)

    @pytest.mark.parametrize("sample", [
        LossSample(np.array([0.3, 0.0, 0.1])),
        LossSample(np.array([0.0, 0.1, 0.3]), is_sorted=True),
        LossSample(np.array([0.3, 0.0, 0.1]), np.array([0.2, 0.5, 0.3])),
    ], ids=["partitioned", "sorted", "weighted"])
    def test_no_levels_give_an_empty_array(self, sample):
        values = avar(sample, [])
        assert isinstance(values, np.ndarray) and values.shape == (0,)

    def test_boundary_draw_keeps_its_float_weight(self):
        # alpha * n rounds up to 5, yet cum = fl(5/6) exceeds alpha by one ulp,
        # so the draw of rank 4 still carries weight
        alpha = np.nextafter(5 / 6, 0.0)
        assert avar(LossSample(np.arange(6.0, 0.0, -1.0)), alpha) == 6.0

    def test_weighted_sample_keeps_the_full_sort_route(self):
        s = LossSample(np.array([0.3, 0.0, 0.1, 0.2, 0.1]), np.array([0.01, 0.88, 0.05, 0.04, 0.02]))
        assert avar(s, 0.9) == 0.15999999999999984
        assert avar(s, 0.95) == 0.21999999999999956
        assert avar(s, 0.99) == 0.2999999999999989
        values = avar(s, (0.99, 0.9, 0.95))
        assert isinstance(values, np.ndarray)
        assert values.tolist() == [0.2999999999999989, 0.15999999999999984, 0.21999999999999956]


class TestAvarWithSe:
    """The report's AVaR of a sample it owns: in place, with no copy of it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(0, 6), min_size=20, max_size=600),
        st.lists(st.sampled_from([0.5, 0.9, 0.95, 0.99, 0.999]), min_size=1, max_size=4),
    )
    def test_equals_avar_and_batch_standard_error_bit_for_bit(self, counts, levels):
        # lattice losses are full of ties, as a pooled portfolio's are
        losses = np.array(counts) / 7.0
        reference = LossSample(losses.copy())
        values = avar(reference, levels)
        se = np.broadcast_to(batch_standard_error(reference, lambda s: avar(s, levels)), values.shape)
        owned = LossSample(losses.copy())
        got = risk._avar_with_se(owned, levels)
        assert np.array_equal(got[0], values) and np.array_equal(got[1], se, equal_nan=True)
        # the draws are only reordered, and the public avar left its sample alone
        assert np.array_equal(np.sort(owned.losses), np.sort(losses))
        assert np.array_equal(reference.losses, losses)

    def test_allocates_well_under_one_sample(self):
        n = 1_000_000
        sample = LossSample(np.random.default_rng(3).integers(0, 1000, n) / 1000.0)
        risk._avar_with_se(LossSample(sample.losses[:20_000].copy()), (0.95, 0.99))
        tracemalloc.start()
        try:
            risk._avar_with_se(sample, (0.95, 0.99))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 5% tail, sorted, and its cumulative weights
        assert peak < 0.4 * n * 8


class TestVar:
    def test_uniform_grid(self):
        s = LossSample(np.arange(1, 101) / 100.0)
        assert var(s, 0.95) == pytest.approx(0.95)

    def test_two_point_quantile_below_atom(self):
        assert var(TWO_POINT, 0.95) == 0.0
        assert var(TWO_POINT, 0.99) == pytest.approx(0.1)

    def test_var_never_exceeds_avar(self):
        rng = np.random.default_rng(5)
        s = LossSample(rng.gamma(0.4, 0.05, 30_000))
        for conf in (0.8, 0.9, 0.95, 0.99, 0.999):
            assert var(s, conf) <= avar(s, conf) + 1e-15


class TestStopLoss:
    def test_zero_threshold_is_mean(self):
        rng = np.random.default_rng(6)
        s = LossSample(rng.uniform(0, 1, 10_000))
        assert stop_loss_curve(s, [0.0])[0] == pytest.approx(s.mean(), abs=1e-12)

    def test_beyond_max_is_zero(self):
        s = LossSample(np.array([0.1, 0.2]))
        assert stop_loss_curve(s, [0.2, 0.5]).tolist() == [0.0, 0.0]

    def test_two_point_analytic(self):
        # (0.10 - 0.05) * 0.02
        assert stop_loss_curve(TWO_POINT, [0.05])[0] == pytest.approx(0.001, abs=1e-15)

    def test_decreasing_and_convex(self):
        rng = np.random.default_rng(7)
        s = LossSample(rng.exponential(0.02, 50_000))
        ks = np.linspace(0.0, 0.2, 101)
        curve = stop_loss_curve(s, ks)
        assert np.all(np.diff(curve) <= 1e-15)
        second = curve[2:] - 2 * curve[1:-1] + curve[:-2]
        assert np.all(second >= -1e-12)

    def test_requires_sorted_thresholds(self):
        with pytest.raises(ValueError):
            stop_loss_curve(TWO_POINT, [0.2, 0.1])


PORT100 = homogeneous_portfolio(100, 0.02, DeterministicLgd(0.1))


class TestCxDominance:
    def test_low_correlation_below_high_correlation(self):
        a = simulate_losses([gaussian_profile(0.12, 0.02)] * 100, PORT100, 100_000, seed=51)
        b = simulate_losses([gaussian_profile(0.24, 0.02)] * 100, PORT100, 100_000, seed=52)
        assert check_cx_dominance(a, b) == "dominates"

    def test_independent_below_comonotone(self):
        a = simulate_independent(PORT100, 100_000, seed=53)
        b = simulate_comonotone(PORT100, 100_000, seed=54)
        assert check_cx_dominance(a, b) == "dominates"

    def test_reflexive_same_seed(self):
        a = simulate_independent(PORT100, 50_000, seed=55)
        b = simulate_independent(PORT100, 50_000, seed=55)
        assert check_cx_dominance(a, b) == "dominates"

    def test_reversed_pair_violates(self):
        a = simulate_comonotone(PORT100, 100_000, seed=56)
        b = simulate_independent(PORT100, 100_000, seed=57)
        assert check_cx_dominance(a, b) == "violates"

    def test_mismatched_means_without_crossing_is_indistinguishable(self):
        rng = np.random.default_rng(58)
        a = LossSample(rng.uniform(0.0, 0.01, 50_000))
        b = LossSample(rng.uniform(0.0, 0.01, 50_000) + 0.005)
        assert check_cx_dominance(a, b) == "indistinguishable"

    def test_every_factor_model_below_comonotone(self):
        from creditbounds.profiles import clayton_profile, survival_clayton_profile

        comon = simulate_comonotone(PORT100, 100_000, seed=60)
        for i, profile in enumerate(
            (gaussian_profile(0.24, 0.02), clayton_profile(0.97, 0.02),
             survival_clayton_profile(0.97, 0.02))
        ):
            sample = simulate_losses([profile] * 100, PORT100, 100_000, seed=61 + i)
            assert check_cx_dominance(sample, comon) == "dominates"


def _tiny_scenario(models=("gaussian",), samples=40_000):
    return scenario_from_dict(
        {
            "label": "tiny",
            "portfolio": {
                "kind": "homogeneous",
                "n": 100,
                "pd": 0.02,
                "lgd": {"kind": "deterministic", "value": 0.1},
                "corr_interval": [0.12, 0.24],
            },
            "models": list(models),
            "alphas": [0.95, 0.99],
            "mc": {"samples": samples, "seed": 99, "workers": 2},
        }
    )


def test_model_runs_skip_the_upper_side_of_a_degenerate_family():
    scenario = _tiny_scenario(("independent", "gaussian", "comonotone", "clayton"))
    runs = list(model_runs(scenario))
    assert [(model, side, run) for model, side, run, _ in runs] == [
        ("independent", "lower", 2),
        ("gaussian", "lower", 4),
        ("gaussian", "upper", 5),
        ("comonotone", "lower", 6),
        ("clayton", "lower", 8),
        ("clayton", "upper", 9),
    ]
    for model, side, _, profiles in runs:
        lowers, uppers = bound_profiles(model, scenario.borrowers)
        expected = lowers if side == "lower" else uppers
        assert [p.group_key() for p in profiles] == [p.group_key() for p in expected]


def _one_level_report(label: str, lower: float, upper: float) -> RiskReport:
    """A gaussian report at alpha 0.95 with zero standard errors: benchmarks
    0.001 and 0.1, and the given bounds."""
    runs = [("independent", 0.001), ("comonotone", 0.1),
            ("gaussian lower", lower), ("gaussian upper", upper)]
    return RiskReport(
        scenario_label=label,
        models=("gaussian",),
        alphas=(0.95,),
        runs=tuple(RunResult(name, (value,), (0.0,), 1, 1, None, 0.0, 0.0) for name, value in runs),
        samples=1,
        seed=1,
    )


class TestRiskReport:
    def test_chain_and_shape(self):
        report = risk_report(_tiny_scenario(("gaussian", "independent")))
        assert [r.name for r in report.runs] == [
            "independent", "comonotone", "gaussian lower", "gaussian upper", "independent lower"
        ]
        assert all(len(r.avar) == len(r.se) == 2 for r in report.runs)
        for model in report.models:
            indep, lower, upper, comon = report.chain(model)
            for i in range(len(report.alphas)):
                assert indep.avar[i] <= lower.avar[i] + 3 * (lower.se[i] + indep.se[i]) + 1e-12
                assert lower.avar[i] <= upper.avar[i] + 3 * (lower.se[i] + upper.se[i]) + 1e-12
                assert upper.avar[i] <= comon.avar[i] + 3 * (upper.se[i] + comon.se[i]) + 1e-12
        # the degenerate family has no upper run: its upper columns are its lower run's
        rows = csv.DictReader(io.StringIO(report.to_csv()))
        degenerate = [row for row in rows if row["model"] == "independent"]
        assert len(degenerate) == 2
        for row in degenerate:
            assert (row["avar_upper"], row["se_upper"]) == (row["avar_lower"], row["se_lower"])

    def test_one_tail_per_sample(self, monkeypatch):
        # 5 samples (the degenerate family reuses its lower one), each read
        # once whole and once per standard-error batch, at both levels at once
        calls = []
        original = risk.avar
        monkeypatch.setattr(
            risk, "avar", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs)
        )
        risk_report(_tiny_scenario(("gaussian", "independent")))
        assert len(calls) == 5 * 21

    def test_deterministic_output(self):
        r1 = risk_report(_tiny_scenario())
        r2 = risk_report(_tiny_scenario())
        assert r1.to_csv() == r2.to_csv()

    def test_serialization_layout(self):
        report = risk_report(_tiny_scenario())
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0].startswith("scenario,model,alpha,avar_lower")
        assert len(csv_text.splitlines()) == 3
        # shipped labels contain commas
        labelled = dataclasses.replace(report, scenario_label="pool, scenario 1")
        rows = list(csv.DictReader(io.StringIO(labelled.to_csv())))
        assert [r["scenario"] for r in rows] == ["pool, scenario 1"] * 2
        assert rows[1]["se_comon"] == repr(report.chain("gaussian")[3].se[1])
        table = report.to_text()
        assert "Gaussian" in table and "indep" in table and "comon" in table

    def test_chain_violation_raises(self):
        bad = _one_level_report("broken", lower=0.05, upper=0.01)
        with pytest.raises(ResultInvariantError, match="exceeds"):
            _check_chain(bad)

    def test_nan_avar_breaks_the_chain(self):
        nan = float("nan")
        report = _one_level_report("nan", lower=nan, upper=nan)
        message = r"AVaR\(independent\) = 0\.001000 is not ordered with AVaR\(lower\) = nan"
        with pytest.raises(ResultInvariantError, match=message):
            _check_chain(report)

    @pytest.mark.filterwarnings("ignore:alpha")
    def test_nan_standard_errors_of_a_tiny_sample_pass_the_chain(self):
        # fewer samples than standard-error batches: every SE is NaN
        report = risk_report(_tiny_scenario(samples=10))
        assert all(math.isnan(se) for r in report.runs for se in r.se)

    def test_thin_batch_tails_warn(self):
        with pytest.warns(UserWarning, match=r"alpha 0\.99: 1 tail draws .* --samples 20000 "):
            risk_report(_tiny_scenario(samples=2_000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            risk_report(_tiny_scenario(samples=100_000))

    def test_gauss_clayton_lower_tracks_gaussian_point(self):
        report = risk_report(_tiny_scenario(("gauss_clayton",), samples=100_000))
        _, lower, upper, _ = report.chain("gauss_clayton")
        assert lower.avar[0] < upper.avar[0]

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.parametrize("name", ["scenario1", "idb_scenario1"])
    def test_report_holds_one_sample_at_a_time(self, fixtures_dir, name):
        samples = 200_000
        scenario = load_scenario(fixtures_dir / f"{name}.json")

        def at(n):
            return dataclasses.replace(scenario, mc=dataclasses.replace(scenario.mc, samples=n, workers=1))

        # one-off imports and per-process caches stay out of the peak
        risk_report(at(2_000))
        tracemalloc.start()
        try:
            risk_report(at(samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one run's sample, which its AVaR partitions in place, plus cell bounds
        # and chunk buffers; samples that outlive their runs need several more
        assert peak < 3.5 * samples * 8
