"""The exact beta sampler: its law, its tables and where simulate builds them."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from creditbounds import _beta
from creditbounds._beta import _INTERIOR, _LEFT, BetaTable
from creditbounds.portfolio import BetaLgd, Borrower, DeterministicLgd, _beta_table, beta_params
from creditbounds.profiles import IndependentProfile
from creditbounds.simulate import simulate_losses

KS_SHAPES = [(0.3, 2.7), (2, 5), (0.5, 0.5), (3, 0.6), (1, 3), (3, 1), (1, 1), (35, 315)]
# (mean, vol): mass at 0, mass at 0 and 1, a + b near 1e5, a + b near 1e19
EXTREME_MOMENTS = [(0.1, 0.2999), (0.5, 0.4999), (0.45, 0.001), (0.1, 1e-10)]
TABLE_SHAPES = KS_SHAPES + [beta_params(m, v) for m, v in EXTREME_MOMENTS] + [
    (1e-4, 1e-4), (1e-4, 3.0), (1.0 + 1e-12, 2.0), (0.999, 1e6), (2e5, 1.0),
]


def _rng(seed):
    return np.random.Generator(np.random.SFC64(seed))


@pytest.mark.parametrize("a, b", KS_SHAPES)
def test_matches_scipy_beta_by_kolmogorov_smirnov(a, b):
    x = BetaTable(a, b).draw(_rng(11), 1_000_003)
    assert stats.kstest(x, stats.beta(a, b).cdf).pvalue > 1e-3


@pytest.mark.parametrize("mean, vol", EXTREME_MOMENTS)
def test_extreme_moments_keep_their_mean(mean, vol):
    n = 1_000_000
    x = BetaTable(*beta_params(mean, vol)).draw(_rng(5), n)
    assert not np.isnan(x).any() and x.min() >= 0.0 and x.max() <= 1.0
    assert abs(x.mean() - mean) <= 5.0 * vol / math.sqrt(n)


@pytest.mark.parametrize("a, b", TABLE_SHAPES)
def test_envelope_and_squeeze_bound_the_evaluated_density(a, b):
    table = BetaTable(a, b)
    # both ends and 64 inner points of every piece, one row per piece
    x = table.lo[:, None] + table.width[:, None] * np.linspace(0.0, 1.0, 66)
    piece = np.repeat(np.arange(table.kind.size), x.shape[1])
    ratio = table._log_ratio(piece, x.ravel()).reshape(x.shape)
    assert not np.isnan(ratio).any()
    assert np.all(ratio <= 0.0)
    with np.errstate(divide="ignore"):
        assert np.all(ratio >= np.log(table.ratio)[:, None])


@pytest.mark.parametrize("a, b", TABLE_SHAPES)
def test_envelope_and_squeeze_bound_the_true_density(a, b):
    """At the ends and middles of the pieces that can be picked, log f from
    40-digit arithmetic lies between the squeeze and the envelope."""
    table = BetaTable(a, b)
    # the table's own orientation
    am1, bm1, r = mpmath.mpf(table._a) - 1, mpmath.mpf(table._b) - 1, mpmath.mpf(table._r)

    def log_f(x):
        x = mpmath.mpf(x)
        return am1 * mpmath.log(x / r) + bm1 * mpmath.log((1 - x) / (1 - r))

    # the pieces whose envelope area is within 1e-30 of the largest, as the
    # alias thresholds and the width give it
    area = np.log(np.abs(table.width)) + table.log_env
    with mpmath.workdps(40):
        for i in np.flatnonzero((table.kind == _INTERIOR) & (area > area.max() - 69.0)):
            for x in (table.lo[i], table.lo[i] + 0.5 * table.width[i], table.lo[i] + table.width[i]):
                true = float(log_f(x))
                assert true <= table.log_env[i]
                assert true >= table.log_env[i] + math.log(table.ratio[i])


def test_the_same_generator_state_gives_the_same_draws():
    table = BetaTable(*beta_params(0.1, 0.15))
    first = table.draw(_rng(3), 100_000)
    assert np.array_equal(first, BetaTable(*beta_params(0.1, 0.15)).draw(_rng(3), 100_000))
    assert np.array_equal(first, BetaLgd(0.1, 0.15).draw(_rng(3), 100_000))
    assert not np.array_equal(first, table.draw(_rng(4), 100_000))


@pytest.mark.parametrize("a, b", [(0.3, 2.7), (3, 0.6)])
def test_sums_add_up_the_draws_of_one_call(a, b):
    table = BetaTable(a, b)
    counts = np.random.default_rng(1).poisson(3.0, 20_000)
    counts[::5] = 0
    counts[7] = 20_000  # a scenario whose draws span several blocks
    total = table.sums(_rng(6), counts)
    draws = table.draw(_rng(6), int(counts.sum()))
    ends = np.cumsum(counts)
    reference = [math.fsum(draws[e - n:e]) for n, e in zip(counts, ends)]
    np.testing.assert_allclose(total, reference, rtol=1e-13, atol=0.0)
    assert np.all(total[counts == 0] == 0.0)


@pytest.mark.parametrize("empty", [0, 1], ids=["first-round", "later-round"])
def test_a_round_that_accepts_nothing_is_skipped(monkeypatch, empty):
    table = BetaTable(0.3, 2.7)
    # a pooled call over at least two rounds
    counts = np.array([0, 3, _beta._BLOCK + 1000, 2, 0, 5, 1])
    size = int(counts.sum())
    reference = table.sums(_rng(4), counts), table.draw(_rng(4), size)
    real, rounds = BetaTable._candidates, []

    def one_empty_round(self, rng, m, out):
        rounds.append(m)
        # the empty round draws nothing, so the others see the same stream
        return 0 if len(rounds) == empty + 1 else real(self, rng, m, out)

    monkeypatch.setattr(BetaTable, "_candidates", one_empty_round)
    assert np.array_equal(table.sums(_rng(4), counts), reference[0])
    rounds.clear()
    assert np.array_equal(table.draw(_rng(4), size), reference[1])
    assert len(rounds) >= 3


def test_singular_end_pieces_take_power_law_proposals():
    table = BetaTable(0.3, 2.7)
    assert table.kind[0] == _LEFT and table.power[0] == pytest.approx(1.0 / 0.3)
    # the mirrored shape draws from the same table and flips its draws
    flipped = BetaTable(2.7, 0.3)
    assert flipped.flip and np.array_equal(flipped.lo, table.lo)
    assert np.array_equal(flipped.draw(_rng(2), 1000), 1.0 - table.draw(_rng(2), 1000))


def test_shapes_must_be_finite_and_positive():
    for a, b in [(0.0, 1.0), (1.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError, match="finite and positive"):
            BetaTable(a, b)


@pytest.mark.parametrize("workers", [1, 2])
def test_one_simulation_builds_one_table_per_shape(monkeypatch, workers):
    built = []

    class Counting(BetaTable):
        def __init__(self, a, b):
            built.append((a, b))
            super().__init__(a, b)

    monkeypatch.setattr(_beta, "BetaTable", Counting)
    # tables are kept per shape for the process: start from none
    _beta_table.cache_clear()
    # equal LGDs as distinct objects, in groups of distinct exposure
    lgds = [BetaLgd(0.1, 0.15), BetaLgd(0.1, 0.15), BetaLgd(0.45, 0.2), DeterministicLgd(0.4),
            BetaLgd(0.1, 0.15)]
    weights = [0.1, 0.15, 0.2, 0.25, 0.3]
    borrowers = [Borrower(f"b{i}", 0.3, w, lgd, (0.1, 0.3), 0.2)
                 for i, (w, lgd) in enumerate(zip(weights, lgds))]
    profiles = [IndependentProfile(0.3)] * len(borrowers)
    sample = simulate_losses(profiles, borrowers, 100_000, seed=3, workers=workers)
    assert sorted(built) == sorted([beta_params(0.1, 0.15), beta_params(0.45, 0.2)])
    # a second simulation reuses them
    simulate_losses(profiles, borrowers, 1_000, seed=4, workers=workers)
    assert len(built) == 2
    _beta_table.cache_clear()
    assert sample.mean() == pytest.approx(0.3 * sum(w * lgd.mean for w, lgd in zip(weights, lgds)), rel=0.02)
