"""Large-array rate laws and the NOMA-over-TDMA superiority threshold."""

import math

import numpy as np
import pytest

from multibeam_noma.asymptotic import (
    AsymptoticScenario,
    SicConditionError,
    allocation_superiority,
    asymptotic_rates,
    asymptotic_sum_rate,
    min_antennas_for_superiority,
    noma_gain,
    sic_condition_asymptotic,
    strongest_user_rate_asymptotic,
    tdma_sum_rate_asymptotic,
)
from multibeam_noma.channel import dbm_to_watt


def scen(gains, alloc, pmax=2.0, split=None, noise=1.0, m_ue=10, m_bs=128):
    gains = np.asarray(gains, dtype=np.float64)
    if split is None:
        split = np.full(gains.shape[-1], pmax / gains.shape[-1])
    return AsymptoticScenario(
        los_gain_mags=gains,
        antenna_alloc=np.asarray(alloc),
        m_ue=m_ue,
        m_bs=m_bs,
        max_power_w=pmax,
        power_split=np.asarray(split),
        noise_w=noise,
    )


def test_scenario_validation():
    with pytest.raises(ValueError, match="descending"):
        scen([0.5, 1.0], [64, 64])
    with pytest.raises(ValueError, match="positive"):
        scen([1.0, 0.0], [64, 64])
    with pytest.raises(ValueError, match="fit the array"):
        scen([1.0, 0.5], [100, 29])
    with pytest.raises(ValueError, match="fit the array"):
        scen([1.0, 0.5], [100, 0])
    with pytest.raises(ValueError, match="budget"):
        scen([1.0, 0.5], [64, 64], pmax=1.0, split=[0.6, 0.6])
    with pytest.raises(ValueError, match="nonnegative"):
        scen([1.0, 0.5], [64, 64], split=[2.1, -0.1])
    with pytest.raises(ValueError, match="equal length"):
        scen([1.0, 0.5], [64, 32, 32])
    with pytest.raises(ValueError, match="noise"):
        scen([1.0], [128], noise=0.0)
    with pytest.raises(ValueError, match="array sizes"):
        scen([1.0], [1], m_ue=0, m_bs=1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            scen([1.0, bad], [64, 64])
    # exactly on budget is fine
    s = scen([1.0, 0.5], [64, 64], pmax=1.0, split=[0.5, 0.5])
    assert s.num_users == 2


def test_sic_condition_examples():
    assert sic_condition_asymptotic(scen([1.0, 0.2], [50, 78]))
    assert not sic_condition_asymptotic(scen([1.0, 0.9], [10, 100]))
    assert sic_condition_asymptotic(scen([1.0, 1.0], [64, 64]))


def test_asymptotic_rates_power_ratio_terms():
    s = scen([1.0, 0.2], [100, 28], pmax=2.0)
    rates = asymptotic_rates(s)
    assert rates.shape == (2,)
    assert rates[1] == pytest.approx(1.0, rel=1e-12)
    s3 = scen([1.0, 0.5, 0.25], [64, 32, 32], pmax=3.0)
    rates3 = asymptotic_rates(s3)
    assert rates3[2] == pytest.approx(0.5849625007211562, rel=1e-12)


def test_asymptotic_rates_strongest_user_term():
    lo = scen([1e-6, 2e-7], [50, 28], pmax=2.0, noise=1e-12)
    hi = scen([1e-6, 2e-7], [100, 28], pmax=2.0, noise=1e-12)
    gain_bits = asymptotic_rates(hi)[0] - asymptotic_rates(lo)[0]
    assert gain_bits == pytest.approx(2.0, rel=1e-12)


def test_asymptotic_rates_guards():
    bad = scen([1.0, 0.9], [10, 100])
    with pytest.raises(SicConditionError):
        asymptotic_rates(bad)
    zero_power = scen([1.0, 0.5], [64, 64], pmax=2.0, split=[2.0, 0.0])
    with pytest.raises(ValueError, match="positive powers"):
        asymptotic_rates(zero_power)


def test_asymptotic_sum_rate_reference_value():
    s = scen([1e-6, 2e-7], [100, 28],
             pmax=dbm_to_watt(46.0), noise=dbm_to_watt(-88.0))
    assert asymptotic_sum_rate(s) == pytest.approx(14.260339807279122, rel=1e-9)


def test_asymptotic_sum_rate_telescopes_at_full_power():
    s = scen([1e-5, 4e-6, 1e-6], [64, 32, 32], pmax=3.0,
             split=[1.2, 1.0, 0.8], noise=1e-10)
    total = asymptotic_rates(s).sum()
    assert abs(total - asymptotic_sum_rate(s)) < 1e-9


def test_asymptotic_sum_rate_scalings():
    base = scen([1e-6, 2e-7], [100, 28], pmax=2.0, noise=1e-12)
    doubled = scen([1e-6, 2e-7], [100, 28], pmax=4.0, noise=1e-12)
    assert asymptotic_sum_rate(doubled) - asymptotic_sum_rate(base) == pytest.approx(
        1.0, rel=1e-12)
    wider = scen([1e-6, 2e-7], [120, 8], pmax=2.0, noise=1e-12)
    assert asymptotic_sum_rate(wider) > asymptotic_sum_rate(base)
    with pytest.raises(SicConditionError):
        asymptotic_sum_rate(scen([1.0, 0.9], [10, 100]))


def test_tdma_sum_rate_asymptotic_gain_offset():
    strong = scen([1e-6], [128], pmax=2.0, noise=1e-12)
    ratio5 = scen([1e-6, 2e-7], [100, 28], pmax=2.0, noise=1e-12)
    t1 = tdma_sum_rate_asymptotic(strong)
    # second user sits 2 log2(5) bits below, so the mean drops by log2(5)
    assert tdma_sum_rate_asymptotic(ratio5) == pytest.approx(t1 - math.log2(5.0),
                                                             rel=1e-12)


def test_noma_gain_reference_value():
    s = scen([1.0, 0.1], [100, 28])
    assert noma_gain(s) == pytest.approx(2.6096404744368114, rel=1e-12)


def test_noma_gain_is_exactly_zero_for_full_array_single_user():
    s = scen([0.37], [128])
    assert noma_gain(s) == 0.0


def test_noma_gain_matches_the_rate_difference():
    rng = np.random.default_rng(41)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        gains = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1].copy()
        m1 = int(rng.integers(50, 108))
        alloc = np.concatenate(([m1], np.full(k - 1, 7)))
        pmax = float(rng.uniform(0.5, 50.0))
        noise = float(rng.uniform(1e-12, 1e-6))
        s = scen(gains, alloc, pmax=pmax, noise=noise)
        diff = asymptotic_sum_rate(s) - tdma_sum_rate_asymptotic(s)
        assert abs(noma_gain(s) - diff) < 1e-9


def test_noma_gain_ignores_power_noise_and_receive_array():
    a = scen([1.0, 0.3], [90, 38], pmax=2.0, noise=1e-12, m_ue=10)
    b = scen([1.0, 0.3], [90, 38], pmax=7.3, noise=3e-9, m_ue=64)
    assert noma_gain(a) == noma_gain(b)


def test_allocation_superiority_strict_boundary():
    # with g2 = (m1 / m_bs)^2 the comparison lands exactly on the boundary
    tie = scen([1.0, 0.25], [64, 64])
    assert not allocation_superiority(tie)
    above = scen([1.0, 0.25], [65, 63])
    assert allocation_superiority(above)


def test_allocation_superiority_agrees_with_noma_gain_sign():
    rng = np.random.default_rng(43)
    for _ in range(50):
        gains = np.sort(rng.uniform(0.1, 1.0, size=2))[::-1].copy()
        m1 = int(rng.integers(8, 121))
        s = scen(gains, [m1, 128 - m1])
        if not sic_condition_asymptotic(s):
            continue
        assert allocation_superiority(s) == (noma_gain(s) > 0.0)
    # over drops and splits, with ties: equal gains, and g2 = (m1 / m_bs)^2
    # at m1 = 64 of 128
    for k in (1, 2, 5):
        gains = -np.sort(-rng.uniform(0.1, 1.0, size=(200, k)), axis=1)
        gains[::9] = gains[::9, :1]
        if k == 2:
            gains[1::9] = gains[1::9, :1] * np.array([1.0, 0.25])
        splits = np.array([[m1] + [1] * (k - 1) for m1 in (1, 32, 64, 65, 128 - (k - 1))])
        rows = np.flatnonzero(sic_condition_asymptotic(scen(gains[:, None], splits)).all(axis=1))
        s = scen(gains[rows, None], splits)
        got = allocation_superiority(s)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, noma_gain(s) > 0.0)
        for g, row in zip(gains[rows], got):
            for m, sup in zip(splits, row):
                one = scen(g, m)
                assert allocation_superiority(one) is bool(sup) is (noma_gain(one) > 0.0)
    # the strict boundary: a tie is not superior, one antenna more is
    tie = scen([1.0, 0.25], np.array([[64, 64], [65, 63]]))
    assert noma_gain(tie)[0] == 0.0
    np.testing.assert_array_equal(allocation_superiority(tie), [False, True])


def test_min_antennas_reference_values():
    assert min_antennas_for_superiority(np.array([1.0, 0.2]), 128) == 58
    assert min_antennas_for_superiority(np.array([1.0, 0.1]), 128) == 41
    assert min_antennas_for_superiority(np.array([1.0, 1.0]), 128) is None
    assert min_antennas_for_superiority(np.array([1.0]), 128) is None
    assert min_antennas_for_superiority(np.array([1.0, 0.9]), 4) == 4


def test_min_antennas_is_the_first_superior_split():
    gains = np.array([1.0, 0.2])
    m1 = min_antennas_for_superiority(gains, 128)
    at = scen(gains, [m1, 1], pmax=1.0, split=[0.5, 0.5])
    below = scen(gains, [m1 - 1, 1], pmax=1.0, split=[0.5, 0.5])
    assert allocation_superiority(at)
    assert not allocation_superiority(below)


def test_min_antennas_validation():
    with pytest.raises(ValueError, match="descending"):
        min_antennas_for_superiority(np.array([0.2, 1.0]), 128)
    with pytest.raises(ValueError, match="positive"):
        min_antennas_for_superiority(np.array([1.0, 0.0]), 128)
    with pytest.raises(ValueError):
        min_antennas_for_superiority(np.array([]), 128)


def test_min_antennas_over_trials_matches_per_row_calls_bit_for_bit():
    # A (T, K) block gives each row the threshold of its own 1-D call, with
    # M_BS + 1 in place of None.
    rng = np.random.default_rng(44)
    for k in (1, 2, 3, 9, 12):
        for m_bs in (4, 32, 128):
            gains = -np.sort(-rng.uniform(1e-3, 1.0, size=(64, k)), axis=1)
            gains[::5] = gains[::5, :1]           # equal gains: no split wins
            gains[2::5] = gains[2::5, :1]
            gains[2::5, 1:] *= 1.0 - 1e-15         # just below a tie
            got = min_antennas_for_superiority(gains, m_bs)
            assert got.dtype == np.int64 and got.shape == (64,)
            for row, m1 in zip(gains, got.tolist()):
                want = min_antennas_for_superiority(row, m_bs)
                assert m1 == (m_bs + 1 if want is None else want)
            assert (got[::5] == m_bs + 1).all()
    # leading axes of any shape
    block = np.array([[[1.0, 0.2], [1.0, 1.0]], [[1.0, 0.1], [1.0, 0.9]]])
    np.testing.assert_array_equal(min_antennas_for_superiority(block, 128),
                                  [[58, 129], [41, 122]])


def test_min_antennas_rejects_non_finite_gains():
    for bad in (math.nan, math.inf, -math.inf):
        for gains in ([bad], [1.0, bad], [bad, 0.5]):
            with pytest.raises(ValueError, match="finite"):
                min_antennas_for_superiority(np.array(gains), 128)
        block = np.array([[1.0, 0.2], [1.0, 0.5], [0.9, 0.1]])
        block[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            min_antennas_for_superiority(block, 128)
        with pytest.raises(ValueError, match="finite"):
            min_antennas_for_superiority(np.full((2, 3, 2), bad), 128)


def test_min_antennas_over_trials_matches_scalar_exp_and_floor():
    # The threshold is floor(M_BS exp(mean log ratio)) + 1 over the whole
    # block; a last-bit difference of the vectorized exp would show where
    # the product lands next to an integer.
    rng = np.random.default_rng(46)
    for k in (2, 5):
        gains = -np.sort(-rng.uniform(1e-3, 1.0, size=(100_000, k)), axis=1)
        # ties: equal gains (no split wins), and gain ratios with geometric
        # mean 1/2, which put M_BS exp(mean log ratio) on M_BS / 2
        half = {2: [1.0, 0.25], 5: [1.0, 0.5, 0.5, 0.5, 0.25]}[k]
        gains[:100] = gains[:100, :1]
        gains[100:200] = gains[100:200, :1] * np.array(half)
        mean_log_ratio = np.mean(np.log(gains / gains[:, :1]), axis=-1)
        for m_bs in (4, 32, 128, 256):
            want = [math.floor(m_bs * math.exp(v)) + 1 for v in mean_log_ratio.tolist()]
            got = min_antennas_for_superiority(gains, m_bs)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
            assert (got[:100] == m_bs + 1).all()


def test_min_antennas_over_trials_validation():
    with pytest.raises(ValueError, match="descending"):
        min_antennas_for_superiority(np.array([[1.0, 0.2], [0.2, 1.0]]), 128)
    with pytest.raises(ValueError, match="positive"):
        min_antennas_for_superiority(np.array([[1.0, 0.2], [1.0, 0.0]]), 128)
    with pytest.raises(ValueError):
        min_antennas_for_superiority(np.ones((3, 0)), 128)
    with pytest.raises(ValueError):
        min_antennas_for_superiority(np.float64(1.0), 128)


def test_noma_gain_over_drops_matches_one_scenario_per_drop_bit_for_bit():
    # A (T, K) scenario gives each row the condition and the gain of its own
    # 1-D scenario.  m_bs = 100 makes m1 / m_bs inexact.
    rng = np.random.default_rng(47)
    for k in (1, 2, 5, 9):
        for m_bs in (100, 128):
            gains = -np.sort(-(10.0 ** rng.uniform(-7.0, -5.0, size=(300, k))), axis=1)
            gains[::7] = gains[::7, :1]                       # equal gains: exactly 0
            # weaker users get more antennas, so some drops break the condition
            rest = [4 + 2 * i for i in range(k - 1)]
            alloc = np.array([m_bs - sum(rest)] + rest)
            block = scen(gains, alloc, pmax=3.0, m_bs=m_bs)
            rows = [scen(g, alloc, pmax=3.0, m_bs=m_bs) for g in gains]
            assert block.num_users == k
            ok = sic_condition_asymptotic(block)
            assert ok.dtype == bool and ok.shape == (300,)
            np.testing.assert_array_equal(ok, [sic_condition_asymptotic(r) for r in rows])
            if k > 2:
                assert 0 < ok.sum() < 300
            if not ok.all():
                # one drop that breaks the condition fails them all
                with pytest.raises(SicConditionError):
                    noma_gain(block)
            got = noma_gain(scen(gains[ok], alloc, pmax=3.0, m_bs=m_bs))
            want = np.array([noma_gain(r) for r, holds in zip(rows, ok) if holds])
            assert got.dtype == np.float64 and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
            # equal gains give exactly zero at the full array
            assert (got == 0.0).all() if k == 1 and m_bs == 100 else True
    # math.log2(86 / 100) and np.log2 of it differ in the last bit on some CPUs
    gains = -np.sort(-rng.uniform(0.1, 1.0, size=(50, 2)), axis=1)
    got = noma_gain(scen(gains, [86, 14], m_bs=100))
    want = np.array([noma_gain(scen(g, [86, 14], m_bs=100)) for g in gains])
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
    formula = [2.0 * (math.log2(86 / 100) - float(np.mean(np.log2(g / g[0])))) for g in gains]
    np.testing.assert_array_equal(want.view(np.int64), np.array(formula).view(np.int64))
    # leading axes of any shape
    block = scen(np.array([[[1.0, 0.1], [1.0, 0.2]]]), [100, 28])
    assert noma_gain(block).shape == (1, 2)
    assert noma_gain(block)[0, 0] == noma_gain(scen([1.0, 0.1], [100, 28]))


def test_scenario_over_drops_rejects_a_single_bad_row():
    good = np.array([[1.0, 0.5], [0.8, 0.3], [0.6, 0.6]])
    assert scen(good, [64, 64]).num_users == 2
    for bad_row, match in (([0.5, 1.0], "descending"), ([1.0, 0.0], "positive"),
                           ([1.0, -0.2], "positive"), ([math.nan, 0.5], "finite"),
                           ([1.0, math.inf], "finite")):
        gains = good.copy()
        gains[1] = bad_row
        with pytest.raises(ValueError, match=match):
            scen(gains, [64, 64])
        with pytest.raises(ValueError, match=match):
            scen(gains[None], [64, 64])
    with pytest.raises(ValueError, match="equal length"):
        scen(good, [64, 32, 32])
    # one split per drop broadcasts; splits that do not broadcast are refused
    assert scen(good, np.full((3, 2), 64)).num_users == 2
    with pytest.raises(ValueError, match="broadcast"):
        scen(good, np.full((2, 2), 64))
    with pytest.raises(ValueError, match="equal length"):
        scen(np.float64(1.0), [128], split=[1.0])
    # so is a single bad split among them
    for bad_split in ([100, 29], [0, 64], [64, -1]):
        with pytest.raises(ValueError, match="fit the array"):
            scen(good[:, None], [[64, 64], bad_split, [1, 1]])
    # the checks on what the drops share still apply
    with pytest.raises(ValueError, match="fit the array"):
        scen(good, [100, 29])
    with pytest.raises(ValueError, match="budget"):
        scen(good, [64, 64], pmax=1.0, split=[0.6, 0.6])


def drops_and_splits(rng, num_drops, k, m_bs):
    """Gains (T, 1, K) of drops strongest first, some with equal gains, and
    splits (S, K) that fit m_bs.  The weaker users of some splits get more
    antennas, so that the SIC condition fails for some pairs when K > 1."""
    gains = -np.sort(-(10.0 ** rng.uniform(-7.0, -5.0, size=(num_drops, k))), axis=1)
    gains[::7] = gains[::7, :1]
    rest = np.array([[3 + i for i in range(k - 1)], [2] * (k - 1),
                     [20 - 2 * i for i in range(k - 1)]], dtype=np.int64)
    splits = [np.concatenate(([m1], r)) for r in rest
              for m1 in (1, 7, m_bs // 2, m_bs - r.sum()) if m1 + r.sum() <= m_bs]
    return gains[:, None], np.array(splits)


@pytest.mark.parametrize("k", (1, 2, 5))
def test_laws_over_drops_and_splits_match_one_drop_calls_bit_for_bit(k):
    # (T, 1, K) drops against (S, K) splits give every (drop, split) pair the
    # bits of its own 1-D scenario.  m_bs = 100 makes m1 / m_bs inexact.
    rng = np.random.default_rng(48 + k)
    for m_bs in (100, 128):
        gains, splits = drops_and_splits(rng, 60, k, m_bs)
        block = scen(gains, splits, pmax=3.0, m_bs=m_bs, noise=1e-12)
        pairs = [[scen(g[0], m, pmax=3.0, m_bs=m_bs, noise=1e-12) for m in splits]
                 for g in gains]
        shape = (len(gains), len(splits))

        def same(got, law):
            want = np.array([[law(p) for p in row] for row in pairs])
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))

        ok = sic_condition_asymptotic(block)
        assert ok.shape == shape
        same(ok, sic_condition_asymptotic)
        if k > 1:
            assert 0 < ok.sum() < ok.size
        same(strongest_user_rate_asymptotic(block, 3.0),
             lambda p: strongest_user_rate_asymptotic(p, 3.0))
        tdma = tdma_sum_rate_asymptotic(block)
        assert tdma.shape == (len(gains), 1)
        same(np.broadcast_to(tdma, shape).copy(), tdma_sum_rate_asymptotic)
        # the guarded laws, on the splits that meet the condition for every drop
        held = ok.all(axis=0)
        assert held.any()
        guarded = scen(gains, splits[held], pmax=3.0, m_bs=m_bs, noise=1e-12)
        pairs = [[row[s] for s in np.flatnonzero(held)] for row in pairs]
        for law in (asymptotic_sum_rate, noma_gain, allocation_superiority):
            same(law(guarded), law)
        same(asymptotic_rates(guarded), asymptotic_rates)
        # the unguarded formula is the guarded sum rate where the condition holds
        np.testing.assert_array_equal(strongest_user_rate_asymptotic(guarded, 3.0),
                                      asymptotic_sum_rate(guarded))
        np.testing.assert_array_equal(asymptotic_rates(guarded)[..., 0],
                                      strongest_user_rate_asymptotic(guarded, 3.0 / k))


def test_guarded_laws_raise_when_any_drop_fails():
    gains = np.array([[1.0, 0.2], [1.0, 0.5], [1.0, 0.9]])
    splits = np.array([[100, 28], [64, 64]])
    fine = scen(gains[:, None], splits)
    assert sic_condition_asymptotic(fine).all()
    for law in (asymptotic_rates, asymptotic_sum_rate, noma_gain, allocation_superiority):
        law(fine)
    # 0.9 * 70 > 1.0 * 58: one (drop, split) pair of six fails
    bad = scen(gains[:, None], np.array([[100, 28], [58, 70]]))
    assert sic_condition_asymptotic(bad).sum() == 5
    for law in (asymptotic_rates, asymptotic_sum_rate, noma_gain, allocation_superiority):
        with pytest.raises(SicConditionError):
            law(bad)
    # the unguarded laws still evaluate every pair
    assert np.isfinite(strongest_user_rate_asymptotic(bad, 2.0)).all()
    assert np.isfinite(tdma_sum_rate_asymptotic(bad)).all()
    # no drops at all: nothing fails, and every law gives an empty array
    empty = scen(np.empty((0, 1, 2)), splits)
    for law in (asymptotic_sum_rate, noma_gain, allocation_superiority,
                sic_condition_asymptotic):
        assert law(empty).shape == (0, 2)
    assert asymptotic_rates(empty).shape == (0, 2, 2)
