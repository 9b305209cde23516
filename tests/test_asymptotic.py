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
    tdma_sum_rate_asymptotic,
)
from multibeam_noma.channel import dbm_to_watt


def scen(gains, alloc, pmax=2.0, split=None, noise=1.0, m_ue=10, m_bs=128):
    gains = np.asarray(gains, dtype=np.float64)
    if split is None:
        split = np.full(len(gains), pmax / len(gains))
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
