"""Effective channels: direct product, Dirichlet expansion, large-array limit."""

import math

import numpy as np
import pytest

from multibeam_noma.beams import GroupPlan, rf_chain_precoder, segment_layout, user_combiner
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    generate_user_channel,
)
from multibeam_noma.effective import (
    DIRICHLET_EPS,
    EffectiveChannelMatrix,
    dirichlet,
    effective_asymptotic,
    effective_channel_matrix,
    effective_closed_form,
    effective_direct,
    tdma_effective_gain,
)


def los_only(gain, aod, aoa, m_ue, m_bs):
    return UserChannel([gain], [aod], [aoa], UlaConfig(m_ue), UlaConfig(m_bs))


def single_chain_plan(alloc, m_bs, budget=1.0):
    k = len(alloc)
    return GroupPlan(
        scheduling=np.ones((k, 1), dtype=np.int64),
        antenna_alloc=np.asarray(alloc, dtype=np.int64).reshape(k, 1),
        power_alloc=np.full((k, 1), budget / k),
        max_group_size=k,
        bs_antennas=m_bs,
        max_power_w=budget,
    )


def random_channel(rng, m_ue, m_bs, num_nlos):
    gains, aods, aoas = [], [], []
    for path in range(1 + num_nlos):
        gain = complex(rng.normal(), rng.normal())
        gains.append(gain if path == 0 else gain * 0.3)
        aods.append(rng.uniform(0.05, math.pi - 0.05))
        aoas.append(rng.uniform(0.05, math.pi - 0.05))
    return UserChannel(gains, aods, aoas, UlaConfig(m_ue), UlaConfig(m_bs))


def test_dirichlet_reference_values():
    assert dirichlet(8, 0.3) == pytest.approx(2.285675108928232, rel=1e-12)
    assert dirichlet(128, 1.2) == pytest.approx(0.35582056916380467, rel=1e-12)
    assert dirichlet(5, -0.7) == pytest.approx(-0.5445103955368344, rel=1e-12)


def test_dirichlet_limit_and_shapes():
    assert dirichlet(12, 0.0) == 12.0
    assert isinstance(dirichlet(12, 0.0), float)
    out = dirichlet(4, np.array([0.0, 0.5, -0.5]))
    assert out.shape == (3,)
    assert out[0] == 4.0
    assert out[1] == pytest.approx(out[2], rel=1e-12)  # even in x
    np.testing.assert_allclose(out[1], np.sin(2.0) / np.sin(0.5), rtol=1e-12)


def test_dirichlet_is_continuous_across_the_limit_threshold():
    m = 128
    below = dirichlet(m, DIRICHLET_EPS / 10.0)
    above = dirichlet(m, DIRICHLET_EPS * 2.0)
    assert below == float(m)
    assert above == pytest.approx(float(m), rel=1e-12)


def test_effective_direct_matched_full_array_reference():
    gain = 2.0 + 1.0j
    ch = los_only(gain, 1.2, 0.8, 10, 128)
    plan = single_chain_plan([128], 128)
    v = user_combiner(10, 0.8)
    pre = rf_chain_precoder(plan, 0, np.array([1.2]))
    h = effective_direct(ch, v, pre)
    # gain * sqrt(M_UE * M_BS) for a matched full-array beam
    assert h.real == pytest.approx(71.55417527999327, rel=1e-12)
    assert h.imag == pytest.approx(35.77708763999664, rel=1e-12)


def test_effective_direct_empty_chain_is_zero():
    ch = los_only(1.0, 1.0, 2.0, 4, 16)
    plan = GroupPlan(np.array([[1, 0]]), np.array([[8, 0]]), np.array([[1.0, 0.0]]),
                     1, 16, 1.0)
    pre = rf_chain_precoder(plan, 1, np.array([1.0]))
    assert effective_direct(ch, user_combiner(4, 2.0), pre) == 0.0


def test_effective_direct_dimension_checks():
    ch = los_only(1.0, 1.0, 2.0, 4, 16)
    plan = single_chain_plan([16], 16)
    pre = rf_chain_precoder(plan, 0, np.array([1.0]))
    with pytest.raises(ValueError, match="combiner"):
        effective_direct(ch, np.ones(5), pre)
    other = rf_chain_precoder(single_chain_plan([8], 8), 0, np.array([1.0]))
    with pytest.raises(ValueError, match="array size"):
        effective_direct(ch, user_combiner(4, 2.0), other)


def test_single_matched_segment_magnitude_is_exact():
    gain = 0.7 - 0.2j
    ch = los_only(gain, 1.3, 2.1, 10, 128)
    plan = single_chain_plan([50], 128)
    aods = np.array([1.3])
    h = effective_direct(ch, user_combiner(10, 2.1), rf_chain_precoder(plan, 0, aods))
    expected_mag = abs(gain) * math.sqrt(10.0 / 128.0) * 50
    assert abs(h) == pytest.approx(expected_mag, rel=1e-12)
    assert abs(h) == pytest.approx(abs(effective_asymptotic(gain, 10, 128, 50)),
                                   rel=1e-12)
    closed = effective_closed_form(ch, plan, 0, aods)
    assert closed == pytest.approx(h, rel=1e-12)


def test_closed_form_matches_direct_on_random_instances():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(300):
        k = int(rng.integers(1, 4))
        m_ue = int(rng.integers(1, 9))
        m_bs = int(rng.integers(16, 129))
        alloc = rng.integers(1, m_bs // k + 1, size=k)
        channels = [random_channel(rng, m_ue, m_bs, int(rng.integers(0, 5)))
                    for _ in range(k)]
        aods = np.array([ch.aods[0] for ch in channels])
        plan = single_chain_plan(alloc, m_bs)
        pre = rf_chain_precoder(plan, 0, aods)
        for ch in channels:
            direct = effective_direct(ch, user_combiner(m_ue, ch.aoas[0]), pre)
            closed = effective_closed_form(ch, plan, 0, aods)
            worst = max(worst, abs(closed - direct) / abs(direct))
    assert worst < 1e-9


def oracle_dirichlet(m, x):
    """``dirichlet`` of one scalar, as the per-term loop called it."""
    x = np.asarray(x, dtype=np.float64)
    denom = np.sin(x)
    small = np.abs(denom) < DIRICHLET_EPS
    out = np.where(small, float(m), np.sin(m * x) / np.where(small, 1.0, denom))
    return float(out)


def oracle_closed_form_terms(channel, plan, rf_index, los_aods):
    """One scalar expression per (path, segment), in that order."""
    m_ue = channel.ue_config.num_antennas
    m_bs = plan.bs_antennas
    center = (m_bs - 1) / 2.0
    cos_aoa0 = math.cos(channel.aoas[0])
    norm = 1.0 / math.sqrt(m_ue * m_bs)
    terms = []
    for gain, aod, aoa in channel.paths:
        rx = oracle_dirichlet(m_ue, 0.5 * math.pi * (cos_aoa0 - math.cos(aoa)))
        cos_aod = math.cos(aod)
        for user, offset, length in segment_layout(plan, rf_index):
            x = 0.5 * math.pi * (math.cos(los_aods[user]) - cos_aod)
            c_seg = offset + (length - 1) / 2.0 - center
            phase = np.exp(1j * math.pi * c_seg * cos_aod)
            terms.append(complex(gain * norm * rx * oracle_dirichlet(length, x) * phase))
    return terms


def random_plan(rng, k, m_bs):
    """Users on chains 0 and 1 or on none; chain 2 stays empty.  Segment
    lengths are random, or all 1 on some chains."""
    chain = rng.integers(-1, 2, size=k)
    scheduling = np.zeros((k, 3), dtype=np.int64)
    alloc = np.zeros((k, 3), dtype=np.int64)
    for r in range(2):
        users = np.flatnonzero(chain == r)
        scheduling[users, r] = 1
        if rng.random() < 0.3:
            alloc[users, r] = 1
        elif len(users):
            alloc[users, r] = rng.integers(1, m_bs // len(users) + 1, size=len(users))
    return GroupPlan(scheduling, alloc, np.zeros((k, 3)), k, m_bs, 1.0)


def test_closed_form_matches_per_term_oracle_to_a_few_ulps():
    # the array sum and the per-term sum in path-major order from 0j differ by
    # rounding only, a few ulps of the summed term magnitudes (under 5 seen
    # over about 28000 random (user, chain) pairs)
    eps = np.finfo(np.float64).eps
    rng = np.random.default_rng(14)
    for k in (1, 2, 5, 9, 12):
        for num_nlos in (0, 1, 30):
            for m_ue, m_bs in ((10, 128), (1, 33)):
                channels = [random_channel(rng, m_ue, m_bs, num_nlos) for _ in range(k)]
                aods = np.array([ch.aods[0] for ch in channels])
                plan = random_plan(rng, k, m_bs)
                got = []
                for ch in channels:
                    for r in range(plan.num_chains):
                        value = effective_closed_form(ch, plan, r, aods)
                        terms = oracle_closed_form_terms(ch, plan, r, aods)
                        bound = 8 * eps * sum(map(abs, terms))
                        assert abs(value - sum(terms, 0j)) <= bound
                        got.append(value)
                assert all(type(v) is complex for v in got)
                assert got[2] == 0j   # the empty chain


def test_effective_asymptotic_reference_and_bounds():
    assert abs(effective_asymptotic(1.0, 10, 128, 50)) == pytest.approx(
        13.975424859373685, rel=1e-12)
    assert effective_asymptotic(0.5j, 10, 128, 0) == 0.0
    full = effective_asymptotic(1.0, 10, 128, 128)
    assert abs(full) == pytest.approx(math.sqrt(10 * 128), rel=1e-12)
    with pytest.raises(ValueError):
        effective_asymptotic(1.0, 10, 128, -1)
    with pytest.raises(ValueError):
        effective_asymptotic(1.0, 10, 128, 129)


def test_tdma_effective_gain_matches_full_array_limit():
    assert tdma_effective_gain(1.0, 10, 128) == pytest.approx(1280.0, rel=1e-12)
    g = 0.3 + 0.4j
    assert tdma_effective_gain(g, 10, 128) == pytest.approx(
        abs(effective_asymptotic(g, 10, 128, 128)) ** 2, rel=1e-12)


def test_asymptotic_error_shrinks_with_the_array():
    gains = np.array([0.9, 0.4])
    aods = np.array([1.1, 2.0])
    aoas = np.array([0.7, 2.4])
    errs = []
    for m_bs in (128, 512, 2048):
        m1 = int(round(0.6 * m_bs))
        plan = single_chain_plan([m1, m_bs - m1], m_bs)
        alloc = (m1, m_bs - m1)
        rel = 0.0
        for k in range(2):
            ch = los_only(gains[k], aods[k], aoas[k], 10, m_bs)
            exact = abs(effective_closed_form(ch, plan, 0, aods))
            asym = abs(effective_asymptotic(gains[k], 10, m_bs, alloc[k]))
            rel += abs(exact - asym) / asym
        errs.append(rel / 2.0)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_cross_segment_leakage_is_bounded():
    gain = 0.8
    aods = np.array([1.0, 2.2])
    m_ue, m_bs = 10, 256
    alloc = (150, 106)
    plan = single_chain_plan(list(alloc), m_bs)
    ch = los_only(gain, aods[0], 1.5, m_ue, m_bs)
    h = effective_closed_form(ch, plan, 0, aods)
    # matched segment contribution, including its placement phase
    c_seg = (alloc[0] - 1) / 2.0 - (m_bs - 1) / 2.0
    matched = (gain * math.sqrt(m_ue / m_bs) * alloc[0]
               * np.exp(1j * math.pi * c_seg * math.cos(aods[0])))
    x = 0.5 * math.pi * (math.cos(aods[1]) - math.cos(aods[0]))
    bound = gain * math.sqrt(m_ue / m_bs) / abs(math.sin(x))
    assert abs(h - matched) <= bound * (1.0 + 1e-9)


def test_effective_channel_matrix_entries_match_direct():
    rng = np.random.default_rng(13)
    m_ue, m_bs = 4, 32
    channels = [random_channel(rng, m_ue, m_bs, 2) for _ in range(3)]
    plan = GroupPlan(
        scheduling=np.array([[1, 0], [1, 0], [0, 1]]),
        antenna_alloc=np.array([[10, 0], [12, 0], [0, 20]]),
        power_alloc=np.array([[0.4, 0.0], [0.6, 0.0], [0.0, 1.0]]),
        max_group_size=2,
        bs_antennas=m_bs,
        max_power_w=1.0,
    )
    aods = np.array([ch.aods[0] for ch in channels])
    eff = effective_channel_matrix(channels, plan, aods)
    assert eff.values.shape == (3, 2)
    for r in range(2):
        pre = rf_chain_precoder(plan, r, aods)
        for k, ch in enumerate(channels):
            manual = effective_direct(ch, user_combiner(m_ue, ch.aoas[0]), pre)
            assert eff.values[k, r] == pytest.approx(manual, rel=1e-12)
    np.testing.assert_allclose(eff.gains_sq, np.abs(eff.values) ** 2, rtol=1e-12)


def test_effective_channel_matrix_validation():
    with pytest.raises(ValueError, match="K x N_RF"):
        EffectiveChannelMatrix(np.ones(3))
    rng = np.random.default_rng(1)
    channels = [random_channel(rng, 2, 8, 0)]
    plan = single_chain_plan([4, 4], 8)
    with pytest.raises(ValueError, match="one channel per"):
        effective_channel_matrix(channels, plan)


def test_default_steering_uses_the_channels_own_los_angles():
    rng = np.random.default_rng(19)
    channels = [random_channel(rng, 3, 16, 1) for _ in range(2)]
    plan = single_chain_plan([8, 8], 16)
    aods = np.array([ch.aods[0] for ch in channels])
    by_default = effective_channel_matrix(channels, plan)
    explicit = effective_channel_matrix(channels, plan, aods)
    np.testing.assert_array_equal(by_default.values, explicit.values)
