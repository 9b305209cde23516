"""SIC rate algebra: decoding order, interference bookkeeping, baselines."""

import math

import numpy as np
import pytest

from multibeam_noma.beams import GroupPlan
from multibeam_noma.effective import EffectiveChannelMatrix, dirichlet, tdma_effective_gain
from multibeam_noma.rates import (
    RateReport,
    SicOrder,
    _pair_checks,
    beamwidth_3db_deg,
    cluster_users,
    equal_time_shares,
    noma_rates_from_gains,
    sic_feasible,
    sic_rates,
    single_beam_noma_baseline,
    strongest_first,
    system_sum_rate,
    tdma_rates,
)


def make_plan(scheduling, alloc, power, m_bs=128, budget=None, group=None):
    scheduling = np.asarray(scheduling)
    if budget is None:
        budget = float((np.asarray(power) * scheduling).sum(axis=0).max())
    if group is None:
        group = int(scheduling.sum(axis=0).max())
    return GroupPlan(scheduling, alloc, power, group, m_bs, budget)


def pair_plan(p_strong=0.3, p_weak=0.7):
    return make_plan([[1], [1]], [[64], [64]], [[p_strong], [p_weak]])


def test_sic_order_sorts_by_descending_power_with_stable_ties():
    order = SicOrder.from_los_gains(np.array([1.0, 3.0, 2.0]))
    assert order.order == (1, 2, 0)
    # complex gains compare by |.|^2, ties keep ascending user index
    tied = SicOrder.from_los_gains(np.array([1.0 + 0.0j, 0.0 + 1.0j, 2.0]))
    assert tied.order == (2, 0, 1)
    with pytest.raises(ValueError, match="permutation"):
        SicOrder((0, 2))


def test_strongest_first_orders_every_row_by_power_with_stable_ties():
    rng = np.random.default_rng(45)
    mags = rng.uniform(0.1, 1.0, size=(50, 6))
    mags[::3, 2] = mags[::3, 4]                  # exact ties keep the smaller index
    mags[1::3, 1] = np.nextafter(mags[1::3, 3], 0.0)
    got = strongest_first(mags)
    assert got.shape == mags.shape
    for row, order in zip(mags, got):
        np.testing.assert_array_equal(order, strongest_first(row))
        want = sorted(range(len(row)), key=lambda k: (-(row[k] * row[k]), k))
        assert order.tolist() == want
    for order in got[::3].tolist():
        assert order.index(2) < order.index(4)
    # the plan path and the clustering visit users in this one order
    gains = rng.uniform(0.1, 1.0, size=5) * np.exp(2j * np.pi * rng.random(5))
    assert SicOrder.from_los_gains(gains).order == tuple(strongest_first(np.abs(gains)).tolist())


def test_interference_terms_single_chain_pair():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    report = system_sum_rate(eff, pair_plan(), SicOrder((0, 1)), 1.0)
    # no other chain interferes and nothing is stronger than the strong user
    assert report.per_user[0] == pytest.approx(math.log2(1.0 + 0.3 * 4.0 / 1.0),
                                               rel=1e-12)
    # weak user keeps the strong user's power, scaled by its own gain
    assert report.per_user[1] == pytest.approx(
        math.log2(1.0 + 0.7 * 1.0 / (1.0 * 0.3 + 1.0)), rel=1e-12)


def test_interference_terms_across_chains():
    eff = EffectiveChannelMatrix(np.array([[2.0, 0.5], [0.2, 1.0]]))
    plan = make_plan([[1, 0], [0, 1]], [[64, 0], [0, 64]], [[0.4, 0.0], [0.0, 0.6]])
    report = system_sum_rate(eff, plan, SicOrder((0, 1)), 1.0)
    # chain 1 transmits 0.6 W into user 0's gain |0.5|^2, chain 0 0.4 W into |0.2|^2
    assert report.per_user[0] == pytest.approx(
        math.log2(1.0 + 0.4 * 4.0 / (0.25 * 0.6 + 1.0)), rel=1e-12)
    assert report.per_user[1] == pytest.approx(
        math.log2(1.0 + 0.6 * 1.0 / (0.04 * 0.4 + 1.0)), rel=1e-12)
    np.testing.assert_array_equal(report.group_sums, report.per_user)
    assert report.sic_checks == () and report.sic_feasible


def test_individual_rate_hand_values():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    report = system_sum_rate(eff, pair_plan(), SicOrder((0, 1)), 1.0)
    assert report.per_user[0] == pytest.approx(1.1375035237499351, rel=1e-12)
    assert report.per_user[1] == pytest.approx(0.6214883767462701, rel=1e-12)
    assert report.sic_checks[0].target_rate == report.per_user[1]


def test_individual_rate_unscheduled_user_is_zero():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    plan = make_plan([[1], [0]], [[64], [0]], [[1.0], [0.0]])
    report = system_sum_rate(eff, plan, SicOrder((0, 1)), 1.0)
    assert report.per_user[1] == 0.0


def test_weak_user_rate_saturates_at_one_bit_for_equal_split():
    g = 1e12
    eff = EffectiveChannelMatrix(np.array([[math.sqrt(g)], [math.sqrt(g)]]))
    report = system_sum_rate(eff, pair_plan(0.5, 0.5), SicOrder((0, 1)), 1.0)
    assert report.per_user[1] == pytest.approx(1.0, rel=1e-6)
    assert report.sic_checks[0].target_rate == pytest.approx(1.0, rel=1e-6)


def test_sic_decoding_rate_hand_value_and_errors():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    report = system_sum_rate(eff, pair_plan(), SicOrder((0, 1)), 1.0)
    (check,) = report.sic_checks
    assert check.decode_rate == pytest.approx(
        math.log2(1.0 + 0.7 * 4.0 / (4.0 * 0.3 + 1.0)), rel=1e-12)
    # only the stronger user decodes: the audit never has 1 decode 0's message
    assert (check.decoder, check.message, check.chain) == (0, 1, 0)


def test_sic_decoding_rate_equal_channels_matches_own_rate():
    eff = EffectiveChannelMatrix(np.array([[1.5], [1.5]]))
    report = system_sum_rate(eff, pair_plan(), SicOrder((0, 1)), 0.7)
    (check,) = report.sic_checks
    # one expression for both: equal channels give equal rates, bit for bit
    assert check.decode_rate == check.target_rate == report.per_user[1]
    assert check.ok


def test_sic_decoding_rate_unscheduled_message_is_zero():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    plan = make_plan([[1], [0]], [[64], [0]], [[1.0], [0.0]])
    report = system_sum_rate(eff, plan, SicOrder((0, 1)), 1.0)
    # an unscheduled message carries no rate and needs no decoding
    assert report.per_user[1] == 0.0
    assert report.sic_checks == () and report.sic_feasible


def test_sic_feasible_tracks_effective_gain_alignment():
    plan = pair_plan()
    order = SicOrder((0, 1))
    aligned = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    ok, checks = sic_feasible(aligned, plan, order, 1.0)
    assert ok and len(checks) == 1
    assert checks[0].decoder == 0 and checks[0].message == 1 and checks[0].chain == 0
    assert checks[0].decode_rate >= checks[0].target_rate
    # the stronger-by-LOS user has the worse effective channel: decoding fails
    swapped = EffectiveChannelMatrix(np.array([[1.0], [3.0]]))
    ok, checks = sic_feasible(swapped, plan, order, 1.0)
    assert not ok and not checks[0].ok


def test_system_sum_rate_audit_is_consistent():
    rng = np.random.default_rng(23)
    values = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    eff = EffectiveChannelMatrix(values)
    plan = make_plan(
        [[1, 0], [1, 0], [0, 1], [0, 0]],
        [[30, 0], [40, 0], [0, 50], [0, 0]],
        [[0.5, 0.0], [0.7, 0.0], [0.0, 1.1], [0.0, 0.0]],
    )
    order = SicOrder.from_los_gains(np.array([2.0, 1.0, 1.5, 0.1]))
    report = system_sum_rate(eff, plan, order, 0.3)
    assert isinstance(report, RateReport)
    assert report.system_sum == pytest.approx(report.per_user.sum(), rel=1e-12)
    assert report.system_sum == pytest.approx(report.group_sums.sum(), rel=1e-12)
    assert report.per_user[3] == 0.0  # unscheduled
    assert (report.per_user >= 0.0).all()
    louder = system_sum_rate(eff, plan, order, 0.6)
    assert louder.system_sum < report.system_sum


def test_system_sum_rate_is_invariant_to_user_relabeling():
    rng = np.random.default_rng(31)
    values = rng.normal(size=(3, 1)) + 1j * rng.normal(size=(3, 1))
    eff = EffectiveChannelMatrix(values)
    plan = make_plan([[1], [1], [1]], [[30], [40], [50]], [[0.2], [0.3], [0.5]])
    gains = np.array([3.0, 1.0, 2.0])
    report = system_sum_rate(eff, plan, SicOrder.from_los_gains(gains), 0.1)

    perm = np.array([2, 0, 1])  # new_user[i] = old_user[perm[i]]
    eff_p = EffectiveChannelMatrix(values[perm])
    plan_p = make_plan([[1], [1], [1]],
                       plan.antenna_alloc[perm], plan.power_alloc[perm])
    report_p = system_sum_rate(eff_p, plan_p, SicOrder.from_los_gains(gains[perm]), 0.1)
    np.testing.assert_allclose(report_p.per_user, report.per_user[perm], rtol=1e-12)
    assert report_p.system_sum == pytest.approx(report.system_sum, rel=1e-12)


def per_pair_oracle(g, plan, order, noise_w):
    """The per-user and per-pair SIC formulas, one scalar at a time."""
    pos = np.argsort(order.order)
    per_chain = (plan.scheduling * plan.power_alloc).sum(axis=0)

    def sinr_rate(receiver, message, chain):
        stronger = sum(plan.power_alloc[k, chain] for k in range(plan.num_users)
                       if plan.scheduling[k, chain] and pos[k] < pos[message])
        inter = g[receiver] @ per_chain - g[receiver, chain] * per_chain[chain]
        return math.log2(1.0 + plan.power_alloc[message, chain] * g[receiver, chain]
                         / (inter + g[receiver, chain] * stronger + noise_w))

    rates = np.zeros((plan.num_users, plan.num_chains))
    checks = []
    for chain in range(plan.num_chains):
        users = sorted((k for k in range(plan.num_users) if plan.scheduling[k, chain]),
                       key=lambda k: pos[k])
        for k in users:
            rates[k, chain] = sinr_rate(k, k, chain)
        for i, decoder in enumerate(users):
            for message in users[i + 1:]:
                checks.append((decoder, message, chain,
                               sinr_rate(decoder, message, chain), rates[message, chain]))
    return rates, checks


def test_system_sum_rate_matches_per_pair_formulas_on_random_multi_chain_plans():
    rng = np.random.default_rng(41)
    outcomes = set()
    for _ in range(200):
        k = int(rng.integers(1, 13))
        c = int(rng.integers(2, 5))
        chain_of = rng.integers(-1, c, size=k)  # -1: unscheduled
        scheduling = np.zeros((k, c), dtype=int)
        scheduling[chain_of >= 0, chain_of[chain_of >= 0]] = 1
        powers = scheduling * rng.uniform(0.1, 2.0, size=(k, c))
        plan = make_plan(scheduling, scheduling * rng.integers(1, 9, size=(k, c)), powers)
        values = rng.uniform(0.3, 3.0, size=(k, c)) * np.exp(2j * np.pi * rng.random((k, c)))
        eff = EffectiveChannelMatrix(values)
        order = SicOrder.from_los_gains(rng.uniform(0.1, 1.0, size=k))
        noise = float(rng.uniform(0.05, 1.0))
        report = system_sum_rate(eff, plan, order, noise)

        rates, checks = per_pair_oracle(eff.gains_sq, plan, order, noise)
        np.testing.assert_allclose(report.per_user, rates.sum(axis=1), rtol=1e-12)
        np.testing.assert_allclose(report.group_sums, rates.sum(axis=0), rtol=1e-12)
        assert report.system_sum == pytest.approx(rates.sum(), rel=1e-12)
        assert [(c.decoder, c.message, c.chain) for c in report.sic_checks] == \
            [oracle[:3] for oracle in checks]
        for check, (_, _, _, decode, target) in zip(report.sic_checks, checks):
            assert check.decode_rate == pytest.approx(decode, rel=1e-12)
            assert check.target_rate == pytest.approx(target, rel=1e-12)
            assert check.ok is (check.decode_rate >= check.target_rate)
            if abs(decode - target) > 1e-9 * target:
                assert check.ok == (decode >= target)
            outcomes.add(check.ok)
        assert report.sic_feasible is all(c.ok for c in report.sic_checks)
        assert (report.per_user[chain_of < 0] == 0.0).all()
    assert outcomes == {True, False}


def test_strongest_user_rate_is_interference_free_on_a_single_chain():
    eff = EffectiveChannelMatrix(np.array([[3.0], [1.0]]))
    report = system_sum_rate(eff, pair_plan(0.4, 0.6), SicOrder((0, 1)), 0.2)
    assert report.per_user[0] == pytest.approx(math.log2(1.0 + 0.4 * 9.0 / 0.2), rel=1e-12)


def test_noma_rates_from_gains_reference_and_matrix_form():
    rates = noma_rates_from_gains(np.array([4.0, 1.0]), np.array([0.3, 0.7]), 1.0)
    np.testing.assert_allclose(rates, [1.1375035237499351, 0.6214883767462701],
                               rtol=1e-12)
    # (K, n) input evaluates each column independently
    gains = np.array([[4.0, 9.0], [1.0, 2.0]])
    both = noma_rates_from_gains(gains, np.array([0.3, 0.7]), 1.0)
    for col in range(2):
        np.testing.assert_allclose(
            both[:, col],
            noma_rates_from_gains(gains[:, col], np.array([0.3, 0.7]), 1.0),
            rtol=1e-12)


def test_noma_rates_from_gains_matches_plan_based_path():
    eff = EffectiveChannelMatrix(np.array([[2.0], [1.0]]))
    plan = pair_plan()
    order = SicOrder((0, 1))
    report = system_sum_rate(eff, plan, order, 1.0)
    shortcut = noma_rates_from_gains(np.array([4.0, 1.0]), np.array([0.3, 0.7]), 1.0)
    # both run the same expression on the same numbers
    np.testing.assert_array_equal(report.per_user, shortcut)


def test_tdma_rates_reference_values_and_validation():
    report = tdma_rates(np.array([2.0, 8.0]), np.array([0.5, 0.5]), 3.0, 1.0)
    np.testing.assert_allclose(report.per_user,
                               [1.403677461028802, 2.321928094887362], rtol=1e-12)
    assert report.system_sum == pytest.approx(3.7256055559161645, rel=1e-12)
    assert report.sic_feasible and report.sic_checks == ()
    with pytest.raises(ValueError, match="per user"):
        tdma_rates(np.array([1.0, 2.0]), np.array([1.0]), 1.0, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        tdma_rates(np.array([1.0]), np.array([-0.1]), 1.0, 1.0)
    with pytest.raises(ValueError, match="frame"):
        tdma_rates(np.array([1.0, 1.0]), np.array([0.7, 0.7]), 1.0, 1.0)


def test_tdma_rates_degenerate_shares():
    report = tdma_rates(np.array([2.0, 8.0]), np.array([1.0, 0.0]), 3.0, 1.0)
    assert report.per_user[1] == 0.0
    assert report.system_sum == pytest.approx(math.log2(7.0), rel=1e-12)


def test_tdma_rates_over_drops_and_budgets():
    rng = np.random.default_rng(71)
    gains = 10.0 ** rng.uniform(-3.0, 3.0, size=(6, 1, 3))
    shares = np.array([0.5, 0.3, 0.2])
    budgets = np.array([[0.5], [3.0]])
    report = tdma_rates(gains, shares, budgets, 1e-2)
    assert report.per_user.shape == (6, 2, 3)
    assert report.group_sums.shape == (6, 2, 1) and report.system_sum.shape == (6, 2)
    np.testing.assert_array_equal(report.group_sums[..., 0], report.system_sum)
    assert report.sic_feasible and report.sic_checks == ()
    for t in range(6):
        for b in range(2):
            one = tdma_rates(gains[t, 0], shares, float(budgets[b, 0]), 1e-2)
            np.testing.assert_array_equal(report.per_user[t, b], one.per_user)
            assert report.system_sum[t, b] == pytest.approx(one.system_sum, rel=1e-15)
    with pytest.raises(ValueError, match="per user"):
        tdma_rates(gains, shares[:2], 1.0, 1.0)


def test_equal_time_shares_sum_to_one():
    shares = equal_time_shares(5)
    np.testing.assert_allclose(shares, 0.2, rtol=1e-12)


def test_rates_stay_nonnegative_on_random_instances():
    rng = np.random.default_rng(37)
    for _ in range(25):
        k = int(rng.integers(1, 5))
        values = rng.normal(size=(k, 1)) + 1j * rng.normal(size=(k, 1))
        powers = rng.uniform(0.1, 1.0, size=(k, 1))
        plan = make_plan(np.ones((k, 1)), rng.integers(1, 20, size=(k, 1)), powers)
        order = SicOrder.from_los_gains(rng.uniform(0.1, 1.0, size=k))
        report = system_sum_rate(EffectiveChannelMatrix(values), plan, order, 0.5)
        assert (report.per_user >= 0.0).all()
        assert np.isfinite(report.system_sum)


def test_beamwidth_reference():
    assert beamwidth_3db_deg(128) == pytest.approx(0.79765625, rel=1e-12)


def test_cluster_users_merges_within_one_beamwidth():
    aods = np.array([1.0, 1.05, 0.97])
    gains = np.array([1.0, 3.0, 2.0])
    np.testing.assert_array_equal(cluster_users(aods, gains, 0.1, 4), [0, 0, 0])


def test_cluster_users_isolated_users_stay_alone():
    aods = np.array([0.5, 1.5, 2.5])
    gains = np.array([1.0, 3.0, 2.0])
    # clusters open strongest first: user 1, then 2, then 0
    np.testing.assert_array_equal(cluster_users(aods, gains, 0.1, 4), [2, 0, 1])


def test_cluster_users_respects_the_cap():
    aods = np.array([1.0, 1.0, 1.0])
    gains = np.array([5.0, 4.0, 3.0])
    np.testing.assert_array_equal(cluster_users(aods, gains, 0.1, 2), [0, 0, 1])


def test_cluster_users_takes_a_user_exactly_one_beamwidth_away():
    # 1.25 - 1.0 and 1.5 - 1.25 are exactly 0.25
    aods = np.array([1.0, 1.25, 1.5])
    gains = np.array([3.0, 2.0, 1.0])
    np.testing.assert_array_equal(cluster_users(aods, gains, 0.25, 3), [0, 0, 1])
    np.testing.assert_array_equal(cluster_users(aods, gains, np.nextafter(0.25, 0.0), 3),
                                  [0, 1, 2])
    np.testing.assert_array_equal(cluster_users(np.stack([aods, aods[::-1]]),
                                                np.stack([gains, gains]), 0.25, 3),
                                  [[0, 0, 1], [0, 0, 1]])


def test_single_beam_baseline_collapses_to_tdma_when_isolated():
    aods = np.array([0.6, 1.6, 2.6])
    gains = np.array([3e-6, 2e-6, 1e-6])
    m_ue, m_bs = 10, 128
    base = single_beam_noma_baseline(aods, gains, m_ue, m_bs, 4, 2.0, 1e-12)
    tdma_gains = np.array([tdma_effective_gain(g, m_ue, m_bs) for g in gains])
    tdma = tdma_rates(tdma_gains, equal_time_shares(3), 2.0, 1e-12)
    np.testing.assert_allclose(base.per_user, tdma.per_user, rtol=1e-12)
    assert base.sic_feasible and base.sic_checks == ()


def test_single_beam_baseline_single_cluster_superposes():
    aods = np.array([1.2, 1.2, 1.2])
    gains = np.array([3e-6, 2e-6, 1e-6])
    m_ue, m_bs = 10, 128
    noise = 1e-12
    base = single_beam_noma_baseline(aods, gains, m_ue, m_bs, 3, 3.0, noise)
    gains_sq = gains ** 2 * m_ue * m_bs  # x = 0 inside the cluster
    expected = noma_rates_from_gains(gains_sq, np.full(3, 1.0), noise)
    np.testing.assert_allclose(base.per_user, expected, rtol=1e-12)
    assert len(base.sic_checks) == 3
    assert base.sic_feasible
    assert base.system_sum == pytest.approx(base.per_user.sum(), rel=1e-12)


def test_noma_rates_from_gains_power_columns_match_per_column_calls():
    rng = np.random.default_rng(8)
    powers = rng.uniform(0.01, 5.0, size=(4, 6))
    gains = rng.uniform(1e-3, 10.0, size=4)
    gains_2d = rng.uniform(1e-3, 10.0, size=(4, 6))
    by_column = noma_rates_from_gains(gains, powers, 0.3)
    both_2d = noma_rates_from_gains(gains_2d, powers, 0.3)
    assert by_column.shape == both_2d.shape == (4, 6)
    for col in range(6):
        np.testing.assert_array_equal(
            by_column[:, col], noma_rates_from_gains(gains, powers[:, col], 0.3))
        np.testing.assert_array_equal(
            both_2d[:, col], noma_rates_from_gains(gains_2d[:, col], powers[:, col], 0.3))


def test_single_beam_baseline_budget_array_matches_scalar_calls():
    # a cluster of three whose off-axis middle user cannot decode the
    # on-axis weakest one, a cluster of two, and an isolated user
    aods = np.array([1.2, 1.205, 1.2, 1.9, 1.9002, 2.5])
    gains = np.array([3e-6, 2.9e-6, 2.85e-6, 2e-6, 0.5e-6, 1e-6])
    m_ue, m_bs, noise = 10, 128, 1e-12
    budgets = np.array([1e-9, 0.01, 0.5, 3.0, 40.0])
    stacked = single_beam_noma_baseline(aods, gains, m_ue, m_bs, 3, budgets, noise)
    scalar = [single_beam_noma_baseline(aods, gains, m_ue, m_bs, 3, float(p), noise)
              for p in budgets]
    assert stacked.per_user.shape == (6, 5) and stacked.system_sum.shape == (5,)
    for b, report in enumerate(scalar):
        np.testing.assert_array_equal(stacked.per_user[:, b], report.per_user)
        assert stacked.system_sum[b] == report.system_sum
        assert stacked.group_sums[0, b] == report.group_sums[0]
        assert stacked.sic_feasible[b] == report.sic_feasible
    assert stacked.sic_checks == tuple(c for r in scalar for c in r.sic_checks)
    assert len(stacked.sic_checks) == 4 * len(budgets)
    assert [c.ok for c in stacked.sic_checks[:4]] == [True, True, False, True]
    assert not stacked.sic_feasible.any()
    assert all(type(c.ok) is bool for c in stacked.sic_checks)


def test_single_beam_baseline_checks_equal_the_plan_path_on_one_cluster():
    # LOS gains are powers of two and m_ue / m_bs = 1/16, so the plan's
    # |v|^2 below rounds exactly as the baseline's gains do
    m_ue, m_bs, noise = 8, 128, 1e-12
    aods = np.array([1.2, 1.212, 1.2, 1.205])
    los = 2.0 ** -np.arange(18.0, 22.0)
    budget = 0.8
    base = single_beam_noma_baseline(aods, los, m_ue, m_bs, 4, budget, noise)

    x = 0.5 * math.pi * (math.cos(aods[0]) - np.cos(aods))
    eff = EffectiveChannelMatrix((los * 0.25 * dirichlet(m_bs, x))[:, None])
    plan = make_plan(np.ones((4, 1), dtype=int), [[32]] * 4, np.full((4, 1), budget / 4),
                     m_bs=m_bs, budget=budget)
    report = system_sum_rate(eff, plan, SicOrder.from_los_gains(los), noise)

    np.testing.assert_array_equal(base.per_user, report.per_user)
    assert base.sic_checks == report.sic_checks
    assert len(base.sic_checks) == 6
    # the off-axis second user cannot decode the on-axis third one
    assert not base.sic_feasible and not base.sic_checks[3].ok


def per_cluster_baseline(los_aods, los_gains, m_ue, m_bs, max_group_size, max_power_w,
                         noise_w):
    """The single-beam baseline as it was written before its singletons were
    batched: one chain of small array calls per cluster, singletons
    included, and clustering over numpy scalars.  Returns the report and
    the cluster sizes."""
    los_aods = np.asarray(los_aods, dtype=np.float64)
    los_gains = np.asarray(los_gains)
    budgets = np.atleast_1d(np.asarray(max_power_w, dtype=np.float64))
    beamwidth_rad = math.radians(beamwidth_3db_deg(m_bs))
    order = SicOrder.from_los_gains(los_gains).order
    assigned = np.zeros(len(order), dtype=bool)
    clusters = []
    for head in order:
        if assigned[head]:
            continue
        members = [head]
        assigned[head] = True
        for k in order:
            if len(members) >= max_group_size:
                break
            if not assigned[k] and abs(los_aods[k] - los_aods[head]) <= beamwidth_rad:
                members.append(k)
                assigned[k] = True
        clusters.append(members)
    share = 1.0 / len(clusters)
    per_user = np.zeros((len(budgets), len(los_aods)))
    audits = []
    for chain, members in enumerate(clusters):
        head = members[0]
        x = 0.5 * math.pi * (math.cos(los_aods[head]) - np.cos(los_aods[members]))
        gains_sq = (np.abs(los_gains[members]) ** 2 * (m_ue / m_bs)
                    * np.asarray(dirichlet(m_bs, x)) ** 2)
        powers = np.tile(budgets / len(members), (len(members), 1))
        if len(members) < 2:
            rates = noma_rates_from_gains(gains_sq, powers, noise_w)
        else:
            rates, decode = sic_rates(gains_sq, powers, noise_w)
            audits.append((chain, members, rates.T.tolist(),
                           decode.transpose(2, 0, 1).tolist()))
        per_user[:, members] = share * rates.T
    checks = [[c for chain, members, rates, decode in audits
               for c in _pair_checks(members, chain, rates[b], decode[b])]
              for b in range(len(budgets))]
    totals = per_user.sum(axis=1)
    feasible = np.array([all(c.ok for c in cs) for cs in checks])
    all_checks = tuple(c for cs in checks for c in cs)
    sizes = [len(members) for members in clusters]
    if np.ndim(max_power_w) == 0:
        total = float(totals[0])
        return RateReport(per_user[0], np.array([total]), total, all_checks,
                          bool(feasible[0])), sizes
    return RateReport(per_user.T, totals[None, :], totals, all_checks, feasible), sizes


def assert_same_report(actual, expected):
    for name in ("per_user", "group_sums", "system_sum", "sic_feasible"):
        a, e = np.asarray(getattr(actual, name)), np.asarray(getattr(expected, name))
        assert a.shape == e.shape and a.dtype == e.dtype, name
        assert type(getattr(actual, name)) is type(getattr(expected, name)), name
        if a.dtype == bool:
            np.testing.assert_array_equal(a, e)
        else:
            np.testing.assert_array_equal(a.view(np.int64), e.view(np.int64))

    def fields(c):
        return (c.decoder, c.message, c.chain, c.decode_rate.hex(), c.target_rate.hex(), c.ok)

    assert [fields(c) for c in actual.sic_checks] == [fields(c) for c in expected.sic_checks]
    assert all(type(c.ok) is bool for c in actual.sic_checks)


@pytest.mark.parametrize("num_users", (1, 2, 5, 8))
@pytest.mark.parametrize("m_bs", (128, 100))
def test_single_beam_baseline_matches_per_cluster_oracle_bit_for_bit(num_users, m_bs):
    # For every cluster size s, drops in which s users sit inside one 3 dB
    # beam of their head and the rest stand apart, plus random drops inside
    # a few beamwidths.  An array size that is not a power of two makes
    # m_ue / m_bs inexact, so reordering the gain products shows.
    rng = np.random.default_rng(30 + num_users + m_bs)
    m_ue, noise = 10, 3.98e-12
    width = math.radians(beamwidth_3db_deg(m_bs))
    budgets = 10.0 ** (np.arange(30.0, 47.0, 2.0) / 10.0 - 3.0)
    seen = set()

    def check(aods, gains, cap, budget):
        want, sizes = per_cluster_baseline(aods, gains, m_ue, m_bs, cap, budget, noise)
        assert_same_report(single_beam_noma_baseline(aods, gains, m_ue, m_bs, cap, budget,
                                                     noise), want)
        seen.update(sizes)

    for size in range(1, num_users + 1):
        for _ in range(6):
            aods = 0.2 + 0.3 * rng.permutation(num_users).astype(np.float64)
            near = rng.choice(num_users, size=size, replace=False)
            aods[near] = aods[near[0]] + rng.uniform(-0.9, 0.9, size=size) * width
            gains = 10.0 ** rng.uniform(-7.0, -5.0, size=num_users)
            for cap in sorted({num_users, max(1, size - 1)}):
                for budget in (float(budgets[3]), budgets):
                    check(aods, gains, cap, budget)
    for _ in range(20):
        aods = rng.uniform(1.0, 1.0 + 3 * width, size=num_users)
        check(aods, 10.0 ** rng.uniform(-7.0, -5.0, size=num_users), num_users, budgets)
    assert seen == set(range(1, num_users + 1))


def drops_with_every_cluster_size(rng, num_drops, num_users, width):
    """LOS AoDs and gains (num_drops, num_users) on which the single-beam
    clustering forms clusters of every size: each drop puts a random number
    of users inside one beamwidth, and some drops tie gains exactly."""
    aods = 0.2 + 0.3 * np.array([rng.permutation(num_users) for _ in range(num_drops)],
                                dtype=np.float64)
    gains = 10.0 ** rng.uniform(-7.0, -5.0, size=(num_drops, num_users))
    for t in range(num_drops):
        near = rng.choice(num_users, size=rng.integers(1, num_users + 1), replace=False)
        aods[t, near] = aods[t, near[0]] + rng.uniform(-0.9, 0.9, size=len(near)) * width
    gains[::5, -1] = gains[::5, 0]
    return aods, gains


@pytest.mark.parametrize("num_users", (1, 2, 5, 8))
def test_single_beam_baseline_over_drops_matches_one_call_per_drop_bit_for_bit(num_users):
    # 16 elements: a 6.4 deg beam, so clusters of every size up to the cap occur
    m_bs, m_ue, noise = 16, 4, 3.98e-12
    width = math.radians(beamwidth_3db_deg(m_bs))
    rng = np.random.default_rng(60 + num_users)
    aods, gains = drops_with_every_cluster_size(rng, 120, num_users, width)
    budgets = 10.0 ** (np.arange(30.0, 47.0, 2.0) / 10.0 - 3.0)
    for cap in range(1, num_users + 1):
        labels = cluster_users(aods, gains, width, cap)
        assert labels.shape == aods.shape and labels.dtype == np.int64
        sizes = set()
        for t in range(len(aods)):
            one = cluster_users(aods[t], gains[t], width, cap)
            assert one.shape == (num_users,) and one.dtype == np.int64
            np.testing.assert_array_equal(one, labels[t])
            sizes.update(np.bincount(one).tolist())
        assert sizes == set(range(1, cap + 1))
        for budget in (float(budgets[4]), budgets):
            batched = single_beam_noma_baseline(aods, gains, m_ue, m_bs, cap, budget, noise)
            per_drop = [single_beam_noma_baseline(aods[t], gains[t], m_ue, m_bs, cap, budget,
                                                  noise) for t in range(len(aods))]
            for name in ("per_user", "group_sums", "system_sum", "sic_feasible"):
                want = np.array([getattr(r, name) for r in per_drop])
                got = getattr(batched, name)
                assert got.shape == want.shape and got.dtype == want.dtype, name
                np.testing.assert_array_equal(np.ascontiguousarray(got).view(np.uint8),
                                              want.view(np.uint8))
            assert batched.sic_checks == tuple(c for r in per_drop for c in r.sic_checks)
            # three leading axes are the same drops
            stacked = single_beam_noma_baseline(aods.reshape(4, 3, 10, num_users),
                                                gains.reshape(4, 3, 10, num_users),
                                                m_ue, m_bs, cap, budget, noise)
            np.testing.assert_array_equal(stacked.system_sum.reshape(batched.system_sum.shape),
                                          batched.system_sum)
            assert stacked.sic_checks == batched.sic_checks
