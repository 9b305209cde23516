"""Beam splitting: plan validation, segment precoders, beam patterns."""

import dataclasses
import math

import numpy as np
import pytest

from multibeam_noma.beams import (
    AnalogPrecoder,
    GroupPlan,
    PlanError,
    beam_pattern,
    default_angle_grid,
    rf_chain_precoder,
    segment_layout,
    segment_precoder,
    user_combiner,
)
from multibeam_noma.channel import UlaConfig, array_response


def two_user_plan(m1=50, m2=78, m_bs=128, p1=1.0, p2=1.0, budget=2.0):
    return GroupPlan(
        scheduling=np.array([[1], [1]]),
        antenna_alloc=np.array([[m1], [m2]]),
        power_alloc=np.array([[p1], [p2]]),
        max_group_size=2,
        bs_antennas=m_bs,
        max_power_w=budget,
    )


def test_segment_precoder_modulus_and_length():
    w = segment_precoder(50, 1.2, 128)
    assert w.shape == (50,)
    np.testing.assert_allclose(np.abs(w), 1.0 / math.sqrt(128), rtol=1e-12)


def test_segment_precoder_full_array_matches_scaled_response():
    w = segment_precoder(32, 2.1, 32)
    expected = array_response(UlaConfig(32), 2.1) / math.sqrt(32)
    np.testing.assert_allclose(w, expected, rtol=1e-12)


def test_segment_precoder_rejects_bad_inputs():
    with pytest.raises(ValueError, match="positive"):
        segment_precoder(0, 1.0, 16)
    with pytest.raises(ValueError, match="exceeds"):
        segment_precoder(17, 1.0, 16)
    with pytest.raises(ValueError, match="angle"):
        segment_precoder(4, 0.0, 16)
    with pytest.raises(ValueError, match="angle"):
        segment_precoder(4, math.pi, 16)


def test_group_plan_accepts_valid_tables():
    plan = two_user_plan()
    assert plan.num_users == 2 and plan.num_chains == 1
    assert plan.scheduling.dtype == np.int64
    assert plan.power_alloc.dtype == np.float64


def test_group_plan_rejects_shape_mismatch():
    with pytest.raises(PlanError, match="shape"):
        GroupPlan(np.ones((2, 1)), np.ones((2, 2)), np.ones((2, 1)), 2, 128, 1.0)
    with pytest.raises(PlanError, match="shape"):
        GroupPlan(np.ones(2), np.ones(2), np.ones(2), 2, 128, 1.0)


def test_group_plan_rejects_bad_scheduling_entries():
    for entry in (2, -1):
        with pytest.raises(PlanError, match="0 or 1"):
            GroupPlan(np.array([[entry], [1]]), np.array([[4], [4]]),
                      np.array([[0.5], [0.5]]), 2, 16, 1.0)


def test_group_plan_rejects_user_on_two_chains():
    with pytest.raises(PlanError, match="at most one RF chain"):
        GroupPlan(np.array([[1, 1]]), np.array([[4, 4]]), np.array([[0.5, 0.5]]),
                  2, 16, 2.0)


def test_group_plan_enforces_group_size():
    with pytest.raises(PlanError, match="users on one RF chain"):
        GroupPlan(np.ones((3, 1)), np.full((3, 1), 4), np.full((3, 1), 0.1),
                  2, 16, 1.0)


def test_group_plan_unscheduled_users_hold_nothing():
    with pytest.raises(PlanError, match="unscheduled"):
        GroupPlan(np.array([[1], [0]]), np.array([[4], [4]]),
                  np.array([[0.5], [0.0]]), 2, 16, 1.0)
    with pytest.raises(PlanError, match="unscheduled"):
        GroupPlan(np.array([[1], [0]]), np.array([[4], [0]]),
                  np.array([[0.5], [0.5]]), 2, 16, 1.0)


def test_group_plan_scheduled_users_need_antennas():
    with pytest.raises(PlanError, match="at least one antenna"):
        GroupPlan(np.array([[1], [1]]), np.array([[16], [0]]),
                  np.array([[0.5], [0.5]]), 2, 16, 1.0)


def test_group_plan_rejects_negative_power():
    with pytest.raises(PlanError, match="nonnegative"):
        GroupPlan(np.array([[1], [1]]), np.array([[4], [4]]),
                  np.array([[0.5], [-0.1]]), 2, 16, 1.0)


def test_group_plan_antenna_budget():
    with pytest.raises(PlanError, match="antennas exceed"):
        two_user_plan(m1=64, m2=65)


def test_group_plan_power_budget():
    with pytest.raises(PlanError, match="power exceeds"):
        two_user_plan(p1=1.2, p2=0.9, budget=2.0)
    # exactly on budget is allowed
    two_user_plan(p1=1.0, p2=1.0, budget=2.0)


def test_group_plan_is_immutable():
    scheduling = np.array([[1], [1]])
    alloc = np.array([[50], [78]])
    power = np.array([[1.0], [1.0]])
    plan = GroupPlan(scheduling, alloc, power, 2, 128, 2.0)
    for name, value in (("bs_antennas", 64), ("max_power_w", 0.5),
                        ("scheduling", np.zeros((2, 1), dtype=np.int64))):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, value)
    for table in (plan.scheduling, plan.antenna_alloc, plan.power_alloc):
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0, 0] = 0
    # the plan holds copies: what the caller does to its arrays later does not reach it
    scheduling[1, 0] = 2
    alloc[:] = 500
    power[:] = -1.0
    assert plan.scheduling.tolist() == [[1], [1]]
    assert plan.antenna_alloc.tolist() == [[50], [78]]
    assert plan.power_alloc.tolist() == [[1.0], [1.0]]
    assert rf_chain_precoder(plan, 0, np.array([1.0, 2.0])).segment_map == (
        (0, 0, 50), (1, 50, 78))


def test_segment_layout_is_contiguous_ascending():
    plan = GroupPlan(
        scheduling=np.array([[1, 0], [0, 1], [1, 0]]),
        antenna_alloc=np.array([[5, 0], [0, 9], [3, 0]]),
        power_alloc=np.array([[0.2, 0.0], [0.0, 0.5], [0.3, 0.0]]),
        max_group_size=2,
        bs_antennas=16,
        max_power_w=1.0,
    )
    assert segment_layout(plan, 0) == ((0, 0, 5), (2, 5, 3))
    assert segment_layout(plan, 1) == ((1, 0, 9),)


def test_rf_chain_precoder_concatenates_segment_weights():
    plan = two_user_plan()
    aods = np.array([1.0, 2.0])
    pre = rf_chain_precoder(plan, 0, aods)
    assert pre.segment_map == ((0, 0, 50), (1, 50, 78))
    expected = np.concatenate([segment_precoder(50, 1.0, 128),
                               segment_precoder(78, 2.0, 128)])
    np.testing.assert_allclose(pre.weights, expected, rtol=1e-12)


def test_rf_chain_precoder_empty_chain_and_bad_index():
    plan = GroupPlan(np.array([[1, 0]]), np.array([[8, 0]]), np.array([[1.0, 0.0]]),
                     1, 16, 1.0)
    pre = rf_chain_precoder(plan, 1, np.array([1.5]))
    assert pre.weights.shape == (0,) and pre.segment_map == ()
    np.testing.assert_array_equal(pre.embedded(), np.zeros(16, dtype=np.complex128))
    with pytest.raises(ValueError, match="rf_index"):
        rf_chain_precoder(plan, 2, np.array([1.5]))


def test_analog_precoder_validation():
    w = np.full(4, 0.25 + 0.0j)
    with pytest.raises(ValueError, match="length"):
        AnalogPrecoder(w, ((0, 0, 3),), 16)
    with pytest.raises(ValueError, match="contiguous"):
        AnalogPrecoder(w, ((0, 1, 4),), 16)
    with pytest.raises(ValueError, match="exceed"):
        AnalogPrecoder(np.full(5, 0.5 + 0.0j), ((0, 0, 5),), 4)
    with pytest.raises(ValueError, match="modulus"):
        AnalogPrecoder(np.full(4, 0.3 + 0.0j), ((0, 0, 4),), 16)


def test_analog_precoder_modulus_check_matches_allclose():
    m_bs = 16
    modulus = 1.0 / math.sqrt(m_bs)
    tol = 1e-9 * modulus
    # magnitudes a few ulps either side of both ends of the tolerance band
    edges = [edge + k * math.ulp(edge) for edge in (modulus - tol, modulus + tol)
             for k in range(-3, 4)]
    odd = [math.nan, math.inf, -math.inf, complex(math.inf, math.nan),
           complex(math.nan, 0.0), complex(0.0, math.inf), -modulus, 1j * modulus,
           modulus * (0.6 + 0.8j)]
    decisions = set()
    for value in edges + odd:
        w = np.array([modulus, value], dtype=np.complex128)
        accepted = np.allclose(np.abs(w), modulus, rtol=1e-9, atol=0.0)
        decisions.add(accepted)
        if accepted:
            AnalogPrecoder(w, ((0, 0, 2),), m_bs)
        else:
            with pytest.raises(ValueError, match="modulus"):
                AnalogPrecoder(w, ((0, 0, 2),), m_bs)
    assert decisions == {True, False}


def test_analog_precoder_embedded_zero_pads_idle_antennas():
    w = segment_precoder(3, 1.0, 8)
    pre = AnalogPrecoder(w, ((0, 0, 3),), 8)
    emb = pre.embedded()
    np.testing.assert_allclose(emb[:3], w, rtol=1e-12)
    np.testing.assert_array_equal(emb[3:], np.zeros(5))


def test_user_combiner_unit_norm():
    v = user_combiner(10, 1.3)
    assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_allclose(user_combiner(1, 0.4), [1.0], rtol=1e-12)
    # broadside: no phase ramp at all
    np.testing.assert_allclose(user_combiner(10, math.pi / 2),
                               np.full(10, 1.0 / math.sqrt(10)), atol=1e-12)
    with pytest.raises(ValueError):
        user_combiner(0, 1.0)


def test_default_angle_grid_spans_open_interval():
    grid = default_angle_grid(256)
    assert grid.shape == (256,)
    assert grid[0] > 0.0 and grid[-1] < math.pi
    np.testing.assert_allclose(np.diff(grid), math.pi / 257, rtol=1e-12)
    assert grid[0] == pytest.approx(math.pi - grid[-1], rel=1e-12)
    with pytest.raises(ValueError):
        default_angle_grid(0)


def test_beam_pattern_matches_direct_inner_products():
    plan = two_user_plan(m1=6, m2=6, m_bs=16)
    pre = rf_chain_precoder(plan, 0, np.array([0.9, 2.2]))
    grid = default_angle_grid(64)
    mags = beam_pattern(pre, grid)
    w = pre.embedded()
    manual = np.array([abs(array_response(UlaConfig(16), a).conj() @ w) for a in grid])
    np.testing.assert_allclose(mags, manual, rtol=1e-10, atol=1e-12)


def test_beam_pattern_of_several_precoders_stacks_their_patterns():
    grid = default_angle_grid(300)
    split = rf_chain_precoder(two_user_plan(m1=6, m2=9, m_bs=16), 0, np.array([0.9, 2.2]))
    full = rf_chain_precoder(GroupPlan(np.array([[1]]), np.array([[16]]), np.array([[1.0]]),
                                       1, 16, 1.0), 0, np.array([1.3]))
    both = beam_pattern([split, full], grid)
    assert both.shape == (2, 300)
    for got, pre in zip(both, (split, full)):
        np.testing.assert_array_equal(got.view(np.uint64), beam_pattern(pre, grid).view(np.uint64))
    other = rf_chain_precoder(two_user_plan(m1=4, m2=4, m_bs=8), 0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="share one array"):
        beam_pattern([split, other], grid)


def test_beam_pattern_full_array_peaks_at_steering_angle():
    steer = 2.0943951023931953  # 120 degrees
    plan = GroupPlan(np.array([[1]]), np.array([[128]]), np.array([[1.0]]),
                     1, 128, 1.0)
    pre = rf_chain_precoder(plan, 0, np.array([steer]))
    peak = beam_pattern(pre, np.array([steer]))[0]
    assert peak == pytest.approx(math.sqrt(128), rel=1e-12)
    elsewhere = beam_pattern(pre, np.array([steer - 0.2, steer + 0.2, 1.0]))
    assert (elsewhere < peak).all()


def test_beam_pattern_segment_peak_grows_with_segment():
    steer = 1.1
    peaks = []
    for m_seg in (8, 16, 32):
        w = segment_precoder(m_seg, steer, 64)
        pre = AnalogPrecoder(w, ((0, 0, m_seg),), 64)
        peak = beam_pattern(pre, np.array([steer]))[0]
        assert peak == pytest.approx(m_seg / math.sqrt(64), rel=1e-12)
        peaks.append(peak)
    assert peaks[0] < peaks[1] < peaks[2]


def test_beam_pattern_domain_and_empty_grid():
    plan = two_user_plan(m1=4, m2=4, m_bs=8)
    pre = rf_chain_precoder(plan, 0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="angles"):
        beam_pattern(pre, np.array([0.0]))
    assert beam_pattern(pre, np.array([])).shape == (0,)
