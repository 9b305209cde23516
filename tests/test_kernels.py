"""Numeric kernels match the reference matrix algebra."""

import math

import numpy as np
import pytest

from multibeam_noma import _kernels
from multibeam_noma.beams import segment_precoder, user_combiner
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    generate_user_channel,
    paths_as_arrays,
)


def random_inputs(seed, num_paths=9):
    rng = np.random.default_rng(seed)
    gains = rng.normal(size=num_paths) + 1j * rng.normal(size=num_paths)
    aods = rng.uniform(0.05, math.pi - 0.05, size=num_paths)
    aoas = rng.uniform(0.05, math.pi - 0.05, size=num_paths)
    return gains, aods, aoas


def test_vhh_row_matches_combined_matrix_product():
    scenario = ScenarioConfig(num_nlos_paths=8, bs_config=UlaConfig(40),
                              ue_config=UlaConfig(5))
    ch = generate_user_channel(np.random.default_rng(21), 90.0, scenario)
    gains, aods, aoas = paths_as_arrays(ch)
    row = _kernels.vhh_row(gains, aods, aoas, 5, 40)
    v = user_combiner(5, ch.los.aoa)
    manual = v.conj() @ ch.matrix
    np.testing.assert_allclose(row, manual, rtol=1e-10, atol=1e-12)


def test_segment_gains_matches_row_inner_product():
    gains, aods, aoas = random_inputs(2)
    m_bs = 48
    row = _kernels.vhh_row(gains, aods, aoas, 6, m_bs)
    steers = np.array([0.7, 1.9])
    offsets = np.array([0, 20], dtype=np.int64)
    lengths = np.array([20, 17], dtype=np.int64)
    total = _kernels.segment_gains(row, np.cos(steers), offsets, lengths, m_bs)
    w = np.concatenate([segment_precoder(20, 0.7, m_bs),
                        segment_precoder(17, 1.9, m_bs)])
    manual = row[:37] @ w
    assert total == pytest.approx(manual, rel=1e-10)


def test_two_segment_sweep_matches_per_split_segment_gains():
    gains, aods, aoas = random_inputs(4)
    m_bs = 48
    row = _kernels.vhh_row(gains, aods, aoas, 6, m_bs)
    cos_a, cos_b = math.cos(0.9), math.cos(2.1)
    m1_values = np.array([1, 13, 24, 47], dtype=np.int64)
    swept = _kernels.two_segment_sweep(row, cos_a, cos_b, m1_values, m_bs)
    for i, m1 in enumerate(m1_values):
        single = _kernels.segment_gains(
            row, np.array([cos_a, cos_b]), np.array([0, m1], dtype=np.int64),
            np.array([m1, m_bs - m1], dtype=np.int64), m_bs)
        assert swept[i] == pytest.approx(single, rel=1e-9)


def test_pattern_mags_matches_direct_product():
    rng = np.random.default_rng(6)
    m_bs = 32
    w = np.exp(1j * rng.uniform(0, 2 * math.pi, size=m_bs)) / math.sqrt(m_bs)
    angles = rng.uniform(0.05, math.pi - 0.05, size=40)
    mags = _kernels.pattern_mags(w, np.cos(angles))
    ramp = (m_bs - 1) / 2.0 - np.arange(m_bs)
    manual = np.array([abs(np.exp(-1j * math.pi * math.cos(a) * ramp) @ w)
                       for a in angles])
    np.testing.assert_allclose(mags, manual, rtol=1e-10, atol=1e-12)
