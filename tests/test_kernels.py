"""Numeric kernels match the reference matrix algebra."""

import math

import numpy as np
import pytest

from multibeam_noma import _kernels, experiments
from multibeam_noma.beams import segment_precoder, user_combiner
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    draw_paths,
    generate_user_channel,
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
    gains, aods, aoas = draw_paths(np.random.default_rng(21).random(3 + 4 * 8), 90.0, scenario)
    ch = generate_user_channel(np.random.default_rng(21), 90.0, scenario)
    row = _kernels.vhh_row(gains, aods, aoas, 5, 40)
    v = user_combiner(5, ch.aoas[0])
    manual = v.conj() @ ch.matrix
    np.testing.assert_allclose(row, manual, rtol=1e-10, atol=1e-12)


def test_segment_gains_matches_row_inner_product():
    gains, aods, aoas = random_inputs(2)
    m_bs = 48
    row = _kernels.vhh_row(gains, aods, aoas, 6, m_bs)
    steers = np.array([0.7, 1.9])
    offsets = np.array([0, 20], dtype=np.int64)
    lengths = np.array([20, 17], dtype=np.int64)
    (total,) = _kernels.segment_gains(row[None, :], np.cos(steers), offsets, lengths, m_bs)
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
    (swept,) = _kernels.two_segment_sweep(row[None, :], cos_a, cos_b, m1_values, m_bs)
    for i, m1 in enumerate(m1_values):
        (single,) = _kernels.segment_gains(
            row[None, :], np.array([cos_a, cos_b]), np.array([0, m1], dtype=np.int64),
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


# Bit-for-bit checks against the per-row formulas the kernels replaced.
# Every sweep CSV depends on these bits, so equality is exact: the float64
# views must match, and so must the sign bits (== treats -0.0 as +0.0).

SIZES = (1, 2, 7, 10, 127, 128)


def assert_same_bits(actual, expected):
    a = np.ascontiguousarray(actual).view(np.float64)
    b = np.ascontiguousarray(expected).view(np.float64)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def oracle_vhh_row(gains, aods, aoas, m_ue, m_bs):
    ramp_ue = (m_ue - 1) / 2.0 - np.arange(m_ue)
    a_ue = np.exp(1j * math.pi * np.cos(aoas)[:, None] * ramp_ue[None, :])
    v = a_ue[0] / math.sqrt(m_ue)
    rx = a_ue @ v.conj()
    ramp_bs = (m_bs - 1) / 2.0 - np.arange(m_bs)
    tx_conj = np.exp(-1j * math.pi * np.cos(aods)[:, None] * ramp_bs[None, :])
    return (gains * rx) @ tx_conj


def oracle_segment_gains(row, cos_steers, offsets, lengths, m_bs):
    inv = 1.0 / math.sqrt(m_bs)
    total = 0.0 + 0.0j
    for cos_s, off, length in zip(cos_steers, offsets, lengths):
        ramp = (length - 1) / 2.0 - np.arange(length)
        w = inv * np.exp(1j * math.pi * ramp * cos_s)
        total += row[off:off + length] @ w
    return total


def oracle_two_segment_sweep(row, cos_a, cos_b, m1_values, m_bs):
    inv = 1.0 / math.sqrt(m_bs)
    m = np.arange(m_bs)
    pre_a = np.concatenate(([0.0 + 0.0j], np.cumsum(row * np.exp(-1j * math.pi * cos_a * m))))
    pre_b = np.concatenate(([0.0 + 0.0j], np.cumsum(row * np.exp(-1j * math.pi * cos_b * m))))
    m1 = np.asarray(m1_values, dtype=np.int64)
    m2 = m_bs - m1
    seg_a = inv * np.exp(1j * math.pi * 0.5 * (m1 - 1) * cos_a) * pre_a[m1]
    seg_b = (inv * np.exp(1j * math.pi * 0.5 * (m2 - 1) * cos_b)
             * np.exp(1j * math.pi * cos_b * m1) * (pre_b[m_bs] - pre_b[m1]))
    return seg_a + seg_b


def oracle_pattern_mags(w_embedded, cos_angles):
    m_bs = w_embedded.shape[0]
    ramp = (m_bs - 1) / 2.0 - np.arange(m_bs)
    steer_conj = np.exp(-1j * math.pi * np.asarray(cos_angles)[:, None] * ramp[None, :])
    return np.abs(steer_conj @ w_embedded)


def random_rows(rng, k, m_bs):
    rows = []
    for _ in range(k):
        gains, aods, aoas = random_inputs(int(rng.integers(1 << 30)), num_paths=7)
        rows.append(oracle_vhh_row(gains, aods, aoas, 4, m_bs))
    return np.stack(rows)


def test_steering_mirror_identity_holds_bit_for_bit():
    # The kernels exponentiate the left half of each steering row and
    # conjugate it into the right half; this is the identity they rely on.
    # cos = ±0 is the one exception (every phase is +0 there, and the
    # conjugate flips the zero's sign); no float angle has a zero cosine.
    rng = np.random.default_rng(11)
    cosines = np.concatenate((rng.uniform(-1.0, 1.0, size=10_000),
                              [1.0, -1.0, 0.5, -0.5, math.cos(math.pi / 2), math.cos(1e-12),
                               1e-300, -1e-300, 5e-324, -5e-324]))
    for m in (127, 128):
        ramp = (m - 1) / 2.0 - np.arange(m)
        full = np.exp(-1j * math.pi * cosines[:, None] * ramp[None, :])
        assert_same_bits(full[:, m - 1 - np.arange(m // 2)], full[:, :m // 2].conj())


def test_vhh_row_matches_per_path_formula_bit_for_bit():
    for seed, m_bs in enumerate(SIZES):
        for num_paths in (1, 4, 31):
            gains, aods, aoas = random_inputs(100 + seed, num_paths)
            for m_ue in (1, 4, 10):
                assert_same_bits(_kernels.vhh_row(gains, aods, aoas, m_ue, m_bs),
                                 oracle_vhh_row(gains, aods, aoas, m_ue, m_bs))


@pytest.mark.parametrize("lead", ((), (5,), (3, 2)))
def test_vhh_row_over_leading_axes_matches_per_row_calls_bit_for_bit(lead):
    # Every row of a stacked call runs the matmul routine of its own 1-D
    # call, so it keeps that call's bits, and the per-path formula's,
    # whatever the stack holds.
    rng = np.random.default_rng(18 + len(lead))
    cases = [(lead, num_paths, m_ue, m_bs) for num_paths in (1, 2, 4, 31)
             for m_ue in (1, 4, 10) for m_bs in (1, 2, 7, 32, 128, 256, 512)]
    # a block whose (..., P, M_BS) temporaries pass 256 KiB, where numpy may
    # reuse a temporary operand as a product's output
    cases.append(((64, 2), 4, 4, 512))
    for shape, num_paths, m_ue, m_bs in cases:
        size = shape + (num_paths,)
        gains = rng.normal(size=size) + 1j * rng.normal(size=size)
        aods = rng.uniform(0.05, math.pi - 0.05, size=size)
        aoas = rng.uniform(0.05, math.pi - 0.05, size=size)
        got = _kernels.vhh_row(gains, aods, aoas, m_ue, m_bs)
        assert got.shape == shape + (m_bs,)
        per_row = list(zip(gains.reshape(-1, num_paths), aods.reshape(-1, num_paths),
                           aoas.reshape(-1, num_paths)))
        for row_of in (_kernels.vhh_row, oracle_vhh_row):
            want = np.array([row_of(g, d, a, m_ue, m_bs) for g, d, a in per_row])
            assert_same_bits(got, want.reshape(shape + (m_bs,)))


def test_pattern_mags_matches_full_exp_matrix_bit_for_bit():
    rng = np.random.default_rng(12)
    # ±0 included: the mirror flips a zero's sign there, which |.| hides
    cos_angles = np.concatenate((np.cos(np.linspace(0.0, math.pi, 515)[1:-1]),
                                 [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0]))
    for m_bs in SIZES:
        w = np.exp(1j * rng.uniform(0, 2 * math.pi, size=m_bs)) / math.sqrt(m_bs)
        w[rng.random(m_bs) < 0.3] = 0.0
        assert_same_bits(_kernels.pattern_mags(w, cos_angles),
                         oracle_pattern_mags(w, cos_angles))


def test_segment_gains_over_rows_matches_per_row_formula_bit_for_bit():
    rng = np.random.default_rng(13)
    for m_bs in SIZES:
        n_seg = min(3, m_bs)
        cuts = np.sort(rng.choice(np.arange(1, m_bs), size=n_seg - 1, replace=False))
        full = np.diff(np.concatenate(([0], cuts, [m_bs]))).astype(np.int64)
        # segments covering the whole array, and ones leaving its tail unused
        for lengths in (full, full[:1]):
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1])).astype(np.int64)
            cos_steers = np.cos(rng.uniform(0.05, math.pi - 0.05, size=len(lengths)))
            for k in (1, 3, 5):
                rows = random_rows(rng, k, m_bs)
                got = _kernels.segment_gains(rows, cos_steers, offsets, lengths, m_bs)
                want = np.array([oracle_segment_gains(r, cos_steers, offsets, lengths, m_bs)
                                 for r in rows])
                assert_same_bits(got, want)


def test_two_segment_sweep_over_rows_matches_per_row_formula_bit_for_bit():
    rng = np.random.default_rng(14)
    for m_bs in SIZES[1:]:   # a split needs at least two elements
        rows = random_rows(rng, 2, m_bs)
        cos_a, cos_b = np.cos(rng.uniform(0.05, math.pi - 0.05, size=2))
        m1_values = np.arange(1, m_bs, dtype=np.int64)
        got = _kernels.two_segment_sweep(rows, cos_a, cos_b, m1_values, m_bs)
        want = np.stack([oracle_two_segment_sweep(r, cos_a, cos_b, m1_values, m_bs)
                         for r in rows])
        assert_same_bits(got, want)


@pytest.mark.parametrize("m_bs", (32, 64, 128, 256))
def test_two_segment_sweep_over_trials_matches_per_trial_calls_bit_for_bit(m_bs):
    # The block call's (T, 1, M_BS) phases broadcast against the (T, K, M_BS)
    # rows, so each trial's products are those of its own (K, M_BS) call.
    # With one row per trial and 256 elements the block's products are
    # large enough for numpy to reuse a temporary operand as their output.
    rng = np.random.default_rng(15 + m_bs)
    all_splits = np.arange(1, m_bs, dtype=np.int64)
    for t in (1, 7, 64):
        for k in (1, 2, 3):
            rows = np.stack([random_rows(rng, k, m_bs) for _ in range(t)])
            cos_aods = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, 2)))
            for m1_values in (all_splits, all_splits[2::5]):
                got = _kernels.two_segment_sweep(rows, cos_aods[:, 0], cos_aods[:, 1],
                                                 m1_values, m_bs)
                want = np.stack([_kernels.two_segment_sweep(r, c[0], c[1], m1_values, m_bs)
                                 for r, c in zip(rows, cos_aods)])
                assert got.shape == (t, k, len(m1_values))
                assert_same_bits(got, want)


def per_row_full_array_gains(rows, cos_aods, m_bs):
    """One one-segment ``segment_gains`` call per row, squared magnitude by
    scalar ``abs`` and ``** 2``."""
    offsets = np.zeros(1, dtype=np.int64)
    lengths = np.full(1, m_bs, dtype=np.int64)
    gains = np.empty(len(rows))
    for k in range(len(rows)):
        (h,) = _kernels.segment_gains(rows[k:k + 1], cos_aods[k:k + 1], offsets, lengths, m_bs)
        gains[k] = abs(h) ** 2
    return gains


def test_full_array_gains_match_per_row_segment_gains_bit_for_bit():
    rng = np.random.default_rng(16)
    for m_bs in SIZES + (256,):
        for t, k in ((1, 1), (7, 2), (64, 2), (3, 5)):
            rows = np.stack([random_rows(rng, k, m_bs) for _ in range(t)])
            cos_aods = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, k)))
            got = experiments._full_array_gains(rows, cos_aods, m_bs)
            want = np.stack([per_row_full_array_gains(r, c, m_bs)
                             for r, c in zip(rows, cos_aods)])
            assert got.shape == (t, k)
            assert_same_bits(got, want)
            # one trial's (K, M_BS) rows, as the power sweep passes them
            assert_same_bits(experiments._full_array_gains(rows[0], cos_aods[0], m_bs), want[0])
