"""Numeric kernels match the reference matrix algebra."""

import math

import numpy as np
import pytest

from multibeam_noma import _kernels, experiments
from multibeam_noma.beams import GroupPlan, rf_chain_precoder, segment_precoder, user_combiner
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    draw_paths,
    generate_user_channel,
)
from multibeam_noma.effective import effective_direct


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


def oracle_table_steering(cos, m, sign):
    """The two-level steering table of 1-D ``cos`` written out: the phases
    (π/2) x of the coarse doubled ramps m - 1 - 2 B q and the fine ones -2 r,
    with x = sign · c · k reduced modulo 4 from a Veltkamp split of c, their
    exps, the outer product cut to the half width, then the mirrored
    conjugate."""
    half = (m + 1) // 2
    b = math.isqrt(half)
    q = -(-half // b)
    c = sign * cos
    t = c * 134217729.0
    head = t - (t - c)

    def table(ramps):
        x = head[:, None] * ramps
        x = x - 4.0 * np.rint(0.25 * x)
        return np.exp((0.5j * math.pi) * (x + (c - head)[:, None] * ramps))

    coarse = table((m - 1) - 2.0 * b * np.arange(q))
    fine = table(-2.0 * np.arange(b))
    left = (coarse[:, :, None] * fine[:, None, :]).reshape(len(cos), q * b)[:, :half]
    return np.concatenate((left, left[:, :m // 2][:, ::-1].conj()), axis=1)


def oracle_vhh_row(gains, aods, aoas, m_ue, m_bs):
    """v^H H path by path: the Dirichlet receive gain of each path times its
    conjugate transmit row from the two-level table."""
    cos_aoas = np.cos(aoas)
    rx = _kernels.dirichlet(m_ue, 0.5 * math.pi * (cos_aoas[0] - cos_aoas)) / math.sqrt(m_ue)
    return (gains * rx) @ oracle_table_steering(np.cos(aods), m_bs, -1)


def legacy_vhh_row(gains, aods, aoas, m_ue, m_bs):
    """v^H H with one exp per receive and transmit element: the receive
    gains a_UE @ v^*, then the full conjugate transmit rows."""
    ramp_ue = (m_ue - 1) / 2.0 - np.arange(m_ue)
    a_ue = np.exp(1j * math.pi * np.cos(aoas)[:, None] * ramp_ue[None, :])
    v = a_ue[0] / math.sqrt(m_ue)
    rx = a_ue @ v.conj()
    ramp_bs = (m_bs - 1) / 2.0 - np.arange(m_bs)
    tx_conj = np.exp(-1j * math.pi * np.cos(aods)[:, None] * ramp_bs[None, :])
    return (gains * rx) @ tx_conj


def assert_near_legacy_row(row, gains, aods, aoas, m_ue, m_bs):
    """The one-exp formula agrees to 8 ulps of Σ_l |g_l| (M_UE + |rx_l| π M_BS / 2):
    its transmit rows round each phase to an ulp of the phase, up to
    π (M_BS - 1) / 2, and its receive gains sum M_UE terms (3.8 of those
    ulps seen, at one element)."""
    rx = _kernels.receive_kernel(aoas, m_ue) / math.sqrt(m_ue)
    scale = (np.abs(gains) * (m_ue + np.abs(rx) * (math.pi * m_bs / 2))).sum(axis=-1)
    gap = np.abs(row - legacy_vhh_row(gains, aods, aoas, m_ue, m_bs))
    assert (gap <= 8 * np.finfo(np.float64).eps * scale).all()


def oracle_segment_gains(row, cos_steers, offsets, lengths, m_bs):
    inv = 1.0 / math.sqrt(m_bs)
    total = 0.0 + 0.0j
    for cos_s, off, length in zip(cos_steers, offsets, lengths):
        ramp = (length - 1) / 2.0 - np.arange(length)
        w = inv * np.exp(1j * math.pi * ramp * cos_s)
        total += row[off:off + length] @ w
    return total


def oracle_segment_weights(cos_steers, lengths, m_bs):
    """Every segment's weights, one exp per segment, end to end."""
    inv = 1.0 / math.sqrt(m_bs)
    return np.concatenate([inv * np.exp(1j * math.pi * ((n - 1) / 2.0 - np.arange(n)) * c)
                           for c, n in zip(cos_steers, lengths)])


def oracle_full_array_gains(rows, cos_aods, m_bs):
    """|v^H H w|^2 of each row of ``rows`` (..., M_BS) under a full-array beam
    steered at its own ``cos_aods`` (...): mirrored ``steering`` weights and
    one stacked (1, M_BS) @ (M_BS, 1) matmul."""
    w = (1.0 / math.sqrt(m_bs)) * _kernels.steering(cos_aods, m_bs)
    mags = experiments._scalar_abs((rows[..., None, :] @ w[..., :, None])[..., 0, 0])
    return mags * mags


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
        rows.append(legacy_vhh_row(gains, aods, aoas, 4, m_bs))
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


@pytest.mark.parametrize("lead", ((), (5,), (3, 4)))
def test_mirrored_exp_matches_the_unmirrored_phases_bit_for_bit(lead):
    # Both mirrored forms keep their own phase order: the conjugate steering
    # rows ((-1j*π)*cos)*ramp and the steering vectors 1j*((ramp*π)*cos).
    rng = np.random.default_rng(19 + len(lead))
    for m in (1, 2, 3, 10, 127, 128, 256):
        cos = np.cos(rng.uniform(0.01, math.pi - 0.01, size=lead))
        ramp = (m - 1) / 2.0 - np.arange(m)
        assert_same_bits(_kernels._steering_conj(cos, m),
                         np.exp(-1j * math.pi * cos[..., None] * ramp))
        assert_same_bits(_kernels.steering(cos, m),
                         np.exp(1j * ((ramp * math.pi) * cos[..., None])))


TABLE_SIZES = (1, 2, 3, 7, 33, 64, 127, 128, 256, 512)


def table_cosines(seed, n=2000):
    """Cosines ±1, ±0 and ±5e-324, then n random ones in (-1, 1)."""
    edges = [1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324]
    return np.concatenate((edges, np.random.default_rng(seed).uniform(-1.0, 1.0, size=n)))


def steering_errors(tables, cos, m, sign):
    """Largest error of a real or imaginary part of each of ``tables``
    against e^{sign iπ c ((m-1)/2 - j)} evaluated in long double."""
    pi = 4 * np.arctan(np.longdouble(1))
    ramp = (m - 1) / 2.0 - np.arange(m)
    phase = (sign * pi) * cos.astype(np.longdouble)[:, None] * ramp.astype(np.longdouble)
    re, im = np.cos(phase), np.sin(phase)
    return [float(max(np.abs(t.real - re).max(), np.abs(t.imag - im).max())) for t in tables]


def test_table_steering_matches_its_formula_and_mirror_bit_for_bit():
    cos = table_cosines(23)
    for m in TABLE_SIZES:
        for conj, sign in ((False, 1.0), (True, -1.0)):
            got = _kernels._table_steering(cos, m, conj)
            assert got.shape == (len(cos), m)
            assert_same_bits(got, oracle_table_steering(cos, m, sign))
            # the right half is the mirrored conjugate of the left half
            j = np.arange(m // 2)
            assert_same_bits(got[:, m - 1 - j], got[:, j].conj())


@pytest.mark.parametrize("lead", ((), (5,), (3, 4), (64, 2, 31)))
def test_table_steering_over_leading_axes_matches_per_angle_calls_bit_for_bit(lead):
    rng = np.random.default_rng(24 + len(lead))
    sizes = (33, 128) if len(lead) == 3 else TABLE_SIZES
    for m in sizes:
        cos = rng.uniform(-1.0, 1.0, size=lead)
        if cos.size >= 6:
            cos.flat[:6] = table_cosines(0, n=0)
        for conj in (False, True):
            got = _kernels._table_steering(cos, m, conj)
            assert got.shape == lead + (m,)
            want = np.array([_kernels._table_steering(c, m, conj) for c in cos.ravel()])
            assert_same_bits(got, want.reshape(lead + (m,)))


@pytest.mark.parametrize("lead", ((), (23,), (64, 2, 1), (5, 2, 31)))
def test_table_columns_are_the_grid_columns_bit_for_bit(lead):
    # one angle, many, and (trial, user, path) arrays of one and of 31 paths
    rng = np.random.default_rng(27 + len(lead))
    for m in (2, 3, 4, 33, 128, 256):
        cos = rng.uniform(-1.0, 1.0, size=lead)
        if cos.size >= 6:
            cos.flat[:6] = table_cosines(0, n=0)
        # both ends, the centre column of an odd m (both middle columns of an
        # even one), duplicates and random columns, unsorted
        columns = np.concatenate(([m - 1, 0, (m - 1) // 2, m // 2, 0, m - 1],
                                  rng.integers(0, m, size=11)))
        got = _kernels._table_columns(cos, m, columns)
        assert got.shape == lead + (len(columns),)
        assert_same_bits(got, _kernels._table_steering(cos, m)[..., columns])


def test_half_angle_phases_match_one_exp_and_the_table_columns():
    # e = e^{iπ c m1/2} from the half-angle table against one exp of the
    # phase, which rounds π c m1/2 to an ulp of its own size: within 4 ulps
    # of the phase plus 4 of 1 (2.2 seen, at 256 elements).  Bit for bit the
    # product of the half cosine's split column and column 0.
    eps = np.finfo(np.float64).eps
    cos = table_cosines(28, n=500)
    for m in (2, 3, 4, 33, 128, 256):
        m1 = np.arange(1, m)
        for lead in ((len(cos),), (len(cos) // 2, 2)):
            c = cos.reshape(lead)
            e = _kernels._half_angle_phases(c, m, m1)
            assert e.shape == lead + (m - 1,)
            phase = (0.5 * math.pi) * (c[..., None] * m1)
            assert (np.abs(e - np.exp(1j * phase)) <= 4 * eps * (1.0 + np.abs(phase))).all(), m
            half = _kernels._table_columns(0.5 * c, m, np.append(m - 1 - m1, 0))
            assert_same_bits(e, half[..., :-1] * half[..., -1:])


def test_two_segment_closed_form_takes_two_users():
    rng = np.random.default_rng(29)
    for num_users in (1, 3):
        gains, aods, aoas = (x.reshape(num_users, 3) for x in random_inputs(rng.integers(99),
                                                                             3 * num_users))
        with pytest.raises(ValueError, match=f"takes 2 users, got {num_users}"):
            _kernels.two_segment_closed_form(gains, aods, aoas, np.array([1, 5]), 4, 8)
        with pytest.raises(ValueError, match="takes 2 users"):
            _kernels.two_segment_closed_form(gains[None], aods[None], aoas[None],
                                             np.array([1, 5]), 4, 8)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="long double is no wider than float64 here")
def test_table_steering_is_no_less_accurate_than_one_exp_per_element():
    # One exp per element rounds π c ((m-1)/2 - j) to an ulp of the phase
    # (3.3e-14 at 128 elements); the table reduces its phases modulo 2π
    # exactly first, which leaves a few ulps of 1 (3.2 seen, 7.1e-16).
    cos = table_cosines(25)
    for m in TABLE_SIZES:
        for conj, sign in ((False, 1.0), (True, -1.0)):
            one_exp = np.exp(1j * (((sign * math.pi) * cos)[:, None]
                                   * ((m - 1) / 2.0 - np.arange(m))))
            table = _kernels._table_steering(cos, m, conj)
            table_error, one_exp_error = steering_errors((table, one_exp), cos, m, sign)
            assert table_error <= one_exp_error
            assert table_error <= 6 * np.finfo(np.float64).eps


def test_vhh_row_matches_per_path_formula_bit_for_bit():
    for seed, m_bs in enumerate(SIZES):
        for num_paths in (1, 4, 31):
            gains, aods, aoas = random_inputs(100 + seed, num_paths)
            for m_ue in (1, 4, 10):
                row = _kernels.vhh_row(gains, aods, aoas, m_ue, m_bs)
                assert_same_bits(row, oracle_vhh_row(gains, aods, aoas, m_ue, m_bs))
                assert_near_legacy_row(row, gains, aods, aoas, m_ue, m_bs)


@pytest.mark.parametrize("lead", ((), (5,), (3, 2)))
def test_vhh_row_over_leading_axes_matches_per_row_calls_bit_for_bit(lead):
    # Every row of a stacked call runs the matmul routine of its own 1-D
    # call, so it keeps that call's bits, and the per-path formula's,
    # whatever the stack holds.
    rng = np.random.default_rng(18 + len(lead))
    cases = [(lead, num_paths, m_ue, m_bs) for num_paths in (1, 2, 4, 31)
             for m_ue in (1, 4, 10) for m_bs in (1, 2, 7, 32, 33, 128, 256, 512)]
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
        for (g, d, a), row in zip(per_row, got.reshape(-1, m_bs)):
            assert_near_legacy_row(row, g, d, a, m_ue, m_bs)


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
        # n weight columns share one steering matrix; each keeps its own bits
        w2 = np.exp(1j * rng.uniform(0, 2 * math.pi, size=m_bs)) / math.sqrt(m_bs)
        both = _kernels.pattern_mags(np.stack((w, w2, w), axis=-1), cos_angles)
        for j, col in enumerate((w, w2, w)):
            assert_same_bits(both[:, j], oracle_pattern_mags(col, cos_angles))


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
            w = oracle_segment_weights(cos_steers, lengths, m_bs)
            for k in (1, 3, 5):
                rows = random_rows(rng, k, m_bs)
                got = _kernels.segment_gains(rows, cos_steers, offsets, lengths, m_bs)
                # each row's own dot with the weights of the antennas in use
                assert_same_bits(got, np.array([r[:len(w)] @ w for r in rows]))
                # and the sum of the per-segment inner products, up to rounding
                per_segment = [oracle_segment_gains(r, cos_steers, offsets, lengths, m_bs)
                               for r in rows]
                np.testing.assert_allclose(got, per_segment, rtol=1e-13, atol=0.0)
    # A run of T trials' rows (T, K, M_BS), as the power sweep stacks them:
    # (64, 9, 128) complex passes the 256 KiB operand-reuse size (module
    # notes).  Each (t, k) has the bits of its own trial's (K, M_BS) call,
    # with one split beam per trial (T, 1, S) and one full-array beam per row
    # (T, K, 1), contiguous or as a view of wider rows.
    t = 64
    for m_bs in (16, 33, 128):
        for k in (1, 5, 9):
            cuts = np.sort(rng.choice(np.arange(1, m_bs - 1), size=k - 1, replace=False))
            lengths = np.diff(np.concatenate(([0], cuts, [m_bs - 1]))).astype(np.int64)
            offsets = np.cumsum(lengths) - lengths
            wide = rng.standard_normal((t, k, m_bs + 2, 2)) @ np.array([1.0, 1j])
            split = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, 1, k)))
            full = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, k, 1)))
            for rows in (np.ascontiguousarray(wide[..., :m_bs]), wide[..., :m_bs]):
                got = _kernels.segment_gains(rows, split, offsets, lengths, m_bs)
                assert got.shape == (t, k)
                assert_same_bits(got, np.array([_kernels.segment_gains(
                    rows[i], split[i, 0], offsets, lengths, m_bs) for i in range(t)]))
                got = _kernels.segment_gains(rows, full, [0], [m_bs], m_bs)
                want = np.array([_kernels.segment_gains(rows[i], full[i], [0], [m_bs], m_bs)
                                 for i in range(t)])
                assert_same_bits(got, want)
                # and one user's rows of every trial at a time
                for j in range(k):
                    assert_same_bits(_kernels.segment_gains(rows[:, j], full[:, j], [0],
                                                            [m_bs], m_bs), want[:, j])


def test_rf_chain_precoder_weights_are_the_segment_gains_weights_bit_for_bit():
    # The plan path and the sweeps use one segment-weight formula: identity
    # rows recover the weights segment_gains applies, one per antenna in use.
    rng = np.random.default_rng(15)
    for m_bs in (1, 2, 7, 33, 128, 256):
        eye = np.eye(m_bs, dtype=np.complex128)
        for _ in range(50):
            k = int(rng.integers(1, min(m_bs, 6) + 1))
            lengths = rng.multinomial(int(rng.integers(k, m_bs + 1)) - k, np.full(k, 1.0 / k)) + 1
            plan = GroupPlan(np.ones((k, 1), dtype=np.int64), lengths[:, None],
                             np.zeros((k, 1)), k, m_bs, 1.0)
            los_aods = rng.uniform(1e-12, math.pi - 1e-12, size=k)
            weights = rf_chain_precoder(plan, 0, los_aods).weights
            offsets = np.cumsum(lengths) - lengths
            applied = _kernels.segment_gains(eye, np.cos(los_aods), offsets, lengths, m_bs)
            assert_same_bits(weights, applied[:lengths.sum()])
            assert (applied[lengths.sum():] == 0.0).all()


def test_segment_weights_are_the_per_segment_formula_bit_for_bit():
    rng = np.random.default_rng(17)
    for m_bs in (1, 2, 7, 33, 128, 256):
        for _ in range(20):
            k = int(rng.integers(1, min(m_bs, 6) + 1))
            lengths = rng.multinomial(int(rng.integers(k, m_bs + 1)) - k, np.full(k, 1.0 / k)) + 1
            cos_steers = np.cos(rng.uniform(1e-12, math.pi - 1e-12, size=(3, k)))
            got = _kernels.segment_weights(cos_steers, lengths, m_bs)
            assert got.shape == (3, lengths.sum())
            # one weight vector per row, each that of its own row's call
            for row, c in zip(got, cos_steers):
                assert_same_bits(row, oracle_segment_weights(c, lengths, m_bs))
                assert_same_bits(_kernels.segment_weights(c, lengths, m_bs), row)
            assert np.allclose(np.abs(got), 1.0 / math.sqrt(m_bs), rtol=1e-12, atol=0.0)
    # no segments, no weights
    for cos_steers, shape in (([], (0,)), (np.zeros((3, 0)), (3, 0))):
        empty = _kernels.segment_weights(cos_steers, [], 8)
        assert empty.shape == shape and empty.dtype == np.complex128


def test_segment_gains_with_per_row_steering_matches_per_row_calls_bit_for_bit():
    rng = np.random.default_rng(18)
    for m_bs in SIZES + (256,):
        n_seg = min(3, m_bs)
        cuts = np.sort(rng.choice(np.arange(1, m_bs), size=n_seg - 1, replace=False))
        full = np.diff(np.concatenate(([0], cuts, [m_bs]))).astype(np.int64)
        for lengths in (full, full[:1], np.array([m_bs])):
            offsets = np.cumsum(lengths) - lengths
            for t, k in ((1, 1), (7, 2), (3, 5)):
                rows = np.stack([random_rows(rng, k, m_bs) for _ in range(t)])
                cos_steers = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, k, len(lengths))))
                got = _kernels.segment_gains(rows, cos_steers, offsets, lengths, m_bs)
                want = np.array([[_kernels.segment_gains(rows[i, j:j + 1], cos_steers[i, j],
                                                         offsets, lengths, m_bs)[0]
                                  for j in range(k)] for i in range(t)])
                assert got.shape == (t, k)
                assert_same_bits(got, want)


def test_segment_gains_rejects_segments_that_do_not_run_from_antenna_0():
    rows = random_rows(np.random.default_rng(20), 2, 48)
    cos_steers = np.cos(np.array([0.7, 1.9]))
    lengths = np.array([20, 17], dtype=np.int64)
    for offsets in ([0, 21], [1, 21], [20, 0], [0], [0, 20, 37]):
        with pytest.raises(ValueError, match="running sum"):
            _kernels.segment_gains(rows, cos_steers, np.array(offsets), lengths, 48)
    _kernels.segment_gains(rows, cos_steers, np.array([0, 20]), lengths, 48)


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
    scalar ``abs`` and a product."""
    offsets = np.zeros(1, dtype=np.int64)
    lengths = np.full(1, m_bs, dtype=np.int64)
    gains = np.empty(len(rows))
    for k in range(len(rows)):
        (h,) = _kernels.segment_gains(rows[k:k + 1], cos_aods[k:k + 1], offsets, lengths, m_bs)
        gains[k] = abs(h) * abs(h)
    return gains


def test_full_array_gains_match_per_row_segment_gains_bit_for_bit():
    rng = np.random.default_rng(16)
    for m_bs in SIZES + (256,):
        for t, k in ((1, 1), (7, 2), (64, 2), (3, 5)):
            rows = np.stack([random_rows(rng, k, m_bs) for _ in range(t)])
            cos_aods = np.cos(rng.uniform(0.05, math.pi - 0.05, size=(t, k)))
            got = oracle_full_array_gains(rows, cos_aods, m_bs)
            want = np.stack([per_row_full_array_gains(r, c, m_bs)
                             for r, c in zip(rows, cos_aods)])
            assert got.shape == (t, k)
            assert_same_bits(got, want)
            # one trial's (K, M_BS) rows, as the power sweep passes them
            assert_same_bits(oracle_full_array_gains(rows[0], cos_aods[0], m_bs), want[0])
            # and its one-segment segment_gains call with per-row steering
            h = _kernels.segment_gains(rows[0], cos_aods[0][:, None], [0], [m_bs], m_bs)
            mags = experiments._scalar_abs(h)
            assert_same_bits(mags * mags, want[0])



def planted_paths(rng, num_nlos, los_sin_x=None, gain_ratio=None):
    """Two users' paths as (2, 1 + L) arrays, LOS first.  The first NLOS
    paths of each user sit on the closed form's special cases for a chain
    steered at the two LOS departures: exactly on the other user's LOS
    (x = 0), then |sin x| 1% below and 1% above ``DIRICHLET_EPS`` from its
    own and from the other user's LOS; the rest are random.  With
    ``los_sin_x``, user 1's LOS departure is first planted at |sin x| =
    ``los_sin_x`` from user 0's (exactly on it at 0); with ``gain_ratio``,
    user 1's gains are scaled so that user 0's LOS gain is that many times
    as strong."""
    shape = (2, 1 + num_nlos)
    gains = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gains[:, 1:] *= 0.1
    aods = rng.uniform(0.05, math.pi - 0.05, size=shape)
    aoas = rng.uniform(0.05, math.pi - 0.05, size=shape)
    if los_sin_x is not None:
        aods[1, 0] = math.acos(math.cos(aods[0, 0]) - 2.0 / math.pi * math.asin(los_sin_x))
        if los_sin_x == 0.0:
            aods[1, 0] = aods[0, 0]
    if gain_ratio is not None:
        gains[1] *= abs(gains[0, 0]) / (gain_ratio * abs(gains[1, 0]))
    for u in range(2):
        cases = [(1 - u, 0.0)] + [(v, f * _kernels.DIRICHLET_EPS)
                                  for f in (0.99, 1.01) for v in (u, 1 - u)]
        for l, (v, sin_x) in enumerate(cases[:num_nlos], start=1):
            aods[u, l] = math.acos(math.cos(aods[v, 0]) - 2.0 / math.pi * math.asin(sin_x))
            if sin_x == 0.0:
                aods[u, l] = aods[v, 0]
    return gains, aods, aoas


def closed_form_scale(gains, aods, aoas, m1_values, m_ue, m_bs):
    """Σ|terms| of the closed form: Σ_l |w_l| (|D(m1, x_a)| + |D(m2, x_b)|)
    per (user, split), and Σ_l |w_l| |D(M_BS, x_l)| per user."""
    c, cos_aoas = np.cos(aods), np.cos(aoas)
    w = np.abs(gains * _kernels.dirichlet(m_ue, 0.5 * math.pi * (cos_aoas[:, :1] - cos_aoas)))
    w /= math.sqrt(m_ue * m_bs)
    m1 = np.asarray(m1_values)[:, None, None]
    seg = (np.abs(_kernels.dirichlet(m1, 0.5 * math.pi * (c[0, 0] - c)))
           + np.abs(_kernels.dirichlet(m_bs - m1, 0.5 * math.pi * (c[1, 0] - c))))
    full = np.abs(_kernels.dirichlet(m_bs, 0.5 * math.pi * (c[:, :1] - c)))
    return (w * seg).sum(axis=-1).T, (w * full).sum(axis=-1)


# user 1's LOS departure: drawn, on user 0's (x = 0), and |sin x| 1% below
# and 1% above DIRICHLET_EPS from it
LOS_PLANTS = (None, 0.0, 0.99 * _kernels.DIRICHLET_EPS, 1.01 * _kernels.DIRICHLET_EPS)


@pytest.mark.parametrize("m_bs", (2, 3, 4, 33, 128, 256))
@pytest.mark.parametrize("num_nlos", (0, 1, 3, 30))
def test_two_segment_closed_form_matches_direct_product_and_row_path(m_bs, num_nlos):
    # Gains |h|^2 against |h|^2 of the direct product and of the row path,
    # with tolerances relative to the square of the closed form's Σ|terms|.
    # Split gains: 1e-12 (1.9e-13 seen, LOS only at 256 elements), or 1e-6
    # with an NLOS path within 1% of the DIRICHLET_EPS edge, where the
    # w / (2i sin x) terms of an unmatched path cancel and a matched path
    # takes its phase at the steering angle (1.2e-7 seen): the planted NLOS
    # paths from L = 2 on, and with L = 1 the path planted on the other
    # user's LOS when that LOS is itself planted 1% off the edge from the
    # user's own.  LOS departures planted on or 1% either side of the edge
    # take the Dirichlet kernel and hold 1e-12 (3.3e-14 seen).  Full-array
    # gains: 1e-14 (6.7e-15 seen).
    m_ue = 4
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=num_nlos, bs_config=UlaConfig(m_bs),
                              ue_config=UlaConfig(m_ue))
    full_plan = experiments.single_chain_plan(
        ScenarioConfig(num_users=1, bs_config=UlaConfig(m_bs)), (m_bs,))
    every_split = np.arange(1, m_bs)
    sparse = np.unique([1, m_bs // 3 + 1, m_bs - 1])
    rng = np.random.default_rng(31 + m_bs + num_nlos)
    for los_sin_x in LOS_PLANTS:
        for gain_ratio in (None, 5.0):
            gains, aods, aoas = planted_paths(rng, num_nlos, los_sin_x, gain_ratio)
            near_edge = num_nlos > 1 or (num_nlos == 1 and bool(los_sin_x))
            split_tol = 1e-6 if near_edge else 1e-12
            cos_los = np.cos(aods[:, 0])
            if los_sin_x:
                sin_x = abs(math.sin(0.5 * math.pi * (cos_los[1] - cos_los[0])))
                assert (sin_x < _kernels.DIRICHLET_EPS) == (los_sin_x < _kernels.DIRICHLET_EPS)
            # the planted paths 2 to 5 lie on their side of the edge
            planted = min(num_nlos, 5) - 1
            steer = cos_los[np.array([[0, 1, 0, 1], [1, 0, 1, 0]])][:, :max(planted, 0)]
            sin_x = np.abs(np.sin(0.5 * math.pi * (steer - np.cos(aods[:, 2:2 + planted]))))
            assert (sin_x[:, :2] < _kernels.DIRICHLET_EPS).all()
            assert (sin_x[:, 2:] > _kernels.DIRICHLET_EPS).all()
            channels = [UserChannel(gains[u], aods[u], aoas[u], UlaConfig(m_ue), UlaConfig(m_bs))
                        for u in range(2)]
            combiners = [user_combiner(m_ue, aoas[u, 0]) for u in range(2)]
            rows = _kernels.vhh_row(gains, aods, aoas, m_ue, m_bs)
            for m1_values in (every_split, sparse):
                split, full = _kernels.two_segment_closed_form(gains, aods, aoas, m1_values,
                                                               m_ue, m_bs)
                assert split.shape == (2, len(m1_values)) and full.shape == (2,)
                scale, scale_full = closed_form_scale(gains, aods, aoas, m1_values, m_ue, m_bs)
                wants = [_kernels.two_segment_sweep(rows, cos_los[0], cos_los[1], m1_values, m_bs)]
                wants_full = [np.array([_kernels.segment_gains(
                    rows[u:u + 1], cos_los[u:u + 1], np.zeros(1, dtype=np.int64),
                    np.full(1, m_bs), m_bs)[0] for u in range(2)])]
                if m1_values is sparse:
                    wants.append(np.array([[effective_direct(ch, v, rf_chain_precoder(
                        experiments.single_chain_plan(scenario, (m1, m_bs - m1)), 0, aods[:, 0]))
                        for m1 in m1_values.tolist()] for ch, v in zip(channels, combiners)]))
                    wants_full.append(np.array([effective_direct(ch, v, rf_chain_precoder(
                        full_plan, 0, aods[u, :1]))
                        for u, (ch, v) in enumerate(zip(channels, combiners))]))
                for want in wants:
                    assert (np.abs(split - np.abs(want) ** 2) <= split_tol * scale ** 2).all()
                for want in wants_full:
                    assert (np.abs(full - np.abs(want) ** 2) <= 1e-14 * scale_full ** 2).all()


@pytest.mark.parametrize("m_bs", (32, 256))
@pytest.mark.parametrize("num_paths", (1, 31, 200))
def test_two_segment_closed_form_over_trials_matches_per_trial_calls_bit_for_bit(m_bs, num_paths):
    # At 64 trials, 256 elements and every split, or at 200 paths, the
    # block's (T, K, splits) and (T, K, P) products are large enough for
    # numpy to reuse a temporary operand as their output.  One-path trials
    # also run in a 256-trial block: the antenna sweep gives LOS-only users
    # blocks of hundreds to thousands of trials.
    rng = np.random.default_rng(40 + m_bs + num_paths)
    all_splits = np.arange(1, m_bs, dtype=np.int64)
    for t in (1, 7, 64) + ((256,) if num_paths == 1 else ()):
        shape = (t, 2, num_paths)
        gains = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        aods = rng.uniform(0.05, math.pi - 0.05, size=shape)
        aoas = rng.uniform(0.05, math.pi - 0.05, size=shape)
        for m1_values in (all_splits, all_splits[2::5]):
            got = _kernels.two_segment_closed_form(gains, aods, aoas, m1_values, 4, m_bs)
            want = [_kernels.two_segment_closed_form(g, d, a, m1_values, 4, m_bs)
                    for g, d, a in zip(gains, aods, aoas)]
            assert got[0].shape == (t, 2, len(m1_values)) and got[1].shape == (t, 2)
            assert_same_bits(got[0], np.stack([split for split, _ in want]))
            assert_same_bits(got[1], np.stack([full for _, full in want]))


def closed_form_rounding_scale(gains, aods, aoas, m_ue, m_bs):
    """Σ_l (|k_a| + |k_b| + M_BS |w_l|) per (trial, user): a bound on the
    magnitude of every term the closed form sums or adds up for a split,
    the w_l / (2 sin x) terms of the unmatched NLOS paths and up to M_BS
    times the matched ones or the LOS path, with segment a steered at user
    0's LOS and b at user 1's."""
    c = np.cos(aods)
    w = np.abs(gains * _kernels.receive_kernel(aoas, m_ue)) / math.sqrt(m_ue * m_bs)
    scale = m_bs * w
    for cos in (c[..., :1, :1], c[..., 1:, :1]):
        sin_x = np.abs(np.sin(0.5 * math.pi * (cos - c[..., 1:])))
        matched = sin_x < _kernels.DIRICHLET_EPS
        scale[..., 1:] += np.where(matched, 0.0, 0.5 * w[..., 1:] / np.where(matched, 1.0, sin_x))
    return scale.sum(axis=-1)


@pytest.mark.parametrize("m_bs", (2, 3, 33, 128, 256))
@pytest.mark.parametrize("num_nlos", (0, 1, 3, 30))
def test_two_segment_closed_form_assemblies_agree(monkeypatch, m_bs, num_nlos):
    # Both assemblies give every grid element of the NLOS paths its bits;
    # only the N of the (2, L) @ (L, N) product differs, M_BS for the grid
    # and S for the split columns.  LOS paths take neither (they take the
    # Dirichlet kernel), and with one NLOS path the product is one complex
    # multiply per element: bit for bit.  An L-term dot may round otherwise
    # at another N: bound 1e-14 relative to the square of the closed form's
    # terms (2.7e-17 seen).
    rng = np.random.default_rng(50 + m_bs + num_nlos)
    planted = planted_paths(rng, num_nlos)
    shape = (7, 2, 1 + num_nlos)
    random = (rng.normal(size=shape) + 1j * rng.normal(size=shape),
              rng.uniform(0.05, math.pi - 0.05, size=shape),
              rng.uniform(0.05, math.pi - 0.05, size=shape))
    splits = np.arange(1, m_bs, dtype=np.int64)
    for gains, aods, aoas in (tuple(x[None] for x in planted), random):
        scale = closed_form_rounding_scale(gains, aods, aoas, 4, m_bs)
        for m1_values in (splits, np.concatenate((splits[::-3], splits[:1]))):
            got = {}
            for split_columns in (True, False):
                monkeypatch.setattr(_kernels, "_reads_split_columns",
                                    lambda *args, answer=split_columns: answer)
                got[split_columns] = _kernels.two_segment_closed_form(
                    gains, aods, aoas, m1_values, 4, m_bs)
            assert_same_bits(got[True][1], got[False][1])
            if num_nlos <= 1:
                assert_same_bits(got[True][0], got[False][0])
            else:
                assert (np.abs(got[True][0] - got[False][0])
                        <= 1e-14 * scale[..., None] ** 2).all()


@pytest.mark.parametrize("num_nlos", (0, 1, 3, 7, 15, 30))
def test_two_segment_closed_form_reads_split_columns_for_at_most_half_the_array(
        monkeypatch, num_nlos):
    # With NLOS paths, one half-angle call reads the two LOS cosines'
    # tables at the S split columns and column 0, (2, S + 1), for the
    # segment phases, and the NLOS paths' assembly follows the split count
    # and the array size alone, whatever their number: the (2, L, S) split
    # columns or the (2, L, M_BS) grid.  Without NLOS paths no table is read.
    built = []

    def recording(name):
        kernel = getattr(_kernels, name)

        def record(*args):
            out = kernel(*args)
            built.append((name, out.shape))
            return out
        return record

    for name in ("_table_columns", "_table_steering"):
        monkeypatch.setattr(_kernels, name, recording(name))
    rng = np.random.default_rng(60 + num_nlos)
    cases = ((128, range(30, 91, 2), True),          # README sweep.cfg: 31 splits
             (128, range(2, 127, 2), True),          # CLI default: 63 splits
             (128, range(1, 65), True), (128, range(1, 66), False),   # 2 S = M_BS
             (128, range(1, 128), False),            # every split
             (33, range(1, 17), True), (33, range(1, 18), False),
             (256, range(1, 129), True), (256, range(1, 130), False),
             (2, [1], True), (3, [1, 2], False))
    for m_bs, m1_values, split_columns in cases:
        gains, aods, aoas = random_inputs(rng.integers(2 ** 32), 2 * (1 + num_nlos))
        gains, aods, aoas = (x.reshape(2, 1 + num_nlos) for x in (gains, aods, aoas))
        built.clear()
        _kernels.two_segment_closed_form(gains, aods, aoas, np.array(m1_values), 4, m_bs)
        num_splits = len(m1_values)
        want = []
        if num_nlos:
            want.append(("_table_columns", (2, num_splits + 1)))
            want.append(("_table_columns", (2, num_nlos, num_splits)) if split_columns
                        else ("_table_steering", (2, num_nlos, m_bs)))
        assert built == want


@pytest.mark.parametrize("gain_ratio", (None, 5.0))
def test_two_segment_closed_form_builds_no_steering_table_without_nlos_paths(
        monkeypatch, gain_ratio):
    # LOS paths take the Dirichlet kernel in their own-segment frames, so a
    # LOS-only block, and a LOS-only sweep, builds no steering table at all
    def refuse(*args, **kwargs):
        raise AssertionError("a steering table was built")

    monkeypatch.setattr(_kernels, "_steering_tables", refuse)
    rng = np.random.default_rng(65)
    for m_bs in (2, 3, 33, 128, 256):
        for m1_values in (np.arange(1, m_bs), np.arange(1, m_bs)[::-5]):
            for lead in ((), (1,), (9,)):
                gains, aods, aoas = (x.reshape(lead + (2, 1))
                                     for x in random_inputs(rng.integers(99), 2 * math.prod(lead)))
                split, full = _kernels.two_segment_closed_form(gains, aods, aoas, m1_values,
                                                               4, m_bs)
                assert split.shape == lead + (2, len(m1_values)) and full.shape == lead + (2,)
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=5)
    experiments.run_antenna_sweep(experiments.SweepSpec("antennas", scenario, 70,
                                                        tuple(range(30, 91, 2)),
                                                        gain_ratio=gain_ratio))
    with pytest.raises(AssertionError, match="steering table"):
        _kernels.two_segment_closed_form(*(x.reshape(2, 2) for x in random_inputs(3, 4)),
                                         np.array([1, 5]), 4, 8)


def written_out_closed_form(gains, aods, aoas, m1_values, m_ue, m_bs):
    """The split gains |h(m1)|^2 of ``two_segment_closed_form``: its
    intermediates computed as it computes them, then the gains written out
    with no in-place step.  With no NLOS path

        |w_0|^2 ((cos φ D + m) ^2 + (sin φ D)^2),

    and otherwise |h|^2 = Re(h)^2 + Im(h)^2 of

        h = N r + (w_0 e^{iφ}) D + w_0 m,
        N = (lin_a + m1 lim_a) e_a - conj(e_a) Σ_a + conj(e_b) Σ_b
            + (m2 lim_b - lin_b) e_b,

    with r = conj(e_a) e^{iπ c_a M/2} for user 0 and conj(e_b) for user 1,
    m each user's own segment length and D the Dirichlet kernel of the
    other's; each product in the kernel's operand order, summed left to
    right."""
    m1 = np.asarray(m1_values, dtype=np.int64)
    c = np.cos(aods)
    w = gains * ((1.0 / math.sqrt(m_ue * m_bs)) * _kernels.receive_kernel(aoas, m_ue))
    own = np.stack((m1, m_bs - m1)).astype(np.float64)
    x = 0.5 * math.pi * (c[..., 1:, 0] - c[..., :1, 0])
    d = _kernels.dirichlet(own[::-1], x[..., None])
    turn = np.exp((0.5j * math.pi * m_bs) * (c[..., 0] * (1.0, -1.0)))
    w_los = w[..., :1]
    if c.shape[-1] == 1:
        re = turn.real[..., None] * d + own
        im = turn.imag[..., None] * d
        return (re * re + im * im) * (w_los.real * w_los.real + w_los.imag * w_los.imag)
    e = _kernels._half_angle_phases(c[..., 0], m_bs, m1)
    cos_a, cos_b = c[..., :1, :1], c[..., 1:, :1]
    c, w = c[..., 1:], w[..., 1:]
    sin_a = np.sin(0.5 * math.pi * (cos_a - c))
    sin_b = np.sin(0.5 * math.pi * (cos_b - c))
    match_a = np.abs(sin_a) < _kernels.DIRICHLET_EPS
    match_b = np.abs(sin_b) < _kernels.DIRICHLET_EPS
    k_a = np.where(match_a, 0.0, -0.5 / np.where(match_a, 1.0, sin_a)) * (1j * w)
    k_b = np.where(match_b, 0.0, -0.5 / np.where(match_b, 1.0, sin_b)) * (1j * w)
    p = np.exp((-0.5j * math.pi * m_bs) * c)
    q = np.conj(turn[..., 1:, None])
    fold = np.exp(-0.5j * math.pi * c)
    folded = np.stack((k_a * fold, k_b * q * fold), axis=-2)
    columns = m_bs - 1 - m1
    if _kernels._reads_split_columns(len(m1), m_bs):
        sums = folded @ _kernels._table_columns(c, m_bs, columns)
    else:
        sums = np.take(folded @ _kernels._table_steering(c, m_bs), columns, axis=-1)
    lin_a = (k_a * p).sum(axis=-1)[..., None]
    lin_b = (np.conj(p * q) * k_b).sum(axis=-1)[..., None]
    lim_a = np.where(match_a, w * p, 0.0).sum(axis=-1)[..., None]
    lim_b = np.where(match_b, w, 0.0).sum(axis=-1)[..., None]
    e_a, e_b = e[..., :1, :], e[..., 1:, :]
    n = ((lin_a + m1 * lim_a) * e_a - np.conj(e_a) * sums[..., 0, :]
         + np.conj(e_b) * sums[..., 1, :] + ((m_bs - m1) * lim_b - lin_b) * e_b)
    r = np.concatenate((np.conj(e_a) * turn[..., :1, None], np.conj(e_b)), axis=-2)
    h = n * r + (w_los * turn[..., None]) * d + w_los * own
    return h.real * h.real + h.imag * h.imag


@pytest.mark.parametrize("m_bs", (2, 3, 33, 128))
@pytest.mark.parametrize("num_nlos", (0, 1, 30))
def test_two_segment_closed_form_combines_its_terms_as_written(m_bs, num_nlos):
    # The kernel adds up the gains in place; each step must keep the
    # written-out formula's operands and order, or a last bit moves.
    rng = np.random.default_rng(70 + m_bs + num_nlos)
    planted = planted_paths(rng, num_nlos)
    shape = (7, 2, 1 + num_nlos)
    random = (rng.normal(size=shape) + 1j * rng.normal(size=shape),
              rng.uniform(0.05, math.pi - 0.05, size=shape),
              rng.uniform(0.05, math.pi - 0.05, size=shape))
    splits = np.arange(1, m_bs, dtype=np.int64)
    for gains, aods, aoas in (planted, random):
        for m1_values in (splits, np.concatenate((splits[::-3], splits[:1]))):
            split, _ = _kernels.two_segment_closed_form(gains, aods, aoas, m1_values, 4, m_bs)
            assert_same_bits(split, written_out_closed_form(gains, aods, aoas, m1_values,
                                                            4, m_bs))
