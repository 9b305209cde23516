"""Channel model: array responses, path generation, seeded substreams."""

import math

import numpy as np
import pytest

from multibeam_noma.channel import (
    CARRIER_HZ,
    MIN_USER_DISTANCE_M,
    NLOS_EXTRA_LOSS_DB,
    SPEED_OF_LIGHT,
    WAVELENGTH_M,
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    array_response,
    channel_matrix,
    dbm_to_watt,
    draw_paths,
    generate_user_channel,
    los_gain_magnitude,
    pcg64_states,
    spawn_state_words,
    user_rng,
    user_uniforms,
)


def los_only_channel(gain, aod, aoa, m_ue, m_bs):
    return UserChannel([gain], [aod], [aoa], UlaConfig(m_ue), UlaConfig(m_bs))


def test_dbm_to_watt_reference_points():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    assert dbm_to_watt(46.0) == pytest.approx(39.810717055349734, rel=1e-12)
    assert dbm_to_watt(-88.0) == pytest.approx(1.5848931924611134e-12, rel=1e-12)
    with pytest.raises(ValueError, match="too large"):
        dbm_to_watt(4000.0)


def test_wavelength_at_28ghz():
    assert WAVELENGTH_M == pytest.approx(0.0107068735, rel=1e-12)
    assert WAVELENGTH_M * CARRIER_HZ == pytest.approx(SPEED_OF_LIGHT, rel=1e-15)


def test_array_response_broadside_and_single_element():
    np.testing.assert_allclose(array_response(UlaConfig(2), math.pi / 2), [1.0, 1.0],
                               atol=1e-12)
    np.testing.assert_allclose(array_response(UlaConfig(1), 0.77), [1.0], atol=1e-12)


def test_array_response_four_elements_at_60_degrees():
    # phases ((3 - m)/2 - m) ... = (1.5 - m) * pi * 0.5 for m = 0..3
    s = 0.7071067811865476
    expected = np.array([-s + s * 1j, s + s * 1j, s - s * 1j, -s - s * 1j])
    np.testing.assert_allclose(array_response(UlaConfig(4), math.pi / 3), expected,
                               rtol=1e-9, atol=1e-12)


def test_array_response_unit_modulus_and_self_product():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = int(rng.integers(1, 65))
        angle = rng.uniform(1e-3, math.pi - 1e-3)
        a = array_response(UlaConfig(m), angle)
        np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
        assert (a.conj() @ a).real == pytest.approx(m, rel=1e-12)


def test_array_response_rejects_angles_outside_open_interval():
    cfg = UlaConfig(8)
    for bad in (0.0, math.pi, -0.3, math.pi + 0.1):
        with pytest.raises(ValueError, match="angle"):
            array_response(cfg, bad)


def test_array_response_cross_product_symmetry():
    rng = np.random.default_rng(3)
    cfg = UlaConfig(16)
    for _ in range(10):
        t1, t2 = rng.uniform(0.1, math.pi - 0.1, size=2)
        a1 = array_response(cfg, t1)
        a2 = array_response(cfg, t2)
        assert abs(a1.conj() @ a2) == pytest.approx(abs(a2.conj() @ a1), rel=1e-12)


def test_channel_matrix_single_antenna_is_path_gain():
    ch = los_only_channel(2.0 - 1.0j, 1.1, 2.0, 1, 1)
    np.testing.assert_allclose(ch.matrix, [[2.0 - 1.0j]], rtol=1e-12)


def test_channel_matrix_rank_one_frobenius_norm():
    gain = 0.4 + 0.9j
    ch = los_only_channel(gain, 0.8, 2.3, 6, 24)
    assert np.linalg.norm(ch.matrix) == pytest.approx(abs(gain) * math.sqrt(6 * 24),
                                                      rel=1e-12)


def test_channel_matrix_superposes_identical_paths():
    gain, aod, aoa = 0.3 + 0.1j, 1.4, 0.9
    single = los_only_channel(gain, aod, aoa, 4, 8)
    double = UserChannel([gain, gain], [aod, aod], [aoa, aoa], UlaConfig(4), UlaConfig(8))
    np.testing.assert_allclose(double.matrix, 2.0 * single.matrix, rtol=1e-12)


def test_scaled_channel_scales_matrix_and_los():
    ch = UserChannel([1.0 + 0.5j, 0.1 - 0.2j], [0.7, 1.2], [1.9, 0.4],
                     UlaConfig(3), UlaConfig(12))
    matrix = ch.matrix.copy()
    scaled = ch.scaled(0.25j)
    np.testing.assert_allclose(scaled.matrix, 0.25j * matrix, rtol=1e-12)
    assert scaled.gains.tolist() == [(1.0 + 0.5j) * 0.25j, (0.1 - 0.2j) * 0.25j]
    assert scaled.aods.tolist() == [0.7, 1.2] and scaled.aoas.tolist() == [1.9, 0.4]
    # the original keeps its gains and its matrix
    assert ch.gains.tolist() == [1.0 + 0.5j, 0.1 - 0.2j]
    np.testing.assert_array_equal(ch.matrix, matrix)


def test_scaled_gains_match_the_scalar_products_bit_for_bit():
    # drop_users pins a gain ratio through scaled(): the array product must
    # give each gain the bits of the scalar complex * float product
    rng = np.random.default_rng(17)
    gains = (rng.normal(size=200) + 1j * rng.normal(size=200)) * 1e-6
    ch = UserChannel(gains, np.full(200, 1.0), np.full(200, 2.0), UlaConfig(2), UlaConfig(4))
    for factor in rng.uniform(0.01, 3.0, size=20).tolist():
        expected = np.array([g * factor for g in gains.tolist()])
        assert_same_bits(ch.scaled(factor).gains, expected)


def test_los_gain_magnitude_free_space():
    assert los_gain_magnitude(100.0) == pytest.approx(8.520259212923112e-06, rel=1e-12)
    # amplitude falls off as 1/d
    assert los_gain_magnitude(200.0) == pytest.approx(los_gain_magnitude(100.0) / 2.0,
                                                      rel=1e-12)


def test_channel_validation():
    with pytest.raises(ValueError):
        UlaConfig(0)
    ue, bs = UlaConfig(2), UlaConfig(4)
    with pytest.raises(ValueError, match="at least the LOS path"):
        UserChannel([], [], [], ue, bs)
    for gains, aods, aoas in (([1.0, 0.1], [1.0], [1.0]), ([1.0], [1.0, 1.2], [1.0]),
                              ([1.0], [1.0], [1.0, 1.3])):
        with pytest.raises(ValueError, match="one entry per path"):
            UserChannel(gains, aods, aoas, ue, bs)
    for gains, aods, aoas in ((1.0, [1.0], [1.0]), ([[1.0]], [[1.0]], [[1.0]]),
                              ([1.0], 1.0, [1.0]), ([1.0], [1.0], [[1.0]])):
        with pytest.raises(ValueError, match="1-D"):
            UserChannel(gains, aods, aoas, ue, bs)
    with pytest.raises(ValueError, match="nonzero"):
        UserChannel([0.0, 1.0], [1.0, 1.2], [1.0, 1.3], ue, bs)


def test_user_channel_arrays_are_read_only_copies():
    gains = np.array([1.0 + 1.0j, 0.2j])
    aods = np.array([1.0, 1.2])
    aoas = np.array([0.5, 2.5])
    ch = UserChannel(gains, aods, aoas, UlaConfig(2), UlaConfig(4))
    assert ch.gains.dtype == np.complex128 and ch.aods.dtype == ch.aoas.dtype == np.float64
    for name in ("gains", "aods", "aoas"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ch, name)[0] = 3.0
    # the caller's arrays stay writable, and writing them leaves the channel as it was
    gains[0] = aods[0] = aoas[0] = 3.0
    assert ch.gains[0] == 1.0 + 1.0j and ch.aods[0] == 1.0 and ch.aoas[0] == 0.5
    with pytest.raises(AttributeError):
        ch.gains = gains


def test_user_channel_paths_round_trip_the_arrays():
    scenario = ScenarioConfig(num_nlos_paths=5)
    ch = generate_user_channel(np.random.default_rng(6), 75.0, scenario)
    assert len(ch.paths) == 1 + 5
    assert all(type(g) is complex and type(aod) is float and type(aoa) is float
               for g, aod, aoa in ch.paths)
    gains, aods, aoas = (np.array(column) for column in zip(*ch.paths))
    assert_same_bits(gains, ch.gains)
    assert_same_bits(aods, ch.aods)
    assert_same_bits(aoas, ch.aoas)
    assert ch.paths[0] == (ch.gains[0], ch.aods[0], ch.aoas[0])


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(num_users=0)
    with pytest.raises(ValueError):
        ScenarioConfig(num_nlos_paths=-1)
    with pytest.raises(ValueError):
        ScenarioConfig(cell_radius_m=MIN_USER_DISTANCE_M / 2)
    with pytest.raises(ValueError):
        ScenarioConfig(noise_w=0.0)
    for field in ("cell_radius_m", "max_power_w", "noise_w"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                ScenarioConfig(**{field: value})
    with pytest.raises(ValueError, match="square is not finite"):
        ScenarioConfig(cell_radius_m=1e300)
    # SeedSequence splits a seed into 32-bit words: a negative one never ends
    for seed in (-1, -(2 ** 64), 1.5, "1", None):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            ScenarioConfig(rng_seed=seed)
    ScenarioConfig(rng_seed=2 ** 70)
    ScenarioConfig(rng_seed=np.uint64(3))
    # subnormal noise powers: max_power_w / noise_w or 1 / noise_w overflows
    for max_power_w, noise_w in ((40.0, 1e-323), (1e-300, 1e-320)):
        with pytest.raises(ValueError, match="noise power too small"):
            ScenarioConfig(max_power_w=max_power_w, noise_w=noise_w)


def scalar_draw_oracle(rng, distance_m, num_nlos):
    """The per-path scalar draw the block draw must reproduce bit for bit:
    one ``uniform`` call per value in stream order, and the NLOS
    attenuations from one ``np.power`` over the drawn losses."""
    def angles():
        return np.clip(rng.uniform(0.0, math.pi, size=2), 1e-12, math.pi - 1e-12)

    g_los = los_gain_magnitude(distance_m)
    phases, losses = [rng.uniform(0.0, 2.0 * math.pi)], []
    aod, aoa = angles()
    aods, aoas = [aod], [aoa]
    lo, hi = NLOS_EXTRA_LOSS_DB
    for _ in range(num_nlos):
        losses.append(rng.uniform(lo, hi))
        phases.append(rng.uniform(0.0, 2.0 * math.pi))
        aod, aoa = angles()
        aods.append(aod)
        aoas.append(aoa)
    atten = [1.0] + np.power(10.0, -np.array(losses) / 20.0).tolist()
    gains = [g_los * a * np.exp(1j * phase) for a, phase in zip(atten, phases)]
    return np.array(gains), np.array(aods), np.array(aoas)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.uint8), expected.view(np.uint8))


def test_generate_user_channel_matches_scalar_draws_bit_for_bit():
    for num_nlos in (0, 1, 30):
        scenario = ScenarioConfig(num_nlos_paths=num_nlos)
        distances = (MIN_USER_DISTANCE_M, 37.5, 212.0, scenario.cell_radius_m)
        for seed in range(8):
            draws = []
            for distance in distances:
                expected = scalar_draw_oracle(np.random.default_rng(seed), distance,
                                              num_nlos)
                block = np.random.default_rng(seed).random(3 + 4 * num_nlos)
                actual = draw_paths(block, distance, scenario)
                for a, e in zip(actual, expected):
                    assert_same_bits(a, e)
                for angles in actual[1:]:
                    assert (angles > 0.0).all() and (angles < math.pi).all()
                draws.append(block)
            # a stack of users draws each user's paths as if alone
            stacked = draw_paths(np.array(draws), np.array(distances), scenario)
            for i, distance in enumerate(distances):
                for a, e in zip(stacked, draw_paths(draws[i], distance, scenario)):
                    assert_same_bits(a[i], e)


@pytest.mark.parametrize("num_nlos", (1, 2, 7, 8, 9, 15, 16, 17, 30, 33))
def test_draw_paths_over_trials_and_users_matches_per_user_calls_bit_for_bit(num_nlos):
    # The attenuations are one np.power over every path of the block; path
    # counts on either side of the SIMD widths put paths in vector tails.
    scenario = ScenarioConfig(num_nlos_paths=num_nlos)
    rng = np.random.default_rng(30 + num_nlos)
    for shape in ((1, 1), (3, 5), (64, 2)):
        u = rng.random(shape + (3 + 4 * num_nlos,))
        distances = rng.uniform(MIN_USER_DISTANCE_M, scenario.cell_radius_m, size=shape)
        block = draw_paths(u, distances, scenario)
        for index in np.ndindex(shape):
            for a, e in zip(block, draw_paths(u[index], distances[index], scenario)):
                assert a.shape == shape + (1 + num_nlos,)
                assert_same_bits(a[index], e)


def test_generate_user_channel_structure():
    scenario = ScenarioConfig(num_nlos_paths=30)
    ch = generate_user_channel(np.random.default_rng(2), 120.0, scenario)
    assert ch.gains.shape == ch.aods.shape == ch.aoas.shape == (31,)
    g_los = abs(ch.gains[0])
    assert g_los == pytest.approx(los_gain_magnitude(120.0), rel=1e-12)
    ratios = np.abs(ch.gains[1:]) / g_los
    assert ((10.0 ** -1.0 <= ratios) & (ratios <= 10.0 ** -0.5)).all()
    for angles in (ch.aods, ch.aoas):
        assert ((0.0 < angles) & (angles < math.pi)).all()


def test_generate_user_channel_los_only_when_no_nlos():
    scenario = ScenarioConfig(num_nlos_paths=0)
    ch = generate_user_channel(np.random.default_rng(1), 50.0, scenario)
    assert ch.gains.shape == ch.aods.shape == ch.aoas.shape == (1,)
    assert len(ch.paths) == 1


def test_generate_user_channel_is_reproducible():
    scenario = ScenarioConfig(num_nlos_paths=4)
    a = generate_user_channel(np.random.default_rng(9), 80.0, scenario)
    b = generate_user_channel(np.random.default_rng(9), 80.0, scenario)
    for name in ("gains", "aods", "aoas"):
        assert_same_bits(getattr(a, name), getattr(b, name))


def test_generate_user_channel_distance_bounds():
    scenario = ScenarioConfig()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="positive"):
        generate_user_channel(rng, 0.0, scenario)
    with pytest.raises(ValueError, match="outside"):
        generate_user_channel(rng, scenario.cell_radius_m + 1.0, scenario)


def test_user_rng_substreams_are_reproducible_and_distinct():
    first = user_rng(5, 0, 0).normal(size=4)
    again = user_rng(5, 0, 0).normal(size=4)
    np.testing.assert_array_equal(first, again)
    other_user = user_rng(5, 0, 1).normal(size=4)
    other_trial = user_rng(5, 1, 0).normal(size=4)
    assert not np.array_equal(first, other_user)
    assert not np.array_equal(first, other_trial)
    assert not np.array_equal(other_user, other_trial)


def test_generate_user_channel_wraps_the_array_draw():
    scenario = ScenarioConfig(num_nlos_paths=3)
    ch = generate_user_channel(np.random.default_rng(4), 60.0, scenario)
    gains, aods, aoas = draw_paths(np.random.default_rng(4).random(3 + 4 * 3), 60.0, scenario)
    assert gains.dtype == np.complex128 and aods.dtype == np.float64
    assert gains.shape == aods.shape == aoas.shape == (4,)
    assert_same_bits(ch.gains, gains)
    assert_same_bits(ch.aods, aods)
    assert_same_bits(ch.aoas, aoas)


SEED_MASTERS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3)
DRAW_COUNTS = (1, 4, 5, 124)
# numpy's PCG64 multiplier (pcg64.h): state j + 1 is MULT * state j + inc
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@pytest.mark.parametrize("master", SEED_MASTERS)
def test_block_seeding_matches_seed_sequence_key_by_key(master):
    # trials 60..139 cross the 64- and 128-trial block boundaries
    lo, hi, num_users = 60, 140, 9
    words = spawn_state_words(master, lo, hi, num_users)
    state_hi, state_lo = pcg64_states(words, 1)
    draws = {n: user_uniforms(master, lo, hi, num_users, n) for n in DRAW_COUNTS}
    assert words.shape == (hi - lo, num_users, 4) and words.dtype == np.uint64
    assert state_hi.shape == state_lo.shape == (hi - lo, num_users, 2)
    for n, block in draws.items():
        assert block.shape == (hi - lo, num_users, n)
    for t in range(lo, hi):
        for k in range(num_users):
            seq = np.random.SeedSequence(master, spawn_key=(t, k))
            expected = seq.generate_state(4, np.uint64)
            np.testing.assert_array_equal(words[t - lo, k], expected)
            seeded, stepped = ((int(h) << 64) | int(l)
                               for h, l in zip(state_hi[t - lo, k], state_lo[t - lo, k]))
            inc = (stepped - PCG64_MULT * seeded) % 2 ** 128
            assert {"state": seeded, "inc": inc} == np.random.PCG64(seq).state["state"]
            for n, block in draws.items():
                assert_same_bits(block[t - lo, k], user_rng(master, t, k).random(n))
    # fewer users and the last trial indices that fit one spawn-key word
    top = 2 ** 32
    for num_users in (1, 2):
        np.testing.assert_array_equal(
            spawn_state_words(master, top - 2, top, num_users),
            [[np.random.SeedSequence(master, spawn_key=(t, k)).generate_state(4, np.uint64)
              for k in range(num_users)] for t in (top - 2, top - 1)])
        for n in DRAW_COUNTS:
            assert_same_bits(user_uniforms(master, top - 2, top, num_users, n),
                             [[user_rng(master, t, k).random(n) for k in range(num_users)]
                              for t in (top - 2, top - 1)])
    # an empty block
    assert user_uniforms(master, 7, 7, 3, 5).shape == (0, 3, 5)


def test_block_seeding_rejects_what_it_cannot_hash():
    with pytest.raises(ValueError, match=r"2\*\*32"):
        spawn_state_words(1, 2 ** 32 - 1, 2 ** 32 + 1, 2)
    with pytest.raises(ValueError, match=r"2\*\*32"):
        spawn_state_words(1, 5, 4, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        spawn_state_words(-1, 0, 4, 2)
    with pytest.raises(TypeError):
        spawn_state_words(1.0, 0, 4, 2)
