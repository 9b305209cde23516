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
    PathComponent,
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    array_response,
    channel_matrix,
    dbm_to_watt,
    generate_user_channel,
    los_gain_magnitude,
    paths_as_arrays,
    user_rng,
)


def los_only_channel(gain, aod, aoa, m_ue, m_bs):
    path = PathComponent(gain, aod, aoa, is_los=True)
    return UserChannel((path,), UlaConfig(m_ue), UlaConfig(m_bs))


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
    paths = (PathComponent(gain, aod, aoa, is_los=True), PathComponent(gain, aod, aoa))
    double = UserChannel(paths, UlaConfig(4), UlaConfig(8))
    np.testing.assert_allclose(double.matrix, 2.0 * single.matrix, rtol=1e-12)


def test_scaled_channel_scales_matrix_and_los():
    ch = los_only_channel(1.0 + 0.5j, 0.7, 1.9, 3, 12)
    scaled = ch.scaled(0.25j)
    np.testing.assert_allclose(scaled.matrix, 0.25j * ch.matrix, rtol=1e-12)
    assert scaled.los.gain == (1.0 + 0.5j) * 0.25j
    assert scaled.los.is_los


def test_los_gain_magnitude_free_space():
    assert los_gain_magnitude(100.0) == pytest.approx(8.520259212923112e-06, rel=1e-12)
    # amplitude falls off as 1/d
    assert los_gain_magnitude(200.0) == pytest.approx(los_gain_magnitude(100.0) / 2.0,
                                                      rel=1e-12)


def test_channel_validation():
    with pytest.raises(ValueError):
        UlaConfig(0)
    ue, bs = UlaConfig(2), UlaConfig(4)
    with pytest.raises(ValueError, match="LOS"):
        UserChannel((), ue, bs)
    with pytest.raises(ValueError, match="LOS"):
        UserChannel((PathComponent(1.0, 1.0, 1.0),), ue, bs)
    with pytest.raises(ValueError, match="only paths"):
        UserChannel((PathComponent(1.0, 1.0, 1.0, is_los=True),
                     PathComponent(0.1, 1.2, 1.3, is_los=True)), ue, bs)
    with pytest.raises(ValueError, match="nonzero"):
        UserChannel((PathComponent(0.0, 1.0, 1.0, is_los=True),), ue, bs)


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
    # subnormal noise powers: max_power_w / noise_w or 1 / noise_w overflows
    for max_power_w, noise_w in ((40.0, 1e-323), (1e-300, 1e-320)):
        with pytest.raises(ValueError, match="noise power too small"):
            ScenarioConfig(max_power_w=max_power_w, noise_w=noise_w)


def scalar_draw_oracle(rng, distance_m, num_nlos):
    """The per-path scalar draw the block draw must reproduce bit for bit."""
    def angles():
        return np.clip(rng.uniform(0.0, math.pi, size=2), 1e-12, math.pi - 1e-12)

    g_los = los_gain_magnitude(distance_m)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    aod, aoa = angles()
    gains, aods, aoas = [g_los * np.exp(1j * phase)], [aod], [aoa]
    lo, hi = NLOS_EXTRA_LOSS_DB
    for _ in range(num_nlos):
        loss_db = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        aod, aoa = angles()
        gains.append(g_los * 10.0 ** (-loss_db / 20.0) * np.exp(1j * phase))
        aods.append(aod)
        aoas.append(aoa)
    return np.array(gains), np.array(aods), np.array(aoas)


def test_generate_user_channel_matches_scalar_draws_bit_for_bit():
    for num_nlos in (0, 1, 30):
        scenario = ScenarioConfig(num_nlos_paths=num_nlos)
        for seed in range(8):
            for distance in (MIN_USER_DISTANCE_M, 37.5, 212.0, scenario.cell_radius_m):
                expected = scalar_draw_oracle(np.random.default_rng(seed), distance,
                                              num_nlos)
                ch = generate_user_channel(np.random.default_rng(seed), distance, scenario)
                actual = paths_as_arrays(ch)
                for a, e in zip(actual, expected):
                    np.testing.assert_array_equal(a, e)
                for angles in actual[1:]:
                    assert (angles > 0.0).all() and (angles < math.pi).all()


def test_generate_user_channel_structure():
    scenario = ScenarioConfig(num_nlos_paths=30)
    ch = generate_user_channel(np.random.default_rng(2), 120.0, scenario)
    assert len(ch.paths) == 31
    assert ch.paths[0].is_los and not any(p.is_los for p in ch.paths[1:])
    g_los = abs(ch.los.gain)
    assert g_los == pytest.approx(los_gain_magnitude(120.0), rel=1e-12)
    for p in ch.paths[1:]:
        ratio = abs(p.gain) / g_los
        assert 10.0 ** -1.0 <= ratio <= 10.0 ** -0.5
    for p in ch.paths:
        assert 0.0 < p.aod < math.pi and 0.0 < p.aoa < math.pi


def test_generate_user_channel_los_only_when_no_nlos():
    scenario = ScenarioConfig(num_nlos_paths=0)
    ch = generate_user_channel(np.random.default_rng(1), 50.0, scenario)
    assert len(ch.paths) == 1


def test_generate_user_channel_is_reproducible():
    scenario = ScenarioConfig(num_nlos_paths=4)
    a = generate_user_channel(np.random.default_rng(9), 80.0, scenario)
    b = generate_user_channel(np.random.default_rng(9), 80.0, scenario)
    ga, aoda, aoaa = paths_as_arrays(a)
    gb, aodb, aoab = paths_as_arrays(b)
    np.testing.assert_array_equal(ga, gb)
    np.testing.assert_array_equal(aoda, aodb)
    np.testing.assert_array_equal(aoaa, aoab)


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


def test_paths_as_arrays_round_trip():
    scenario = ScenarioConfig(num_nlos_paths=3)
    ch = generate_user_channel(np.random.default_rng(4), 60.0, scenario)
    gains, aods, aoas = paths_as_arrays(ch)
    assert gains.dtype == np.complex128 and aods.dtype == np.float64
    assert gains.shape == aods.shape == aoas.shape == (4,)
    for i, p in enumerate(ch.paths):
        assert gains[i] == p.gain and aods[i] == p.aod and aoas[i] == p.aoa
