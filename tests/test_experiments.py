"""Monte Carlo plumbing: user drops, aggregation, sweep tables, CSV output."""

import math

import numpy as np
import pytest

from multibeam_noma import experiments
from multibeam_noma.beams import PlanError
from multibeam_noma.channel import ScenarioConfig, UlaConfig, user_rng
from multibeam_noma.experiments import (
    BeamPatternConfig,
    InfeasibleSpecError,
    SweepSpec,
    SweepTable,
    default_antenna_alloc,
    drop_users,
    monte_carlo,
    run_antenna_sweep,
    run_beam_pattern,
    run_power_sweep,
    single_chain_plan,
    write_table,
)

TWO_USER_LOS = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=3)


def test_drop_users_sorted_and_in_cell():
    users = drop_users(ScenarioConfig(num_users=5, num_nlos_paths=2), trial_index=4)
    assert len(users) == 5
    mags = [abs(u.channel.los.gain) for u in users]
    assert mags == sorted(mags, reverse=True)
    for u in users:
        assert 10.0 <= u.distance_m <= 500.0


def test_drop_users_is_reproducible_per_trial():
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=3)
    a = drop_users(scenario, trial_index=7)
    b = drop_users(scenario, trial_index=7)
    c = drop_users(scenario, trial_index=8)
    assert [u.distance_m for u in a] == [u.distance_m for u in b]
    assert a[0].channel.los.gain == b[0].channel.los.gain
    assert [u.distance_m for u in a] != [u.distance_m for u in c]


def test_drop_users_master_seed_overrides_scenario_seed():
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=1)
    default_seed = drop_users(scenario, 0)
    override = drop_users(scenario, 0, master_seed=99)
    same_as_default = drop_users(scenario, 0, master_seed=1)
    assert default_seed[0].distance_m == same_as_default[0].distance_m
    assert default_seed[0].distance_m != override[0].distance_m


def test_drop_users_pins_the_gain_ratio_exactly():
    users = drop_users(TWO_USER_LOS, trial_index=2, gain_ratio=5.0)
    ratio = abs(users[0].channel.los.gain) / abs(users[1].channel.los.gain)
    assert ratio == pytest.approx(5.0, rel=1e-12)


def test_drop_users_ratio_guards():
    with pytest.raises(InfeasibleSpecError, match="two users"):
        drop_users(ScenarioConfig(num_users=3, num_nlos_paths=0), gain_ratio=5.0)
    with pytest.raises(InfeasibleSpecError, match=">= 1"):
        drop_users(TWO_USER_LOS, gain_ratio=0.5)


def test_monte_carlo_single_trial_has_zero_stderr():
    result = monte_carlo(1, lambda t: np.array([3.0, 4.0]))
    np.testing.assert_array_equal(result.mean, [3.0, 4.0])
    np.testing.assert_array_equal(result.stderr, [0.0, 0.0])
    assert result.trials == 1
    with pytest.raises(ValueError):
        monte_carlo(0, lambda t: np.array([1.0]))


def test_monte_carlo_result_is_independent_of_workers():
    def evaluator(t):
        return user_rng(11, t, 0).normal(size=3)

    serial = monte_carlo(64, evaluator, workers=1)
    threaded = monte_carlo(64, evaluator, workers=4)
    np.testing.assert_array_equal(serial.mean, threaded.mean)
    np.testing.assert_array_equal(serial.stderr, threaded.stderr)


def test_monte_carlo_caps_workers_at_core_count(monkeypatch):
    pools = []

    class RecordingPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    monte_carlo(4, lambda t: np.array([float(t)]), workers=10_000)
    assert pools == [3]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    result = monte_carlo(4, lambda t: np.array([float(t)]), workers=10_000)
    assert pools == [3] and result.mean[0] == 1.5


def test_monte_carlo_stderr_shrinks_like_root_n():
    def evaluator(t):
        return np.array([user_rng(7, t, 0).normal()])

    small = monte_carlo(400, evaluator)
    large = monte_carlo(800, evaluator)
    ratio = large.stderr[0] / small.stderr[0]
    assert 1.0 / math.sqrt(2.0) * 0.8 < ratio < 1.0 / math.sqrt(2.0) * 1.2


def test_default_antenna_alloc():
    assert default_antenna_alloc(5, 128) == (100, 7, 7, 7, 7)
    assert default_antenna_alloc(1, 128) == (128,)
    with pytest.raises(InfeasibleSpecError, match="do not fit"):
        default_antenna_alloc(20, 128)


def test_single_chain_plan_layout():
    scenario = ScenarioConfig(num_users=3)
    plan = single_chain_plan(scenario, (50, 7, 7))
    assert plan.scheduling.shape == (3, 1)
    np.testing.assert_array_equal(plan.antenna_alloc[:, 0], [50, 7, 7])
    np.testing.assert_allclose(plan.power_alloc, scenario.max_power_w / 3.0)
    assert plan.bs_antennas == 128
    with pytest.raises(PlanError):
        single_chain_plan(scenario, (120, 7, 7))


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="sweep kind"):
        SweepSpec("frequency", TWO_USER_LOS, 1, (1,))
    with pytest.raises(ValueError, match="trials"):
        SweepSpec("antennas", TWO_USER_LOS, 0, (10,))
    with pytest.raises(InfeasibleSpecError, match="at least one value"):
        SweepSpec("antennas", TWO_USER_LOS, 1, ())
    with pytest.raises(InfeasibleSpecError, match="two users"):
        SweepSpec("antennas", ScenarioConfig(num_users=3), 1, (10,))
    with pytest.raises(InfeasibleSpecError, match="segment"):
        SweepSpec("antennas", TWO_USER_LOS, 1, (128,))
    with pytest.raises(InfeasibleSpecError, match="segment"):
        SweepSpec("antennas", TWO_USER_LOS, 1, (0,))
    with pytest.raises(InfeasibleSpecError, match="per user"):
        SweepSpec("power", TWO_USER_LOS, 1, (30.0,), antenna_alloc=(50,))
    with pytest.raises(InfeasibleSpecError, match="fit the array"):
        SweepSpec("power", TWO_USER_LOS, 1, (30.0,), antenna_alloc=(128, 1))
    with pytest.raises(InfeasibleSpecError, match="max_group_size"):
        SweepSpec("power", TWO_USER_LOS, 1, (30.0,), max_group_size=1)
    for ratio in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gain ratio must be finite"):
            SweepSpec("antennas", TWO_USER_LOS, 1, (10,), gain_ratio=ratio)
    for values in ((30.0, math.nan), (math.inf,), (-math.inf,), (4000.0,), (-4000.0,),
                   (30.0, 3000.0)):
        with pytest.raises(ValueError, match="dBm"):
            SweepSpec("power", TWO_USER_LOS, 1, values)
    low_noise = ScenarioConfig(num_users=2, num_nlos_paths=0, max_power_w=1.0, noise_w=1e-300)
    SweepSpec("power", low_noise, 1, (100.0,))
    with pytest.raises(ValueError, match="over the noise power is not finite"):
        SweepSpec("power", low_noise, 1, (100.0, 200.0))


def test_sweep_table_formatting_and_columns():
    table = SweepTable(
        meta={"experiment": "demo", "trials": 2},
        header=("m1", "value", "flag"),
        rows=[(4, 0.123456789, True), (8, 1e-12, False)],
    )
    text = table.csv_text()
    lines = text.splitlines()
    assert lines[0] == "# experiment = demo"
    assert lines[1] == "# trials = 2"
    assert lines[2] == "m1,value,flag"
    assert lines[3] == "4,0.123456789,1"
    assert lines[4] == "8,1e-12,0"
    assert text.endswith("\n")
    np.testing.assert_array_equal(table.column("m1"), [4.0, 8.0])
    with pytest.raises(ValueError):
        table.column("missing")


def test_write_table_uses_unix_newlines(tmp_path):
    table = SweepTable({"a": 1}, ("x",), [(1,)])
    out = tmp_path / "t.csv"
    write_table(table, str(out))
    raw = out.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == table.csv_text()


def test_run_antenna_sweep_structure_and_determinism():
    spec = SweepSpec("antennas", TWO_USER_LOS, trials=5, values=(30, 60),
                     gain_ratio=5.0)
    table = run_antenna_sweep(spec)
    assert table.header == ("m1", "m2", "noma_sum_mean", "noma_sum_stderr",
                            "tdma_sum_mean", "tdma_sum_stderr", "noma_asymptotic",
                            "tdma_asymptotic", "superiority_threshold",
                            "feasible_fraction")
    np.testing.assert_array_equal(table.column("m1"), [30, 60])
    np.testing.assert_array_equal(table.column("m2"), [98, 68])
    # pinned ratio 5 fixes the threshold at ceil(128 / sqrt(5)) for every drop
    np.testing.assert_array_equal(table.column("superiority_threshold"), [58.0, 58.0])
    np.testing.assert_array_equal(table.column("feasible_fraction"), [1.0, 1.0])
    assert table.meta["experiment"] == "antenna_sweep"
    assert table.meta["trials"] == 5
    assert table.meta["gain_ratio"] == "5"
    threaded = run_antenna_sweep(spec, workers=3)
    rerun = run_antenna_sweep(spec)
    assert table.csv_text() == threaded.csv_text() == rerun.csv_text()


def test_run_antenna_sweep_single_trial_stderr_is_zero():
    spec = SweepSpec("antennas", TWO_USER_LOS, trials=1, values=(40,))
    table = run_antenna_sweep(spec)
    assert table.column("noma_sum_stderr")[0] == 0.0
    assert table.column("tdma_sum_stderr")[0] == 0.0


def test_run_antenna_sweep_writes_csv(tmp_path):
    spec = SweepSpec("antennas", TWO_USER_LOS, trials=2, values=(20, 40))
    out = tmp_path / "sweep.csv"
    table = run_antenna_sweep(spec, out_path=str(out))
    assert out.read_text() == table.csv_text()


def test_run_power_sweep_structure():
    scenario = ScenarioConfig(num_users=3, num_nlos_paths=0, rng_seed=5)
    spec = SweepSpec("power", scenario, trials=3, values=(30.0, 40.0),
                     antenna_alloc=(50, 7, 7))
    table = run_power_sweep(spec)
    assert table.header == ("pmax_dbm", "noma_sum_mean", "baseline_sum_mean",
                            "tdma_sum_mean", "predicted_gain")
    np.testing.assert_array_equal(table.column("pmax_dbm"), [30.0, 40.0])
    assert table.meta["antenna_alloc"] == "50:7:7"
    pred = table.column("predicted_gain")
    assert np.isfinite(pred).all()
    # the asymptotic gap does not depend on the budget point
    assert pred[0] == pred[1]
    threaded = run_power_sweep(spec, workers=3)
    assert table.csv_text() == threaded.csv_text()


def test_run_power_sweep_uses_default_alloc():
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=5)
    spec = SweepSpec("power", scenario, trials=1, values=(40.0,))
    table = run_power_sweep(spec)
    assert table.meta["antenna_alloc"] == "121:7"


def test_beam_pattern_config_validation():
    with pytest.raises(InfeasibleSpecError, match="steering angle"):
        BeamPatternConfig(split_lengths=(50,), split_angles_deg=(70.0, 90.0))
    with pytest.raises(InfeasibleSpecError, match="positive"):
        BeamPatternConfig(split_lengths=(0, 50), split_angles_deg=(70.0, 90.0))
    with pytest.raises(InfeasibleSpecError, match="exceed"):
        BeamPatternConfig(split_lengths=(100, 100))
    with pytest.raises(InfeasibleSpecError, match="grid"):
        BeamPatternConfig(num_points=1)
    for angles in ({"full_angle_deg": 200.0}, {"full_angle_deg": 0.0},
                   {"full_angle_deg": math.nan}, {"split_angles_deg": (70.0, 180.0)}):
        with pytest.raises(InfeasibleSpecError, match=r"\(0, 180\)"):
            BeamPatternConfig(**angles)


def test_run_beam_pattern_table():
    config = BeamPatternConfig(num_points=128)
    table = run_beam_pattern(config)
    assert table.header == ("angle_deg", "split_mag_db", "full_mag_db")
    assert len(table.rows) == 128
    angles = table.column("angle_deg")
    assert (np.diff(angles) > 0.0).all()
    assert 0.0 < angles[0] and angles[-1] < 180.0
    split_db = table.column("split_mag_db")
    full_db = table.column("full_mag_db")
    assert np.isfinite(split_db).all() and np.isfinite(full_db).all()
    assert 65.0 < angles[np.argmax(split_db)] < 95.0
    assert 115.0 < angles[np.argmax(full_db)] < 125.0
    assert table.meta["split_lengths"] == "50:78"
