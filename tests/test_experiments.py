"""Monte Carlo plumbing: user drops, aggregation, sweep tables, CSV output."""

import math

import numpy as np
import pytest

from multibeam_noma import _kernels, experiments
from multibeam_noma.asymptotic import min_antennas_for_superiority
from multibeam_noma.beams import PlanError
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    dbm_to_watt,
    los_gain_magnitude,
    user_rng,
)
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
from multibeam_noma.rates import noma_rates_from_gains

TWO_USER_LOS = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=3)


def test_drop_users_sorted_and_in_cell():
    users = drop_users(ScenarioConfig(num_users=5, num_nlos_paths=2), trial_index=4)
    assert len(users) == 5
    mags = [abs(u.gains[0]) for u in users]
    assert mags == sorted(mags, reverse=True)
    # the LOS magnitude is the free-space gain at the user's distance
    for m in mags:
        assert los_gain_magnitude(500.0) <= m <= los_gain_magnitude(10.0)


def test_drop_users_is_reproducible_per_trial():
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=3)
    a = drop_users(scenario, trial_index=7)
    b = drop_users(scenario, trial_index=7)
    c = drop_users(scenario, trial_index=8)
    for ua, ub in zip(a, b):
        for name in ("gains", "aods", "aoas"):
            assert_same_bits(getattr(ua, name), getattr(ub, name))
    assert [u.gains[0] for u in a] != [u.gains[0] for u in c]


def test_drop_users_scenario_seed_decides_the_drop():
    def los_gains(seed):
        scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=seed)
        return [u.gains[0] for u in drop_users(scenario, 0)]

    assert los_gains(1) == los_gains(1)
    assert los_gains(1) != los_gains(99)


def test_drop_users_pins_the_gain_ratio_exactly():
    users = drop_users(TWO_USER_LOS, trial_index=2, gain_ratio=5.0)
    ratio = abs(users[0].gains[0]) / abs(users[1].gains[0])
    assert ratio == pytest.approx(5.0, rel=1e-12)


def test_drop_users_ratio_guards():
    with pytest.raises(InfeasibleSpecError, match="two users"):
        drop_users(ScenarioConfig(num_users=3, num_nlos_paths=0), gain_ratio=5.0)
    with pytest.raises(InfeasibleSpecError, match=">= 1"):
        drop_users(TWO_USER_LOS, gain_ratio=0.5)
    for ratio in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gain ratio must be finite"):
            drop_users(TWO_USER_LOS, 0, ratio)
        with pytest.raises(ValueError, match="gain ratio must be finite"):
            experiments._draw_block(TWO_USER_LOS, 0, 2, ratio)


def per_trial(fn):
    """A range evaluator from a per-trial one."""
    return lambda lo, hi: np.array([fn(t) for t in range(lo, hi)])


def test_monte_carlo_single_trial_has_zero_stderr():
    result = monte_carlo(1, per_trial(lambda t: np.array([3.0, 4.0])))
    np.testing.assert_array_equal(result.mean, [3.0, 4.0])
    np.testing.assert_array_equal(result.stderr, [0.0, 0.0])
    assert result.trials == 1
    with pytest.raises(ValueError):
        monte_carlo(0, per_trial(lambda t: np.array([1.0])))


def test_monte_carlo_evaluates_consecutive_blocks_in_trial_order(monkeypatch):
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 7)
    calls = []

    def evaluator(lo, hi):
        calls.append((lo, hi))
        return np.arange(lo, hi, dtype=np.float64)[:, None]

    result = monte_carlo(20, evaluator)
    assert calls == [(0, 7), (7, 14), (14, 20)]
    assert result.mean[0] == 9.5
    calls.clear()
    assert monte_carlo(3, evaluator, block=1).mean[0] == 1.0
    assert calls == [(0, 1), (1, 2), (2, 3)]
    # one result per trial, or the mean would weigh the wrong trials
    with pytest.raises(ValueError, match="returned 3 results for 20 trials"):
        monte_carlo(20, lambda lo, hi: np.zeros((1, 2)))


def test_monte_carlo_result_is_independent_of_workers():
    evaluator = per_trial(lambda t: user_rng(11, t, 0).normal(size=3))
    serial = monte_carlo(200, evaluator, workers=1)
    threaded = monte_carlo(200, evaluator, workers=4)
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

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    evaluator = per_trial(lambda t: np.array([float(t)]))
    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    monte_carlo(4, evaluator, workers=10_000)
    assert pools == [3]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    result = monte_carlo(4, evaluator, workers=10_000)
    assert pools == [3] and result.mean[0] == 1.5


def test_monte_carlo_stderr_shrinks_like_root_n():
    evaluator = per_trial(lambda t: np.array([user_rng(7, t, 0).normal()]))
    small = monte_carlo(400, evaluator)
    large = monte_carlo(800, evaluator)
    ratio = large.stderr[0] / small.stderr[0]
    assert 1.0 / math.sqrt(2.0) * 0.8 < ratio < 1.0 / math.sqrt(2.0) * 1.2


def dropped_arrays(scenario, trial, gain_ratio):
    """LOS magnitudes, LOS AoDs and v^H H rows of one ``drop_users`` drop."""
    users = drop_users(scenario, trial, gain_ratio)
    mags = np.array([abs(u.gains[0]) for u in users])
    aods = np.array([u.aods[0] for u in users])
    rows = np.array([
        _kernels.vhh_row(u.gains, u.aods, u.aoas,
                         scenario.ue_config.num_antennas, scenario.bs_config.num_antennas)
        for u in users])
    return mags, aods, rows


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual.view(np.float64), expected.view(np.float64))
    np.testing.assert_array_equal(np.signbit(actual.view(np.float64)),
                                  np.signbit(expected.view(np.float64)))


def test_scalar_abs_matches_python_abs_bit_for_bit():
    # the sweeps' magnitudes are those of scalar abs(complex); numpy's
    # vectorized complex abs differs from it in the last bit
    rng = np.random.default_rng(17)
    n = 99_999
    scales = 10.0 ** rng.uniform(-6.0, 5.0, size=(2, n))
    parts = rng.normal(size=(2, n)) * scales
    tiny = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1.1e-308, 3e-320, 1.0, -2.5])
    corner = np.stack(np.meshgrid(tiny, tiny)).reshape(2, -1)
    re, im = np.concatenate((parts, corner), axis=1)
    z = (re + 1j * im).reshape(-1, 3)
    assert (np.signbit(z.real) != np.signbit(z.imag)).any()
    want = np.array([abs(v) for v in z.ravel().tolist()]).reshape(z.shape)
    assert_same_bits(experiments._scalar_abs(z), want)


@pytest.mark.parametrize("num_users,num_nlos,gain_ratio",
                         [(1, 0, None), (2, 0, None), (2, 0, 5.0), (2, 3, 1.5), (5, 30, None)])
def test_block_draw_matches_drop_users_bit_for_bit(num_users, num_nlos, gain_ratio):
    scenario = ScenarioConfig(num_users=num_users, num_nlos_paths=num_nlos,
                              bs_config=UlaConfig(32), ue_config=UlaConfig(4), rng_seed=9)
    lo, hi = 61, 67
    block = experiments._draw_block(scenario, lo, hi, gain_ratio)
    for t in range(lo, hi):
        for actual, expected in zip(block, dropped_arrays(scenario, t, gain_ratio)):
            assert_same_bits(actual[t - lo], expected)


def oracle_antenna_trials(spec, lo, hi):
    """The antenna evaluator with one kernel call per trial: per-trial
    ``two_segment_sweep``, a one-segment ``segment_gains`` call per user and
    a 1-D threshold per trial, then the block arithmetic of the sweep."""
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    m1_values = np.asarray(spec.values, dtype=np.int64)
    m2_values = m_bs - m1_values
    p_user = scenario.max_power_w / 2.0
    rho = 1.0 / scenario.noise_w
    offsets = np.zeros(1, dtype=np.int64)
    lengths = np.full(1, m_bs, dtype=np.int64)

    mags, aods, rows = experiments._draw_block(scenario, lo, hi, spec.gain_ratio)
    cos_aods = np.cos(aods)
    n = hi - lo
    h = np.empty((2, n, len(m1_values)), dtype=np.complex128)
    tdma_gains = np.empty((n, 2))
    threshold = np.empty(n)
    for t in range(n):
        h[:, t] = _kernels.two_segment_sweep(rows[t], cos_aods[t, 0], cos_aods[t, 1],
                                             m1_values, m_bs)
        for k in range(2):
            (g,) = _kernels.segment_gains(rows[t][k:k + 1], cos_aods[t][k:k + 1],
                                          offsets, lengths, m_bs)
            tdma_gains[t, k] = abs(g) ** 2
        m1_min = min_antennas_for_superiority(mags[t], m_bs)
        threshold[t] = m_bs + 1 if m1_min is None else m1_min
    out = np.empty((n, len(m1_values), 6))
    out[..., 0] = noma_rates_from_gains(np.abs(h) ** 2, np.array([p_user, p_user]),
                                        scenario.noise_w).sum(axis=0)
    out[..., 1] = np.log2(1.0 + scenario.max_power_w * tdma_gains * rho).mean(axis=1)[:, None]
    out[..., 2] = np.log2((scenario.max_power_w * experiments._scalar_squares(mags[:, 0])
                           * m_ue)[:, None]
                          * m1_values.astype(np.float64) ** 2 * rho / m_bs)
    out[..., 3] = np.log2(scenario.max_power_w * mags ** 2 * m_ue * m_bs * rho
                          ).mean(axis=1)[:, None]
    out[..., 4] = threshold[:, None]
    out[..., 5] = mags[:, :1] * m1_values >= mags[:, 1:] * m2_values
    return out


@pytest.mark.parametrize("m_bs,m_ue", [(128, 10), (64, 4), (32, 1)])
@pytest.mark.parametrize("num_nlos", [0, 1, 3])
def test_antenna_evaluator_matches_per_trial_oracle_bit_for_bit(m_bs, m_ue, num_nlos):
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=num_nlos, bs_config=UlaConfig(m_bs),
                              ue_config=UlaConfig(m_ue), rng_seed=17)
    all_splits = tuple(range(1, m_bs))
    for gain_ratio in (None, 1.5, 5.0):
        for values in (all_splits, all_splits[3::7]):
            spec = SweepSpec("antennas", scenario, 100, values, gain_ratio=gain_ratio)
            # a full block, and one of 36 trials
            for lo, hi in ((0, 64), (64, 100)):
                assert_same_bits(experiments._antenna_trials(spec, lo, hi),
                                 oracle_antenna_trials(spec, lo, hi))


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
    for alloc in ((120, 7, 7), (50, 7), (50, 7, 7, 7), ()):
        with pytest.raises(PlanError):
            single_chain_plan(scenario, alloc)


def test_sweep_spec_validation():
    with pytest.raises(ValueError, match="sweep kind"):
        SweepSpec("frequency", TWO_USER_LOS, 1, (1,))
    with pytest.raises(ValueError, match="trials"):
        SweepSpec("antennas", TWO_USER_LOS, 0, (10,))
    SweepSpec("antennas", TWO_USER_LOS, 2 ** 32, (10,))
    with pytest.raises(ValueError, match="trials must be at most 4294967296"):
        SweepSpec("antennas", TWO_USER_LOS, 2 ** 32 + 1, (10,))
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
    # a field that the sweep's kind does not read is an error, not ignored
    with pytest.raises(ValueError, match="does not take a gain ratio"):
        SweepSpec("power", TWO_USER_LOS, 1, (30.0,), gain_ratio=3.0)
    for fields in ({"antenna_alloc": (1, 1)}, {"max_group_size": 7},
                   {"antenna_alloc": (1, 1), "max_group_size": 7}):
        with pytest.raises(ValueError, match="neither antenna_alloc nor max_group_size"):
            SweepSpec("antennas", TWO_USER_LOS, 1, (10,), **fields)
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


MONTE_CARLO = experiments.monte_carlo
DEFAULT_BLOCK = experiments.TRIAL_BLOCK


def sweep_with_trial_data(monkeypatch, run, spec, workers, block):
    """The sweep's CSV text, its per-trial results stacked in trial order and
    the trial ranges its evaluator was called with."""
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", block)
    results = {}

    def recording_monte_carlo(trials, evaluator, workers=1, **kwargs):
        def recording(lo, hi):
            results[lo, hi] = evaluator(lo, hi)
            return results[lo, hi]
        return MONTE_CARLO(trials, recording, workers, **kwargs)

    monkeypatch.setattr(experiments, "monte_carlo", recording_monte_carlo)
    text = run(spec, workers=workers).csv_text()
    ranges = sorted(results)
    return text, np.concatenate([results[r] for r in ranges]), ranges


BLOCK_SIZE_SPECS = [
    ("antennas", 2, 0, None), ("antennas", 2, 0, 5.0), ("antennas", 2, 3, None),
    ("antennas", 2, 3, 1.5), ("power", 1, 0, None), ("power", 1, 3, None),
    ("power", 2, 0, None), ("power", 2, 3, None), ("power", 5, 0, None), ("power", 5, 3, None),
]


@pytest.mark.parametrize("kind,num_users,num_nlos,gain_ratio", BLOCK_SIZE_SPECS)
def test_sweeps_do_not_depend_on_the_block_size(monkeypatch, kind, num_users, num_nlos,
                                                gain_ratio):
    scenario = ScenarioConfig(num_users=num_users, num_nlos_paths=num_nlos, rng_seed=4)
    trials = 20
    if kind == "antennas":
        spec = SweepSpec(kind, scenario, trials, (20, 64, 100), gain_ratio=gain_ratio)
        run = run_antenna_sweep
    else:
        spec = SweepSpec(kind, scenario, trials, (30.0, 46.0))
        run = run_power_sweep
    text, data, _ = sweep_with_trial_data(monkeypatch, run, spec, 1, DEFAULT_BLOCK)
    assert data.shape[0] == trials
    for block in (1, 7, DEFAULT_BLOCK):
        for workers in (1, 3):
            other_text, other_data, ranges = sweep_with_trial_data(monkeypatch, run, spec,
                                                                   workers, block)
            assert other_text == text, (block, workers)
            assert_same_bits(other_data, data)
            # the power sweep runs one trial per block whatever TRIAL_BLOCK is
            size = block if kind == "antennas" else 1
            assert ranges == [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    if kind == "power":
        # its evaluator gives the same bits over a range of several trials
        alloc = np.array(default_antenna_alloc(num_users, 128))
        offsets = np.concatenate(([0], np.cumsum(alloc)[:-1]))
        pmax_w = np.array([dbm_to_watt(v) for v in spec.values])
        powers = np.tile(pmax_w / num_users, (num_users, 1))
        block = experiments._power_trials(spec, alloc, offsets, pmax_w, powers, 0, trials)
        assert_same_bits(block, data)


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
