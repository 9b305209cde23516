"""Monte Carlo plumbing: user drops, aggregation, sweep tables, CSV output."""

import ctypes
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from multibeam_noma import _kernels, experiments
from multibeam_noma.asymptotic import (
    AsymptoticScenario,
    min_antennas_for_superiority,
    noma_gain,
    sic_condition_asymptotic,
    strongest_user_rate_asymptotic,
    tdma_sum_rate_asymptotic,
)
from multibeam_noma.beams import PlanError, default_angle_grid
from multibeam_noma.channel import (
    MAX_FLOAT64_ELEMENTS,
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
from multibeam_noma.rates import equal_time_shares, noma_rates_from_gains, tdma_rates
from test_kernels import oracle_full_array_gains, oracle_pattern_mags, oracle_segment_weights
from test_rates import per_cluster_baseline

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
    # the weaker user's pinned |g| falls below the square root of the least
    # subnormal, so its LOS power |g|^2 is 0 in float64
    far = ScenarioConfig(num_users=2, num_nlos_paths=3, cell_radius_m=1e100)
    for scenario, ratio in ((TWO_USER_LOS, 1e160), (far, 1e300)):
        with pytest.raises(InfeasibleSpecError, match="no LOS power"):
            drop_users(scenario, 0, ratio)
        with pytest.raises(InfeasibleSpecError, match="no LOS power"):
            experiments._draw_block(scenario, 0, 64, ratio)
    # a large ratio that keeps the power positive is pinned as usual
    users = drop_users(TWO_USER_LOS, 0, 1e140)
    gains, _, _ = experiments._draw_block(TWO_USER_LOS, 0, 1, 1e140)
    los = abs(users[1].gains[0])
    assert 0.0 < los * los and gains[0, 1, 0] == users[1].gains[0]


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


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_finishes_runs_of_at_least_trial_block_in_trial_order(monkeypatch,
                                                                         workers):
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 7)
    runs = []

    def evaluator(lo, hi):
        return np.arange(lo, hi, dtype=np.float64)[:, None]

    def finish(stacked):
        runs.append(stacked[:, 0].tolist())
        return np.concatenate([stacked, stacked ** 2], axis=1)

    result = monte_carlo(20, evaluator, workers, block=3, finish=finish)
    # blocks of 3 gather until a run holds 7 trials or more; the rest is the last run
    assert runs == [list(range(0, 9)), list(range(9, 18)), [18.0, 19.0]]
    np.testing.assert_array_equal(result.mean, [9.5, np.mean(np.arange(20.0) ** 2)])
    plain = monte_carlo(20, per_trial(lambda t: np.array([float(t), float(t) ** 2])))
    assert_same_bits(result.mean, plain.mean)
    assert_same_bits(result.stderr, plain.stderr)
    runs.clear()
    monte_carlo(20, evaluator, workers, block=1, finish=finish)
    assert runs == [list(range(0, 7)), list(range(7, 14)), list(range(14, 20))]
    with pytest.raises(ValueError, match="finish returned 6 results for 7 trials"):
        monte_carlo(20, evaluator, workers, block=1, finish=lambda stacked: stacked[1:])


def test_monte_carlo_refuses_to_average_complex_evaluator_results():
    # a float64 cast would average the real parts, 1, with only a warning
    with pytest.raises(ValueError, match="the evaluator returned complex128 results"):
        monte_carlo(3, lambda lo, hi: np.full((hi - lo, 2), 1 + 5j))


def test_monte_carlo_refuses_to_average_complex_finish_results():
    with pytest.raises(ValueError, match="finish returned complex64 results"):
        monte_carlo(3, lambda lo, hi: np.zeros((hi - lo, 2)),
                    finish=lambda stacked: stacked.astype(np.complex64))


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_hands_finish_the_complex_blocks_unchanged(monkeypatch, workers):
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 4)
    rng = np.random.default_rng(3)
    values = rng.standard_normal((10, 3)) + 1j * rng.standard_normal((10, 3))
    runs = []

    def finish(stacked):
        runs.append(stacked)
        return np.abs(stacked)

    result = monte_carlo(10, lambda lo, hi: values[lo:hi], workers, block=2, finish=finish)
    assert [len(r) for r in runs] == [4, 4, 2]
    assert_same_bits(np.concatenate(runs), values)
    np.testing.assert_array_equal(result.mean, np.abs(values).mean(axis=0))


def antenna_block(num_nlos, m_bs, num_splits):
    return experiments._antenna_block(ScenarioConfig(num_users=2, num_nlos_paths=num_nlos,
                                                     bs_config=UlaConfig(m_bs)), num_splits)


def test_antenna_block_is_the_largest_within_the_closed_form_budget():
    # the README sweep.cfg, the CLI default of 30 NLOS paths and every split
    assert antenna_block(0, 128, 31) == 3171
    assert antenna_block(30, 128, 63) == experiments.TRIAL_BLOCK == 64
    assert antenna_block(0, 128, 127) == 774
    assert antenna_block(0, 256, 255) == 385
    for num_nlos in (0, 1, 3, 30, 300):
        for m_bs in (2, 33, 128, 256):
            for num_splits in {1, m_bs // 2, m_bs // 2 + 1, m_bs - 1}:
                block = antenna_block(num_nlos, m_bs, num_splits)
                # S for the LOS terms; with NLOS paths, (2 + L) steering
                # columns, sums and phases per column read
                per_user = num_splits
                if num_nlos:
                    per_user += (2 + num_nlos) * min(2 * num_splits, m_bs)
                per_trial = 2 * per_user
                case = (num_nlos, m_bs, num_splits)
                assert block >= experiments.TRIAL_BLOCK, case
                if block > experiments.TRIAL_BLOCK:
                    assert (block * per_trial <= experiments.BLOCK_ELEMENTS
                            < (block + 1) * per_trial), case


def recorded_tables(monkeypatch, num_nlos, m_bs, m1_values, trials=5):
    """(name, shape) of every steering table the closed form builds for a
    block of ``trials`` two-user trials."""
    shapes = []

    def recording(name):
        kernel = getattr(_kernels, name)

        def record(*args):
            out = kernel(*args)
            shapes.append((name, out.shape))
            return out
        return record

    for name in ("_table_columns", "_table_steering"):
        monkeypatch.setattr(_kernels, name, recording(name))
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=num_nlos, bs_config=UlaConfig(m_bs))
    gains, aods, aoas = experiments._draw_block(scenario, 0, trials)
    _kernels.two_segment_closed_form(gains, aods, aoas, m1_values, 10, m_bs)
    return shapes


def test_antenna_block_counts_the_closed_form_steering_grid(monkeypatch):
    # the rule's L grid rows per user: one (T, K, L, M_BS) grid a call at
    # every split, beside the (T, K, S + 1) half-angle columns of the
    # segment phases; with no NLOS path, no table at all
    assert recorded_tables(monkeypatch, 3, 33, np.arange(1, 33)) == [
        ("_table_columns", (5, 2, 33)), ("_table_steering", (5, 2, 3, 33))]
    assert recorded_tables(monkeypatch, 0, 33, np.arange(1, 33)) == []


def test_antenna_block_covers_the_split_column_read(monkeypatch):
    # With at most half the array's splits the closed form reads L S
    # columns per user beside the S + 1 half-angle columns: one
    # (T, K, L, S) array a call, S <= M_BS / 2; with no NLOS path, none
    assert recorded_tables(monkeypatch, 3, 33, np.arange(1, 33, 2)) == [
        ("_table_columns", (5, 2, 17)), ("_table_columns", (5, 2, 3, 16))]
    assert recorded_tables(monkeypatch, 0, 33, np.arange(1, 33, 2)) == []


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
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
    # a cpuset or taskset leaves the process 2 of the host's 8 CPUs
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {1, 5},
                        raising=False)
    monte_carlo(4, evaluator, workers=10_000)
    assert pools == [2]
    # without affinity sets the host's count is the cap
    monkeypatch.delattr(experiments.os, "sched_getaffinity")
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
    monte_carlo(4, evaluator, workers=10_000)
    assert pools == [2, 3]
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: None)
    result = monte_carlo(4, evaluator, workers=10_000)
    assert pools == [2, 3] and result.mean[0] == 1.5


def test_monte_carlo_stderr_shrinks_like_root_n():
    evaluator = per_trial(lambda t: np.array([user_rng(7, t, 0).normal()]))
    small = monte_carlo(400, evaluator)
    large = monte_carlo(800, evaluator)
    ratio = large.stderr[0] / small.stderr[0]
    assert 1.0 / math.sqrt(2.0) * 0.8 < ratio < 1.0 / math.sqrt(2.0) * 1.2


def mixed_values(trials, shape, nan):
    """Values of mixed sign and scale, so that the order of the sums shows in
    the last bits; with ``nan`` one trial of the first column is NaN."""
    rng = np.random.default_rng(17)
    values = rng.standard_normal((trials,) + shape) * 10.0 ** rng.uniform(-3, 3, shape)
    if nan:
        values.reshape(trials, -1)[trials // 2, 0] = np.nan
    return values + 1e3 * rng.uniform(size=shape)


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("trials, shape, block, finish", [
    (1000, (31, 6), 300, False),  # the README antenna sweep's table, four blocks
    (100, (9, 4), 16, True),      # runs of blocks through finish
    (100, (1,), 100, False),      # one block; numpy sums this axis pairwise
    (257, (), 64, False),         # pairwise too, with a short last block
    (2, (3,), 64, False),         # the fewest trials with a standard error
])
def test_monte_carlo_has_the_bits_of_numpy_mean_and_std(monkeypatch, workers, nan, trials,
                                                        shape, block, finish):
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 40)
    values = mixed_values(trials, shape, nan)
    kept = values.copy()
    returned = []

    def evaluator(lo, hi):
        # finish gets complex blocks and returns a view of their imaginary part
        r = values[lo:hi] * 1j if finish else values[lo:hi].copy()
        returned.append((r, r.copy()))
        return r

    result = monte_carlo(trials, evaluator, workers, block=block,
                         finish=(lambda stacked: stacked.imag) if finish else None)
    expected = (values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(trials))
    for got, want in zip((result.mean, result.stderr), expected):
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == want.dtype
        np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                      np.asarray(want).view(np.int64))
    # the reduction writes over its own concatenation, never the evaluator's blocks
    assert len(returned) == -(-trials // block)
    for r, copy in returned:
        np.testing.assert_array_equal(r.view(np.int64), copy.view(np.int64))
    np.testing.assert_array_equal(values.view(np.int64), kept.view(np.int64))


@pytest.mark.parametrize("workers", [1, 3])
def test_monte_carlo_releases_a_run_s_blocks_before_finish(monkeypatch, workers):
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", 8)
    refs, runs = {}, []

    def evaluator(lo, hi):
        r = np.arange(lo, hi, dtype=np.float64)[:, None]
        refs[lo] = weakref.ref(r)
        return r

    def finish(stacked):
        # a pool thread drops its own reference just after handing a block over
        time.sleep(0.005)
        lo = int(stacked[0, 0])
        runs.append(sorted(t for t in refs if lo <= t < lo + len(stacked)))
        assert all(refs[t]() is None for t in runs[-1]), "a block outlived its run"
        return stacked

    monte_carlo(30, evaluator, workers, block=3, finish=finish)
    assert runs == [[0, 3, 6], [9, 12, 15], [18, 21, 24], [27]]


def test_monte_carlo_holds_about_two_copies_of_the_results():
    # the blocks and their concatenation; the standard error takes no third
    values = mixed_values(1000, (31, 6), False)

    def evaluator(lo, hi):
        return values[lo:hi].copy()

    tracemalloc.start()
    try:
        monte_carlo(len(values), evaluator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * values.nbytes


FAULTS_PER_CALL = """
import resource
from multibeam_noma import experiments
from multibeam_noma.channel import ScenarioConfig

# README sweep.cfg: 2 LOS-only users, ratio 5, m1 = 30:90:2, 1000 trials
spec = experiments.SweepSpec(
    kind="antennas", scenario=ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=1),
    trials=1000, values=tuple(range(30, 91, 2)), gain_ratio=5.0)
for _ in range(3):
    experiments.run_antenna_sweep(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    experiments.run_antenna_sweep(spec)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


def libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_antenna_sweep_reuses_its_block_memory():
    # in a fresh process, so that no earlier test has set the allocator up;
    # glibc's default thresholds give about 950 faults a call
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FAULTS_PER_CALL], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) <= 64


def test_keep_freed_blocks_without_mallopt_and_once_per_process(monkeypatch):
    calls = []

    class NoMallopt:
        def __init__(self, name):
            pass

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    class FakeLibc:
        # a plain function, which takes the argtypes and restype set on it
        def __init__(self, name):
            self.mallopt = mallopt

    keep = experiments._keep_freed_blocks
    keep.cache_clear()
    try:
        monkeypatch.setattr(experiments.ctypes, "CDLL", NoMallopt)
        keep()
        keep.cache_clear()
        monkeypatch.setattr(experiments.ctypes, "CDLL", FakeLibc)
        spec = SweepSpec(kind="antennas", scenario=TWO_USER_LOS, trials=3,
                         values=(30, 64), gain_ratio=5.0)
        for workers in (1, 2, 1):
            run_antenna_sweep(spec, workers)
        monte_carlo(4, per_trial(lambda t: np.array([float(t)])))
    finally:
        keep.cache_clear()
    assert calls == [(-3, 32 * 2 ** 20), (-1, 64 * 2 ** 20)]


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
    gains, aods, aoas = experiments._draw_block(scenario, lo, hi, gain_ratio)
    for t in range(lo, hi):
        users = drop_users(scenario, t, gain_ratio)
        for actual, name in ((gains, "gains"), (aods, "aods"), (aoas, "aoas")):
            assert_same_bits(actual[t - lo], np.array([getattr(u, name) for u in users]))
        mags, _, rows = dropped_arrays(scenario, t, gain_ratio)
        assert_same_bits(experiments._scalar_abs(gains[t - lo, :, 0]), mags)
        assert_same_bits(_kernels.vhh_row(gains[t - lo], aods[t - lo], aoas[t - lo],
                                          4, 32), rows)


def oracle_antenna_trials(spec, lo, hi):
    """The antenna evaluator on the row path, with one kernel call per trial:
    the block's v^H H rows, per-trial ``two_segment_sweep``, a one-segment
    ``segment_gains`` call per user and a 1-D threshold per trial.  The TDMA
    rate comes from one ``tdma_rates`` call per trial and the large-array
    columns from one scenario per trial over its (S, 2) splits, whose rows
    have the bits of one-split scenarios
    (``test_laws_over_drops_and_splits_match_one_drop_calls_bit_for_bit``)."""
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    pmax, noise = scenario.max_power_w, scenario.noise_w
    m1_values = np.asarray(spec.values, dtype=np.int64)
    splits = np.stack((m1_values, m_bs - m1_values), axis=-1)
    p_user = pmax / 2.0
    powers = np.array([p_user, p_user])
    offsets = np.zeros(1, dtype=np.int64)
    lengths = np.full(1, m_bs, dtype=np.int64)

    gains, aods, aoas = experiments._draw_block(scenario, lo, hi, spec.gain_ratio)
    mags = experiments._scalar_abs(gains[..., 0])
    rows = _kernels.vhh_row(gains, aods, aoas, m_ue, m_bs)
    cos_aods = np.cos(aods[..., 0])
    n = hi - lo
    h = np.empty((2, n, len(m1_values)), dtype=np.complex128)
    out = np.empty((n, len(m1_values), 6))
    for t in range(n):
        h[:, t] = _kernels.two_segment_sweep(rows[t], cos_aods[t, 0], cos_aods[t, 1],
                                             m1_values, m_bs)
        tdma_gains = np.empty(2)
        for k in range(2):
            (g,) = _kernels.segment_gains(rows[t][k:k + 1], cos_aods[t][k:k + 1],
                                          offsets, lengths, m_bs)
            tdma_gains[k] = abs(g) * abs(g)
        out[t, :, 1] = tdma_rates(tdma_gains, equal_time_shares(2), pmax, noise).system_sum
        m1_min = min_antennas_for_superiority(mags[t], m_bs)
        out[t, :, 4] = m_bs + 1 if m1_min is None else m1_min
        asym = AsymptoticScenario(mags[t], splits, m_ue, m_bs, pmax, powers, noise)
        out[t, :, 2] = strongest_user_rate_asymptotic(asym, pmax)
        out[t, :, 5] = sic_condition_asymptotic(asym)
        # the TDMA limit does not read the split
        out[t, :, 3] = tdma_sum_rate_asymptotic(asym)
    out[..., 0] = noma_rates_from_gains(np.abs(h) ** 2, powers, noise).sum(axis=0)
    return out


@pytest.mark.parametrize("m_bs,m_ue", [(256, 10), (128, 10), (64, 4), (32, 1)])
@pytest.mark.parametrize("num_nlos", [0, 1, 3, 30])
def test_antenna_evaluator_matches_per_trial_row_oracle(m_bs, m_ue, num_nlos):
    # The evaluator takes its channels from the closed form and the oracle
    # from the rows.  Columns 2-5 do not read the channels and keep their
    # bits.  Column 0 (NOMA sum rate) holds to 1e-10 relative (5.9e-12 seen)
    # and column 1 (TDMA rate) to 1e-14 (4.0e-16 seen).
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=num_nlos, bs_config=UlaConfig(m_bs),
                              ue_config=UlaConfig(m_ue), rng_seed=17)
    all_splits = tuple(range(1, m_bs))
    for gain_ratio in (None, 1.5, 5.0):
        for values in (all_splits, all_splits[3::7]):
            spec = SweepSpec("antennas", scenario, 100, values, gain_ratio=gain_ratio)
            # a full block, and one of 36 trials
            for lo, hi in ((0, 64), (64, 100)):
                got = experiments._antenna_trials(spec, lo, hi)
                want = oracle_antenna_trials(spec, lo, hi)
                assert_same_bits(got[..., 2:], want[..., 2:])
                np.testing.assert_allclose(got[..., 0], want[..., 0], rtol=1e-10, atol=0)
                np.testing.assert_allclose(got[..., 1], want[..., 1], rtol=1e-14, atol=0)


def oracle_power_trials(spec, alloc, offsets, pmax_w, powers, lo, hi):
    """The power evaluator with a per-row ``segment_gains`` loop over
    per-segment weights and the per-cluster single-beam baseline.  Returns
    the results and the baseline's cluster sizes."""
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    k = scenario.num_users
    shares = equal_time_shares(k)
    out = np.empty((hi - lo, len(pmax_w), 4))
    sizes = []
    for t in range(lo, hi):
        channels = drop_users(scenario, t)
        mags = experiments._scalar_abs(np.array([c.gains[0] for c in channels]))
        aods = np.array([c.aods[0] for c in channels])
        rows = np.array([_kernels.vhh_row(c.gains, c.aods, c.aoas, m_ue, m_bs)
                         for c in channels])
        cos_aods = np.cos(aods)
        w = oracle_segment_weights(cos_aods, alloc, m_bs)
        h = np.array([row[:len(w)] @ w for row in rows])
        split_mags = experiments._scalar_abs(h)
        tdma_gains = oracle_full_array_gains(rows, cos_aods, m_bs)
        asym = experiments._asym_scenario(mags, alloc, scenario, float(pmax_w[0]))
        pred = noma_gain(asym) if sic_condition_asymptotic(asym) else math.nan
        trial = out[t - lo]
        trial[:, 0] = noma_rates_from_gains(split_mags * split_mags, powers,
                                            scenario.noise_w).sum(axis=0)
        baseline, trial_sizes = per_cluster_baseline(aods, mags, m_ue, m_bs, k,
                                                     pmax_w, scenario.noise_w)
        trial[:, 1] = baseline.system_sum
        sizes += trial_sizes
        trial[:, 2] = np.log2(1.0 + pmax_w[:, None] * tdma_gains / scenario.noise_w) @ shares
        trial[:, 3] = pred
    return out, sizes


# (M_BS, M_UE, K, antenna_alloc); None is the default split.  On 16 elements
# the default split fits at most two users, so five and eight get explicit
# ones; (60, 20, 10, 5, 3) leaves 30 of 128 antennas unused.
POWER_ORACLE_CASES = [
    (128, 10, 1, None), (128, 10, 2, None), (128, 10, 5, None), (128, 10, 8, None),
    (128, 10, 5, (60, 20, 10, 5, 3)),
    (16, 4, 1, None), (16, 4, 2, None), (16, 4, 5, (4, 3, 3, 3, 3)),
    (16, 4, 8, (2, 2, 2, 2, 2, 2, 2, 2)),
]


@pytest.mark.parametrize("m_bs,m_ue,num_users,alloc", POWER_ORACLE_CASES)
@pytest.mark.parametrize("num_nlos", [0, 3])
def test_power_evaluator_matches_per_trial_oracle_bit_for_bit(m_bs, m_ue, num_users, alloc,
                                                              num_nlos):
    scenario = ScenarioConfig(num_users=num_users, num_nlos_paths=num_nlos,
                              bs_config=UlaConfig(m_bs), ue_config=UlaConfig(m_ue),
                              rng_seed=23)
    values = tuple(float(v) for v in range(30, 47, 2))
    spec = SweepSpec("power", scenario, 60, values, antenna_alloc=alloc)
    alloc = np.array(alloc or default_antenna_alloc(num_users, m_bs), dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(alloc)[:-1])).astype(np.int64)
    pmax_w = np.array([dbm_to_watt(v) for v in values])
    powers = np.tile(pmax_w / num_users, (num_users, 1))
    want, sizes = oracle_power_trials(spec, alloc, offsets, pmax_w, powers, 0, 60)
    obs = experiments._power_observations(spec, alloc, offsets,
                                          experiments._power_trials(spec, 0, 60))
    assert_same_bits(experiments._power_results(spec, alloc, pmax_w, powers, obs), want)
    if m_bs == 16 and num_users > 1:
        # a 6.4 deg beam: some drops put two or more users in one cluster
        assert max(sizes) > 1


@pytest.mark.parametrize("num_users", (1, 2, 5, 9))
def test_power_sweep_tdma_is_the_written_out_rate(num_users):
    # The TDMA column comes from rates.tdma_rates over (trial, budget, user)
    # arrays and keeps the bits of log2(1 + P g / sigma^2) @ shares, written
    # out here, at gains over eight decades and budgets of 20 to 60 dBm.
    rng = np.random.default_rng(70 + num_users)
    scenario = ScenarioConfig(num_users=num_users, num_nlos_paths=0, rng_seed=1)
    values = (20.0, 33.3, 46.0, 60.0)
    spec = SweepSpec("power", scenario, 100, values)
    alloc = np.array(default_antenna_alloc(num_users, 128), dtype=np.int64)
    pmax_w = np.array([dbm_to_watt(v) for v in values])
    powers = np.tile(pmax_w / num_users, (num_users, 1))
    obs = np.empty((100, 4, num_users))
    obs[:, :2] = 10.0 ** rng.uniform(-10.0, -2.0, size=(100, 2, num_users))
    obs[:, 2] = -np.sort(-(10.0 ** rng.uniform(-8.0, -5.0, size=(100, num_users))), axis=1)
    obs[:, 3] = rng.uniform(0.1, 3.0, size=(100, num_users))
    full = obs[:, 1]
    shares = np.full(num_users, 1.0 / num_users)
    want = np.log2(1.0 + pmax_w[:, None] * (full * full)[:, None] / scenario.noise_w) @ shares
    got = experiments._power_results(spec, alloc, pmax_w, powers, obs)[..., 2]
    assert_same_bits(got, want)
    # and each trial has the bits of a call on its drop alone, one (budgets, K)
    # matrix-vector product (a 1-D dot per budget may round differently)
    for t in range(100):
        one = tdma_rates(full[t] * full[t], equal_time_shares(num_users), pmax_w[:, None],
                         scenario.noise_w).system_sum
        assert_same_bits(got[t], one)


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
    for ratio in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gain ratio must be finite"):
            SweepSpec("antennas", TWO_USER_LOS, 1, (10,), gain_ratio=ratio)
    # a field that the sweep's kind does not read is an error, not ignored
    with pytest.raises(ValueError, match="does not take a gain ratio"):
        SweepSpec("power", TWO_USER_LOS, 1, (30.0,), gain_ratio=3.0)
    with pytest.raises(ValueError, match="does not take antenna_alloc"):
        SweepSpec("antennas", TWO_USER_LOS, 1, (10,), antenna_alloc=(1, 1))
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


def oracle_format_cell(value):
    """The per-cell rule of ``csv_text``."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def test_csv_text_matches_per_cell_rules():
    columns = {
        "bool": [True, False],
        "np_bool": [np.True_, np.False_],
        "int": [0, -7, 2 ** 70],
        "np_integer": [np.int64(-2 ** 63), np.uint64(2 ** 64 - 1), np.int32(5), np.int8(-3)],
        "float": [0.0, -0.0, math.inf, -math.inf, math.nan, 0.1234567891234, -1e-300,
                  5e-324, 1e22, 123456789.5],
        "np_float64": [np.float64(-0.0), np.float64(math.inf), np.float64(-math.nan),
                       np.float64(2.0 / 3.0), np.float64(-1e100)],
        "np_floating": [np.float32(0.1), np.float16(-2.5), np.longdouble(1) / 3],
    }
    n = max(map(len, columns.values()))
    rows = [tuple(values[i % len(values)] for values in columns.values()) for i in range(n)]
    table = SweepTable({"experiment": "cells"}, tuple(columns), rows)
    want = ["# experiment = cells", ",".join(columns)]
    want += [",".join(oracle_format_cell(c) for c in row) for row in rows]
    assert table.csv_text() == "\n".join(want) + "\n"
    assert SweepTable({}, ("a", "b"), []).csv_text() == "a,b\n"
    with pytest.raises(ValueError, match="one cell per header column"):
        SweepTable({}, ("a", "b"), [(1, 2.0), (3,)]).csv_text()
    # a column that mixes integers and floats, or holds anything else, has no
    # one format
    for other in ([3, 2.5, True, np.int64(9), np.float64(-0.0), np.bool_(False), 10 ** 12],
                  [np.int64(1), np.float64(1.0)], ["2.5", "1e400", "-0"], [1.5, "2"],
                  [None]):
        mixed = [(i, value) for i, value in enumerate(other)]
        with pytest.raises(ValueError, match="only integers or only floats"):
            SweepTable({}, ("i", "x"), mixed).csv_text()


def test_csv_text_takes_rows_as_lists():
    header = ("m1", "value", "flag")
    rows = [[4, 0.5, True], [8, 1e-12, False]]
    text = SweepTable({"a": 1}, header, rows).csv_text()
    assert text == "# a = 1\nm1,value,flag\n4,0.5,1\n8,1e-12,0\n"
    assert text == SweepTable({"a": 1}, header, list(map(tuple, rows))).csv_text()
    # a column that takes no one format is refused
    mixed = [[1, 2.5], [2.5, np.int64(3)]]
    with pytest.raises(ValueError, match="only integers or only floats"):
        SweepTable({}, ("x", "y"), mixed).csv_text()


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


def test_run_antenna_sweep_rejects_a_power_spec(tmp_path):
    # the budgets would be read as antenna counts
    spec = SweepSpec("power", TWO_USER_LOS, trials=1, values=(30.0, 40.0))
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="takes an 'antennas' spec, got 'power'"):
        run_antenna_sweep(spec, out_path=str(out))
    assert not out.exists()


def test_run_power_sweep_rejects_an_antenna_spec(tmp_path):
    # the gain ratio would be dropped without a word
    spec = SweepSpec("antennas", TWO_USER_LOS, trials=1, values=(30, 40), gain_ratio=5.0)
    out = tmp_path / "sweep.csv"
    with pytest.raises(ValueError, match="takes a 'power' spec, got 'antennas'"):
        run_power_sweep(spec, out_path=str(out))
    assert not out.exists()


MONTE_CARLO = experiments.monte_carlo
DEFAULT_BLOCK = experiments.TRIAL_BLOCK
ANTENNA_BLOCK = experiments._antenna_block


def sweep_with_trial_data(monkeypatch, run, spec, workers, block=None):
    """The sweep's CSV text, its per-trial results stacked in trial order and
    the trial ranges its evaluator was called with.

    ``TRIAL_BLOCK`` and the antenna sweep's block rule both give ``block``
    trials, or their own sizes if ``block`` is None.
    """
    monkeypatch.setattr(experiments, "TRIAL_BLOCK", DEFAULT_BLOCK if block is None else block)
    monkeypatch.setattr(experiments, "_antenna_block",
                        ANTENNA_BLOCK if block is None else lambda scenario, num_splits: block)
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
    text, data, _ = sweep_with_trial_data(monkeypatch, run, spec, 1)
    assert data.shape[0] == trials
    for block in (1, 7, None):
        for workers in (1, 3):
            other_text, other_data, ranges = sweep_with_trial_data(monkeypatch, run, spec,
                                                                   workers, block)
            assert other_text == text, (block, workers)
            assert_same_bits(other_data, data)
            # the power sweep runs one trial per block whatever TRIAL_BLOCK is
            if kind == "power":
                size = 1
            else:
                size = ANTENNA_BLOCK(scenario, 3) if block is None else block
            assert ranges == [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    if kind == "power":
        # its evaluator gives the same rows over a range of several trials,
        # and its second stage the same results over all of them as trial by
        # trial
        alloc = np.array(default_antenna_alloc(num_users, 128))
        offsets = np.concatenate(([0], np.cumsum(alloc)[:-1]))
        pmax_w = np.array([dbm_to_watt(v) for v in spec.values])
        powers = np.tile(pmax_w / num_users, (num_users, 1))
        block = experiments._power_trials(spec, 0, trials)
        assert_same_bits(block, data)

        def second_stage(rows):
            obs = experiments._power_observations(spec, alloc, offsets, rows)
            return experiments._power_results(spec, alloc, pmax_w, powers, obs)

        results = second_stage(block)
        assert results.shape == (trials, len(spec.values), 4)
        assert_same_bits(results, np.concatenate([second_stage(data[t:t + 1])
                                                  for t in range(trials)]))


def oracle_beam_pattern_rows(angles, split, full):
    floor = 1e-20
    return [(math.degrees(a), 20.0 * math.log10(max(split[i], floor)),
             20.0 * math.log10(max(full[i], floor))) for i, a in enumerate(angles)]


@pytest.mark.parametrize("nulls", [False, True])
def test_run_beam_pattern_rows_match_per_row_oracle_within_4_ulp(monkeypatch, nulls):
    pattern_mags = _kernels.pattern_mags
    seen = []

    def recording(weights, cos_angles):
        mags = pattern_mags(weights, cos_angles)
        for j in range(mags.shape[1]):
            assert_same_bits(mags[:, j], oracle_pattern_mags(
                np.ascontiguousarray(weights[:, j]), cos_angles))
        if nulls:
            # exact nulls under the 1e-20 floor, the smallest denormal, and a NaN
            mags[::7] = 0.0
            mags[1::7] = 5e-324
            mags[5, 1] = math.nan
        seen.append(mags)
        return mags

    monkeypatch.setattr(_kernels, "pattern_mags", recording)
    table = run_beam_pattern(BeamPatternConfig())
    (mags,) = seen
    want = oracle_beam_pattern_rows(default_angle_grid(2048), mags[:, 0], mags[:, 1])
    assert all(type(c) is float for row in table.rows for c in row)
    got, want = np.array(table.rows), np.array(want)
    assert_same_bits(got[:, 0], want[:, 0])
    # np.log10 may differ from math.log10 in the last bits (2 ulp at most
    # seen); the floor cells (-400 dB) and a NaN are exact
    exact = (mags < 1e-20) | np.isnan(mags)
    assert exact.any() == nulls
    assert_same_bits(got[:, 1:][exact], want[:, 1:][exact])
    near = got[:, 1:][~exact] - want[:, 1:][~exact]
    assert (np.abs(near) <= 4 * np.spacing(np.abs(want[:, 1:][~exact]))).all()
    assert math.isnan(table.rows[5][2]) == nulls


def test_beam_pattern_config_validation():
    with pytest.raises(InfeasibleSpecError, match="steering angle"):
        BeamPatternConfig(split_lengths=(50,), split_angles_deg=(70.0, 90.0))
    with pytest.raises(InfeasibleSpecError, match="positive"):
        BeamPatternConfig(split_lengths=(0, 50), split_angles_deg=(70.0, 90.0))
    with pytest.raises(InfeasibleSpecError, match="exceed"):
        BeamPatternConfig(split_lengths=(100, 100))
    with pytest.raises(InfeasibleSpecError, match="at least one segment"):
        BeamPatternConfig(split_lengths=(), split_angles_deg=())
    with pytest.raises(InfeasibleSpecError, match="grid"):
        BeamPatternConfig(num_points=1)
    # the grid holds num_points + 2 float64 values before its ends are cut,
    # and numpy must be able to size it
    largest = MAX_FLOAT64_ELEMENTS - 2
    BeamPatternConfig(num_points=largest)
    for count in (largest + 1, 10 ** 19):
        with pytest.raises(ValueError, match="angle_points = .* is too large"):
            BeamPatternConfig(num_points=count)
    for angles in ({"full_angle_deg": 200.0}, {"full_angle_deg": 0.0},
                   {"full_angle_deg": math.nan}, {"split_angles_deg": (70.0, 180.0)}):
        with pytest.raises(InfeasibleSpecError, match=r"\(0, 180\)"):
            BeamPatternConfig(**angles)
    # an empty array is a config error before any segment is checked
    for size in (0, -3):
        with pytest.raises(ValueError, match="at least one element"):
            BeamPatternConfig(bs_antennas=size)


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
