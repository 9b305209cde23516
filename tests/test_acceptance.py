"""End-to-end acceptance checks for the whole package.

Each test exercises one numbered criterion against the stated tolerance and
prints a single ``criterion N: PASS/FAIL - detail`` line (run with ``pytest -s``
to see them).  Criteria with a runtime budget assert on wall-clock time too;
the session-wide kernel warmup fixture keeps JIT compilation out of the clock.
"""

import math
import time

import numpy as np

from multibeam_noma.asymptotic import (
    AsymptoticScenario,
    asymptotic_sum_rate,
    noma_gain,
    tdma_sum_rate_asymptotic,
)
from multibeam_noma.beams import (
    GroupPlan,
    beam_pattern,
    default_angle_grid,
    rf_chain_precoder,
    user_combiner,
)
from multibeam_noma.channel import (
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    dbm_to_watt,
)
from multibeam_noma.effective import (
    effective_asymptotic,
    effective_channel_matrix,
    effective_closed_form,
    effective_direct,
    tdma_effective_gain,
)
from multibeam_noma.experiments import (
    SweepSpec,
    drop_users,
    run_antenna_sweep,
    run_beam_pattern,
    run_power_sweep,
)
from multibeam_noma.rates import (
    SicOrder,
    equal_time_shares,
    noma_rates_from_gains,
    system_sum_rate,
    tdma_rates,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _plan(alloc, m_bs, budget=1.0):
    alloc = np.asarray(alloc, dtype=np.int64).reshape(-1, 1)
    k = alloc.shape[0]
    return GroupPlan(np.ones((k, 1), dtype=np.int64), alloc,
                     np.full((k, 1), budget / k), k, m_bs, budget)


def _los_only(gain, aod, aoa, m_ue, m_bs):
    return UserChannel([gain], [aod], [aoa], UlaConfig(m_ue), UlaConfig(m_bs))


def _random_channel(rng, m_ue, m_bs, num_nlos):
    gains, aods, aoas = [], [], []
    for path in range(1 + num_nlos):
        gain = complex(rng.normal(), rng.normal())
        gains.append(gain if path == 0 else gain * 0.3)
        aods.append(rng.uniform(0.05, math.pi - 0.05))
        aoas.append(rng.uniform(0.05, math.pi - 0.05))
    return UserChannel(gains, aods, aoas, UlaConfig(m_ue), UlaConfig(m_bs))


def test_criterion_1_closed_form_matches_direct_product():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        m_ue = int(rng.integers(1, 9))
        m_bs = int(rng.integers(16, 129))
        alloc = rng.integers(1, m_bs // k + 1, size=k)
        channels = [_random_channel(rng, m_ue, m_bs, int(rng.integers(0, 5)))
                    for _ in range(k)]
        aods = np.array([ch.aods[0] for ch in channels])
        plan = _plan(alloc, m_bs)
        precoder = rf_chain_precoder(plan, 0, aods)
        for ch in channels:
            direct = effective_direct(ch, user_combiner(m_ue, ch.aoas[0]), precoder)
            closed = effective_closed_form(ch, plan, 0, aods)
            worst = max(worst, abs(closed - direct) / abs(direct))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 10.0
    _report(1, ok, f"1000 instances, worst rel err {worst:.3e} < 1e-9, {elapsed:.1f}s")


def test_criterion_2_asymptotic_error_shrinks_with_array_size():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    sizes = (128, 512, 2048, 8192)
    errs = np.zeros(len(sizes))
    for _ in range(20):
        while True:
            aods = rng.uniform(0.05, math.pi - 0.05, size=2)
            if abs(math.cos(aods[0]) - math.cos(aods[1])) > 0.1:
                break
        aoas = rng.uniform(0.05, math.pi - 0.05, size=2)
        mags = np.sort(rng.uniform(0.2, 1.0, size=2))[::-1]
        for i, m_bs in enumerate(sizes):
            m1 = int(round(0.6 * m_bs))
            alloc = (m1, m_bs - m1)
            plan = _plan(alloc, m_bs)
            for u in range(2):
                ch = _los_only(mags[u], aods[u], aoas[u], 10, m_bs)
                exact = abs(effective_closed_form(ch, plan, 0, aods))
                asym = abs(effective_asymptotic(mags[u], 10, m_bs, alloc[u]))
                errs[i] += abs(exact - asym) / asym
    errs /= 40.0
    elapsed = time.monotonic() - start
    ok = bool((np.diff(errs) < 0).all()) and errs[-1] < 0.01 and elapsed < 30.0
    seq = "/".join(f"{e:.2e}" for e in errs)
    _report(2, ok, f"mean rel err {seq} decreasing, last < 1%, {elapsed:.1f}s")


def test_criterion_3_high_snr_two_user_rates_follow_power_ratio_law():
    start = time.monotonic()
    m_bs, m_ue = 2048, 10
    gains = (1e-6, 5e-7)
    aods = np.radians([70.0, 110.0])
    aoas = np.radians([60.0, 100.0])
    pmax = dbm_to_watt(46.0)
    noise = dbm_to_watt(-88.0)
    alloc = (1200, 848)
    channels = [_los_only(gains[u], aods[u], aoas[u], m_ue, m_bs) for u in range(2)]
    plan = _plan(alloc, m_bs, budget=pmax)
    eff = effective_channel_matrix(channels, plan, aods)
    report = system_sum_rate(eff, plan, SicOrder((0, 1)), noise)
    scen = AsymptoticScenario(np.array(gains), np.array(alloc), m_ue, m_bs,
                              pmax, np.full(2, pmax / 2), noise)
    predicted_sum = asymptotic_sum_rate(scen)
    weak_snr_db = 10 * math.log10(pmax * eff.gains_sq[1, 0] / noise)
    sum_diff = abs(report.system_sum - predicted_sum)
    weak_diff = abs(report.per_user[1] - 1.0)
    elapsed = time.monotonic() - start
    ok = weak_snr_db >= 40.0 and sum_diff < 0.1 and weak_diff < 0.05 and elapsed < 10.0
    _report(3, ok, f"weak SNR {weak_snr_db:.1f} dB, sum diff {sum_diff:.1e} < 0.1, "
                   f"weak-user diff {weak_diff:.1e} < 0.05, {elapsed:.1f}s")


def test_criterion_4_noma_tdma_crossing_matches_predicted_threshold():
    start = time.monotonic()
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=1)
    details = []
    ok = True
    for ratio, lo, hi, predicted in ((5.0, 50, 66, 58), (10.0, 33, 49, 41)):
        spec = SweepSpec("antennas", scenario, trials=1000,
                         values=tuple(range(lo, hi + 1)), gain_ratio=ratio)
        table = run_antenna_sweep(spec, workers=4)
        noma = table.column("noma_sum_mean")
        tdma = table.column("tdma_sum_mean")
        above = np.nonzero(noma >= tdma)[0]
        crossing = int(table.column("m1")[above[0]]) if above.size else -1
        ok = ok and abs(crossing - predicted) <= 2
        details.append(f"ratio {ratio:g} crossing {crossing} vs {predicted}+-2")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    _report(4, ok, f"{', '.join(details)}, 1000 trials, {elapsed:.1f}s")


def test_criterion_5_gain_identity_and_monte_carlo_agreement():
    start = time.monotonic()
    rng = np.random.default_rng(41)
    worst_identity = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 5))
        g = np.sort(rng.uniform(0.1, 1.0, size=k))[::-1].copy()
        alloc = np.concatenate(([int(rng.integers(50, 108))], np.full(k - 1, 7)))
        pmax = float(rng.uniform(0.5, 50.0))
        noise = float(rng.uniform(1e-12, 1e-6))
        scen = AsymptoticScenario(g, alloc, 10, 128, pmax,
                                  np.full(k, pmax / k), noise)
        gap = asymptotic_sum_rate(scen) - tdma_sum_rate_asymptotic(scen)
        worst_identity = max(worst_identity, abs(noma_gain(scen) - gap))

    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0,
                              noise_w=dbm_to_watt(-105.0), rng_seed=1)
    m_ue = scenario.ue_config.num_antennas
    m_bs = scenario.bs_config.num_antennas
    alloc = np.array([100, 28])
    pmax, noise = scenario.max_power_w, scenario.noise_w
    plan = _plan(alloc, m_bs, budget=pmax)
    trials = 2000
    gaps = np.empty(trials)
    preds = np.empty(trials)
    min_snr_db = math.inf
    for t in range(trials):
        channels = drop_users(scenario, t)
        mags = np.array([abs(ch.gains[0]) for ch in channels])
        aods = np.array([ch.aods[0] for ch in channels])
        gains_sq = effective_channel_matrix(channels, plan, aods).gains_sq[:, 0]
        noma = noma_rates_from_gains(gains_sq, np.full(2, pmax / 2), noise).sum()
        full_gains = np.array([tdma_effective_gain(m, m_ue, m_bs) for m in mags])
        tdma = tdma_rates(full_gains, equal_time_shares(2), pmax, noise).system_sum
        gaps[t] = noma - tdma
        preds[t] = noma_gain(AsymptoticScenario(mags, alloc, m_ue, m_bs, pmax,
                                                np.full(2, pmax / 2), noise))
        min_snr_db = min(min_snr_db, 10 * math.log10(pmax * gains_sq.min() / noise))
    mc_diff = abs(gaps.mean() - preds.mean())
    elapsed = time.monotonic() - start
    ok = (worst_identity <= 1e-9 and min_snr_db >= 40.0 and mc_diff <= 0.2
          and elapsed < 60.0)
    _report(5, ok, f"identity worst {worst_identity:.1e} <= 1e-9, "
                   f"MC gap vs predicted diff {mc_diff:.4f} <= 0.2 "
                   f"(min SNR {min_snr_db:.1f} dB), {elapsed:.1f}s")


def test_criterion_6_power_sweep_gap_flat_and_ordered():
    start = time.monotonic()
    scenario = ScenarioConfig(num_users=5, num_nlos_paths=30, rng_seed=1)
    spec = SweepSpec("power", scenario, trials=1000,
                     values=tuple(float(v) for v in range(30, 47, 2)),
                     antenna_alloc=(100, 7, 7, 7, 7))
    table = run_power_sweep(spec, workers=4)
    noma = table.column("noma_sum_mean")
    baseline = table.column("baseline_sum_mean")
    tdma = table.column("tdma_sum_mean")
    gap = noma - tdma
    half_spread = (gap.max() - gap.min()) / 2.0
    baseline_dev = np.abs(baseline - tdma).max()
    ordered = bool((noma > baseline).all() and (noma > tdma).all())
    elapsed = time.monotonic() - start
    ok = half_spread <= 0.2 and baseline_dev <= 0.5 and ordered and elapsed < 300.0
    _report(6, ok, f"gap {gap.min():.3f}..{gap.max():.3f} flat within "
                   f"+-{half_spread:.3f} <= 0.2, |baseline-tdma| max "
                   f"{baseline_dev:.3f} <= 0.5, ordering {ordered}, {elapsed:.1f}s")


def test_criterion_7_beam_peaks_sit_on_their_steering_angles():
    grid = default_angle_grid(2048)
    step_deg = math.degrees(grid[1] - grid[0])
    peak_ok = True
    peak_bits = []
    for m_seg, steer_deg in ((50, 70.0), (78, 90.0), (128, 120.0)):
        plan = _plan((m_seg,), 128)
        precoder = rf_chain_precoder(plan, 0, np.array([math.radians(steer_deg)]))
        mags = beam_pattern(precoder, grid)
        peak = math.degrees(grid[np.argmax(mags)])
        peak_ok = peak_ok and abs(peak - steer_deg) <= step_deg
        peak_bits.append(f"{steer_deg:g}->{peak:.3f}")

    full = rf_chain_precoder(_plan((128,), 128), 0, np.array([math.radians(120.0)]))
    peak_mag = beam_pattern(full, np.array([math.radians(120.0)]))[0]
    mag_ok = abs(peak_mag - math.sqrt(128.0)) <= 1e-9

    target = peak_mag / math.sqrt(2.0)

    def half_power_crossing(lo_deg, hi_deg):
        def excess(deg):
            return beam_pattern(full, np.array([math.radians(deg)]))[0] - target
        f_lo = excess(lo_deg)
        for _ in range(80):
            mid = 0.5 * (lo_deg + hi_deg)
            f_mid = excess(mid)
            if f_lo * f_mid <= 0:
                hi_deg = mid
            else:
                lo_deg, f_lo = mid, f_mid
        return 0.5 * (lo_deg + hi_deg)

    width = half_power_crossing(120.0, 121.0) - half_power_crossing(119.0, 120.0)
    expected_width = 102.1 / 128.0
    width_ok = abs(width - expected_width) <= 0.15 * expected_width
    ok = peak_ok and mag_ok and width_ok
    _report(7, ok, f"peaks {', '.join(peak_bits)} within {step_deg:.3f} deg, "
                   f"peak mag {peak_mag:.12f} = sqrt(128) +- 1e-9, "
                   f"3 dB width {width:.4f} vs {expected_width:.4f} +- 15%")


def test_criterion_8_sweeps_are_byte_identical_across_workers():
    antenna_spec = SweepSpec("antennas",
                             ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=1),
                             trials=50, values=(20, 40, 60))
    antenna_same = (run_antenna_sweep(antenna_spec, workers=1).csv_text()
                    == run_antenna_sweep(antenna_spec, workers=4).csv_text())
    power_spec = SweepSpec("power",
                           ScenarioConfig(num_users=3, num_nlos_paths=5, rng_seed=2),
                           trials=25, values=(40.0, 46.0))
    power_same = (run_power_sweep(power_spec, workers=1).csv_text()
                  == run_power_sweep(power_spec, workers=3).csv_text())
    ok = antenna_same and power_same
    _report(8, ok, f"antenna sweep identical {antenna_same}, "
                   f"power sweep identical {power_same} across worker counts")
