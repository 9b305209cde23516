"""Seeded Monte Carlo experiments and their CSV emitters.

Every trial derives its own RNG substream from (master seed, trial index,
user index), and aggregation folds the per-trial results in trial order,
so a sweep produces byte-identical CSV no matter how many worker threads
ran it.  CSV files start with '# key = value' comment lines carrying the
scenario, so each file can be recomputed in isolation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import _kernels
from .asymptotic import (
    AsymptoticScenario,
    min_antennas_for_superiority,
    noma_gain,
    sic_condition_asymptotic,
)
from .beams import GroupPlan, rf_chain_precoder
from .channel import (
    MIN_USER_DISTANCE_M,
    ScenarioConfig,
    UserChannel,
    dbm_to_watt,
    generate_user_channel,
    paths_as_arrays,
    user_rng,
)
from .rates import equal_time_shares, noma_rates_from_gains, single_beam_noma_baseline


class InfeasibleSpecError(Exception):
    """The requested experiment cannot be realized (bad split, wrong K, ...)."""


@dataclass(frozen=True)
class DroppedUser:
    distance_m: float
    channel: UserChannel


def drop_users(scenario: ScenarioConfig, trial_index: int = 0,
               gain_ratio: float | None = None,
               master_seed: int | None = None) -> list[DroppedUser]:
    """Place the scenario's users in the cell and draw their channels.

    Distances are uniform over the cell area (density proportional to d)
    with a 10 m exclusion around the base station.  The result is sorted
    by descending LOS power; ties keep the draw order.  ``gain_ratio``
    rescales the weaker user of a two-user drop so the LOS magnitude
    ratio is pinned exactly.
    """
    seed = scenario.rng_seed if master_seed is None else master_seed
    users = []
    for k in range(scenario.num_users):
        rng = user_rng(seed, trial_index, k)
        d = math.sqrt(rng.uniform(MIN_USER_DISTANCE_M ** 2, scenario.cell_radius_m ** 2))
        users.append(DroppedUser(d, generate_user_channel(rng, d, scenario)))
    users.sort(key=lambda u: -abs(u.channel.los.gain) ** 2)
    if gain_ratio is not None:
        if scenario.num_users != 2:
            raise InfeasibleSpecError("a pinned gain ratio needs exactly two users")
        if gain_ratio < 1.0:
            raise InfeasibleSpecError("gain ratio must be >= 1 (strong over weak)")
        target = abs(users[0].channel.los.gain) / gain_ratio
        factor = target / abs(users[1].channel.los.gain)
        users[1] = DroppedUser(users[1].distance_m, users[1].channel.scaled(factor))
    return users


@dataclass(frozen=True)
class MonteCarloResult:
    mean: np.ndarray
    stderr: np.ndarray
    trials: int


def monte_carlo(trials: int, evaluator: Callable[[int], np.ndarray],
                workers: int = 1) -> MonteCarloResult:
    """Evaluate ``evaluator(trial_index)`` for every trial and aggregate.

    Trials are independent and may run on a thread pool of at most
    ``os.cpu_count()`` threads; results are stacked in trial order before
    the mean/standard-error reduction, so the outcome does not depend on
    ``workers``.  With one trial the standard error is reported as zero.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    workers = min(workers, os.cpu_count() or 1)
    indices = range(trials)
    if workers <= 1:
        results = [np.asarray(evaluator(t), dtype=np.float64) for t in indices]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [np.asarray(r, dtype=np.float64) for r in pool.map(evaluator, indices)]
    data = np.stack(results, axis=0)
    mean = data.mean(axis=0)
    if trials > 1:
        stderr = data.std(axis=0, ddof=1) / math.sqrt(trials)
    else:
        stderr = np.zeros_like(mean)
    return MonteCarloResult(mean, stderr, trials)


def default_antenna_alloc(num_users: int, bs_antennas: int) -> tuple[int, ...]:
    """Default split: every weaker user gets 7 antennas, the strongest
    the remainder (e.g. (100, 7, 7, 7, 7) on a 128-element array)."""
    if num_users == 1:
        return (bs_antennas,)
    rest = 7
    first = bs_antennas - rest * (num_users - 1)
    if first < 1:
        raise InfeasibleSpecError(
            f"{num_users} users do not fit a {bs_antennas}-antenna array with the default split")
    return (first,) + (rest,) * (num_users - 1)


def single_chain_plan(scenario: ScenarioConfig, antenna_alloc: Sequence[int],
                      max_group_size: int | None = None) -> GroupPlan:
    """All users NOMA-grouped on one RF chain with equal transmit power."""
    k = scenario.num_users
    alloc = np.asarray(antenna_alloc, dtype=np.int64).reshape(k, 1)
    powers = np.full((k, 1), scenario.max_power_w / k)
    return GroupPlan(
        scheduling=np.ones((k, 1), dtype=np.int64),
        antenna_alloc=alloc,
        power_alloc=powers,
        max_group_size=k if max_group_size is None else max_group_size,
        bs_antennas=scenario.bs_config.num_antennas,
        max_power_w=scenario.max_power_w,
    )


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: what to vary, over how many seeded trials."""

    kind: str
    scenario: ScenarioConfig
    trials: int
    values: tuple
    gain_ratio: float | None = None
    antenna_alloc: tuple[int, ...] | None = None
    max_group_size: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("antennas", "power"):
            raise ValueError(f"unknown sweep kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if len(self.values) == 0:
            raise InfeasibleSpecError("sweep needs at least one value")
        if self.gain_ratio is not None and not math.isfinite(self.gain_ratio):
            raise ValueError(f"gain ratio must be finite, got {self.gain_ratio}")
        m_bs = self.scenario.bs_config.num_antennas
        if self.kind == "antennas":
            if self.scenario.num_users != 2:
                raise InfeasibleSpecError("the antenna sweep is defined for two users")
            vals = np.asarray(self.values, dtype=np.int64)
            if (vals < 1).any() or (vals > m_bs - 1).any():
                raise InfeasibleSpecError("antenna counts must leave both users a segment")
        else:
            for dbm in self.values:
                if not math.isfinite(dbm) or dbm_to_watt(float(dbm)) <= 0.0:
                    raise ValueError(f"power budget {dbm} dBm is not a positive finite power")
            alloc = self.antenna_alloc
            if alloc is not None:
                if len(alloc) != self.scenario.num_users:
                    raise InfeasibleSpecError("antenna_alloc needs one entry per user")
                if any(a < 1 for a in alloc) or sum(alloc) > m_bs:
                    raise InfeasibleSpecError("antenna_alloc must be positive and fit the array")
        if self.max_group_size is not None and self.max_group_size < self.scenario.num_users:
            raise InfeasibleSpecError("max_group_size too small to schedule every user")


@dataclass(frozen=True)
class SweepTable:
    meta: dict
    header: tuple[str, ...]
    rows: list[tuple]

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([row[i] for row in self.rows], dtype=np.float64)

    def csv_text(self) -> str:
        lines = [f"# {key} = {value}" for key, value in self.meta.items()]
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_format_cell(c) for c in row))
        return "\n".join(lines) + "\n"


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


def write_table(table: SweepTable, out_path: str) -> None:
    with open(out_path, "w", newline="\n") as fh:
        fh.write(table.csv_text())


def _scenario_meta(scenario: ScenarioConfig) -> dict:
    return {
        "num_users": scenario.num_users,
        "num_nlos_paths": scenario.num_nlos_paths,
        "cell_radius_m": _format_cell(scenario.cell_radius_m),
        "bs_antennas": scenario.bs_config.num_antennas,
        "ue_antennas": scenario.ue_config.num_antennas,
        "pmax_w": _format_cell(scenario.max_power_w),
        "noise_w": _format_cell(scenario.noise_w),
        "seed": scenario.rng_seed,
    }


def _user_arrays(users: Sequence[DroppedUser]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LOS gain magnitudes, LOS departure angles, and v^H H rows per user."""
    # scalar abs: numpy's vectorized complex abs differs from it in the last bit
    mags = np.array([abs(u.channel.los.gain) for u in users])
    aods = np.array([u.channel.los.aod for u in users])
    scenario_ue = users[0].channel.ue_config.num_antennas
    scenario_bs = users[0].channel.bs_config.num_antennas
    rows = [
        _kernels.vhh_row(*paths_as_arrays(u.channel), scenario_ue, scenario_bs)
        for u in users
    ]
    return mags, aods, rows


def _full_array_gains(rows, cos_aods, m_bs: int) -> np.ndarray:
    """|v^H H w|^2 with a full-array beam matched to each user's own LOS."""
    gains = np.empty(len(rows))
    offsets = np.zeros(1, dtype=np.int64)
    lengths = np.full(1, m_bs, dtype=np.int64)
    for k, row in enumerate(rows):
        h = _kernels.segment_gains(row, cos_aods[k:k + 1], offsets, lengths, m_bs)
        gains[k] = abs(h) ** 2
    return gains


def run_antenna_sweep(spec: SweepSpec, workers: int = 1,
                      out_path: str | None = None) -> SweepTable:
    """Two-user sweep over the strongest user's antenna share M_1.

    Per trial the same drop is reused across every split, so the NOMA and
    TDMA curves share their randomness.  The asymptotic columns average
    the per-drop closed forms; ``superiority_threshold`` averages the
    per-drop minimum M_1 (drops where even the full array cannot beat
    TDMA count as M_BS + 1); ``feasible_fraction`` is the share of drops
    satisfying the asymptotic SIC ordering at each split.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    m1_values = np.asarray(spec.values, dtype=np.int64)
    m2_values = m_bs - m1_values
    p_user = scenario.max_power_w / 2.0
    rho = 1.0 / scenario.noise_w

    def evaluate(trial: int) -> np.ndarray:
        users = drop_users(scenario, trial, spec.gain_ratio)
        mags, aods, rows = _user_arrays(users)
        cos_aods = np.cos(aods)
        h1 = _kernels.two_segment_sweep(rows[0], cos_aods[0], cos_aods[1], m1_values, m_bs)
        h2 = _kernels.two_segment_sweep(rows[1], cos_aods[0], cos_aods[1], m1_values, m_bs)
        gains_sq = np.abs(np.stack([h1, h2])) ** 2
        noma = noma_rates_from_gains(gains_sq, np.array([p_user, p_user]),
                                     scenario.noise_w).sum(axis=0)
        tdma_gains = _full_array_gains(rows, cos_aods, m_bs)
        tdma = float(np.mean(np.log2(1.0 + scenario.max_power_w * tdma_gains * rho)))
        noma_asym = np.log2(scenario.max_power_w * mags[0] ** 2 * m_ue
                            * m1_values.astype(np.float64) ** 2 * rho / m_bs)
        tdma_asym = float(np.mean(np.log2(scenario.max_power_w * mags ** 2 * m_ue * m_bs * rho)))
        threshold = min_antennas_for_superiority(mags, m_bs)
        threshold = float(m_bs + 1 if threshold is None else threshold)
        feasible = (mags[0] * m1_values >= mags[1] * m2_values).astype(np.float64)
        out = np.empty((len(m1_values), 6))
        out[:, 0] = noma
        out[:, 1] = tdma
        out[:, 2] = noma_asym
        out[:, 3] = tdma_asym
        out[:, 4] = threshold
        out[:, 5] = feasible
        return out

    result = monte_carlo(spec.trials, evaluate, workers)
    header = ("m1", "m2", "noma_sum_mean", "noma_sum_stderr", "tdma_sum_mean",
              "tdma_sum_stderr", "noma_asymptotic", "tdma_asymptotic",
              "superiority_threshold", "feasible_fraction")
    rows = []
    for i, m1 in enumerate(m1_values):
        rows.append((int(m1), int(m2_values[i]),
                     result.mean[i, 0], result.stderr[i, 0],
                     result.mean[i, 1], result.stderr[i, 1],
                     result.mean[i, 2], result.mean[i, 3],
                     result.mean[i, 4], result.mean[i, 5]))
    meta = {"experiment": "antenna_sweep", **_scenario_meta(scenario),
            "trials": spec.trials,
            "gain_ratio": "none" if spec.gain_ratio is None else _format_cell(spec.gain_ratio)}
    table = SweepTable(meta, header, rows)
    if out_path is not None:
        write_table(table, out_path)
    return table


def run_power_sweep(spec: SweepSpec, workers: int = 1,
                    out_path: str | None = None) -> SweepTable:
    """Sweep the power budget with a fixed antenna split.

    Compares multi-beam NOMA against the single-beam NOMA baseline and
    equal-share TDMA, all at equal per-user power/time.  The channel draw
    is shared across budget points inside a trial.  ``predicted_gain`` is
    the per-drop asymptotic NOMA-over-TDMA gap averaged over trials (it
    does not depend on the budget).
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    k = scenario.num_users
    alloc = spec.antenna_alloc
    if alloc is None:
        alloc = default_antenna_alloc(k, m_bs)
    alloc_arr = np.asarray(alloc, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(alloc_arr)[:-1])).astype(np.int64)
    pmax_dbm = np.asarray(spec.values, dtype=np.float64)
    pmax_w = np.array([dbm_to_watt(v) for v in pmax_dbm])
    group_size = k if spec.max_group_size is None else spec.max_group_size
    shares = equal_time_shares(k)
    powers = np.tile(pmax_w / k, (k, 1))   # equal split of every budget

    def evaluate(trial: int) -> np.ndarray:
        users = drop_users(scenario, trial)
        mags, aods, rows = _user_arrays(users)
        cos_aods = np.cos(aods)
        split_gains = np.empty(k)
        for j, row in enumerate(rows):
            h = _kernels.segment_gains(row, cos_aods, offsets, alloc_arr, m_bs)
            split_gains[j] = abs(h) ** 2
        tdma_gains = _full_array_gains(rows, cos_aods, m_bs)
        asym = _asym_scenario(mags, alloc_arr, scenario, float(pmax_w[0]))
        pred = noma_gain(asym) if sic_condition_asymptotic(asym) else math.nan
        out = np.empty((len(pmax_w), 4))
        # (budget, user) rows, summed along the user axis like a (K,) vector
        noma = noma_rates_from_gains(split_gains, powers, scenario.noise_w).T.copy()
        out[:, 0] = noma.sum(axis=1)
        out[:, 1] = single_beam_noma_baseline(
            aods, mags, m_ue, m_bs, group_size, pmax_w, scenario.noise_w).system_sum
        for i, p in enumerate(pmax_w):
            out[i, 2] = shares @ np.log2(1.0 + p * tdma_gains / scenario.noise_w)
        out[:, 3] = pred
        return out

    result = monte_carlo(spec.trials, evaluate, workers)
    header = ("pmax_dbm", "noma_sum_mean", "baseline_sum_mean", "tdma_sum_mean",
              "predicted_gain")
    rows = []
    for i, dbm in enumerate(pmax_dbm):
        rows.append((float(dbm), result.mean[i, 0], result.mean[i, 1],
                     result.mean[i, 2], result.mean[i, 3]))
    meta = {"experiment": "power_sweep", **_scenario_meta(scenario),
            "trials": spec.trials,
            "antenna_alloc": ":".join(str(int(a)) for a in alloc_arr)}
    table = SweepTable(meta, header, rows)
    if out_path is not None:
        write_table(table, out_path)
    return table


def _asym_scenario(mags: np.ndarray, alloc: np.ndarray, scenario: ScenarioConfig,
                   pmax_w: float) -> AsymptoticScenario:
    k = len(mags)
    return AsymptoticScenario(
        los_gain_mags=mags,
        antenna_alloc=alloc,
        m_ue=scenario.ue_config.num_antennas,
        m_bs=scenario.bs_config.num_antennas,
        max_power_w=pmax_w,
        power_split=np.full(k, pmax_w / k),
        noise_w=scenario.noise_w,
    )


@dataclass(frozen=True)
class BeamPatternConfig:
    """Defaults reproduce the two-beam split example: 50 antennas at 70 deg
    and 78 at 90 deg on a 128-element array, against one full beam at 120."""

    bs_antennas: int = 128
    split_lengths: tuple[int, ...] = (50, 78)
    split_angles_deg: tuple[float, ...] = (70.0, 90.0)
    full_angle_deg: float = 120.0
    num_points: int = 2048

    def __post_init__(self) -> None:
        if len(self.split_lengths) != len(self.split_angles_deg):
            raise InfeasibleSpecError("one steering angle per segment is required")
        if any(l < 1 for l in self.split_lengths):
            raise InfeasibleSpecError("segment lengths must be positive")
        if sum(self.split_lengths) > self.bs_antennas:
            raise InfeasibleSpecError("segments exceed the array")
        if self.num_points < 2:
            raise InfeasibleSpecError("the angle grid needs at least two points")
        if not all(0.0 < a < 180.0 for a in (*self.split_angles_deg, self.full_angle_deg)):
            raise InfeasibleSpecError("steering angles must lie strictly inside (0, 180) deg")


def run_beam_pattern(config: BeamPatternConfig = BeamPatternConfig(),
                     out_path: str | None = None) -> SweepTable:
    """Gain over the angle grid for the split precoder and a full-array beam."""
    from .beams import beam_pattern, default_angle_grid

    n_seg = len(config.split_lengths)
    angles = default_angle_grid(config.num_points)
    split_plan = GroupPlan(
        scheduling=np.ones((n_seg, 1), dtype=np.int64),
        antenna_alloc=np.asarray(config.split_lengths, dtype=np.int64).reshape(n_seg, 1),
        power_alloc=np.zeros((n_seg, 1)),
        max_group_size=n_seg,
        bs_antennas=config.bs_antennas,
        max_power_w=1.0,
    )
    split_aods = np.radians(config.split_angles_deg)
    split = beam_pattern(rf_chain_precoder(split_plan, 0, split_aods), angles)
    full_plan = GroupPlan(
        scheduling=np.ones((1, 1), dtype=np.int64),
        antenna_alloc=np.full((1, 1), config.bs_antennas, dtype=np.int64),
        power_alloc=np.zeros((1, 1)),
        max_group_size=1,
        bs_antennas=config.bs_antennas,
        max_power_w=1.0,
    )
    full_aods = np.array([math.radians(config.full_angle_deg)])
    full = beam_pattern(rf_chain_precoder(full_plan, 0, full_aods), angles)

    floor = 1e-20  # keep the dB columns finite at pattern nulls
    header = ("angle_deg", "split_mag_db", "full_mag_db")
    rows = []
    for i, a in enumerate(angles):
        rows.append((math.degrees(a),
                     20.0 * math.log10(max(split[i], floor)),
                     20.0 * math.log10(max(full[i], floor))))
    meta = {
        "experiment": "beam_pattern",
        "bs_antennas": config.bs_antennas,
        "split_lengths": ":".join(str(l) for l in config.split_lengths),
        "split_angles_deg": ":".join(_format_cell(a) for a in config.split_angles_deg),
        "full_angle_deg": _format_cell(config.full_angle_deg),
        "num_points": config.num_points,
    }
    table = SweepTable(meta, header, rows)
    if out_path is not None:
        write_table(table, out_path)
    return table
