"""Seeded Monte Carlo experiments and their CSV emitters.

Every user of every trial draws from its own RNG substream, keyed by
(master seed, trial index, user index).  ``monte_carlo`` hands a sweep's
evaluator consecutive blocks of trials and concatenates the per-trial
results in trial order, so a sweep produces byte-identical CSV whatever
the block size and however many worker threads ran it.  The antenna sweep
takes blocks of ``TRIAL_BLOCK``: a block seeds all of its keys at once,
draws every user's paths as arrays, builds all of its v^H H rows in one
``vhh_row`` call and evaluates all of its trials along an array axis,
split-beam sweep, full-array gains and threshold included, with no loop
over trials or rows.  Those draws and rows are the ones of ``drop_users``
and per-user ``vhh_row`` calls, bit for bit; the power sweep still draws
each trial through ``drop_users`` and makes one ``vhh_row`` call per user.  CSV files start with '# key = value' comment
lines carrying the scenario, so each file can be recomputed in isolation.
"""

from __future__ import annotations

import functools
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
    draw_paths,
    generate_user_channel,
    user_rng,
    user_uniforms,
)
from .rates import equal_time_shares, noma_rates_from_gains, single_beam_noma_baseline


class InfeasibleSpecError(Exception):
    """The requested experiment cannot be realized (bad split, wrong K, ...)."""


def drop_users(scenario: ScenarioConfig, trial_index: int = 0,
               gain_ratio: float | None = None) -> list[UserChannel]:
    """Place the scenario's users in the cell and draw their channels.

    Distances are uniform over the cell area (density proportional to d)
    with a 10 m exclusion around the base station.  The result is sorted
    by descending LOS power; ties keep the draw order.  ``gain_ratio``
    rescales the weaker user of a two-user drop so the LOS magnitude
    ratio is pinned exactly.
    """
    _check_gain_ratio(scenario.num_users, gain_ratio)
    users = []
    for k in range(scenario.num_users):
        rng = user_rng(scenario.rng_seed, trial_index, k)
        users.append(generate_user_channel(rng, float(_distances(rng.random(), scenario)),
                                           scenario))
    mags = _scalar_abs(np.array([u.gains[0] for u in users]))
    order = _strongest_first(mags)
    users = [users[i] for i in order.tolist()]
    if gain_ratio is not None:
        users[1] = users[1].scaled(float(_pin_factor(mags[order], gain_ratio)))
    return users


def _check_gain_ratio(num_users: int, gain_ratio: float | None) -> None:
    if gain_ratio is None:
        return
    if not math.isfinite(gain_ratio):
        raise ValueError(f"gain ratio must be finite, got {gain_ratio}")
    if num_users != 2:
        raise InfeasibleSpecError("a pinned gain ratio needs exactly two users")
    if gain_ratio < 1.0:
        raise InfeasibleSpecError("gain ratio must be >= 1 (strong over weak)")


def _scalar_abs(z: np.ndarray) -> np.ndarray:
    # the bits of scalar abs(complex): both call libm hypot, while numpy's
    # vectorized complex abs differs from it in the last bit
    return np.hypot(z.real, z.imag)


def _scalar_squares(x: np.ndarray) -> np.ndarray:
    # scalar x ** 2 calls libm pow, which differs from an array's x * x in
    # the last bit for some values
    return np.array([v ** 2 for v in x.ravel().tolist()], dtype=np.float64).reshape(x.shape)


# The rules of a drop, shared by ``drop_users`` and ``_draw_block``.

def _distances(u, scenario: ScenarioConfig) -> np.ndarray:
    """User distances from uniform draws: uniform over the cell area outside
    the exclusion radius.  ``rng.uniform(lo, hi)`` scales a draw the same way."""
    d_lo, d_hi = MIN_USER_DISTANCE_M ** 2, scenario.cell_radius_m ** 2
    return np.sqrt(d_lo + (d_hi - d_lo) * u)


def _strongest_first(mags: np.ndarray) -> np.ndarray:
    """Order of the users on the last axis by descending LOS power; ties keep
    the draw order."""
    return np.argsort(-_scalar_squares(mags), axis=-1, kind="stable")


def _pin_factor(mags: np.ndarray, gain_ratio: float) -> np.ndarray:
    """Gain factor of the weaker of two users, strongest first, that makes
    their LOS magnitude ratio exactly ``gain_ratio``."""
    return mags[..., 0] / gain_ratio / mags[..., 1]


def _draw_block(scenario: ScenarioConfig, trial_lo: int, trial_hi: int,
                gain_ratio: float | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LOS gain magnitudes (T, K), LOS departure angles (T, K) and v^H H rows
    (T, K, M_BS) of ``drop_users(scenario, t, gain_ratio)`` for every trial t
    in [trial_lo, trial_hi).

    Same streams, order and bits as ``drop_users``: each user's distance
    and paths come from the first 4 + 4 L draws of its ``user_rng``
    stream, and the drop rules above sort and pin the users.  One
    ``vhh_row`` call builds every row of the block.
    """
    k = scenario.num_users
    _check_gain_ratio(k, gain_ratio)
    u = user_uniforms(scenario.rng_seed, trial_lo, trial_hi, k,
                      4 + 4 * scenario.num_nlos_paths)
    gains, aods, aoas = draw_paths(u[..., 1:], _distances(u[..., 0], scenario), scenario)
    order = _strongest_first(_scalar_abs(gains[..., 0]))[..., None]
    gains, aods, aoas = (np.take_along_axis(a, order, axis=1) for a in (gains, aods, aoas))
    if gain_ratio is not None:
        gains[:, 1] *= _pin_factor(_scalar_abs(gains[..., 0]), gain_ratio)[:, None]
    rows = _kernels.vhh_row(gains, aods, aoas, scenario.ue_config.num_antennas,
                            scenario.bs_config.num_antennas)
    return _scalar_abs(gains[..., 0]), np.ascontiguousarray(aods[..., 0]), rows


@dataclass(frozen=True)
class MonteCarloResult:
    mean: np.ndarray
    stderr: np.ndarray
    trials: int


# Trials per evaluator call.  At the paper's power-sweep sizes (5 users,
# 30 NLOS paths, 128 antennas) a block's draws and rows take about 1 MB; the
# steering temporaries of a block's vhh_row call hold T·K·(1+L)·M_BS complex
# values, about 8 MB at two users and 31 paths.
TRIAL_BLOCK = 64

# Most trials a run takes: a trial index is one 32-bit word of its users'
# spawn keys (channel.spawn_state_words), so indices stop at 2**32 - 1.
MAX_TRIALS = 2 ** 32


def monte_carlo(trials: int, evaluator: Callable[[int, int], np.ndarray],
                workers: int = 1, *, block: int | None = None) -> MonteCarloResult:
    """Evaluate ``evaluator(lo, hi)`` over consecutive trial blocks and aggregate.

    ``evaluator(lo, hi)`` returns one result per trial of [lo, hi), stacked
    on the first axis.  Blocks hold ``block`` trials (``TRIAL_BLOCK`` unless
    given), are independent and may run on a thread pool of at most
    ``os.cpu_count()`` threads; the results are concatenated in trial order
    before the mean/standard-error reduction, so the outcome depends on
    neither the block size nor ``workers``.  With one trial the standard
    error is reported as zero.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    workers = min(workers, os.cpu_count() or 1)
    block = TRIAL_BLOCK if block is None else block
    los = range(0, trials, block)
    his = [min(lo + block, trials) for lo in los]
    if workers <= 1:
        results = [np.asarray(evaluator(lo, hi), dtype=np.float64) for lo, hi in zip(los, his)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = [np.asarray(r, dtype=np.float64) for r in pool.map(evaluator, los, his)]
    data = np.concatenate(results, axis=0)
    if len(data) != trials:
        raise ValueError(f"the evaluator returned {len(data)} results for {trials} trials")
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
    # an entry count other than K fails the plan's shape check
    alloc = np.asarray(antenna_alloc, dtype=np.int64).reshape(-1, 1)
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
        if self.trials > MAX_TRIALS:
            raise ValueError(f"trials must be at most {MAX_TRIALS}, got {self.trials}")
        if len(self.values) == 0:
            raise InfeasibleSpecError("sweep needs at least one value")
        m_bs = self.scenario.bs_config.num_antennas
        if self.kind == "antennas":
            if self.antenna_alloc is not None or self.max_group_size is not None:
                raise ValueError("the antenna sweep takes neither antenna_alloc nor max_group_size")
            if self.scenario.num_users != 2:
                raise InfeasibleSpecError("the antenna sweep is defined for two users")
            _check_gain_ratio(2, self.gain_ratio)
            vals = np.asarray(self.values, dtype=np.int64)
            if (vals < 1).any() or (vals > m_bs - 1).any():
                raise InfeasibleSpecError("antenna counts must leave both users a segment")
        else:
            if self.gain_ratio is not None:
                raise ValueError("the power sweep does not take a gain ratio")
            for dbm in self.values:
                if not math.isfinite(dbm) or dbm_to_watt(float(dbm)) <= 0.0:
                    raise ValueError(f"power budget {dbm} dBm is not a positive finite power")
                if not math.isfinite(dbm_to_watt(float(dbm)) / self.scenario.noise_w):
                    raise ValueError(f"power budget {dbm} dBm over the noise power is not finite")
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


def _full_array_gains(rows: np.ndarray, cos_aods: np.ndarray, m_bs: int) -> np.ndarray:
    """|v^H H w|^2 of each row of ``rows`` (..., M_BS) with a full-array beam
    matched to its own LOS, ``cos_aods`` (...).

    The weights are ``segment_gains``' one-segment weights, phase order
    ``((1j*π)*ramp)*cos``, built in one exp.  The stacked (1, M_BS) @
    (M_BS, 1) matmul takes one BLAS dot per row, the ``row @ w`` of a
    one-segment ``segment_gains`` call; that call's 0j start only moves the
    sign of a zero, which the magnitude hides.
    """
    w = (1.0 / math.sqrt(m_bs)) * np.exp(
        1j * math.pi * _kernels._centred_ramp(m_bs) * cos_aods[..., None])
    h = (rows[..., None, :] @ w[..., :, None])[..., 0, 0]
    return _scalar_squares(_scalar_abs(h))


def _antenna_trials(spec: SweepSpec, lo: int, hi: int) -> np.ndarray:
    """Antenna-sweep results of trials [lo, hi): (hi - lo, splits, 6).

    Every step takes the whole block: ``two_segment_sweep`` and the
    full-array gains over the (trial, user) rows, the threshold over the
    (trial, user) LOS magnitudes, and after them arithmetic that is
    element-wise, or a sum over the two users, which rounds the same in any
    order.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    m1_values = np.asarray(spec.values, dtype=np.int64)
    m2_values = m_bs - m1_values
    p_user = scenario.max_power_w / 2.0
    rho = 1.0 / scenario.noise_w

    mags, aods, rows = _draw_block(scenario, lo, hi, spec.gain_ratio)
    cos_aods = np.cos(aods)
    swept = _kernels.two_segment_sweep(rows, cos_aods[:, 0], cos_aods[:, 1], m1_values, m_bs)
    # the C-contiguous (user, trial, split) layout that a per-trial loop
    # fills: numpy may take another complex-abs loop for a strided view
    h = np.ascontiguousarray(swept.transpose(1, 0, 2))
    tdma_gains = _full_array_gains(rows, cos_aods, m_bs)
    threshold = min_antennas_for_superiority(mags, m_bs)
    out = np.empty((hi - lo, len(m1_values), 6))
    out[..., 0] = noma_rates_from_gains(np.abs(h) ** 2, np.array([p_user, p_user]),
                                        scenario.noise_w).sum(axis=0)
    out[..., 1] = np.log2(1.0 + scenario.max_power_w * tdma_gains * rho).mean(axis=1)[:, None]
    out[..., 2] = np.log2((scenario.max_power_w * _scalar_squares(mags[:, 0]) * m_ue)[:, None]
                          * m1_values.astype(np.float64) ** 2 * rho / m_bs)
    out[..., 3] = np.log2(scenario.max_power_w * mags ** 2 * m_ue * m_bs * rho
                          ).mean(axis=1)[:, None]
    out[..., 4] = threshold[:, None]
    out[..., 5] = mags[:, :1] * m1_values >= mags[:, 1:] * m2_values
    return out


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
    m1_values = np.asarray(spec.values, dtype=np.int64)
    m2_values = scenario.bs_config.num_antennas - m1_values
    result = monte_carlo(spec.trials, functools.partial(_antenna_trials, spec), workers)
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


def _power_trials(spec: SweepSpec, alloc: np.ndarray, offsets: np.ndarray,
                  pmax_w: np.ndarray, powers: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Power-sweep results of trials [lo, hi): (hi - lo, budgets, 4).

    Users get the segments ``alloc`` starting at ``offsets``, and the
    (K, budgets) ``powers`` of each budget in ``pmax_w``.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    k = scenario.num_users
    group_size = k if spec.max_group_size is None else spec.max_group_size
    shares = equal_time_shares(k)

    out = np.empty((hi - lo, len(pmax_w), 4))
    for t in range(lo, hi):
        channels = drop_users(scenario, t)
        mags = _scalar_abs(np.array([c.gains[0] for c in channels]))
        aods = np.array([c.aods[0] for c in channels])
        # one call per user, not one stacked call: the traced benchmark
        # self-test counts len(gains) * M_BS vhh_row elements per call, and
        # at 31 paths a stacked call would save nothing
        rows = np.array([_kernels.vhh_row(c.gains, c.aods, c.aoas, m_ue, m_bs)
                         for c in channels])
        cos_aods = np.cos(aods)
        h = _kernels.segment_gains(rows, cos_aods, offsets, alloc, m_bs)
        split_gains = _scalar_squares(_scalar_abs(h))
        tdma_gains = _full_array_gains(rows, cos_aods, m_bs)
        asym = _asym_scenario(mags, alloc, scenario, float(pmax_w[0]))
        pred = noma_gain(asym) if sic_condition_asymptotic(asym) else math.nan
        trial = out[t - lo]
        # (budget, user) rows, summed along the user axis like a (K,) vector
        noma = noma_rates_from_gains(split_gains, powers, scenario.noise_w).T.copy()
        trial[:, 0] = noma.sum(axis=1)
        trial[:, 1] = single_beam_noma_baseline(
            aods, mags, m_ue, m_bs, group_size, pmax_w, scenario.noise_w).system_sum
        # one dot per budget: a batched x @ shares rounds differently for K >= 3
        for i, p in enumerate(pmax_w):
            trial[i, 2] = shares @ np.log2(1.0 + p * tdma_gains / scenario.noise_w)
        trial[:, 3] = pred
    return out


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
    alloc = spec.antenna_alloc
    if alloc is None:
        alloc = default_antenna_alloc(scenario.num_users, scenario.bs_config.num_antennas)
    alloc_arr = np.asarray(alloc, dtype=np.int64)
    pmax_dbm = np.asarray(spec.values, dtype=np.float64)
    pmax_w = np.array([dbm_to_watt(v) for v in pmax_dbm])
    offsets = np.concatenate(([0], np.cumsum(alloc_arr)[:-1])).astype(np.int64)
    powers = np.tile(pmax_w / scenario.num_users, (scenario.num_users, 1))   # equal split
    evaluator = functools.partial(_power_trials, spec, alloc_arr, offsets, pmax_w, powers)
    # One trial per block, drawn through drop_users: the traced benchmark
    # self-test (perfbench/test_perfbench.py) counts one experiments.trial
    # span per power-sweep trial and the paths of its generate_user_channel
    # calls.  It moves onto _draw_block when that test counts blocks (ROADMAP).
    result = monte_carlo(spec.trials, evaluator, workers, block=1)
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
