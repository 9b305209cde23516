"""Seeded Monte Carlo experiments and their CSV emitters.

Every user of every trial draws from its own RNG substream, keyed by
(master seed, trial index, user index).  ``monte_carlo`` hands a sweep's
evaluator consecutive blocks of trials and concatenates the per-trial
results in trial order, so a sweep produces byte-identical CSV whatever
the block size and however many worker threads ran it.  It reduces that
concatenation, its own copy, in place with numpy's own mean and standard
deviation steps, and never writes the evaluator's blocks.  Its first call
raises glibc's mmap and trim thresholds for the whole process (to 32 and
64 MiB), so the memory of freed blocks stays mapped for the next block rather
than being page-faulted back in; with several workers each thread's heap
keeps its own, which raises peak memory.  The antenna sweep takes blocks
sized by ``_antenna_block`` from the shapes of its closed form: as many
trials as keep the closed form's (trial, user) temporaries within
``BLOCK_ELEMENTS`` complex values (3171 trials for the README ``sweep.cfg``,
two LOS-only users and 31 splits on 128 antennas), and never fewer than
``TRIAL_BLOCK`` (64 at 30 NLOS paths).  A block seeds all of its
keys at once, draws every user's paths as arrays (the paths of
``drop_users``, bit for bit) and evaluates all of its trials along an array
axis, split-beam sweep, full-array gains and threshold included, with no
loop over trials.  Its gains come from the paper's Dirichlet-kernel closed
form (``_kernels.two_segment_closed_form``), so it builds no v^H H row and
takes no exp per split: each user's channel is taken in its own-segment
frame, where its LOS path needs one Dirichlet kernel per segment length and
no steering table, so a LOS-only block builds none; the NLOS paths take
the segment phases from half-angle tables and their own terms from tables
read at the split columns.

The power sweep runs in two stages.  Its evaluator, ``_power_trials``,
only draws and builds rows, one trial at a time: it draws the trial through
``drop_users`` and makes one ``vhh_row`` call per user, whose row takes
each path's receive gain from the Dirichlet kernel and its transmit
steering from a two-level table of about 2 sqrt(M_BS / 2) exps.  The draw
stays per trial because the traced benchmark self-test counts one trial
span, one ``generate_user_channel`` per user and the elements of one
``vhh_row`` per user (ROADMAP item 13 lets it count blocks).  Everything
else runs once per run of ``TRIAL_BLOCK`` trials that ``monte_carlo`` hands
to ``finish``: ``_power_observations`` takes the split-beam channels of the
whole run from one ``segment_gains`` call and the TDMA channels (the
one-segment case: each row under a full-array beam steered at its own LOS)
from one call per user, and ``_power_results`` computes the NOMA, TDMA and
single-beam baseline rates and the asymptotic gain as arrays, with no loop
over trials, clusters or budgets.

This module holds no rate formula.  Both sweeps take their NOMA rates from
``rates.noma_rates_from_gains``, their TDMA rates from ``rates.tdma_rates``
and their large-array columns from the ``asymptotic`` laws, each called
once per block (or run) on arrays with the trials, and the antenna sweep's
splits, on leading axes: one ``AsymptoticScenario`` per block, from
``_asym_scenario``, holds the drops (T, 1, K) against the splits (S, K).

``run_beam_pattern`` builds its split and full-array precoders from
``single_chain_plan`` plans, so they carry the same
``_kernels.segment_weights`` as the sweeps.

CSV files start with '# key = value' comment lines carrying the scenario,
so each file can be recomputed in isolation.
"""

from __future__ import annotations

import ctypes
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
    strongest_user_rate_asymptotic,
    tdma_sum_rate_asymptotic,
)
from .beams import GroupPlan, rf_chain_precoder
from .channel import (
    MAX_FLOAT64_ELEMENTS,
    MIN_USER_DISTANCE_M,
    ScenarioConfig,
    UlaConfig,
    UserChannel,
    dbm_to_watt,
    draw_paths,
    generate_user_channel,
    user_rng,
    user_uniforms,
)
from .rates import (
    equal_time_shares,
    noma_rates_from_gains,
    single_beam_noma_baseline,
    strongest_first,
    tdma_rates,
)


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
    los = np.array([u.gains[0] for u in users])
    order = strongest_first(_scalar_abs(los))
    users = [users[i] for i in order.tolist()]
    if gain_ratio is not None:
        users[1] = users[1].scaled(float(_pin_factor(los[order], gain_ratio)))
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
    # complex abs picks its loop by memory layout, so a block's magnitudes
    # could differ in the last bit from those of the same trials one by one
    return np.hypot(z.real, z.imag)


# The rules of a drop, shared by ``drop_users`` and ``_draw_block``.

def _distances(u, scenario: ScenarioConfig) -> np.ndarray:
    """User distances from uniform draws: uniform over the cell area outside
    the exclusion radius.  ``rng.uniform(lo, hi)`` scales a draw the same way."""
    d_lo, d_hi = MIN_USER_DISTANCE_M ** 2, scenario.cell_radius_m ** 2
    return np.sqrt(d_lo + (d_hi - d_lo) * u)


def _pin_factor(los: np.ndarray, gain_ratio: float) -> np.ndarray:
    """Gain factor of the weaker of two users with LOS gains ``los`` (..., 2),
    strongest first, that makes their LOS magnitude ratio exactly
    ``gain_ratio``.

    A ratio so large that the weaker user's pinned LOS power |g|^2 is 0 in
    float64 is infeasible: its channel, rates and asymptotic columns would
    not be finite.
    """
    mags = _scalar_abs(los)
    factor = mags[..., 0] / gain_ratio / mags[..., 1]
    pinned = _scalar_abs(los[..., 1] * factor)
    if not (pinned * pinned).all():
        raise InfeasibleSpecError(f"gain ratio {gain_ratio:g} leaves the weaker user "
                                  "no LOS power in float64")
    return factor


def _draw_block(scenario: ScenarioConfig, trial_lo: int, trial_hi: int,
                gain_ratio: float | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Path gains, AoDs and AoAs (T, K, 1 + L) of
    ``drop_users(scenario, t, gain_ratio)`` for every trial t in
    [trial_lo, trial_hi).

    Same streams, order and bits as ``drop_users``: each user's distance
    and paths come from the first 4 + 4 L draws of its ``user_rng``
    stream, and the drop rules above sort and pin the users.
    """
    k = scenario.num_users
    _check_gain_ratio(k, gain_ratio)
    u = user_uniforms(scenario.rng_seed, trial_lo, trial_hi, k,
                      4 + 4 * scenario.num_nlos_paths)
    gains, aods, aoas = draw_paths(u[..., 1:], _distances(u[..., 0], scenario), scenario)
    order = strongest_first(_scalar_abs(gains[..., 0]))[..., None]
    gains, aods, aoas = (np.take_along_axis(a, order, axis=1) for a in (gains, aods, aoas))
    if gain_ratio is not None:
        gains[:, 1] *= _pin_factor(gains[..., 0], gain_ratio)[:, None]
    return gains, aods, aoas


@dataclass(frozen=True)
class MonteCarloResult:
    mean: np.ndarray
    stderr: np.ndarray
    trials: int


# Fewest trials per antenna-sweep block, the block of ``monte_carlo`` when
# none is given, and the fewest trials a ``finish`` run takes.  Heavy
# antenna-sweep trials (two users, 31 paths, 128 antennas) take it, with a
# steering grid of about 8 MB: smaller blocks did not run them faster.  The
# power sweep draws and builds its rows one trial at a time and computes its
# channel magnitudes and rates over runs of this many trials.
TRIAL_BLOCK = 64

# Complex values of the (trial, user) temporaries an antenna-sweep block may
# hold above the TRIAL_BLOCK floor: 3 MB of complex128.
BLOCK_ELEMENTS = 3 * 2 ** 16


def _antenna_block(scenario: ScenarioConfig, num_splits: int) -> int:
    """Trials per antenna-sweep block of ``num_splits`` splits.

    A block takes as many trials as keep the temporaries of
    ``_kernels.two_segment_closed_form`` within ``BLOCK_ELEMENTS``, and never
    fewer than ``TRIAL_BLOCK``.  Per trial and user, S splits and an M-element
    array, the closed form holds about S complex values for the LOS paths'
    Dirichlet kernels and gains (two reals a split); with L > 0 NLOS paths it
    also holds (2 + L) min(2 S, M) for their steering columns, sums and
    phases.  That gives 3171 trials for the README ``sweep.cfg`` (two LOS-only
    users, 31 splits), 774 for every split of a 128-element array and 64 at
    30 NLOS paths.  Larger blocks share each block's fixed numpy calls among
    more trials.
    """
    m_bs = scenario.bs_config.num_antennas
    num_nlos = scenario.num_nlos_paths
    per_user = num_splits
    if num_nlos:
        per_user += (2 + num_nlos) * min(2 * num_splits, m_bs)
    return max(TRIAL_BLOCK, BLOCK_ELEMENTS // (scenario.num_users * per_user))


# Most trials a run takes: a trial index is one 32-bit word of its users'
# spawn keys (channel.spawn_state_words), so indices stop at 2**32 - 1.
MAX_TRIALS = 2 ** 32


# glibc's mallopt parameters (malloc.h) and the values they get: the
# ceilings its own dynamic rule reaches on 64-bit, an mmap threshold of
# 32 MiB and a trim threshold of twice that.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 32 * 2 ** 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


@functools.cache
def _keep_freed_blocks() -> None:
    """Keep the memory of freed blocks in the C heap, process-wide.

    By default glibc serves each block's multi-megabyte temporaries from
    fresh mmaps, or trims the heap once they are freed, so the next block
    page-faults the same memory back in: 950 minor faults per README
    ``sweep.cfg`` call, about a fifth of its time.  Raising both thresholds
    to the ceilings of glibc's dynamic rule keeps that memory mapped between
    blocks.  Where the C library has no ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def monte_carlo(trials: int, evaluator: Callable[[int, int], np.ndarray],
                workers: int = 1, *, block: int | None = None,
                finish: Callable[[np.ndarray], np.ndarray] | None = None
                ) -> MonteCarloResult:
    """Evaluate ``evaluator(lo, hi)`` over consecutive trial blocks and aggregate.

    ``evaluator(lo, hi)`` returns one result per trial of [lo, hi), stacked
    on the first axis.  Blocks hold ``block`` trials (``TRIAL_BLOCK`` unless
    given), are independent and may run on a thread pool of at most one
    thread per CPU the process may run on (its affinity set where the
    platform has one, else ``os.cpu_count()``); the results are concatenated
    in trial order before the mean/standard-error reduction, so the outcome
    depends on neither the block size nor ``workers``.  The reduction takes
    the steps of ``mean(axis=0)`` and ``std(axis=0, ddof=1)``, with their
    bits, on the concatenation, which is a copy: it sums once for the mean
    and writes the squared deviations over the copy, so the results are held
    twice at most (the blocks and the copy) and the arrays the evaluator
    returned are never written.  With one trial the standard error is
    reported as zero.  The first call sets the process's C allocator to keep
    freed memory (``_keep_freed_blocks``), which spares each block's page
    faults and costs peak memory when several threads each keep their heap.

    ``finish``, if given, maps the stacked results of consecutive blocks to
    the per-trial results that are reduced.  It runs in the calling thread,
    in trial order, on each run of blocks that first holds ``TRIAL_BLOCK``
    trials or more, and on the rest, and must return one result per trial
    it gets.  So the outcome must not depend on where the runs are cut.  It
    gets the blocks as the evaluator returned them, of any dtype, in one
    concatenation; by then ``monte_carlo`` holds none of the run's blocks.

    The results that are reduced, the evaluator's without ``finish`` or
    those of ``finish``, must be real: complex ones raise ``ValueError``.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    _keep_freed_blocks()
    # the CPUs this process may run on, which a cpuset or taskset narrows
    # below the host's count
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1)
    block = TRIAL_BLOCK if block is None else block
    los = range(0, trials, block)
    his = [min(lo + block, trials) for lo in los]
    if workers <= 1:
        results = _collect(map(evaluator, los, his), finish)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = _collect(pool.map(evaluator, los, his), finish)
    # np.concatenate copies, so ``data`` is ours to overwrite and the
    # evaluator's blocks stay as they were returned
    data = np.concatenate(results, axis=0)
    if len(data) != trials:
        raise ValueError(f"the evaluator returned {len(data)} results for {trials} trials")
    # numpy's own steps of mean and std(ddof=1), in their order and so with
    # their bits, but with one sum for the mean and no second full-size array
    mean = np.add.reduce(data, axis=0) / trials
    if trials > 1:
        np.subtract(data, mean, out=data)
        np.square(data, out=data)
        stderr = np.sqrt(np.add.reduce(data, axis=0) / (trials - 1)) / math.sqrt(trials)
    else:
        stderr = np.zeros_like(mean)
    return MonteCarloResult(mean, stderr, trials)


def _collect(blocks, finish: Callable[[np.ndarray], np.ndarray] | None
             ) -> list[np.ndarray]:
    """The blocks' results in trial order, or with ``finish`` those of
    ``finish`` over runs of consecutive blocks (see ``monte_carlo``)."""
    results, run, held = [], [], 0
    for r in blocks:
        r = np.asarray(r)
        if finish is None:
            results.append(_real(r, "the evaluator"))
            continue
        run.append(r)
        held += len(r)
        del r  # so that finish runs with the run's blocks held nowhere else
        if held >= TRIAL_BLOCK:
            results.append(_finish_run(finish, run))
            held = 0
    if run:
        results.append(_finish_run(finish, run))
    return results


def _finish_run(finish: Callable[[np.ndarray], np.ndarray], run: list[np.ndarray]
                ) -> np.ndarray:
    """``finish`` over the concatenated ``run``, which it empties first, so
    that ``finish`` runs with the run's trials held once."""
    stacked = np.concatenate(run, axis=0)
    run.clear()
    out = _real(np.asarray(finish(stacked)), "finish")
    if len(out) != len(stacked):
        raise ValueError(f"finish returned {len(out)} results for {len(stacked)} trials")
    return out


def _real(results: np.ndarray, source: str) -> np.ndarray:
    """``results`` as float64, which a complex dtype would silently cut to
    its real part."""
    if np.iscomplexobj(results):
        raise ValueError(f"{source} returned {results.dtype} results; only real "
                         "per-trial results can be averaged")
    return np.asarray(results, dtype=np.float64)


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


def single_chain_plan(scenario: ScenarioConfig, antenna_alloc: Sequence[int]) -> GroupPlan:
    """All users NOMA-grouped on one RF chain with equal transmit power."""
    k = scenario.num_users
    # an entry count other than K fails the plan's shape check
    alloc = np.asarray(antenna_alloc, dtype=np.int64).reshape(-1, 1)
    powers = np.full((k, 1), scenario.max_power_w / k)
    return GroupPlan(
        scheduling=np.ones((k, 1), dtype=np.int64),
        antenna_alloc=alloc,
        power_alloc=powers,
        max_group_size=k,
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
            if self.antenna_alloc is not None:
                raise ValueError("the antenna sweep does not take antenna_alloc")
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


@dataclass(frozen=True)
class SweepTable:
    meta: dict
    header: tuple[str, ...]
    rows: list[tuple]

    def column(self, name: str) -> np.ndarray:
        i = self.header.index(name)
        return np.array([row[i] for row in self.rows], dtype=np.float64)

    def csv_text(self) -> str:
        """The ``#`` metadata lines, the header and one line per row.

        Every column holds only integers (bool, ``np.bool_``, int,
        ``np.integer``), printed as integers, or only floats, printed with 9
        significant digits, so each row is one ``%`` of the table's row
        format.  Any other column raises ``ValueError``.
        """
        lines = [f"# {key} = {value}" for key, value in self.meta.items()]
        lines.append(",".join(self.header))
        if set(map(len, self.rows)) - {len(self.header)}:
            raise ValueError("every row needs one cell per header column")
        row_format = ",".join(map(_column_format, zip(*self.rows)))
        lines.extend(map(row_format.__mod__, map(tuple, self.rows)))
        return "\n".join(lines) + "\n"


_INTEGER_CELLS = (bool, np.bool_, int, np.integer)


def _column_format(column: tuple) -> str:
    """The ``%`` format of a column of only integers or only floats."""
    types = set(map(type, column))
    if all(issubclass(t, _INTEGER_CELLS) for t in types):
        return "%d"
    if all(issubclass(t, (float, np.floating)) for t in types):
        return "%.9g"
    raise ValueError("a column must hold only integers or only floats, not "
                     + ", ".join(sorted(t.__name__ for t in types)))


def _format_cell(value) -> str:
    if isinstance(value, _INTEGER_CELLS):
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


def _antenna_trials(spec: SweepSpec, lo: int, hi: int) -> np.ndarray:
    """Antenna-sweep results of trials [lo, hi): (hi - lo, splits, 6).

    Every step takes the whole block: ``two_segment_closed_form`` gives the
    split and full-array gains of every (trial, user) from its paths, the
    threshold takes the (trial, user) LOS magnitudes, and the rates and
    the large-array laws take the (trial, split) pairs of one scenario, the
    drops (T, 1, 2) against the splits (S, 2).  After the channels every
    step is element-wise, or a sum over the two users, which rounds the
    same in any order and in any memory layout.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    m1_values = np.asarray(spec.values, dtype=np.int64)
    p_user = scenario.max_power_w / 2.0

    gains, aods, aoas = _draw_block(scenario, lo, hi, spec.gain_ratio)
    mags = _scalar_abs(gains[..., 0])
    split_gains, full_gains = _kernels.two_segment_closed_form(gains, aods, aoas, m1_values,
                                                               m_ue, m_bs)
    splits = np.array((m1_values, m_bs - m1_values)).T
    asym = _asym_scenario(mags[:, None], splits, scenario, scenario.max_power_w)
    out = np.empty((hi - lo, len(m1_values), 6))
    # the user axis leads in the rate laws
    out[..., 0] = noma_rates_from_gains(split_gains.transpose(1, 0, 2),
                                        np.array([p_user, p_user]),
                                        scenario.noise_w).sum(axis=0)
    out[..., 1] = tdma_rates(full_gains, equal_time_shares(2), scenario.max_power_w,
                             scenario.noise_w).system_sum[:, None]
    out[..., 2] = strongest_user_rate_asymptotic(asym, scenario.max_power_w)
    out[..., 3] = tdma_sum_rate_asymptotic(asym)
    out[..., 4] = min_antennas_for_superiority(mags, m_bs)[:, None]
    out[..., 5] = sic_condition_asymptotic(asym)
    return out


def run_antenna_sweep(spec: SweepSpec, workers: int = 1,
                      out_path: str | None = None) -> SweepTable:
    """Two-user sweep over the strongest user's antenna share M_1.

    Per trial the same drop is reused across every split, so the NOMA and
    TDMA curves share their randomness.  ``tdma_sum_mean`` averages
    ``rates.tdma_rates`` on the full-array channels.  The large-array
    columns average the ``asymptotic`` laws over the drops:

    - ``noma_asymptotic`` averages ``strongest_user_rate_asymptotic`` at
      p_max, the formula of ``asymptotic_sum_rate``, over every drop,
      including the drops that fail the asymptotic SIC condition at that
      split, where the guarded law would refuse;
    - ``tdma_asymptotic`` averages ``tdma_sum_rate_asymptotic``;
    - ``superiority_threshold`` averages the per-drop minimum M_1 of
      ``min_antennas_for_superiority`` (drops where even the full array
      cannot beat TDMA count as M_BS + 1);
    - ``feasible_fraction`` is the feasible share: the fraction of drops
      for which ``sic_condition_asymptotic`` holds at each split.
    """
    if spec.kind != "antennas":
        raise ValueError(f"the antenna sweep takes an 'antennas' spec, got {spec.kind!r}")
    scenario = spec.scenario
    m1_values = np.asarray(spec.values, dtype=np.int64)
    m2_values = scenario.bs_config.num_antennas - m1_values
    result = monte_carlo(spec.trials, functools.partial(_antenna_trials, spec), workers,
                         block=_antenna_block(scenario, len(m1_values)))
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


def _power_trials(spec: SweepSpec, lo: int, hi: int) -> np.ndarray:
    """Power-sweep rows of trials [lo, hi): (hi - lo, K, M_BS + 2) complex.

    Per trial and user, strongest first: the v^H H row in columns
    [0, M_BS), the LOS gain in column M_BS and the LOS AoD (real) in column
    M_BS + 1.  ``_power_observations`` turns a run of them into channel
    magnitudes.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    out = np.empty((hi - lo, scenario.num_users, m_bs + 2), dtype=np.complex128)
    for t in range(lo, hi):
        trial = out[t - lo]
        # one vhh_row call per user, not one stacked call: the traced
        # benchmark self-test counts len(gains) * M_BS vhh_row elements per
        # call, and at 31 paths a stacked call would save nothing
        for k, c in enumerate(drop_users(scenario, t)):
            trial[k, :m_bs] = _kernels.vhh_row(c.gains, c.aods, c.aoas, m_ue, m_bs)
            trial[k, m_bs] = c.gains[0]
            trial[k, m_bs + 1] = c.aods[0]
    return out


def _power_observations(spec: SweepSpec, alloc: np.ndarray, offsets: np.ndarray,
                        rows: np.ndarray) -> np.ndarray:
    """Power-sweep observations (T, 4, K) of the rows (T, K, M_BS + 2) of
    ``_power_trials``.

    Per trial and user, strongest first: the split-beam channel magnitude
    (users get the segments ``alloc`` starting at ``offsets``), the TDMA
    channel magnitude, the LOS magnitude and the LOS AoD.  One
    ``segment_gains`` call weighs every row under its trial's split beam,
    and one per user its rows under full-array beams: each row keeps the
    bits of its own BLAS dot, and the weights of the whole run take 1 + K
    exp calls, not 2 per trial.  ``_power_results`` turns the observations
    into rates.
    """
    m_bs = spec.scenario.bs_config.num_antennas
    vhh = rows[..., :m_bs]
    aods = rows[..., m_bs + 1].real
    cos_aods = np.cos(aods)
    obs = np.empty((len(rows), 4, rows.shape[1]))
    obs[:, 0] = _scalar_abs(_kernels.segment_gains(vhh, cos_aods[:, None], offsets, alloc,
                                                   m_bs))
    # TDMA serves each user alone, the full array steered at its own LOS;
    # one user at a time, so only (T, M_BS) weights exist at once
    for k in range(rows.shape[1]):
        obs[:, 1, k] = _scalar_abs(_kernels.segment_gains(vhh[:, k], cos_aods[:, k, None],
                                                          [0], [m_bs], m_bs))
    obs[:, 2] = _scalar_abs(rows[..., m_bs])
    obs[:, 3] = aods
    return obs


def _power_results(spec: SweepSpec, alloc: np.ndarray, pmax_w: np.ndarray,
                   powers: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Power-sweep results (T, budgets, 4) of the observations ``obs``
    (T, 4, K) of ``_power_observations``.

    The (K, budgets) ``powers`` split each budget in ``pmax_w``.  Every step
    takes all T trials at once and gives each trial the bits of a call on it
    alone: rates and their logs are element-wise, the NOMA sum adds the
    users one by one as a (K, budgets) array does, the TDMA shares are one
    (budgets, K) matrix-vector product per trial, and the baseline and the
    asymptotic gain keep the per-drop rules of their functions.
    """
    scenario = spec.scenario
    m_bs = scenario.bs_config.num_antennas
    m_ue = scenario.ue_config.num_antennas
    k = scenario.num_users
    split_mags, full_mags, mags, aods = obs.transpose(1, 0, 2)

    out = np.empty((len(obs), len(pmax_w), 4))
    # (user, trial, budget)
    out[..., 0] = noma_rates_from_gains((split_mags * split_mags).T[..., None],
                                        powers[:, None], scenario.noise_w).sum(axis=0)
    out[..., 1] = single_beam_noma_baseline(aods, mags, m_ue, m_bs, k, pmax_w,
                                            scenario.noise_w).system_sum
    out[..., 2] = tdma_rates((full_mags * full_mags)[:, None], equal_time_shares(k),
                             pmax_w[:, None], scenario.noise_w).system_sum
    # the gain does not depend on the budget: the first one builds the scenarios
    pred = np.full(len(obs), math.nan)
    ok = np.flatnonzero(sic_condition_asymptotic(
        _asym_scenario(mags, alloc, scenario, float(pmax_w[0]))))
    if len(ok):
        pred[ok] = noma_gain(_asym_scenario(mags[ok], alloc, scenario, float(pmax_w[0])))
    out[..., 3] = pred[:, None]
    return out


def run_power_sweep(spec: SweepSpec, workers: int = 1,
                    out_path: str | None = None) -> SweepTable:
    """Sweep the power budget with a fixed antenna split.

    Compares multi-beam NOMA against the single-beam NOMA baseline and
    equal-share TDMA, all at equal per-user power/time.  The channel draw
    is shared across budget points inside a trial.  ``predicted_gain`` is
    the per-drop asymptotic NOMA-over-TDMA gap averaged over trials (it
    does not depend on the budget).

    ``baseline_sum_mean`` averages the baseline's rates over every drop,
    including drops where its own SIC audit fails (a stronger cluster
    member cannot decode a weaker one's message), and the CSV does not say
    how many did.  At paper defaults about 0.3-0.4% of the audit's checks
    fail.  ``noma_sum_mean`` is likewise not audited.

    ``baseline_sum_mean`` takes its beam gains from the LOS paths alone: a
    cluster member's gain is |g|^2 M_UE D(M_BS, x)^2 / M_BS, from its LOS
    gain g and the Dirichlet factor D of the cluster beam at its LOS
    departure, and its NLOS paths are left out.  ``noma_sum_mean`` and
    ``tdma_sum_mean`` take theirs from the v^H H rows, so every path counts.
    """
    if spec.kind != "power":
        raise ValueError(f"the power sweep takes a 'power' spec, got {spec.kind!r}")
    scenario = spec.scenario
    alloc = spec.antenna_alloc
    if alloc is None:
        alloc = default_antenna_alloc(scenario.num_users, scenario.bs_config.num_antennas)
    alloc_arr = np.asarray(alloc, dtype=np.int64)
    pmax_dbm = np.asarray(spec.values, dtype=np.float64)
    pmax_w = np.array([dbm_to_watt(v) for v in pmax_dbm])
    offsets = np.concatenate(([0], np.cumsum(alloc_arr)[:-1])).astype(np.int64)
    powers = np.tile(pmax_w / scenario.num_users, (scenario.num_users, 1))   # equal split
    # Two stages.  The evaluator draws one trial per block through
    # drop_users and builds its rows with one vhh_row per user: the traced
    # benchmark self-test (perfbench/test_perfbench.py) counts one
    # experiments.trial span per power-sweep trial, the paths of its
    # generate_user_channel calls and the elements of each vhh_row call.
    # They move onto _draw_block when that test counts blocks (ROADMAP).
    # Everything else, the channel magnitudes, the rates, the baseline and
    # the asymptotic gain, takes runs of TRIAL_BLOCK trials at once.
    observe = functools.partial(_power_observations, spec, alloc_arr, offsets)
    rates = functools.partial(_power_results, spec, alloc_arr, pmax_w, powers)
    result = monte_carlo(spec.trials, functools.partial(_power_trials, spec), workers,
                         block=1, finish=lambda rows: rates(observe(rows)))
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
    """The asymptotic scenario of the drops whose LOS magnitudes are the rows
    of ``mags`` (..., K), strongest first, with an equal power split.
    ``alloc`` is one (K,) split or splits (..., K) that broadcast against
    ``mags``."""
    k = mags.shape[-1]
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
        # a config error, checked first: the array check of every command
        UlaConfig(self.bs_antennas)
        if len(self.split_lengths) != len(self.split_angles_deg):
            raise InfeasibleSpecError("one steering angle per segment is required")
        if not self.split_lengths:
            raise InfeasibleSpecError("the split beam needs at least one segment")
        if any(l < 1 for l in self.split_lengths):
            raise InfeasibleSpecError("segment lengths must be positive")
        if sum(self.split_lengths) > self.bs_antennas:
            raise InfeasibleSpecError("segments exceed the array")
        if self.num_points < 2:
            raise InfeasibleSpecError("the angle grid needs at least two points")
        if self.num_points + 2 > MAX_FLOAT64_ELEMENTS:
            # a config error, not an infeasible experiment: numpy cannot size
            # such a grid at all
            raise ValueError(f"angle_points = {self.num_points} is too large: the angle grid "
                             "does not fit one numpy array")
        if not all(0.0 < a < 180.0 for a in (*self.split_angles_deg, self.full_angle_deg)):
            raise InfeasibleSpecError("steering angles must lie strictly inside (0, 180) deg")


def run_beam_pattern(config: BeamPatternConfig = BeamPatternConfig(),
                     out_path: str | None = None) -> SweepTable:
    """Gain over the angle grid for the split precoder and a full-array beam."""
    from .beams import beam_pattern, default_angle_grid

    angles = default_angle_grid(config.num_points)
    # one segment per "user" on one chain; the precoders ignore the powers
    array = UlaConfig(config.bs_antennas)
    split_plan = single_chain_plan(
        ScenarioConfig(num_users=len(config.split_lengths), bs_config=array),
        config.split_lengths)
    full_plan = single_chain_plan(ScenarioConfig(num_users=1, bs_config=array),
                                  (config.bs_antennas,))
    split_aods = np.radians(config.split_angles_deg)
    full_aods = np.array([math.radians(config.full_angle_deg)])
    mags = beam_pattern([rf_chain_precoder(split_plan, 0, split_aods),
                         rf_chain_precoder(full_plan, 0, full_aods)], angles)

    # the floor keeps the dB columns finite at pattern nulls; np.maximum
    # passes a NaN through
    floor = 1e-20
    db = 20.0 * np.log10(np.maximum(mags, floor))
    header = ("angle_deg", "split_mag_db", "full_mag_db")
    rows = list(zip(map(math.degrees, angles.tolist()), *db.tolist()))
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
