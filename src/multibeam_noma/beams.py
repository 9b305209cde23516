"""Analog beam splitting: carve one RF chain's ULA into per-user subarrays.

Each scheduled user gets a contiguous block of antennas steered at its LOS
departure angle.  Phase shifters impose a constant modulus, so every weight
has magnitude 1/sqrt(M_BS) regardless of how many antennas a block holds.
The weights come from ``_kernels.segment_weights``, the formula the power
sweep's ``segment_gains`` applies too, so a precoder here has the bits of
the weights a sweep uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels
from .channel import UlaConfig, array_response


class PlanError(ValueError):
    """A group plan violates a scheduling, antenna, or power constraint."""


@dataclass(frozen=True, eq=False)
class GroupPlan:
    """Scheduling, antenna and power allocation across users and RF chains.

    All three allocation tables are K x N_RF.  ``scheduling`` is 0/1;
    user k may appear on at most one chain.  Per chain, at most
    ``max_group_size`` users are scheduled, allocated antennas sum to at
    most ``bs_antennas`` and transmit powers sum to at most ``max_power_w``.

    A plan is immutable: its fields cannot be reassigned, and its tables are
    read-only copies of the arrays it was built from.  So it is validated
    once, when it is built, and stays valid.
    """

    scheduling: np.ndarray
    antenna_alloc: np.ndarray
    power_alloc: np.ndarray
    max_group_size: int
    bs_antennas: int
    max_power_w: float

    def __post_init__(self) -> None:
        for name, dtype in (("scheduling", np.int64), ("antenna_alloc", np.int64),
                            ("power_alloc", np.float64)):
            table = np.array(getattr(self, name), dtype=dtype)
            table.flags.writeable = False
            object.__setattr__(self, name, table)
        u, m, p = self.scheduling, self.antenna_alloc, self.power_alloc
        if u.ndim != 2 or m.shape != u.shape or p.shape != u.shape:
            raise PlanError("scheduling, antenna and power tables must share a K x N_RF shape")
        if not ((u == 0) | (u == 1)).all():
            raise PlanError("scheduling entries must be 0 or 1")
        if (u.sum(axis=1) > 1).any():
            raise PlanError("a user may be scheduled on at most one RF chain")
        if (u.sum(axis=0) > self.max_group_size).any():
            raise PlanError(f"more than {self.max_group_size} users on one RF chain")
        if ((u == 0) & ((m != 0) | (p != 0.0))).any():
            raise PlanError("unscheduled users must hold no antennas and no power")
        if ((u == 1) & (m < 1)).any():
            raise PlanError("every scheduled user needs at least one antenna")
        if (p < 0.0).any():
            raise PlanError("powers must be nonnegative")
        if ((u * m).sum(axis=0) > self.bs_antennas).any():
            raise PlanError("allocated antennas exceed the array on some RF chain")
        budget = self.max_power_w * (1.0 + 1e-12)
        if ((u * p).sum(axis=0) > budget).any():
            raise PlanError("allocated power exceeds the budget on some RF chain")

    @property
    def num_users(self) -> int:
        return self.scheduling.shape[0]

    @property
    def num_chains(self) -> int:
        return self.scheduling.shape[1]


@dataclass(frozen=True)
class AnalogPrecoder:
    """Constant-modulus weights of one RF chain plus their segment layout.

    ``segment_map`` holds (user index, start offset, length) per scheduled
    user; segments are contiguous and start at antenna 0 in ascending user
    order.  ``weights`` is the concatenation of the per-segment weights and
    may be shorter than the array when antennas are left idle.
    """

    weights: np.ndarray
    segment_map: tuple[tuple[int, int, int], ...]
    bs_antennas: int

    def __post_init__(self) -> None:
        total = sum(length for _, _, length in self.segment_map)
        if len(self.weights) != total:
            raise ValueError("weights length disagrees with the segment map")
        if total > self.bs_antennas:
            raise ValueError("segments exceed the array size")
        expected = 0
        for _, offset, length in self.segment_map:
            if offset != expected:
                raise ValueError("segments must be contiguous from antenna 0")
            expected += length
        # np.allclose(|w|, modulus, rtol=1e-9, atol=0) in one comparison: a
        # NaN or an infinite |w| fails it, as there
        modulus = 1.0 / math.sqrt(self.bs_antennas)
        if total and not (np.abs(np.abs(self.weights) - modulus) <= 1e-9 * modulus).all():
            raise ValueError("weights must have constant modulus 1/sqrt(M_BS)")

    def embedded(self) -> np.ndarray:
        """Weights placed on the physical array, zero on idle antennas."""
        w = np.zeros(self.bs_antennas, dtype=np.complex128)
        w[: len(self.weights)] = self.weights
        return w


def segment_precoder(seg_len: int, steer_angle: float, bs_antennas: int) -> np.ndarray:
    """Weights of one subarray block steered at ``steer_angle``.

    The phase ramp is centered on the block itself, but the modulus is
    1/sqrt(M_BS): the phase-shifter network normalizes over the full array,
    so shorter blocks really do radiate less power.  This is the
    one-segment case of ``rf_chain_precoder``.
    """
    if seg_len < 1:
        raise ValueError("segment length must be positive")
    if seg_len > bs_antennas:
        raise ValueError(f"segment of {seg_len} antennas exceeds the {bs_antennas}-element array")
    if not 0.0 < steer_angle < math.pi:
        raise ValueError(f"steering angle must lie in (0, pi), got {steer_angle}")
    return _kernels.segment_weights(np.cos([steer_angle]), [seg_len], bs_antennas)


def segment_layout(plan: GroupPlan, rf_index: int) -> tuple[tuple[int, int, int], ...]:
    """(user, offset, length) blocks of one chain, ascending user index."""
    layout = []
    offset = 0
    for k in range(plan.num_users):
        if plan.scheduling[k, rf_index]:
            length = int(plan.antenna_alloc[k, rf_index])
            layout.append((k, offset, length))
            offset += length
    return tuple(layout)


def rf_chain_precoder(plan: GroupPlan, rf_index: int, los_aods: np.ndarray) -> AnalogPrecoder:
    """The scheduled users' segments of one RF chain, each steered at its
    user's LOS departure in ``los_aods``."""
    if not 0 <= rf_index < plan.num_chains:
        raise ValueError(f"rf_index {rf_index} out of range")
    layout = segment_layout(plan, rf_index)
    users = [k for k, _, _ in layout]
    weights = _kernels.segment_weights(np.cos(np.asarray(los_aods, dtype=np.float64)[users]),
                                       [length for _, _, length in layout], plan.bs_antennas)
    return AnalogPrecoder(weights, layout, plan.bs_antennas)


def user_combiner(ue_antennas: int, los_aoa: float) -> np.ndarray:
    """Unit-norm receive combiner matched to the LOS arrival angle."""
    if ue_antennas < 1:
        raise ValueError("ue_antennas must be positive")
    cfg = UlaConfig(ue_antennas)
    return array_response(cfg, los_aoa) / math.sqrt(ue_antennas)


def default_angle_grid(num_points: int = 2048) -> np.ndarray:
    """Uniform grid strictly inside (0, pi)."""
    if num_points < 1:
        raise ValueError("num_points must be positive")
    return np.linspace(0.0, math.pi, num_points + 2)[1:-1]


def beam_pattern(precoders: AnalogPrecoder | Sequence[AnalogPrecoder],
                 angle_grid: np.ndarray) -> np.ndarray:
    """|a_BS(theta)^H w| over the grid, with w embedded on the full array.

    ``precoders`` is one precoder, for an array of the grid's shape, or a
    sequence of n precoders on one array, for an (n, len(grid)) array.  The
    precoders of a sequence share one steering matrix (``pattern_mags``).
    """
    angle_grid = np.asarray(angle_grid, dtype=np.float64)
    if angle_grid.size and not ((angle_grid > 0.0) & (angle_grid < math.pi)).all():
        raise ValueError("angles must lie in (0, pi)")
    from ._kernels import pattern_mags

    single = isinstance(precoders, AnalogPrecoder)
    group = [precoders] if single else list(precoders)
    if len({p.bs_antennas for p in group}) != 1:
        raise ValueError("the precoders must share one array")
    mags = pattern_mags(np.stack([p.embedded() for p in group], axis=-1),
                        np.cos(angle_grid))
    return mags[..., 0] if single else np.moveaxis(mags, -1, 0)
