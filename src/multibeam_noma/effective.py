"""Effective channels after combining: v^H H w, three ways.

``effective_direct`` is the definition (an exact matrix product) and the
reference every approximation is checked against.  ``effective_closed_form``
expands the same product into Dirichlet kernels, one per (path, segment)
pair.  ``effective_asymptotic`` keeps only the matched LOS term, which is
what survives as the array grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# the one Dirichlet kernel, shared with the antenna sweep's closed form and
# the single-beam baseline; both names are re-exported from here.  The receive
# term D(M_UE, kappa) is the one of the sweeps' kernels too.
from ._kernels import DIRICHLET_EPS, dirichlet, receive_kernel  # noqa: F401
from .beams import AnalogPrecoder, GroupPlan, rf_chain_precoder, segment_layout, user_combiner
from .channel import UserChannel


def effective_direct(channel: UserChannel, combiner: np.ndarray,
                     precoder: AnalogPrecoder) -> complex:
    """v^H H w with the materialized channel matrix.  The canonical value."""
    combiner = np.asarray(combiner)
    h = channel.matrix
    if combiner.shape != (h.shape[0],):
        raise ValueError(f"combiner has {combiner.shape} entries, channel expects {h.shape[0]}")
    if precoder.bs_antennas != h.shape[1]:
        raise ValueError("precoder and channel disagree on the array size")
    return complex(combiner.conj() @ h @ precoder.embedded())


def effective_closed_form(channel: UserChannel, plan: GroupPlan, rf_index: int,
                          los_aods: np.ndarray) -> complex:
    """Dirichlet-kernel expansion of v^H H w for one user and one RF chain.

    Each path l and each segment (steered at user j's LOS departure angle)
    contribute

        gain_l / sqrt(M_UE M_BS)
          * D(M_UE, kappa) * D(M_j, x) * exp(j pi c_j cos(aod_l))

    with D the Dirichlet kernel, kappa = pi/2 (cos aoa_0 - cos aoa_l),
    x = pi/2 (cos aod_j0 - cos aod_l), and c_j the distance from the
    segment center to the array center in half-wavelengths.  The phase
    factor accounts for segments sitting off-center on the array; it
    disappears for a single full-array beam.

    All (path, segment) terms are built as one array and summed.
    """
    m_ue = channel.ue_config.num_antennas
    m_bs = plan.bs_antennas
    layout = np.array(segment_layout(plan, rf_index), dtype=np.int64).reshape(-1, 3)
    users, offsets, lengths = layout.T
    center = (m_bs - 1) / 2.0
    norm = 1.0 / math.sqrt(m_ue * m_bs)
    cos_aods = np.cos(channel.aods)[:, None]
    cos_steers = np.cos(np.asarray(los_aods, dtype=np.float64)[users])

    rx = receive_kernel(channel.aoas, m_ue)
    x = 0.5 * math.pi * (cos_steers - cos_aods)
    c_seg = offsets + (lengths - 1) / 2.0 - center
    phase = np.exp(1j * math.pi * c_seg * cos_aods)
    terms = ((channel.gains * norm) * rx)[:, None] * dirichlet(lengths, x) * phase
    return complex(terms.sum())


def effective_asymptotic(los_gain: complex, m_ue: int, m_bs: int, m_user: int) -> complex:
    """Large-array limit of the effective channel: only the matched LOS beam.

    Cross-user and NLOS terms stay bounded while the matched term grows
    with the segment, leaving gain * sqrt(M_UE / M_BS) * M_user.
    """
    if m_user < 0 or m_user > m_bs:
        raise ValueError("segment size must lie in [0, M_BS]")
    return complex(los_gain) * math.sqrt(m_ue / m_bs) * m_user


def tdma_effective_gain(los_gain: complex, m_ue: int, m_bs: int) -> float:
    """|h|^2 when the whole array serves one user: |gain|^2 M_UE M_BS."""
    return abs(los_gain) ** 2 * m_ue * m_bs


@dataclass(frozen=True)
class EffectiveChannelMatrix:
    """K x N_RF table of effective channels; entry (k, r) is user k's
    response to chain r's beams whether or not k is scheduled there."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError("effective channels form a K x N_RF matrix")
        object.__setattr__(self, "values", v)

    @property
    def gains_sq(self) -> np.ndarray:
        return np.abs(self.values) ** 2


def effective_channel_matrix(channels: Sequence[UserChannel], plan: GroupPlan,
                             los_aods: np.ndarray | None = None) -> EffectiveChannelMatrix:
    """Exact effective channels of every user against every RF chain.

    Combiners are matched to each user's LOS arrival angle.  ``los_aods``
    defaults to the channels' own LOS departure angles.
    """
    if len(channels) != plan.num_users:
        raise ValueError("one channel per scheduled user is required")
    if los_aods is None:
        los_aods = np.array([ch.aods[0] for ch in channels])
    values = np.zeros((plan.num_users, plan.num_chains), dtype=np.complex128)
    combiners = [user_combiner(ch.ue_config.num_antennas, ch.aoas[0]) for ch in channels]
    for r in range(plan.num_chains):
        precoder = rf_chain_precoder(plan, r, los_aods)
        for k, ch in enumerate(channels):
            values[k, r] = effective_direct(ch, combiners[k], precoder)
    return EffectiveChannelMatrix(values)
