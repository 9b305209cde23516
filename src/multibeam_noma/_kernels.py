"""Hot numeric kernels.

The Monte Carlo sweeps spend almost all of their time in three places:
collapsing a user's multipath channel into the combined row v^H H, taking
inner products of that row with segment precoders, and sampling beam
patterns over dense angle grids.  Each kernel is vectorized numpy, and its
results are deterministic regardless of thread count.

Callers look the kernels up on this module at call time
(``_kernels.vhh_row(...)``), so a wrapper patched onto the module sees
every call.
"""

from __future__ import annotations

import math

import numpy as np


def vhh_row(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray,
            m_ue: int, m_bs: int) -> np.ndarray:
    """Row vector v^H H for a matched combiner v = a_UE(aoas[0]) / sqrt(M_UE).

    H is never materialized: each path contributes its receive inner
    product times its transmit steering row.
    """
    ramp_ue = (m_ue - 1) / 2.0 - np.arange(m_ue)
    a_ue = np.exp(1j * math.pi * np.cos(aoas)[:, None] * ramp_ue[None, :])
    v = a_ue[0] / math.sqrt(m_ue)
    rx = a_ue @ v.conj()
    ramp_bs = (m_bs - 1) / 2.0 - np.arange(m_bs)
    tx_conj = np.exp(-1j * math.pi * np.cos(aods)[:, None] * ramp_bs[None, :])
    return (gains * rx) @ tx_conj


def segment_gains(row: np.ndarray, cos_steers: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray, m_bs: int) -> complex:
    """Effective channel of one user under a multi-segment precoder."""
    inv = 1.0 / math.sqrt(m_bs)
    total = 0.0 + 0.0j
    for cos_s, off, length in zip(cos_steers, offsets, lengths):
        ramp = (length - 1) / 2.0 - np.arange(length)
        w = inv * np.exp(1j * math.pi * ramp * cos_s)
        total += row[off:off + length] @ w
    return total


def two_segment_sweep(row: np.ndarray, cos_a: float, cos_b: float,
                      m1_values: np.ndarray, m_bs: int) -> np.ndarray:
    """Effective channels for every split (m1, m_bs - m1) of a two-user chain.

    Prefix sums turn the whole sweep into O(M_BS + len(m1_values)) work:
    each segment inner product is a difference of two cumulative sums.
    """
    inv = 1.0 / math.sqrt(m_bs)
    m = np.arange(m_bs)
    pre_a = np.concatenate(([0.0 + 0.0j], np.cumsum(row * np.exp(-1j * math.pi * cos_a * m))))
    pre_b = np.concatenate(([0.0 + 0.0j], np.cumsum(row * np.exp(-1j * math.pi * cos_b * m))))
    m1 = np.asarray(m1_values, dtype=np.int64)
    m2 = m_bs - m1
    seg_a = inv * np.exp(1j * math.pi * 0.5 * (m1 - 1) * cos_a) * pre_a[m1]
    seg_b = (inv * np.exp(1j * math.pi * 0.5 * (m2 - 1) * cos_b)
             * np.exp(1j * math.pi * cos_b * m1) * (pre_b[m_bs] - pre_b[m1]))
    return seg_a + seg_b


def pattern_mags(w_embedded: np.ndarray, cos_angles: np.ndarray) -> np.ndarray:
    m_bs = w_embedded.shape[0]
    ramp = (m_bs - 1) / 2.0 - np.arange(m_bs)
    steer_conj = np.exp(-1j * math.pi * np.asarray(cos_angles)[:, None] * ramp[None, :])
    return np.abs(steer_conj @ w_embedded)


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
