"""Hot numeric kernels.

The Monte Carlo sweeps spend almost all of their time in three places:
collapsing a user's multipath channel into the combined row v^H H, taking
inner products of such rows with segment precoders, and sampling beam
patterns over dense angle grids.  Each kernel is vectorized numpy, and its
results are deterministic regardless of thread count.

Each distinct steering phase is computed once per call:

* ``segment_gains`` and ``two_segment_sweep`` take a trial's rows stacked
  as a ``(K, M_BS)`` array and build their precoder phases once for all of
  them.  ``vhh_row`` stays one call per user.
* The centred element ramps are cached per array size (bounded, read-only).
* Steering matrices use the mirror identity.  The centred ramp
  ``(M - 1) / 2 - j`` satisfies ``ramp[M - 1 - j] == -ramp[j]`` exactly, and
  IEEE products are sign-symmetric, so the phase argument of column
  ``M - 1 - j`` is that of column ``j`` with the imaginary part negated and
  the real part still a signed zero.  Complex ``exp`` of ``±0 + iθ`` is
  ``(cos θ, sin θ)`` with ``sin`` odd, so the right half of each steering
  row is the mirrored conjugate of its left half, bit for bit.  Only the
  first ``(M + 1) // 2`` columns are exponentiated.  The one exception is
  cos θ = ±0, where every phase is +0 and the conjugate flips the sign of
  the zero imaginary part; no float angle has a zero cosine, and
  ``pattern_mags`` returns magnitudes, which hide the sign of a zero.
  ``tests/test_kernels.py`` checks the identity directly, so a libm that
  breaks it fails there.  The mirror is applied only to the transmit
  steering matrices of ``vhh_row`` and ``pattern_mags``: a single row (one
  precoder segment) or the small M_UE-wide receive matrix costs more to
  mirror than the exps it saves, and the ``exp(-iπ cos m)`` ramps of
  ``two_segment_sweep`` are not centred.

Each phase expression keeps its original association order, because the
orders round differently: steering matrices use ``((±1j*π)*cos)*ramp``,
segment weights ``((1j*π)*ramp)*cos``.

Callers look the kernels up on this module at call time
(``_kernels.vhh_row(...)``), so a wrapper patched onto the module sees
every call.
"""

from __future__ import annotations

import functools
import math

import numpy as np


@functools.lru_cache(maxsize=256)
def _centred_ramp(m: int) -> np.ndarray:
    """Element phase ramp (m - 1) / 2 - j of an m-element ULA."""
    ramp = (m - 1) / 2.0 - np.arange(m)
    ramp.setflags(write=False)
    return ramp


def _steering_conj(cos_angles: np.ndarray, m: int) -> np.ndarray:
    """exp(-iπ cos θ ((m - 1) / 2 - j)) for every angle (rows) and element j,
    with the right half of each row mirrored from the left half."""
    half = (m + 1) // 2
    out = np.empty((len(cos_angles), m), dtype=np.complex128)
    np.exp(-1j * math.pi * cos_angles[:, None] * _centred_ramp(m)[None, :half],
           out=out[:, :half])
    np.conjugate(out[:, :m // 2][:, ::-1], out=out[:, half:])
    return out


def vhh_row(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray,
            m_ue: int, m_bs: int) -> np.ndarray:
    """Row vector v^H H for a matched combiner v = a_UE(aoas[0]) / sqrt(M_UE).

    H is never materialized: each path contributes its receive inner
    product times its transmit steering row.  One call per user.
    """
    a_ue = np.exp(1j * math.pi * np.cos(aoas)[:, None] * _centred_ramp(m_ue)[None, :])
    v = a_ue[0] / math.sqrt(m_ue)
    rx = a_ue @ v.conj()
    return (gains * rx) @ _steering_conj(np.cos(aods), m_bs)


def segment_gains(rows: np.ndarray, cos_steers: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray, m_bs: int) -> np.ndarray:
    """Effective channel of each row of ``rows`` (K, M_BS) under one
    multi-segment precoder; returns K complex gains.

    Each segment weight is built once.  Every row sums its own segment
    inner products in segment order, starting from 0j, so a row's result
    does not depend on which other rows share the call.
    """
    inv = 1.0 / math.sqrt(m_bs)
    weights = [
        (slice(off, off + length),
         inv * np.exp(1j * math.pi * _centred_ramp(int(length)) * cos_s))
        for cos_s, off, length in zip(cos_steers, offsets, lengths)
    ]
    totals = np.empty(len(rows), dtype=np.complex128)
    for k, row in enumerate(rows):
        total = 0.0 + 0.0j
        for seg, w in weights:
            total += row[seg] @ w
        totals[k] = total
    return totals


def two_segment_sweep(rows: np.ndarray, cos_a: float, cos_b: float,
                      m1_values: np.ndarray, m_bs: int) -> np.ndarray:
    """Effective channels of each row of ``rows`` (K, M_BS) for every split
    (m1, m_bs - m1) of a two-user chain; returns a (K, len(m1_values)) array.

    Prefix sums turn the whole sweep into O(M_BS + len(m1_values)) work per
    row: each segment inner product is a difference of two cumulative sums.
    The phase ramps and per-split factors are built once for all rows.
    """
    inv = 1.0 / math.sqrt(m_bs)
    m = np.arange(m_bs)
    k = len(rows)
    pre_a = np.zeros((k, m_bs + 1), dtype=np.complex128)
    pre_b = np.zeros((k, m_bs + 1), dtype=np.complex128)
    np.cumsum(rows * np.exp(-1j * math.pi * cos_a * m), axis=1, out=pre_a[:, 1:])
    np.cumsum(rows * np.exp(-1j * math.pi * cos_b * m), axis=1, out=pre_b[:, 1:])
    m1 = np.asarray(m1_values, dtype=np.int64)
    m2 = m_bs - m1
    seg_a = inv * np.exp(1j * math.pi * 0.5 * (m1 - 1) * cos_a) * pre_a[:, m1]
    seg_b = (inv * np.exp(1j * math.pi * 0.5 * (m2 - 1) * cos_b)
             * np.exp(1j * math.pi * cos_b * m1) * (pre_b[:, m_bs:] - pre_b[:, m1]))
    return seg_a + seg_b


def pattern_mags(w_embedded: np.ndarray, cos_angles: np.ndarray) -> np.ndarray:
    """|a(θ)^H w| for every cos θ in ``cos_angles``."""
    steer_conj = _steering_conj(np.asarray(cos_angles), w_embedded.shape[0])
    return np.abs(steer_conj @ w_embedded)


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
