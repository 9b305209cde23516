"""Hot numeric kernels.

The Monte Carlo sweeps spend almost all of their time in three places:
collapsing a user's multipath channel into the combined row v^H H, taking
inner products of such rows with segment precoders, and sampling beam
patterns over dense angle grids.  Each kernel is vectorized numpy, and its
results are deterministic regardless of thread count.

Each distinct steering phase is computed once per call:

* ``segment_gains`` takes a trial's rows stacked as a ``(K, M_BS)`` array
  and builds its precoder phases once for all of them.
  ``two_segment_sweep`` takes the rows of a whole block of trials,
  ``(T, K, M_BS)``, with one steering pair per trial, and builds each
  trial's phases once as a ``(T, 1, M_BS)`` array broadcast against its K
  rows.  ``vhh_row`` takes a block's paths as (T, K, 1 + L) arrays and
  builds every (trial, user) row in one call.
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

A complex product depends on its layout, not only on its operands.
numpy's complex multiply is not commutative in the last bit (x * y and
y * x differed in 21763 of 65536 random products, numpy 2.4.6 on
AVX-512), and for a temporary operand of at least 256 KiB with the
result's shape numpy reuses the temporary as the output, which turns
``x * tmp`` into ``tmp * x``.  So a block product must keep the per-trial
broadcast: a flattened ``(T·K, M)`` × ``(T·K, M)`` product with the phase
repeated per row is such a product at T = 64, K = 2, M = 128, and 5386 of
its 16384 elements differed from the per-trial ``(K, M)`` × ``(M,)``
products, while the ``(T, 1, M)`` × ``(T, K, M)`` broadcast cannot reuse
an operand and matches them.  Where the shapes can coincide (one row per
trial), ``np.multiply`` is called as a function, which never reuses one.

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
    """exp(-iπ cos θ ((m - 1) / 2 - j)) for every angle in ``cos_angles``
    (any shape) and element j, on a new last axis, with the right half of
    each row mirrored from the left half."""
    half = (m + 1) // 2
    out = np.empty(cos_angles.shape + (m,), dtype=np.complex128)
    np.exp(-1j * math.pi * cos_angles[..., None] * _centred_ramp(m)[:half],
           out=out[..., :half])
    np.conjugate(out[..., :m // 2][..., ::-1], out=out[..., half:])
    return out


def vhh_row(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray,
            m_ue: int, m_bs: int) -> np.ndarray:
    """Row vector v^H H for a matched combiner v = a_UE(aoas[..., 0]) / sqrt(M_UE).

    The paths lie on the last axis of ``gains``, ``aods`` and ``aoas``
    (..., 1 + L); the rows come back as (..., M_BS), so one call takes a
    single user or a whole block of (trial, user) rows.  H is never
    materialized: each path contributes its receive inner product times its
    transmit steering row.  Both products are stacked matmuls, which run
    the BLAS (or no-BLAS) routine of a single row's call on every row, so
    each row keeps the bits of its own ``(gains * rx) @ steering``.
    """
    a_ue = np.exp(1j * math.pi * np.cos(aoas)[..., None] * _centred_ramp(m_ue))
    v = a_ue[..., 0, :] / math.sqrt(m_ue)
    rx = (a_ue @ v.conj()[..., :, None])[..., 0]
    # np.multiply, not ``gains * rx``: rx is a temporary of the product's
    # shape, which numpy may reuse as the output (see the module notes)
    weights = np.multiply(gains, rx)[..., None, :]
    return (weights @ _steering_conj(np.cos(aods), m_bs))[..., 0, :]


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


def two_segment_sweep(rows: np.ndarray, cos_a: float | np.ndarray,
                      cos_b: float | np.ndarray, m1_values: np.ndarray,
                      m_bs: int) -> np.ndarray:
    """Effective channels of each row of ``rows`` (..., K, M_BS) for every
    split (m1, m_bs - m1) of a two-user chain steered at ``cos_a`` and
    ``cos_b`` (each of shape ``(...)``); returns a (..., K, len(m1_values))
    array.

    Prefix sums turn the whole sweep into O(M_BS + len(m1_values)) work per
    row: each segment inner product is a difference of two cumulative sums.
    The phase ramps and per-split factors are built once for the K rows
    that share a steering pair, and broadcast against them.
    """
    inv = 1.0 / math.sqrt(m_bs)
    m = np.arange(m_bs)
    cos_a = np.asarray(cos_a, dtype=np.float64)[..., None, None]
    cos_b = np.asarray(cos_b, dtype=np.float64)[..., None, None]
    pre_a = np.zeros(rows.shape[:-1] + (m_bs + 1,), dtype=np.complex128)
    pre_b = np.zeros(rows.shape[:-1] + (m_bs + 1,), dtype=np.complex128)
    # np.multiply, not ``rows * phase``: with one row per steering pair the
    # phase is a temporary of the rows' shape, which numpy may reuse as the
    # output, and that swaps the product's operands (see the module notes)
    np.cumsum(np.multiply(rows, np.exp(-1j * math.pi * cos_a * m)), axis=-1,
              out=pre_a[..., 1:])
    np.cumsum(np.multiply(rows, np.exp(-1j * math.pi * cos_b * m)), axis=-1,
              out=pre_b[..., 1:])
    m1 = np.asarray(m1_values, dtype=np.int64)
    m2 = m_bs - m1
    seg_a = inv * np.exp(1j * math.pi * 0.5 * (m1 - 1) * cos_a) * pre_a[..., m1]
    seg_b = (inv * np.exp(1j * math.pi * 0.5 * (m2 - 1) * cos_b)
             * np.exp(1j * math.pi * cos_b * m1) * (pre_b[..., m_bs:] - pre_b[..., m1]))
    return seg_a + seg_b


def pattern_mags(w_embedded: np.ndarray, cos_angles: np.ndarray) -> np.ndarray:
    """|a(θ)^H w| for every cos θ in ``cos_angles``."""
    steer_conj = _steering_conj(np.asarray(cos_angles), w_embedded.shape[0])
    return np.abs(steer_conj @ w_embedded)


def get_backend() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
