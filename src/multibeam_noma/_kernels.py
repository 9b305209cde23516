"""Hot numeric kernels.

The Monte Carlo sweeps spend most of their time building steering tables:
the transmit rows of the combined channels v^H H in the power sweep
(``vhh_row``) and the closed-form grid of the antenna sweep
(``two_segment_closed_form``).  The power sweep then takes inner products of
its rows with segment precoders (``segment_gains``), and the beam-pattern
report samples patterns over dense angle grids (``pattern_mags``).  Each
kernel is vectorized numpy, and its results are deterministic regardless of
thread count.

The antenna sweep builds no rows: ``two_segment_closed_form`` takes a
block's paths as (T, K, 1 + L) arrays and gives every split-beam and
full-array channel from the paper's Dirichlet-kernel closed form, with
``dirichlet`` (shared with ``effective`` and the single-beam baseline of
``rates``) and steering tables, with no exp per split.  Its segments are
steered at the two users' LOS departures, so one half-angle table call
(``_half_angle_phases``) gives both the segment phases e^{iπ c m1/2} and the
LOS paths' own split columns; the NLOS paths' tables are read at the split
columns alone or as a full grid.  ``two_segment_sweep`` is its row-path
oracle in the tests.  The receive side has one formula:
``receive_kernel`` gives D(M_UE, κ_l) of every path, with no receive
exponentials, for ``vhh_row``, ``two_segment_closed_form`` and
``effective.effective_closed_form``.

Each distinct steering phase is computed once per call:

* ``segment_gains`` takes rows stacked on any leading axes, ``(..., M_BS)``,
  and weighs each with one dot against its ``segment_weights``, whose
  steering broadcasts against those axes.  The power sweep hands it a run
  of trials' rows, ``(T, K, M_BS)``: its split beam takes one steering set
  per trial, ``(T, 1, K)``, so each trial's weights are built once for its
  K rows, and its full-array TDMA beams (one segment each) take one user's
  rows ``(T, M_BS)`` at a time with one steering per row, ``(T, 1)``.  The
  dot per row keeps each row's bits whatever shares the call.
  ``two_segment_sweep`` takes the rows of a
  whole block of trials, ``(T, K, M_BS)``, with one steering pair per
  trial, and builds each trial's phases once as a ``(T, 1, M_BS)`` array
  broadcast against its K rows.  ``vhh_row`` takes a block's paths as
  (T, K, 1 + L) arrays and builds every (trial, user) row in one call.
* The element ramps are cached per array size (bounded, read-only).
* Steering matrices use the mirror identity.  The centred ramp
  ``(M - 1) / 2 - j`` satisfies ``ramp[M - 1 - j] == -ramp[j]`` exactly, so
  column ``M - 1 - j`` of a steering row is the conjugate of column ``j``.
  Only the first ``(M + 1) // 2`` columns are computed, and ``_mirror``, the
  one mirroring step, fills the rest from them.  For one exp per element
  (``_mirrored_exp``) the mirror also gives the bits of the full exp: IEEE
  products are sign-symmetric, so the phase argument of column ``M - 1 - j``
  is that of column ``j`` with the imaginary part negated and the real part
  still a signed zero, and complex ``exp`` of ``±0 + iθ`` is
  ``(cos θ, sin θ)`` with ``sin`` odd.  The one exception is cos θ = ±0,
  where every phase is +0 and the conjugate flips the sign of the zero
  imaginary part; no float angle has a zero cosine, and ``pattern_mags``
  returns magnitudes, which hide the sign of a zero.
  ``tests/test_kernels.py`` checks the identity directly, so a libm that
  breaks it fails there.
* The sweeps' tables are two-level (``_steering_tables``): each left-half
  element is a coarse phase of its block of B columns times a fine phase of
  its offset in the block, so an angle takes about 2 sqrt(M / 2) exps, not
  M / 2 (16 instead of 64 at M = 128), and one complex product per element.
  Its phases are reduced exactly modulo 2π before they are rounded, so the
  table stays within a few ulps of the exact steering row at any M, where
  one exp per element loses an ulp of the largest phase π (M - 1) / 2
  (3.3e-14 at M = 128).  Two assemblies read the tables:
  ``_table_steering`` makes the full grid (the transmit rows of
  ``vhh_row``, and the NLOS paths' grid in ``two_segment_closed_form`` when
  more than half the columns are splits), and ``_table_columns`` makes only
  the columns a split set reads, each with the bits of its grid element: the
  half-angle columns of the LOS departures at every split, and the NLOS
  paths' columns of a sparse split set.  At the half cosine c/2, column
  M - 1 - m1 times column 0 is e^{iπ c m1/2} and its square is column
  M - 1 - m1 at c, each within a few ulps of 1 (the product's rounding on
  top of the tables'), where one exp of π c m1/2 rounds the phase to an ulp
  of its own size.

Split-beam weights have one formula, ``segment_weights``: contiguous
segments end to end, each steered at one user, all from one exp with the
phase order ``((1j*π)*ramp)*cos``.  It gives the weights of
``segment_gains`` and of ``beams.segment_precoder`` and
``beams.rf_chain_precoder``, so the plan path's precoders, the beam
patterns and the power sweep's split and TDMA beams share their bits.  No
mirror: a segment's ramp is centred on the segment, not on the array.

``steering`` gives ``channel._responses`` its mirrored array responses, one
exp per element (so ``array_response`` and both sides of
``channel_matrix``).  ``_steering_conj``, the steering matrix of
``pattern_mags``, keeps its phase order ``((-1j*π)*cos)*ramp``.  Both stay
off the two-level table because the beam-pattern golden holds an exact null
of the full-array beam (60°, -293.07 dB) whose value is rounding noise and
follows the bits of the pattern's steering matrix and weights: in a probe,
building the matrix of ``pattern_mags`` from the two-level table moved it
to -292.00 dB, and building the precoder weights from it too moved it to
-283.53 dB.  The ``exp(-iπ cos m)`` ramps of ``two_segment_sweep`` are not
centred.

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
trial), ``np.multiply`` is called as a function, which never reuses one, or
the temporary is the left operand, whose reuse keeps the operand order.  An
explicit ``out=`` is safe when it is one of the inputs exactly, but not when
it overlaps an input in part: numpy then goes through buffered copies, and
writing e_a, e_b over the half-angle columns they are made from (a
``(T, 2, S)`` view of the ``(T, 2, S + 1)`` columns) moved the last bit of
some products at S = 1.

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


def _mirror(out: np.ndarray, m: int) -> np.ndarray:
    """Fill the right half of each m-element row of ``out`` (last axis) with
    the mirrored conjugate of its first ``(m + 1) // 2`` columns (module
    notes); returns ``out``."""
    np.conjugate(out[..., :m // 2][..., ::-1], out=out[..., (m + 1) // 2:])
    return out


def _mirrored_exp(left_phases: np.ndarray, m: int) -> np.ndarray:
    """exp of a centred-ramp phase over m elements, given only the phases
    of the first ``(m + 1) // 2`` elements (last axis of ``left_phases``)."""
    out = np.empty(left_phases.shape[:-1] + (m,), dtype=np.complex128)
    np.exp(left_phases, out=out[..., :(m + 1) // 2])
    return _mirror(out, m)


def _steering_conj(cos_angles: np.ndarray, m: int) -> np.ndarray:
    """exp(-iπ cos θ ((m - 1) / 2 - j)) for every angle in ``cos_angles``
    (any shape) and element j, on a new last axis."""
    ramp = _centred_ramp(m)[:(m + 1) // 2]
    return _mirrored_exp(-1j * math.pi * cos_angles[..., None] * ramp, m)


@functools.lru_cache(maxsize=256)
def _table_ramps(m: int) -> tuple[np.ndarray, int, int]:
    """Doubled phase ramps of ``_steering_tables`` over m elements: the Q
    coarse ramps m - 1 - 2 B q, then the B fine ramps -2 r, with B the
    integer square root of the half width (m + 1) // 2 and Q = ceil(half / B)
    (bounded cache, read-only)."""
    half = (m + 1) // 2
    b = math.isqrt(half)
    q = -(-half // b)
    ramps = np.concatenate(((m - 1) - 2.0 * b * np.arange(q), -2.0 * np.arange(b)))
    ramps.setflags(write=False)
    return ramps, q, b


def _steering_tables(cos_angles, m: int, conj: bool = False) -> tuple[np.ndarray, int, int]:
    """The two-level tables of ``_table_steering``: for every cos θ in
    ``cos_angles`` (any shape), the Q coarse phases e^{±iπ c ((m-1)/2 - B q)}
    then the B fine phases e^{∓iπ c r} on a new last axis, with Q and B
    (the sign is - with ``conj``).

    Each phase is (π/2) x with x = ±c k for a doubled ramp k, reduced
    exactly modulo 4 before it meets π: with c split into a 26-bit head and
    its tail (Veltkamp), head · k and tail · k are exact for m <= 2**27, and
    head · k - 4 rint(head · k / 4) is too.  So every phase lies within a
    few ulps of 2π of its exact value however long the array, where one exp
    per element rounds π c (m - 1) / 2 to an ulp of its own size.
    """
    ramps, q, b = _table_ramps(m)
    c = np.asarray(cos_angles, dtype=np.float64)
    if conj:
        c = -c
    t = c * 134217729.0                                       # 2**27 + 1
    head = t - (t - c)
    x = head[..., None] * ramps
    x -= 4.0 * np.rint(0.25 * x)
    x += (c - head)[..., None] * ramps
    return np.exp((0.5j * math.pi) * x), q, b


def _table_steering(cos_angles, m: int, conj: bool = False) -> np.ndarray:
    """exp(±iπ cos θ ((m - 1) / 2 - j)) for every cos θ in ``cos_angles`` (any
    shape) and element j, on a new last axis; the sign is - with ``conj``.

    Element j = B q + r of the left half is the coarse phase of block q
    times the fine phase of offset r (``_steering_tables``): one exp of
    Q + B phases per angle, about 2 sqrt(m / 2), and one complex product
    per element.  The last block is cut at the half width, and the mirror
    fills the right half (module notes).
    """
    tables, q, b = _steering_tables(cos_angles, m, conj)
    out = np.empty(tables.shape[:-1] + (m,), dtype=np.complex128)
    # the product fills the first Q·B <= m columns in place (splitting the
    # last axis into blocks is always a view); the columns past the half
    # width are overwritten by the mirror
    blocks = out[..., :q * b].reshape(tables.shape[:-1] + (q, b))
    np.multiply(tables[..., :q, None], tables[..., None, q:], out=blocks)
    return _mirror(out, m)


def _table_columns(cos_angles, m: int, columns: np.ndarray) -> np.ndarray:
    """``_table_steering(cos_angles, m)[..., columns]`` bit for bit, with no
    full grid: for an integer array ``columns`` of S indices in [0, m), the
    (..., S) columns from the tables alone.

    A left-half column j = B q + r is the same product coarse[q] * fine[r],
    in the same operand order, and a right-half column is the conjugate of
    column m - 1 - j, as the mirror makes it.  So it costs two table reads,
    one complex product and at most one conjugation per column, against
    (m + 1) // 2 products and the mirror for the grid.
    """
    tables, q, b = _steering_tables(cos_angles, m)
    columns = np.asarray(columns, dtype=np.int64)
    left = np.minimum(columns, m - 1 - columns)
    # np.take, not a fancy index: it gathers along the last axis 1.1-1.6x
    # as fast (numpy 2.4)
    out = np.take(tables, left // b, axis=-1)
    np.multiply(out, np.take(tables, q + left % b, axis=-1), out=out)
    return np.conjugate(out, out=out, where=columns != left)


# Below this, sin(x) is treated as zero and the kernel takes its limit.
# Angles live in (0, pi), so |x| < pi and the only reachable zero is x = 0.
DIRICHLET_EPS = 1e-9


def dirichlet(m, x) -> np.ndarray | float:
    """sin(m x) / sin(x), continued with its limit value m at x = 0.  ``m``
    (integers) and ``x`` broadcast; a float comes back when both are scalars."""
    x = np.asarray(x, dtype=np.float64)
    denom = np.sin(x)
    small = np.abs(denom) < DIRICHLET_EPS
    safe = np.where(small, 1.0, denom)
    out = np.where(small, np.asarray(m, dtype=np.float64), np.sin(m * x) / safe)
    return out if out.ndim else float(out)


def steering(cos_angles, m: int) -> np.ndarray:
    """exp(iπ cos θ ((m - 1) / 2 - j)) for every cos θ in ``cos_angles`` (any
    shape) and element j, on a new last axis: the array response of an
    m-element ULA, from one exp of the left half of the ramp, mirrored."""
    ramp = _centred_ramp(m)[:(m + 1) // 2]
    return _mirrored_exp(1j * ((ramp * math.pi) * np.asarray(cos_angles)[..., None]), m)


def receive_kernel(aoas: np.ndarray, m_ue: int) -> np.ndarray:
    """D(M_UE, π/2 (cos aoa_0 - cos aoa_l)) of every path l on the last axis
    of ``aoas``: sqrt(M_UE) times the receive gain a_UE(aoa_l)^T v^* of a
    combiner v = a_UE(aoa_0) / sqrt(M_UE) matched to path 0.  Real."""
    cos_aoas = np.cos(aoas)
    return dirichlet(m_ue, 0.5 * math.pi * (cos_aoas[..., :1] - cos_aoas))


def vhh_row(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray,
            m_ue: int, m_bs: int) -> np.ndarray:
    """Row vector v^H H for a matched combiner v = a_UE(aoas[..., 0]) / sqrt(M_UE).

    The paths lie on the last axis of ``gains``, ``aods`` and ``aoas``
    (..., 1 + L); the rows come back as (..., M_BS), so one call takes a
    single user or a whole block of (trial, user) rows.  H is never
    materialized: each path contributes its receive gain
    D(M_UE, κ_l) / sqrt(M_UE) times its conjugate transmit steering row from
    the two-level table.  The weighting is a stacked matmul, which runs the
    BLAS (or no-BLAS) routine of a single row's call on every row, so each
    row keeps the bits of its own ``(gains * rx) @ steering``.
    """
    rx = receive_kernel(aoas, m_ue) / math.sqrt(m_ue)
    # rx is real, so numpy cannot reuse it as the complex product's output
    weights = (gains * rx)[..., None, :]
    return (weights @ _table_steering(np.cos(aods), m_bs, conj=True))[..., 0, :]


def segment_weights(cos_steers, lengths, m_bs: int) -> np.ndarray:
    """Constant-modulus weights of contiguous segments, end to end: segment
    s holds its n = ``lengths[s]`` weights
    (1/sqrt(M_BS)) exp(iπ c_s ((n - 1) / 2 - j)), steered at
    c_s = ``cos_steers[..., s]``.

    Steering cosines of shape (..., S) give (..., sum(lengths)) weights, one
    weight vector per row.  Every weight comes from one exp: the phases are
    element-wise, so each keeps the bits of its own segment's
    ((1j*π)*ramp)*cos.  No segments give an empty array.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ramps = np.concatenate([np.zeros(0), *map(_centred_ramp, lengths.tolist())])
    cos = np.repeat(np.asarray(cos_steers, dtype=np.float64), lengths, axis=-1)
    return (1.0 / math.sqrt(m_bs)) * np.exp(1j * math.pi * ramps * cos)


def segment_gains(rows: np.ndarray, cos_steers: np.ndarray, offsets: np.ndarray,
                  lengths: np.ndarray, m_bs: int) -> np.ndarray:
    """Effective channel of each row of ``rows`` (..., M_BS) under a
    multi-segment precoder steered at ``cos_steers`` (..., S), which
    broadcasts against the rows' leading axes: one (S,) precoder for every
    row, one (T, 1, S) per trial for rows (T, K, M_BS), or one per row;
    returns the complex gains of the broadcast leading shape.

    The segments run contiguously from antenna 0, as on one RF chain:
    ``offsets`` must be the running sum of ``lengths``.  Each row takes one
    BLAS dot with its ``segment_weights`` over the used antennas, so a row's
    result does not depend on which other rows share the call.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if not np.array_equal(offsets, np.cumsum(lengths) - lengths):
        raise ValueError("segment offsets must be the running sum of their lengths from 0")
    w = segment_weights(cos_steers, lengths, m_bs)
    # a stacked (1, used) @ (used, 1) matmul: one BLAS dot per row, the bits
    # of that row's own ``row[:used] @ w``
    return (rows[..., None, :w.shape[-1]] @ w[..., None])[..., 0, 0]


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


def _reads_split_columns(num_splits: int, m: int) -> bool:
    """Whether ``two_segment_closed_form`` reads the NLOS paths' steering
    tables at its ``num_splits`` split columns of an m-element array
    (``_table_columns``) rather than building their full grid
    (``_table_steering``): at most half the columns.

    A split column costs two table reads, a complex product and at most
    one conjugation, against half a product and half a mirrored copy per
    grid column, and the (2, L) @ (L, S) product shrinks with it.  Timed
    in-process at 33, 128 and 256 elements, 0 to 30 NLOS paths and blocks
    of 64 to 256 trials, with the LOS path among the tables' 1 + L paths,
    the split columns ran 1.1-1.9x as fast as the grid wherever 2 S <= m,
    0.8-1.4x at 5m/8 and 3m/4 of the splits, and 0.54-1.05x at every split,
    slowest with the most paths.
    """
    return 2 * num_splits <= m


def _half_angle_phases(cos_los, m: int, m1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^{iπ c m1/2} and e^{iπ c (m1 - (m - 1)/2)} for every LOS cosine c in
    ``cos_los`` (any shape) and split m1 of an m-element array, each on a
    new last axis: the segment phases e_a, e_b of ``two_segment_closed_form``
    and each LOS path's own split column.

    One ``_table_columns`` call at the half cosine c/2 gives
    u(m1) = e^{iπ (c/2)(m1 - (m - 1)/2)} at the split columns m - 1 - m1 and
    e^{iπ (c/2)(m - 1)/2} at column 0; their product is the first and u^2
    the second.  So no phase is an exp per split, and both keep the tables'
    exact modulo-4 reduction (module notes).
    """
    half = _table_columns(0.5 * cos_los, m, np.append(m - 1 - m1, 0))
    u = half[..., :-1]
    # new arrays, not written over u, which overlaps half[..., -1:] (module
    # notes)
    return u * half[..., -1:], u * u


def two_segment_closed_form(gains: np.ndarray, aods: np.ndarray, aoas: np.ndarray,
                            m1_values: np.ndarray, m_ue: int, m_bs: int
                            ) -> tuple[np.ndarray, np.ndarray]:
    """Effective channels v^H H w from the paper's Dirichlet-kernel closed
    form, for two users with paths ``gains``, ``aods``, ``aoas`` (..., 2, P)
    and combiners matched to their own LOS arrival; no v^H H row is built.

    Returns the (..., 2, len(m1_values)) channels of every split
    (m1, m_bs - m1) of a two-segment chain whose segment a is steered at
    user 0's LOS departure (path 0) and segment b at user 1's, the values
    ``two_segment_sweep`` takes from the rows, and the (..., 2) channels of
    a full-array beam steered at each user's own LOS departure.

    Path l weighs in with w_l = g_l D(M_UE, κ_l) / sqrt(M_UE M_BS), and its
    two segment terms are

        w_l (e^{-iπ c_l m2/2} D(m1, x_a) + e^{iπ c_l m1/2} D(m2, x_b))

    with c_l = cos(aod_l), x_a = π/2 (c_a - c_l), x_b = π/2 (c_b - c_l) and
    c_a, c_b the two LOS cosines.  Writing D(m, x) = Im(e^{imx}) / sin x,
    with k_l = w_l / (2i sin x) over the unmatched paths,
    e_a = e^{iπ c_a m1/2}, e_b = e^{iπ c_b m1/2}, p_l = e^{-iπ c_l M_BS/2}
    and q = e^{iπ c_b M_BS/2}, the channel is

        h(m1) = e_a Σ k_a p - conj(e_a) Σ k_a p e^{iπ c m1}
                + conj(e_b) Σ k_b p q e^{iπ c m1} - e_b Σ k_b conj(p q)
                + m1 e_a Σ' w p + m2 e_b Σ'' w

    where Σ' and Σ'' run over the paths matched to segment a and b
    (|sin x| < ``DIRICHLET_EPS``), which take the kernel's limit m with no
    division and their phase at the steering angle.

    No phase is an exp per split.  The segment phases e_a, e_b and each
    LOS path's own column e^{iπ c_0 (m1 - (M_BS - 1)/2)} come from one
    half-angle table call (``_half_angle_phases``).  The sums over the L
    NLOS paths' e^{iπ c_l m1} come from their own tables, about
    2 L sqrt(M_BS / 2) exps per user whatever the number of splits, and one
    stacked (2, L) @ (L, N) product per user.  With splits in at most half
    the columns (``_reads_split_columns``) those tables are read at the S
    split columns alone (``_table_columns``, N = S); otherwise the full grid
    is built (``_table_steering``, N = M_BS) and the split columns are read
    from the product.  Each column has the bits of its grid element either
    way, and with one NLOS path the product keeps its bits too; a sum of
    L > 1 paths may round differently at another N.  Near the
    ``DIRICHLET_EPS`` edge the terms k_l are large and cancel, so the result
    there holds fewer digits than a row product.  The full-array channel is
    Σ_l w_l D(M_BS, π/2 (c_0 - c_l)).
    """
    if gains.shape[-2] != 2:
        raise ValueError(f"the two-segment closed form takes 2 users, got {gains.shape[-2]}")
    m1 = np.asarray(m1_values, dtype=np.int64)
    c = np.cos(aods)
    w = gains * ((1.0 / math.sqrt(m_ue * m_bs)) * receive_kernel(aoas, m_ue))
    full = (w * dirichlet(m_bs, 0.5 * math.pi * (c[..., :1] - c))).sum(axis=-1)

    cos_a = c[..., :1, :1]
    cos_b = c[..., 1:, :1]
    sin_a = np.sin(0.5 * math.pi * (cos_a - c))
    sin_b = np.sin(0.5 * math.pi * (cos_b - c))
    match_a = np.abs(sin_a) < DIRICHLET_EPS
    match_b = np.abs(sin_b) < DIRICHLET_EPS
    # Each product below that takes a temporary of its own shape takes it
    # on the left, where numpy's reuse of it keeps the operand order (module
    # notes).  k_l = w_l / (2i sin x) of each unmatched path, 0 if matched:
    k_a = np.where(match_a, 0.0, -0.5j * w / np.where(match_a, 1.0, sin_a))
    k_b = np.where(match_b, 0.0, -0.5j * w / np.where(match_b, 1.0, sin_b))
    p = np.exp((-0.5j * math.pi * m_bs) * c)                  # e^{-iπ c_l M/2}
    q = np.exp((0.5j * math.pi * m_bs) * cos_b)               # e^{iπ c_b M/2}
    # Σ_l k_l p_l e^{iπ c_l m1} at every split: column M - 1 - m1 of the
    # centred grid holds e^{iπ c_l (m1 - (M - 1)/2)}, and the fold makes up
    # the difference, p_l e^{iπ c_l (M - 1)/2} = e^{-iπ c_l / 2}
    fold = np.exp(-0.5j * math.pi * c)
    folded = np.stack((k_a * fold, k_b * q * fold), axis=-2)
    e, los = _half_angle_phases(c[..., 0], m_bs, m1)
    sums = folded[..., :1] * los[..., None, :]
    if c.shape[-1] > 1:
        columns = m_bs - 1 - m1
        if _reads_split_columns(len(m1), m_bs):
            sums += folded[..., 1:] @ _table_columns(c[..., 1:], m_bs, columns)
        else:
            sums += np.take(folded[..., 1:] @ _table_steering(c[..., 1:], m_bs), columns,
                            axis=-1)
    lin_a = (k_a * p).sum(axis=-1)[..., None]
    lin_b = (np.conj(p * q) * k_b).sum(axis=-1)[..., None]
    lim_a = np.where(match_a, w * p, 0.0).sum(axis=-1)[..., None]
    lim_b = np.where(match_b, w, 0.0).sum(axis=-1)[..., None]

    # h(m1) in place: each term keeps the formula's operands in their order,
    # and the terms are added in the formula's order
    split = np.multiply(m1, lim_a)
    np.add(lin_a, split, out=split)
    split *= e[..., :1, :]
    last = np.multiply(m_bs - m1, lim_b)
    last -= lin_b
    last *= e[..., 1:, :]
    # conj(e_a) Σ k_a ... and conj(e_b) Σ k_b ... of every user in one product
    np.multiply(np.conj(e, out=e)[..., None, :, :], sums, out=sums)
    split -= sums[..., 0, :]
    split += sums[..., 1, :]
    split += last
    return split, full


def pattern_mags(weights: np.ndarray, cos_angles: np.ndarray) -> np.ndarray:
    """|a(θ)^H w| for every cos θ in ``cos_angles`` (A,) and every weight
    vector w: ``weights`` is one (M,) vector or n of them as (M, n) columns,
    and the result is (A,) or (A, n).

    One steering matrix serves every w.  Each w takes its own contiguous
    (A, M) @ (M,) matvec, so a pattern has the bits of a call with that w
    alone; one (A, M) @ (M, n) product may run another BLAS routine.
    """
    weights = np.asarray(weights)
    steer_conj = _steering_conj(np.asarray(cos_angles), weights.shape[0])
    columns = weights.reshape(weights.shape[0], -1).T
    mags = np.empty(steer_conj.shape[:-1] + (len(columns),))
    for j, w in enumerate(columns):
        mags[..., j] = np.abs(steer_conj @ np.ascontiguousarray(w))
    return mags.reshape(steer_conj.shape[:-1] + weights.shape[1:])

