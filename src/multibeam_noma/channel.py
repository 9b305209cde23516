"""Clustered multipath channel model for mmWave links with uniform linear arrays.

Each user sees one line-of-sight (LOS) path plus a number of weaker NLOS
paths, held as three arrays (gains, AoDs, AoAs) with the LOS path first.
Antenna elements are spaced half a wavelength apart, so a path with
departure/arrival angle ``theta`` contributes a phase ramp of
``pi * cos(theta)`` per element.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import _kernels

SPEED_OF_LIGHT = 299792458.0
CARRIER_HZ = 28e9
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_HZ

MIN_USER_DISTANCE_M = 10.0

# NLOS paths are drawn this many dB below the LOS path (uniformly).
NLOS_EXTRA_LOSS_DB = (10.0, 20.0)

_TWO_PI = 2.0 * math.pi
# Drawn angles are kept this far inside the open interval (0, pi).
_ANGLE_EPS = 1e-12

# Most float64 values one numpy array holds: its size in bytes must fit a
# signed pointer-sized integer, or numpy refuses to size it.
MAX_FLOAT64_ELEMENTS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def dbm_to_watt(dbm: float) -> float:
    """Power in watt; ValueError when it is too large for a float."""
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm} dBm is too large a power") from None


@dataclass(frozen=True)
class UlaConfig:
    """A uniform linear array with half-wavelength element spacing."""

    num_antennas: int

    def __post_init__(self) -> None:
        if self.num_antennas < 1:
            raise ValueError(f"array needs at least one element, got {self.num_antennas}")


@dataclass(frozen=True, eq=False)
class UserChannel:
    """All paths of one user: read-only 1-D copies of the path gains, AoDs and
    AoAs (rad), of equal length, LOS at index 0."""

    gains: np.ndarray
    aods: np.ndarray
    aoas: np.ndarray
    ue_config: UlaConfig
    bs_config: UlaConfig

    def __post_init__(self) -> None:
        for name, dtype in (("gains", complex), ("aods", float), ("aoas", float)):
            values = np.array(getattr(self, name), dtype=dtype)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.gains.ndim != 1 or self.aods.ndim != 1 or self.aoas.ndim != 1:
            raise ValueError("gains, aods and aoas must be 1-D arrays")
        if not len(self.gains) == len(self.aods) == len(self.aoas):
            raise ValueError("gains, aods and aoas need one entry per path")
        if not len(self.gains):
            raise ValueError("a channel needs at least the LOS path")
        if abs(self.gains[0]) <= 0.0:
            raise ValueError("LOS gain must be nonzero")

    @cached_property
    def paths(self) -> tuple[tuple[complex, float, float], ...]:
        """``(gain, aod, aoa)`` of each path as Python scalars, LOS first."""
        return tuple(zip(self.gains.tolist(), self.aods.tolist(), self.aoas.tolist()))

    @cached_property
    def matrix(self) -> np.ndarray:
        return channel_matrix(self)

    def scaled(self, factor: complex) -> "UserChannel":
        """New channel with every path gain multiplied by ``factor``."""
        return UserChannel(self.gains * factor, self.aods, self.aoas,
                           self.ue_config, self.bs_config)


@dataclass(frozen=True)
class ScenarioConfig:
    """Cell-level simulation parameters (powers in watt, linear scale)."""

    num_users: int = 2
    num_nlos_paths: int = 30
    cell_radius_m: float = 500.0
    bs_config: UlaConfig = UlaConfig(128)
    ue_config: UlaConfig = UlaConfig(10)
    max_power_w: float = dbm_to_watt(46.0)
    noise_w: float = dbm_to_watt(-88.0)
    rng_seed: int = 1

    def __post_init__(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be positive")
        if self.num_nlos_paths < 0:
            raise ValueError("num_nlos_paths must be nonnegative")
        if 4 + 4 * self.num_nlos_paths > MAX_FLOAT64_ELEMENTS:
            raise ValueError(f"num_nlos_paths = {self.num_nlos_paths} is too large: a user's "
                             "4 + 4 L uniform draws do not fit one numpy array")
        if not all(map(math.isfinite, (self.cell_radius_m, self.max_power_w, self.noise_w))):
            raise ValueError("cell radius and powers must be finite")
        if not math.isfinite(self.cell_radius_m * self.cell_radius_m):
            raise ValueError("cell radius too large: its square is not finite")
        if self.cell_radius_m < MIN_USER_DISTANCE_M:
            raise ValueError("cell radius smaller than the minimum user distance")
        if self.max_power_w <= 0.0 or self.noise_w <= 0.0:
            raise ValueError("powers must be positive")
        if not (math.isfinite(1.0 / self.noise_w)
                and math.isfinite(self.max_power_w / self.noise_w)):
            raise ValueError("noise power too small: 1 / noise_w or max_power_w / noise_w "
                             "is not finite")
        if not isinstance(self.rng_seed, (int, np.integer)) or self.rng_seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.rng_seed!r}")


def array_response(config: UlaConfig, angle: float) -> np.ndarray:
    """Array response of a half-wavelength ULA toward ``angle``.

    Element m carries phase ((M - 1) / 2 - m) * pi * cos(angle), i.e. the
    ramp is centered on the middle of the array.  ``angle`` is measured
    against the array axis and must lie strictly inside (0, pi).
    """
    if not 0.0 < angle < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {angle}")
    return _responses(config.num_antennas, np.array([angle], dtype=np.float64))[0]


def _check_angles(angles: np.ndarray) -> None:
    """``array_response``'s ValueError for the first of ``angles`` (1-D)
    outside (0, pi)."""
    inside = (angles > 0.0) & (angles < math.pi)
    if not inside.all():
        raise ValueError(f"angle must lie in (0, pi), got {angles[np.argmin(inside)]}")


def _responses(num_antennas: int, angles: np.ndarray) -> np.ndarray:
    """``array_response`` toward each of ``angles`` (1-D), one row each."""
    return _kernels.steering(np.cos(angles), num_antennas)


def channel_matrix(channel: UserChannel) -> np.ndarray:
    """Materialize the M_UE x M_BS matrix: sum of rank-one path contributions.

    Path l contributes ``gain_l * outer(a_UE(aoa_l), conj(a_BS(aod_l)))``;
    the sum over paths is one matrix product of the gain-weighted receive
    responses with the conjugated transmit responses.
    """
    # checked path by path, aoa before aod: aoa_0, aod_0, aoa_1, ...
    _check_angles(np.stack((channel.aoas, channel.aods), axis=-1).ravel())
    rx = _responses(channel.ue_config.num_antennas, channel.aoas)
    tx_conj = _responses(channel.bs_config.num_antennas, channel.aods).conj()
    return (channel.gains[:, None] * rx).T @ tx_conj


def los_gain_magnitude(distance_m: float) -> float:
    """Free-space amplitude gain at the carrier: lambda / (4 pi d)."""
    return WAVELENGTH_M / (4.0 * math.pi * distance_m)


def draw_paths(u: np.ndarray, distance_m, scenario: ScenarioConfig
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Paths of users at ``distance_m`` from their uniform draws.

    ``u`` holds one user's 3 + 4 L draws on its last axis, in this order:
    LOS phase, LOS AoD, LOS AoA, then (loss, phase, AoD, AoA) for each NLOS
    path; ``distance_m`` has the shape of the other axes.  Returns
    ``(gains, aods, aoas)`` with the 1 + L paths on the last axis, LOS first.

    The LOS amplitude follows free-space loss at 28 GHz; each NLOS path is
    attenuated a further 10-20 dB (uniform) and all phases are uniform over
    [0, 2 pi).  Angles are uniform over (0, pi), clipped 1e-12 inside the
    open interval that ``array_response`` expects.  A draw u becomes
    ``lo + (hi - lo) * u``, which is how ``rng.uniform(lo, hi)`` scales it,
    so one ``rng.random(3 + 4 L)`` block reproduces the stream of one scalar
    ``uniform`` call per value.  Every value is computed element by element,
    so a user's paths do not depend on the other users drawn with it.
    """
    num_nlos = scenario.num_nlos_paths
    u = np.asarray(u, dtype=np.float64)
    g_los = los_gain_magnitude(np.asarray(distance_m, dtype=np.float64))
    # per path: (phase, AoD, AoA) at offsets 0, 1, 2 of every 4 draws, and
    # the NLOS losses at offset 3
    lo, hi = NLOS_EXTRA_LOSS_DB
    atten = np.ones(u.shape[:-1] + (1 + num_nlos,))
    loss_db = lo + (hi - lo) * u[..., 3::4]
    atten[..., 1:] = np.power(10.0, -loss_db / 20.0)
    gains = g_los[..., None] * atten * np.exp(1j * (_TWO_PI * u[..., 0::4]))
    # np.clip, spelled as its two ufuncs: its Python wrapper costs more than
    # the arithmetic at one user's size
    aods = np.minimum(np.maximum(math.pi * u[..., 1::4], _ANGLE_EPS), math.pi - _ANGLE_EPS)
    aoas = np.minimum(np.maximum(math.pi * u[..., 2::4], _ANGLE_EPS), math.pi - _ANGLE_EPS)
    return gains, aods, aoas


def generate_user_channel(
    rng: np.random.Generator, distance_m: float, scenario: ScenarioConfig
) -> UserChannel:
    """Draw one user's LOS + NLOS paths at the given distance: the
    ``draw_paths`` of one ``rng.random(3 + 4 L)`` block."""
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if distance_m > scenario.cell_radius_m:
        raise ValueError("user placed outside the cell")
    gains, aods, aoas = draw_paths(rng.random(3 + 4 * scenario.num_nlos_paths),
                                   distance_m, scenario)
    return UserChannel(gains, aods, aoas, scenario.ue_config, scenario.bs_config)


def user_rng(master_seed: int, trial_index: int, user_index: int) -> np.random.Generator:
    """Independent substream for one (trial, user) pair.

    Uses numpy's SeedSequence spawn keys, so streams never collide and the
    same master seed reproduces the same draws regardless of execution
    order or thread count.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index, user_index))
    return np.random.default_rng(seq)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and PCG64
# (pcg64.h), which ``user_rng`` runs once per key and ``user_uniforms`` runs
# for a block of keys at once.
#
# The hash: a key's entropy is the master seed's 32-bit words, padded with
# zeros to the pool size, then the trial word and the user word.  The zero
# padding hashes as ``SeedSequence(master)`` hashes its missing words, so the
# pool before the trial word is that sequence's pool, and the master's words
# have advanced the hash constant 16 times, plus 4 for each word past the
# pool size.  Each key word then meets each of the four pool words (lanes)
# with a ``hashmix`` (xor with the running hash constant, advance the
# constant, multiply by it, xorshift by 16) and a ``mix`` into the lane, all
# mod 2**32.
#
# PCG64 is the 128-bit LCG s -> MULT s + inc (mod 2**128).  Seeded with the
# words (seed, w) it sets inc = 2 w + 1, steps from 0, adds seed and steps
# again; each draw steps once and outputs the XSL-RR of the new state,
# rotr64(hi ^ lo, s >> 122).  So the state behind draw j (state 0 being the
# seeded state) is an affine map of the key's words,
#     s_j = A_(j+1) seed + B_(j+2) (2 w + 1)   (mod 2**128),
# with A_j = MULT**j and B_j = 1 + MULT + ... + MULT**(j - 1) (LCG jump-ahead).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_chain(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a hash constant, as uint32."""
    chain = [init]
    for _ in range(count - 1):
        chain.append((chain[-1] * mult) & _MASK32)
    return np.array(chain, dtype=np.uint32)


def _xorshift16(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> 16)


# generate_state: output word i is pool word i % 4 hashed with the i-th and
# (i + 1)-th constants of a chain of its own; the same for every key
_OUT_CHAIN = _hash_chain(_INIT_B, _MULT_B, 9)


@lru_cache(maxsize=16)
def _master_lanes(master_seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What the hash of every key under ``master_seed`` takes from the master
    alone: ``_MIX_MULT_L`` times the pool, then the xor and the multiply
    constants of the trial and user words' ``hashmix``, as (4,), (2, 4) and
    (2, 4) uint32 lanes, trial word first."""
    words = max(1, -(-master_seed.bit_length() // 32))
    steps = 16 + 4 * max(0, words - _POOL_SIZE)
    chain = _hash_chain(_INIT_A, _MULT_A, steps + 2 * _POOL_SIZE + 1)[steps:]
    lanes = (np.random.SeedSequence(master_seed).pool * np.uint32(_MIX_MULT_L),
             chain[:-1].reshape(2, _POOL_SIZE), chain[1:].reshape(2, _POOL_SIZE))
    for lane in lanes:
        lane.flags.writeable = False
    return lanes


def spawn_state_words(master_seed: int, trial_lo: int, trial_hi: int,
                      num_users: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(t, k)).generate_state(4, np.uint64)``
    for every trial t in [trial_lo, trial_hi) and user k < num_users, as a
    (T, K, 4) uint64 array.

    The master seed's part of the hash is read from numpy once per master
    (``_master_lanes``).  The four pool lanes sit on the last axis: the
    trial word is hashed into a (T, 4) array, the user word into (K, 4),
    they mix into (T, K, 4), and one step over (T, K, 8) hashes out the
    eight 32-bit output words.  uint32 arrays wrap as the C code does.
    """
    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be nonnegative, got {master_seed}")
    if not 0 <= trial_lo <= trial_hi <= _MASK32 + 1:
        raise ValueError(f"trial range [{trial_lo}, {trial_hi}) must lie in [0, 2**32): "
                         "a larger index is more than one spawn-key word")
    pool_l, xor, mul = _master_lanes(master_seed)
    trials = np.arange(trial_lo, trial_hi, dtype=np.uint32)[:, None]
    users = np.arange(num_users, dtype=np.uint32)[:, None]
    # hashmix of each key word into each lane, then mix into the pool
    hashed_t = _xorshift16((trials ^ xor[0]) * mul[0])
    hashed_u = _xorshift16((users ^ xor[1]) * mul[1])
    pool = _xorshift16(pool_l - _MIX_MULT_R * hashed_t)
    pool = _xorshift16((_MIX_MULT_L * pool)[:, None] - (_MIX_MULT_R * hashed_u))
    state = _xorshift16((np.concatenate((pool, pool), axis=-1) ^ _OUT_CHAIN[:-1])
                        * _OUT_CHAIN[1:])
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


# The float64 2**52 + x, for an integer 0 <= x < 2**52, has the bits
# _EXPONENT + x, so a chunk sum offset by 2**52 is read as uint64 with no
# conversion.  The offsets added to chunks 1..3 cancel _EXPONENT mod 2**64 in
# the carry step of ``pcg64_states``: chunk 1's offset shifted by 32 is
# -_EXPONENT, and it leaves 2**32 + _EXPONENT in the carry, which chunks 2
# and 3 cancel in the high half.
_EXPONENT = 0x433 << 52
_MASK64 = (1 << 64) - 1
_HI_OFFSET = -(_EXPONENT + (_EXPONENT >> 32) + 1) & _MASK64
_CHUNK_OFFSETS = (0, (-_EXPONENT & _MASK64) >> 32, _HI_OFFSET & _MASK32, _HI_OFFSET >> 32)


@lru_cache(maxsize=8)
def _jump_table(n: int) -> np.ndarray:
    """The (4, 17, n + 1) float64 table of ``pcg64_states`` for states 0..n.

    Entry [q, i, j] is the 32-bit chunk q of s_j's coefficient on input i,
    mod 2**128.  Inputs 0..15 are the 16-bit limbs of a key's words
    (seed_hi, seed_lo, inc_hi, inc_lo), limb i % 4 of word i // 4, with
    coefficients A_(j+1) on the seed and 2 B_(j+2) on w; input 16 is a 1,
    for the B_(j+2) term, and also carries 2**52 and the chunk offsets.
    """
    seed_coefs, inc_coefs = [], []
    power, partial = _PCG64_MULT, 1 + _PCG64_MULT  # A_(j+1), B_(j+2) at j = 0
    for _ in range(n + 1):
        seed_coefs.append(power)
        inc_coefs.append(partial)
        power = (power * _PCG64_MULT) & _MASK128
        partial = (partial + power) & _MASK128
    inputs = [(seed_coefs if i < 8 else [2 * coef for coef in inc_coefs],
               64 * (1 - i // 4 % 2) + 16 * (i % 4)) for i in range(16)]
    inputs.append((inc_coefs, 0))
    table = np.array([[[(((coef << shift) & _MASK128) >> (32 * q)) & _MASK32 for coef in coefs]
                       for coefs, shift in inputs] for q in range(4)], dtype=np.float64)
    table[:, -1] += np.add(_CHUNK_OFFSETS, 2.0 ** 52)[:, None]
    table.flags.writeable = False
    return table


def pcg64_states(words: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the states 0..n of the PCG64 seeded with
    each ``generate_state(4, np.uint64)`` row of ``words`` (..., 4): two
    (..., n + 1) uint64 arrays.  State 0 is the seeded state, the one that
    ``PCG64(seed_sequence).state`` reports; state j is the one whose output
    is draw j.

    The 32-bit chunk sums of every s_j are one float64 matmul of the keys'
    16-bit limbs with ``_jump_table(n)``.  A product is below 2**48 and a
    chunk sum below 2**52, so the matmul is exact in any summation order;
    the sums are then read as uint64 and carried into the two halves, which
    wrap mod 2**64.
    """
    words = np.ascontiguousarray(words, dtype="<u8")
    limbs = np.ones((words.size // 4, 17))
    limbs[:, :16] = words.view("<u2").reshape(-1, 16)
    chunks = np.matmul(limbs, _jump_table(n)).view(np.uint64)
    c0, c1, c2, c3 = chunks.reshape((4,) + words.shape[:-1] + (n + 1,))
    carry = c0 >> 32
    carry += c1
    carry >>= 32
    lo = c1
    lo <<= 32
    lo += c0
    hi = c3
    hi <<= 32
    hi += c2
    hi += carry
    return hi, lo


def user_uniforms(master_seed: int, trial_lo: int, trial_hi: int, num_users: int,
                  n: int) -> np.ndarray:
    """``user_rng(master_seed, t, k).random(n)`` for every trial t in
    [trial_lo, trial_hi) and user k < num_users, as a (T, K, n) array.

    The same streams, bit for bit, without a SeedSequence or a Generator per
    key: ``spawn_state_words`` hashes all keys at once and ``pcg64_states``
    jumps each to the states s_1..s_n of its draws.  Draw j is
    ``(rotr64(hi ^ lo, hi >> 58) >> 11) * 2**-53`` of s_j's halves, as
    ``Generator.random`` computes it.
    """
    hi, lo = pcg64_states(spawn_state_words(master_seed, trial_lo, trial_hi, num_users), n)
    hi, lo = hi[..., 1:], lo[..., 1:]
    rot = hi >> 58
    lo ^= hi
    out = lo >> rot
    # the left shift by (64 - rot) mod 64, in place on the large arrays
    np.subtract(64, rot, out=rot)
    rot &= 63
    lo <<= rot
    out |= lo
    out >>= 11
    return out * 2.0 ** -53
