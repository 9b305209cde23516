"""Clustered multipath channel model for mmWave links with uniform linear arrays.

Each user sees one line-of-sight (LOS) path plus a number of weaker NLOS
paths.  Antenna elements are spaced half a wavelength apart, so a path with
departure/arrival angle ``theta`` contributes a phase ramp of
``pi * cos(theta)`` per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

SPEED_OF_LIGHT = 299792458.0
CARRIER_HZ = 28e9
WAVELENGTH_M = SPEED_OF_LIGHT / CARRIER_HZ

MIN_USER_DISTANCE_M = 10.0

# NLOS paths are drawn this many dB below the LOS path (uniformly).
NLOS_EXTRA_LOSS_DB = (10.0, 20.0)

_TWO_PI = 2.0 * math.pi
# Drawn angles are kept this far inside the open interval (0, pi).
_ANGLE_EPS = 1e-12


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


@dataclass(frozen=True)
class PathComponent:
    """One propagation path: complex gain plus departure/arrival angles (rad)."""

    gain: complex
    aod: float
    aoa: float
    is_los: bool = False


@dataclass(frozen=True)
class UserChannel:
    """All paths of one user.  paths[0] must be the LOS component."""

    paths: tuple[PathComponent, ...]
    ue_config: UlaConfig
    bs_config: UlaConfig

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("a channel needs at least the LOS path")
        if not self.paths[0].is_los:
            raise ValueError("paths[0] must be the LOS component")
        if any(p.is_los for p in self.paths[1:]):
            raise ValueError("only paths[0] may be flagged LOS")
        if abs(self.paths[0].gain) <= 0.0:
            raise ValueError("LOS gain must be nonzero")

    @property
    def los(self) -> PathComponent:
        return self.paths[0]

    @cached_property
    def matrix(self) -> np.ndarray:
        return channel_matrix(self)

    def scaled(self, factor: complex) -> "UserChannel":
        """New channel with every path gain multiplied by ``factor``."""
        paths = tuple(
            PathComponent(p.gain * factor, p.aod, p.aoa, p.is_los) for p in self.paths
        )
        return UserChannel(paths, self.ue_config, self.bs_config)


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


def array_response(config: UlaConfig, angle: float) -> np.ndarray:
    """Array response of a half-wavelength ULA toward ``angle``.

    Element m carries phase ((M - 1) / 2 - m) * pi * cos(angle), i.e. the
    ramp is centered on the middle of the array.  ``angle`` is measured
    against the array axis and must lie strictly inside (0, pi).
    """
    if not 0.0 < angle < math.pi:
        raise ValueError(f"angle must lie in (0, pi), got {angle}")
    m = np.arange(config.num_antennas)
    phase = ((config.num_antennas - 1) / 2.0 - m) * math.pi * math.cos(angle)
    return np.exp(1j * phase)


def channel_matrix(channel: UserChannel) -> np.ndarray:
    """Materialize the M_UE x M_BS matrix: sum of rank-one path contributions."""
    m_ue = channel.ue_config.num_antennas
    m_bs = channel.bs_config.num_antennas
    h = np.zeros((m_ue, m_bs), dtype=np.complex128)
    for p in channel.paths:
        rx = array_response(channel.ue_config, p.aoa)
        tx = array_response(channel.bs_config, p.aod)
        h += p.gain * np.outer(rx, tx.conj())
    return h


def _clip_angle(angle: float) -> float:
    return min(max(angle, _ANGLE_EPS), math.pi - _ANGLE_EPS)


def los_gain_magnitude(distance_m: float) -> float:
    """Free-space amplitude gain at the carrier: lambda / (4 pi d)."""
    return WAVELENGTH_M / (4.0 * math.pi * distance_m)


def generate_user_channel(
    rng: np.random.Generator, distance_m: float, scenario: ScenarioConfig
) -> UserChannel:
    """Draw one user's LOS + NLOS paths at the given distance.

    The LOS amplitude follows free-space loss at 28 GHz; each NLOS path is
    attenuated a further 10-20 dB (uniform) and all phases are uniform over
    [0, 2 pi).  Angles are uniform over (0, pi), clipped 1e-12 inside the
    open interval that ``array_response`` expects.

    One ``rng.random(3 + 4 L)`` block holds every draw, in this order: LOS
    phase, LOS AoD, LOS AoA, then (loss, phase, AoD, AoA) for each NLOS
    path.  A draw u becomes ``lo + (hi - lo) * u``, which is how
    ``rng.uniform(lo, hi)`` scales it, so the block reproduces the stream of
    one scalar ``uniform`` call per value.
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if distance_m > scenario.cell_radius_m:
        raise ValueError("user placed outside the cell")

    num_nlos = scenario.num_nlos_paths
    block = rng.random(3 + 4 * num_nlos)
    g_los = los_gain_magnitude(distance_m)
    # The LOS draws stay Python floats: small numpy ops would cost more than
    # the whole draw of a LOS-only user.
    u_phase, u_aod, u_aoa = block[:3].tolist()
    phase = _TWO_PI * u_phase
    paths = [PathComponent(g_los * np.exp(1j * phase), _clip_angle(math.pi * u_aod),
                           _clip_angle(math.pi * u_aoa), is_los=True)]

    if num_nlos:
        u = block[3:].reshape(num_nlos, 4)
        lo, hi = NLOS_EXTRA_LOSS_DB
        loss_db = lo + (hi - lo) * u[:, 0]
        # Python float ** calls libm pow; numpy's vectorized power differs
        # from it in the last bit for some values.
        atten = [10.0 ** x for x in (-loss_db / 20.0).tolist()]
        gains = g_los * np.array(atten) * np.exp(1j * (_TWO_PI * u[:, 1]))
        angles = np.clip(math.pi * u[:, 2:], _ANGLE_EPS, math.pi - _ANGLE_EPS)
        paths += [PathComponent(g, aod, aoa)
                  for g, (aod, aoa) in zip(gains.tolist(), angles.tolist())]

    return UserChannel(tuple(paths), scenario.ue_config, scenario.bs_config)


def user_rng(master_seed: int, trial_index: int, user_index: int) -> np.random.Generator:
    """Independent substream for one (trial, user) pair.

    Uses numpy's SeedSequence spawn keys, so streams never collide and the
    same master seed reproduces the same draws regardless of execution
    order or thread count.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(trial_index, user_index))
    return np.random.default_rng(seq)


def paths_as_arrays(channel: UserChannel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gains, aods, aoas) as flat arrays, LOS first.  Convenience for kernels."""
    gains = np.array([p.gain for p in channel.paths], dtype=np.complex128)
    aods = np.array([p.aod for p in channel.paths], dtype=np.float64)
    aoas = np.array([p.aoa for p in channel.paths], dtype=np.float64)
    return gains, aods, aoas
