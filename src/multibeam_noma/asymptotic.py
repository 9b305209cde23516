"""Large-array rate laws: what the sum rate tends to as M_BS grows.

In the limit, each user's effective channel is just its matched LOS beam,
so rates depend only on LOS gain magnitudes and the antenna split.  The
closed forms below hold once the decode-and-cancel ordering condition
(|gain_k| M_k non-increasing) is satisfied; the operations refuse to
evaluate when it is not, rather than returning numbers the SIC chain
cannot deliver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SicConditionError(ValueError):
    """The asymptotic decode ordering |gain_k| M_k >= |gain_j| M_j (j > k) fails."""


@dataclass(frozen=True)
class AsymptoticScenario:
    """Inputs of the large-array laws, users sorted by descending LOS gain.

    Powers are linear watts.  ``power_split`` is the per-user transmit
    power; its sum may not exceed ``max_power_w``.
    """

    los_gain_mags: np.ndarray
    antenna_alloc: np.ndarray
    m_ue: int
    m_bs: int
    max_power_w: float
    power_split: np.ndarray
    noise_w: float

    def __post_init__(self) -> None:
        g = np.asarray(self.los_gain_mags, dtype=np.float64)
        m = np.asarray(self.antenna_alloc, dtype=np.int64)
        p = np.asarray(self.power_split, dtype=np.float64)
        object.__setattr__(self, "los_gain_mags", g)
        object.__setattr__(self, "antenna_alloc", m)
        object.__setattr__(self, "power_split", p)
        if g.ndim != 1 or m.shape != g.shape or p.shape != g.shape:
            raise ValueError("gains, antennas and powers must be 1-D with equal length")
        if not np.isfinite(g).all():
            raise ValueError("LOS gain magnitudes must be finite")
        if (g <= 0.0).any():
            raise ValueError("LOS gain magnitudes must be positive")
        if (np.diff(g) > 0.0).any():
            raise ValueError("users must be sorted by descending LOS gain")
        if (m < 1).any() or m.sum() > self.m_bs:
            raise ValueError("antenna split must be positive and fit the array")
        if (p < 0.0).any() or p.sum() > self.max_power_w * (1.0 + 1e-12):
            raise ValueError("power split must be nonnegative within the budget")
        if self.m_ue < 1 or self.m_bs < 1:
            raise ValueError("array sizes must be positive")
        if self.noise_w <= 0.0 or self.max_power_w <= 0.0:
            raise ValueError("noise and power budget must be positive")

    @property
    def num_users(self) -> int:
        return len(self.los_gain_mags)


def sic_condition_asymptotic(scenario: AsymptoticScenario) -> bool:
    """True when |gain_k| M_k is non-increasing, so every stronger user can
    decode every weaker user's message in the large-array limit."""
    product = scenario.los_gain_mags * scenario.antenna_alloc
    return bool((product[:-1] >= product[1:]).all())


def _require_sic(scenario: AsymptoticScenario) -> None:
    if not sic_condition_asymptotic(scenario):
        raise SicConditionError(
            "asymptotic SIC ordering fails; the closed-form rates do not apply")


def asymptotic_rates(scenario: AsymptoticScenario) -> np.ndarray:
    """Per-user asymptotic rates.

    The strongest user ends interference-free:
        R_1 = log2(p_1 |gain_1|^2 M_UE M_1^2 / (M_BS sigma^2)).
    Every other user saturates at its power ratio:
        R_k = log2(1 + p_k / sum_{j<k} p_j).
    """
    _require_sic(scenario)
    p = scenario.power_split
    if (p <= 0.0).any():
        raise ValueError("the per-user rate law needs strictly positive powers")
    g = scenario.los_gain_mags
    m = scenario.antenna_alloc
    rates = np.empty(scenario.num_users)
    rates[0] = math.log2(p[0] * g[0] ** 2 * scenario.m_ue * m[0] ** 2
                         / (scenario.m_bs * scenario.noise_w))
    cum = np.cumsum(p)
    for k in range(1, scenario.num_users):
        rates[k] = math.log2(1.0 + p[k] / cum[k - 1])
    return rates


def asymptotic_sum_rate(scenario: AsymptoticScenario) -> float:
    """Asymptotic sum rate at full power use.

    The weaker users' terms telescope against the strongest user's
    denominator, leaving only the strongest user's channel:
        log2(p_max |gain_1|^2 M_UE M_1^2 / (M_BS sigma^2)).
    """
    _require_sic(scenario)
    g1 = scenario.los_gain_mags[0]
    m1 = scenario.antenna_alloc[0]
    return math.log2(scenario.max_power_w * g1 ** 2 * scenario.m_ue * m1 ** 2
                     / (scenario.m_bs * scenario.noise_w))


def tdma_sum_rate_asymptotic(scenario: AsymptoticScenario) -> float:
    """Equal-share TDMA limit: sum of (1/K) log2(p_max |gain_k|^2 M_UE M_BS / sigma^2)."""
    g = scenario.los_gain_mags
    snr = scenario.max_power_w * g ** 2 * scenario.m_ue * scenario.m_bs / scenario.noise_w
    return float(np.mean(np.log2(snr)))


def noma_gain(scenario: AsymptoticScenario) -> float:
    """Asymptotic sum-rate advantage over equal-share TDMA:

        2 log2( (M_1 / M_BS) * (|gain_1| / gbar) ),

    with gbar the geometric mean of the LOS gains.  Depends only on the
    strongest user's antenna share and the gain spread; transmit power,
    noise and the receive array cancel out.  Computed with gain ratios so
    equal gains give exactly zero.
    """
    _require_sic(scenario)
    g = scenario.los_gain_mags
    m1 = scenario.antenna_alloc[0]
    mean_log_ratio = float(np.mean(np.log2(g / g[0])))
    return 2.0 * (math.log2(m1 / scenario.m_bs) - mean_log_ratio)


def allocation_superiority(scenario: AsymptoticScenario) -> bool:
    """Strict test of |gain_1| M_1 > M_BS * gbar, i.e. noma_gain > 0."""
    _require_sic(scenario)
    g = scenario.los_gain_mags
    m1 = scenario.antenna_alloc[0]
    mean_log_ratio = float(np.mean(np.log2(g / g[0])))
    return math.log2(m1 / scenario.m_bs) > mean_log_ratio


def min_antennas_for_superiority(los_gain_mags: np.ndarray,
                                 m_bs: int) -> int | None | np.ndarray:
    """Smallest strongest-user segment that beats TDMA asymptotically.

    Solves |gain_1| M_1 > M_BS * gbar for integer M_1 <= M_BS.  A 1-D
    ``los_gain_mags`` gives an int, or None when even the full array only
    ties or loses (e.g. equal gains).  Gains of shape (..., K), the users on
    the last axis, give an int64 array of shape (...) holding M_BS + 1 where
    no split wins.
    """
    g = np.asarray(los_gain_mags, dtype=np.float64)
    if not np.isfinite(g).all():
        raise ValueError("LOS gain magnitudes must be finite")
    if g.ndim == 0 or g.shape[-1] == 0 or (g <= 0.0).any():
        raise ValueError("LOS gain magnitudes must be positive")
    if (np.diff(g, axis=-1) > 0.0).any():
        raise ValueError("users must be sorted by descending LOS gain")
    mean_log_ratio = np.mean(np.log(g / g[..., :1]), axis=-1)
    # the mean log ratio is at most 0, so m1 is at most m_bs + 1
    m1 = (np.floor(m_bs * np.exp(mean_log_ratio)) + 1).astype(np.int64)
    if g.ndim > 1:
        return m1
    return int(m1) if m1 <= m_bs else None
