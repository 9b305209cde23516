"""Large-array rate laws: what the sum rate tends to as M_BS grows.

In the limit, each user's effective channel is just its matched LOS beam,
so rates depend only on LOS gain magnitudes and the antenna split.  The
closed forms below hold once the decode-and-cancel ordering condition
(|gain_k| M_k non-increasing) is satisfied; the guarded laws refuse to
evaluate when it is not, rather than returning numbers the SIC chain
cannot deliver.

Each law is written once and takes drops and antenna splits on leading
axes (see ``AsymptoticScenario``), so both sweeps call these functions for
their large-array columns: the antenna sweep's ``noma_asymptotic``
(``strongest_user_rate_asymptotic``, the unguarded formula behind
``asymptotic_sum_rate``), ``tdma_asymptotic`` and ``feasible_fraction``, and
the power sweep's ``predicted_gain`` (``noma_gain``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class SicConditionError(ValueError):
    """The asymptotic decode ordering |gain_k| M_k >= |gain_j| M_j (j > k) fails."""


def _check_los_gains(g: np.ndarray) -> None:
    """LOS gain magnitudes (..., K) must be finite, positive and sorted
    strongest first along the users' (last) axis."""
    if g.ndim == 0 or g.shape[-1] == 0:
        raise ValueError("LOS gain magnitudes must be positive")
    # the minimum and maximum bound every gain, and a NaN makes the minimum
    # NaN, which fails its comparison; only a failure looks closer
    if g.size and not (g.min() > 0.0 and g.max() < math.inf):
        if not np.isfinite(g).all():
            raise ValueError("LOS gain magnitudes must be finite")
        raise ValueError("LOS gain magnitudes must be positive")
    if (g[..., 1:] > g[..., :-1]).any():
        raise ValueError("users must be sorted by descending LOS gain")


@dataclass(frozen=True)
class AsymptoticScenario:
    """Inputs of the large-array laws, users sorted by descending LOS gain.

    Powers are linear watts.  ``power_split`` is the per-user transmit
    power; its sum may not exceed ``max_power_w``.

    ``los_gain_mags`` may be (..., K), one drop per row, and
    ``antenna_alloc`` (..., K), one split per row, as long as the two
    broadcast together: gains (T, 1, K) against splits (S, K) give every
    (drop, split) pair.  The (K,) ``power_split`` is shared.  Every row must
    pass the checks a 1-D scenario does.  Each law then returns one value
    per pair, with the bits of the pair's 1-D scenario.
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
        if p.ndim != 1 or g.shape[-1:] != p.shape or m.shape[-1:] != p.shape:
            raise ValueError("gains, antennas and powers must have equal length on the "
                             "users' (last) axis, and the powers be 1-D")
        np.broadcast(g, m)
        _check_los_gains(g)
        if m.size and (m.min() < 1 or m.sum(axis=-1).max() > self.m_bs):
            raise ValueError("antenna split must be positive and fit the array")
        if p.min() < 0.0 or p.sum() > self.max_power_w * (1.0 + 1e-12):
            raise ValueError("power split must be nonnegative within the budget")
        if self.m_ue < 1 or self.m_bs < 1:
            raise ValueError("array sizes must be positive")
        if self.noise_w <= 0.0 or self.max_power_w <= 0.0:
            raise ValueError("noise and power budget must be positive")

    @property
    def num_users(self) -> int:
        return self.los_gain_mags.shape[-1]


def _one_or_many(value):
    """A Python scalar for a scenario of one drop, else the array."""
    return value.item() if np.ndim(value) == 0 else value


def _user_mean(x: np.ndarray) -> np.ndarray:
    """The mean over the users' (last) axis, with the bits of ``np.mean``:
    the same sum, divided by K.  Its Python wrapper would cost about as much
    as the sum itself on an antenna-sweep block."""
    return x.sum(axis=-1) / x.shape[-1]


def sic_condition_asymptotic(scenario: AsymptoticScenario) -> bool | np.ndarray:
    """True when |gain_k| M_k is non-increasing, so every stronger user can
    decode every weaker user's message in the large-array limit.  A
    scenario of several drops or splits gives a bool array, one entry per
    (drop, split) pair."""
    g, m = scenario.los_gain_mags, scenario.antenna_alloc
    # one product per user over the (drop, split) pairs: with the users on a
    # trailing axis, numpy's inner loop would run K elements at a time
    product = [g[..., k] * m[..., k] for k in range(scenario.num_users)]
    ordered = [stronger >= weaker for stronger, weaker in zip(product, product[1:])]
    if not ordered:
        return _one_or_many(np.ones(product[0].shape, dtype=bool))
    return _one_or_many(functools.reduce(np.logical_and, ordered))


def _require_sic(scenario: AsymptoticScenario) -> None:
    if not np.all(sic_condition_asymptotic(scenario)):
        raise SicConditionError(
            "asymptotic SIC ordering fails; the closed-form rates do not apply")


def strongest_user_rate_asymptotic(scenario: AsymptoticScenario,
                                   power_w) -> float | np.ndarray:
    """The strongest user's large-array rate at transmit power p,

        log2(p |gain_1|^2 M_UE M_1^2 / (M_BS sigma^2)),

    once every weaker message is cancelled.  Unlike the guarded laws below it
    evaluates every drop, whether or not the SIC condition holds there.
    """
    g1 = scenario.los_gain_mags[..., 0]
    m1 = scenario.antenna_alloc[..., 0]
    return _one_or_many(np.log2(power_w * g1 ** 2 * scenario.m_ue * m1 ** 2
                                / (scenario.m_bs * scenario.noise_w)))


def asymptotic_rates(scenario: AsymptoticScenario) -> np.ndarray:
    """Per-user asymptotic rates, (..., K) for a scenario over drops.

    The strongest user ends interference-free:
        R_1 = log2(p_1 |gain_1|^2 M_UE M_1^2 / (M_BS sigma^2)).
    Every other user saturates at its power ratio:
        R_k = log2(1 + p_k / sum_{j<k} p_j).
    """
    _require_sic(scenario)
    p = scenario.power_split
    if (p <= 0.0).any():
        raise ValueError("the per-user rate law needs strictly positive powers")
    first = strongest_user_rate_asymptotic(scenario, p[0])
    rates = np.empty(np.shape(first) + p.shape)
    rates[..., 0] = first
    rates[..., 1:] = np.log2(1.0 + p[1:] / np.cumsum(p)[:-1])
    return rates


def asymptotic_sum_rate(scenario: AsymptoticScenario) -> float | np.ndarray:
    """Asymptotic sum rate at full power use.

    The weaker users' terms telescope against the strongest user's
    denominator, leaving only the strongest user's rate at p_max:
        log2(p_max |gain_1|^2 M_UE M_1^2 / (M_BS sigma^2)).
    """
    _require_sic(scenario)
    return strongest_user_rate_asymptotic(scenario, scenario.max_power_w)


def tdma_sum_rate_asymptotic(scenario: AsymptoticScenario) -> float | np.ndarray:
    """Equal-share TDMA limit: sum of (1/K) log2(p_max |gain_k|^2 M_UE M_BS / sigma^2).

    It does not depend on the antenna split: a scenario over drops gives one
    value per drop, of the gains' leading shape."""
    g = scenario.los_gain_mags
    snr = scenario.max_power_w * g ** 2 * scenario.m_ue * scenario.m_bs / scenario.noise_w
    return _one_or_many(_user_mean(np.log2(snr)))


def noma_gain(scenario: AsymptoticScenario) -> float | np.ndarray:
    """Asymptotic sum-rate advantage over equal-share TDMA:

        2 log2( (M_1 / M_BS) * (|gain_1| / gbar) ),

    with gbar the geometric mean of the LOS gains.  Depends only on the
    strongest user's antenna share and the gain spread; transmit power,
    noise and the receive array cancel out.  Computed with gain ratios so
    equal gains give exactly zero.  A scenario over drops gives one gain
    per (drop, split) pair; every pair must meet the SIC condition.
    """
    _require_sic(scenario)
    g = scenario.los_gain_mags
    mean_log_ratio = _user_mean(np.log2(g / g[..., :1]))
    m1 = scenario.antenna_alloc[..., 0]
    # math.log2 of each M_1 / M_BS, as one drop takes it: np.log2 may
    # differ from it in the last bit
    share_log = np.reshape([math.log2(m / scenario.m_bs) for m in m1.ravel().tolist()],
                           m1.shape)
    return _one_or_many(2.0 * (share_log - mean_log_ratio))


def allocation_superiority(scenario: AsymptoticScenario) -> bool | np.ndarray:
    """Strict test of |gain_1| M_1 > M_BS * gbar, i.e. noma_gain > 0: exact,
    since in IEEE arithmetic a - b > 0 exactly when a > b."""
    return noma_gain(scenario) > 0.0


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
    _check_los_gains(g)
    mean_log_ratio = _user_mean(np.log(g / g[..., :1]))
    # the mean log ratio is at most 0, so m1 is at most m_bs + 1
    m1 = (np.floor(m_bs * np.exp(mean_log_ratio)) + 1).astype(np.int64)
    if g.ndim > 1:
        return m1
    return int(m1) if m1 <= m_bs else None
