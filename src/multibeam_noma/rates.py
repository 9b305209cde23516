"""Achievable rates under intra-group SIC and inter-group interference.

Users scheduled on the same RF chain form a NOMA group: each user decodes
and cancels every weaker group member (weaker in LOS gain) before its own
message, so residual intra-group interference comes only from stronger
members.  Beams of other RF chains interfere as noise.  A group rate only
counts if every stronger member can actually decode the weaker messages it
must cancel; the SIC audit checks this.

Every rate here is one expression, ``_rate``: log2(1 + p·g / (g·S + I + σ²))
for a receiver of gain g decoding a message of power p, with S the summed
power of the messages stronger than it and I the inter-group interference
at the receiver.  ``sic_rates`` evaluates it for a group in SIC order, on
the diagonal for the rates and on the receiver x message grid for the
decode rates of the audit.  The sweeps' NOMA rates
(``noma_rates_from_gains``), the plan reports (``system_sum_rate``, one
``sic_rates`` call per RF chain), the single-beam baseline and TDMA all use
it.  TDMA is ``tdma_rates``: each user alone, S = I = 0, its rates reduced
with ``@ time_shares``; both sweeps take their TDMA column from it, over
drops (and budgets) on leading axes, as they take the baseline from
``single_beam_noma_baseline``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beams import GroupPlan
from .effective import EffectiveChannelMatrix, dirichlet

# 3 dB beamwidth of an M-element half-wavelength ULA at broadside, degrees.
BEAM_3DB_COEF_DEG = 102.1


def beamwidth_3db_deg(num_antennas: int) -> float:
    return BEAM_3DB_COEF_DEG / num_antennas


def strongest_first(mags: np.ndarray) -> np.ndarray:
    """Order of the users on the last axis of the LOS gain magnitudes
    ``mags`` by descending LOS power; ties keep the smaller user index."""
    return np.argsort(-(mags * mags), axis=-1, kind="stable")


@dataclass(frozen=True)
class SicOrder:
    """Decoding order: user indices sorted by descending LOS power.

    ``order[0]`` is the strongest user.  Ties break toward the smaller
    user index so the order is always reproducible.
    """

    order: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.order) != list(range(len(self.order))):
            raise ValueError("order must be a permutation of 0..K-1")

    @classmethod
    def from_los_gains(cls, los_gains: np.ndarray) -> "SicOrder":
        return cls(tuple(strongest_first(np.abs(los_gains)).tolist()))


@dataclass(frozen=True)
class SicCheck:
    decoder: int
    message: int
    chain: int
    decode_rate: float
    target_rate: float
    ok: bool


@dataclass(frozen=True)
class RateReport:
    """Per-user rates (bit/s/Hz), per-chain sums, and the SIC audit."""

    per_user: np.ndarray
    group_sums: np.ndarray
    system_sum: float
    sic_checks: tuple[SicCheck, ...]
    sic_feasible: bool


def _sic_terms(gains_sq, powers) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gains, powers and the summed power of every stronger message, as
    arrays that broadcast together; row k is the k-th strongest user."""
    gains_sq = np.asarray(gains_sq, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    stronger = np.zeros_like(powers)
    np.cumsum(powers[:-1], axis=0, out=stronger[1:])
    # the user axis leads; the scenario axes trail
    if powers.ndim < gains_sq.ndim:
        trailing = (1,) * (gains_sq.ndim - powers.ndim)
        powers = powers.reshape(powers.shape + trailing)
        stronger = stronger.reshape(stronger.shape + trailing)
    elif gains_sq.ndim < powers.ndim:
        gains_sq = gains_sq.reshape(gains_sq.shape + (1,) * (powers.ndim - gains_sq.ndim))
    return gains_sq, powers, stronger


def _rate(gain, power, stronger, inter, noise_w):
    """The one SINR-to-rate expression, log2(1 + p·g / (g·S + (I + σ²))).

    A receiver with gain g decodes a message of power p while the messages
    of summed power S that are stronger than it are still undecoded, and
    I watts of other chains' beams reach it.  A scalar I = 0 leaves σ² exact
    and costs no array operation.
    """
    return np.log2(1.0 + power * gain / (gain * stronger + (inter + noise_w)))


def noma_rates_from_gains(gains_sq: np.ndarray, powers: np.ndarray,
                          noise_w: float) -> np.ndarray:
    """Single-chain NOMA rates from effective gains already in SIC order.

    Row k belongs to the strongest-but-k user.  ``gains_sq`` is (K,) or
    (K, n) for n scenarios, or (K, ...) with more scenario axes; ``powers``
    is (K,), one power split shared by every scenario, or (K, n), one split
    per column.  The result has the
    broadcast shape of the two.  Used by the sweep evaluators where
    building full plan objects per trial would dominate the runtime.
    """
    return _rate(*_sic_terms(gains_sq, powers), 0.0, noise_w)


def sic_rates(gains_sq: np.ndarray, powers: np.ndarray, noise_w: float,
              inter=0.0) -> tuple[np.ndarray, np.ndarray]:
    """Rates and decode rates of one NOMA group, gains in SIC order.

    ``gains_sq`` and ``powers`` are laid out as for ``noma_rates_from_gains``.
    ``inter`` is the inter-group interference power at each receiver: a
    scalar, or (K,) with one value per user shared by the n columns.
    Returns ``rates``, of the broadcast shape (K,) or (K, n), and
    ``decode`` of shape (K, K) or (K, K, n), where ``decode[i, j]`` is the
    rate at which user i decodes user j's message.  Both come from the
    same expression: ``rates`` is the diagonal of ``decode``, so the SIC
    step i -> j (i stronger, i < j) holds when ``decode[i, j] >= rates[j]``.
    """
    gain, power, stronger = _sic_terms(gains_sq, powers)
    # one value per receiver (row), shared by the n columns
    inter = np.reshape(inter, (-1,) + (1,) * (gain.ndim - 1))
    rates = _rate(gain, power, stronger, inter, noise_w)
    # receiver on axis 0, message on axis 1
    decode = _rate(gain[:, None], power[None], stronger[None], inter[:, None], noise_w)
    return rates, decode


def _pair_checks(users: list[int], chain: int, rates: list[float],
                 decode: list[list[float]]) -> list[SicCheck]:
    """One check per pair (stronger i, weaker j) of a group in SIC order, from
    one scenario's ``sic_rates`` results, (K,) rates and (K, K) decode rates,
    as nested lists."""
    return [SicCheck(users[i], users[j], chain, decode[i][j], rates[j],
                     decode[i][j] >= rates[j])
            for i in range(len(users)) for j in range(i + 1, len(users))]


def system_sum_rate(eff: EffectiveChannelMatrix, plan: GroupPlan, order: SicOrder,
                    noise_w: float) -> RateReport:
    """Sum rate over all users and RF chains, with the SIC audit attached.

    Each chain's scheduled users are taken in SIC order and evaluated by one
    ``sic_rates`` call.  Every other chain's full transmit power reaches a
    user through its gain to that chain, as inter-group interference.  For
    each scheduled pair (stronger k, weaker j) the audit checks that k
    decodes j's message at least as fast as j itself does; pairs involving
    unscheduled users impose nothing.
    """
    g = eff.gains_sq
    per_chain = (plan.scheduling * plan.power_alloc).sum(axis=0)
    received = g @ per_chain
    sic = np.asarray(order.order)
    # (user, chain): a user's rate sums its row, a chain's its column
    rates = np.zeros((plan.num_users, plan.num_chains))
    checks = []
    for chain in range(plan.num_chains):
        users = sic[plan.scheduling[sic, chain] == 1]
        gains = g[users, chain]
        inter = received[users] - gains * per_chain[chain]
        own, decode = sic_rates(gains, plan.power_alloc[users, chain], noise_w, inter)
        rates[users, chain] = own
        checks += _pair_checks(users.tolist(), chain, own.tolist(), decode.tolist())
    per_user = rates.sum(axis=1)
    return RateReport(per_user, rates.sum(axis=0), float(per_user.sum()), tuple(checks),
                      all(c.ok for c in checks))


def sic_feasible(eff: EffectiveChannelMatrix, plan: GroupPlan, order: SicOrder,
                 noise_w: float) -> tuple[bool, tuple[SicCheck, ...]]:
    """The SIC audit of ``system_sum_rate``: whether every decode-and-cancel
    step holds, and the checks themselves."""
    report = system_sum_rate(eff, plan, order, noise_w)
    return report.sic_feasible, report.sic_checks


def equal_time_shares(num_users: int) -> np.ndarray:
    return np.full(num_users, 1.0 / num_users)


def tdma_rates(gains_sq: np.ndarray, time_shares: np.ndarray, max_power_w,
               noise_w: float) -> RateReport:
    """Orthogonal baseline: each user gets the whole array and full power
    for its time share.

    ``gains_sq`` is (K,), or (..., K) with one drop per row, and
    ``max_power_w`` one budget or an array that broadcasts against the
    gains: (n, 1) against (T, 1, K) gives every (drop, budget) pair.  The
    fields then gain those leading axes, with the users last in
    ``per_user``.  ``system_sum`` is the users' rates reduced with
    ``@ time_shares``: the TDMA sum rate of both sweeps.
    """
    gains_sq = np.asarray(gains_sq, dtype=np.float64)
    time_shares = np.asarray(time_shares, dtype=np.float64)
    if gains_sq.shape[-1:] != time_shares.shape:
        raise ValueError("one time share per user is required")
    if (time_shares < 0.0).any():
        raise ValueError("time shares must be nonnegative")
    if time_shares.sum() > 1.0 + 1e-9:
        raise ValueError(f"time shares sum to {time_shares.sum()}, over the frame")
    # each user alone on the channel: nothing stronger, no other beam
    rates = _rate(gains_sq, max_power_w, 0.0, 0.0, noise_w)
    total = rates @ time_shares
    system_sum = float(total) if np.ndim(total) == 0 else total
    return RateReport(time_shares * rates, total[..., None], system_sum, (), True)


def cluster_users(los_aods: np.ndarray, los_gains: np.ndarray,
                  beamwidth_rad: float, max_cluster_size: int) -> np.ndarray:
    """Greedy angular clustering for the single-beam baseline.

    Users are visited in descending LOS power; each unassigned user opens
    a cluster and absorbs the unassigned users whose LOS departure angles
    lie within one beamwidth of its own, strongest first, up to the cap.

    Inputs are (..., K), one drop per row (a single drop is (K,)).  The
    result is an int64 array of the same shape holding every user's
    cluster index; clusters are numbered in the order they open.  The rule
    runs as K (K - 1) / 2 exact comparisons over the drops' arrays.
    """
    aods = np.asarray(los_aods, dtype=np.float64)
    order = strongest_first(np.abs(los_gains))
    # in visiting order: every user of rank below i is assigned when rank i
    # is visited, as a head or as a member of an earlier cluster
    visited = np.take_along_axis(aods, order, axis=-1)
    ranked = np.full(aods.shape, -1, dtype=np.int64)
    opened = np.zeros(aods.shape[:-1], dtype=np.int64)
    num_users = aods.shape[-1]
    for i in range(num_users):
        head = ranked[..., i] < 0
        ranked[..., i] = np.where(head, opened, ranked[..., i])
        room = head * (max_cluster_size - 1)
        for j in range(i + 1, num_users):
            joins = ((room > 0) & (ranked[..., j] < 0)
                     & (np.abs(visited[..., j] - visited[..., i]) <= beamwidth_rad))
            ranked[..., j] = np.where(joins, opened, ranked[..., j])
            room = room - joins
        opened = opened + head
    labels = np.empty_like(ranked)
    labels[(*np.indices(order.shape)[:-1], order)] = ranked
    return labels


def single_beam_noma_baseline(los_aods: np.ndarray, los_gains: np.ndarray,
                              m_ue: int, m_bs: int, max_group_size: int,
                              max_power_w, noise_w: float) -> RateReport:
    """Single-RF baseline: one full-array beam per cluster, clusters TDMA'd.

    Users whose LOS departure angles fall inside one 3 dB beamwidth share
    a beam pointed at the strongest member and superpose with equal power;
    clusters split the frame evenly.  With every user angularly isolated
    this collapses to plain TDMA.

    ``max_power_w`` is one budget or a 1-D array of n budgets.  The
    clustering and the beam gains do not depend on power, so they are built
    once; with an array, ``per_user`` is (K, n), ``system_sum`` and
    ``sic_feasible`` are (n,), ``group_sums`` is (1, n), and ``sic_checks``
    holds the checks of budget 0, then those of budget 1, and so on.

    ``los_aods`` and ``los_gains`` may also be (..., K), one drop per row.
    Every field then gains those leading axes, ``system_sum`` and
    ``sic_feasible`` become arrays, and ``sic_checks`` holds the checks of
    each drop in turn, as one call per drop would give them; each row has
    the bits of that call.
    """
    los_aods = np.asarray(los_aods, dtype=np.float64)
    los_gains = np.asarray(los_gains)
    budgets = np.atleast_1d(np.asarray(max_power_w, dtype=np.float64))
    beamwidth_rad = math.radians(beamwidth_3db_deg(m_bs))
    lead, num_users = los_aods.shape[:-1], los_aods.shape[-1]
    aods = los_aods.reshape(-1, num_users)
    gains = los_gains.reshape(aods.shape)
    labels = cluster_users(aods, gains, beamwidth_rad, max_group_size)
    share = 1.0 / (labels.max(axis=-1) + 1)
    clustered = (labels[:, :, None] == labels[:, None, :]).sum(axis=-1) > 1

    # (drop, budget, user): each row sums along its contiguous axis exactly
    # as a single budget's (K,) vector does.  A singleton's beam points at
    # itself, so its Dirichlet factor is exactly m_bs (x is 0, or a last-bit
    # cos difference far below dirichlet's threshold) and its power the
    # whole budget: every user starts with that rate, with nothing stronger,
    # and the members of larger clusters are overwritten below.
    gains_sq = np.abs(gains) ** 2 * (m_ue / m_bs) * float(m_bs * m_bs)
    per_user = share[:, None, None] * _rate(gains_sq[:, None, :], budgets[:, None],
                                            0.0, 0.0, noise_w)
    order = strongest_first(np.abs(gains))
    ranked = np.take_along_axis(labels, order, axis=-1)
    feasible = np.ones(per_user.shape[:2], dtype=bool)
    all_checks = []
    for t in np.flatnonzero(clustered.any(axis=-1)).tolist():
        audits = []
        for chain in sorted(set(labels[t][clustered[t]].tolist())):
            # members in the order they joined: strongest first
            members = order[t][ranked[t] == chain].tolist()
            head = members[0]
            x = 0.5 * math.pi * (math.cos(aods[t, head]) - np.cos(aods[t, members]))
            beam_sq = (np.abs(gains[t, members]) ** 2 * (m_ue / m_bs)
                       * np.asarray(dirichlet(m_bs, x)) ** 2)
            powers = np.tile(budgets / len(members), (len(members), 1))
            rates, decode = sic_rates(beam_sq, powers, noise_w)
            # budget first: rates[b] is (K,), decode[b] is (K, K)
            audits.append((chain, members, rates.T.tolist(),
                           decode.transpose(2, 0, 1).tolist()))
            per_user[t][:, members] = share[t] * rates.T
        for b in range(len(budgets)):
            checks = [c for chain, members, rates, decode in audits
                      for c in _pair_checks(members, chain, rates[b], decode[b])]
            feasible[t, b] = all(c.ok for c in checks)
            all_checks += checks
    totals = per_user.sum(axis=-1)
    all_checks = tuple(all_checks)
    # (drop, user, budget) and (drop, chain, budget)
    fields = [per_user.transpose(0, 2, 1), totals[:, None, :], totals, feasible]
    if np.ndim(max_power_w) == 0:
        fields = [a[..., 0] for a in fields]
        if not lead:
            per_user, group_sums, totals, feasible = (a[0] for a in fields)
            return RateReport(per_user, group_sums, float(totals), all_checks, bool(feasible))
    per_user, group_sums, totals, feasible = (a.reshape(lead + a.shape[1:]) for a in fields)
    return RateReport(per_user, group_sums, totals, all_checks, feasible)
