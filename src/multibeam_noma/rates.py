"""Achievable rates under intra-group SIC and inter-group interference.

Users scheduled on the same RF chain form a NOMA group: each user decodes
and cancels every weaker group member (weaker in LOS gain) before its own
message, so residual intra-group interference comes only from stronger
members.  Beams of other RF chains interfere as noise.  A group rate only
counts if every stronger member can actually decode the weaker messages it
must cancel, which is what ``sic_feasible`` checks.
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
        power = np.abs(np.asarray(los_gains)) ** 2
        idx = np.argsort(-power, kind="stable")
        return cls(tuple(int(i) for i in idx))

    def position(self, user: int) -> int:
        return self.order.index(user)

    def positions(self) -> np.ndarray:
        pos = np.empty(len(self.order), dtype=np.int64)
        for rank, user in enumerate(self.order):
            pos[user] = rank
        return pos


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


def _stronger_power(plan: GroupPlan, chain: int, positions: np.ndarray, rank: int) -> float:
    """Total scheduled power of users on ``chain`` decoded before ``rank``."""
    mask = (plan.scheduling[:, chain] == 1) & (positions < rank)
    return float(plan.power_alloc[mask, chain].sum())


def interference_terms(eff: EffectiveChannelMatrix, plan: GroupPlan, user: int,
                       chain: int, order: SicOrder) -> tuple[float, float]:
    """(inter-group, intra-group) interference powers seen by one user.

    Inter-group: every other chain's full transmit power scaled by this
    user's response to that chain's beams.  Intra-group: the powers of
    stronger same-chain users, which SIC cannot remove.
    """
    g = eff.gains_sq
    powers = plan.scheduling * plan.power_alloc
    per_chain = powers.sum(axis=0)
    inter = float(g[user] @ per_chain - g[user, chain] * per_chain[chain])
    positions = order.positions()
    intra = g[user, chain] * _stronger_power(plan, chain, positions, positions[user])
    return inter, float(intra)


def individual_rate(eff: EffectiveChannelMatrix, plan: GroupPlan, user: int,
                    chain: int, order: SicOrder, noise_w: float) -> float:
    """Rate of ``user`` on ``chain`` after cancelling weaker group members."""
    if plan.scheduling[user, chain] == 0:
        return 0.0
    inter, intra = interference_terms(eff, plan, user, chain, order)
    signal = plan.power_alloc[user, chain] * eff.gains_sq[user, chain]
    return math.log2(1.0 + signal / (inter + intra + noise_w))


def sic_decoding_rate(eff: EffectiveChannelMatrix, plan: GroupPlan, decoder: int,
                      message: int, chain: int, order: SicOrder, noise_w: float) -> float:
    """Rate at which ``decoder`` can decode ``message``'s signal on ``chain``.

    Only a stronger user may decode a weaker one's message; at that stage
    every user stronger than ``message`` (the decoder included) is still
    undecoded and interferes.
    """
    positions = order.positions()
    if positions[decoder] >= positions[message]:
        raise ValueError("decoder must precede message in the SIC order")
    if plan.scheduling[message, chain] == 0:
        return 0.0
    g = eff.gains_sq[decoder, chain]
    inter, _ = interference_terms(eff, plan, decoder, chain, order)
    intra = g * _stronger_power(plan, chain, positions, positions[message])
    signal = plan.power_alloc[message, chain] * g
    return math.log2(1.0 + signal / (inter + intra + noise_w))


def sic_feasible(eff: EffectiveChannelMatrix, plan: GroupPlan, order: SicOrder,
                 noise_w: float) -> tuple[bool, tuple[SicCheck, ...]]:
    """Check every decode-and-cancel step a group's SIC chain relies on.

    For each chain and each scheduled pair (stronger k, weaker j), the
    stronger user must decode j's message at least as fast as j itself
    does.  Pairs involving unscheduled users impose nothing.
    """
    positions = order.positions()
    checks = []
    for chain in range(plan.num_chains):
        scheduled = [k for k in range(plan.num_users) if plan.scheduling[k, chain] == 1]
        scheduled.sort(key=lambda k: positions[k])
        for i, decoder in enumerate(scheduled):
            for message in scheduled[i + 1:]:
                decode = sic_decoding_rate(eff, plan, decoder, message, chain, order, noise_w)
                target = individual_rate(eff, plan, message, chain, order, noise_w)
                checks.append(SicCheck(decoder, message, chain, decode, target,
                                       decode >= target))
    return all(c.ok for c in checks), tuple(checks)


def system_sum_rate(eff: EffectiveChannelMatrix, plan: GroupPlan, order: SicOrder,
                    noise_w: float) -> RateReport:
    """Sum rate over all users and RF chains, with the SIC audit attached."""
    per_user = np.zeros(plan.num_users)
    group_sums = np.zeros(plan.num_chains)
    for chain in range(plan.num_chains):
        for user in range(plan.num_users):
            r = individual_rate(eff, plan, user, chain, order, noise_w)
            per_user[user] += r
            group_sums[chain] += r
    feasible, checks = sic_feasible(eff, plan, order, noise_w)
    return RateReport(per_user, group_sums, float(per_user.sum()), checks, feasible)


def noma_rates_from_gains(gains_sq: np.ndarray, powers: np.ndarray,
                          noise_w: float) -> np.ndarray:
    """Single-chain NOMA rates from effective gains already in SIC order.

    Row k belongs to the strongest-but-k user.  ``gains_sq`` is (K,) or
    (K, n) for n scenarios; ``powers`` is (K,), one power split shared by
    every scenario, or (K, n), one split per column.  The result has the
    broadcast shape of the two.  Used by the sweep evaluators where
    building full plan objects per trial would dominate the runtime.
    """
    gains_sq = np.asarray(gains_sq, dtype=np.float64)
    powers = np.asarray(powers, dtype=np.float64)
    stronger = np.zeros_like(powers)
    np.cumsum(powers[:-1], axis=0, out=stronger[1:])
    if powers.ndim < gains_sq.ndim:
        powers, stronger = powers[:, None], stronger[:, None]
    elif gains_sq.ndim < powers.ndim:
        gains_sq = gains_sq[:, None]
    sinr = powers * gains_sq / (gains_sq * stronger + noise_w)
    return np.log2(1.0 + sinr)


def equal_time_shares(num_users: int) -> np.ndarray:
    return np.full(num_users, 1.0 / num_users)


def tdma_rates(gains_sq: np.ndarray, time_shares: np.ndarray, max_power_w: float,
               noise_w: float) -> RateReport:
    """Orthogonal baseline: each user gets the whole array and full power
    for its time share."""
    gains_sq = np.asarray(gains_sq, dtype=np.float64)
    time_shares = np.asarray(time_shares, dtype=np.float64)
    if gains_sq.shape != time_shares.shape:
        raise ValueError("one time share per user is required")
    if (time_shares < 0.0).any():
        raise ValueError("time shares must be nonnegative")
    if time_shares.sum() > 1.0 + 1e-9:
        raise ValueError(f"time shares sum to {time_shares.sum()}, over the frame")
    per_user = time_shares * np.log2(1.0 + max_power_w * gains_sq / noise_w)
    total = float(per_user.sum())
    return RateReport(per_user, np.array([total]), total, (), True)


def cluster_users(los_aods: np.ndarray, los_gains: np.ndarray,
                  beamwidth_rad: float, max_cluster_size: int) -> list[list[int]]:
    """Greedy angular clustering for the single-beam baseline.

    Users are visited in descending LOS power; each unassigned user opens
    a cluster and absorbs the unassigned users whose LOS departure angles
    lie within one beamwidth of its own, strongest first, up to the cap.
    """
    order = SicOrder.from_los_gains(los_gains).order
    assigned = np.zeros(len(order), dtype=bool)
    clusters = []
    for head in order:
        if assigned[head]:
            continue
        members = [head]
        assigned[head] = True
        for k in order:
            if len(members) >= max_cluster_size:
                break
            if not assigned[k] and abs(los_aods[k] - los_aods[head]) <= beamwidth_rad:
                members.append(k)
                assigned[k] = True
        clusters.append(members)
    return clusters


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
    """
    los_aods = np.asarray(los_aods, dtype=np.float64)
    los_gains = np.asarray(los_gains)
    budgets = np.atleast_1d(np.asarray(max_power_w, dtype=np.float64))
    beamwidth_rad = math.radians(beamwidth_3db_deg(m_bs))
    clusters = cluster_users(los_aods, los_gains, beamwidth_rad, max_group_size)
    share = 1.0 / len(clusters)

    num_users = len(los_aods)
    # (budget, user): each row sums along its contiguous axis exactly as a
    # single budget's (K,) vector does.
    per_user = np.zeros((len(budgets), num_users))
    checks = [[] for _ in budgets]
    for chain, members in enumerate(clusters):
        head = members[0]
        x = 0.5 * math.pi * (math.cos(los_aods[head]) - np.cos(los_aods[members]))
        gains_sq = (np.abs(los_gains[members]) ** 2 * (m_ue / m_bs)
                    * np.asarray(dirichlet(m_bs, x)) ** 2)
        powers = np.tile(budgets / len(members), (len(members), 1))
        rates = noma_rates_from_gains(gains_sq, powers, noise_w)
        per_user[:, members] = share * rates.T
        if len(members) < 2:
            continue
        # decode-and-cancel audit within the cluster, same algebra as above
        stronger = np.cumsum(powers, axis=0).tolist()
        powers, rates, gains = powers.tolist(), rates.tolist(), gains_sq.tolist()
        for b, budget_checks in enumerate(checks):
            for i, decoder in enumerate(members):
                for j in range(i + 1, len(members)):
                    decode = math.log2(1.0 + powers[j][b] * gains[i]
                                       / (gains[i] * stronger[j - 1][b] + noise_w))
                    budget_checks.append(SicCheck(decoder, members[j], chain, decode,
                                                  rates[j][b], decode >= rates[j][b]))
    totals = per_user.sum(axis=1)
    feasible = np.array([all(c.ok for c in cs) for cs in checks])
    all_checks = tuple(c for cs in checks for c in cs)
    if np.ndim(max_power_w) == 0:
        total = float(totals[0])
        return RateReport(per_user[0], np.array([total]), total, all_checks,
                          bool(feasible[0]))
    return RateReport(per_user.T, totals[None, :], totals, all_checks, feasible)
