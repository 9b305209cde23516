"""Command line front end.

Subcommands: beampattern, effective, rates, sweep-antennas, sweep-power.
Exit codes: 0 on success, 2 for config problems, 3 when the requested
experiment is infeasible (e.g. an antenna split that cannot fit).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .asymptotic import SicConditionError
from .beams import GroupPlan, PlanError
from .channel import ScenarioConfig, UlaConfig, dbm_to_watt
from .config import ConfigError, load_config
from .effective import effective_asymptotic, effective_channel_matrix, effective_closed_form
from .experiments import (
    BeamPatternConfig,
    InfeasibleSpecError,
    SweepSpec,
    SweepTable,
    default_antenna_alloc,
    drop_users,
    run_antenna_sweep,
    run_beam_pattern,
    run_power_sweep,
    single_chain_plan,
    write_table,
)
from .rates import SicOrder, system_sum_rate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibeam-noma",
        description="Beam splitting and multi-beam NOMA experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_out: str) -> None:
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="master RNG seed")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trials")
        p.add_argument("--out", metavar="PATH", default=default_out, help="output CSV path")
        p.add_argument("--ratio", type=float, metavar="R",
                       help="pin the two-user LOS gain ratio")

    p = sub.add_parser("beampattern", help="beam gains over the angle grid (draws no "
                       "channel: rejects trials and ratio, ignores seed and scenario keys)")
    common(p, "beam_pattern.csv")
    p.set_defaults(func=cmd_beampattern)

    p = sub.add_parser("effective", help="effective channels of random drops")
    common(p, "effective.csv")
    p.set_defaults(func=cmd_effective)

    p = sub.add_parser("rates", help="NOMA rate reports of random drops")
    common(p, "rates.csv")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("sweep-antennas", help="two-user antenna split sweep")
    common(p, "antenna_sweep.csv")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker threads, capped at the core count "
                        "(output is identical for any count)")
    p.set_defaults(func=cmd_sweep_antennas)

    p = sub.add_parser("sweep-power", help="power budget sweep vs baselines")
    common(p, "power_sweep.csv")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker threads, capped at the core count "
                        "(output is identical for any count)")
    p.set_defaults(func=cmd_sweep_power)

    return parser


def _load(args) -> dict:
    cfg = load_config(args.config) if args.config else {}
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("seed must be nonnegative")
        cfg["seed"] = args.seed
    if args.trials is not None:
        cfg["trials"] = args.trials
    if args.ratio is not None:
        if not math.isfinite(args.ratio):
            raise ConfigError(f"ratio must be finite, got {args.ratio}")
        cfg["ratio"] = args.ratio
    if cfg.get("trials", 1) < 1:
        raise ConfigError("trials must be positive")
    if getattr(args, "workers", 1) < 1:
        raise ConfigError("workers must be positive")
    return cfg


def _scenario(cfg: dict, default_users: int) -> ScenarioConfig:
    try:
        return ScenarioConfig(
            num_users=cfg.get("num_users", default_users),
            num_nlos_paths=cfg.get("num_nlos_paths", 30),
            cell_radius_m=cfg.get("cell_radius_m", 500.0),
            bs_config=UlaConfig(cfg.get("bs_antennas", 128)),
            ue_config=UlaConfig(cfg.get("ue_antennas", 10)),
            max_power_w=dbm_to_watt(cfg.get("pmax_dbm", 46.0)),
            noise_w=dbm_to_watt(cfg.get("noise_dbm", -88.0)),
            rng_seed=cfg.get("seed", 1),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_beampattern(args) -> int:
    cfg = _load(args)
    if "trials" in cfg or "ratio" in cfg:
        raise ConfigError("beampattern draws no channels: it takes neither trials "
                          "nor a gain ratio")
    pattern_cfg = BeamPatternConfig(
        bs_antennas=cfg.get("bs_antennas", 128),
        split_lengths=tuple(cfg.get("split_lengths", (50, 78))),
        split_angles_deg=tuple(cfg.get("split_angles_deg", (70.0, 90.0))),
        full_angle_deg=cfg.get("full_angle_deg", 120.0),
        num_points=cfg.get("angle_points", 2048),
    )
    run_beam_pattern(pattern_cfg, out_path=args.out)
    return 0


def _drop_plan(cfg: dict, scenario: ScenarioConfig):
    alloc = cfg.get("antenna_alloc")
    if alloc is None:
        alloc = default_antenna_alloc(scenario.num_users, scenario.bs_config.num_antennas)
    try:
        plan = single_chain_plan(scenario, alloc, cfg.get("max_group_size"))
    except PlanError as exc:
        raise InfeasibleSpecError(str(exc)) from exc
    return alloc, plan


def cmd_effective(args) -> int:
    cfg = _load(args)
    scenario = _scenario(cfg, default_users=2)
    alloc, plan = _drop_plan(cfg, scenario)
    trials = cfg.get("trials", 1)
    m_ue = scenario.ue_config.num_antennas
    m_bs = scenario.bs_config.num_antennas
    header = ("trial", "user", "chain", "direct_re", "direct_im", "closed_re",
              "closed_im", "asymptotic_re", "asymptotic_im")
    rows = []
    for t in range(trials):
        users = drop_users(scenario, t, cfg.get("ratio"))
        channels = [u.channel for u in users]
        los_aods = np.array([ch.aods[0] for ch in channels])
        eff = effective_channel_matrix(channels, plan, los_aods)
        for k, ch in enumerate(channels):
            for r in range(plan.num_chains):
                closed = effective_closed_form(ch, plan, r, los_aods)
                asym = effective_asymptotic(ch.gains[0], m_ue, m_bs,
                                            int(plan.antenna_alloc[k, r]))
                v = eff.values[k, r]
                rows.append((t, k, r, v.real, v.imag, closed.real, closed.imag,
                             asym.real, asym.imag))
    meta = {"experiment": "effective", "trials": trials,
            "antenna_alloc": ":".join(str(int(a)) for a in alloc)}
    write_table(SweepTable(meta, header, rows), args.out)
    return 0


def cmd_rates(args) -> int:
    cfg = _load(args)
    scenario = _scenario(cfg, default_users=2)
    alloc, plan = _drop_plan(cfg, scenario)
    trials = cfg.get("trials", 1)
    header = ("trial", "user", "rate", "system_sum", "sic_feasible")
    rows = []
    for t in range(trials):
        users = drop_users(scenario, t, cfg.get("ratio"))
        channels = [u.channel for u in users]
        eff = effective_channel_matrix(channels, plan)
        order = SicOrder.from_los_gains(np.array([ch.gains[0] for ch in channels]))
        report = system_sum_rate(eff, plan, order, scenario.noise_w)
        for k in range(scenario.num_users):
            rows.append((t, k, float(report.per_user[k]), report.system_sum,
                         int(report.sic_feasible)))
    meta = {"experiment": "rates", "trials": trials,
            "antenna_alloc": ":".join(str(int(a)) for a in alloc)}
    write_table(SweepTable(meta, header, rows), args.out)
    return 0


def _sweep_spec(kind: str, cfg: dict, scenario: ScenarioConfig, values) -> SweepSpec:
    # every field goes to the spec, which rejects those that its kind does not read
    alloc = cfg.get("antenna_alloc")
    try:
        return SweepSpec(kind=kind, scenario=scenario, trials=cfg.get("trials", 10000),
                         values=tuple(values), gain_ratio=cfg.get("ratio"),
                         antenna_alloc=None if alloc is None else tuple(alloc),
                         max_group_size=cfg.get("max_group_size"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_sweep_antennas(args) -> int:
    cfg = _load(args)
    scenario = _scenario(cfg, default_users=2)
    m_bs = scenario.bs_config.num_antennas
    values = cfg.get("m1_values", tuple(range(2, m_bs, 2)))
    run_antenna_sweep(_sweep_spec("antennas", cfg, scenario, values),
                      workers=args.workers, out_path=args.out)
    return 0


def cmd_sweep_power(args) -> int:
    cfg = _load(args)
    scenario = _scenario(cfg, default_users=5)
    values = cfg.get("pmax_dbm_values", tuple(float(v) for v in range(30, 47, 2)))
    run_power_sweep(_sweep_spec("power", cfg, scenario, values),
                    workers=args.workers, out_path=args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (InfeasibleSpecError, SicConditionError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
