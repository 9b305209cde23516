"""Command line front end.

Subcommands: beampattern, effective, rates, sweep-antennas, sweep-power.
``COMMANDS`` says once, for each, which handler runs it and which config
keys it reads; any other key ends the run as a config error.  Keys that a
command leaves out go to the dataclass defaults (``ScenarioConfig``,
``BeamPatternConfig``).  Exit codes: 0 on success, 2 for config problems,
3 when the requested experiment is infeasible (e.g. an antenna split that
cannot fit).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .asymptotic import SicConditionError
from .beams import PlanError
from .channel import ScenarioConfig, UlaConfig, dbm_to_watt
from .config import ConfigError, load_config
from .effective import effective_asymptotic, effective_channel_matrix, effective_closed_form
from .experiments import (
    MAX_TRIALS,
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


def _same(value):
    return value


# config key -> (field, conversion) of the dataclass that reads it
SCENARIO_FIELDS = {
    "num_users": ("num_users", _same),
    "num_nlos_paths": ("num_nlos_paths", _same),
    "cell_radius_m": ("cell_radius_m", _same),
    "bs_antennas": ("bs_config", UlaConfig),
    "ue_antennas": ("ue_config", UlaConfig),
    "pmax_dbm": ("max_power_w", dbm_to_watt),
    "noise_dbm": ("noise_w", dbm_to_watt),
    "seed": ("rng_seed", _same),
}
PATTERN_FIELDS = {
    "bs_antennas": ("bs_antennas", _same),
    "split_lengths": ("split_lengths", _same),
    "split_angles_deg": ("split_angles_deg", _same),
    "full_angle_deg": ("full_angle_deg", _same),
    "angle_points": ("num_points", _same),
}
SWEEP_FIELDS = {
    "trials": ("trials", _same),
    "ratio": ("gain_ratio", _same),
    "antenna_alloc": ("antenna_alloc", _same),
    "max_group_size": ("max_group_size", _same),
}
PLAN_KEYS = frozenset({"antenna_alloc", "max_group_size"})
DROP_KEYS = frozenset(SCENARIO_FIELDS) | {"trials", "ratio"}


def _build(cls, cfg: dict, fields: dict, **given):
    """``cls`` from the config keys present in ``cfg`` and ``given``; a
    ``ValueError`` of the conversion or of ``cls`` is a config error."""
    try:
        kwargs = {field: convert(cfg[key]) for key, (field, convert) in fields.items()
                  if key in cfg}
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _beampattern(cfg: dict, args) -> None:
    run_beam_pattern(_build(BeamPatternConfig, cfg, PATTERN_FIELDS), out_path=args.out)


def _effective_rows(t: int, channels, plan, scenario: ScenarioConfig) -> list[tuple]:
    m_ue = scenario.ue_config.num_antennas
    m_bs = scenario.bs_config.num_antennas
    los_aods = np.array([ch.aods[0] for ch in channels])
    eff = effective_channel_matrix(channels, plan, los_aods)
    rows = []
    for k, ch in enumerate(channels):
        for r in range(plan.num_chains):
            closed = effective_closed_form(ch, plan, r, los_aods)
            asym = effective_asymptotic(ch.gains[0], m_ue, m_bs, int(plan.antenna_alloc[k, r]))
            v = eff.values[k, r]
            rows.append((t, k, r, v.real, v.imag, closed.real, closed.imag,
                         asym.real, asym.imag))
    return rows


def _rates_rows(t: int, channels, plan, scenario: ScenarioConfig) -> list[tuple]:
    eff = effective_channel_matrix(channels, plan)
    order = SicOrder.from_los_gains(np.array([ch.gains[0] for ch in channels]))
    report = system_sum_rate(eff, plan, order, scenario.noise_w)
    return [(t, k, float(report.per_user[k]), report.system_sum, int(report.sic_feasible))
            for k in range(scenario.num_users)]


REPORTS = {
    "effective": (("trial", "user", "chain", "direct_re", "direct_im", "closed_re",
                   "closed_im", "asymptotic_re", "asymptotic_im"), _effective_rows),
    "rates": (("trial", "user", "rate", "system_sum", "sic_feasible"), _rates_rows),
}


def _report(cfg: dict, args) -> None:
    """The ``effective`` and ``rates`` reports: one plan, ``trials`` drops."""
    header, rows_of = REPORTS[args.command]
    scenario = _build(ScenarioConfig, cfg, SCENARIO_FIELDS)
    alloc = cfg.get("antenna_alloc")
    if alloc is None:
        alloc = default_antenna_alloc(scenario.num_users, scenario.bs_config.num_antennas)
    try:
        plan = single_chain_plan(scenario, alloc, cfg.get("max_group_size"))
    except PlanError as exc:
        raise InfeasibleSpecError(str(exc)) from exc
    trials = cfg.get("trials", 1)
    rows = []
    for t in range(trials):
        rows += rows_of(t, drop_users(scenario, t, cfg.get("ratio")), plan, scenario)
    meta = {"experiment": args.command, "trials": trials,
            "antenna_alloc": ":".join(str(int(a)) for a in alloc)}
    write_table(SweepTable(meta, header, rows), args.out)


def _sweep(cfg: dict, args) -> None:
    """The two sweeps; every field goes to the spec, which checks it."""
    if args.command == "sweep-antennas":
        scenario = _build(ScenarioConfig, cfg, SCENARIO_FIELDS)
        kind, run = "antennas", run_antenna_sweep
        values = cfg.get("m1_values", range(2, scenario.bs_config.num_antennas, 2))
    else:
        scenario = _build(ScenarioConfig, {"num_users": 5, **cfg}, SCENARIO_FIELDS)
        kind, run = "power", run_power_sweep
        values = cfg.get("pmax_dbm_values", [float(v) for v in range(30, 47, 2)])
    spec = _build(SweepSpec, {"trials": 10000, **cfg}, SWEEP_FIELDS, kind=kind,
                  scenario=scenario, values=tuple(values))
    run(spec, workers=args.workers, out_path=args.out)


@dataclass(frozen=True)
class Command:
    run: Callable[[dict, argparse.Namespace], None]
    out: str
    help: str
    keys: frozenset[str]
    workers: bool = False


COMMANDS = {
    "beampattern": Command(
        _beampattern, "beam_pattern.csv",
        "beam gains over the angle grid (draws no channel: rejects trials and ratio, "
        "ignores the scenario and plan keys)",
        frozenset(PATTERN_FIELDS) | frozenset(SCENARIO_FIELDS) | PLAN_KEYS),
    "effective": Command(_report, "effective.csv", "effective channels of random drops",
                         DROP_KEYS | PLAN_KEYS),
    "rates": Command(_report, "rates.csv", "NOMA rate reports of random drops",
                     DROP_KEYS | PLAN_KEYS),
    "sweep-antennas": Command(_sweep, "antenna_sweep.csv", "two-user antenna split sweep",
                              DROP_KEYS | {"m1_values"}, workers=True),
    "sweep-power": Command(_sweep, "power_sweep.csv", "power budget sweep vs baselines",
                           DROP_KEYS - {"ratio"} | PLAN_KEYS | {"pmax_dbm_values"},
                           workers=True),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multibeam-noma",
        description="Beam splitting and multi-beam NOMA experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", metavar="FILE", help="key = value config file")
        p.add_argument("--seed", type=int, metavar="U64", help="master RNG seed")
        p.add_argument("--trials", type=int, metavar="N", help="Monte Carlo trials")
        p.add_argument("--out", metavar="PATH", default=command.out, help="output CSV path")
        p.add_argument("--ratio", type=float, metavar="R",
                       help="pin the two-user LOS gain ratio")
        if command.workers:
            p.add_argument("--workers", type=int, default=1, metavar="N",
                           help="worker threads, capped at the core count "
                                "(output is identical for any count)")
    return parser


def _load(args) -> dict:
    """The config file with ``--seed``, ``--trials`` and ``--ratio`` merged in,
    holding only keys that the command reads."""
    cfg = load_config(args.config) if args.config else {}
    for key in ("seed", "trials", "ratio"):
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    unread = sorted(cfg.keys() - COMMANDS[args.command].keys)
    if unread:
        raise ConfigError(f"{args.command} does not read {', '.join(map(repr, unread))}")
    if cfg.get("seed", 0) < 0:
        raise ConfigError("seed must be nonnegative")
    if cfg.get("trials", 1) < 1:
        raise ConfigError("trials must be positive")
    if cfg.get("trials", 1) > MAX_TRIALS:
        raise ConfigError(f"trials must be at most {MAX_TRIALS}, got {cfg['trials']}")
    if not math.isfinite(cfg.get("ratio", 1.0)):
        raise ConfigError(f"ratio must be finite, got {cfg['ratio']}")
    if getattr(args, "workers", 1) < 1:
        raise ConfigError("workers must be positive")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command].run(_load(args), args)
        return 0
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
