"""The benchmark's workloads: seeded inputs, one call, and the call's CSV outputs.

A workload is a closed loop from one client thread: the next call starts
when the previous one returns.  Every call gets its own master seed, drawn
from the benchmark seed, and the program receives only the inputs built
from it.  All calls go through module attributes (``experiments.run_power_sweep``,
``cli.main``) so the span tracer can wrap them.

Importing this module imports ``multibeam_noma`` from the checkout's
``src`` directory and nothing heavier, because the set-up probe times it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
GOLDEN_DIR = os.path.join(HERE, "golden")
PLAN_CONFIG = os.path.join(HERE, "configs", "plan5.cfg")

# Master seed of the stored reference outputs: the CLI default.
GOLDEN_SEED = 1


class SourceMissing(ImportError):
    """The checkout has no ``src/multibeam_noma`` to benchmark."""


def import_package():
    """Import ``multibeam_noma`` from this checkout's ``src``, never from elsewhere."""
    pkg_dir = os.path.join(SRC, "multibeam_noma")
    if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
        raise SourceMissing(f"no package sources at {pkg_dir}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import multibeam_noma

    if os.path.dirname(os.path.abspath(multibeam_noma.__file__)) != pkg_dir:
        raise SourceMissing(f"multibeam_noma imported from {multibeam_noma.__file__}, "
                            f"not from {pkg_dir}")
    return multibeam_noma


import_package()

from multibeam_noma import cli, experiments  # noqa: E402
from multibeam_noma.channel import ScenarioConfig  # noqa: E402

POWER_BUDGETS_DBM = tuple(float(v) for v in range(30, 47, 2))
ANTENNA_SPLITS = tuple(range(30, 91, 2))


class CallFailed(RuntimeError):
    """A call ended without its outputs (non-zero CLI exit)."""


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int                       # trials (drops) one call completes
    golden: tuple[str, ...]           # reference CSV names under golden/
    call: Callable[[int, int, str], object]            # (seed, trials, workdir) -> result
    outputs: Callable[[object, str], dict[str, str]]   # (result, workdir) -> {name: csv}


def _power_call(workers: int):
    def call(seed: int, trials: int, workdir: str):
        scenario = ScenarioConfig(num_users=5, num_nlos_paths=30, rng_seed=seed)
        spec = experiments.SweepSpec(kind="power", scenario=scenario, trials=trials,
                                     values=POWER_BUDGETS_DBM,
                                     antenna_alloc=(100, 7, 7, 7, 7))
        return experiments.run_power_sweep(spec, workers=workers)
    return call


def _antenna_call(seed: int, trials: int, workdir: str):
    # README sweep.cfg: 2 users, LOS only, ratio 5, m1 = 30:90:2
    scenario = ScenarioConfig(num_users=2, num_nlos_paths=0, rng_seed=seed)
    spec = experiments.SweepSpec(kind="antennas", scenario=scenario, trials=trials,
                                 values=ANTENNA_SPLITS, gain_ratio=5.0)
    return experiments.run_antenna_sweep(spec, workers=1)


def _table_output(name: str):
    def outputs(table, workdir: str) -> dict[str, str]:
        return {name: table.csv_text()}
    return outputs


PLAN_COMMANDS = (("effective", "effective.csv"), ("rates", "rates.csv"),
                 ("beampattern", "beam_pattern.csv"))


def _plan_call(seed: int, trials: int, workdir: str):
    # ``trials`` counts drops: the effective and the rates report each take half.
    per_report = str(trials // 2)
    for command, out in PLAN_COMMANDS:
        argv = [command, "--config", PLAN_CONFIG, "--seed", str(seed),
                "--out", os.path.join(workdir, out)]
        if command != "beampattern":
            argv += ["--trials", per_report]
        code = cli.main(argv)
        if code != 0:
            raise CallFailed(f"multibeam-noma {command} exited with {code}")
    return None


def _plan_outputs(result, workdir: str) -> dict[str, str]:
    texts = {}
    for _, out in PLAN_COMMANDS:
        with open(os.path.join(workdir, out)) as fh:
            texts[out] = fh.read()
    return texts


# Trials per call.  The antenna sweep uses the README sweep.cfg count.  The
# power sweep uses a tenth of the README example's 1000 trials: a call then
# takes about as long as an antenna-sweep call (~0.45 s), so a timed run
# still holds the ~70 calls its tail percentile needs.
ANTENNA_TRIALS = 1000
POWER_TRIALS = 100

WORKLOADS = {
    w.name: w for w in (
        Workload("power_sweep", POWER_TRIALS, ("power_sweep.csv",), _power_call(1),
                 _table_output("power_sweep.csv")),
        Workload("antenna_sweep", ANTENNA_TRIALS, ("antenna_sweep.csv",), _antenna_call,
                 _table_output("antenna_sweep.csv")),
        # Same inputs as power_sweep, so the serial reference also checks that
        # the CSV does not depend on the worker count.
        Workload("power_sweep_parallel", POWER_TRIALS, ("power_sweep.csv",), _power_call(2),
                 _table_output("power_sweep.csv")),
        Workload("plan_reports", 2, tuple(out for _, out in PLAN_COMMANDS),
                 _plan_call, _plan_outputs),
    )
}

# Smallest call of each workload, for the set-up probe.
TINY_TRIALS = {"power_sweep": 1, "antenna_sweep": 1, "power_sweep_parallel": 1,
               "plan_reports": 2}
