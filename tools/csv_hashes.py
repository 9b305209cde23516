"""SHA-256 digest of every CSV in a fixed matrix of runs, for byte-identity checks.

    python3 tools/csv_hashes.py > hashes.txt

Prints one ``<sha256>  <name>`` line per CSV, then one line for the digest of
all of them concatenated in that order: 1276 CSVs.  The matrix covers the
antenna and power sweeps over seeds, user counts, NLOS path counts, array
sizes (up to 256 elements for the antenna sweep), pinned gain ratios and
trial counts on either side of multiples of 64, plus the CLI
``effective``, ``rates`` and ``beampattern`` reports and both CLI sweeps at
their default config.  The package is imported from the ``src`` directory next
to this script, so a copy of the script run from another checkout hashes that
checkout.  Every warning is raised as an
error.  Two checkouts that produce the same CSV bytes print the same lines.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import warnings

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from multibeam_noma import cli, experiments  # noqa: E402
from multibeam_noma.channel import ScenarioConfig, UlaConfig  # noqa: E402

SEEDS = (1, 2, 7, 12345, 2 ** 32 + 5, 2 ** 64 + 3)
TRIALS = (1, 70, 130)
ARRAYS = ((128, 10), (64, 4), (32, 1))          # (M_BS, M_UE)
# The antenna sweep also runs a 256-element array, so that its block-sized
# products, the (T, K, M_BS) rows included, pass the 256 KiB at which numpy
# may reuse a temporary operand as the output.
ANTENNA_ARRAYS = ARRAYS + ((256, 10),)
ANTENNA_NLOS_PATHS = (0, 1, 3)
POWER_NLOS_PATHS = (0, 2, 30)
POWER_USERS = (1, 2, 3, 5, 9)
POWER_BUDGETS_DBM = (30.0, 34.0, 38.0, 42.0, 46.0)
RATIOS = (None, 5.0, 1.5)
# (num_users, num_nlos_paths, ratio) of the effective and rates reports
PLAN_DROPS = ((1, 0, None), (2, 0, None), (2, 0, 3.0), (2, 5, None), (3, 5, None),
              (5, 30, None))
BEAM_PATTERNS = ("", "split_lengths = 50,78\nsplit_angles_deg = 70,90\n",
                 "bs_antennas = 64\nsplit_lengths = 10,20,30\nsplit_angles_deg = 40,95,150\n"
                 "full_angle_deg = 33\nangle_points = 1000\n",
                 "bs_antennas = 7\nsplit_lengths = 7\nsplit_angles_deg = 1\n"
                 "full_angle_deg = 179\nangle_points = 3\n")


def scenario(num_users: int, num_nlos: int, arrays: tuple[int, int], seed: int):
    m_bs, m_ue = arrays
    return ScenarioConfig(num_users=num_users, num_nlos_paths=num_nlos,
                          bs_config=UlaConfig(m_bs), ue_config=UlaConfig(m_ue),
                          rng_seed=seed)


def sweep_csvs():
    for seed in SEEDS:
        for trials in TRIALS:
            for arrays in ANTENNA_ARRAYS:
                m_bs = arrays[0]
                for num_nlos in ANTENNA_NLOS_PATHS:
                    for ratio in RATIOS:
                        spec = experiments.SweepSpec(
                            "antennas", scenario(2, num_nlos, arrays, seed), trials,
                            tuple(range(1, m_bs, 3)), gain_ratio=ratio)
                        yield (f"antennas seed={seed} trials={trials} m_bs={m_bs} "
                               f"nlos={num_nlos} ratio={ratio}",
                               experiments.run_antenna_sweep(spec).csv_text())
            for arrays in ARRAYS[:2]:
                for num_users in POWER_USERS:
                    for num_nlos in POWER_NLOS_PATHS:
                        spec = experiments.SweepSpec(
                            "power", scenario(num_users, num_nlos, arrays, seed), trials,
                            POWER_BUDGETS_DBM)
                        yield (f"power seed={seed} trials={trials} m_bs={arrays[0]} "
                               f"users={num_users} nlos={num_nlos}",
                               experiments.run_power_sweep(spec).csv_text())


def cli_csv(workdir: str, command: str, config: str, *flags: str) -> str:
    cfg = os.path.join(workdir, "run.cfg")
    out = os.path.join(workdir, "out.csv")
    with open(cfg, "w") as fh:
        fh.write(config)
    code = cli.main([command, "--config", cfg, "--out", out, *flags])
    if code != 0:
        raise RuntimeError(f"{command} exited with {code} on config {config!r}")
    with open(out) as fh:
        return fh.read()


def cli_csvs(workdir: str):
    for seed in SEEDS:
        for num_users, num_nlos, ratio in PLAN_DROPS:
            config = f"num_users = {num_users}\nnum_nlos_paths = {num_nlos}\n"
            flags = ["--seed", str(seed), "--trials", "3"]
            if ratio is not None:
                flags += ["--ratio", str(ratio)]
            for command in ("effective", "rates"):
                yield (f"{command} seed={seed} users={num_users} nlos={num_nlos} "
                       f"ratio={ratio}", cli_csv(workdir, command, config, *flags))
        for command in ("sweep-antennas", "sweep-power"):
            yield (f"{command} seed={seed} default config",
                   cli_csv(workdir, command, "", "--seed", str(seed), "--trials", "3"))
    for i, config in enumerate(BEAM_PATTERNS):
        yield f"beampattern config={i}", cli_csv(workdir, "beampattern", config)


def main() -> int:
    warnings.simplefilter("error")
    total = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as workdir:
        for source in (sweep_csvs(), cli_csvs(workdir)):
            for name, text in source:
                data = text.encode()
                total.update(data)
                count += 1
                print(f"{hashlib.sha256(data).hexdigest()}  {name}")
    print(f"{total.hexdigest()}  all {count} CSVs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
