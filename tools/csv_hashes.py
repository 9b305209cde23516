"""SHA-256 digest of every CSV in a fixed matrix of runs, for byte-identity checks.

    python3 tools/csv_hashes.py > hashes.txt

Prints one ``<sha256>  <name>`` line per CSV, then one line for the digest of
all of them concatenated in that order: 2254 CSVs.  After that section come
one ``<sha256>  bits <name>`` line per sweep, the digest of its rows as
full-precision float64 values, and one line for all 2142 sweeps.  The CSV
cells carry 9 significant digits, which hide most last-bit moves: equal CSV
lines with unequal ``bits`` lines mean the bytes held and the bits did not.

The matrix covers the antenna and power sweeps over seeds, user counts, NLOS
path counts, array sizes (an odd one, 33 elements, in both sweeps, and up to
256 elements for the antenna sweep, which also runs every split at 30 NLOS
paths and every split of 2- and 3-element arrays), pinned gain ratios, explicit power-sweep antenna splits, trial
counts on either side of multiples of 64, antenna sweeps that span
several blocks (LOS-only ones among them, whose blocks are the largest and
whose closed form reads no steering table) and antenna sweeps over several
blocks on either side of the closed form's choice between reading its
steering tables at the split columns and building the full grid, plus the
CLI ``effective``, ``rates`` and ``beampattern`` reports and both CLI sweeps
at their default config.  The package is imported from the ``src`` directory next to this
script, so a copy of the script run from another checkout hashes that
checkout.  Every warning is raised as an error.
Two checkouts that produce the same CSV bytes print the same CSV lines, and
the same ``bits`` lines if their sweeps hold the same bits.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tempfile
import warnings

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from multibeam_noma import cli, experiments  # noqa: E402
from multibeam_noma.channel import ScenarioConfig, UlaConfig  # noqa: E402

SEEDS = (1, 2, 7, 12345, 2 ** 32 + 5, 2 ** 64 + 3)
TRIALS = (1, 70, 130)
ARRAYS = ((128, 10), (64, 4), (32, 1))          # (M_BS, M_UE)
# The antenna sweep also runs a 256-element array, so that its block-sized
# products, the (T, K, M_BS) rows included, pass the 256 KiB at which numpy
# may reuse a temporary operand as the output.
# Both sweeps also run an odd array, whose steering tables have a centre
# column that the mirror keeps and, at 33 elements, a last block of the
# two-level table cut short (17 left-half columns in blocks of 4).
ODD_ARRAYS = ((33, 3),)
ANTENNA_ARRAYS = ARRAYS + ((256, 10),) + ODD_ARRAYS
ANTENNA_NLOS_PATHS = (0, 1, 3)
# Antenna sweeps over every split of the smallest arrays, whose half-width
# steering tables shrink to one coarse and one fine phase (2 elements) and to
# an odd centre column (3 elements), as the closed form of a sweep with NLOS
# paths reads them at the LOS departures' half cosines (its segment phases)
# and at the NLOS paths' cosines; LOS-only sweeps read no table.
TINY_ARRAYS = ((2, 1), (3, 1))
# Antenna sweeps over every split, m1 = 1 .. M_BS - 1, with 30 NLOS paths: the
# closed form then reads every column of its steering grid, for many paths.
FULL_SWEEP_ARRAYS = ((128, 10), (256, 10))
FULL_SWEEP_NLOS_PATHS = 30
# Antenna sweeps that span 2 to 6 blocks of experiments._antenna_block: 600
# trials with NLOS paths (326 trials a block at 128 elements, 43 splits and
# 1 path, down to 105 at 256 elements and 3 paths) and 4000 with none, whose
# blocks are larger (2286 trials at 128 elements, 1156 at 256).  The 70 and
# 130 trials above are one block on up to 128 elements; at 256 elements and
# 3 NLOS paths 130 trials take two.
BLOCK_SPAN_SEEDS = (1, 12345)
BLOCK_SPAN_TRIALS = 600
BLOCK_SPAN_LOS_TRIALS = 4000
BLOCK_SPAN_ARRAYS = ((128, 10), (256, 10))
# Antenna sweeps on 128 elements, of 600 trials over 4 to 10 blocks with 7
# or 15 NLOS paths and of 4000 trials over 2 or 3 blocks (3171 trials a
# block for the README splits, 1536 and 1512 for the others) with none, on
# either side of _kernels._reads_split_columns: with NLOS paths the closed
# form reads their steering tables at the split columns for the README
# sweep.cfg splits (m1 = 30, 32, .., 90) and for the 64 splits m1 = 1 .. 64,
# and builds the full grid for the 65 splits m1 = 1 .. 65.
SPLIT_SETS = (("README splits", tuple(range(30, 91, 2))),
              ("64 splits", tuple(range(1, 65))), ("65 splits", tuple(range(1, 66))))
SPLIT_SET_NLOS_PATHS = (0, 7, 15)
POWER_NLOS_PATHS = (0, 2, 30)
POWER_USERS = (1, 2, 3, 5, 9)
# (arrays, user counts) of the power sweeps at their default split, which
# fits at most 5 users on 33 elements
POWER_ARRAYS = (tuple((arrays, POWER_USERS) for arrays in ARRAYS[:2])
                + tuple((arrays, POWER_USERS[:4]) for arrays in ODD_ARRAYS))
POWER_BUDGETS_DBM = (30.0, 34.0, 38.0, 42.0, 46.0)
RATIOS = (None, 5.0, 1.5)
# (arrays, num_users, num_nlos_paths, antenna_alloc) of power sweeps with an
# explicit split that leaves antennas unused.  On 32 elements the 3 dB beam
# is 3.2 deg wide, so the single-beam baseline forms clusters of 2 and more
# (up to 5 members at 12 users).  Clusters of more than 8 members, past
# numpy's 8-element pairwise sum block, practically never form when every
# user holds an antenna; tests/test_rates.py places users to form them.
POWER_ALLOCS = (((128, 10), 5, 30, (60, 20, 10, 5, 3)),
                ((32, 1), 9, 2, (8, 4, 3, 3, 2, 2, 2, 2, 1)),
                ((32, 1), 12, 2, (8, 4, 3, 3, 2, 2, 2, 2, 1, 1, 1, 1)))
# (num_users, num_nlos_paths, ratio, antenna_alloc) of the effective and rates
# reports.  At 9 users and 30 NLOS paths a chain's closed form sums 279 terms,
# where a pairwise sum rounds differently from a sequential one; the explicit
# split leaves 30 antennas idle.
PLAN_DROPS = ((1, 0, None, None), (2, 0, None, None), (2, 0, 3.0, None),
              (2, 5, None, None), (3, 5, None, None), (5, 30, None, None),
              (9, 30, None, None), (5, 30, None, "60,20,10,5,3"))
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


def block_span_trials(num_nlos: int) -> int:
    return BLOCK_SPAN_TRIALS if num_nlos else BLOCK_SPAN_LOS_TRIALS


def sweep_tables():
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
                               experiments.run_antenna_sweep(spec))
            for arrays in TINY_ARRAYS:
                m_bs = arrays[0]
                for num_nlos in ANTENNA_NLOS_PATHS:
                    for ratio in RATIOS:
                        spec = experiments.SweepSpec(
                            "antennas", scenario(2, num_nlos, arrays, seed), trials,
                            tuple(range(1, m_bs)), gain_ratio=ratio)
                        yield (f"antennas seed={seed} trials={trials} m_bs={m_bs} "
                               f"nlos={num_nlos} ratio={ratio} every split",
                               experiments.run_antenna_sweep(spec))
            for arrays in FULL_SWEEP_ARRAYS:
                m_bs = arrays[0]
                for ratio in RATIOS:
                    spec = experiments.SweepSpec(
                        "antennas", scenario(2, FULL_SWEEP_NLOS_PATHS, arrays, seed), trials,
                        tuple(range(1, m_bs)), gain_ratio=ratio)
                    yield (f"antennas seed={seed} trials={trials} m_bs={m_bs} "
                           f"nlos={FULL_SWEEP_NLOS_PATHS} ratio={ratio} every split",
                           experiments.run_antenna_sweep(spec))
            for arrays, user_counts in POWER_ARRAYS:
                for num_users in user_counts:
                    for num_nlos in POWER_NLOS_PATHS:
                        spec = experiments.SweepSpec(
                            "power", scenario(num_users, num_nlos, arrays, seed), trials,
                            POWER_BUDGETS_DBM)
                        yield (f"power seed={seed} trials={trials} m_bs={arrays[0]} "
                               f"users={num_users} nlos={num_nlos}",
                               experiments.run_power_sweep(spec))
            for arrays, num_users, num_nlos, alloc in POWER_ALLOCS:
                spec = experiments.SweepSpec(
                    "power", scenario(num_users, num_nlos, arrays, seed), trials,
                    POWER_BUDGETS_DBM, antenna_alloc=alloc)
                yield (f"power seed={seed} trials={trials} m_bs={arrays[0]} "
                       f"users={num_users} nlos={num_nlos} alloc={alloc}",
                       experiments.run_power_sweep(spec))
    for seed in BLOCK_SPAN_SEEDS:
        for arrays in BLOCK_SPAN_ARRAYS:
            m_bs = arrays[0]
            for num_nlos in ANTENNA_NLOS_PATHS:
                trials = block_span_trials(num_nlos)
                for ratio in RATIOS:
                    spec = experiments.SweepSpec(
                        "antennas", scenario(2, num_nlos, arrays, seed), trials,
                        tuple(range(1, m_bs, 3)), gain_ratio=ratio)
                    yield (f"antennas seed={seed} trials={trials} m_bs={m_bs} "
                           f"nlos={num_nlos} ratio={ratio}",
                           experiments.run_antenna_sweep(spec))
        for label, splits in SPLIT_SETS:
            for num_nlos in SPLIT_SET_NLOS_PATHS:
                trials = block_span_trials(num_nlos)
                for ratio in RATIOS:
                    spec = experiments.SweepSpec(
                        "antennas", scenario(2, num_nlos, (128, 10), seed), trials,
                        splits, gain_ratio=ratio)
                    yield (f"antennas seed={seed} trials={trials} m_bs=128 "
                           f"nlos={num_nlos} ratio={ratio} {label}",
                           experiments.run_antenna_sweep(spec))


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
        for num_users, num_nlos, ratio, alloc in PLAN_DROPS:
            config = f"num_users = {num_users}\nnum_nlos_paths = {num_nlos}\n"
            name = f"users={num_users} nlos={num_nlos} ratio={ratio}"
            if alloc is not None:
                config += f"antenna_alloc = {alloc}\n"
                name += f" alloc={alloc}"
            flags = ["--seed", str(seed), "--trials", "3"]
            if ratio is not None:
                flags += ["--ratio", str(ratio)]
            for command in ("effective", "rates"):
                yield (f"{command} seed={seed} {name}",
                       cli_csv(workdir, command, config, *flags))
        for command in ("sweep-antennas", "sweep-power"):
            yield (f"{command} seed={seed} default config",
                   cli_csv(workdir, command, "", "--seed", str(seed), "--trials", "3"))
    for i, config in enumerate(BEAM_PATTERNS):
        yield f"beampattern config={i}", cli_csv(workdir, "beampattern", config)


def main() -> int:
    warnings.simplefilter("error")
    total = hashlib.sha256()
    count = 0

    def emit(name: str, text: str) -> None:
        nonlocal count
        data = text.encode()
        total.update(data)
        count += 1
        print(f"{hashlib.sha256(data).hexdigest()}  {name}")

    sweep_bits = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, table in sweep_tables():
            sweep_bits.append((name, np.asarray(table.rows, dtype=np.float64).tobytes()))
            emit(name, table.csv_text())
        for name, text in cli_csvs(workdir):
            emit(name, text)
    print(f"{total.hexdigest()}  all {count} CSVs")
    bits_total = hashlib.sha256()
    for name, data in sweep_bits:
        bits_total.update(data)
        print(f"{hashlib.sha256(data).hexdigest()}  bits {name}")
    print(f"{bits_total.hexdigest()}  bits of all {len(sweep_bits)} sweeps")
    return 0


if __name__ == "__main__":
    sys.exit(main())
