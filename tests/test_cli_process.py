"""The CLI as a process: ``python -m multibeam_noma.cli`` run with the package
from ``src``, checked on its exit code, its stderr and the CSV it leaves."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "multibeam_noma.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_beampattern_process_writes_csv(tmp_path):
    (tmp_path / "p.cfg").write_text("angle_points = 64\n")
    proc = run_cli(tmp_path, "beampattern", "--config", "p.cfg", "--out", "pattern.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    lines = (tmp_path / "pattern.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "angle_deg,split_mag_db,full_mag_db"
    assert len(body) == 1 + 64


@pytest.mark.parametrize("args,code,message", [
    (("sweep-power", "--trials", "0"), 2, "config error: trials must be positive"),
    (("beampattern", "--ratio", "3", "--trials", "5"), 2, "config error: "),
    (("effective", "--config", "alloc.cfg", "--trials", "1"), 3, "infeasible: "),
    (("sweep-power", "--config", "alloc.cfg", "--trials", "1"), 3, "infeasible: "),
    # past 2**32 trials the run stops at the config check, before any block
    # bounds are built
    (("sweep-antennas", "--trials", "99999999999999999999"), 2,
     "config error: trials must be at most 4294967296"),
    # an angle grid that no address space holds: numpy's allocation fails at once
    (("beampattern", "--config", "huge.cfg"), 3, "infeasible: out of memory: "),
    # counts past numpy's index range: no array of that size can even be described
    (("beampattern", "--config", "grid.cfg"), 2, "config error: angle_points = "),
    (("effective", "--config", "paths.cfg"), 2, "config error: num_nlos_paths = "),
    # a non-integer entry of an integer list
    (("sweep-antennas", "--config", "m1.cfg"), 2,
     "config error: m1.cfg:1: expected an integer, got '30.5'"),
    (("sweep-power", "--config", "split.cfg"), 2,
     "config error: split.cfg:1: expected an integer, got 'x'"),
    (("beampattern", "--config", "lengths.cfg"), 2,
     "config error: lengths.cfg:1: expected an integer, got '0x1g'"),
    # a gain ratio that leaves the weaker user's LOS power |g|^2 at 0 in float64
    (("effective", "--config", "far.cfg", "--ratio", "1e300"), 3, "infeasible: gain ratio "),
    (("rates", "--config", "far.cfg", "--ratio", "1e300"), 3, "infeasible: gain ratio "),
    (("sweep-antennas", "--config", "far.cfg", "--ratio", "1e300", "--trials", "3"), 3,
     "infeasible: gain ratio "),
    (("sweep-antennas", "--ratio", "1e160", "--trials", "3"), 3, "infeasible: gain ratio "),
    # an empty array is a config error for every command, checked before the split
    (("beampattern", "--config", "empty.cfg"), 2,
     "config error: array needs at least one element, got 0"),
])
def test_bad_input_ends_with_one_stderr_line_and_no_csv(tmp_path, args, code, message):
    (tmp_path / "alloc.cfg").write_text("num_users = 2\nantenna_alloc = 128, 7\n")
    (tmp_path / "huge.cfg").write_text(f"angle_points = {10 ** 18}\n")
    (tmp_path / "grid.cfg").write_text(f"angle_points = {10 ** 19}\n")
    (tmp_path / "paths.cfg").write_text(f"num_nlos_paths = {10 ** 18}\n")
    (tmp_path / "m1.cfg").write_text("m1_values = 30.5,40\n")
    (tmp_path / "split.cfg").write_text("antenna_alloc = 100,7,7,7,x\n")
    (tmp_path / "lengths.cfg").write_text("split_lengths = 0x10,0x1g\n")
    (tmp_path / "far.cfg").write_text("cell_radius_m = 1e100\n")
    (tmp_path / "empty.cfg").write_text("bs_antennas = 0\n")
    proc = run_cli(tmp_path, *args, "--out", "x.csv")
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(message) and proc.stderr.count("\n") == 1, proc.stderr
    assert not (tmp_path / "x.csv").exists()
