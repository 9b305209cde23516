"""CLI: subcommands, exit codes, and CSV outputs driven in-process."""

import numpy as np
import pytest

from multibeam_noma.cli import COMMANDS, build_parser, main
from multibeam_noma.config import KEY_PARSERS


def read_csv(path):
    """(meta dict, header tuple, rows as float arrays per column name)."""
    meta, header, data = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = tuple(line.split(","))
        else:
            data.append([float(c) for c in line.split(",")])
    columns = {name: np.array([row[i] for row in data])
               for i, name in enumerate(header)}
    return meta, header, columns


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()


def test_beampattern_writes_csv(tmp_path):
    out = tmp_path / "pattern.csv"
    cfg = tmp_path / "p.cfg"
    # the scenario keys and --seed of a shared config are accepted and unused
    cfg.write_text("angle_points = 64\nnum_users = 5\nantenna_alloc = 100,7,7,7,7\n")
    assert main(["beampattern", "--config", str(cfg), "--seed", "4", "--out", str(out)]) == 0
    meta, header, cols = read_csv(out)
    assert header == ("angle_deg", "split_mag_db", "full_mag_db")
    assert len(cols["angle_deg"]) == 64
    assert meta["experiment"] == "beam_pattern"


def test_effective_rows_and_closed_form_agreement(tmp_path):
    out = tmp_path / "eff.csv"
    cfg = tmp_path / "e.cfg"
    cfg.write_text("bs_antennas = 32\nue_antennas = 4\nnum_nlos_paths = 2\n"
                   "antenna_alloc = 20, 12\n")
    assert main(["effective", "--config", str(cfg), "--trials", "2",
                 "--out", str(out)]) == 0
    meta, header, cols = read_csv(out)
    assert header == ("trial", "user", "chain", "direct_re", "direct_im",
                      "closed_re", "closed_im", "asymptotic_re", "asymptotic_im")
    assert len(cols["trial"]) == 2 * 2  # trials x users, one chain
    direct = cols["direct_re"] + 1j * cols["direct_im"]
    closed = cols["closed_re"] + 1j * cols["closed_im"]
    np.testing.assert_allclose(closed, direct, rtol=1e-9)
    assert meta["antenna_alloc"] == "20:12"


def test_rates_output_is_consistent(tmp_path):
    out = tmp_path / "rates.csv"
    cfg = tmp_path / "r.cfg"
    cfg.write_text("bs_antennas = 64\nue_antennas = 4\nnum_nlos_paths = 1\n")
    assert main(["rates", "--config", str(cfg), "--trials", "3",
                 "--out", str(out)]) == 0
    _, header, cols = read_csv(out)
    assert header == ("trial", "user", "rate", "system_sum", "sic_feasible")
    for t in range(3):
        mask = cols["trial"] == t
        assert mask.sum() == 2
        total = cols["rate"][mask].sum()
        # columns carry 9 significant digits
        assert cols["system_sum"][mask][0] == pytest.approx(total, rel=1e-7)
    assert set(np.unique(cols["sic_feasible"])) <= {0.0, 1.0}


def test_sweep_antennas_output_identical_across_workers(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("num_nlos_paths = 0\nm1_values = 30:60:30\ntrials = 4\n")
    one = tmp_path / "w1.csv"
    two = tmp_path / "w2.csv"
    assert main(["sweep-antennas", "--config", str(cfg), "--seed", "9",
                 "--out", str(one), "--workers", "1"]) == 0
    assert main(["sweep-antennas", "--config", str(cfg), "--seed", "9",
                 "--out", str(two), "--workers", "2"]) == 0
    assert one.read_bytes() == two.read_bytes()
    meta, _, cols = read_csv(one)
    assert meta["seed"] == "9" and meta["trials"] == "4"
    np.testing.assert_array_equal(cols["m1"], [30.0, 60.0])


def test_sweep_power_runs_with_config(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("num_users = 3\nnum_nlos_paths = 0\n"
                   "pmax_dbm_values = 38:42:4\ntrials = 2\nantenna_alloc = 40,7,7\n")
    out = tmp_path / "power.csv"
    assert main(["sweep-power", "--config", str(cfg), "--out", str(out)]) == 0
    meta, _, cols = read_csv(out)
    np.testing.assert_array_equal(cols["pmax_dbm"], [38.0, 42.0])
    assert meta["antenna_alloc"] == "40:7:7"


def test_sweep_power_rejects_gain_ratio(tmp_path, capsys):
    code = main(["sweep-power", "--trials", "1", "--ratio", "5.0",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == "config error: sweep-power does not read 'ratio'\n"


def test_commands_reject_fields_they_do_not_read(tmp_path, capsys):
    cases = [
        ("sweep-antennas", "antenna_alloc = 1, 1\nmax_group_size = 7", []),
        ("sweep-antennas", "antenna_alloc = 60, 60", []),
        ("sweep-antennas", "max_group_size = 7", []),
        ("sweep-power", "ratio = 3", []),
        ("beampattern", "", ["--ratio", "3", "--trials", "5"]),
        ("beampattern", "", ["--trials", "5"]),
        ("beampattern", "ratio = 3", []),
        ("beampattern", "trials = 2", []),
        ("sweep-power", "m1_values = 30", []),
        ("rates", "split_lengths = 5", []),
        ("effective", "pmax_dbm_values = 30", []),
        ("sweep-antennas", "pmax_dbm_values = 30", []),
    ]
    cfg = tmp_path / "extra.cfg"
    out = tmp_path / "x.csv"
    for command, text, flags in cases:
        cfg.write_text(text + "\n")
        assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == 2, \
            (command, text, flags)
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err


def test_every_command_rejects_every_key_it_does_not_read(tmp_path, capsys):
    # every config key is read by some command, and only config keys are
    assert frozenset().union(*(c.keys for c in COMMANDS.values())) == KEY_PARSERS.keys()
    cfg = tmp_path / "extra.cfg"
    out = tmp_path / "x.csv"
    for name, command in COMMANDS.items():
        for key in sorted(KEY_PARSERS.keys() - command.keys):
            cfg.write_text(f"{key} = 3\n")   # parses as every key's type
            assert main([name, "--config", str(cfg), "--out", str(out)]) == 2, (name, key)
            assert capsys.readouterr().err == f"config error: {name} does not read {key!r}\n"
            assert not out.exists()


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bandwidth = 5\n")
    assert main(["rates", "--config", str(cfg),
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path):
    assert main(["rates", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "x.csv")]) == 2


def test_bad_seed_and_trials_exit_2(tmp_path, capsys):
    assert main(["rates", "--seed", "-1", "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["rates", "--trials", "0", "--out", str(tmp_path / "x.csv")]) == 2
    for command, workers in (("sweep-antennas", "0"), ("sweep-power", "-3")):
        capsys.readouterr()
        assert main([command, "--workers", workers, "--trials", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "config error: workers must be positive\n"
    assert not (tmp_path / "x.csv").exists()


def test_infeasible_antenna_split_exits_3(tmp_path, capsys):
    cases = [
        ("sweep-antennas", "m1_values = 128\ntrials = 1"),
        ("beampattern", "full_angle_deg = 200"),
        ("beampattern", "split_angles_deg = 0, 90"),
    ]
    cfg = tmp_path / "inf.cfg"
    out = tmp_path / "x.csv"
    for command, text in cases:
        cfg.write_text(text + "\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3, text
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("infeasible: ") and err.count("\n") == 1, err


def test_oversized_alloc_exits_3(tmp_path):
    cfg = tmp_path / "inf2.cfg"
    for command in ("effective", "rates"):
        for alloc in ("128, 7", "60, 7, 7", ","):
            cfg.write_text(f"antenna_alloc = {alloc}\n")
            assert main([command, "--config", str(cfg), "--trials", "1",
                         "--out", str(tmp_path / "x.csv")]) == 3, (command, alloc)
    assert not (tmp_path / "x.csv").exists()


def test_bad_scenario_value_exits_2(tmp_path, capsys):
    cases = [
        ("rates", "cell_radius_m = 1.0", []),
        ("rates", "pmax_dbm = nan", []),
        ("sweep-antennas", "pmax_dbm = nan", []),
        ("sweep-power", "noise_dbm = inf", []),
        ("rates", "cell_radius_m = inf", []),
        ("sweep-antennas", "", ["--ratio", "nan"]),
        ("rates", "pmax_dbm = 4000", []),
        ("sweep-power", "noise_dbm = 4000", []),
        ("rates", "cell_radius_m = 1e300", []),
        ("sweep-power", "pmax_dbm_values = 30, 4000", []),
        ("sweep-power", "pmax_dbm_values = -4000", []),
        ("sweep-power", "noise_dbm = -3200", []),
        ("sweep-antennas", "noise_dbm = -3200", []),
        ("rates", "noise_dbm = -3200", []),
        ("sweep-antennas", "pmax_dbm = -2970\nnoise_dbm = -3170", []),
        ("sweep-power", "pmax_dbm_values = 30, 3000", []),
        ("sweep-power", "seed = -1", []),
        ("sweep-antennas", "seed = -1", []),
        ("rates", "seed = -1", []),
    ]
    cfg = tmp_path / "bad2.cfg"
    out = tmp_path / "x.csv"
    for command, text, flags in cases:
        cfg.write_text(text + "\n")
        assert main([command, "--config", str(cfg), "--trials", "1",
                     "--out", str(out), *flags]) == 2, (command, text, flags)
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
