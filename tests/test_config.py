"""Config parsing: key = value lines, lists, ranges, and strict errors."""

import pytest

from multibeam_noma.config import ConfigError, load_config, parse_config_text


def test_parses_scalars_and_lists():
    cfg = parse_config_text(
        """
        num_users = 2
        bs_antennas = 0x80
        cell_radius_m = 250.5
        pmax_dbm = -3.0
        m1_values = 50, 78, 100
        pmax_dbm_values = 30.0, 32.5
        antenna_alloc = 100,7,7
        """)
    assert cfg["num_users"] == 2
    assert cfg["bs_antennas"] == 128
    assert cfg["cell_radius_m"] == 250.5
    assert cfg["pmax_dbm"] == -3.0
    assert cfg["m1_values"] == (50, 78, 100)
    assert cfg["pmax_dbm_values"] == (30.0, 32.5)
    assert cfg["antenna_alloc"] == (100, 7, 7)


def test_inclusive_ranges():
    assert parse_config_text("m1_values = 2:8:2")["m1_values"] == (2, 4, 6, 8)
    assert parse_config_text("m1_values = 3:5")["m1_values"] == (3, 4, 5)
    floats = parse_config_text("pmax_dbm_values = 30:34:2")["pmax_dbm_values"]
    assert floats == (30.0, 32.0, 34.0)
    assert all(isinstance(v, float) for v in floats)


def test_range_errors():
    with pytest.raises(ConfigError, match="step must be positive"):
        parse_config_text("m1_values = 2:8:0")
    with pytest.raises(ConfigError, match="start:stop"):
        parse_config_text("m1_values = 1:2:3:4")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text("m1_values = a:4")


def test_integer_lists_parse_each_entry_as_an_integer_key_does():
    cfg = parse_config_text("split_lengths = 0x10, 20\nantenna_alloc = 0o7,0b11,5")
    assert cfg["split_lengths"] == (16, 20)
    assert cfg["antenna_alloc"] == (7, 3, 5)
    for line in ("m1_values = 30.5,40", "antenna_alloc = 100,7,7,7,x",
                 "split_lengths = 1e2", "m1_values = 2, 3.0"):
        with pytest.raises(ConfigError, match=":1: expected an integer, got '"):
            parse_config_text(line)


def test_comments_and_blank_lines():
    cfg = parse_config_text(
        """
        # a full-line comment
        trials = 10  # an inline comment
        """)
    assert cfg == {"trials": 10}
    assert parse_config_text("") == {}


def test_unknown_key_reports_source_and_line():
    with pytest.raises(ConfigError, match=r"sim\.cfg:2: unknown key 'bandwith'"):
        parse_config_text("trials = 1\nbandwith = 5", source="sim.cfg")


def test_missing_equals_and_empty_value():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just a line")
    with pytest.raises(ConfigError, match="empty value"):
        parse_config_text("trials =")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="<config>:3: expected an integer"):
        parse_config_text("\n\ntrials = soon")
    with pytest.raises(ConfigError, match=":1: expected a number"):
        parse_config_text("pmax_dbm = loud")


def test_non_finite_numbers_are_rejected():
    for text in ("pmax_dbm = nan", "noise_dbm = inf", "cell_radius_m = -inf",
                 "pmax_dbm_values = 30, nan", "ratio = NaN"):
        with pytest.raises(ConfigError, match=":1: expected a finite number"):
            parse_config_text(text)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 42\nratio = 5.0\n")
    assert load_config(str(path)) == {"seed": 42, "ratio": 5.0}


def test_load_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.cfg")
