"""Line-oriented ``key = value`` experiment configs.

Lines starting with '#' (and anything after an inline '#') are comments.
Unknown keys fail fast: a typo should never silently fall back to a
default.  Integer lists accept both comma form ("50,78") and inclusive
range form ("start:stop:step").
"""

from __future__ import annotations

import math
from typing import Callable


class ConfigError(Exception):
    """The config file is missing, malformed, or holds unknown keys."""


def _parse_int(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError as exc:
        raise ConfigError(f"expected an integer, got {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"expected a number, got {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_list(text: str, element: Callable[[str], object], from_int: Callable[[int], object]):
    """Comma form, each entry parsed by ``element``, or an inclusive integer
    range, each value converted by ``from_int``."""
    if ":" in text:
        parts = [p.strip() for p in text.split(":")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"range syntax is start:stop[:step], got {text!r}")
        start = _parse_int(parts[0])
        stop = _parse_int(parts[1])
        step = _parse_int(parts[2]) if len(parts) == 3 else 1
        if step < 1:
            raise ConfigError("range step must be positive")
        return tuple(from_int(v) for v in range(start, stop + 1, step))
    return tuple(element(p.strip()) for p in text.split(",") if p.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    return _parse_list(text, _parse_int, int)


def _parse_float_list(text: str) -> tuple[float, ...]:
    return _parse_list(text, _parse_float, float)


KEY_PARSERS: dict[str, Callable[[str], object]] = {
    "num_users": _parse_int,
    "num_nlos_paths": _parse_int,
    "cell_radius_m": _parse_float,
    "bs_antennas": _parse_int,
    "ue_antennas": _parse_int,
    "pmax_dbm": _parse_float,
    "noise_dbm": _parse_float,
    "max_group_size": _parse_int,
    "seed": _parse_int,
    "trials": _parse_int,
    "ratio": _parse_float,
    "m1_values": _parse_int_list,
    "pmax_dbm_values": _parse_float_list,
    "antenna_alloc": _parse_int_list,
    "angle_points": _parse_int,
    "split_lengths": _parse_int_list,
    "split_angles_deg": _parse_float_list,
    "full_angle_deg": _parse_float,
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEY_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        try:
            values[key] = KEY_PARSERS[key](value)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from None
    return values


def load_config(path: str) -> dict:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)
