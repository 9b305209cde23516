"""Reference-cell checks of the CSVs a workload writes.

A CSV is '# key = value' metadata lines, a header row, then data rows.
Against a stored reference, every reference metadata line must be present
with the same value, the row count must match, and every reference column,
found by name, must match cell for cell as an exact string.  Columns the
reference does not have are ignored, so an added column passes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Csv:
    meta: dict[str, str]
    header: tuple[str, ...]
    rows: list[list[str]]

    def column(self, name: str) -> list[str]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]


def parse(text: str) -> Csv:
    meta: dict[str, str] = {}
    header: tuple[str, ...] = ()
    rows: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        elif not header:
            header = tuple(line.split(","))
        else:
            cells = line.split(",")
            if len(cells) != len(header):
                raise ValueError(f"row has {len(cells)} cells, header has {len(header)}")
            rows.append(cells)
    return Csv(meta, header, rows)


def mismatches(reference: Csv, actual: Csv, limit: int = 5) -> list[str]:
    """Differences from the reference, at most ``limit`` of them; empty when it matches."""
    problems = []
    for key, value in reference.meta.items():
        if actual.meta.get(key) != value:
            problems.append(f"metadata {key}: expected {value!r}, got {actual.meta.get(key)!r}")
    missing = [name for name in reference.header if name not in actual.header]
    if missing:
        problems.append(f"missing columns {missing}")
    if len(actual.rows) != len(reference.rows):
        problems.append(f"expected {len(reference.rows)} rows, got {len(actual.rows)}")
    if missing or len(actual.rows) != len(reference.rows):
        return problems[:limit]
    for name in reference.header:
        for r, (want, got) in enumerate(zip(reference.column(name), actual.column(name))):
            if want != got:
                problems.append(f"row {r} column {name}: expected {want}, got {got}")
                if len(problems) >= limit:
                    return problems
    return problems


def _finite(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def finite_columns(reference: Csv) -> tuple[str, ...]:
    """Reference columns whose every cell is a finite number."""
    return tuple(name for name in reference.header
                 if all(_finite(c) for c in reference.column(name)))


def nonfinite_cells(actual: Csv, columns: tuple[str, ...]) -> list[str]:
    """Cells of ``columns`` that are missing, NaN or infinite in ``actual``."""
    bad = []
    for name in columns:
        if name not in actual.header:
            bad.append(f"missing column {name}")
            continue
        bad.extend(f"column {name}: {c}" for c in actual.column(name) if not _finite(c))
    return bad


class References:
    """The stored reference CSVs of one workload, and the checks made against them."""

    def __init__(self, golden_dir: str, names: tuple[str, ...]) -> None:
        self.refs = {}
        for name in names:
            with open(os.path.join(golden_dir, name)) as fh:
                self.refs[name] = parse(fh.read())
        self.finite = {name: finite_columns(ref) for name, ref in self.refs.items()}

    def exact(self, texts: dict[str, str]) -> list[str]:
        """Outputs at the reference seed: every reference cell must match exactly."""
        return [f"{name}: {p}" for name, ref in self.refs.items()
                for p in mismatches(ref, parse(texts[name]))]

    def seeded(self, texts: dict[str, str]) -> list[str]:
        """Outputs at any seed: the reference's rows, and no NaN or inf cell in a
        column that is finite in the reference."""
        problems = []
        for name, ref in self.refs.items():
            actual = parse(texts[name])
            if len(actual.rows) != len(ref.rows):
                problems.append(f"{name}: {len(actual.rows)} rows, expected {len(ref.rows)}")
            problems += [f"{name}: {p}" for p in nonfinite_cells(actual, self.finite[name])]
        return problems
