"""Coupled road-traffic / distribution-feeder simulation with safe RL
charging-station recommendation agents."""

import math
from pathlib import Path

__version__ = "0.1.0"

DATA_DIR = Path(__file__).parent / "data"


def _cell(kind, name, text):
    value = kind(text.strip())
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {text!r}")
    return value


def read_table(path, header, kinds):
    """Rows (tuples) of the CSV fixture table ``path``, and the numbers
    its ``# name=value`` comments declare ({name: value}).

    Blank lines, other ``#`` comments and lines equal to ``header`` are
    skipped. A row has one cell per kind in ``kinds`` (``int``, ``float``
    or ``str``); floats must be finite, and a column named ``id`` must not
    repeat a value. An error names the ``file:line``."""
    names = header.split(",")
    rows, declared, ids = [], {}, set()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        try:
            if line.startswith("#"):
                name, eq, text = line[1:].partition("=")
                if eq and name.strip().isidentifier():
                    declared[name.strip()] = _cell(float, name.strip(), text)
            elif line and line != header:
                cells = line.split(",")
                if len(cells) != len(kinds):
                    raise ValueError(f"expected {len(kinds)} columns")
                row = tuple(map(_cell, kinds, names, cells))
                if names[0] == "id" and row[0] in ids:
                    raise ValueError(f"duplicate id {row[0]}")
                ids.add(row[0])
                rows.append(row)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return rows, declared
