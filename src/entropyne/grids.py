"""Rectangular sweep grids and their CSV/JSON serialization.

Grid specs are (start, stop, count) with inclusive endpoints and uniform
spacing, written start:stop:count on the command line.  A `DeltaGrid`
holds only finite numbers: Delta = T S(rho||sigma) is finite at every
T != 0, so a cell that is not finite is a numeric failure (NumericalFailure,
exit 3), and an axis value that is not finite is a ValueError.

`DeltaGrid.write_csv` / `write_json` stream a grid to a text handle a block
of rows at a time, so peak memory does not grow with the grid.  A CSV block
is one `%` format of a row template (`%.17g` per cell, `%d` per marker),
and JSON formats each cell with `float.__repr__`.  Its bytes are those of
`json.dumps(..., sort_keys=True, indent=2)`, whose pure-Python encoder
(the one `indent` selects) is not used for the arrays.  `to_csv_text` /
`to_json_text` return the same bytes as a string.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, TextIO

import numpy as np

from .errors import NumericalFailure


@dataclass(frozen=True)
class GridSpec:
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        if self.count < 1:
            raise ValueError("grid count must be >= 1")
        return np.linspace(self.start, self.stop, self.count)

    def __str__(self) -> str:
        return f"{fmt(self.start)}:{fmt(self.stop)}:{self.count}"


def parse_grid_spec(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:count, got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"grid spec needs numeric start:stop:count, got {text!r}") from None
    # Also false for a non-finite start or stop (inf - inf is nan).
    if not math.isfinite(stop - start):
        raise ValueError(f"grid start, stop and their span must be finite, got {text!r}")
    if count < 1:
        raise ValueError(f"grid count must be >= 1, got {count}")
    return GridSpec(start, stop, count)


_FLOAT_FORMAT = ".17g"

# Cells formatted and written per block of rows (at least one row a block).
# A block's text is about a megabyte whatever the grid size, so peak memory
# stays flat, and the per-block overhead is negligible.
_BLOCK_CELLS = 1 << 13
_JSON_SEP = ",\n    "  # between the items of an array under a top-level key
# The name of the marker column (CSV) and the JSON "marker_name" of a grid with markers.
MARKER_NAME = "argmin"


def fmt(x: float) -> str:
    """17-significant-digit, locale-independent float formatting."""
    return format(x, _FLOAT_FORMAT)


@dataclass
class DeltaGrid:
    """Row-major grid of the distance parameter over two swept axes."""

    axis1_name: str
    axis2_name: str
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    cells: np.ndarray  # shape (len(axis1), len(axis2)), every cell finite
    metadata: dict = field(default_factory=dict)
    markers: Optional[np.ndarray] = None  # 0/1 int or bool, cells' shape

    def __post_init__(self) -> None:
        expected = (len(self.axis1_values), len(self.axis2_values))
        if self.cells.shape != expected:
            raise ValueError(f"cells shape {self.cells.shape} != {expected}")
        if self.markers is not None and self.markers.shape != expected:
            raise ValueError(f"markers shape {self.markers.shape} != {expected}")
        if not (np.isfinite(self.axis1_values).all() and np.isfinite(self.axis2_values).all()):
            raise ValueError("axis values must be finite")
        if not np.isfinite(self.cells).all():
            raise NumericalFailure("Delta overflows a double on this grid")

    def _row_blocks(self) -> list[tuple[int, int]]:
        """(lo, hi) row ranges of about _BLOCK_CELLS cells each."""
        n_rows, n_cols = self.cells.shape
        if n_cols == 0:
            return []
        step = max(1, _BLOCK_CELLS // n_cols)
        return [(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]

    def _marker_text(self, lo: int, hi: int) -> str:
        """Markers of rows lo:hi as one `0, 1, 0` string, from one str() call."""
        return str(self.markers[lo:hi].astype(int).ravel().tolist())[1:-1]

    def write_csv(self, out: TextIO) -> None:
        """Write the grid as CSV to `out`, a block of rows at a time.

        Metadata comes first as sorted `# key=value` lines, then the header
        and one `axis1,axis2,delta[,argmin]` row per cell in row-major order.
        """
        lines = [f"# {key}={self.metadata[key]}" for key in sorted(self.metadata)]
        marked = self.markers is not None
        header = f"{self.axis1_name},{self.axis2_name},delta"
        out.write("\n".join(lines + [header + (f",{MARKER_NAME}" if marked else "")]) + "\n")
        tail = ",%d\n" if marked else "\n"  # what follows a cell to the line end
        # "\0" stands for a row's axis-1 text: no formatted float holds it or "%".
        row = "".join(f"\0,{fmt(b)},%{_FLOAT_FORMAT}{tail}" for b in self.axis2_values.tolist())
        for lo, hi in self._row_blocks():
            cells = self.cells[lo:hi].ravel()
            if marked:  # cells and markers interleaved
                markers = self.markers[lo:hi].ravel()
                values = [None] * (2 * cells.size)
                values[::2], values[1::2] = cells.tolist(), markers.tolist()
            else:
                values = cells.tolist()
            out.write("".join([row.replace("\0", fmt(a))
                               for a in self.axis1_values[lo:hi].tolist()]) % tuple(values))

    def write_json(self, out: TextIO) -> None:
        """Write the grid as JSON to `out`, a block of rows at a time.

        The bytes are those of `json.dumps(d, sort_keys=True, indent=2)`
        plus a newline, where d holds the axis names and values, the cells
        in row-major order, the metadata and,
        when there are markers, `marker_name` and the markers.
        """
        blocks = self._row_blocks()
        fields = {
            "axis1_name": [json.dumps(self.axis1_name)],
            "axis1_values": _json_array([_json_floats(self.axis1_values)]),
            "axis2_name": [json.dumps(self.axis2_name)],
            "axis2_values": _json_array([_json_floats(self.axis2_values)]),
            "cells": _json_array(_json_floats(self.cells[lo:hi].ravel()) for lo, hi in blocks),
            # A nested value: its lines sit one level (two spaces) deeper.
            "metadata": [json.dumps(self.metadata, sort_keys=True, indent=2)
                         .replace("\n", "\n  ")],
        }
        if self.markers is not None:
            fields["marker_name"] = [json.dumps(MARKER_NAME)]
            fields["markers"] = _json_array(self._marker_text(lo, hi).replace(", ", _JSON_SEP)
                                            for lo, hi in blocks)
        sep = "{\n"
        for key in sorted(fields):
            out.write(f'{sep}  "{key}": ')
            for chunk in fields[key]:
                out.write(chunk)
            sep = ",\n"
        out.write("\n}\n")

    def to_csv_text(self) -> str:
        """The text `write_csv` writes."""
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()

    def to_json_text(self) -> str:
        """The text `write_json` writes."""
        buf = io.StringIO()
        self.write_json(buf)
        return buf.getvalue()


def _json_floats(values: np.ndarray) -> str:
    """JSON text of a finite 1-D array's items, as `json` writes them, joined by _JSON_SEP."""
    return _JSON_SEP.join(map(float.__repr__, values.tolist()))


def _json_array(blocks: Iterable[str]) -> Iterator[str]:
    """Text chunks of a JSON array, indented as a value of a top-level key,
    from blocks of encoded items already joined by _JSON_SEP ('' for none)."""
    empty = True
    for items in blocks:
        if items:
            yield ("[\n    " if empty else _JSON_SEP) + items
            empty = False
    yield "[]" if empty else "\n  ]"


def grid_from_json_dict(data: dict) -> DeltaGrid:
    shape = (len(data["axis1_values"]), len(data["axis2_values"]))
    markers = data.get("markers")
    return DeltaGrid(
        axis1_name=data["axis1_name"],
        axis2_name=data["axis2_name"],
        axis1_values=np.array(data["axis1_values"], dtype=float),
        axis2_values=np.array(data["axis2_values"], dtype=float),
        cells=np.array(data["cells"], dtype=float).reshape(shape),
        metadata=data.get("metadata", {}),
        markers=None if markers is None else np.array(markers, dtype=np.int8).reshape(shape),
    )
