"""Rectangular sweep grids and their CSV/JSON serialization.

Grid specs are (start, stop, count) with inclusive endpoints and uniform
spacing, written start:stop:count on the command line.  Divergent cells are
held as NaN internally and serialized as an empty CSV field / JSON null,
never as NaN text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


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


def fmt(x: float) -> str:
    """17-significant-digit, locale-independent float formatting."""
    return f"{x:.17g}"


@dataclass
class DeltaGrid:
    """Row-major grid of the distance parameter over two swept axes."""

    axis1_name: str
    axis2_name: str
    axis1_values: np.ndarray
    axis2_values: np.ndarray
    cells: np.ndarray  # shape (len(axis1), len(axis2)); NaN = flagged cell
    metadata: dict = field(default_factory=dict)
    marker_name: Optional[str] = None
    markers: Optional[np.ndarray] = None  # same shape as cells, int

    def __post_init__(self) -> None:
        expected = (len(self.axis1_values), len(self.axis2_values))
        if self.cells.shape != expected:
            raise ValueError(f"cells shape {self.cells.shape} != {expected}")

    def to_csv_text(self, value_name: str = "delta") -> str:
        lines = []
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        header = f"{self.axis1_name},{self.axis2_name},{value_name}"
        if self.marker_name is not None:
            header += f",{self.marker_name}"
        lines.append(header)
        for i, a in enumerate(self.axis1_values):
            for j, b in enumerate(self.axis2_values):
                v = self.cells[i, j]
                cell = "" if np.isnan(v) else fmt(v)
                row = f"{fmt(a)},{fmt(b)},{cell}"
                if self.markers is not None:
                    row += f",{int(self.markers[i, j])}"
                lines.append(row)
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        cells = [None if np.isnan(v) else v for v in self.cells.ravel()]
        out = {
            "axis1_name": self.axis1_name,
            "axis2_name": self.axis2_name,
            "axis1_values": list(self.axis1_values),
            "axis2_values": list(self.axis2_values),
            "cells": cells,
            "metadata": self.metadata,
        }
        if self.markers is not None:
            out["marker_name"] = self.marker_name
            out["markers"] = [int(m) for m in self.markers.ravel()]
        return out

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def grid_from_json_dict(data: dict) -> DeltaGrid:
    n1 = len(data["axis1_values"])
    n2 = len(data["axis2_values"])
    cells = np.array(
        [np.nan if v is None else float(v) for v in data["cells"]]
    ).reshape(n1, n2)
    markers = None
    if "markers" in data:
        markers = np.array(data["markers"], dtype=int).reshape(n1, n2)
    return DeltaGrid(
        axis1_name=data["axis1_name"],
        axis2_name=data["axis2_name"],
        axis1_values=np.array(data["axis1_values"], dtype=float),
        axis2_values=np.array(data["axis2_values"], dtype=float),
        cells=cells,
        metadata=data.get("metadata", {}),
        marker_name=data.get("marker_name"),
        markers=markers,
    )
