"""Golden SHA-256 hashes of the grid subcommands', `tsallis` and `verify --quick` output bytes.

The hashes were recorded from the CLI before grid output was streamed; a
change to how grids are serialized must leave every one of them unchanged.
Each case is written both to stdout and to --output FILE, and
`to_csv_text()` / `to_json_text()` must give the same bytes as the CLI.
A case whose form diverges or whose Delta leaves the double range has no
hash: it must exit 3 with one `error:` line on stderr and write nothing.
"""

import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from entropyne import cli, grids
from entropyne.errors import NumericalFailure
from entropyne.grids import DeltaGrid

QUBIT = ["qubit-grid", "--p-norm", "0.5", "--h-norm", "3.7416573867739413",
         "--h0", "0.25"]
AMPLIFIER = ["amplifier-grid"]
JSON = ["--format", "json"]

EXITS_3 = None

# name -> (argv, sha256 of the output bytes, or EXITS_3)
CASES = {
    "qubit-negative-t-csv": (
        QUBIT + ["--theta", "0:3.14159:9", "--temp=-5:-0.5:7"],
        "855b7a12d4c7caf0c6cce6ccc438a2446dda7b6c3a2ca499de79d196e4a9e4b7"),
    "qubit-negative-t-json": (
        QUBIT + ["--theta", "0:3.14159:9", "--temp=-5:-0.5:7"] + JSON,
        "3b6b83a08aef72aaff13aab4e866534031466227061f84b4e2c92491b638a9cf"),
    "amplifier-markers-csv": (
        AMPLIFIER + ["--temp", "0.5:5:6", "--nbar", "0.5:4:5"],
        "17702f7dbf2404ae8876ba37d07332d86b4cb9f65f98ef83e0ccb5a30bedf801"),
    "amplifier-markers-json": (
        AMPLIFIER + ["--temp", "0.5:5:6", "--nbar", "0.5:4:5"] + JSON,
        "3f734be9b3d977542c658752bf7c58216009e5d49b24cc47dc154eeddabb16f6"),
    # Marginal: 2k = omega0, so the grid exits 3 (every cell diverges) at any t.
    "amplifier-divergent-csv": (
        AMPLIFIER + ["--k", "0.5", "--t", "0.3", "--temp", "0.2:10:8", "--nbar", "0:4:5"],
        EXITS_3),
    "amplifier-divergent-json": (
        AMPLIFIER + ["--k", "0.5", "--t", "0.3", "--temp", "0.2:10:8", "--nbar", "0:4:5"]
        + JSON,
        EXITS_3),
    # The same marginal k at t = 1: the 2k >= omega0 test does not read t, so
    # this exits 3 as well.
    "amplifier-marginal-csv": (
        AMPLIFIER + ["--k", "0.5", "--t", "1", "--temp", "0.2:10:8", "--nbar", "0:4:5"],
        EXITS_3),
    "amplifier-marginal-json": (
        AMPLIFIER + ["--k", "0.5", "--t", "1", "--temp", "0.2:10:8", "--nbar", "0:4:5"]
        + JSON,
        EXITS_3),
    # A positive-definite form down to beta omega_eff ~ 1e-8, where the
    # paper's su(1,1) ln Z loses its denominator to rounding (T >= 3.34e7):
    # the normal-mode ln Z keeps every cell within 4e-16 of its exact value.
    "amplifier-partial-csv": (
        AMPLIFIER + ["--temp", "1e5:1e8:4", "--nbar", "1:2:2"],
        "f37f2618f29fc97b17c2d104f4a4cc2b0dc87426c8db33cf311a14a5743825ad"),
    "amplifier-partial-json": (
        AMPLIFIER + ["--temp", "1e5:1e8:4", "--nbar", "1:2:2"] + JSON,
        "d2a8923c492d05ff8836c45693b2283aff7f35df1a7202beefa60a676399e630"),
    # At T = 1e-300, -h0/(2T) overflows to +inf, so the cells there are inf
    # although Delta ~ 0.75 is finite (ROADMAP item 7).
    "qubit-infinite-csv": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--h0=-1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:3"],
        EXITS_3),
    "qubit-infinite-json": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--h0=-1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:3"] + JSON,
        EXITS_3),
    # At T = 1e-300, -h0/(2T) and |h|/(2T) overflow to -inf and +inf, whose
    # sum is NaN, although Delta ~ 7.5e299 is finite (ROADMAP item 7).
    "qubit-nan-csv": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1e300", "--h0", "1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:2"],
        EXITS_3),
    "qubit-nan-json": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1e300", "--h0", "1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:2"] + JSON,
        EXITS_3),
    # 2001 rows: several row blocks with a partial last block.
    "qubit-many-rows-csv": (
        QUBIT + ["--theta", "0:3.14159:2001", "--temp", "0.5:5:11"],
        "5859f45121607a6894ea6c8799b3405b8ae55aaf7213b022df904e93e49c2b81"),
    "amplifier-many-rows-json": (
        AMPLIFIER + ["--temp", "0.5:5:2001", "--nbar", "0.5:4:11"] + JSON,
        "d14de1c429ea6c1cefd15ca49870bf50bbde7e609ec06fc2886ff9e305522caf"),
    "qubit-1x1-csv": (
        QUBIT + ["--theta", "1:1:1", "--temp", "2:2:1"],
        "f205d7a6a67a1d269198c19ab30014c40b51339b8c16bcf48b86f55bc35f936a"),
    "amplifier-1x1-json": (
        AMPLIFIER + ["--temp", "2:2:1", "--nbar", "1:1:1"] + JSON,
        "9c8cc3088c0ad9232e8b62c952f906ce7cbd22845948f3ab80128e2753369a7e"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# `tsallis` on a fixed non-commuting pair of 3x3 states (matrix file text).
TSALLIS_RHO = "3\n0.5 0.1-0.2j 0.05\n0.1+0.2j 0.3 -0.1+0.05j\n0.05 -0.1-0.05j 0.2\n"
TSALLIS_SIGMA = "3\n0.4 0.05+0.1j 0\n0.05-0.1j 0.35 0.1j\n0 -0.1j 0.25\n"
TSALLIS_CASES = {
    "tsallis-q2": (
        ["--q", "2"],
        "64e8adedf37b0bcf4e1447d5e994cf8e008064aaf5f9312d00466652391ebb0d"),
    "tsallis-delta-series": (
        ["--delta-series"],
        "a655820c3a4d8093ee25cedc31dc8a30e1f2aa2342cbf5085da2b047d4937dc5"),
}


@pytest.mark.parametrize("name", TSALLIS_CASES)
def test_tsallis_stdout_bytes(name, tmp_path, capsys):
    rho, sigma = tmp_path / "rho.txt", tmp_path / "sigma.txt"
    rho.write_text(TSALLIS_RHO)
    sigma.write_text(TSALLIS_SIGMA)
    flags, digest = TSALLIS_CASES[name]
    assert cli.main(["tsallis", "--rho-file", str(rho), "--sigma-file", str(sigma)]
                    + flags) == 0
    stdout, stderr = capsys.readouterr()
    assert stderr == ""
    assert sha256(stdout.encode("ascii")) == digest


def check_output(name, capsys, out=None):
    """Run case `name` to stdout or to the file `out` and check what it wrote."""
    argv, digest = CASES[name]
    code = cli.main(argv if out is None else argv + ["--output", str(out)])
    stdout, stderr = capsys.readouterr()
    if digest is EXITS_3:
        assert code == 3 and stdout == ""
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert out is None or not out.exists()
        return
    assert code == 0
    data = stdout.encode("ascii") if out is None else out.read_bytes()
    assert sha256(data) == digest


@pytest.mark.parametrize("name", CASES)
def test_stdout_bytes(name, capsys):
    check_output(name, capsys)


@pytest.mark.parametrize("name", CASES)
def test_output_file_bytes(name, tmp_path, capsys):
    check_output(name, capsys, tmp_path / "grid.out")


@pytest.mark.parametrize("name", ["qubit-negative-t-csv", "amplifier-markers-json"])
def test_process_stdout_bytes(name):
    argv, digest = CASES[name]
    res = subprocess.run([sys.executable, "-m", "entropyne.cli", *argv],
                         capture_output=True, check=True)
    assert sha256(res.stdout) == digest


# `verify --quick` at its default seed, run on one BLAS thread.
VERIFY_QUICK_SHA256 = "7e0c354c2bcc332734a28f3c8649c811fca067655e5c262da82137092f4b31b2"


def test_verify_quick_stdout_bytes():
    res = subprocess.run([sys.executable, "-m", "entropyne.cli", "verify", "--quick"],
                         capture_output=True, check=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert sha256(res.stdout) == VERIFY_QUICK_SHA256


@pytest.mark.parametrize("name", CASES)
def test_text_methods_match_cli_bytes(name, tmp_path, monkeypatch):
    argv, _ = CASES[name]
    written = []
    write_output = cli._write_output

    def capture(grid, args):
        written.append(grid)
        write_output(grid, args)

    monkeypatch.setattr(cli, "_write_output", capture)
    out = tmp_path / "grid.out"
    code = cli.main(argv + ["--output", str(out)])
    if CASES[name][1] is EXITS_3:
        assert code == 3 and written == []
        return
    assert code == 0
    grid, = written
    text = grid.to_json_text() if "json" in argv else grid.to_csv_text()
    assert text.encode("ascii") == out.read_bytes()


@pytest.mark.parametrize("block_cells", [1, 13, 50])
@pytest.mark.parametrize("name", ["amplifier-divergent-csv", "amplifier-divergent-json",
                                  "amplifier-partial-csv", "amplifier-partial-json",
                                  "qubit-many-rows-csv", "amplifier-many-rows-json",
                                  "qubit-1x1-csv", "amplifier-1x1-json"])
def test_block_size_does_not_change_bytes(name, block_cells, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(grids, "_BLOCK_CELLS", block_cells)
    check_output(name, capsys, tmp_path / "grid.out")


def test_many_rows_grid_ends_on_a_partial_block():
    grid = DeltaGrid("a", "b", np.zeros(2001), np.zeros(11), np.zeros((2001, 11)))
    blocks = list(grids._row_blocks(*grid.cells.shape))
    assert len(blocks) > 1 and blocks[0][0] == 0 and blocks[-1][1] == 2001
    assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(blocks, blocks[1:]))
    assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]


MAX = np.finfo(np.float64).max
# Finite extremes of a double: signed zeros, the smallest subnormal and the largest values.
EXTREME_CELLS = [-0.0, 0.0, 5e-324, 1e-300, 1e300, -1e300, MAX, -MAX]


def synthetic_grid():
    """3x4 grid of finite extremes, with argmin markers and metadata."""
    cells = np.array([[0.1, -0.0, MAX, -MAX],
                      [1e-300, -2.5, 1.0 / 3.0, 5e-324],
                      [0.0, 1e300, -1e300, -5e-324]])
    return DeltaGrid(
        axis1_name="T", axis2_name="nbar",
        axis1_values=np.array([0.5, 1.0, 1e300]),
        axis2_values=np.array([0.0, 0.1, 2.0 / 3.0, 4.0]),
        cells=cells,
        metadata={"b": "x", "a": 1, "c": [1.5, None]},
        markers=np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]]),
    )


def seeded_grid(seed, shape, marked, extreme_axis=False):
    """A grid of random cells, a quarter of them drawn from EXTREME_CELLS."""
    rng = np.random.default_rng(seed)
    axis1, axis2 = rng.normal(size=shape[0]), rng.normal(size=shape[1]) * 1e5
    cells = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, shape)
    special = rng.random(shape) < 0.25
    cells[special] = rng.choice(EXTREME_CELLS, special.sum())
    if extreme_axis:
        axis1[-1:], axis2[:1] = -MAX, 5e-324
    return DeltaGrid("T", "nbar", axis1, axis2, cells, metadata={"seed": seed},
                     markers=rng.integers(-1, 3, shape) if marked else None)


# sha256 of (CSV, JSON) text, recorded with the writers as they were before a
# grid had to be finite: a finite grid keeps those bytes.
GRID_TEXT_SHA256 = {
    "synthetic": ("0ff3be47f027319c43d5f88128c163de26892d3a47e2ebed91df688750ec3de8",
                  "3f3283060e9a6eea647a40064b80b52ec56450af4999688f90c7775beb4861f5"),
    "seeded": ("115766344f229347660ac4a5efe5fe080609f7d1b4f4a3587cb6c9f48b576c85",
               "c665017055574148eba4b1bf9fe58d15dbb2a0be3e7847cefe4baee5c053aa08"),
}


def test_synthetic_grid_text():
    for name, grid in [("synthetic", synthetic_grid()),
                       ("seeded", seeded_grid(3, (60, 7), True, extreme_axis=True))]:
        assert (sha256(grid.to_csv_text().encode("ascii")),
                sha256(grid.to_json_text().encode("ascii"))) == GRID_TEXT_SHA256[name]


def per_cell_csv(grid):
    """The CSV text of `grid` built one field at a time: each float by
    format(x, ".17g"), each marker by str(int)."""
    lines = [f"# {key}={grid.metadata[key]}" for key in sorted(grid.metadata)]
    names = [grid.axis1_name, grid.axis2_name, "delta"]
    if grid.markers is not None:
        names.append("argmin")
    lines.append(",".join(names))
    for i, a in enumerate(grid.axis1_values.tolist()):
        for j, b in enumerate(grid.axis2_values.tolist()):
            fields = [format(a, ".17g"), format(b, ".17g"), format(grid.cells[i, j], ".17g")]
            if grid.markers is not None:
                fields.append(str(int(grid.markers[i, j])))
            lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


# 8192 holds each of these grids in one block, as the default block size does.
@pytest.mark.parametrize("block_cells", [1, 13, 50, 8192])
@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("shape", [(7, 5), (1, 1), (3, 40), (60, 2), (0, 3), (2, 0)])
def test_block_template_matches_per_cell_csv(shape, marked, block_cells, monkeypatch):
    monkeypatch.setattr(grids, "_BLOCK_CELLS", block_cells)
    for seed, extreme_axis in [(1, False), (2, False), (3, True)]:
        grid = seeded_grid(seed, shape, marked, extreme_axis)
        assert grid.to_csv_text() == per_cell_csv(grid)


@pytest.mark.parametrize("block_cells", [13, 8192])
def test_marker_dtype_does_not_change_bytes(block_cells, monkeypatch):
    # The amplifier surface holds int8 markers; int64 and bool markers of the
    # same 0/1 values must write the same CSV and JSON.
    monkeypatch.setattr(grids, "_BLOCK_CELLS", block_cells)
    for grid in [synthetic_grid(), seeded_grid(3, (60, 7), True, extreme_axis=True)]:
        flags = grid.markers > 0
        texts = {(g.to_csv_text(), g.to_json_text())
                 for g in (dataclasses.replace(grid, markers=flags.astype(dtype))
                           for dtype in (np.int8, np.int64, bool))}
        assert len(texts) == 1


@pytest.mark.parametrize("marked", [False, True])
@pytest.mark.parametrize("write", ["write_csv", "write_json"])
def test_writers_working_set_is_one_block(write, marked):
    # A writer holds one block's text, lists and tuples at a time: marked CSV,
    # the largest, peaked at 357-375 KiB (~180 B a cell) with 2048-cell blocks.
    # Text kept per row (an axis written whole) or the whole text would grow
    # the peak from 400 to 4000 rows.  The grids are built before tracing starts.
    peaks = []
    for rows in (400, 4000):
        grid = seeded_grid(4, (rows, 50), marked)
        with open(os.devnull, "w") as out:
            tracemalloc.start()
            try:
                getattr(grid, write)(out)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
    assert max(peaks) < 256 * grids._BLOCK_CELLS
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["cells", "axis1_values", "axis2_values"])
def test_grid_rejects_non_finite_values(where, bad):
    # A cell is a value of Delta, finite at every T != 0: one that is not is a
    # numeric failure (exit 3).  An axis value that is not finite is a ValueError.
    fields = {"axis1_values": np.ones(3), "axis2_values": np.arange(2.0),
              "cells": np.ones((3, 2))}
    fields[where][-1] = bad
    error = NumericalFailure if where == "cells" else ValueError
    with pytest.raises(error, match="overflows" if where == "cells" else "finite"):
        DeltaGrid("T", "nbar", **fields)


def test_markers_of_the_wrong_shape_are_rejected():
    with pytest.raises(ValueError, match="markers shape"):
        DeltaGrid("T", "nbar", np.ones(3), np.arange(2.0), np.ones((3, 2)),
                  markers=np.array([[1, 0]]))
