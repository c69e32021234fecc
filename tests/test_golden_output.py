"""Golden SHA-256 hashes of the grid subcommands' output bytes.

The hashes were recorded from the CLI before grid output was streamed; a
change to how grids are serialized must leave every one of them unchanged.
Each case is written both to stdout and to --output FILE, and
`to_csv_text()` / `to_json_text()` must give the same bytes as the CLI.
"""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

from entropyne import cli, grids
from entropyne.grids import DeltaGrid

QUBIT = ["qubit-grid", "--p-norm", "0.5", "--h-norm", "3.7416573867739413",
         "--h0", "0.25"]
AMPLIFIER = ["amplifier-grid"]
JSON = ["--format", "json"]

# name -> (argv, sha256 of the output bytes)
CASES = {
    "qubit-negative-t-csv": (
        QUBIT + ["--theta", "0:3.14159:9", "--temp=-5:-0.5:7"],
        "502d43f30a4285ca4088f18bec84765853c1e105db8d9bc660360a9fdcbaec5b"),
    "qubit-negative-t-json": (
        QUBIT + ["--theta", "0:3.14159:9", "--temp=-5:-0.5:7"] + JSON,
        "28c91ffb02f54e70e7fe5afb212961afd1d20202baca2995ed824023c67dc97e"),
    "amplifier-markers-csv": (
        AMPLIFIER + ["--temp", "0.5:5:6", "--nbar", "0.5:4:5"],
        "d7c53cc44ffe7257605979368846ee2aa64c8e7fd8d806ba9bbf8c8a95616fe8"),
    "amplifier-markers-json": (
        AMPLIFIER + ["--temp", "0.5:5:6", "--nbar", "0.5:4:5"] + JSON,
        "027538df37e9b2891d80c7925b347f82dc57659259a06461b63191e68bfc556b"),
    # Rows 0 and 3-5 diverge (blank / null cells); the others do not.
    "amplifier-divergent-csv": (
        AMPLIFIER + ["--k", "0.5", "--t", "0.3", "--temp", "0.2:10:8", "--nbar", "0:4:5"],
        "41338823dcc69f59d1b803572085c86f040e71dcf43ddb0b36b9929a85de5a41"),
    "amplifier-divergent-json": (
        AMPLIFIER + ["--k", "0.5", "--t", "0.3", "--temp", "0.2:10:8", "--nbar", "0:4:5"]
        + JSON,
        "f5b179f5ea847a750eedfd44af57ecc58429dd764afe9b9ae19673a9470556c5"),
    # The T = 1e-300 column overflows to +inf.
    "qubit-infinite-csv": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--h0=-1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:3"],
        "f171d3ceb5e91eb0c831b5885ed4a9cc1537dff8f305f6765319e8170a44d50f"),
    "qubit-infinite-json": (
        ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--h0=-1e300",
         "--theta", "0:3:2", "--temp", "1e-300:1:3"] + JSON,
        "87677befc857890eed36769e361d0af4dc36f5ec55fddd89b1e70e763ac76693"),
    # 2001 rows: several row blocks with a partial last block.
    "qubit-many-rows-csv": (
        QUBIT + ["--theta", "0:3.14159:2001", "--temp", "0.5:5:11"],
        "819b1fb662eab0ade494f9abe465926ffbdd0cdacf4fdd8633d912fdf990086f"),
    "amplifier-many-rows-json": (
        AMPLIFIER + ["--temp", "0.5:5:2001", "--nbar", "0.5:4:11"] + JSON,
        "96e8891a06b69f8e59b165f76a8360180e588387332a60ddbca3d2855baefcf2"),
    "qubit-1x1-csv": (
        QUBIT + ["--theta", "1:1:1", "--temp", "2:2:1"],
        "3cd0f15fab5acf9190480d4e87a552e6d2f7599536caa2c600067505713a7752"),
    "amplifier-1x1-json": (
        AMPLIFIER + ["--temp", "2:2:1", "--nbar", "1:1:1"] + JSON,
        "657ddafbff82242fb80f6d01957b6813053c695ac73c73168a753a59103276a0"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_stdout_bytes(name, capsys):
    argv, digest = CASES[name]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode("ascii")) == digest


@pytest.mark.parametrize("name", CASES)
def test_output_file_bytes(name, tmp_path):
    argv, digest = CASES[name]
    out = tmp_path / "grid.out"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


@pytest.mark.parametrize("name", ["qubit-negative-t-csv", "amplifier-markers-json"])
def test_process_stdout_bytes(name):
    argv, digest = CASES[name]
    res = subprocess.run([sys.executable, "-m", "entropyne.cli", *argv],
                         capture_output=True, check=True)
    assert sha256(res.stdout) == digest


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
    assert cli.main(argv + ["--output", str(out)]) == 0
    grid, = written
    text = grid.to_json_text() if "json" in argv else grid.to_csv_text()
    assert text.encode("ascii") == out.read_bytes()


@pytest.mark.parametrize("block_cells", [1, 13, 50])
@pytest.mark.parametrize("name", ["amplifier-divergent-csv", "amplifier-divergent-json",
                                  "qubit-many-rows-csv", "amplifier-many-rows-json",
                                  "qubit-1x1-csv", "amplifier-1x1-json"])
def test_block_size_does_not_change_bytes(name, block_cells, tmp_path, monkeypatch):
    argv, digest = CASES[name]
    monkeypatch.setattr(grids, "_BLOCK_CELLS", block_cells)
    out = tmp_path / "grid.out"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


def test_many_rows_grid_ends_on_a_partial_block():
    grid = DeltaGrid("a", "b", np.zeros(2001), np.zeros(11), np.zeros((2001, 11)))
    blocks = grid._row_blocks()
    assert len(blocks) > 1 and blocks[0][0] == 0 and blocks[-1][1] == 2001
    assert all(hi == next_lo for (_, hi), (next_lo, _) in zip(blocks, blocks[1:]))
    assert blocks[-1][1] - blocks[-1][0] < blocks[0][1] - blocks[0][0]


def synthetic_grid():
    """3x4 grid with NaN, +inf and -inf cells, argmin markers and metadata."""
    cells = np.array([[0.1, np.nan, np.inf, -np.inf],
                      [1e-300, -2.5, 1.0 / 3.0, np.nan],
                      [np.nan, np.nan, np.nan, np.nan]])
    return DeltaGrid(
        axis1_name="T", axis2_name="nbar",
        axis1_values=np.array([0.5, 1.0, 1e300]),
        axis2_values=np.array([0.0, 0.1, 2.0 / 3.0, 4.0]),
        cells=cells,
        metadata={"b": "x", "a": 1, "c": [1.5, None]},
        marker_name="argmin",
        markers=np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]]),
    )


def test_synthetic_grid_text():
    grid = synthetic_grid()
    assert sha256(grid.to_csv_text().encode("ascii")) == \
        "6f70806404149b5be4cdd0e5f7b7892ea44840fc7327bf7efbd82f25acdfa124"
    assert sha256(grid.to_json_text().encode("ascii")) == \
        "8227e231fa86861322ee287e136b7e1174638ac35910cb4cb900f9d5c80038e6"
