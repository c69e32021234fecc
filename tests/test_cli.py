"""Command-line behavior: formats, round-trips, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from entropyne import grid_from_json_dict
from entropyne.cli import main

QUBIT_ARGS = ["qubit-grid", "--p-norm", "0.5", "--h-norm", "3.7416573867739413",
              "--theta", "0:3.14159:9", "--temp", "0.5:5:7"]


def run_cli(args, **kwargs):
    return subprocess.run([sys.executable, "-m", "entropyne.cli", *args],
                          capture_output=True, **kwargs)


def write_matrix(path, m):
    with open(path, "w") as fh:
        fh.write(f"{m.shape[0]}\n")
        for row in m:
            fh.write(" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) + "\n")


def test_qubit_grid_csv_format(tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(QUBIT_ARGS + ["--output", str(out)]) == 0
    text = out.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("# ")]
    assert any(ln.startswith("# p_norm=") for ln in meta)
    assert any(ln.startswith("# tool_version=") for ln in meta)
    header_idx = len(meta)
    assert lines[header_idx] == "theta,T,delta"
    assert len(lines) == header_idx + 1 + 9 * 7
    first = lines[header_idx + 1].split(",")
    assert float(first[2]) >= 0.0  # parses with '.' decimals, no locale formats


def test_json_round_trip(tmp_path):
    out = tmp_path / "grid.json"
    assert main(QUBIT_ARGS + ["--format", "json", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    grid = grid_from_json_dict(data)
    assert grid.cells.shape == (9, 7)
    assert json.loads(json.dumps(data)) == data
    assert data["metadata"]["subcommand"] == "qubit-grid"


def test_amplifier_grid_markers_and_nulls(tmp_path):
    out = tmp_path / "amp.json"
    assert main(["amplifier-grid", "--temp", "0.5:5:6", "--nbar", "0.5:4:5",
                 "--format", "json", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["marker_name"] == "argmin"
    markers = np.array(data["markers"]).reshape(6, 5)
    assert (markers.sum(axis=0) == 1).all()


def test_gaussian_z_output(capsys):
    # 128 is the smallest accepted cap: it still allows the two steps that
    # the oracle's convergence test compares.
    for cap in ("300", "128"):
        assert main(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                     "--beta", "1", "--oracle", cap]) == 0
        out = capsys.readouterr().out
        z_line = [ln for ln in out.splitlines() if ln.startswith("Z=")][0]
        exact = math.exp(-0.5) / (1.0 - math.exp(-1.0))
        assert abs(float(z_line.split("=")[1]) - exact) <= 1e-12
        rel = [ln for ln in out.splitlines() if ln.startswith("oracle_rel_diff=")][0]
        assert float(rel.split("=")[1]) <= 1e-8


# Runs the steps given as JSON in argv[1] after `import entropyne` and
# prints, as a JSON list, whether scipy was in sys.modules after the import
# and after each step.  A step is a CLI argv list, or the string
# "import scipy" for that import in the probe itself.
SCIPY_PROBE = """
import json, sys
import entropyne
from entropyne import fock
from entropyne.cli import main

def loaded():
    return ["scipy" in sys.modules, "importlib.metadata" in sys.modules,
            fock._lapack_dsterf.cache_info().currsize > 0]

seen = [loaded()]
for step in json.loads(sys.argv[1]):
    if step == "import scipy.linalg":
        import scipy.linalg
    elif main(step) != 0:
        sys.exit(f"{step} failed")
    seen.append(loaded())
print(json.dumps(seen))
"""


def test_grid_subcommands_do_not_load_scipy(tmp_path):
    # The closed forms, the dense layer behind tsallis, the Fock oracle and
    # verify (whose zero-locus minimizer is the package's own) need numpy
    # only, and no step loads importlib.metadata.  The oracle's LAPACK handle
    # is resolved on its first solve, not by the imports or the grids.  The
    # last step imports scipy.linalg in the probe itself: the positive control
    # that the probe sees scipy and importlib.metadata once something loads them.
    gaussian_z = ["gaussian-z", "--omega1", "0.5", "--omega3", "0.5", "--beta", "1"]
    rho, sigma = write_state_pair(tmp_path)
    steps = [QUBIT_ARGS + ["--output", str(tmp_path / "qubit.csv")],
             ["amplifier-grid", "--temp", "0.5:5:6", "--nbar", "0.5:4:5",
              "--format", "json", "--output", str(tmp_path / "amp.json")],
             gaussian_z,
             ["tsallis", "--rho-file", rho, "--sigma-file", sigma, "--q", "2"],
             gaussian_z + ["--oracle", "300"],
             ["verify", "--quick"],
             "import scipy.linalg"]
    res = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(steps)],
                         capture_output=True, text=True, check=True)
    seen = json.loads(res.stdout.splitlines()[-1])
    assert seen == ([[False, False, False]] * 5 + [[False, False, True]] * 2
                    + [[True, True, True]])


def write_state_pair(tmp_path, rho=np.diag([0.7, 0.3]), sigma=np.diag([0.5, 0.5])):
    paths = (str(tmp_path / "rho.txt"), str(tmp_path / "sigma.txt"))
    for path, m in zip(paths, (rho, sigma)):
        write_matrix(path, np.asarray(m, dtype=complex))
    return paths


def test_tsallis_q_value(tmp_path, capsys):
    rho, sigma = write_state_pair(tmp_path)
    assert main(["tsallis", "--rho-file", rho, "--sigma-file", sigma, "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert abs(float(out.splitlines()[0].split("=")[1]) - 0.16) <= 1e-12


def test_tsallis_support_mismatch_reports_inf(tmp_path, capsys):
    rho, sigma = write_state_pair(tmp_path, np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
    assert main(["tsallis", "--rho-file", rho, "--sigma-file", sigma, "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "S_q=inf" in out
    assert "support" in out


@pytest.mark.filterwarnings("error")
def test_tsallis_overflow_exits_3(tmp_path, capsys):
    # sigma has full support, so S_q is finite, but at q = 40 it is ~1e427:
    # a numeric error on one stderr line, not an inf read as a support note.
    rho, sigma = write_state_pair(tmp_path, np.eye(2) / 2, np.diag([1.0 - 1e-11, 1e-11]))
    err = assert_one_error_line(["tsallis", "--rho-file", rho, "--sigma-file", sigma,
                                 "--q", "40"], capsys)
    assert "overflows" in err


def test_tsallis_series_slope(tmp_path, capsys):
    from entropyne import random_density_matrix

    rho = tmp_path / "rho.txt"
    sigma = tmp_path / "sigma.txt"
    write_matrix(rho, random_density_matrix(3, 7))
    write_matrix(sigma, random_density_matrix(3, 8))
    assert main(["tsallis", "--rho-file", str(rho), "--sigma-file", str(sigma),
                 "--delta-series"]) == 0
    out = capsys.readouterr().out
    slope = [ln for ln in out.splitlines() if ln.startswith("residual_slope=")][0]
    assert abs(float(slope.split("=")[1]) - 3.0) <= 0.3


def test_tsallis_series_equal_states_prints_no_slope(tmp_path, capsys):
    # rho = sigma: the series is 0 and S is 0 at some deltas, so a zero
    # residual leaves no power law to fit (log 0 would warn and print nan).
    rho, _ = write_state_pair(tmp_path)
    assert main(["tsallis", "--rho-file", rho, "--sigma-file", rho,
                 "--delta-series"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "order0=0"
    assert len(lines) == 3 + 4
    assert not any(ln.startswith("residual_slope=") for ln in lines)
    assert captured.err == ""


def test_tsallis_series_rounding_residue_prints_no_slope(tmp_path, capsys):
    # rho = sigma with no exact zero: every S_{1+delta} and the series are
    # ~1e-31, residue at the rounding floor, so no power law is fitted.
    from entropyne import random_density_matrix

    rho, _ = write_state_pair(tmp_path, random_density_matrix(3, 7))
    assert main(["tsallis", "--rho-file", rho, "--sigma-file", rho,
                 "--delta-series"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 3 + 4
    assert all(abs(float(ln.split("=")[-1])) < 1e-25 for ln in lines)
    assert not any(ln.startswith("residual_slope=") for ln in lines)
    assert captured.err == ""


def test_tsallis_series_repeated_delta_prints_no_slope(tmp_path, capsys):
    rho, sigma = write_state_pair(tmp_path)
    assert main(["tsallis", "--rho-file", rho, "--sigma-file", sigma,
                 "--delta-series", "0.1,0.1"]) == 0
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 3 + 2
    assert "residual_slope=" not in captured.out
    assert captured.err == ""


def test_tsallis_series_sigma_below_support_threshold_exits_3(tmp_path, capsys):
    rho, sigma = write_state_pair(tmp_path, np.eye(2) / 2.0, np.diag([1.0 - 1e-13, 1e-13]))
    err = assert_one_error_line(["tsallis", "--rho-file", rho, "--sigma-file", sigma,
                                 "--delta-series"], capsys)
    assert "full support" in err


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["qubit-grid", "--p-norm", "0.5"]) == 2  # missing required flags
    assert main(["tsallis", "--rho-file", "/nonexistent", "--sigma-file",
                 "/nonexistent", "--q", "2"]) == 2
    rho, sigma = write_state_pair(tmp_path)
    for deltas in ("0.1,abc", "0.1,-0.1", "nan,0.1", "0.1,inf", "0"):
        capsys.readouterr()
        assert main(["tsallis", "--rho-file", rho, "--sigma-file", sigma,
                     f"--delta-series={deltas}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --delta-series")
        assert captured.err.count("\n") == 1
    # The range is checked before any output or solve, so a huge N allocates
    # nothing.
    for n in ("-1", "1", "31", "127", "1001", "1000000000"):
        assert main(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                     "--beta", "1", "--oracle", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --oracle")
        assert captured.err.count("\n") == 1


def test_domain_errors_exit_3(capsys):
    # omega1*omega3 < Re(omega2)^2: no convergent partition function.
    err = assert_one_error_line(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                                 "--omega2-re", "0.6", "--beta", "1"], capsys)
    assert err == "error: the form is not positive definite: no convergent partition function\n"
    assert main(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                 "--beta", "-1"]) == 3


def qubit_args(p_norm="0.5", temp="1:2:2"):
    return ["qubit-grid", "--p-norm", p_norm, "--h-norm", "1", "--theta", "0:3:2",
            f"--temp={temp}"]


# A spec that parses but holds a value outside its family's domain exits 3,
# with one error line and no output, whichever family decides it.
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args", [
    qubit_args(temp="-1:1:3"),  # mixed-sign T through 0
    qubit_args(temp="0:1:3"),
    qubit_args(p_norm="1.5"),
    qubit_args(p_norm="nan"),
    ["amplifier-grid", "--temp", "0:1:3", "--nbar", "1:2:2"],
    ["amplifier-grid", "--temp", "1:2:2", "--nbar=-1:2:2"],
    # omega1 omega3 = 1e400 is past the double range: the form rule rejects
    # it (ROADMAP item 14) without a numpy overflow warning.
    ["gaussian-z", "--omega1", "1e200", "--omega3", "1e200", "--beta", "1e-200"],
])
def test_out_of_domain_value_exits_3(args, capsys):
    assert_one_error_line(args, capsys)


@pytest.mark.parametrize("omega0", ["1e-9", "1", "1e4", "1e9"])
def test_gaussian_z_does_not_depend_on_omega0(omega0, capsys):
    assert main(["gaussian-z", "--omega0", omega0, "--omega1", "0.5", "--omega3", "0.5",
                 "--beta", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "lnZ=-0.041324854612918072"


def assert_one_error_line(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("omega2_im", ["0.3", "0"])
def test_gaussian_z_infinite_beta_exits_3(omega2_im, capsys):
    # beta = inf is T = 0: with Im(omega2) != 0, ln Z would read -inf.
    assert_one_error_line(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                           "--omega2-im", omega2_im, "--beta", "inf"], capsys)


def test_gaussian_z_overflow_exits_3(capsys):
    # ln Z = 736.8 is finite, but Z = e^{ln Z} is past the double range.
    err = assert_one_error_line(["gaussian-z", "--omega1", "0.5", "--omega3", "0.5",
                                 "--beta", "1e-320"], capsys)
    assert "overflows" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("temp", ["1e300:1e308:2", "1e-320:1:3"])
def test_amplifier_grid_overflow_exits_3(temp, fmt, capsys):
    # T ln Z passes 1.8e308 at T = 1e308, and 1/T at T = 1e-320: no inf,
    # Infinity or blank cell is written, and numpy warns of nothing (a
    # warning would fail this test).
    err = assert_one_error_line(["amplifier-grid", "--temp", temp, "--nbar", "1:2:2",
                                 "--format", fmt], capsys)
    assert "overflows" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega0", ["1e-300", "1e-200", "2e154", "1e300"])
def test_amplifier_grid_extreme_omega0(omega0, capsys):
    # omega0^2 leaves the double range at each of these, but omega_eff and
    # every cell are finite.
    k, temp = repr(0.1 * float(omega0)), f"{0.2 * float(omega0)!r}:{10 * float(omega0)!r}:5"
    assert main(["amplifier-grid", "--omega0", omega0, "--k", k, "--temp", temp,
                 "--nbar", "0.2:10:4"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [ln for ln in captured.out.splitlines() if not ln.startswith("#")][1:]
    cells = [float(row.split(",")[2]) for row in rows]
    assert len(cells) == 20 and all(math.isfinite(c) for c in cells)
    assert main(["amplifier-grid", "--omega0", omega0, "--k", "0", "--nbar", "0.2:10:4"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error")
def test_amplifier_grid_omega0_plus_2k_overflows(capsys):
    # omega0 + 2k and k0 (1 + 2 nbar) pass the double range; omega_eff and
    # every cell do not.
    assert main(["amplifier-grid", "--omega0", "1.5e308", "--k", "5e307",
                 "--temp", "1e300:1e301:2", "--nbar", "0:0.1:2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [ln for ln in captured.out.splitlines() if not ln.startswith("#")][1:]
    cells = [float(row.split(",")[2]) for row in rows]
    assert len(cells) == 4 and all(math.isfinite(c) and c > 1e307 for c in cells)


AMPLIFIER_ARGS = ["amplifier-grid", "--temp", "1:2:2", "--nbar", "1:2:2"]


@pytest.mark.parametrize("args,field", [
    (["gaussian-z", "--omega1", "0.5", "--omega3", "0.5", "--beta", "nan"], "beta"),
    (AMPLIFIER_ARGS + ["--omega-t", "nan"], "omega_t"),
    (AMPLIFIER_ARGS + ["--t", "inf"], "t"),
    (AMPLIFIER_ARGS + ["--k", "nan"], "k"),
    (AMPLIFIER_ARGS + ["--omega=-inf"], "omega"),
    (AMPLIFIER_ARGS + ["--omega0", "nan"], "omega0"),
])
def test_non_finite_parameter_exits_3(args, field, capsys):
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"error: {field} must be ")


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_verify_negative_seed_exits_2(seed, capsys):
    assert main(["verify", "--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --seed")


@pytest.mark.filterwarnings("error")
def test_qubit_grid_huge_h_norm(capsys):
    # |h| = 1e200 squares past the double range; the grid stays finite.
    assert main(["qubit-grid", "--p-norm", "0.5", "--h-norm", "1e200", "--theta", "0:3:2",
                 "--temp", "1e199:1e201:3"]) == 0
    captured = capsys.readouterr()
    rows = [ln for ln in captured.out.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 6 and all(math.isfinite(float(row.split(",")[2])) for row in rows)
    assert captured.err == ""


def test_verify_quick_passes(capsys):
    assert main(["verify", "--quick"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.startswith("family=")]
    assert len(lines) >= 10
    assert all("status=PASS" in ln for ln in lines)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_thread_count_determinism(fmt, tmp_path):
    outputs = []
    for threads in ("1", "8"):
        res = run_cli(QUBIT_ARGS + ["--format", fmt, "--threads", threads],
                      check=True)
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]


def test_threads_do_not_recompute_cells(tmp_path, monkeypatch):
    from entropyne import _kernels

    counted = []
    for name in ("qubit_delta_cells", "amplifier_delta_cells"):
        kernel = getattr(_kernels, name)

        def counting(*args, _kernel=kernel):
            cells = _kernel(*args)
            counted.append(cells.size)
            return cells

        monkeypatch.setattr(_kernels, name, counting)
    amp_args = ["amplifier-grid", "--temp", "0.5:5:40", "--nbar", "0.5:4:50"]
    totals = []
    for threads in ("1", "2"):
        counted.clear()
        for args in (QUBIT_ARGS, amp_args):
            assert main(args + ["--threads", threads,
                                "--output", str(tmp_path / "out.csv")]) == 0
        totals.append(sum(counted))
    assert totals == [9 * 7 + 40 * 50] * 2


def test_extreme_temperatures_print_no_warnings():
    # 2 T overflows at |T| = 1e308; the cells themselves are finite.
    res = run_cli(["qubit-grid", "--p-norm", "0.5", "--h-norm", "1",
                   "--theta", "0:1e308:2", "--temp=-1e308:-1e300:3"])
    assert res.returncode == 0
    assert res.stderr == b""
    cells = [line.split(b",")[2] for line in res.stdout.splitlines()[-6:]]
    assert all(np.isfinite(float(c)) for c in cells)


def test_reader_closing_stdout_early_is_not_an_error():
    # About 11 MB of CSV, far more than a pipe buffers.
    with subprocess.Popen(
            [sys.executable, "-m", "entropyne.cli", "qubit-grid", "--p-norm", "0.5",
             "--h-norm", "1", "--theta", "0:3:400", "--temp", "0.5:5:500"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert first.startswith(b"# ")
    assert err == b""


@pytest.mark.parametrize("args", [
    ["amplifier-grid", "--temp", "nan:2:2", "--nbar", "1:2:2"],
    ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--theta", "0:inf:2",
     "--temp", "1:2:2"],
    ["qubit-grid", "--p-norm", "0.5", "--h-norm", "1", "--theta=-1e308:1e308:3",
     "--temp", "1:2:2"],
    ["amplifier-grid", "--temp", "0.5:2", "--nbar", "1:2:2"],
    ["amplifier-grid", "--temp", "0.5:2:x", "--nbar", "1:2:2"],
])
def test_bad_grid_spec_exits_2(args, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: grid")


def test_threads_env_is_not_read():
    # No environment variable configures the CLI, so a malformed
    # ENTROPYNE_THREADS is no error.
    env = dict(os.environ, ENTROPYNE_THREADS="abc")
    for args in (["--version"],
                 ["gaussian-z", "--omega1", "0.5", "--omega3", "0.5", "--beta", "1"],
                 ["verify", "--quick"],
                 QUBIT_ARGS):
        res = run_cli(args, env=env)
        assert (res.returncode, res.stderr) == (0, b""), args


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ["nan", "inf", "1+nanj", "-inf"])
@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_non_finite_matrix_entry_exits_2(entry, where, tmp_path, capsys):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_matrix(good, np.eye(2, dtype=complex) / 2.0)
    rows = [["0.5", "0"], ["0", "0.5"]]
    if where == "diagonal":
        rows[1][1] = entry
    else:
        rows[0][1] = rows[1][0] = entry
    bad.write_text("2\n" + "\n".join(" ".join(row) for row in rows) + "\n")
    for files in ([good, bad], [bad, good]):
        assert main(["tsallis", "--rho-file", str(files[0]),
                     "--sigma-file", str(files[1]), "--q", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad}: malformed matrix file (non-finite entry)\n"


def test_empty_matrix_file_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert main(["tsallis", "--rho-file", str(empty), "--sigma-file", str(empty),
                 "--q", "2"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {empty}: malformed matrix file")
