"""The four workloads: seeded inputs, one operation, and output checks.

Every check recomputes what the program should have produced from the closed
forms written out here (or tests a property Δ must have); no output of the
program is stored and compared across versions.  The CLI workloads require
every output of a run to be byte-identical to its first, which gets the full
check, since the CLI documents deterministic output; the in-memory surfaces
get the full check once per distinct content.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from entropyne.amplifier import (AmplifierConfig, amplifier_delta_surface,
                                 delta_argmin_temperature)
from entropyne.cli import main as cli_main
from entropyne.fock import stable_partition
from entropyne.gaussian import QuadraticHamiltonian
from entropyne.grids import GridSpec
from entropyne.qubit import BlochHamiltonian, qubit_delta_grid, qubit_delta_record

# Grid sizes (rows x columns).  The CLI grids are sized so one operation
# takes about a second; the in-memory surfaces are the 10^6-cell size of
# ROADMAP's baseline, where the vector kernels dominate.
CLI_QUBIT_SHAPE = (400, 500)       # theta x T
CLI_AMPLIFIER_SHAPE = (400, 500)   # T x nbar
SURFACE_SHAPE = (1000, 1000)
N_ARGMIN = 8          # n̄ values minimized per closed-forms operation
N_RECORDS = 64        # equilibrium-locus qubit records per operation
ARGMIN_BRACKET = (0.05, 100.0)
ORACLE_FORMS = 8      # oracle operations per round

# Check tolerances.  Cells are compared relative to the size of the terms
# that cancel in Δ = E - T S + T ln Z; today's errors are below 1e-15 of it.
CELL_RTOL = 1e-12
LOCUS_RTOL = 1e-13    # |Δ| on the qubit equilibrium locus, same scale
ARGMIN_RTOL = 1e-5    # acceptance criterion 9a
ORACLE_RTOL = 1e-8    # the bound `entropyne verify` uses
AXIS_RTOL = 1e-12


# -- closed forms, written independently of the package ----------------------
def qubit_entropy(p):
    a, b = (1.0 + p) / 2.0, (1.0 - p) / 2.0
    return -a * math.log(a) - (b * math.log(b) if b > 0.0 else 0.0)


def qubit_expected(p, h_norm, h0, thetas, temps):
    """(Δ, scale) over a theta x T grid: ½(h0 + p|h|cosθ) − T S + T ln Z."""
    energy = 0.5 * (h0 + p * h_norm * np.cos(thetas))[:, None]
    t = temps[None, :]
    log_z = -h0 / (2.0 * t) + np.log(2.0 * np.cosh(h_norm / (2.0 * t)))
    s = qubit_entropy(p)
    delta = energy - t * s + t * log_z
    return delta, np.abs(energy) + np.abs(t) * s + np.abs(t * log_z)


def amplifier_coefficients(omega0, omega, k, t):
    """(ω1, ω2, ω3, ω_eff) of the amplifier frozen at time t."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    w1 = 0.5 + (k / omega0) * c
    w2 = complex(k * s, 0.0)
    w3 = omega0 ** 2 / 2.0 - k * omega0 * c
    return w1, w2, w3, 2.0 * math.sqrt(w1 * w3 - w2.real ** 2)


def amplifier_expected(omega0, coeffs, temps, nbars):
    """(Δ, scale) over a T x n̄ grid for thermal light: E − T S + T ln Z."""
    w1, w2, w3, w_eff = coeffs
    nb = nbars[None, :]
    energy = (w1 * omega0 + w3 / omega0) * (1.0 + 2.0 * nb) / 2.0 + w2.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = (1.0 + nb) * np.log1p(nb) - np.where(nb > 0.0, nb * np.log(nb), 0.0)
    t = temps[:, None]
    log_z = -w2.imag / t - np.log(2.0 * np.sinh(w_eff / (2.0 * t)))
    delta = energy - t * entropy + t * log_z
    return delta, np.abs(energy) + t * entropy + np.abs(t * log_z)


def argmin_temperature(w_eff, nbar):
    """T* where the Gibbs entropy of the amplifier equals the probe's."""
    return w_eff / math.log1p(1.0 / nbar)


# -- shared cell checks --------------------------------------------------------
def axis_ok(values, expected):
    values = np.asarray(values, dtype=float)
    return values.shape == expected.shape and bool(
        np.all(np.abs(values - expected) <= AXIS_RTOL * (1.0 + np.abs(expected))))


def cells_ok(cells, expected_fn, block=100):
    """Cells finite, equal to the closed form and Δ ≥ 0 (all temperatures > 0).

    expected_fn(lo, hi) gives (Δ, scale) of rows lo..hi; the check runs in row
    blocks so that it adds little to the process's memory.
    """
    for lo in range(0, cells.shape[0], block):
        part = cells[lo:lo + block]
        delta, scale = expected_fn(lo, lo + block)
        if part.shape != delta.shape:
            return False
        tol = CELL_RTOL * scale
        if not (np.all(np.isfinite(part)) and np.all(np.abs(part - delta) <= tol)
                and np.all(part >= -tol)):
            return False
    return True


def markers_ok(cells, markers, temps, nbars, w_eff):
    """One argmin marker per n̄ column, within one T step of T* when T* is inside."""
    if markers.shape != cells.shape or not np.all((markers == 0) | (markers == 1)):
        return False
    if not np.all(markers.sum(axis=0) == 1):
        return False
    rows = markers.argmax(axis=0)
    step = (temps[-1] - temps[0]) / (len(temps) - 1)
    for j, nbar in enumerate(nbars):
        t_star = argmin_temperature(w_eff, nbar)
        if temps[0] <= t_star <= temps[-1] and abs(temps[rows[j]] - t_star) > step * (1 + 1e-9):
            return False
    return True


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a))
    return h.hexdigest()


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def spec(start, stop, count):
    return f"{start!r}:{stop!r}:{count}"


# -- workloads -------------------------------------------------------------------
class CliGrid:
    """One `entropyne` grid subcommand writing to a file.

    The CLI documents byte-identical output for fixed inputs, so every
    output must equal the run's first one, which gets the full check.  That
    check runs after the timed loop, so that parsing the output does not
    raise the run's peak resident set.
    """

    suffix = ""

    def __init__(self, workdir):
        self.out = os.path.join(workdir, "grid" + self.suffix)
        self.first = os.path.join(workdir, "first" + self.suffix)
        self.first_key = None
        self.first_ok = None

    def round(self):
        return [self.operation]

    def operation(self):
        return cli_main(self.argv + ["--output", self.out])

    def check(self, exit_code):
        """Digest of the output (judged in `verdict`) and its size."""
        if exit_code != 0 or not os.path.exists(self.out):
            return False, 0
        size = os.path.getsize(self.out)
        key = file_digest(self.out)
        if self.first_key is None:
            self.first_key = key
            os.replace(self.out, self.first)
        else:
            os.remove(self.out)
        return key, size

    def verdict(self, key):
        if key is False:
            return False
        if self.first_ok is None:
            self.first_ok = bool(self.full_check(self.first))
            os.remove(self.first)
        return key == self.first_key and self.first_ok


class GridCsv(CliGrid):
    """`qubit-grid` into CSV; the θ = π row reaches 0 at T_eq."""

    suffix = ".csv"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 1])
        self.p = float(rng.uniform(0.05, 0.95))
        self.h_norm = float(rng.uniform(1.0, 5.0))
        self.h0 = float(rng.uniform(-1.0, 1.0))
        self.t_eq = self.h_norm / (2.0 * math.atanh(self.p))
        n_theta, n_temp = CLI_QUBIT_SHAPE
        t_lo = self.t_eq * float(rng.uniform(0.3, 0.6))
        t_hi = self.t_eq * float(rng.uniform(2.0, 3.0))
        self.thetas = np.linspace(0.0, math.pi, n_theta)
        self.temps = np.linspace(t_lo, t_hi, n_temp)
        self.argv = ["qubit-grid", "--p-norm", repr(self.p), "--h-norm", repr(self.h_norm),
                     "--h0", repr(self.h0), "--theta", spec(0.0, math.pi, n_theta),
                     "--temp", spec(t_lo, t_hi, n_temp), "--format", "csv"]

    def full_check(self, path):
        n_theta, n_temp = CLI_QUBIT_SHAPE
        values = np.empty((3, n_theta * n_temp))
        k = 0
        with open(path) as fh:
            line = fh.readline()
            while line.startswith("#"):
                line = fh.readline()
            if line != "theta,T,delta\n":
                return False
            for line in fh:
                fields = line.split(",")
                if len(fields) != 3 or k == values.shape[1]:
                    return False
                try:
                    values[:, k] = [float(f) for f in fields]
                except ValueError:   # a blank (divergent) cell
                    return False
                k += 1
        if k != values.shape[1]:
            return False
        theta, temp, cells = (v.reshape(n_theta, n_temp) for v in values)
        if not (axis_ok(theta[:, 0], self.thetas) and axis_ok(temp[0], self.temps)
                and np.all(theta == theta[:, :1]) and np.all(temp == temp[:1])):
            return False
        thetas, temps = theta[:, 0], temp[0]
        if not cells_ok(cells, lambda lo, hi: qubit_expected(
                self.p, self.h_norm, self.h0, thetas[lo:hi], temps)):
            return False
        # The θ = π row is the equilibrium direction: its minimum is Δ = 0 at T_eq.
        step = (temps[-1] - temps[0]) / (n_temp - 1)
        return thetas[-1] == math.pi and \
            abs(temps[np.argmin(cells[-1])] - self.t_eq) <= step * (1 + 1e-9)


class GridJson(CliGrid):
    """`amplifier-grid --format json` with its per-n̄ argmin markers."""

    suffix = ".json"

    def __init__(self, seed, workdir):
        super().__init__(workdir)
        rng = np.random.default_rng([seed, 2])
        self.cfg = random_amplifier(rng)
        self.coeffs = amplifier_coefficients(self.cfg.omega0, self.cfg.omega, self.cfg.k, self.cfg.t)
        self.temps, self.nbars, t_spec, n_spec = amplifier_axes(rng, self.coeffs[3],
                                                                CLI_AMPLIFIER_SHAPE)
        cfg = self.cfg
        self.argv = ["amplifier-grid", "--omega0", repr(cfg.omega0), "--omega", repr(cfg.omega),
                     "--k", repr(cfg.k), "--t", repr(cfg.t), "--omega-t", repr(cfg.omega_t),
                     "--temp", t_spec, "--nbar", n_spec, "--format", "json"]

    def full_check(self, path):
        with open(path) as fh:
            data = json.load(fh)
        if data.get("axis1_name") != "T" or data.get("axis2_name") != "nbar":
            return False
        if not (axis_ok(data["axis1_values"], self.temps)
                and axis_ok(data["axis2_values"], self.nbars)):
            return False
        shape = CLI_AMPLIFIER_SHAPE
        if len(data["cells"]) != shape[0] * shape[1] or None in data["cells"]:
            return False
        temps = np.asarray(data["axis1_values"], dtype=float)
        nbars = np.asarray(data["axis2_values"], dtype=float)
        cells = np.asarray(data["cells"], dtype=float).reshape(shape)
        markers = np.asarray(data.get("markers", []), dtype=np.int64)
        return (markers.size == cells.size
                and cells_ok(cells, lambda lo, hi: amplifier_expected(
                    self.cfg.omega0, self.coeffs, temps[lo:hi], nbars))
                and markers_ok(cells, markers.reshape(shape), temps, nbars, self.coeffs[3]))


def random_amplifier(rng):
    omega0 = float(rng.uniform(0.5, 2.0))
    omega = float(rng.uniform(1.0, 5.0))
    # ω_eff² = ω0² − 4k², so k < ω0/2 keeps every cell convergent.
    return AmplifierConfig(omega0=omega0, omega=omega, k=omega0 * float(rng.uniform(0.02, 0.3)),
                           t=float(rng.uniform(0.0, 2.0 * math.pi / omega)), omega_t=1.0)


def amplifier_axes(rng, w_eff, shape):
    """T and n̄ axes (with their CLI specs) over which T* mostly lies inside."""
    t_lo, t_hi = w_eff * float(rng.uniform(0.1, 0.3)), w_eff * float(rng.uniform(6.0, 12.0))
    n_lo, n_hi = float(rng.uniform(0.1, 0.5)), float(rng.uniform(5.0, 10.0))
    return (np.linspace(t_lo, t_hi, shape[0]), np.linspace(n_lo, n_hi, shape[1]),
            spec(t_lo, t_hi, shape[0]), spec(n_lo, n_hi, shape[1]))


class ClosedForms:
    """One operation: the scalar and the vector closed-form paths, in memory."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        self.argmin_cfg = AmplifierConfig(k=0.1)
        c = self.argmin_cfg
        w_eff = amplifier_coefficients(c.omega0, c.omega, c.k, c.t)[3]
        self.nbars = [float(x) for x in np.sort(rng.uniform(0.5, 5.0, N_ARGMIN))]
        self.t_stars = [argmin_temperature(w_eff, nb) for nb in self.nbars]

        self.records = []   # (p, hamiltonian, T_eq, scale of the cancelling terms)
        for _ in range(N_RECORDS):
            p, h_norm, h0 = (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.5, 5.0)),
                             float(rng.uniform(-1.0, 1.0)))
            t_eq = h_norm / (2.0 * math.atanh(p))
            energy = 0.5 * (h0 - p * h_norm)
            log_z = -h0 / (2.0 * t_eq) + math.log(2.0 * math.cosh(h_norm / (2.0 * t_eq)))
            scale = abs(energy) + t_eq * qubit_entropy(p) + abs(t_eq * log_z)
            self.records.append((p, BlochHamiltonian(h0=h0, h=np.array([0.0, 0.0, h_norm])),
                                 t_eq, scale))

        self.surface_cfg = random_amplifier(rng)
        sc = self.surface_cfg
        self.surface_coeffs = amplifier_coefficients(sc.omega0, sc.omega, sc.k, sc.t)
        self.temps, self.nbars_axis, _, _ = amplifier_axes(rng, self.surface_coeffs[3],
                                                           SURFACE_SHAPE)
        self.temp_spec = GridSpec(float(self.temps[0]), float(self.temps[-1]), SURFACE_SHAPE[0])
        self.nbar_spec = GridSpec(float(self.nbars_axis[0]), float(self.nbars_axis[-1]),
                                  SURFACE_SHAPE[1])

        self.qp, self.q_h_norm, self.q_h0 = (float(rng.uniform(0.05, 0.95)),
                                             float(rng.uniform(1.0, 5.0)),
                                             float(rng.uniform(-1.0, 1.0)))
        self.q_ham = BlochHamiltonian(h0=self.q_h0, h=np.array([0.0, 0.0, self.q_h_norm]))
        t_eq = self.q_h_norm / (2.0 * math.atanh(self.qp))
        self.q_thetas = np.linspace(0.0, math.pi, SURFACE_SHAPE[0])
        self.q_temps = np.linspace(0.3 * t_eq, 3.0 * t_eq, SURFACE_SHAPE[1])
        self.theta_spec = GridSpec(0.0, math.pi, SURFACE_SHAPE[0])
        self.q_temp_spec = GridSpec(float(self.q_temps[0]), float(self.q_temps[-1]),
                                    SURFACE_SHAPE[1])
        self.verdicts = {}

    def round(self):
        return [self.operation]

    def operation(self):
        t_stars = [delta_argmin_temperature(self.argmin_cfg, nb, ARGMIN_BRACKET)
                   for nb in self.nbars]
        locus = [qubit_delta_record(p, math.pi, ham, t_eq).delta
                 for p, ham, t_eq, _ in self.records]
        surface = amplifier_delta_surface(self.surface_cfg, self.temp_spec, self.nbar_spec)
        grid = qubit_delta_grid(self.qp, self.q_ham, self.theta_spec, self.q_temp_spec)
        return t_stars, locus, surface, grid

    def check(self, result):
        t_stars, locus, surface, grid = result
        ok = all(abs(t - e) <= ARGMIN_RTOL * e for t, e in zip(t_stars, self.t_stars))
        ok &= all(abs(d) <= LOCUS_RTOL * rec[3] for d, rec in zip(locus, self.records))
        key = digest(surface.axis1_values, surface.axis2_values, surface.cells, surface.markers,
                     grid.axis1_values, grid.axis2_values, grid.cells)
        if key not in self.verdicts:
            self.verdicts[key] = self.check_surfaces(surface, grid)
        return ok and self.verdicts[key], 0

    def check_surfaces(self, surface, grid):
        sc, coeffs = self.surface_cfg, self.surface_coeffs
        temps, nbars = surface.axis1_values, surface.axis2_values
        thetas, q_temps = grid.axis1_values, grid.axis2_values
        return (axis_ok(temps, self.temps) and axis_ok(nbars, self.nbars_axis)
                and cells_ok(surface.cells, lambda lo, hi: amplifier_expected(
                    sc.omega0, coeffs, temps[lo:hi], nbars))
                and markers_ok(surface.cells, np.asarray(surface.markers), temps, nbars,
                               coeffs[3])
                and axis_ok(thetas, self.q_thetas) and axis_ok(q_temps, self.q_temps)
                and cells_ok(grid.cells, lambda lo, hi: qubit_expected(
                    self.qp, self.q_h_norm, self.q_h0, thetas[lo:hi], q_temps)))

    def verdict(self, key):
        return key


class Oracle:
    """`fock.stable_partition` on seeded positive-definite quadratic forms."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        self.cases = []   # (hamiltonian, beta, closed-form Z)
        for _ in range(ORACLE_FORMS):
            w1, w3 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
            bound = 0.6 * math.sqrt(w1 * w3)
            w2 = complex(rng.uniform(-bound, bound), rng.normal(0.0, 0.3))
            h = QuadraticHamiltonian(omega0=float(rng.uniform(0.5, 2.0)), omega1=w1,
                                     omega2=w2, omega3=w3)
            beta = float(rng.uniform(0.5, 2.5))
            w_eff = 2.0 * math.sqrt(w1 * w3 - w2.real ** 2)
            z = math.exp(-beta * w2.imag) / (2.0 * math.sinh(beta * w_eff / 2.0))
            self.cases.append((h, beta, z))

    def round(self):
        return [lambda case=case: (stable_partition(case[0], case[1]), case[2])
                for case in self.cases]

    def check(self, result):
        z, expected = result
        return abs(z - expected) <= ORACLE_RTOL * expected, 0

    def verdict(self, key):
        return key


WORKLOADS = {"grid-csv": GridCsv, "grid-json": GridJson,
             "closed-forms": ClosedForms, "oracle": Oracle}
