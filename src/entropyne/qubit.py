"""Closed-form qubit machinery: Bloch parametrizations and distance grids.

A qubit state is its Bloch 3-vector p (|p| <= 1, the bound `bloch_entropy`
alone checks); a qubit Hamiltonian is a trace h0 plus its own Bloch 3-vector h,
with eigenvalues (h0 +- |h|)/2.  Theta below is always the angle between p and
h; the distance parameter is azimuth-invariant, so the azimuth is fixed to 0.
`qubit_delta_grid` alone decides which temperature axes are allowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import qubit_entropy as bloch_entropy
from .entropy import DeltaRecord
from .errors import DomainError, NumericalFailure, ZeroTemperature
from .grids import DeltaGrid, GridSpec

@dataclass(frozen=True)
class BlochState:
    p: np.ndarray  # real 3-vector

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        if p.shape != (3,):
            raise ValueError("p must be a 3-vector")
        bloch_entropy(self.norm)  # BlochNormExceeded unless 0 <= |p| <= 1 + 1e-12

    @property
    def norm(self) -> float:
        return math.hypot(*self.p)


@dataclass(frozen=True)
class BlochHamiltonian:
    h0: float
    h: np.ndarray  # real 3-vector

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float)
        object.__setattr__(self, "h", h)
        if h.shape != (3,):
            raise ValueError("h must be a 3-vector")
        _kernels.require_finite(self, ValueError)

    @property
    def norm(self) -> float:
        return math.hypot(*self.h)


@dataclass(frozen=True)
class QubitObservables:
    energy: float
    entropy: float
    log_partition: float


def density_from_bloch(s: BlochState) -> np.ndarray:
    px, py, pz = s.p
    return 0.5 * np.array(
        [[1.0 + pz, px - 1j * py], [px + 1j * py, 1.0 - pz]], dtype=complex
    )


def hamiltonian_from_bloch(bh: BlochHamiltonian) -> np.ndarray:
    h1, h2, h3 = bh.h
    return 0.5 * np.array(
        [[bh.h0 + h3, h1 - 1j * h2], [h1 + 1j * h2, bh.h0 - h3]], dtype=complex
    )


def log_partition_qubit(bh: BlochHamiltonian, temperature: float) -> float:
    """ln Tr(e^{-H/T}) = -h0/(2T) + ln(2 cosh(|h|/(2T))) at a finite T != 0.

    NumericalFailure where h0/T or |h|/T overflows and ln Z is not a double.
    """
    _kernels.check_temperature(temperature)
    log_z = float(_kernels.qubit_log_z(bh.h0, bh.norm, temperature))
    if not math.isfinite(log_z):
        raise NumericalFailure(f"ln Z = {log_z} at T = {temperature}: outside the double range")
    return log_z


def qubit_observables(s: BlochState, bh: BlochHamiltonian,
                      temperature: float) -> QubitObservables:
    """Mean energy, entropy and log-partition of a (state, Hamiltonian, T) triple."""
    energy = 0.5 * (bh.h0 + float(np.dot(s.p, bh.h)))
    return QubitObservables(energy, bloch_entropy(s.norm), log_partition_qubit(bh, temperature))


def equilibrium_bloch(bh: BlochHamiltonian, temperature: float) -> BlochState:
    """Bloch vector of the thermal state: p = -(h/|h|) tanh(|h|/(2T)).

    Antiparallel to h for T > 0, parallel for T < 0.  For |h| = 0 the
    thermal state is maximally mixed, p = 0.  T must be finite and nonzero.
    """
    _kernels.check_temperature(temperature)
    h_norm = bh.norm
    if h_norm == 0.0:
        return BlochState(np.zeros(3))
    direction = bh.h / h_norm
    return BlochState(-direction * math.tanh(h_norm / (2.0 * temperature)))


def equilibrium_temperature(p_norm: float, h_norm: float, sign: int = 1) -> float:
    """|h| / (2 arctanh |p|), signed; the temperature where the distance vanishes."""
    if not 0.0 < p_norm < 1.0:
        raise DomainError(f"p_norm must lie in (0, 1), got {p_norm}")
    if not 0.0 < h_norm < math.inf:
        raise DomainError(f"h_norm must be positive and finite, got {h_norm}")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return sign * h_norm / (2.0 * math.atanh(p_norm))


def qubit_delta_record(p_norm: float, theta: float, bh: BlochHamiltonian,
                       temperature: float) -> DeltaRecord:
    """Distance record with p at angle theta from h's axis, azimuth 0.

    E, S and ln Z are evaluated once, and Delta by the grid kernel's code.
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta}")
    energy = float(_kernels.qubit_energy(p_norm, bh.h0, bh.norm, theta))
    entropy, log_z = bloch_entropy(p_norm), log_partition_qubit(bh, temperature)
    delta = float(_kernels.delta_cells(energy, entropy, temperature, log_z))
    return DeltaRecord(energy, entropy, log_z, temperature, delta)


def qubit_delta_grid(p_norm: float, bh: BlochHamiltonian, theta_range: GridSpec,
                     T_range: GridSpec) -> DeltaGrid:
    """Distance parameter over an inclusive (theta, T) grid, row-major in theta."""
    thetas, temps = theta_range.values(), T_range.values()
    if np.any(temps == 0.0) or (temps.min() < 0.0 < temps.max()):
        raise ZeroTemperature("temperature range must be sign-homogeneous and exclude 0")
    cells = _kernels.qubit_delta_cells(p_norm, bh.h0, bh.norm, thetas, temps)
    return DeltaGrid(axis1_name="theta", axis2_name="T", axis1_values=thetas,
                     axis2_values=temps, cells=cells)
