"""Degenerate parametric amplifier worked example.

The amplifier Hamiltonian w0(adag a + 1/2) - k(adag^2 e^{-iwt} + a^2 e^{iwt})
is frozen at a caller-supplied time t and mapped to quadratic-form
coefficients; the probe state is thermal light of mean photon number nbar.
The (T, nbar) surface of the distance parameter has its per-nbar minimum at
the temperature where the thermal state of the amplifier matches the probe
entropy.  The surface and the minimizer (by `_kernels.argmin_rounds`, the
package's one) both evaluate the distance with `_kernels.amplifier_delta_cells`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import _kernels
from .errors import BracketError, DivergentPartition, DomainError, NumericalFailure
from .gaussian import CovarianceState, QuadraticHamiltonian
from .grids import DeltaGrid, GridSpec


@dataclass(frozen=True)
class AmplifierConfig:
    omega0: float = 1.0   # signal frequency
    omega: float = 3.0    # pump frequency
    k: float = 0.1        # interaction constant
    t: float = 0.0        # frozen time
    omega_t: float = 1.0  # thermal-light mode frequency

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.omega0 > 0.0:
            raise ValueError("omega0 must be positive")
        if not self.omega_t > 0.0:
            raise ValueError("omega_t must be positive")
        if not self.k >= 0.0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class ThermalLight:
    nbar: float
    omega_t: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.nbar >= 0.0:
            raise ValueError("nbar must be >= 0")
        if not self.omega_t > 0.0:
            raise ValueError("omega_t must be positive")


def _require_finite(obj) -> None:
    """Raise ValueError naming the first dataclass field of obj that is not finite."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


def amplifier_hamiltonian(cfg: AmplifierConfig) -> QuadraticHamiltonian:
    """Quadratic-form coefficients of the amplifier at the frozen time."""
    c = math.cos(cfg.omega * cfg.t)
    s = math.sin(cfg.omega * cfg.t)
    return QuadraticHamiltonian(
        omega0=cfg.omega0,
        omega1=0.5 + (cfg.k / cfg.omega0) * c,
        omega2=complex(cfg.k * s, 0.0),
        omega3=cfg.omega0**2 / 2.0 - cfg.k * cfg.omega0 * c,
    )


def _require_convergent(cfg: AmplifierConfig) -> None:
    """Raise DivergentPartition unless 2k < omega0.

    At every frozen time omega_eff^2 = omega0^2 - 4k^2, so no partition
    function converges once 2k >= omega0.  The form rule alone misses the
    marginal case 2k = omega0: amplifier_hamiltonian rounds omega1, omega3
    and Re omega2 from cos/sin, which can leave omega1 omega3 - (Re omega2)^2
    a few ulps above 0.  This comparison is exact.
    """
    if 2.0 * cfg.k >= cfg.omega0:
        raise DivergentPartition(
            f"k = {cfg.k} >= omega0/2 = {cfg.omega0 / 2.0}: "
            "no convergent partition function"
        )


def thermal_light_covariance(tl: ThermalLight, omega0: float) -> CovarianceState:
    """sigma = ((1+2 nbar)/2) diag(w0, 1/w0) with zero means."""
    if omega0 <= 0.0:
        raise ValueError("omega0 must be positive")
    scale = (1.0 + 2.0 * tl.nbar) / 2.0
    return CovarianceState(
        sigma_pp=scale * omega0,
        sigma_qq=scale / omega0,
        sigma_pq=0.0,
    )


def nbar_from_temperature(t_prime: float, omega_t: float) -> float:
    """Mean photon number 1/(e^{omega_t/T'} - 1) of light generated at T'."""
    if t_prime <= 0.0:
        raise DomainError(f"T' must be positive, got {t_prime}")
    if omega_t <= 0.0:
        raise DomainError(f"omega_t must be positive, got {omega_t}")
    x = omega_t / t_prime
    if x > 700.0:  # expm1 overflows; n_bar is e^{-x} to double precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def amplifier_delta_surface(cfg: AmplifierConfig, T_range: GridSpec,
                            nbar_range: GridSpec,
                            metadata: dict | None = None) -> DeltaGrid:
    """Distance parameter over (T, nbar), with a per-nbar argmin marker column:
    1 at the T row minimizing the distance for that nbar, 0 elsewhere.

    Raises DivergentPartition when the form has no partition function, and
    NumericalFailure when a cell overflows a double.
    """
    temps = T_range.values()
    nbars = nbar_range.values()
    if temps.min() <= 0.0:
        raise DomainError("temperature range must be strictly positive")
    if nbars.min() < 0.0:
        raise DomainError("nbar range must be nonnegative")
    _require_convergent(cfg)
    h = amplifier_hamiltonian(cfg)
    weff = h.effective_frequency
    cells = _kernels.amplifier_delta_cells(temps, nbars, h.k0_coefficient, weff, h.omega2.imag)
    # A convergent form's cells are finite unless T ln Z or 1/T passes 1.8e308.
    if not (math.isnan(weff) or np.isfinite(cells).all()):
        raise NumericalFailure("Delta overflows a double on this grid (T ln Z or 1/T)")
    return DeltaGrid(
        axis1_name="T",
        axis2_name="nbar",
        axis1_values=temps,
        axis2_values=nbars,
        cells=cells,
        metadata=metadata or {},
        marker_name="argmin",
        markers=_argmin_markers(cells),
    )


def _argmin_markers(cells: np.ndarray) -> np.ndarray:
    """1 at the row of each column's smallest non-NaN cell (the first on a
    tie), 0 elsewhere; a column whose cells are all NaN has no marker.

    np.fmin skips NaN, and np.unique keeps each column's first hit of its
    minimum in row-major order, i.e. its lowest row.  A column-wise
    np.nanargmin would copy the whole array (twice, once to replace NaN), and
    would mark a NaN cell in a column whose minimum is +inf with a NaN above
    it.  Raises DivergentPartition when every column is all NaN.
    """
    column_min = np.fmin.reduce(cells, axis=0)
    if np.isnan(column_min).all():
        raise DivergentPartition("every cell diverged: no convergent partition function")
    rows, cols = np.divmod(np.flatnonzero(cells == column_min), cells.shape[1])
    cols, first = np.unique(cols, return_index=True)
    markers = np.zeros(cells.shape, dtype=int)
    markers[rows[first], cols] = 1
    return markers


def delta_argmin_temperature(cfg: AmplifierConfig, nbar: float,
                             bracket: tuple[float, float],
                             rel_tol: float = 1e-6) -> float:
    """Minimizer of T -> distance(T, nbar) on the bracket, by `_kernels.argmin_rounds`.

    Delta is convex in T (dDelta/dT = S_Gibbs(T) - S_probe), so sampling
    rounds of the kernel narrow the bracket to b - a <= rel_tol a.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:  # also false for NaN
        raise BracketError(f"invalid bracket {bracket}: need finite 0 < lo < hi")
    if not 0.0 < rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and positive, got {rel_tol}")
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar <= 0.0:
        raise DomainError("nbar must be positive")
    _require_convergent(cfg)
    h = amplifier_hamiltonian(cfg)
    form = (np.array([nbar]), h.k0_coefficient, h.effective_frequency, h.omega2.imag)
    # Looked up per call, so a replaced kernel (tracing, tests) is the one run.
    t_star = _kernels.argmin_rounds(
        lambda temps: _kernels.amplifier_delta_cells(temps, *form)[:, 0], lo, hi, rel_tol)
    edge = rel_tol * max(t_star, 1.0) * 4.0
    if t_star - lo < edge or hi - t_star < edge:
        raise BracketError("distance is monotone on the bracket (minimum at an end)")
    return t_star
