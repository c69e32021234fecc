"""Degenerate parametric amplifier worked example.

The amplifier Hamiltonian w0(adag a + 1/2) - k(adag^2 e^{-iwt} + a^2 e^{iwt})
is frozen at a caller-supplied time t; `amplifier_hamiltonian` maps it to
quadratic-form coefficients.  Against thermal light of mean photon number
nbar, the distance depends on w0 and k alone, whatever t and w: the probe's
energy per quantum is k0 = w0 w1 + w3/w0 = w0, and the Gibbs state is an
oscillator of frequency `effective_frequency(cfg)`.  The (T, nbar) surface
has its per-nbar minimum where the amplifier's Gibbs entropy matches the
probe's.  The surface and the minimizer (`_kernels.argmin_rounds`, the
package's one) both evaluate `_kernels.amplifier_delta_cells` on w0, omega_eff.
The input rules are `_kernels`': `require_finite`, `check_nbar` (the minimizer
adds nbar > 0) and `check_temperature` (`nbar_from_temperature` adds T' > 0).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import BracketError, DivergentPartition, DomainError, NumericalFailure
from .gaussian import CovarianceState, QuadraticHamiltonian
from .grids import DeltaGrid, GridSpec

# Relative bracket width at which delta_argmin_temperature stops: ten times
# below the 1e-5 to which criterion 9a checks T* against its closed form.
_ARGMIN_REL_TOL = 1e-6


@dataclass(frozen=True)
class AmplifierConfig:
    omega0: float = 1.0   # signal frequency
    omega: float = 3.0    # pump frequency
    k: float = 0.1        # interaction constant
    t: float = 0.0        # frozen time
    omega_t: float = 1.0  # thermal-light mode frequency

    def __post_init__(self) -> None:
        _kernels.require_finite(self, ValueError)
        if not self.omega0 > 0.0:
            raise ValueError("omega0 must be positive")
        if not self.omega_t > 0.0:
            raise ValueError("omega_t must be positive")
        if not self.k >= 0.0:
            raise ValueError("k must be >= 0")


@dataclass(frozen=True)
class ThermalLight:
    nbar: float

    def __post_init__(self) -> None:
        _kernels.check_nbar(self.nbar)


def amplifier_hamiltonian(cfg: AmplifierConfig) -> QuadraticHamiltonian:
    """Quadratic-form coefficients of the amplifier at the frozen time."""
    c = math.cos(cfg.omega * cfg.t)
    s = math.sin(cfg.omega * cfg.t)
    return QuadraticHamiltonian(
        omega0=cfg.omega0,
        omega1=0.5 + (cfg.k / cfg.omega0) * c,
        omega2=complex(cfg.k * s, 0.0),
        omega3=cfg.omega0 * cfg.omega0 / 2.0 - cfg.k * cfg.omega0 * c,
    )


def effective_frequency(cfg: AmplifierConfig) -> float:
    """omega_eff = sqrt(omega0^2 - 4k^2), the same at every frozen time.

    Raises DivergentPartition unless 2k < omega0, an exact comparison.  The
    factors omega0 -+ 2k are rooted apart, so omega0^2 is never formed and
    omega0 - 2k is exact near the marginal case.  Only where omega0 + 2k
    overflows are the quartered factors rooted and the product scaled by 4.
    """
    if 2.0 * cfg.k >= cfg.omega0:
        raise DivergentPartition(
            f"k = {cfg.k} >= omega0/2 = {cfg.omega0 / 2.0}: "
            "no convergent partition function"
        )
    if math.isfinite(cfg.omega0 + 2.0 * cfg.k):
        return math.sqrt(cfg.omega0 - 2.0 * cfg.k) * math.sqrt(cfg.omega0 + 2.0 * cfg.k)
    quarter, half_k = cfg.omega0 / 4.0, cfg.k / 2.0
    return 4.0 * math.sqrt(quarter - half_k) * math.sqrt(quarter + half_k)


def thermal_light_covariance(tl: ThermalLight, omega0: float) -> CovarianceState:
    """sigma = ((1+2 nbar)/2) diag(w0, 1/w0) with zero means."""
    if not 0.0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0}")
    scale = (1.0 + 2.0 * tl.nbar) / 2.0
    return CovarianceState(
        sigma_pp=scale * omega0,
        sigma_qq=scale / omega0,
        sigma_pq=0.0,
    )


def nbar_from_temperature(t_prime: float, omega_t: float) -> float:
    """Mean photon number 1/(e^{omega_t/T'} - 1) of light generated at 0 < T' < inf.

    NumericalFailure where nbar, about T'/omega_t, is past the double range.
    """
    _kernels.check_temperature(t_prime, "T'")
    if t_prime < 0.0:
        raise DomainError(f"T' must be positive, got {t_prime}")
    if not 0.0 < omega_t < math.inf:
        raise DomainError(f"omega_t must be positive and finite, got {omega_t}")
    x = omega_t / t_prime
    if x > 700.0:  # expm1 overflows; n_bar is e^{-x} to double precision
        return math.exp(-x)
    if x * sys.float_info.max < 1.0:  # 1/expm1(x) = 1/x overflows, or x underflowed to 0
        raise NumericalFailure(f"nbar at T' = {t_prime}, omega_t = {omega_t} "
                               "is past the double range")
    return 1.0 / math.expm1(x)


def amplifier_delta_surface(cfg: AmplifierConfig, T_range: GridSpec,
                            nbar_range: GridSpec) -> DeltaGrid:
    """Distance parameter over (T, nbar), with a per-nbar argmin marker column:
    1 at the T row minimizing the distance for that nbar, 0 elsewhere.  The
    markers are int8, one byte per cell.

    Raises DivergentPartition when the form has no partition function, and
    NumericalFailure when a cell overflows a double.
    """
    temps = T_range.values()
    nbars = nbar_range.values()
    if temps.min() <= 0.0:
        raise DomainError("temperature range must be strictly positive")
    if nbars.min() < 0.0:
        raise DomainError("nbar range must be nonnegative")
    cells = _kernels.amplifier_delta_cells(temps, nbars, cfg.omega0, effective_frequency(cfg))
    # A convergent form's cells are finite unless T ln Z or 1/T passes 1.8e308,
    # and DeltaGrid rejects such a grid before any cell is marked.
    surface = DeltaGrid(axis1_name="T", axis2_name="nbar", axis1_values=temps,
                        axis2_values=nbars, cells=cells)
    surface.markers = _argmin_markers(cells)
    return surface


def _argmin_markers(cells: np.ndarray) -> np.ndarray:
    """1 at the row of each column's smallest cell (the first on a tie), 0
    elsewhere; the cells are finite, as DeltaGrid checks.  The
    markers are int8: a 0/1 flag needs one byte, not the eight of int64.

    np.unique keeps each column's first hit of its minimum in row-major order,
    i.e. its lowest row; a column-wise np.argmin would copy the whole array.
    """
    column_min = cells.min(axis=0)
    rows, cols = np.divmod(np.flatnonzero(cells == column_min), cells.shape[1])
    cols, first = np.unique(cols, return_index=True)
    markers = np.zeros(cells.shape, dtype=np.int8)
    markers[rows[first], cols] = 1
    return markers


def delta_argmin_temperature(cfg: AmplifierConfig, nbar: float,
                             bracket: tuple[float, float]) -> float:
    """Minimizer of T -> distance(T, nbar) on the bracket, by `_kernels.argmin_rounds`.

    Delta is convex in T (dDelta/dT = S_Gibbs(T) - S_probe), so sampling
    rounds of the kernel narrow the bracket to b - a <= _ARGMIN_REL_TOL a.
    """
    lo, hi = bracket
    if not 0.0 < lo < hi < math.inf:  # also false for NaN
        raise BracketError(f"invalid bracket {bracket}: need finite 0 < lo < hi")
    _kernels.check_nbar(nbar)
    if nbar == 0.0:
        raise DomainError("nbar must be positive")
    form = (np.array([nbar]), cfg.omega0, effective_frequency(cfg))
    # Looked up per call, so a replaced kernel (tracing, tests) is the one run.
    t_star = _kernels.argmin_rounds(
        lambda temps: _kernels.amplifier_delta_cells(temps, *form)[:, 0], lo, hi,
        _ARGMIN_REL_TOL)
    edge = _ARGMIN_REL_TOL * max(t_star, 1.0) * 4.0
    if t_star - lo < edge or hi - t_star < edge:
        raise BracketError("distance is monotone on the bracket (minimum at an end)")
    return t_star
