"""Relative entropies and the thermodynamic distance parameter.

Implements the von Neumann relative entropy, its one-parameter (Tsallis)
deformation S_q = (1 - Tr(rho^q sigma^{1-q}))/(1-q), the Taylor expansion of
S_{1+delta} around delta = 0, and the distance parameter

    delta = E - T*S + T*lnZ = T * S_vn(rho || gibbs(H, T)),

which is >= 0 for T > 0 and <= 0 for T < 0, with equality iff rho is the
thermal state of (H, T).  The closed forms' records and grids share one
kernel, `_kernels.delta_cells`; `delta_from_operators` is the independent
operator reference and writes its own sum.

Each relative entropy is one sum over the eigenpairs (i, j) of rho and sigma,
with weights w_ij = lam_i |<r_i|s_j>|^2 and log ratios a_ij = ln lam_i - ln mu_j:
S_vn = sum w a, S_q = sum w expm1((q-1) a)/(q-1), and order k of the series in
delta = q - 1 is sum w a^{k+1}/(k+1)!.  No difference is divided by q - 1, and
the sums take sum w = 1: S_q is that of the states normalised to unit trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, InvalidState, NumericalFailure, SupportDeficient,
                     UnsupportedQ)
from .hermitian import eigendecompose, log_trace_exp

SUPPORT_EPS = 1e-12
# Probability mass tolerated outside sigma's support before returning +inf.
KERNEL_MASS_TOL = 1e-10
# Tolerated deviation of a density matrix's trace from 1, and of its
# eigenvalues below 0.
STATE_TOL = 1e-10


def _density_eig(rho: np.ndarray):
    dec = eigendecompose(rho)
    tr = dec.eigenvalues.sum()
    if abs(tr - 1.0) > STATE_TOL:
        raise InvalidState(f"trace {tr} is not 1")
    if dec.eigenvalues.min() < -STATE_TOL:
        raise InvalidState(f"negative eigenvalue {dec.eigenvalues.min():.3e}")
    return dec


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho ln rho) in nats, with the x ln x -> 0 convention."""
    w = np.clip(_density_eig(rho).eigenvalues, 0.0, None)
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())


def _pair_spectrum(rho: np.ndarray, sigma: np.ndarray):
    """The eigenpair weights and log ratios that every relative entropy sums.

    Returns (w, a, lam, mu, escapes): w_ij = lam_i |<r_i|s_j>|^2, a_ij = ln lam_i
    - ln mu_j (ln lam_i := 0 where lam_i = 0, ln mu_j := 0 on sigma's kernel),
    the clipped eigenvalues, and whether rho puts > KERNEL_MASS_TOL on the kernel.
    """
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"{rho.shape} vs {sigma.shape}")
    dr, ds = _density_eig(rho), _density_eig(sigma)
    lam, mu = np.clip(dr.eigenvalues, 0.0, None), np.clip(ds.eigenvalues, 0.0, None)
    kernel = mu <= SUPPORT_EPS
    vk = ds.eigenvectors[:, kernel]
    escapes = np.real(np.einsum("ij,jk,ki->", vk.conj().T, rho, vk)) > KERNEL_MASS_TOL
    w = lam[:, None] * np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2
    ln_lam = np.log(lam, out=np.zeros_like(lam), where=lam > 0.0)
    ln_mu = np.log(mu, out=np.zeros_like(mu), where=~kernel)
    return w, ln_lam[:, None] - ln_mu, lam, mu, escapes


def relative_entropy_vn(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr(rho (ln rho - ln sigma)); +inf when supp(rho) is not in supp(sigma)."""
    w, a, _, _, escapes = _pair_spectrum(rho, sigma)
    return float("inf") if escapes else float((w * a).sum())


def _tsallis(w, a, mu, escapes, q: float) -> float:
    if q > 1.0 and escapes:
        return float("inf")
    # Past the double range a term or the sum reads +inf; that is raised below.
    with np.errstate(over="ignore"):
        x = (q - 1.0) * a
        terms = w * np.expm1(np.minimum(x, 700.0))
        # A subnormal lam_i or a large q takes x past 700, where e^x overflows.
        big = (x > 700.0) & (w > 0.0)
        terms[big] = np.exp(np.log(w[big]) + x[big]) - w[big]
        # sigma^{1-q} on sigma's support only: a kernel column's term is w (0 - 1).
        kernel = mu <= SUPPORT_EPS
        terms[:, kernel] = -w[:, kernel]
        value = float(terms.sum()) / (q - 1.0)
    if not np.isfinite(value):
        raise NumericalFailure(f"S_q overflows a double at q = {q:.17g}")
    return value


def tsallis_relative_entropy(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """S_q = (1 - Tr(rho^q sigma^{1-q}))/(1-q) for 0 < q < inf, q != 1.

    +inf exactly when q > 1 and supp(rho) is not in supp(sigma); a finite S_q
    past the double range raises NumericalFailure.
    """
    if not 0.0 < q < float("inf") or q == 1.0:
        raise UnsupportedQ(f"q must be positive, finite and != 1, got {q}")
    w, a, _, mu, escapes = _pair_spectrum(rho, sigma)
    return _tsallis(w, a, mu, escapes, q)


@dataclass(frozen=True)
class TsallisSeries:
    """Coefficients of S_{1+delta} = order0 + order1*delta + order2*delta^2 + O(delta^3)."""

    order0: float
    order1: float
    order2: float

    def evaluate(self, delta: float) -> float:
        return self.order0 + self.order1 * delta + self.order2 * delta * delta


def _series(w, a, lam, mu) -> TsallisSeries:
    if lam.min() <= 1e-14 or mu.min() <= SUPPORT_EPS:
        raise SupportDeficient("both states must have full support")
    return TsallisSeries(order0=float((w * a).sum()),
                         order1=float((w * a**2).sum()) / 2.0,
                         order2=float((w * a**3).sum()) / 6.0)


def tsallis_series(rho: np.ndarray, sigma: np.ndarray) -> TsallisSeries:
    """Taylor coefficients of S_{1+delta} in delta for full-support states."""
    return _series(*_pair_spectrum(rho, sigma)[:4])


# The deltas of `tsallis --delta-series` and of verify's series family.
SERIES_DELTAS = (1e-1, 10**-1.5, 1e-2, 10**-2.5)
# Residuals within this many ulps of sum w (|ln lam| + |ln mu|) are rounding.
RESIDUAL_FLOOR_ULPS = 64


@dataclass(frozen=True)
class SeriesReport:
    """The series, each S_{1+delta}, and the residuals' log-log slope (or None)."""

    series: TsallisSeries
    values: tuple[float, ...]
    slope: float | None


def tsallis_series_report(rho: np.ndarray, sigma: np.ndarray, deltas) -> SeriesReport:
    """The series and each S_{1+delta} from one pair spectrum; no slope for
    fewer than two distinct deltas, or when a residual is infinite or at the floor."""
    w, a, lam, mu, escapes = _pair_spectrum(rho, sigma)
    series = _series(w, a, lam, mu)
    values = tuple(_tsallis(w, a, mu, escapes, 1.0 + d) for d in deltas)
    resid = np.abs([s - series.evaluate(d) for s, d in zip(values, deltas)])
    scale = float((w * (np.abs(np.log(lam))[:, None] + np.abs(np.log(mu)))).sum())
    floor = RESIDUAL_FLOOR_ULPS * np.finfo(float).eps * scale
    slope = None
    if len(set(deltas)) >= 2 and floor < resid.min() and resid.max() < np.inf:
        slope = float(np.polyfit(np.log(deltas), np.log(resid), 1)[0])
    return SeriesReport(series=series, values=values, slope=slope)


@dataclass(frozen=True)
class DeltaRecord:
    """Energy, entropy, log-partition, temperature and the distance parameter."""

    energy: float
    entropy: float
    log_partition: float
    temperature: float
    delta: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta):
            raise NumericalFailure(f"Delta = {self.delta} at T = {self.temperature}: not a double")


def delta_from_operators(rho: np.ndarray, h: np.ndarray,
                         temperature: float) -> DeltaRecord:
    """DeltaRecord from explicit (state, Hamiltonian, T) matrices."""
    if rho.shape != h.shape:
        raise DimensionMismatch(f"{rho.shape} vs {h.shape}")
    energy = float(np.real(np.trace(rho @ h)))
    entropy = von_neumann_entropy(rho)
    log_z = log_trace_exp(h, temperature)
    delta = energy - temperature * entropy + temperature * log_z
    return DeltaRecord(energy, entropy, log_z, temperature, delta)
