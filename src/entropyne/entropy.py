"""Relative entropies and the thermodynamic distance parameter.

Implements the von Neumann relative entropy, its one-parameter (Tsallis)
deformation S_q = (1 - Tr(rho^q sigma^{1-q}))/(1-q), the Taylor expansion of
S_{1+delta} around delta = 0, and the distance parameter

    delta = E - T*S + T*lnZ = T * S_vn(rho || gibbs(H, T)),

which is >= 0 for T > 0 and <= 0 for T < 0, with equality iff rho is the
thermal state of (H, T).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidState,
    DimensionMismatch,
    UnsupportedQ,
    SupportDeficient,
    ZeroTemperature,
)
from .hermitian import eigendecompose, log_trace_exp

SUPPORT_EPS = 1e-12
# Probability mass tolerated outside sigma's support before returning +inf.
KERNEL_MASS_TOL = 1e-10


def _density_eig(rho: np.ndarray, trace_tol: float = 1e-10, neg_tol: float = 1e-10):
    dec = eigendecompose(rho)
    tr = dec.eigenvalues.sum()
    if abs(tr - 1.0) > trace_tol:
        raise InvalidState(f"trace {tr} is not 1")
    if dec.eigenvalues.min() < -neg_tol:
        raise InvalidState(f"negative eigenvalue {dec.eigenvalues.min():.3e}")
    return dec


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr(rho ln rho) in nats, with the x ln x -> 0 convention."""
    w = _density_eig(rho).eigenvalues
    w = np.clip(w, 0.0, None)
    pos = w[w > 0.0]
    return float(-(pos * np.log(pos)).sum())


def relative_entropy_vn(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Tr(rho (ln rho - ln sigma)); +inf when supp(rho) is not in supp(sigma)."""
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"{rho.shape} vs {sigma.shape}")
    dr = _density_eig(rho)
    ds = _density_eig(sigma)
    mu = np.clip(ds.eigenvalues, 0.0, None)
    kernel = mu <= SUPPORT_EPS
    if kernel.any():
        vk = ds.eigenvectors[:, kernel]
        mass = float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, rho, vk)))
        if mass > KERNEL_MASS_TOL:
            return float("inf")
    lam = np.clip(dr.eigenvalues, 0.0, None)
    pos = lam > 0.0
    s_rho = float((lam[pos] * np.log(lam[pos])).sum())
    # Tr(rho ln sigma) on sigma's support; rho has negligible kernel mass.
    overlap = np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2
    lnmu = np.zeros_like(mu)
    lnmu[~kernel] = np.log(mu[~kernel])
    cross = float(lam @ overlap @ lnmu)
    return s_rho - cross


def tsallis_relative_entropy(rho: np.ndarray, sigma: np.ndarray, q: float) -> float:
    """S_q = (1 - Tr(rho^q sigma^{1-q}))/(1-q) for q > 0, q != 1."""
    if q <= 0.0 or q == 1.0:
        raise UnsupportedQ(f"q must be positive and != 1, got {q}")
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"{rho.shape} vs {sigma.shape}")
    dr = _density_eig(rho)
    ds = _density_eig(sigma)
    lam = np.clip(dr.eigenvalues, 0.0, None)
    mu = np.clip(ds.eigenvalues, 0.0, None)
    kernel = mu <= SUPPORT_EPS
    if q > 1.0 and kernel.any():
        vk = ds.eigenvectors[:, kernel]
        mass = float(np.real(np.einsum("ij,jk,ki->", vk.conj().T, rho, vk)))
        if mass > KERNEL_MASS_TOL:
            return float("inf")
    overlap = np.abs(dr.eigenvectors.conj().T @ ds.eigenvectors) ** 2
    # sigma^{1-q} evaluated on sigma's support only.
    mu_pow = np.zeros_like(mu)
    mu_pow[~kernel] = mu[~kernel] ** (1.0 - q)
    trace_term = float((lam**q) @ overlap @ mu_pow)
    return (1.0 - trace_term) / (1.0 - q)


@dataclass(frozen=True)
class TsallisSeries:
    """Coefficients of S_{1+delta} = order0 + order1*delta + order2*delta^2 + O(delta^3)."""

    order0: float
    order1: float
    order2: float

    def evaluate(self, delta: float) -> float:
        return self.order0 + self.order1 * delta + self.order2 * delta * delta


def tsallis_series(rho: np.ndarray, sigma: np.ndarray) -> TsallisSeries:
    """Taylor coefficients of S_{1+delta} in delta for full-support states."""
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"{rho.shape} vs {sigma.shape}")
    dr = _density_eig(rho)
    ds = _density_eig(sigma)
    if dr.eigenvalues.min() <= 1e-14 or ds.eigenvalues.min() <= 1e-14:
        raise SupportDeficient("both states must have full support")
    vr, vs = dr.eigenvectors, ds.eigenvectors
    log_r = (vr * np.log(dr.eigenvalues)) @ vr.conj().T
    log_s = (vs * np.log(ds.eigenvalues)) @ vs.conj().T
    a = log_r - log_s
    order0 = float(np.real(np.trace(rho @ a)))
    order1 = 0.5 * float(np.real(np.trace(rho @ a @ a)))
    comm = log_r @ log_s - log_s @ log_r
    order2 = (
        float(np.real(np.trace(rho @ a @ a @ a)))
        + float(np.real(np.trace(rho @ comm @ log_s)))
    ) / 6.0
    return TsallisSeries(order0=order0, order1=order1, order2=order2)


@dataclass(frozen=True)
class DeltaRecord:
    """Energy, entropy, log-partition, temperature and the distance parameter."""

    energy: float
    entropy: float
    log_partition: float
    temperature: float
    delta: float


def delta_from_scalars(energy: float, entropy: float, log_partition: float,
                       temperature: float) -> DeltaRecord:
    if temperature == 0.0:
        raise ZeroTemperature("T = 0 is not supported")
    for name, value in (("energy", energy), ("entropy", entropy),
                        ("log_partition", log_partition)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    delta = energy - temperature * entropy + temperature * log_partition
    return DeltaRecord(energy=energy, entropy=entropy,
                       log_partition=log_partition,
                       temperature=temperature, delta=delta)


def delta_from_operators(rho: np.ndarray, h: np.ndarray,
                         temperature: float) -> DeltaRecord:
    """DeltaRecord from explicit (state, Hamiltonian, T) matrices."""
    if rho.shape != h.shape:
        raise DimensionMismatch(f"{rho.shape} vs {h.shape}")
    energy = float(np.real(np.trace(rho @ h)))
    entropy = von_neumann_entropy(rho)
    log_z = log_trace_exp(h, temperature)
    return delta_from_scalars(energy, entropy, log_z, temperature)
