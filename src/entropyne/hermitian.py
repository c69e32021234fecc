"""Finite-dimensional complex Hermitian linear algebra.

Matrices are plain complex numpy arrays.  All spectral machinery (matrix
functions, thermal states) is eigendecomposition-backed; this module is the
computational substrate for the entropy routines and the Fock-space oracle.
scipy.linalg is imported on first use, inside eigendecompose, so that the
closed forms and the grid CLI, which import this module, load numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotHermitian, NumericalFailure, DomainError, ZeroTemperature

HERMITICITY_TOL = 1e-12


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and return m as a square complex Hermitian array.

    Raises NotHermitian if the max off-symmetry entry exceeds tol.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    asym = np.abs(m - m.conj().T).max()
    if asym > tol:
        raise NotHermitian(f"max off-symmetry entry {asym:.3e} exceeds {tol:.1e}")
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (ascending) and the unitary eigenvector matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eigendecompose(m: np.ndarray) -> SpectralDecomposition:
    import scipy.linalg

    m = check_hermitian(m)
    try:
        w, v = scipy.linalg.eigh(m)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_function(
    m: np.ndarray,
    f: Callable[[np.ndarray], np.ndarray],
    support_policy: str = "strict",
    support_eps: float = 1e-14,
) -> np.ndarray:
    """Evaluate f spectrally: V diag(f(lambda)) V†.

    support_policy:
        "strict"  -- f must be defined on every eigenvalue; a non-finite
                     f(lambda) raises DomainError.
        "project" -- eigenvalues with |lambda| <= support_eps are projected
                     out (their rows/columns map to zero); f is only applied
                     on the remaining support.
    """
    if support_policy not in ("strict", "project"):
        raise ValueError(f"unknown support_policy {support_policy!r}")
    dec = eigendecompose(m)
    w = dec.eigenvalues
    if support_policy == "project":
        keep = np.abs(w) > support_eps
        fw = np.zeros_like(w)
        with np.errstate(all="ignore"):
            fw[keep] = f(w[keep])
    else:
        with np.errstate(all="ignore"):
            fw = np.asarray(f(w), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise DomainError("f is not finite on the spectrum under the strict policy")
    v = dec.eigenvectors
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def gibbs_state(h: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal state e^{-H/T} / Tr(e^{-H/T}).

    T may be negative (bounded spectra); T = 0 is rejected.  The spectrum is
    shifted before exponentiation so the largest Boltzmann weight is 1,
    which avoids overflow for large |H|/T.
    """
    if temperature == 0.0:
        raise ZeroTemperature("T = 0 is not supported")
    dec = eigendecompose(h)
    x = -dec.eigenvalues / temperature
    x = x - x.max()
    weights = np.exp(x)
    weights /= weights.sum()
    v = dec.eigenvectors
    rho = (v * weights) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def log_trace_exp(h: np.ndarray, temperature: float) -> float:
    """ln Tr(e^{-H/T}), stabilized by shifting the spectrum."""
    if temperature == 0.0:
        raise ZeroTemperature("T = 0 is not supported")
    w = eigendecompose(h).eigenvalues
    x = -w / temperature
    m = x.max()
    return float(m + np.log(np.exp(x - m).sum()))


def random_density_matrix(dim: int, seed: int) -> np.ndarray:
    """Seeded Ginibre density matrix: G G† / Tr(G G†)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(dim: int, seed: int, scale: float = 1.0) -> np.ndarray:
    """Seeded random Hermitian matrix with N(0, scale) entries."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)
