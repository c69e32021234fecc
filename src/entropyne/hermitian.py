"""Finite-dimensional complex Hermitian linear algebra.

Matrices are plain complex numpy arrays.  All spectral machinery (matrix
functions, thermal states) is eigendecomposition-backed; this module is the
computational substrate for the entropy routines and the Fock-space oracle.
Every solve is numpy.linalg.eigh, so this module loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotHermitian, NumericalFailure, DomainError, ZeroTemperature

HERMITICITY_TOL = 1e-12


def check_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and return m as a square complex Hermitian array.

    Raises NotHermitian if an entry is not finite or the max off-symmetry
    entry exceeds tol.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitian(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():  # a NaN asymmetry would pass the test below
        raise NotHermitian("matrix has a non-finite entry")
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
    m = check_hermitian(m)
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_function(m: np.ndarray, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Evaluate f spectrally: V diag(f(lambda)) V†.

    f must be finite on every eigenvalue; otherwise DomainError is raised.
    """
    dec = eigendecompose(m)
    with np.errstate(all="ignore"):
        fw = np.asarray(f(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(fw)):
        raise DomainError("f is not finite on the spectrum")
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


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    """Seeded random Hermitian matrix with N(0, 1) entries."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)
