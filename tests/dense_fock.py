"""Dense ladder-operator reference for the number-basis oracle, tests only.

H = w1 p^2 + w2 p q + w2* q p + w3 q^2 built from explicit truncated ladder
matrices and solved by dense eigendecomposition.  It is the route that
entropyne.fock does not take: the tests compare fock's analytic bands and
parity blocks against it.
"""

from dataclasses import dataclass

import numpy as np

from entropyne.gaussian import QuadraticHamiltonian
from entropyne.hermitian import check_hermitian


@dataclass(frozen=True)
class FockTruncation:
    n_max: int
    omega0: float

    def __post_init__(self) -> None:
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")


def annihilation_matrix(n_max: int) -> np.ndarray:
    a = np.zeros((n_max, n_max), dtype=complex)
    for n in range(1, n_max):
        a[n - 1, n] = np.sqrt(n)
    return a


def ladder_matrices(tr: FockTruncation) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature matrices (p, q) with p = i sqrt(w0/2)(adag - a), q = (a+adag)/sqrt(2 w0)."""
    a = annihilation_matrix(tr.n_max)
    ad = a.conj().T
    p = 1j * np.sqrt(tr.omega0 / 2.0) * (ad - a)
    q = (a + ad) / np.sqrt(2.0 * tr.omega0)
    return p, q


def quadratic_hamiltonian_matrix(h: QuadraticHamiltonian,
                                 tr: FockTruncation) -> np.ndarray:
    """H = w1 p^2 + w2 p q + w2* q p + w3 q^2 as an explicit matrix.

    Written as w1 p^2 + Re w2 (p q + q p) + Im w2 + w3 q^2, which uses
    [p, q] = -i exactly: the truncated p q - q p is wrong in its last
    diagonal entry, which would shift the last level by about -Im w2 N.
    """
    if tr.omega0 != h.omega0:
        raise ValueError("truncation and Hamiltonian must share omega0")
    p, q = ladder_matrices(tr)
    m = h.omega1 * (p @ p) + h.omega2.real * (p @ q + q @ p) \
        + h.omega2.imag * np.eye(tr.n_max) + h.omega3 * (q @ q)
    return check_hermitian(m, tol=1e-10)


def truncated_partition(hm: np.ndarray, beta: float) -> tuple[float, float]:
    """Sum of e^{-beta lambda} over the truncated spectrum.

    Returns (value, last_level_contribution); the second entry is the
    truncation-error estimate.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    w = np.linalg.eigvalsh(hm)
    terms = np.exp(-beta * w)
    return float(terms.sum()), float(terms[-1])


def exponential_diagonal(hm: np.ndarray, beta: float) -> np.ndarray:
    """Diagonal of e^{-beta H} via dense eigendecomposition."""
    w, v = np.linalg.eigh(hm)
    return np.einsum("nk,k,nk->n", v, np.exp(-beta * w), v.conj()).real
