"""Brute-force verification layer: truncated number-basis matrices and
quadrature moments of Gaussian kernels.

Everything here recomputes the closed forms of the gaussian module by an
independent route: truncated number-basis traces for partition functions,
and deterministic quadrature of the position kernel for moments.  The
traces in stable_partition split the exact ladder matrix elements by
parity into two real symmetric tridiagonal blocks, solved with
numpy.linalg.eigvalsh, from N_START = 112 levels up in steps of N_STEP = 16.
The levels that carry e^{-beta lambda} above 1e-12 of Z are exact in such
blocks: every form with beta * omega_eff >= 0.8 and |Re omega2| <= 0.6
sqrt(omega1 omega3) settles at the first three sizes, so a trace of such a
form costs the same whichever it is; hotter or more squeezed forms grow
further.  boltzmann_diagonal reads <n|e^{-beta H}|n> off the eigenvectors
of the same blocks in the number basis of frequency omega0.  The dense
ladder-operator products of the same H stay in the tests, as the
independent check of these bands.  The kernel convention is
rho(x, y) = <x|rho|y> with

    <x|rho|y> = N exp(-a1* x^2 - a1 y^2 + a2 x y + b1* x + b1 y),

the assignment that reproduces the closed-form covariance entries.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .errors import QuadratureUnstable, TruncationUnstable
from .gaussian import GaussianParams, QuadraticHamiltonian, normalization

# Truncation sizes of stable_partition: N_START, N_START + N_STEP, ...  Its
# n_cap is at least N_CAP_MIN, the lower size of the second step (the first
# step that can converge), and at most N_CAP_MAX, since each solve is a
# dense parity block.
N_START = 112
N_STEP = 16
N_CAP_MIN = N_START + N_STEP
N_CAP_MAX = 1000
# kernel_moments' trapezoid rule: first node count, half-width in kernel
# standard deviations, and the moment drift that ends its node doublings.
MOMENT_NODES = 3201
MOMENT_HALF_WIDTH_SIGMAS = 12.0
MOMENT_STABILITY_TOL = 1e-10
MOMENT_MAX_DOUBLINGS = 4


def number_basis_bands(h: QuadraticHamiltonian, w: float,
                       n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """H's two nonzero bands on the lowest n_max levels of the number basis of
    frequency w: diag[n] = H_nn and off[n] = |H_{n,n+2}|.

    In that basis

        H = (n + 1/2)(omega1 w + omega3/w) + Im omega2 + c adag^2 + c* a^2,
        c = (omega3/w - omega1 w)/2 + i Re omega2,

    so H couples |n> only to |n +- 2>, with |c| sqrt((n+1)(n+2)).  These are
    the entries of the untruncated H: a truncated product of ladder matrices
    (the tests' dense reference) differs in its last diagonal entry.
    """
    n = np.arange(n_max, dtype=float)
    diag = (n + 0.5) * (h.omega1 * w + h.omega3 / w) + h.omega2.imag
    c = complex((h.omega3 / w - h.omega1 * w) / 2.0, h.omega2.real)
    off = abs(c) * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    return diag, off


def _parity_blocks(h: QuadraticHamiltonian, w: float, n_max: int) -> np.ndarray:
    """H on the lowest n_max (even) levels of the number basis of frequency w,
    as two stacked real symmetric blocks of n_max/2 rows.

    By number_basis_bands the even-n and odd-n levels form two Hermitian
    tridiagonal blocks, and a diagonal phase gauge makes their off-diagonals
    |H_{n,n+2}|.  numpy.linalg.eigvalsh and eigh read only the lower
    triangle, so only the diagonal and the subdiagonal are filled.  Block p
    holds the levels of parity p.
    """
    diag, off = number_basis_bands(h, w, n_max)
    m = n_max // 2
    blocks = np.zeros((2, m * m))
    blocks[:, ::m + 1] = diag.reshape(m, 2).T
    blocks[:, m::m + 1] = off.reshape(m - 1, 2).T
    return blocks.reshape(2, m, m)


def _matched_basis_spectrum(h: QuadraticHamiltonian, n_max: int) -> np.ndarray:
    """Sorted spectrum of H on the lowest n_max (even) levels of the matched basis.

    The spectrum does not depend on the basis scale, so the number basis of
    frequency w = sqrt(omega3/omega1) is used: it minimizes the squeezing
    between basis and Hamiltonian and with it the truncation edge artifacts.
    Both parity blocks go to one stacked numpy.linalg.eigvalsh call.
    """
    blocks = _parity_blocks(h, np.sqrt(h.omega3 / h.omega1), n_max)
    return np.sort(np.linalg.eigvalsh(blocks), axis=None)


def boltzmann_diagonal(h: QuadraticHamiltonian, beta: float,
                       n_max: int) -> np.ndarray:
    """<n|e^{-beta H}|n> for n < n_max (even, >= 2) in the number basis of
    frequency omega0, from numpy.linalg.eigh of the two parity blocks.

    The phase gauge of _parity_blocks is diagonal, so it leaves the diagonal
    of e^{-beta H} unchanged.  Levels near n_max carry the truncation error.
    """
    if n_max < 2 or n_max % 2:
        raise ValueError(f"n_max must be even and >= 2, got {n_max}")
    w, v = np.linalg.eigh(_parity_blocks(h, h.omega0, n_max))
    # Row p holds the diagonal at the levels of parity p: n = 2j + p.
    return np.einsum("pjk,pk->pj", v * v, np.exp(-beta * w)).T.reshape(n_max)


def stable_partition(h: QuadraticHamiltonian, beta: float,
                     n_cap: int = 500) -> float:
    """Truncated trace grown by N_STEP from N_START until it changes by < 1e-10.

    Each trace keeps only the eigenvalues that agree between two truncation
    sizes: a truncated basis carries a handful of spurious edge levels that
    drift with the basis size, while the genuine low-lying spectrum is
    frozen.  Each size's spectrum is computed once and reused as the lower
    size of the next step.  n_cap, the largest lower size of a step, lies
    in [N_CAP_MIN, N_CAP_MAX]: convergence compares the sums of two steps,
    and the blocks are dense, so memory grows as n_cap^2.
    """
    if beta <= 0.0:
        raise ValueError("beta must be positive")
    if not N_CAP_MIN <= n_cap <= N_CAP_MAX:
        raise ValueError(f"n_cap must be in [{N_CAP_MIN}, {N_CAP_MAX}], got {n_cap}")
    if h.omega1 * h.omega3 <= 0.0:
        raise ValueError(
            f"no matched number basis for {h}: omega1*omega3 must be positive"
        )
    n = N_START
    z_prev = None
    w_hi = _matched_basis_spectrum(h, n)
    while n <= n_cap:
        w_lo, w_hi = w_hi, _matched_basis_spectrum(h, n + N_STEP)
        n += N_STEP
        idx = np.searchsorted(w_hi, w_lo)
        idx_lo = np.clip(idx - 1, 0, len(w_hi) - 1)
        idx_hi = np.clip(idx, 0, len(w_hi) - 1)
        nearest = np.minimum(np.abs(w_hi[idx_lo] - w_lo), np.abs(w_hi[idx_hi] - w_lo))
        stable = w_lo[nearest <= 1e-8 * (1.0 + np.abs(w_lo))]
        if len(stable) == 0:
            continue
        with np.errstate(over="ignore"):
            terms = np.exp(-beta * stable)
        z = float(terms.sum())
        if not np.isfinite(z):
            # A spectrum unbounded below (negative-definite form) overflows
            # here; an infinite sum must not pass the relative-change test.
            raise TruncationUnstable(
                f"partition sum overflows by n_max = {n} (beta = {beta})"
            )
        if terms[-1] <= 1e-12 * z:
            if z_prev is not None and abs(z - z_prev) <= 1e-10 * abs(z):
                return z
            z_prev = z
    raise TruncationUnstable(
        f"partition sum not stable by n_max = {n_cap} (beta = {beta})"
    )


def thermal_light_fock(nbar: float, n_max: int) -> np.ndarray:
    """Truncated geometric photon-number state diag(nbar^n / (1+nbar)^{n+1})."""
    if nbar < 0.0:
        raise ValueError("nbar must be >= 0")
    n = np.arange(n_max)
    if nbar == 0.0:
        probs = np.zeros(n_max)
        probs[0] = 1.0
    else:
        probs = np.exp(n * np.log(nbar) - (n + 1) * np.log(1.0 + nbar))
    return np.diag(probs.astype(complex))


@dataclass(frozen=True)
class KernelMoments:
    norm: float
    mean_q: float
    mean_p: float
    sigma_qq: float
    sigma_pp: float
    sigma_pq: float


def kernel_moments(g: GaussianParams) -> KernelMoments:
    """Quadrature moments of the kernel; the independent check of the closed forms.

    Position moments come from the diagonal kernel; momentum moments from
    analytic x-derivatives of the off-diagonal kernel at coincidence
    (exact polynomial-times-Gaussian integrands, no finite differences).
    The node count doubles until all six moments are stable.
    """
    d = g.width
    center = g.b1.real / d
    half = MOMENT_HALF_WIDTH_SIGMAS * (1.0 / np.sqrt(2.0 * d))
    lo, hi = center - half, center + half

    def evaluate(num_nodes: int) -> KernelMoments:
        x = np.linspace(lo, hi, num_nodes)
        norm_const = normalization(g)
        diag = norm_const * np.exp(-d * x**2 + 2.0 * g.b1.real * x)
        # d/dx of the exponent of <x|rho|y> at y = x.
        fx = -2.0 * np.conj(g.a1) * x + g.a2 * x + np.conj(g.b1)
        fxx = -2.0 * np.conj(g.a1)
        norm = np.trapezoid(diag, x)
        mean_q = np.trapezoid(x * diag, x) / norm
        mean_p_c = np.trapezoid(-1j * fx * diag, x) / norm
        p2 = np.trapezoid(-(fxx + fx**2) * diag, x) / norm
        qp = np.trapezoid(x * (-1j * fx) * diag, x) / norm
        q2 = np.trapezoid(x * x * diag, x) / norm
        if max(abs(mean_p_c.imag), abs(p2.imag)) > 1e-9:
            raise QuadratureUnstable("momentum moments carry imaginary residue")
        mean_p = mean_p_c.real
        return KernelMoments(
            norm=float(norm),
            mean_q=float(mean_q),
            mean_p=float(mean_p),
            sigma_qq=float(q2 - mean_q**2),
            sigma_pp=float(p2.real - mean_p**2),
            sigma_pq=float(qp.real - mean_p * mean_q),
        )

    previous = evaluate(MOMENT_NODES)
    for doubling in range(1, MOMENT_MAX_DOUBLINGS + 1):
        current = evaluate((MOMENT_NODES - 1) * 2**doubling + 1)
        drift = max(abs(x - y) for x, y in zip(astuple(current), astuple(previous)))
        if drift < MOMENT_STABILITY_TOL:
            return current
        previous = current
    raise QuadratureUnstable(f"moments not stable after {MOMENT_MAX_DOUBLINGS} doublings")
