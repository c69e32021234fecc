"""Brute-force verification layer: truncated number-basis matrices and
quadrature moments of Gaussian kernels.

Everything here recomputes the closed forms of the gaussian module by an
independent route: truncated number-basis traces for partition functions,
and one fixed trapezoid pass over the position kernel for moments (49
nodes over +-12 kernel standard deviations, exact to rounding).  The
traces in stable_partition split the exact ladder matrix elements by
parity into two real symmetric tridiagonal blocks, from N_START = 112
levels up in steps of N_STEP = 16.  Their eigenvalues come from LAPACK
dsterf, an O(N^2) tridiagonal solver, taken from the OpenBLAS that
numpy.linalg itself links; where numpy links another LAPACK the blocks go
to numpy.linalg.eigvalsh as dense matrices instead.
Each trace sums e^{-beta lambda} over the whole truncated spectrum: the
truncated H is P_N H P_N, whose eigenvalues bound H's own from above and
fall as N grows (Cauchy interlacing), so the sums rise toward Z and
truncation adds no spurious low level.  Every form with beta * omega_eff
>= 0.8 and |Re omega2| <= 0.6 sqrt(omega1 omega3) settles at the first two
sizes, so a trace of such a form costs the same whichever it is; hotter or
more squeezed forms grow further.  boltzmann_diagonal reads
<n|e^{-beta H}|n> off the eigenvectors of the same blocks in the number
basis of frequency omega0.  The dense ladder-operator products of the same
H stay in the tests, as the independent check of these bands.  beta and
nbar pass the closed forms' own rules, `_kernels.check_beta` and `check_nbar`.
The kernel convention is rho(x, y) = <x|rho|y> with

    <x|rho|y> = N exp(-a1* x^2 - a1 y^2 + a2 x y + b1* x + b1 y),

the assignment that reproduces the closed-form covariance entries.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from ._kernels import check_beta, check_nbar
from .errors import NumericalFailure, QuadratureUnstable, TruncationUnstable
from .gaussian import GaussianParams, QuadraticHamiltonian, normalization

# Truncation sizes of stable_partition: N_START, N_START + N_STEP, ...  Its
# n_cap, the largest size it solves, is at least N_CAP_MIN, the second size
# (the first whose sum can be compared with an earlier one), and at most
# N_CAP_MAX, since each solve without dsterf is a dense parity block.
N_START = 112
N_STEP = 16
N_CAP_MIN = N_START + N_STEP
N_CAP_MAX = 1000
# kernel_moments' trapezoid rule: node count and half-width in kernel
# standard deviations s, which put the nodes s/2 apart.
MOMENT_NODES = 49
MOMENT_HALF_WIDTH_SIGMAS = 12.0


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
    NumericalFailure if an entry leaves the double range, as it does when w
    overflows or underflows to 0.
    """
    n = np.arange(n_max, dtype=float)
    with np.errstate(all="ignore"):
        diag = (n + 0.5) * (h.omega1 * w + h.omega3 / w) + h.omega2.imag
        c = complex((h.omega3 / w - h.omega1 * w) / 2.0, h.omega2.real)
        off = abs(c) * np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalFailure(
            f"number-basis bands of {h} leave the double range by n_max = {n_max}"
        )
    return diag, off


def _parity_blocks(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The bands of number_basis_bands on n_max (even) levels as two stacked
    real symmetric blocks of n_max/2 rows.

    The even-n and odd-n levels form two Hermitian tridiagonal blocks, and a
    diagonal phase gauge makes their off-diagonals |H_{n,n+2}|.
    numpy.linalg.eigvalsh and eigh read only the lower triangle, so only the
    diagonal and the subdiagonal are filled.  Block p holds the levels of
    parity p.
    """
    m = len(diag) // 2
    blocks = np.zeros((2, m * m))
    blocks[:, ::m + 1] = diag.reshape(m, 2).T
    blocks[:, m::m + 1] = off.reshape(m - 1, 2).T
    return blocks.reshape(2, m, m)


@functools.cache
def _lapack_dsterf():
    """LAPACK dsterf from the OpenBLAS that numpy.linalg links, or None.

    dsterf(N, D, E, INFO) overwrites D with the ascending eigenvalues of the
    real symmetric tridiagonal matrix with diagonal D and off-diagonal E, in
    O(N^2), and destroys E.  numpy's wheels link an ILP64 OpenBLAS that
    exports it as scipy_dsterf_64_ (64-bit N and INFO), and dlsym on numpy's
    own linalg extension searches that library too.  A numpy built against
    another LAPACK has no such symbol.  Resolved on the first solve.
    """
    from numpy.linalg import _umath_linalg

    try:
        sterf = ctypes.CDLL(_umath_linalg.__file__).scipy_dsterf_64_
    except (OSError, AttributeError):
        return None
    int64_p = ctypes.POINTER(ctypes.c_int64)
    sterf.argtypes = (int64_p, ctypes.c_void_p, ctypes.c_void_p, int64_p)
    sterf.restype = None
    return sterf


def _matched_basis_spectrum(h: QuadraticHamiltonian, n_max: int) -> np.ndarray:
    """Sorted spectrum of H on the lowest n_max (even) levels of the matched basis.

    The spectrum does not depend on the basis scale, so the number basis of
    frequency w = sqrt(omega3/omega1) is used: it minimizes the squeezing
    between basis and Hamiltonian and with it the truncation edge artifacts.
    With dsterf (_lapack_dsterf) both parity blocks go to one call, joined
    by a zero off-diagonal at which dsterf splits, and come back sorted.
    Without it they go to one stacked numpy.linalg.eigvalsh call, which
    first re-tridiagonalizes each dense block in O(n_max^3).
    """
    w = np.sqrt(h.omega3 / h.omega1)
    diag, off = number_basis_bands(h, w, n_max)
    sterf = _lapack_dsterf()
    if sterf is None:
        return np.sort(np.linalg.eigvalsh(_parity_blocks(diag, off)), axis=None)
    # Fresh contiguous copies: dsterf overwrites d and destroys e.
    d = np.concatenate((diag[0::2], diag[1::2]))
    e = np.concatenate((off[0::2], [0.0], off[1::2]))
    n, info = ctypes.c_int64(n_max), ctypes.c_int64(0)
    sterf(ctypes.byref(n), d.ctypes.data, e.ctypes.data, ctypes.byref(info))
    if info.value != 0:
        raise NumericalFailure(f"LAPACK dsterf failed (info = {info.value}) "
                               f"at n_max = {n_max} for {h}")
    return d


def boltzmann_diagonal(h: QuadraticHamiltonian, beta: float,
                       n_max: int) -> np.ndarray:
    """<n|e^{-beta H}|n> for n < n_max (even, >= 2) in the number basis of
    frequency omega0, from numpy.linalg.eigh of the two parity blocks.

    The phase gauge of _parity_blocks is diagonal, so it leaves the diagonal
    of e^{-beta H} unchanged.  Levels near n_max carry the truncation error.
    beta must lie in (0, inf); NumericalFailure where an element is past the
    double range, as e^{-beta lambda} is for a spectrum reaching far below 0.
    """
    check_beta(beta)
    if n_max < 2 or n_max % 2:
        raise ValueError(f"n_max must be even and >= 2, got {n_max}")
    w, v = np.linalg.eigh(_parity_blocks(*number_basis_bands(h, h.omega0, n_max)))
    with np.errstate(over="ignore", invalid="ignore"):
        # Row p holds the diagonal at the levels of parity p: n = 2j + p.
        diag = np.einsum("pjk,pk->pj", v * v, np.exp(-beta * w)).T.reshape(n_max)
    if not np.isfinite(diag).all():
        raise NumericalFailure(
            f"<n|e^(-beta H)|n> leaves the double range by n_max = {n_max} (beta = {beta})")
    return diag


def stable_partition(h: QuadraticHamiltonian, beta: float,
                     n_cap: int = 500) -> float:
    """Truncated trace grown by N_STEP from N_START until it changes by <= 1e-11.

    Each trace sums e^{-beta lambda} over the whole spectrum of H on the
    lowest N levels, from _matched_basis_spectrum.  That H is P_N H P_N, so
    by Cauchy interlacing its levels fall as N grows and the sums rise
    toward Z: truncation adds no spurious low level, and a sum that stops
    changing has met Z.  Each size is solved once.  n_cap, the largest size
    solved, lies in [N_CAP_MIN, N_CAP_MAX]: convergence compares two sizes,
    and without dsterf the blocks are dense, so memory grows as n_cap^2.
    beta must lie in (0, inf).
    """
    check_beta(beta)
    if not N_CAP_MIN <= n_cap <= N_CAP_MAX:
        raise ValueError(f"n_cap must be in [{N_CAP_MIN}, {N_CAP_MAX}], got {n_cap}")
    if h.omega1 * h.omega3 <= 0.0:
        raise ValueError(
            f"no matched number basis for {h}: omega1*omega3 must be positive"
        )
    z_prev = None
    for n in range(N_START, n_cap + 1, N_STEP):
        with np.errstate(over="ignore"):
            z = float(np.exp(-beta * _matched_basis_spectrum(h, n)).sum())
        if not math.isfinite(z):
            # A spectrum unbounded below (negative-definite form) overflows
            # here; an infinite sum must not pass the relative-change test.
            raise TruncationUnstable(
                f"partition sum overflows by n_max = {n} (beta = {beta})"
            )
        if z_prev is not None and abs(z - z_prev) <= 1e-11 * z:
            return z
        z_prev = z
    raise TruncationUnstable(
        f"partition sum not stable by n_max = {n_cap} (beta = {beta})"
    )


def thermal_light_fock(nbar: float, n_max: int) -> np.ndarray:
    """Truncated geometric photon-number state diag(nbar^n / (1+nbar)^{n+1})."""
    check_nbar(nbar)
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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
    Every integrand is a polynomial times the diagonal kernel, a Gaussian of
    standard deviation s, so one trapezoid pass over +-12 s at spacing
    h = s/2 (MOMENT_NODES) converges geometrically (Trefethen & Weideman
    2014): its aliasing error is about 2 e^{-2 pi^2 (s/h)^2} = 2 e^{-8 pi^2}
    ~ 5e-35 and the window cuts off about e^{-72}, so what remains is
    rounding.  Gauss-Hermite nodes would build in the completing-the-square
    that the closed forms use, and the check would no longer be independent.
    """
    d = g.width
    center = g.b1.real / d
    half = MOMENT_HALF_WIDTH_SIGMAS * (1.0 / np.sqrt(2.0 * d))
    x = np.linspace(center - half, center + half, MOMENT_NODES)
    diag = normalization(g) * np.exp(-d * x**2 + 2.0 * g.b1.real * x)
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
