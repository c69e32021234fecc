"""Hot grid kernels, compiled with numba or run as vectorized numpy.

Both backends implement identical formulas; `ENTROPYNE_BACKEND=numpy`
selects the vectorized path (see _backend).  Cells where the quadratic
Hamiltonian has no convergent partition function are NaN.
"""

from __future__ import annotations

import math

import numpy as np

from ._backend import njit, USE_NUMBA

_DENOM_EPS = 1e-14


def _qubit_entropy(p_norm: float) -> float:
    """von Neumann entropy of a qubit of Bloch norm p_norm (nats)."""
    s = math.log(2.0)
    if p_norm > 0.0:
        s -= 0.5 * (1.0 + p_norm) * math.log(1.0 + p_norm)
        if p_norm < 1.0:
            s -= 0.5 * (1.0 - p_norm) * math.log(1.0 - p_norm)
    return s


def _ln_2cosh(x: float) -> float:
    """ln(2 cosh x) without overflow."""
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax))


@njit(cache=True)
def _qubit_grid_numba(p_norm, h0, h_norm, thetas, temps):  # pragma: no cover - numba
    out = np.empty((thetas.shape[0], temps.shape[0]))
    s = math.log(2.0)
    if p_norm > 0.0:
        s -= 0.5 * (1.0 + p_norm) * math.log(1.0 + p_norm)
        if p_norm < 1.0:
            s -= 0.5 * (1.0 - p_norm) * math.log(1.0 - p_norm)
    for i in range(thetas.shape[0]):
        energy = 0.5 * (h0 + p_norm * h_norm * math.cos(thetas[i]))
        for j in range(temps.shape[0]):
            t = temps[j]
            x = (0.5 * h_norm) / t
            ax = abs(x)
            lnz = -(0.5 * h0) / t + ax + math.log1p(math.exp(-2.0 * ax))
            out[i, j] = energy - t * s + t * lnz
    return out


def _qubit_grid_numpy(p_norm, h0, h_norm, thetas, temps):
    s = _qubit_entropy(p_norm)
    energy = 0.5 * (h0 + p_norm * h_norm * np.cos(thetas))[:, None]
    t = temps[None, :]
    # Halve the numerators, not double t: 2 t overflows for |t| > 8.9e307.
    ax = np.abs((0.5 * h_norm) / t)
    lnz = -(0.5 * h0) / t + ax + np.log1p(np.exp(-2.0 * ax))
    return energy - t * s + t * lnz


def qubit_delta_cells(p_norm: float, h0: float, h_norm: float,
                      thetas: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Distance parameter over a (theta, T) grid for fixed |p|, h0, |h|."""
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    temps = np.ascontiguousarray(temps, dtype=np.float64)
    if USE_NUMBA:
        return _qubit_grid_numba(p_norm, h0, h_norm, thetas, temps)
    return _qubit_grid_numpy(p_norm, h0, h_norm, thetas, temps)


@njit(cache=True)
def _log_z_scalar_numba(beta, omega0, omega1, omega2_re, omega2_im, omega3):  # pragma: no cover
    big = omega0 * omega1 + omega3 / omega0
    g1sq = 0.25 * (omega3 / omega0 - omega0 * omega1) ** 2 + omega2_re * omega2_re
    weff2 = big * big - 4.0 * g1sq
    if weff2 <= 0.0:
        return math.nan
    weff = math.sqrt(weff2)
    phi = beta * weff
    r = big / weff
    e2 = math.exp(-2.0 * phi)
    den_s = (1.0 + r) + (1.0 - r) * e2
    if den_s <= 0.0:
        return math.nan
    ln_sqrt_zeta = -(phi + math.log(0.5 * den_s))
    sz = math.exp(ln_sqrt_zeta)
    u = (1.0 - e2) / den_s
    denom = 1.0 - 2.0 * sz + sz * sz - (r * r - 1.0) * u * u
    if denom <= _DENOM_EPS:
        return math.nan
    return 0.5 * ln_sqrt_zeta - beta * omega2_im - 0.5 * math.log(denom)


@njit(cache=True)
def _amplifier_grid_numba(temps, nbars, omega0, omega1, omega2_re, omega2_im,
                          omega3):  # pragma: no cover - numba
    out = np.empty((temps.shape[0], nbars.shape[0]))
    for i in range(temps.shape[0]):
        lnz = _log_z_scalar_numba(1.0 / temps[i], omega0, omega1, omega2_re,
                                  omega2_im, omega3)
        for j in range(nbars.shape[0]):
            nb = nbars[j]
            energy = (omega1 * omega0 + omega3 / omega0) * (1.0 + 2.0 * nb) / 2.0 \
                + omega2_im
            s = (1.0 + nb) * math.log(1.0 + nb)
            if nb > 0.0:
                s -= nb * math.log(nb)
            out[i, j] = energy - temps[i] * s + temps[i] * lnz
    return out


def _log_z_vector_numpy(beta, omega0, omega1, omega2_re, omega2_im, omega3):
    beta = np.asarray(beta, dtype=np.float64)
    big = omega0 * omega1 + omega3 / omega0
    g1sq = 0.25 * (omega3 / omega0 - omega0 * omega1) ** 2 + omega2_re**2
    weff2 = big * big - 4.0 * g1sq
    if weff2 <= 0.0:
        return np.full_like(beta, np.nan)
    weff = math.sqrt(weff2)
    phi = beta * weff
    r = big / weff
    e2 = np.exp(-2.0 * phi)
    den_s = (1.0 + r) + (1.0 - r) * e2
    bad = den_s <= 0.0
    den_s = np.where(bad, 1.0, den_s)
    ln_sqrt_zeta = -(phi + np.log(0.5 * den_s))
    sz = np.exp(ln_sqrt_zeta)
    u = (1.0 - e2) / den_s
    denom = 1.0 - 2.0 * sz + sz * sz - (r * r - 1.0) * u * u
    bad |= denom <= _DENOM_EPS
    denom = np.where(bad, 1.0, denom)
    lnz = 0.5 * ln_sqrt_zeta - beta * omega2_im - 0.5 * np.log(denom)
    return np.where(bad, np.nan, lnz)


def _amplifier_grid_numpy(temps, nbars, omega0, omega1, omega2_re, omega2_im,
                          omega3):
    lnz = _log_z_vector_numpy(1.0 / temps, omega0, omega1, omega2_re,
                              omega2_im, omega3)[:, None]
    nb = nbars[None, :]
    energy = (omega1 * omega0 + omega3 / omega0) * (1.0 + 2.0 * nb) / 2.0 \
        + omega2_im
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (1.0 + nb) * np.log1p(nb) - np.where(nb > 0.0, nb * np.log(
            np.where(nb > 0.0, nb, 1.0)), 0.0)
    t = temps[:, None]
    return energy - t * s + t * lnz


def amplifier_delta_cells(temps: np.ndarray, nbars: np.ndarray, omega0: float,
                          omega1: float, omega2_re: float, omega2_im: float,
                          omega3: float) -> np.ndarray:
    """Distance parameter of the thermal state over a (T, nbar) grid.

    Rows are T, columns nbar; NaN marks cells without a convergent
    partition function.
    """
    temps = np.ascontiguousarray(temps, dtype=np.float64)
    nbars = np.ascontiguousarray(nbars, dtype=np.float64)
    if USE_NUMBA:
        return _amplifier_grid_numba(temps, nbars, omega0, omega1, omega2_re,
                                     omega2_im, omega3)
    return _amplifier_grid_numpy(temps, nbars, omega0, omega1, omega2_re,
                                 omega2_im, omega3)
