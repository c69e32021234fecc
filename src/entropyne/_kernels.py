"""The closed-form log partition functions and the grid kernels built on them.

`qubit_log_z` and `gaussian_log_z` take a float or an array of temperatures;
`effective_frequency` decides for the scalar library and the kernels alike
whether a quadratic form converges, and raises DivergentPartition, before
any cell is formed, when it does not.  A convergent form is an oscillator of
frequency `effective_frequency` plus the constant Im(w2), so its ln Z is
finite at every beta > 0 and does not depend on w0.  Delta = (E - T S) +
T ln Z is written once, in `delta_cells`, which broadcasts over the qubit
grid (`qubit_delta_cells`: `qubit_energy`, `qubit_entropy` with the one
Bloch-norm rule, `qubit_log_z`), the thermal-light grid
(`amplifier_delta_cells`) and both scalar records, so cells and records agree.
The scalar input rules live here, one each: `check_temperature` (a finite
T != 0; the Gaussian forms add T > 0), `check_beta` (0 < beta < inf),
`check_nbar` (a finite nbar >= 0) and `require_finite` (dataclass fields).
`su11_pieces` is the paper's su(1,1) disentangling, read by the su(1,1)
coefficients and the Fock diagonal elements.  `argmin_rounds`, the package's
one minimizer, runs on these kernels only in `verify` (the qubit-zero-locus and
amplifier-min-locus families); the library's minima are closed forms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields

import numpy as np

from .errors import (BlochNormExceeded, DivergentPartition, DomainError, NegativeBeta,
                     NumericalFailure, ZeroTemperature)

# A form is positive definite when g = w1 w3 - Re(w2)^2 exceeds this many
# units of w1 w3: a few ulps, so that a marginal form whose g is rounding
# noise around 0 diverges instead of giving a noise-sized frequency (a float,
# not numpy's, so that w1 w3 past the double range is inf without a warning).
_FORM_RTOL = 4.0 * sys.float_info.epsilon
# xi in su11_pieces caps phi here, so that sinh^2 and its product with r^2 - 1
# stay finite; the other pieces take phi uncapped.
_PHI_CAP = 40.0
# Where argmin_rounds samples its bracket, as fractions of it; each round
# keeps two of the 256 steps, so the bracket shrinks 128x.
_ROUND_FRACTIONS = np.linspace(0.0, 1.0, 257)


def qubit_entropy(p_norm: float) -> float:
    """von Neumann entropy (nats) of a qubit of Bloch norm p_norm: ln 2 at 0, 0 at 1.

    The Bloch-norm rule: BlochNormExceeded unless 0 <= p_norm <= 1 + 1e-12
    (NaN too); a norm in that slack above 1 counts as 1.
    """
    if not 0.0 <= p_norm <= 1.0 + 1e-12:
        raise BlochNormExceeded(f"|p| = {p_norm} is not in [0, 1]")
    p_norm = min(p_norm, 1.0)
    s = math.log(2.0)
    if p_norm > 0.0:
        s -= 0.5 * (1.0 + p_norm) * math.log(1.0 + p_norm)
        if p_norm < 1.0:
            s -= 0.5 * (1.0 - p_norm) * math.log(1.0 - p_norm)
    return s


def check_temperature(temperature: float, name: str = "T") -> None:
    """ZeroTemperature at T = 0 and DomainError for NaN or +-inf; the messages say name."""
    if temperature == 0.0:
        raise ZeroTemperature(f"{name} = 0 is not supported")
    if not math.isfinite(temperature):
        raise DomainError(f"{name} must be finite, got {temperature}")


def check_beta(beta: float) -> None:
    """ZeroTemperature at beta = inf (T = 0) and NegativeBeta at any other beta <= 0 or NaN."""
    if not 0.0 < beta < math.inf:
        raise (ZeroTemperature if beta == math.inf else NegativeBeta)(
            f"beta must be positive and finite, got {beta}")


def check_nbar(nbar: float) -> None:
    """ValueError unless the mean photon number nbar is finite and >= 0."""
    if not 0.0 <= nbar < math.inf:
        raise ValueError(f"nbar must be finite and >= 0, got {nbar}")


def require_finite(obj, exc: type[Exception]) -> None:
    """Raise exc naming the first field of the dataclass obj with a NaN or inf entry."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if not np.isfinite(value).all():
            raise exc(f"{field.name} must be finite, got {value}")


def qubit_log_z(h0, h_norm, t):
    """ln Tr e^{-H/T} = -h0/(2T) + ln(2 cosh(|h|/(2T))) for T a float or an array.

    A value past the double range is inf or NaN, without a warning.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Halve the numerators, not double t: 2 t overflows for |t| > 8.9e307.
        ax = np.abs((0.5 * h_norm) / t)
        return -(0.5 * h0) / t + ax + np.log1p(np.exp(-2.0 * ax))


def qubit_energy(p_norm: float, h0: float, h_norm: float, thetas):
    """<E> = (h0 + |p| |h| cos theta)/2 for theta a float or an array (no warning)."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * (h0 + p_norm * h_norm * np.cos(thetas))


def delta_cells(energy, entropy, t, log_z):
    """(E - T S) + T ln Z, broadcast: floats give a float, a column of E (or T) and
    a row of T (or E and S) a grid; log_z has T's shape.  inf or NaN past range."""
    with np.errstate(over="ignore", invalid="ignore"):
        # One buffer, finished in place in the golden bytes' order; T S is it when it
        # has the cells' shape (an array: a numpy scalar cannot be an out=).
        ts = np.multiply(t, entropy)
        full = ts.ndim > 0 and ts.shape == np.broadcast_shapes(np.shape(energy), ts.shape)
        out = np.subtract(energy, ts, out=ts if full else None)
        out += t * log_z
    return out


def qubit_delta_cells(p_norm: float, h0: float, h_norm: float,
                      thetas: np.ndarray, temps: np.ndarray) -> np.ndarray:
    """Distance parameter over a (theta, T) grid for fixed |p|, h0, |h|.

    A cell past the double range is inf or NaN (no warning).
    """
    energy = qubit_energy(p_norm, h0, h_norm, np.asarray(thetas, dtype=np.float64))
    t = np.ascontiguousarray(temps, dtype=np.float64)
    return delta_cells(energy[:, None], qubit_entropy(p_norm), t, qubit_log_z(h0, h_norm, t))


def effective_frequency(omega1: float, omega2_re: float, omega3: float) -> float:
    """Normal-mode frequency 2 sqrt(g) of H = w1 p^2 + 2 Re(w2) pq + w3 q^2.

    The partition function converges only for a positive-definite form:
    w1 > 0 and g = w1 w3 - Re(w2)^2 > _FORM_RTOL w1 w3.  Any other form,
    NaN coefficients included, raises DivergentPartition.
    """
    g = omega1 * omega3 - omega2_re * omega2_re
    if not (omega1 > 0.0 and g > _FORM_RTOL * omega1 * omega3):
        raise DivergentPartition(
            "the form is not positive definite: no convergent partition function")
    return 2.0 * math.sqrt(g)


def su11_pieces(beta, k0: float, weff: float):
    """The su(1,1) disentangling of e^{-beta H} for beta a float or an array.

    k0 = w0 w1 + w3/w0 and weff comes from `effective_frequency`.  With
    phi = beta weff and r = k0/weff, returns (phi, ln sqrt(zeta), u, zeta xi,
    xi): sqrt(zeta) = 1/(cosh phi + r sinh phi), u = sinh phi sqrt(zeta),
    zeta xi = (r^2 - 1) u^2 and xi = (r^2 - 1) sinh^2 phi, which follows phi
    only up to _PHI_CAP and keeps its value at the cap past it.
    """
    phi = beta * weff
    r = k0 / weff
    e2 = np.exp(-2.0 * phi)
    # A positive-definite form has r >= 1, so den_s > 0.
    den_s = (1.0 + r) + (1.0 - r) * e2
    ln_sqrt_zeta = -(phi + np.log(0.5 * den_s))
    u = (1.0 - e2) / den_s
    zeta_xi = (r * r - 1.0) * u * u
    xi = (r * r - 1.0) * np.sinh(np.minimum(phi, _PHI_CAP)) ** 2
    return phi, ln_sqrt_zeta, u, zeta_xi, xi


def gaussian_log_z(beta, weff: float, omega2_im: float):
    """ln Z = -beta Im(w2) - (x/2 + ln(1 - e^{-x})), x = beta weff, of a quadratic Hamiltonian.

    weff comes from `effective_frequency`.  Accurate at every x > 0; an x
    that underflows to 0 gives +inf, without a warning.
    """
    x = beta * weff
    with np.errstate(divide="ignore"):
        return -beta * omega2_im - (0.5 * x + np.log(-np.expm1(-x)))


def amplifier_delta_cells(temps: np.ndarray, nbars: np.ndarray, k0: float,
                          weff: float) -> np.ndarray:
    """Distance parameter of thermal light over a (T, nbar) grid.

    `delta_cells` with k0 = w0 w1 + w3/w0 and weff that of
    `gaussian_log_z`; Im(w2) adds to the energy what it takes from T ln Z,
    so it is left out.  Rows are T, columns nbar.
    """
    t = np.ascontiguousarray(temps, dtype=np.float64)[:, None]
    nb = np.ascontiguousarray(nbars, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        energy = k0 * (0.5 + nb)  # k0 (1 + 2 nb) overflows first near 1.8e308
        s = (1.0 + nb) * np.log1p(nb) - np.where(nb > 0.0, nb * np.log(
            np.where(nb > 0.0, nb, 1.0)), 0.0)
        log_z = gaussian_log_z(1.0 / t, weff, 0.0)
    return delta_cells(energy, s, t, log_z)


def argmin_rounds(f, a: float, b: float, rel_tol: float) -> float:
    """Minimizer of a unimodal f, which maps an array of points to their values, on [a, b].

    Each round samples the bracket in one call of f and keeps the two
    neighbours of the smallest sample, until b - a <= rel_tol max(min(|a|,
    |b|), 1e-12) or the bracket stops shrinking (a and b adjacent floats).
    Returns its midpoint; raises NumericalFailure if the smallest sample is not finite.
    """
    if not a < b:  # also false for NaN
        raise ValueError(f"need a < b, got [{a}, {b}]")
    while b - a > rel_tol * max(min(abs(a), abs(b)), 1e-12):
        xs = a + (b - a) * _ROUND_FRACTIONS
        ys = f(xs)
        i = int(np.argmin(ys))  # the first NaN if there is one
        if not math.isfinite(ys[i]):
            raise NumericalFailure(f"f = {ys[i]} at a sample in [{a}, {b}]")
        a_next, b_next = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]
        if b_next - a_next >= b - a:
            break
        a, b = float(a_next), float(b_next)
    return 0.5 * (a + b)
