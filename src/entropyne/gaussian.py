"""Unimodal Gaussian states, quadratic Hamiltonians and their partition function.

A single-mode Gaussian state is held either as position-kernel parameters
(a1, a2, b1) or as its (p, q) covariance matrix plus first moments.  The
partition function of a quadratic Hamiltonian

    H = omega1 p^2 + omega2 p q + omega2* q p + omega3 q^2

is that of an oscillator of frequency 2 sqrt(omega1 omega3 - Re(omega2)^2),
shifted by Im(omega2), when the form is positive definite; it does not depend
on omega0.  `su11_coefficients` and `fock_diagonal_element` read the paper's
su(1,1) decomposition from `_kernels.su11_pieces`, with the convention
p = i sqrt(omega0/2)(adag - a), q = (a + adag)/sqrt(2 omega0).
The input rules are `_kernels`': beta through `check_beta`, T through
`check_temperature` (`gaussian_delta` adds T > 0), fields through `require_finite`.

Note on first moments: the mean momentum closed form used here is
(a2 Im(b1) - 2 Im(a1* b1)) / (2 Re(a1) - a2).  It was arbitrated against
the derivative-quadrature oracle (see fock.kernel_moments and the gaussian
tests), under the kernel convention that reproduces the covariance entries
sigma_pq = Im(a1)/(2 Re(a1) - a2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .entropy import DeltaRecord
from .errors import (
    DomainError,
    InvalidGaussian,
    NegativeBeta,
    NumericalFailure,
    UnphysicalCovariance,
)

_MARGIN = 1e-12


@dataclass(frozen=True)
class GaussianParams:
    """Kernel parameters of rho(q', q) = N exp(-a1 q^2 - a1* q'^2 + a2 q q' + b1 q + b1* q')."""

    a1: complex
    a2: float
    b1: complex

    def __post_init__(self) -> None:
        _kernels.require_finite(self, InvalidGaussian)
        if abs(float(np.imag(self.a2))) > 0.0:
            raise InvalidGaussian("a2 must be real")
        if self.a2 < 0.0:
            raise InvalidGaussian("a2 < 0 gives purity > 1 (unphysical)")
        if 2.0 * self.a1.real - self.a2 <= _MARGIN:
            raise InvalidGaussian("2 Re(a1) > a2 is required for normalizability")

    @property
    def width(self) -> float:
        """2 Re(a1) - a2, the diagonal-kernel Gaussian decay constant."""
        return 2.0 * self.a1.real - self.a2


@dataclass(frozen=True)
class CovarianceState:
    sigma_pp: float
    sigma_qq: float
    sigma_pq: float
    mean_p: float = 0.0
    mean_q: float = 0.0

    def __post_init__(self) -> None:
        _kernels.require_finite(self, UnphysicalCovariance)
        if self.sigma_pp <= 0.0 or self.sigma_qq <= 0.0:
            raise UnphysicalCovariance("diagonal covariance entries must be positive")
        det = self.determinant
        if not math.isfinite(det):
            raise UnphysicalCovariance(f"det sigma = {det} is outside the double range")
        if det < 0.25 - _MARGIN:
            raise UnphysicalCovariance(f"det sigma = {det} violates the uncertainty bound")

    @property
    def determinant(self) -> float:
        return self.sigma_pp * self.sigma_qq - self.sigma_pq * self.sigma_pq


@dataclass(frozen=True)
class QuadraticHamiltonian:
    omega0: float
    omega1: float
    omega2: complex
    omega3: float

    def __post_init__(self) -> None:
        _kernels.require_finite(self, ValueError)
        if self.omega0 <= 0.0:
            raise ValueError("omega0 must be positive")

    @property
    def gamma1(self) -> complex:
        return (self.omega3 / self.omega0 - self.omega0 * self.omega1
                - 2j * self.omega2.real) / 2.0

    @property
    def k0_coefficient(self) -> float:
        """omega0*omega1 + omega3/omega0, the coefficient of the number-like generator."""
        return self.omega0 * self.omega1 + self.omega3 / self.omega0

    @property
    def effective_frequency(self) -> float:
        """Normal-mode frequency 2 sqrt(w1 w3 - Re(w2)^2) of a positive-definite
        form; raises DivergentPartition for any other."""
        return _kernels.effective_frequency(self.omega1, self.omega2.real, self.omega3)


@dataclass(frozen=True)
class Su11Coefficients:
    gamma1: complex
    phi: float
    A_plus: complex
    A_minus: complex
    A_zero: float
    xi: float
    zeta: float


def normalization(g: GaussianParams) -> float:
    """Normalization prefactor enforcing unit trace of the kernel."""
    d = g.width
    mean_term = (2.0 * g.b1.real) ** 2 / (4.0 * d)
    return math.sqrt(d / math.pi) * math.exp(-mean_term)


def covariance_from_params(g: GaussianParams) -> CovarianceState:
    """Covariance entries and first moments of the kernel state."""
    d = g.width
    return CovarianceState(
        sigma_pp=(4.0 * abs(g.a1) ** 2 - g.a2**2) / (2.0 * d),
        sigma_qq=1.0 / (2.0 * d),
        sigma_pq=g.a1.imag / d,
        mean_q=g.b1.real / d,
        mean_p=(g.a2 * g.b1.imag - 2.0 * (g.a1.conjugate() * g.b1).imag) / d,
    )


def purity(c: CovarianceState) -> float:
    """mu = 1/(2 sqrt(det sigma)) in (0, 1]; CovarianceState holds det sigma >= 1/4."""
    return min(1.0, 1.0 / (2.0 * math.sqrt(c.determinant)))


def entropy_gaussian(mu: float) -> float:
    """von Neumann entropy of a Gaussian state of purity mu (nats)."""
    if not 0.0 < mu <= 1.0:
        raise DomainError(f"purity must lie in (0, 1], got {mu}")
    if mu == 1.0:
        return 0.0
    return ((1.0 - mu) / (2.0 * mu)) * math.log((1.0 + mu) / (1.0 - mu)) \
        - math.log(2.0 * mu / (1.0 + mu))


def mean_energy(c: CovarianceState, h: QuadraticHamiltonian) -> float:
    """Tr(Omega sigma) + <zeta> Omega <zeta~> + Im(omega2)."""
    w2r = h.omega2.real
    return (
        h.omega1 * c.sigma_pp + h.omega3 * c.sigma_qq + 2.0 * w2r * c.sigma_pq
        + h.omega1 * c.mean_p**2 + h.omega3 * c.mean_q**2
        + 2.0 * w2r * c.mean_p * c.mean_q
        + h.omega2.imag
    )


def su11_coefficients(h: QuadraticHamiltonian, beta: float) -> Su11Coefficients:
    """Coefficients of e^{-beta H} = e^{-beta Im(w2)} e^{A+ K+} e^{ln(A0) K0} e^{A- K-}.

    xi = (r^2 - 1) sinh^2(phi) follows phi = beta weff up to
    `_kernels._PHI_CAP` (40) and keeps its value at the cap past it, so
    that xi stays finite.
    """
    _kernels.check_beta(beta)
    weff = h.effective_frequency
    phi, ln_sqrt_zeta, u, _, xi = map(float, _kernels.su11_pieces(beta, h.k0_coefficient, weff))
    a_zero = math.exp(2.0 * ln_sqrt_zeta)
    a_plus = (-2.0 * h.gamma1.conjugate() / weff) * u
    a_minus = (-2.0 * h.gamma1 / weff) * u
    return Su11Coefficients(
        gamma1=h.gamma1,
        phi=phi,
        A_plus=a_plus,
        A_minus=a_minus,
        A_zero=a_zero,
        xi=xi,
        zeta=a_zero,
    )


def log_partition_function(h: QuadraticHamiltonian, beta: float) -> float:
    """ln Z = -beta Im(w2) - ln(2 sinh(beta w_eff / 2)), w_eff = 2 sqrt(w1 w3 - Re(w2)^2).

    NumericalFailure where beta w_eff under- or overflows and ln Z is not a double.
    """
    _kernels.check_beta(beta)
    weff = h.effective_frequency
    log_z = float(_kernels.gaussian_log_z(beta, weff, h.omega2.imag))
    if not math.isfinite(log_z):
        raise NumericalFailure(f"ln Z = {log_z} at beta = {beta}: outside the double range")
    return log_z


def partition_function(h: QuadraticHamiltonian, beta: float) -> float:
    """Z = e^{ln Z}; raises NumericalFailure where Z overflows a double."""
    log_z = log_partition_function(h, beta)
    try:
        return math.exp(log_z)
    except OverflowError:
        raise NumericalFailure(f"Z = exp({log_z}) overflows a double") from None


def fock_diagonal_element(h: QuadraticHamiltonian, beta: float, n: int) -> float:
    """<n| e^{-beta H} |n> = e^{-beta Im(w2)} A0^{1/4} R_n at every beta > 0.

    R_m = t^m P_m(1/sqrt(1 - xi)), t^2 = A0 - zeta xi, a polynomial in 1 - xi:
    R_0 = 1, R_{m+1} = ((2m + 1) sqrt(A0) R_m - m t^2 R_{m-1}) / (m + 1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    _kernels.check_beta(beta)
    weff = h.effective_frequency
    _, ln_sqrt_zeta, _, zeta_xi, _ = map(float, _kernels.su11_pieces(beta, h.k0_coefficient, weff))
    sqrt_a0, t2 = math.exp(ln_sqrt_zeta), math.exp(2.0 * ln_sqrt_zeta) - zeta_xi
    r_prev, r = 0.0, 1.0  # R_{-1} (weight 0 in the first step) and R_0
    for m in range(n):
        r_prev, r = r, ((2 * m + 1) * sqrt_a0 * r - m * t2 * r_prev) / (m + 1)
    # One exponent: e^{-beta Im(w2)} alone overflows where the element may not.
    log_scale = 0.5 * ln_sqrt_zeta - beta * h.omega2.imag
    try:
        return math.exp(log_scale) * r
    except OverflowError:
        raise NumericalFailure(f"e^{{-beta Im(w2)}} A0^{{1/4}} = e^{log_scale} overflows") from None


def gaussian_delta(c: CovarianceState, h: QuadraticHamiltonian,
                   temperature: float) -> DeltaRecord:
    """Distance of a Gaussian state from the thermal state of (H, T), 0 < T < inf."""
    _kernels.check_temperature(temperature)
    if temperature < 0.0:
        raise NegativeBeta("T < 0 diverges for Hamiltonians unbounded above")
    energy, entropy = mean_energy(c, h), entropy_gaussian(purity(c))
    beta = 1.0 / temperature
    weff = h.effective_frequency
    # A ln Z past the double range makes Delta inf or NaN, which DeltaRecord rejects.
    log_z = float(_kernels.gaussian_log_z(beta, weff, h.omega2.imag))
    delta = float(_kernels.delta_cells(energy, entropy, temperature, log_z))
    return DeltaRecord(energy, entropy, log_z, temperature, delta)


def random_gaussian_params(seed: int) -> GaussianParams:
    """Seeded valid kernel parameters; property-test fuel."""
    rng = np.random.default_rng(seed)
    a2 = float(rng.uniform(0.0, 1.5))
    a1 = complex((a2 + rng.uniform(0.2, 2.5)) / 2.0, rng.normal(0.0, 0.8))
    b1 = complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))
    return GaussianParams(a1=a1, a2=a2, b1=b1)


def random_quadratic_hamiltonian(seed: int) -> QuadraticHamiltonian:
    """Seeded Hamiltonian with a convergent partition function.

    The effective frequency squared is 4(w1 w3 - Re(w2)^2), so sampling
    Re(w2)^2 < w1 w3 guarantees the hyperbolic domain.
    """
    rng = np.random.default_rng(seed)
    omega1 = float(rng.uniform(0.3, 1.2))
    omega3 = float(rng.uniform(0.3, 1.2))
    bound = 0.6 * math.sqrt(omega1 * omega3)
    omega2 = complex(rng.uniform(-bound, bound), rng.normal(0.0, 0.3))
    return QuadraticHamiltonian(
        omega0=float(rng.uniform(0.5, 2.0)),
        omega1=omega1,
        omega2=omega2,
        omega3=omega3,
    )
