"""Gaussian kernels, covariances, the closed-form partition function and entropy."""

import math

import numpy as np
import pytest

from entropyne import (
    CovarianceState,
    DivergentPartition,
    DomainError,
    GaussianParams,
    InvalidGaussian,
    NegativeBeta,
    NumericalFailure,
    QuadraticHamiltonian,
    UnphysicalCovariance,
    ZeroTemperature,
    covariance_from_params,
    entropy_gaussian,
    fock_diagonal_element,
    gaussian_delta,
    kernel_moments,
    log_partition_function,
    mean_energy,
    normalization,
    partition_function,
    purity,
    su11_coefficients,
)
from entropyne.gaussian import random_gaussian_params

HARMONIC = QuadraticHamiltonian(omega0=1.0, omega1=0.5, omega2=0j, omega3=0.5)


def oscillator(omega0: float) -> QuadraticHamiltonian:
    return QuadraticHamiltonian(omega0=omega0, omega1=0.5, omega2=0j,
                                omega3=omega0**2 / 2.0)


def thermal_covariance(nbar: float, omega0: float = 1.0) -> CovarianceState:
    scale = (1.0 + 2.0 * nbar) / 2.0
    return CovarianceState(sigma_pp=scale * omega0, sigma_qq=scale / omega0,
                           sigma_pq=0.0)


def test_params_validation():
    with pytest.raises(InvalidGaussian):
        GaussianParams(a1=0.5 + 0j, a2=-0.1, b1=0j)
    with pytest.raises(InvalidGaussian):
        GaussianParams(a1=0.25 + 0j, a2=0.5, b1=0j)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite_fields(bad):
    for a1, a2, b1 in [(complex(bad, 0.0), 0.5, 0j), (complex(1.0, bad), 0.5, 0j),
                       (1.0 + 0j, bad, 0j), (1.0 + 0j, 0.5, complex(0.0, bad))]:
        with pytest.raises(InvalidGaussian, match="finite"):
            GaussianParams(a1=a1, a2=a2, b1=b1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_covariance_rejects_non_finite_fields(bad):
    # A NaN entry would read as a pure state (purity 1.0, entropy 0).
    good = dict(sigma_pp=1.0, sigma_qq=1.0, sigma_pq=0.0, mean_p=0.0, mean_q=0.0)
    for name in good:
        with pytest.raises(UnphysicalCovariance, match="finite"):
            CovarianceState(**{**good, name: bad})


def test_covariance_rejects_det_below_a_quarter():
    with pytest.raises(UnphysicalCovariance, match="uncertainty bound"):
        CovarianceState(sigma_pp=0.5, sigma_qq=0.5, sigma_pq=0.1)
    with pytest.raises(UnphysicalCovariance, match="uncertainty bound"):
        CovarianceState(sigma_pp=0.2, sigma_qq=1.0, sigma_pq=0.0)
    assert CovarianceState(sigma_pp=0.5, sigma_qq=0.5, sigma_pq=0.0).determinant == 0.25


@pytest.mark.parametrize("entries", [(1.0, 1.0, 1e200), (1e200, 1e200, 0.0),
                                     (1e200, 1e200, 1e200)])
def test_covariance_rejects_a_determinant_past_the_double_range(entries):
    # det sigma is -inf, +inf or inf - inf = NaN: not a bare OverflowError from
    # squaring sigma_pq, and not an infinite det read as purity 0.
    with pytest.raises(UnphysicalCovariance, match="double range"):
        CovarianceState(*entries)


def test_normalization_vacuum():
    g = GaussianParams(a1=0.5 + 0j, a2=0.0, b1=0j)
    assert math.isclose(normalization(g), math.sqrt(1.0 / math.pi), rel_tol=1e-12)
    assert abs(normalization(g) - 0.564190) < 1e-6


@pytest.mark.parametrize("s", [0.25, 1.0, 3.0])
def test_normalization_squeezed(s):
    g = GaussianParams(a1=s / 2.0 + 0j, a2=0.0, b1=0j)
    assert math.isclose(normalization(g), math.sqrt(s / math.pi), rel_tol=1e-12)


@pytest.mark.parametrize("s", [0.5, 2.0])
def test_covariance_squeezed_vacuum(s):
    c = covariance_from_params(GaussianParams(a1=s / 2.0 + 0j, a2=0.0, b1=0j))
    assert math.isclose(c.sigma_pp, s / 2.0, rel_tol=1e-12)
    assert math.isclose(c.sigma_qq, 1.0 / (2.0 * s), rel_tol=1e-12)
    assert c.sigma_pq == 0.0
    assert c.mean_p == 0.0 and c.mean_q == 0.0
    assert math.isclose(c.determinant, 0.25, rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_uncertainty_bound(seed):
    c = covariance_from_params(random_gaussian_params(seed))
    assert c.determinant >= 0.25 - 1e-12


def test_determinant_closed_form():
    # det sigma = (2 Re a1 + a2) / (4 (2 Re a1 - a2)), independent of Im(a1).
    g = GaussianParams(a1=0.9 + 0.4j, a2=0.6, b1=0.2 - 0.3j)
    c = covariance_from_params(g)
    expected = (2 * g.a1.real + g.a2) / (4.0 * (2 * g.a1.real - g.a2))
    assert math.isclose(c.determinant, expected, rel_tol=1e-12)


def test_purity_values():
    assert purity(thermal_covariance(0.0)) == 1.0
    assert math.isclose(purity(thermal_covariance(1.0)), 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(purity(thermal_covariance(2.0)), 0.2, rel_tol=1e-12)


def test_entropy_gaussian_values():
    assert entropy_gaussian(1.0) == 0.0
    assert math.isclose(entropy_gaussian(1.0 / 3.0), 2.0 * math.log(2.0),
                        rel_tol=1e-12)
    with pytest.raises(DomainError):
        entropy_gaussian(1.5)


@pytest.mark.parametrize("nbar", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_entropy_identity_thermal(nbar):
    s_mu = entropy_gaussian(purity(thermal_covariance(nbar)))
    s_nbar = nbar * math.log((1.0 + nbar) / nbar) + math.log(1.0 + nbar)
    assert abs(s_mu - s_nbar) <= 1e-12


@pytest.mark.parametrize("nbar", [0.0, 1.0, 3.5])
@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
def test_mean_energy_thermal_oscillator(nbar, omega0):
    e = mean_energy(thermal_covariance(nbar, omega0), oscillator(omega0))
    assert math.isclose(e, (1.0 + 2.0 * nbar) * omega0 / 2.0, rel_tol=1e-12)


def test_su11_harmonic_collapse():
    c = su11_coefficients(oscillator(2.0), 1.5)
    assert c.gamma1 == 0.0
    assert c.xi == 0.0
    assert math.isclose(c.phi, 1.5 * 2.0, rel_tol=1e-12)
    assert math.isclose(c.zeta, math.exp(-2.0 * 1.5 * 2.0), rel_tol=1e-12)


def test_su11_amplifier_values():
    k = 0.1
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.5 + k, omega2=0j,
                             omega3=0.5 - k)
    c = su11_coefficients(h, 1.0)
    assert abs(c.gamma1 - (-k)) <= 1e-15
    assert math.isclose(c.phi, math.sqrt(1.0 - 4.0 * k * k), rel_tol=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_su11_xi_consistency(seed):
    from entropyne.gaussian import random_quadratic_hamiltonian

    h = random_quadratic_hamiltonian(seed)
    c = su11_coefficients(h, 0.7)
    assert abs(c.xi - (c.A_plus * c.A_minus / c.A_zero).real) <= 1e-12 * max(
        1.0, abs(c.xi))
    assert c.zeta == c.A_zero


@pytest.mark.parametrize("seed", range(10))
def test_xi_held_at_the_cap_decides_the_diagonal_elements(seed):
    # Past phi = beta weff = 40, xi keeps its value at the cap: it stays
    # finite.  The diagonal elements do not read xi: they are finite and
    # positive on both sides of xi = 1 (the random form has xi >= 1 past the
    # cap; the oscillator, gamma1 = 0, has xi = 0), until <3| e^{-beta H} |3>,
    # about e^{-3.5 phi}, underflows to 0 past phi ~ 200.
    from entropyne.gaussian import random_quadratic_hamiltonian

    for h in (random_quadratic_hamiltonian(seed), oscillator(0.5 + 0.2 * seed)):
        weff = h.effective_frequency
        for phi in np.geomspace(5.0, 1000.0, 12):
            c = su11_coefficients(h, phi / weff)
            assert math.isfinite(c.xi)
            if phi > 40.0:
                assert c.xi == su11_coefficients(h, 2.0 * phi / weff).xi
            element = fock_diagonal_element(h, phi / weff, 3)
            assert math.isfinite(element) and element >= 0.0, (phi, c.xi, element)
            if phi < 100.0:
                assert element > 0.0, (phi, c.xi, element)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
def test_partition_harmonic_exact(beta, omega0):
    z = partition_function(oscillator(omega0), beta)
    exact = math.exp(-beta * omega0 / 2.0) / (1.0 - math.exp(-beta * omega0))
    assert abs(z - exact) <= 1e-12 * exact


def test_partition_k0_continuity():
    k_small = QuadraticHamiltonian(omega0=1.0, omega1=0.5 + 1e-12, omega2=0j,
                                   omega3=0.5 - 1e-12)
    assert math.isclose(partition_function(k_small, 1.0),
                        partition_function(HARMONIC, 1.0), rel_tol=1e-9)


def test_partition_hyperbolic_domain():
    # omega0^2 < 4 k^2 at t=0 pushes the effective frequency imaginary.
    h = QuadraticHamiltonian(omega0=1.0, omega1=1.1, omega2=0j, omega3=-0.1)
    with pytest.raises(DivergentPartition):
        log_partition_function(h, 1.0)


def test_partition_rejects_nonpositive_beta():
    with pytest.raises(NegativeBeta):
        log_partition_function(HARMONIC, -1.0)
    with pytest.raises(NegativeBeta):
        log_partition_function(HARMONIC, 0.0)
    with pytest.raises(NegativeBeta):
        log_partition_function(HARMONIC, math.nan)


@pytest.mark.parametrize("omega2_im", [0.3, 0.0])
def test_partition_rejects_infinite_beta(omega2_im):
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.5, omega2=complex(0.0, omega2_im),
                             omega3=0.5)
    with pytest.raises(ZeroTemperature):
        log_partition_function(h, math.inf)


def test_partition_overflow_raises():
    # ln Z = -ln(2 sinh(1e-320 / 2)) is finite; Z is past the double range.
    assert math.isclose(log_partition_function(HARMONIC, 1e-320), -math.log(1e-320),
                        rel_tol=1e-6)
    with pytest.raises(NumericalFailure):
        partition_function(HARMONIC, 1e-320)
    # beta omega_eff underflows to 0, where ln Z would read +inf.
    tiny = QuadraticHamiltonian(omega0=1.0, omega1=1e-150, omega2=0j, omega3=1e-150)
    with pytest.raises(NumericalFailure):
        log_partition_function(tiny, 1e-200)


def test_partition_large_beta_stable():
    # phi = beta*omega0 far beyond sinh overflow; lnZ -> -beta/2.
    assert math.isclose(log_partition_function(HARMONIC, 2000.0), -1000.0,
                        rel_tol=1e-12)


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_diagonal_element_harmonic(n):
    v = fock_diagonal_element(oscillator(1.0), 1.0, n)
    assert math.isclose(v, math.exp(-(n + 0.5)), rel_tol=1e-12)


def test_diagonal_element_n0():
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.6, omega2=0.05 + 0.2j,
                             omega3=0.5)
    c = su11_coefficients(h, 1.0)
    v = fock_diagonal_element(h, 1.0, 0)
    assert math.isclose(v, math.exp(-1.0 * h.omega2.imag) * c.A_zero**0.25,
                        rel_tol=1e-12)


def test_diagonal_element_past_the_double_range_raises():
    # Im(w2) = -1000 lowers every level by 1000: <n| e^{-H} |n> ~ e^1000.
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.5, omega2=-1000j, omega3=0.5)
    with pytest.raises(NumericalFailure):
        fock_diagonal_element(h, 1.0, 2)
    with pytest.raises(ValueError, match="n must be >= 0"):
        fock_diagonal_element(oscillator(1.0), 1.0, -1)


def test_gaussian_delta_zero_at_gibbs():
    for nbar in (0.5, 1.0, 2.0, 5.0):
        t_star = 1.0 / math.log(1.0 + 1.0 / nbar)
        rec = gaussian_delta(thermal_covariance(nbar), oscillator(1.0), t_star)
        assert abs(rec.delta) <= 1e-9
        for factor in (0.8, 1.2):
            off = gaussian_delta(thermal_covariance(nbar), oscillator(1.0),
                                 t_star * factor)
            assert off.delta > 0.0


def test_gaussian_delta_rejects_nonpositive_temperature():
    with pytest.raises(ZeroTemperature, match="^T = 0 is not supported"):
        gaussian_delta(thermal_covariance(1.0), HARMONIC, 0.0)
    with pytest.raises(NegativeBeta, match="^T < 0 diverges"):
        gaussian_delta(thermal_covariance(1.0), HARMONIC, -1.0)
    # A non-finite T is named as T, not as beta = 1/T (inf gave "beta ... got 0.0").
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match=f"^T must be finite, got {t}$") as info:
            gaussian_delta(thermal_covariance(1.0), HARMONIC, t)
        assert info.type is DomainError


@pytest.mark.parametrize("seed", range(12))
def test_moments_match_quadrature(seed):
    g = random_gaussian_params(seed)
    c = covariance_from_params(g)
    m = kernel_moments(g)
    assert abs(m.norm - 1.0) <= 1e-9
    assert abs(m.mean_q - c.mean_q) <= 1e-8
    assert abs(m.sigma_qq - c.sigma_qq) <= 1e-8
    assert abs(m.sigma_pp - c.sigma_pp) <= 1e-7
    assert abs(m.sigma_pq - c.sigma_pq) <= 1e-7
    # The arbitration assertion: the implemented mean-momentum closed form
    # (a2 Im(b1) - 2 Im(a1* b1)) / D is the one the derivative-quadrature
    # oracle confirms.
    assert abs(m.mean_p - c.mean_p) <= 1e-7


@pytest.mark.parametrize("seed", [3, 8, 21])
def test_mean_p_arbitration_is_definitive(seed):
    # The two candidate closed forms differ by a factor of 2; the oracle
    # residual must clearly select one.
    g = random_gaussian_params(seed)
    c = covariance_from_params(g)
    m = kernel_moments(g)
    if abs(c.mean_p) > 1e-3:
        assert abs(m.mean_p - c.mean_p) < 0.01 * abs(c.mean_p)
        assert abs(m.mean_p - 0.5 * c.mean_p) > 0.4 * abs(c.mean_p)
