"""Relative entropies, the deformed-entropy series and the distance parameter."""

import math

import numpy as np
import pytest

from entropyne import (
    DeltaRecord,
    NumericalFailure,
    SupportDeficient,
    UnsupportedQ,
    ZeroTemperature,
    delta_from_operators,
    delta_from_scalars,
    gibbs_state,
    random_density_matrix,
    random_hermitian,
    relative_entropy_vn,
    tsallis_relative_entropy,
    tsallis_series,
    von_neumann_entropy,
)
from entropyne.entropy import RESIDUAL_FLOOR_ULPS, SERIES_DELTAS, tsallis_series_report

DIAG_RHO = np.diag([0.7, 0.3]).astype(complex)
DIAG_SIGMA = np.diag([0.5, 0.5]).astype(complex)


def test_entropy_pure_state():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0


def test_entropy_maximally_mixed():
    assert math.isclose(von_neumann_entropy(DIAG_SIGMA), math.log(2.0), rel_tol=1e-12)


def test_entropy_diagonal_value():
    expected = -0.7 * math.log(0.7) - 0.3 * math.log(0.3)  # 0.610864...
    assert math.isclose(von_neumann_entropy(DIAG_RHO), expected, rel_tol=1e-12)
    assert abs(expected - 0.610864) < 1e-6


def test_relative_entropy_self_is_zero():
    rho = random_density_matrix(3, 1)
    assert abs(relative_entropy_vn(rho, rho)) <= 1e-12


def test_relative_entropy_diagonal_value():
    expected = 0.7 * math.log(1.4) + 0.3 * math.log(0.6)  # 0.082282...
    assert math.isclose(relative_entropy_vn(DIAG_RHO, DIAG_SIGMA), expected,
                        rel_tol=1e-12)
    assert abs(expected - 0.082282) < 1e-6


def test_relative_entropy_disjoint_supports():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert relative_entropy_vn(rho, sigma) == float("inf")


def test_tsallis_self_is_zero():
    rho = random_density_matrix(3, 2)
    assert abs(tsallis_relative_entropy(rho, rho, 2.0)) <= 1e-12


def test_tsallis_diagonal_q2():
    value = tsallis_relative_entropy(DIAG_RHO, DIAG_SIGMA, 2.0)
    assert math.isclose(value, 0.16, rel_tol=1e-12)


def test_tsallis_support_mismatch_is_inf():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([0.0, 1.0]).astype(complex)
    assert tsallis_relative_entropy(rho, sigma, 2.0) == float("inf")


# Full support, but mu = 1e-11 makes Tr rho^q sigma^{1-q} ~ 0.5^q 1e-11^{1-q}.
STEEP_SIGMA = np.diag([1.0 - 1e-11, 1e-11]).astype(complex)


@pytest.mark.parametrize("q", [40.0, 1e300])
def test_tsallis_past_double_range_raises(q):
    # S_q(40) ~ 1e427 is finite in exact arithmetic: not an inf, not a warning.
    with pytest.raises(NumericalFailure, match="overflows"):
        tsallis_relative_entropy(DIAG_SIGMA, STEEP_SIGMA, q)


def test_tsallis_steep_sigma_within_double_range():
    q = 20.0
    trace = 0.5**q * ((1.0 - 1e-11) ** (1.0 - q) + 1e-11 ** (1.0 - q))
    assert math.isclose(tsallis_relative_entropy(DIAG_SIGMA, STEEP_SIGMA, q),
                        (1.0 - trace) / (1.0 - q), rel_tol=1e-12)


@pytest.mark.parametrize("q", [0.0, -1.0, 1.0, float("nan"), float("inf")])
def test_tsallis_rejects_bad_q(q):
    with pytest.raises(UnsupportedQ):
        tsallis_relative_entropy(DIAG_RHO, DIAG_SIGMA, q)


@pytest.mark.parametrize("seed", range(10))
def test_tsallis_q_to_one_limit(seed):
    rho = random_density_matrix(2, seed)
    sigma = random_density_matrix(2, seed + 100)
    vn = relative_entropy_vn(rho, sigma)
    assert abs(tsallis_relative_entropy(rho, sigma, 1.0 + 1e-6) - vn) <= 1e-5
    assert abs(tsallis_relative_entropy(rho, sigma, 1.0 - 1e-6) - vn) <= 1e-5


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("q", [0.5, 1.5, 2.0, 3.0])
def test_entropies_nonnegative(seed, q):
    dim = 2 + seed % 5
    rho = random_density_matrix(dim, seed)
    sigma = random_density_matrix(dim, seed + 500)
    assert relative_entropy_vn(rho, sigma) >= -1e-10
    assert tsallis_relative_entropy(rho, sigma, q) >= -1e-10


def test_series_self_is_zero():
    rho = random_density_matrix(3, 5)
    series = tsallis_series(rho, rho)
    assert abs(series.order0) <= 1e-12
    assert abs(series.order1) <= 1e-12
    assert abs(series.order2) <= 1e-12


def test_series_commuting_coefficients():
    series = tsallis_series(DIAG_RHO, DIAG_SIGMA)
    order1 = 0.5 * (0.7 * math.log(1.4) ** 2 + 0.3 * math.log(0.6) ** 2)
    assert math.isclose(series.order0, 0.082282, abs_tol=1e-6)
    assert math.isclose(series.order1, order1, rel_tol=1e-12)
    assert abs(order1 - 0.078766) < 1e-6
    order2 = (0.7 * math.log(1.4) ** 3 + 0.3 * math.log(0.6) ** 3) / 6.0
    assert math.isclose(series.order2, order2, rel_tol=1e-12)


def test_series_rejects_rank_deficiency():
    with pytest.raises(SupportDeficient):
        tsallis_series(np.diag([1.0, 0.0]).astype(complex), DIAG_SIGMA)


def test_series_rejects_sigma_below_support_threshold():
    # mu = 1e-13 is on sigma's kernel (ln mu := 0 there), so order0 would read
    # -ln 2 in place of 14.27: the series rejects sigma instead.
    sigma = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
    for states in ((np.eye(2, dtype=complex) / 2.0, sigma), (sigma, sigma)):
        with pytest.raises(SupportDeficient):
            tsallis_series(*states)
        with pytest.raises(SupportDeficient):
            tsallis_series_report(*states, SERIES_DELTAS)


@pytest.mark.parametrize("seed", range(5))
def test_series_cubic_residual(seed):
    rho = random_density_matrix(4, seed)
    sigma = random_density_matrix(4, seed + 77)
    series = tsallis_series(rho, sigma)
    deltas = np.array([1e-1, 10.0**-1.5, 1e-2, 10.0**-2.5])
    resid = np.array([
        abs(tsallis_relative_entropy(rho, sigma, 1.0 + d) - series.evaluate(d))
        for d in deltas
    ])
    slope = np.polyfit(np.log(deltas), np.log(resid), 1)[0]
    assert abs(slope - 3.0) <= 0.3


def operator_series(rho, sigma):
    """order0/1/2 from the trace formula: with A = ln rho - ln sigma,
    order0 = Tr(rho A), order1 = Tr(rho A^2)/2 and
    order2 = (Tr(rho A^3) + Tr(rho [ln rho, ln sigma] ln sigma))/6."""
    def log_m(m):
        w, v = np.linalg.eigh(m)
        return (v * np.log(w)) @ v.conj().T

    def tr(m):
        return float(np.real(np.trace(m)))

    log_r, log_s = log_m(rho), log_m(sigma)
    a = log_r - log_s
    comm = log_r @ log_s - log_s @ log_r
    return (tr(rho @ a), tr(rho @ a @ a) / 2.0,
            (tr(rho @ a @ a @ a) + tr(rho @ comm @ log_s)) / 6.0)


@pytest.mark.parametrize("seed", range(20))
def test_series_matches_operator_form(seed):
    dim = 2 + seed % 5
    rho = random_density_matrix(dim, seed)
    sigma = random_density_matrix(dim, seed + 300)
    assert np.abs(rho @ sigma - sigma @ rho).max() > 1e-3  # non-commuting
    series = tsallis_series(rho, sigma)
    for got, want in zip((series.order0, series.order1, series.order2),
                         operator_series(rho, sigma)):
        assert math.isclose(got, want, rel_tol=1e-12)


def rounding_floor(rho, sigma):
    """RESIDUAL_FLOOR_ULPS * eps * sum_ij w_ij (|ln lam_i| + |ln mu_j|), with
    w_ij = lam_i |<r_i|s_j>|^2: the residual below which no slope is fitted."""
    lam, r = np.linalg.eigh(rho)
    mu, s = np.linalg.eigh(sigma)
    w = lam[:, None] * np.abs(r.conj().T @ s) ** 2
    scale = (w * (np.abs(np.log(lam))[:, None] + np.abs(np.log(mu)))).sum()
    return RESIDUAL_FLOOR_ULPS * np.finfo(float).eps * scale


def test_series_report_shares_one_fit():
    rho = random_density_matrix(3, 7)
    sigma = random_density_matrix(3, 8)
    report = tsallis_series_report(rho, sigma, SERIES_DELTAS)
    assert report.series == tsallis_series(rho, sigma)
    direct = [tsallis_relative_entropy(rho, sigma, 1.0 + d) for d in SERIES_DELTAS]
    assert np.allclose(report.values, direct, rtol=1e-14, atol=0.0)
    resid = np.abs(np.array(direct) - [report.series.evaluate(d) for d in SERIES_DELTAS])
    assert resid.min() > 1e4 * rounding_floor(rho, sigma)
    slope = np.polyfit(np.log(SERIES_DELTAS), np.log(resid), 1)[0]
    assert math.isclose(report.slope, slope, rel_tol=1e-6)
    assert abs(report.slope - 3.0) <= 0.3
    assert tsallis_series_report(rho, sigma, SERIES_DELTAS[:1]).slope is None


def test_series_report_no_slope_at_rounding_floor():
    # rho = sigma: S_{1+delta} and the series are both ~1e-31, not 0, and a fit
    # to that residue would give a slope near 3 that means nothing.
    rho = random_density_matrix(3, 7)
    report = tsallis_series_report(rho, rho, SERIES_DELTAS)
    resid = [abs(s - report.series.evaluate(d))
             for s, d in zip(report.values, SERIES_DELTAS)]
    floor = rounding_floor(rho, rho)
    assert 0.0 < max(resid) <= floor
    assert floor <= 64 * np.finfo(float).eps * 2.0 * von_neumann_entropy(rho) * 1.01
    assert report.slope is None


def test_series_report_no_slope_for_one_distinct_delta():
    # Two equal deltas are one point: no line to fit.
    report = tsallis_series_report(DIAG_RHO, DIAG_SIGMA, [0.1, 0.1])
    assert report.values[0] == report.values[1]
    assert report.slope is None


def unit_trace_reference(mpmath, rho, sigma):
    """S_q(q) at 50 digits, of rho and sigma normalised to unit trace there."""
    def spectrum(m):
        a = mpmath.matrix([[mpmath.mpc(z.real, z.imag) for z in row] for row in m])
        a = (a + a.H) / 2
        return mpmath.eighe(a / sum(a[i, i].real for i in range(a.rows)))

    with mpmath.workdps(50):
        (lam, r), (mu, s) = spectrum(rho), spectrum(sigma)
        n = len(lam)
        terms = [(lam[i], mu[j], abs(mpmath.fsum(mpmath.conj(r[k, i]) * s[k, j]
                                                 for k in range(n))) ** 2)
                 for i in range(n) for j in range(n)]

    def s_q(q):
        with mpmath.workdps(50):
            q = mpmath.mpf(q)
            trace = mpmath.fsum(l ** q * m ** (1 - q) * o for l, m, o in terms)
            return (1 - trace) / (1 - q)
    return s_q


@pytest.mark.parametrize("seed", range(20))
def test_tsallis_near_q1_matches_50_digit_reference(seed):
    # (1 - Tr rho^q sigma^{1-q})/(1 - q) in doubles loses ~eps/delta: 7.8e-6
    # relative at delta = 1e-10 on these pairs.  The eigenpair sum: <= 1.6e-14.
    mpmath = pytest.importorskip("mpmath")
    rho = random_density_matrix(2 + seed % 4, 4000 + seed)
    sigma = random_density_matrix(2 + seed % 4, 4100 + seed)
    reference = unit_trace_reference(mpmath, rho, sigma)
    for delta in (1e-4, 1e-8, 1e-10):
        for q in (1.0 + delta, 1.0 - delta):
            exact = reference(q)
            got = tsallis_relative_entropy(rho, sigma, q)
            assert float(abs((got - exact) / exact)) <= 1e-13


def state(p, u):
    return (u * np.asarray(p, dtype=float)) @ u.conj().T


KERNEL_U = np.linalg.eigh(random_hermitian(3, 11))[1]
KERNEL_W = np.eye(3, dtype=complex)
KERNEL_W[:2, :2] = np.linalg.eigh(random_hermitian(2, 13))[1]
SIGMA_KERNEL = state([0.5, 0.5, 0.0], KERNEL_U)
KERNEL_PAIRS = {
    # lam_i = 0 against a full-rank sigma.
    "rho-rank-deficient": (state([0.6, 0.4, 0.0], KERNEL_U), random_density_matrix(3, 12)),
    # mu_j = 0 with rho inside sigma's support (mass on the kernel ~1e-32).
    "sigma-kernel-inside": (state([0.7, 0.3, 0.0], KERNEL_U @ KERNEL_W), SIGMA_KERNEL),
    # mu_j = 0 with a full-rank rho: its mass escapes onto sigma's kernel.
    "sigma-kernel-escaping": (random_density_matrix(3, 14), SIGMA_KERNEL),
    "disjoint-diagonal": (np.diag([1.0, 0.0]).astype(complex),
                          np.diag([0.0, 1.0]).astype(complex)),
}
KERNEL_QS = (0.5, 0.9, 1.5, 2.0)
INF = float("inf")
# (S_vn, then S_q at each of KERNEL_QS), computed with the trace forms
# Tr rho ln rho - Tr rho ln sigma and (1 - Tr rho^q sigma^{1-q})/(1 - q), with
# ln sigma and sigma^{1-q} taken on sigma's support.
KERNEL_VALUES = {
    "rho-rank-deficient": (1.4539675269749373, 0.7641661872349743, 1.2625552941329135,
                           3.341841173012938, 9.68982672501417),
    "sigma-kernel-inside": (0.08228287850505156, 0.04218737413859319,
                            0.07438282413298249, 0.12126034081278192,
                            0.15999999999999925),
    "sigma-kernel-escaping": (INF, 0.26634977627465295, 1.594706856968549, INF, INF),
    "disjoint-diagonal": (INF, 2.0, 10.000000000000002, INF, INF),
}


@pytest.mark.parametrize("name", KERNEL_PAIRS)
def test_kernel_support_rules(name):
    rho, sigma = KERNEL_PAIRS[name]
    got = [relative_entropy_vn(rho, sigma)]
    got += [tsallis_relative_entropy(rho, sigma, q) for q in KERNEL_QS]
    for value, want in zip(got, KERNEL_VALUES[name]):
        assert (value == INF) == (want == INF)
        if want != INF:
            assert math.isclose(value, want, rel_tol=1e-12)


@pytest.mark.parametrize("q", [0.5, 0.01, 0.001])
def test_tsallis_subnormal_eigenvalue(q):
    # lam = 1e-320 puts (q - 1)(ln lam - ln mu) past e^x's overflow for
    # q < 0.05, though its term lam^q mu^{1-q} is finite.
    rho = np.diag([1.0, 1e-320]).astype(complex)
    trace = (1.0 + 1e-320**q) * 0.5 ** (1.0 - q)
    assert math.isclose(tsallis_relative_entropy(rho, DIAG_SIGMA, q),
                        (1.0 - trace) / (1.0 - q), rel_tol=1e-12)


def test_delta_from_scalars_direct():
    rec = delta_from_scalars(1.0, 0.0, 0.0, 5.0)
    assert isinstance(rec, DeltaRecord)
    assert rec.delta == 1.0


def test_delta_from_scalars_rejects_zero_temperature():
    with pytest.raises(ZeroTemperature):
        delta_from_scalars(1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("t", [0.1, 1.0, 10.0, -0.1, -1.0, -10.0])
@pytest.mark.parametrize("dim", [2, 5, 8])
def test_delta_zero_at_equilibrium(dim, t):
    h = random_hermitian(dim, dim * 7)
    rec = delta_from_operators(gibbs_state(h, t), h, t)
    assert abs(rec.delta) <= 1e-9


@pytest.mark.parametrize("seed", range(30))
def test_delta_sign_law(seed):
    dim = 2 + seed % 7
    rho = random_density_matrix(dim, seed)
    h = random_hermitian(dim, seed + 1000)
    t = (-1.0) ** seed * (0.5 + seed % 5)
    rec = delta_from_operators(rho, h, t)
    if t > 0:
        assert rec.delta >= -1e-9
    else:
        assert rec.delta <= 1e-9


@pytest.mark.parametrize("seed", range(15))
def test_delta_equals_scaled_relative_entropy(seed):
    dim = 2 + seed % 5
    rho = random_density_matrix(dim, seed)
    h = random_hermitian(dim, seed + 2000)
    w = np.linalg.eigvalsh(h)
    # |T| floored by the spectral spread so every Gibbs weight is
    # representable in double precision.
    t = (-1.0) ** seed * max(1.0, (w[-1] - w[0]) / 16.0)
    rec = delta_from_operators(rho, h, t)
    assert abs(rec.delta - t * relative_entropy_vn(rho, gibbs_state(h, t))) <= 1e-9
