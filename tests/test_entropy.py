"""Relative entropies, the deformed-entropy series and the distance parameter."""

import math

import numpy as np
import pytest

from entropyne import (
    DeltaRecord,
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


def test_series_rejects_rank_deficiency():
    with pytest.raises(SupportDeficient):
        tsallis_series(np.diag([1.0, 0.0]).astype(complex), DIAG_SIGMA)


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
