"""Spectral-calculus substrate: decomposition, matrix functions, thermal states."""

import math

import numpy as np
import pytest

from entropyne import (
    NotHermitian,
    NumericalFailure,
    ZeroTemperature,
    check_hermitian,
    eigendecompose,
    gibbs_state,
    log_trace_exp,
    matrix_function,
    random_density_matrix,
    random_hermitian,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_check_hermitian_rejects_asymmetry():
    m = np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex)
    with pytest.raises(NotHermitian):
        check_hermitian(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(1.0, math.nan), -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_check_hermitian_rejects_non_finite_entry(entry, where):
    # A NaN asymmetry compares false against any tol: the entry itself is checked.
    m = np.eye(2, dtype=complex)
    m[where] = m[where[::-1]] = entry
    with pytest.raises(NotHermitian, match="non-finite"):
        check_hermitian(m)


def test_eigendecompose_identity():
    dec = eigendecompose(np.eye(2, dtype=complex))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0])


def test_eigensolver_failure_raises_numerical_failure(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalFailure, match="eigensolver failed"):
        eigendecompose(PAULI_X)


def test_eigendecompose_diagonal():
    dec = eigendecompose(np.diag([0.3, 0.7]).astype(complex))
    assert np.allclose(dec.eigenvalues, [0.3, 0.7])


def test_eigendecompose_pauli_x():
    dec = eigendecompose(PAULI_X)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_reconstruction(dim, seed):
    m = random_hermitian(dim, seed)
    dec = eigendecompose(m)
    assert np.linalg.norm(dec.reconstruct() - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
    v = dec.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10


def test_matrix_function_log_diagonal():
    out = matrix_function(np.diag([0.3, 0.7]).astype(complex), np.log)
    assert np.allclose(out, np.diag([math.log(0.3), math.log(0.7)]))


def test_matrix_function_identity_map():
    m = random_hermitian(4, 11)
    assert np.allclose(matrix_function(m, lambda x: x), m, atol=1e-10)


def test_matrix_function_strict_log_rejects_zero_eigenvalue():
    from entropyne import DomainError

    with pytest.raises(DomainError):
        matrix_function(np.diag([0.5, 0.5, 0.0]).astype(complex), np.log)


@pytest.mark.parametrize("seed", range(6))
def test_exp_log_roundtrip(seed):
    m = random_density_matrix(4, seed) + 0.5 * np.eye(4)
    logm = matrix_function(m, np.log)
    back = matrix_function(logm, np.exp)
    assert np.allclose(back, m, atol=1e-9)


def test_gibbs_infinite_temperature_limit():
    g = gibbs_state(np.diag([0.0, 3.0]).astype(complex), 1e9)
    assert np.allclose(g, np.diag([0.5, 0.5]), atol=1e-8)


def test_gibbs_bloch_magnitude_at_operating_point():
    # diag(+|h|/2, -|h|/2) with |h| = sqrt(14): the thermal polarization
    # tanh(|h|/(2T)) equals 0.01 at T near 187.08.
    h = math.sqrt(14.0) / 2.0 * np.diag([1.0, -1.0]).astype(complex)
    g = gibbs_state(h, 187.076)
    p = float(g[1, 1].real - g[0, 0].real)
    assert abs(p - 0.01) < 1e-5


def test_gibbs_trace_and_commutation():
    for seed in range(5):
        h = random_hermitian(5, seed)
        for t in (0.1, 1.0, -2.0):
            g = gibbs_state(h, t)
            assert abs(np.trace(g).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(g).min() >= -1e-12
            assert np.linalg.norm(g @ h - h @ g) <= 1e-10


def test_gibbs_rejects_zero_temperature():
    with pytest.raises(ZeroTemperature):
        gibbs_state(np.eye(2, dtype=complex), 0.0)


def test_log_trace_exp_two_level():
    # Unnormalized trace of e^{-H/T} for diag(1, -1) at T=1 is 2 cosh(1).
    h = np.diag([1.0, -1.0]).astype(complex)
    assert math.isclose(log_trace_exp(h, 1.0), math.log(2.0 * math.cosh(1.0)),
                        rel_tol=1e-12)


def test_log_trace_exp_overflow_safe():
    h = np.diag([0.0, 4000.0]).astype(complex)
    assert math.isclose(log_trace_exp(h, 1.0), 0.0, abs_tol=1e-12)


def test_random_density_matrix_properties():
    for dim in (1, 2, 4):
        rho = random_density_matrix(dim, 3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_random_density_matrix_reproducible():
    a = random_density_matrix(4, 99)
    b = random_density_matrix(4, 99)
    assert np.array_equal(a, b)
