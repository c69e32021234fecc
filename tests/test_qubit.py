"""Closed-form qubit observables, equilibrium loci and distance grids."""

import math

import numpy as np
import pytest

from entropyne import (
    BlochHamiltonian,
    BlochNormExceeded,
    BlochState,
    DomainError,
    GridSpec,
    NumericalFailure,
    ZeroTemperature,
    bloch_entropy,
    delta_from_operators,
    density_from_bloch,
    equilibrium_bloch,
    equilibrium_temperature,
    hamiltonian_from_bloch,
    log_partition_qubit,
    log_trace_exp,
    qubit_delta_grid,
    qubit_delta_record,
    qubit_observables,
    von_neumann_entropy,
)
from entropyne import verify
from entropyne.verify import refine_zero_temperature

H_NORM = math.sqrt(14.0)
HAM_Z = BlochHamiltonian(h0=0.0, h=np.array([0.0, 0.0, H_NORM]))
# The zero of the distance at T_eq is a double root (dDelta/dT = 0 there), so
# the rounding noise of Delta's cancelling terms widens it into a plateau a
# few 1e-6 T_eq wide at |p| = 0.01.  A minimizer of |Delta| lands somewhere
# on it (at most 2.0e-6 relative on the cases below).
ZERO_LOCUS_RTOL = 1e-5


def test_density_from_bloch_examples():
    assert np.allclose(density_from_bloch(BlochState(np.zeros(3))),
                       np.diag([0.5, 0.5]))
    assert np.allclose(density_from_bloch(BlochState(np.array([0.0, 0.0, 1.0]))),
                       np.diag([1.0, 0.0]))
    rho = density_from_bloch(BlochState(np.array([1.0, 0.0, 0.0])))
    assert np.allclose(rho, 0.5 * np.ones((2, 2)))
    assert np.allclose(sorted(np.linalg.eigvalsh(rho)), [0.0, 1.0], atol=1e-12)


def test_density_eigenvalues_from_norm():
    s = BlochState(np.array([0.3, -0.2, 0.5]))
    w = np.linalg.eigvalsh(density_from_bloch(s))
    assert np.allclose(sorted(w), [(1 - s.norm) / 2, (1 + s.norm) / 2])


def test_bloch_norm_bound():
    with pytest.raises(BlochNormExceeded):
        BlochState(np.array([1.0, 1.0, 0.0]))


def test_bloch_norm_bound_rejects_nan():
    # |p| = NaN fails the same rule as |p| > 1, in the state, the entropy and the grid.
    with pytest.raises(BlochNormExceeded):
        BlochState(np.array([math.nan, 0.0, 0.0]))
    with pytest.raises(BlochNormExceeded):
        bloch_entropy(math.nan)
    with pytest.raises(BlochNormExceeded):
        qubit_delta_grid(math.nan, HAM_Z, GridSpec(0.0, 1.0, 2), GridSpec(1.0, 2.0, 2))


def test_hamiltonian_from_bloch_examples():
    assert np.allclose(
        hamiltonian_from_bloch(BlochHamiltonian(0.0, np.array([0.0, 0.0, 2.0]))),
        np.diag([1.0, -1.0]))
    assert np.allclose(
        hamiltonian_from_bloch(BlochHamiltonian(2.0, np.zeros(3))), np.eye(2))
    w = np.linalg.eigvalsh(hamiltonian_from_bloch(HAM_Z))
    assert np.allclose(sorted(w), [-H_NORM / 2, H_NORM / 2])


def test_bloch_entropy_endpoints():
    assert math.isclose(bloch_entropy(0.0), math.log(2.0), rel_tol=1e-12)
    assert bloch_entropy(1.0) == 0.0


def test_log_partition_two_level():
    # h0=0, |h|=2, T=1: ln Tr e^{-H/T} = ln(2 cosh 1).
    bh = BlochHamiltonian(0.0, np.array([0.0, 0.0, 2.0]))
    assert math.isclose(log_partition_qubit(bh, 1.0),
                        math.log(2.0 * math.cosh(1.0)), rel_tol=1e-12)


def test_log_partition_rejects_zero_temperature():
    with pytest.raises(ZeroTemperature):
        log_partition_qubit(HAM_Z, 0.0)


def test_delta_record_past_the_double_range_raises():
    # -h0/(2T) overflows ln Z to +inf at T = 1e-300, without a numpy warning.
    with pytest.raises(NumericalFailure):
        qubit_delta_record(0.5, 0.0, BlochHamiltonian(-1e300, [0.0, 0.0, 1.0]), 1e-300)


@pytest.mark.parametrize("h0, h_norm", [(-1e300, 1.0), (1e300, 1e300)])
def test_log_partition_past_the_double_range_raises(h0, h_norm):
    # At T = 1e-300, -h0/(2T) overflows ln Z to +inf, or to -inf + inf = NaN
    # beside |h|/(2T): neither is a double, and numpy warns of nothing.
    bh = BlochHamiltonian(h0, [0.0, 0.0, h_norm])
    with pytest.raises(NumericalFailure, match="ln Z"):
        log_partition_qubit(bh, 1e-300)
    with pytest.raises(NumericalFailure, match="ln Z"):
        qubit_observables(BlochState([0.0, 0.0, 0.5]), bh, 1e-300)
    with pytest.raises(NumericalFailure, match="ln Z"):
        qubit_delta_record(0.5, 0.0, bh, 1e-300)


@pytest.mark.parametrize("seed", range(25))
def test_observables_match_operator_route(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=3)
    p *= rng.uniform(0.0, 0.999) / np.linalg.norm(p)
    state = BlochState(p)
    ham = BlochHamiltonian(h0=float(rng.normal()), h=rng.normal(size=3))
    t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
    obs = qubit_observables(state, ham, t)
    rho = density_from_bloch(state)
    hm = hamiltonian_from_bloch(ham)
    assert abs(obs.energy - np.trace(rho @ hm).real) <= 1e-10
    assert abs(obs.entropy - von_neumann_entropy(rho)) <= 1e-10
    assert abs(obs.log_partition - log_trace_exp(hm, t)) <= 1e-10


def test_equilibrium_bloch_antiparallel():
    p = equilibrium_bloch(HAM_Z, 187.076)
    assert abs(p.norm - 0.01) < 1e-5
    assert p.p[2] < 0.0  # antiparallel to h for T > 0


def test_equilibrium_bloch_parallel_negative_temperature():
    p = equilibrium_bloch(HAM_Z, -0.70687)
    assert abs(p.norm - 0.99) < 1e-4
    assert p.p[2] > 0.0  # parallel to h for T < 0


def test_equilibrium_bloch_free_hamiltonian():
    assert equilibrium_bloch(BlochHamiltonian(1.0, np.zeros(3)), 2.0).norm == 0.0


def test_equilibrium_temperature_values():
    assert abs(equilibrium_temperature(0.01, H_NORM) - 187.076) < 1e-3
    assert abs(equilibrium_temperature(0.99, H_NORM) - 0.70687) < 1e-5
    assert abs(equilibrium_temperature(0.99, H_NORM, sign=-1) + 0.70687) < 1e-5


@pytest.mark.parametrize("p_norm", [0.0, 1.0])
def test_equilibrium_temperature_domain(p_norm):
    with pytest.raises(DomainError):
        equilibrium_temperature(p_norm, H_NORM)


@pytest.mark.parametrize("h_norm", [0.0, math.nan])
def test_equilibrium_temperature_rejects_h_norm(h_norm):
    with pytest.raises(DomainError, match="h_norm"):
        equilibrium_temperature(0.5, h_norm)


@pytest.mark.parametrize("theta,t,name", [(math.nan, 1.0, "theta"), (math.inf, 1.0, "theta"),
                                          (0.0, math.nan, "T"), (0.0, -math.inf, "T"),
                                          (0.0, math.inf, "T")])
def test_record_rejects_non_finite_theta_or_temperature(theta, t, name):
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        qubit_delta_record(0.5, theta, HAM_Z, t)
    if name == "T":  # the record's temperature rule is that of every single-T call
        state = BlochState(np.array([0.0, 0.0, 0.5]))
        for call in (lambda: log_partition_qubit(HAM_Z, t),
                     lambda: qubit_observables(state, HAM_Z, t),
                     lambda: equilibrium_bloch(HAM_Z, t)):
            with pytest.raises(DomainError, match="^T must be finite"):
                call()


def test_record_evaluates_each_piece_once(monkeypatch):
    from entropyne import _kernels

    calls = []
    for name in ("qubit_energy", "qubit_log_z"):
        piece = getattr(_kernels, name)

        def counting(*args, _piece=piece, _name=name):
            calls.append(_name)
            return _piece(*args)

        monkeypatch.setattr(_kernels, name, counting)
    qubit_delta_record(0.5, 1.0, HAM_Z, 2.0)
    assert sorted(calls) == ["qubit_energy", "qubit_log_z"]


@pytest.mark.parametrize("p_norm,theta,sign", [(0.01, math.pi, 1),
                                               (0.99, math.pi, 1),
                                               (0.99, 0.0, -1)])
def test_delta_vanishes_at_equilibrium(p_norm, theta, sign):
    t_eq = equilibrium_temperature(p_norm, H_NORM, sign=sign)
    rec = qubit_delta_record(p_norm, theta, HAM_Z, t_eq)
    assert abs(rec.delta) <= 1e-10


@pytest.mark.parametrize("seed", range(15))
def test_record_matches_operator_distance(seed):
    rng = np.random.default_rng(seed)
    p_norm = float(rng.uniform(0.0, 0.999))
    theta = float(rng.uniform(0.0, math.pi))
    t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 20.0))
    ham = BlochHamiltonian(h0=float(rng.normal()), h=rng.normal(size=3))
    # Rotate p to angle theta from h in the plane spanned by h and a
    # transverse direction; the closed form only sees (|p|, |h|, theta).
    axis = ham.h / np.linalg.norm(ham.h)
    trans = np.cross(axis, [1.0, 0.0, 0.0])
    if np.linalg.norm(trans) < 1e-8:
        trans = np.cross(axis, [0.0, 1.0, 0.0])
    trans /= np.linalg.norm(trans)
    p = p_norm * (math.cos(theta) * axis + math.sin(theta) * trans)
    rec = qubit_delta_record(p_norm, theta, ham, t)
    op = delta_from_operators(density_from_bloch(BlochState(p)),
                              hamiltonian_from_bloch(ham), t)
    assert abs(rec.delta - op.delta) <= 1e-10


def test_grid_sign_and_shape():
    grid = qubit_delta_grid(0.5, HAM_Z, GridSpec(0.0, math.pi, 7),
                            GridSpec(0.5, 5.0, 9))
    assert grid.cells.shape == (7, 9)
    assert (grid.cells >= -1e-10).all()
    neg = qubit_delta_grid(0.5, HAM_Z, GridSpec(0.0, math.pi, 7),
                           GridSpec(-5.0, -0.5, 9))
    assert (neg.cells <= 1e-10).all()


def test_grid_rejects_mixed_sign_temperatures():
    with pytest.raises(ZeroTemperature):
        qubit_delta_grid(0.5, HAM_Z, GridSpec(0.0, math.pi, 5),
                         GridSpec(-1.0, 1.0, 5))


def test_grid_constant_in_theta_at_p_zero():
    grid = qubit_delta_grid(0.0, HAM_Z, GridSpec(0.0, math.pi, 11),
                            GridSpec(0.5, 5.0, 6))
    assert np.allclose(grid.cells, grid.cells[0], atol=1e-14)


@pytest.mark.parametrize("j", [520, 600, 1000])
@pytest.mark.parametrize("h", [[0.0, 0.0, H_NORM], [1.0, 2.0, 2.0]])
def test_grid_scales_with_h_and_temperature(j, h):
    # With h0 = 0, Delta is homogeneous of degree 1 in (h, T), and scaling by
    # 2^j is exact; |h| is past 1.34e154, where its square overflows.
    s = 2.0 ** j
    thetas = GridSpec(0.0, math.pi, 7)
    base = qubit_delta_grid(0.5, BlochHamiltonian(h0=0.0, h=np.array(h)), thetas,
                            GridSpec(0.5, 5.0, 9))
    scaled = qubit_delta_grid(0.5, BlochHamiltonian(h0=0.0, h=s * np.array(h)), thetas,
                              GridSpec(s * 0.5, s * 5.0, 9))
    assert np.array_equal(scaled.cells, s * base.cells)


@pytest.mark.parametrize("p_norm", [0.01, 0.1, 0.5, 0.9, 0.99])
@pytest.mark.parametrize("h_norm", [1.0, H_NORM])
@pytest.mark.parametrize("sign", [1, -1])
def test_refine_zero_temperature_finds_equilibrium_temperature(p_norm, h_norm, sign):
    # theta = pi for T > 0 and theta = 0 for T < 0; h0 != 0 shifts E and
    # T ln Z by h0/2 each and leaves the zero where it is.
    ham = BlochHamiltonian(h0=0.3, h=h_norm * np.array([1.0, 2.0, 2.0]) / 3.0)
    t_eq = equilibrium_temperature(p_norm, h_norm, sign)
    theta = math.pi if sign > 0 else 0.0
    lo, hi = sorted((0.6 * t_eq, 1.7 * t_eq))
    t_zero = refine_zero_temperature(p_norm, ham, theta, lo, hi)
    assert abs(t_zero - t_eq) <= ZERO_LOCUS_RTOL * abs(t_eq)


@pytest.mark.parametrize("scale", [1.0 + 1e-5, 1.0 - 1e-5, 1.0 + 3e-7, 1.0 - 3e-7])
def test_zero_locus_family_catches_a_scaled_minimizer(scale, monkeypatch):
    # The family holds T* to a few times the minimizer's resolution of the
    # exact locus; with read-off figures it passed T* scaled by 1 + 3e-4.
    assert verify.check_qubit_zero_locus(2024, False).passed
    refine = verify.refine_zero_temperature
    monkeypatch.setattr(verify, "refine_zero_temperature",
                        lambda *args: scale * refine(*args))
    assert not verify.check_qubit_zero_locus(2024, False).passed
