"""Grid kernels against the scalar library, cell by cell, divergent cells included."""

import math

import numpy as np
import pytest

from entropyne import _kernels
from entropyne.amplifier import (AmplifierConfig, ThermalLight, amplifier_hamiltonian,
                                 thermal_light_covariance)
from entropyne.errors import DomainError
from entropyne.gaussian import (QuadraticHamiltonian, gaussian_delta, log_partition_function,
                                random_quadratic_hamiltonian)
from entropyne.qubit import BlochHamiltonian, qubit_delta_record

THETAS = np.linspace(0.0, math.pi, 17)
TEMPS = np.linspace(0.5, 8.0, 11)
# Down to beta omega_eff ~ 1e-8, where the closed form's denominator check fires.
WIDE_TEMPS = np.geomspace(0.05, 1e8, 12)
NBARS = np.linspace(0.0, 6.0, 4)

# Cells and records share ln Z; energy and entropy are written differently
# (Tr(Omega sigma) and the purity form in the scalar path), so they agree to
# rounding of the terms that cancel in Delta = E - T S + T ln Z.
CELL_RTOL = 1e-14
# The form rule's threshold: g = w1 w3 - Re(w2)^2 must exceed 4 ulps of w1 w3.
FORM_RTOL = 4.0 * np.finfo(np.float64).eps


def test_form_threshold_is_stated():
    assert _kernels._FORM_RTOL == FORM_RTOL


# 1 + 5e-13 is past |p| = 1 but within the accepted 1e-12 slack; both paths clamp it.
@pytest.mark.parametrize("p_norm", [0.37, 1.0 + 5e-13])
def test_qubit_cells_match_records(p_norm):
    h0, h_norm = 0.4, math.sqrt(14.0)
    ham = BlochHamiltonian(h0=h0, h=np.array([0.0, 0.0, h_norm]))
    for temps in (TEMPS, -TEMPS):
        cells = _kernels.qubit_delta_cells(p_norm, h0, h_norm, THETAS, temps)
        for i, theta in enumerate(THETAS):
            for j, t in enumerate(temps):
                rec = qubit_delta_record(p_norm, theta, ham, t)
                scale = abs(rec.energy) + abs(t) * rec.entropy \
                    + abs(t * rec.log_partition)
                assert abs(cells[i, j] - rec.delta) <= CELL_RTOL * scale


def form(w1, w2_re, w3, seed):
    """A Hamiltonian with the given real form, a seeded omega0 and Im omega2."""
    rng = np.random.default_rng([seed, 7])
    return QuadraticHamiltonian(omega0=float(rng.uniform(0.5, 2.0)), omega1=w1,
                                omega2=complex(w2_re, rng.normal(0.0, 0.3)), omega3=w3)


def seeded_forms(kind, seed):
    rng = np.random.default_rng([seed, 11])
    w1, w3 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
    if kind == "positive-definite":
        return random_quadratic_hamiltonian(seed)
    if kind == "negative-definite":
        return form(-w1, 0.3 * math.sqrt(w1 * w3), -w3, seed)
    if kind == "hyperbolic":
        return form(w1, 1.5 * math.sqrt(w1 * w3), w3, seed)
    if kind == "indefinite":
        return form(w1, 0.0, -w3, seed)
    if kind == "marginal":
        # Powers of two keep g = w1 w3 - Re(w2)^2 exactly 0.
        return form(4.0 * w1, 2.0 * w1, w1, seed)
    sign = {"above-threshold": -1.0, "below-threshold": 1.0}[kind]
    return form(w1, math.sqrt(w1 * w3 * (1.0 + sign * 2.0 * FORM_RTOL)), w3, seed)


KINDS = ["positive-definite", "negative-definite", "hyperbolic", "indefinite", "marginal",
         "above-threshold", "below-threshold"]
NAMED_FORMS = {
    # The grid used to give finite cells (Delta = -2.93 at T = 1, nbar = 1).
    "negative-definite-half": QuadraticHamiltonian(omega0=1.0, omega1=-0.5, omega2=0j,
                                                   omega3=-0.5),
    # g is exactly 0.0 here; the grid used to give finite rows.
    "amplifier-marginal": amplifier_hamiltonian(AmplifierConfig(k=0.5, t=0.3)),
    "amplifier-default": amplifier_hamiltonian(AmplifierConfig()),
}


def check_cells_against_scalar(h, temps):
    cells = _kernels.amplifier_delta_cells(temps, NBARS, h.k0_coefficient,
                                           h.effective_frequency, h.omega2.imag)
    for i, t in enumerate(temps):
        for j, nbar in enumerate(NBARS):
            state = thermal_light_covariance(ThermalLight(nbar), h.omega0)
            try:
                rec = gaussian_delta(state, h, t)
            except DomainError:
                assert math.isnan(cells[i, j]), (t, nbar)
                continue
            scale = abs(rec.energy) + t * rec.entropy + abs(t * rec.log_partition)
            assert abs(cells[i, j] - rec.delta) <= CELL_RTOL * scale, (t, nbar)
    return cells


@pytest.mark.parametrize("kind", KINDS)
def test_amplifier_nan_mask_matches_raise_mask(kind):
    for seed in range(4):
        check_cells_against_scalar(seeded_forms(kind, seed), WIDE_TEMPS)


@pytest.mark.parametrize("name", NAMED_FORMS)
def test_named_forms_match_scalar(name):
    # WIDE_TEMPS, and the temperatures of the amplifier-divergent golden case.
    check_cells_against_scalar(NAMED_FORMS[name], np.linspace(0.2, 10.0, 8))
    cells = check_cells_against_scalar(NAMED_FORMS[name], WIDE_TEMPS)
    divergent = np.isnan(cells).all(axis=1)
    if name == "amplifier-default":
        assert divergent.any() and not divergent.all()
    else:
        assert divergent.all()


def test_amplifier_cells_match_gaussian_delta():
    h = QuadraticHamiltonian(omega0=1.3, omega1=0.6, omega2=complex(0.2, 0.15),
                             omega3=0.4)
    cells = check_cells_against_scalar(h, TEMPS)
    assert not np.isnan(cells).any()


def test_form_rule_threshold():
    # With omega0 = sqrt(w3/w1) the frequency expression does not cancel,
    # so the rule alone decides.
    for seed in range(20):
        rng = np.random.default_rng([seed, 13])
        w1, w3 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
        w0 = math.sqrt(w3 / w1)
        for sign, accepted in ((1.0, True), (-1.0, False), (0.0, False)):
            w2 = math.sqrt(w1 * w3 * (1.0 - sign * 2.0 * FORM_RTOL))
            weff = _kernels.effective_frequency(w0, w1, w2, w3)
            assert math.isfinite(weff) == accepted, (seed, sign)
    assert math.isnan(_kernels.effective_frequency(1.0, math.nan, 0.0, 1.0))


# Closed form against the normal-mode form ln Z = -beta Im w2 - ln(2 sinh(beta weff / 2)),
# weff = 2 sqrt(w1 w3 - Re(w2)^2).  The closed form's denominator cancels like
# (beta weff)^2, so its error grows as beta weff falls.
LOG_Z_ATOL = 2e-10


def test_log_z_matches_normal_mode_form():
    worst = 0.0
    for seed in range(40):
        h = random_quadratic_hamiltonian(seed)
        weff = 2.0 * math.sqrt(h.omega1 * h.omega3 - h.omega2.real ** 2)
        for x in np.geomspace(1e-3, 50.0, 30):
            beta = float(x) / weff
            exact = -beta * h.omega2.imag - (0.5 * x + math.log(-math.expm1(-x)))
            worst = max(worst, abs(log_partition_function(h, beta) - exact))
    assert worst <= LOG_Z_ATOL


def broadcast_qubit_cells(p_norm, h0, h_norm, thetas, temps):
    """The kernel as one broadcast expression: E - T S + T ln Z."""
    t = temps[None, :]
    energy = 0.5 * (h0 + p_norm * h_norm * np.cos(thetas))[:, None]
    return energy - t * _kernels._qubit_entropy(p_norm) + t * _kernels.qubit_log_z(h0, h_norm, t)


def broadcast_amplifier_cells(temps, nbars, h):
    nb = nbars[None, :]
    k0 = h.omega0 * h.omega1 + h.omega3 / h.omega0
    weff = _kernels.effective_frequency(h.omega0, h.omega1, h.omega2.real, h.omega3)
    lnz = _kernels.gaussian_log_z(1.0 / temps, k0, weff, h.omega2.imag)[:, None]
    energy = k0 * (1.0 + 2.0 * nb) / 2.0 + h.omega2.imag
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (1.0 + nb) * np.log1p(nb) - np.where(nb > 0.0, nb * np.log(
            np.where(nb > 0.0, nb, 1.0)), 0.0)
    t = temps[:, None]
    return energy - t * s + t * lnz


def test_kernels_bit_identical_to_broadcast_expression():
    # The kernels fill one buffer in place; every cell must be the same
    # float as the broadcast expression gives, NaN cells included.
    for seed in range(6):
        rng = np.random.default_rng([seed, 17])
        thetas = np.sort(rng.uniform(0.0, math.pi, 60))
        temps = rng.uniform(0.01, 20.0, 70) * rng.choice([-1.0, 1.0], 70)
        p_norm, h0, h_norm = rng.uniform(0.0, 1.0), rng.normal(), rng.uniform(0.1, 5.0)
        assert np.array_equal(_kernels.qubit_delta_cells(p_norm, h0, h_norm, thetas, temps),
                              broadcast_qubit_cells(p_norm, h0, h_norm, thetas, temps))
        nbars = np.concatenate([[0.0], rng.uniform(0.0, 8.0, 40)])
        amp_temps = np.sort(rng.uniform(0.05, 10.0, 50))
        for h in (random_quadratic_hamiltonian(seed), NAMED_FORMS["amplifier-default"]):
            for t in (amp_temps, WIDE_TEMPS):
                cells = _kernels.amplifier_delta_cells(t, nbars, h.k0_coefficient,
                                                       h.effective_frequency, h.omega2.imag)
                assert np.array_equal(cells, broadcast_amplifier_cells(t, nbars, h),
                                      equal_nan=True)
    # WIDE_TEMPS blanks the default amplifier's hottest rows, so NaN rows are covered.
    h = NAMED_FORMS["amplifier-default"]
    cells = _kernels.amplifier_delta_cells(WIDE_TEMPS, NBARS, h.k0_coefficient,
                                           h.effective_frequency, h.omega2.imag)
    assert np.isnan(cells).all(axis=1).any()
