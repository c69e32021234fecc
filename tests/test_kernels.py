"""Grid kernels against the scalar library, cell by cell, the one divergence rule
and the one rule for each scalar input (T, beta, nbar, finite fields)."""

import math

import numpy as np
import pytest

from entropyne import _kernels, fock, hermitian
from entropyne import gaussian
from entropyne.amplifier import (AmplifierConfig, ThermalLight, amplifier_hamiltonian,
                                 delta_argmin_temperature, nbar_from_temperature,
                                 thermal_light_covariance)
from entropyne.errors import (DivergentPartition, DomainError, InvalidGaussian, NegativeBeta,
                              NumericalFailure, UnphysicalCovariance, ZeroTemperature)
from entropyne.gaussian import (CovarianceState, GaussianParams, QuadraticHamiltonian,
                                gaussian_delta, log_partition_function,
                                random_quadratic_hamiltonian)
from entropyne.qubit import (BlochHamiltonian, equilibrium_bloch, log_partition_qubit,
                             qubit_delta_record)

THETAS = np.linspace(0.0, math.pi, 17)
TEMPS = np.linspace(0.5, 8.0, 11)
# Down to beta omega_eff ~ 1e-8, where the paper's su(1,1) ln Z has lost its
# denominator to rounding; the normal-mode ln Z is finite at every T > 0.
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
    """The kernel's cells against gaussian_delta; None for a divergent form,
    where the kernel's effective frequency and every record raise."""
    states = [thermal_light_covariance(ThermalLight(nbar), h.omega0) for nbar in NBARS]
    try:
        weff = h.effective_frequency
    except DivergentPartition:
        for t in temps:
            for state in states:
                with pytest.raises(DivergentPartition):
                    gaussian_delta(state, h, t)
        return None
    cells = _kernels.amplifier_delta_cells(temps, NBARS, h.k0_coefficient, weff)
    for i, t in enumerate(temps):
        for j, state in enumerate(states):
            rec = gaussian_delta(state, h, t)
            scale = abs(rec.energy) + t * rec.entropy + abs(t * rec.log_partition)
            assert abs(cells[i, j] - rec.delta) <= CELL_RTOL * scale, (t, NBARS[j])
    return cells


# The raise mask: a form's records raise exactly where its kernel has no
# frequency to take, and a convergent form's cells are all finite.
@pytest.mark.parametrize("kind", KINDS)
def test_amplifier_nan_mask_matches_raise_mask(kind):
    for seed in range(4):
        cells = check_cells_against_scalar(seeded_forms(kind, seed), WIDE_TEMPS)
        assert (cells is None) == (kind not in ("positive-definite", "above-threshold"))
        assert cells is None or np.isfinite(cells).all()


@pytest.mark.parametrize("name", NAMED_FORMS)
def test_named_forms_match_scalar(name):
    # WIDE_TEMPS, and the temperatures of the amplifier-divergent golden case.
    check_cells_against_scalar(NAMED_FORMS[name], np.linspace(0.2, 10.0, 8))
    cells = check_cells_against_scalar(NAMED_FORMS[name], WIDE_TEMPS)
    if name == "amplifier-default":
        assert np.isfinite(cells).all()
    else:
        assert cells is None


def test_amplifier_cells_match_gaussian_delta():
    h = QuadraticHamiltonian(omega0=1.3, omega1=0.6, omega2=complex(0.2, 0.15),
                             omega3=0.4)
    cells = check_cells_against_scalar(h, TEMPS)
    assert np.isfinite(cells).all()


def test_form_rule_threshold():
    # The frequency is 2 sqrt(g) of the rule's own g, so the rule alone
    # decides, and omega0 plays no part, however far it is from sqrt(w3/w1).
    for seed in range(20):
        rng = np.random.default_rng([seed, 13])
        w1, w3 = float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.3, 1.2))
        for sign, accepted in ((1.0, True), (-1.0, False), (0.0, False)):
            w2 = math.sqrt(w1 * w3 * (1.0 - sign * 2.0 * FORM_RTOL))
            if accepted:
                weff = _kernels.effective_frequency(w1, w2, w3)
                assert math.isfinite(weff) and weff > 0.0, seed
            else:
                with pytest.raises(DivergentPartition):
                    _kernels.effective_frequency(w1, w2, w3)
            for w0 in (math.sqrt(w3 / w1), 1e-9, 1e9):
                h = QuadraticHamiltonian(omega0=w0, omega1=w1, omega2=complex(w2, 0.0),
                                         omega3=w3)
                if accepted:
                    assert h.effective_frequency == weff
                    assert math.isfinite(log_partition_function(h, 1.0))
                else:
                    with pytest.raises(DivergentPartition):
                        h.effective_frequency
                    with pytest.raises(DivergentPartition):
                        log_partition_function(h, 1.0)


DIVERGENT_KINDS = ["negative-definite", "hyperbolic", "indefinite", "marginal", "below-threshold"]
PUBLIC_ENTRIES = {
    "effective_frequency": lambda h: h.effective_frequency,
    "log_partition_function": lambda h: log_partition_function(h, 1.0),
    "su11_coefficients": lambda h: gaussian.su11_coefficients(h, 1.0),
    "fock_diagonal_element": lambda h: gaussian.fock_diagonal_element(h, 1.0, 3),
    "gaussian_delta": lambda h: gaussian_delta(
        thermal_light_covariance(ThermalLight(1.0), h.omega0), h, 1.0),
}


@pytest.mark.parametrize("entry", PUBLIC_ENTRIES)
@pytest.mark.parametrize("kind", DIVERGENT_KINDS)
def test_every_entry_raises_one_divergence_error(kind, entry):
    for seed in range(4):
        with pytest.raises(DivergentPartition, match="^the form is not positive definite: "):
            PUBLIC_ENTRIES[entry](seeded_forms(kind, seed))


@pytest.mark.parametrize("coefficients", [(math.nan, 0.0, 1.0), (1.0, math.nan, 1.0),
                                          (1.0, 0.0, math.nan)])
def test_nan_coefficient_raises_divergent_partition(coefficients):
    with pytest.raises(DivergentPartition):
        _kernels.effective_frequency(*coefficients)


# ln Z against a 50-digit normal-mode reference: the library evaluates that
# form, so it is held to rounding of its terms, at any omega0 and down to
# beta omega_eff = 1e-9.  The paper's su(1,1) expression, written here from
# su11_pieces, is held to LOG_Z_ATOL where beta omega_eff is well conditioned:
# its denominator cancels like (beta omega_eff)^2, so its error grows as
# beta omega_eff falls.
LOG_Z_RTOL = 8.0 * np.finfo(np.float64).eps
LOG_Z_ATOL = 2e-10


def reference_log_z(mpmath, h, beta):
    """-beta Im w2 - ln(2 sinh(beta weff / 2)) at 50 digits, and the size of its terms."""
    with mpmath.workdps(50):
        w1, w2, w3 = (mpmath.mpf(v) for v in (h.omega1, h.omega2.real, h.omega3))
        x = mpmath.mpf(beta) * 2 * mpmath.sqrt(w1 * w3 - w2 * w2)
        shift = mpmath.mpf(beta) * mpmath.mpf(h.omega2.imag)
        log_sinh = mpmath.log(2 * mpmath.sinh(x / 2))
        return -shift - log_sinh, float(abs(shift) + x / 2 + abs(log_sinh - x / 2))


def test_log_z_matches_normal_mode_form():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2017)
    for _ in range(12):
        w1, w3 = rng.uniform(0.01, 100.0, 2)
        w2 = complex(rng.uniform(-0.9, 0.9) * math.sqrt(w1 * w3), rng.normal(0.0, 3.0))
        forms = [QuadraticHamiltonian(omega0=w0, omega1=float(w1), omega2=w2,
                                      omega3=float(w3))
                 for w0 in (1e-9, 1e-4, 1.0, 1e4, 1e9)]
        weff = forms[0].effective_frequency
        for x in np.geomspace(1e-9, 1e3, 25):
            beta = float(x) / weff
            exact, scale = reference_log_z(mpmath, forms[0], beta)
            for h in forms:
                assert abs(log_partition_function(h, beta) - exact) <= LOG_Z_RTOL * scale


def su11_log_z(h, beta):
    """The paper's ln Z = ln[zeta^{1/4} e^{-beta Im w2} / (1 - 2 zeta^{1/2} + zeta(1 - xi))^{1/2}]."""
    _, ln_sqrt_zeta, _, zeta_xi, _ = _kernels.su11_pieces(beta, h.k0_coefficient,
                                                          h.effective_frequency)
    sz = math.exp(ln_sqrt_zeta)
    return 0.5 * ln_sqrt_zeta - beta * h.omega2.imag \
        - 0.5 * math.log(1.0 - 2.0 * sz + sz * sz - zeta_xi)


def test_su11_log_z_matches_normal_mode_form():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    for seed in range(40):
        h = random_quadratic_hamiltonian(seed)
        for x in np.geomspace(1e-3, 50.0, 30):
            beta = float(x) / h.effective_frequency
            exact, _ = reference_log_z(mpmath, h, beta)
            worst = max(worst, abs(su11_log_z(h, beta) - exact))
    assert worst <= LOG_Z_ATOL


def broadcast_qubit_cells(p_norm, h0, h_norm, thetas, temps):
    """The kernel as one broadcast expression: E - T S + T ln Z."""
    t = temps[None, :]
    energy = 0.5 * (h0 + p_norm * h_norm * np.cos(thetas))[:, None]
    return energy - t * _kernels.qubit_entropy(p_norm) + t * _kernels.qubit_log_z(h0, h_norm, t)


def broadcast_amplifier_cells(temps, nbars, h):
    nb = nbars[None, :]
    k0 = h.omega0 * h.omega1 + h.omega3 / h.omega0
    weff = _kernels.effective_frequency(h.omega1, h.omega2.real, h.omega3)
    lnz = _kernels.gaussian_log_z(1.0 / temps, weff, 0.0)[:, None]
    energy = k0 * (1.0 + 2.0 * nb) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (1.0 + nb) * np.log1p(nb) - np.where(nb > 0.0, nb * np.log(
            np.where(nb > 0.0, nb, 1.0)), 0.0)
    t = temps[:, None]
    return energy - t * s + t * lnz


def test_kernels_bit_identical_to_broadcast_expression():
    # The kernels fill one buffer in place; every cell must be the same
    # float as the broadcast expression gives.
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
                                                       h.effective_frequency)
                assert np.array_equal(cells, broadcast_amplifier_cells(t, nbars, h))
                assert np.isfinite(cells).all()
        # A negative-definite form has no frequency to give either of them.
        with pytest.raises(DivergentPartition):
            broadcast_amplifier_cells(amp_temps, nbars, NAMED_FORMS["negative-definite-half"])


def test_scalar_delta_is_the_kernel_at_length_1():
    # Bit for bit: the qubit record is its grid kernel on one (theta, T)
    # cell, and gaussian_delta is (E - T S) + T ln Z with ln Z from the
    # kernel's gaussian_log_z over an array of T.
    rng = np.random.default_rng(2024)
    for _ in range(200):
        p_norm, theta = float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, math.pi))
        ham = BlochHamiltonian(h0=float(rng.normal(0.0, 3.0)),
                               h=rng.normal(size=3) * 10.0 ** rng.uniform(-3.0, 3.0))
        for sign in (1.0, -1.0):
            t = sign * 10.0 ** float(rng.uniform(-3.0, 3.0))
            cell = _kernels.qubit_delta_cells(p_norm, ham.h0, ham.norm, [theta], [t])[0, 0]
            assert qubit_delta_record(p_norm, theta, ham, t).delta == cell
    for seed in range(40):
        c = gaussian.covariance_from_params(gaussian.random_gaussian_params(seed))
        h = random_quadratic_hamiltonian(seed)
        temps = 10.0 ** rng.uniform(-2.0, 2.0, 10)
        energy, entropy = gaussian.mean_energy(c, h), gaussian.entropy_gaussian(gaussian.purity(c))
        lnz = _kernels.gaussian_log_z(1.0 / temps, h.effective_frequency, h.omega2.imag)
        cells = (energy - temps * entropy) + temps * lnz
        for t, cell in zip(temps, cells):
            assert gaussian_delta(c, h, float(t)).delta == cell


def counted(f, rounds):
    def wrapper(xs):
        rounds.append(xs)
        return f(xs)
    return wrapper


def test_argmin_rounds_negative_bracket_stop_rule():
    # b - a <= rel_tol min(|a|, |b|): 0.5 / 128^3 < 1e-6 * 0.5 after three
    # rounds.  A rule on max(a, 1e-12) would run to 1e-12 absolute.
    rounds = []
    t = _kernels.argmin_rounds(counted(lambda xs: np.abs(xs + 0.7), rounds), -1.0, -0.5, 1e-6)
    assert len(rounds) == 3
    assert abs(t + 0.7) <= 1e-6 * 0.5


@pytest.mark.parametrize("a, b", [(1.0, 0.5), (0.5, 0.5), (math.nan, 1.0), (0.5, math.nan)])
def test_argmin_rounds_rejects_bad_bracket(a, b):
    with pytest.raises(ValueError, match="a < b"):
        _kernels.argmin_rounds(lambda xs: xs, a, b, 1e-6)


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_argmin_rounds_non_finite_smallest_sample_raises(bad):
    # A NaN sample is the one np.argmin picks, and -inf is the smallest:
    # neither is a minimum, so the rounds stop there.
    def one_bad_sample(xs):
        ys = np.abs(xs - 0.7)
        ys[len(ys) // 3] = bad
        return ys

    with pytest.raises(NumericalFailure, match=f"^f = {bad} at a sample in"):
        _kernels.argmin_rounds(one_bad_sample, 0.5, 1.0, 1e-6)


@pytest.mark.parametrize("case", ["exact", "qubit"])
def test_argmin_rounds_tiny_rel_tol_stops_at_adjacent_floats(case):
    # rel_tol is far below one ulp, so only the bracket's stopping to shrink
    # ends the rounds: the last round samples at most two adjacent floats.
    if case == "exact":
        f, expected, tol = (lambda xs: np.abs(xs + 0.7)), -0.7, np.spacing(0.7)
    else:  # the T < 0 branch of the qubit zero locus, theta = 0
        h_norm = math.sqrt(14.0)
        f = lambda xs: np.abs(_kernels.qubit_delta_cells(0.99, 0.3, h_norm, np.zeros(1), xs)[0])
        expected = -h_norm / (2.0 * math.atanh(0.99))
        tol = 1e-5 * abs(expected)
    rounds = []
    t = _kernels.argmin_rounds(counted(f, rounds), -1.0, -0.5, 1e-300)
    assert len(rounds) <= 12
    assert len(np.unique(rounds[-1])) <= 2
    assert np.ptp(rounds[-1]) <= np.spacing(abs(t))
    assert abs(t - expected) <= tol


HAM = BlochHamiltonian(h0=0.4, h=np.array([0.0, 0.0, 3.0]))
OSC = QuadraticHamiltonian(omega0=1.0, omega1=0.5, omega2=0j, omega3=0.5)
# Every scalar entry point that takes T (or T', named so) ...
TEMPERATURE_ENTRIES = {
    "log_partition_qubit": ("T", lambda t: log_partition_qubit(HAM, t)),
    "equilibrium_bloch": ("T", lambda t: equilibrium_bloch(HAM, t)),
    "qubit_delta_record": ("T", lambda t: qubit_delta_record(0.5, 1.0, HAM, t)),
    "gibbs_state": ("T", lambda t: hermitian.gibbs_state(np.diag([0.0, 1.0]), t)),
    "log_trace_exp": ("T", lambda t: hermitian.log_trace_exp(np.diag([0.0, 1.0]), t)),
    "gaussian_delta": ("T", lambda t: gaussian_delta(
        thermal_light_covariance(ThermalLight(1.0), 1.0), OSC, t)),
    "nbar_from_temperature": ("T'", lambda t: nbar_from_temperature(t, 1.0)),
}
# ... and every one that takes beta = 1/T.
BETA_ENTRIES = {
    "log_partition_function": lambda b: log_partition_function(OSC, b),
    "partition_function": lambda b: gaussian.partition_function(OSC, b),
    "su11_coefficients": lambda b: gaussian.su11_coefficients(OSC, b),
    "fock_diagonal_element": lambda b: gaussian.fock_diagonal_element(OSC, b, 3),
    "stable_partition": lambda b: fock.stable_partition(OSC, b),
    "boltzmann_diagonal": lambda b: fock.boltzmann_diagonal(OSC, b, 4),
}
OFF_DOMAIN = [0.0, math.nan, math.inf, -math.inf]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", OFF_DOMAIN)
@pytest.mark.parametrize("entry", list(TEMPERATURE_ENTRIES) + list(BETA_ENTRIES))
def test_every_scalar_entry_keeps_the_shared_rule(entry, value):
    if entry in TEMPERATURE_ENTRIES:  # _kernels.check_temperature
        name, call = TEMPERATURE_ENTRIES[entry]
        error, message = ((ZeroTemperature, f"{name} = 0 is not supported") if value == 0.0
                          else (DomainError, f"{name} must be finite, got {value}"))
    else:  # _kernels.check_beta: beta = inf is T = 0
        call = BETA_ENTRIES[entry]
        error = ZeroTemperature if value == math.inf else NegativeBeta
        message = f"beta must be positive and finite, got {value}"
    with pytest.raises(error) as info:
        call(value)
    assert info.type is error and str(info.value) == message


NBAR_ENTRIES = {
    "ThermalLight": lambda nb: ThermalLight(nb),
    "delta_argmin_temperature": lambda nb: delta_argmin_temperature(
        AmplifierConfig(), nb, (0.1, 10.0)),
    "thermal_light_fock": lambda nb: fock.thermal_light_fock(nb, 4),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("nbar", [-1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", NBAR_ENTRIES)
def test_every_nbar_entry_keeps_the_shared_rule(entry, nbar):
    with pytest.raises(ValueError) as info:
        NBAR_ENTRIES[entry](nbar)
    assert info.type is ValueError
    assert str(info.value) == f"nbar must be finite and >= 0, got {nbar}"


def test_argmin_adds_positive_nbar():
    with pytest.raises(DomainError, match="^nbar must be positive$"):
        delta_argmin_temperature(AmplifierConfig(), 0.0, (0.1, 10.0))


# Each parameter dataclass: its fields, valid values, and its own exception class.
DATACLASSES = [
    (GaussianParams, dict(a1=1.0 + 0.2j, a2=0.5, b1=0.1 - 0.3j), InvalidGaussian),
    (CovarianceState, dict(sigma_pp=1.0, sigma_qq=1.0, sigma_pq=0.1, mean_p=0.2, mean_q=-0.3),
     UnphysicalCovariance),
    (QuadraticHamiltonian, dict(omega0=1.0, omega1=0.5, omega2=0.1 + 0.2j, omega3=0.5),
     ValueError),
    (BlochHamiltonian, dict(h0=0.4, h=np.array([0.0, 1.0, 2.0])), ValueError),
    (AmplifierConfig, dict(omega0=1.0, omega=3.0, k=0.1, t=0.3, omega_t=1.0), ValueError),
]
FIELD_CASES = [(cls, kwargs, error, name, bad)
               for cls, kwargs, error in DATACLASSES for name in kwargs
               for bad in (math.nan, math.inf, -math.inf)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cls, kwargs, error, name, bad", FIELD_CASES,
                         ids=[f"{c[0].__name__}-{c[3]}-{c[4]}" for c in FIELD_CASES])
def test_every_field_is_finite_by_one_rule(cls, kwargs, error, name, bad):
    cls(**kwargs)  # the valid instance is accepted
    value = kwargs[name]
    if isinstance(value, complex):
        bad = complex(value.real, bad)  # a non-finite imaginary part alone
    elif isinstance(value, np.ndarray):
        bad = np.array([0.0, bad, 2.0])
    with pytest.raises(error) as info:
        cls(**{**kwargs, name: bad})
    assert info.type is error
    assert str(info.value) == f"{name} must be finite, got {bad}"
