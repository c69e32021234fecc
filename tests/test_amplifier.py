"""Parametric-amplifier example: Hamiltonian map, thermal light, minimum locus."""

import json
import math

import numpy as np
import pytest

from entropyne import (
    AmplifierConfig,
    BracketError,
    DivergentPartition,
    DomainError,
    GridSpec,
    NumericalFailure,
    ThermalLight,
    amplifier_delta_surface,
    amplifier_hamiltonian,
    delta_argmin_temperature,
    entropy_gaussian,
    gaussian_delta,
    mean_energy,
    nbar_from_temperature,
    purity,
    stable_partition,
    thermal_light_covariance,
    thermal_light_fock,
)
from entropyne import _kernels, amplifier, grid_from_json_dict
from entropyne.amplifier import _argmin_markers

from dense_fock import FockTruncation, quadratic_hamiltonian_matrix

CFG = AmplifierConfig()  # omega0=omega_t=1, omega=3, k=0.1, t=0


def test_hamiltonian_k0_is_harmonic():
    h = amplifier_hamiltonian(AmplifierConfig(k=0.0))
    assert (h.omega1, h.omega2, h.omega3) == (0.5, 0.0, 0.5)


def test_hamiltonian_t0_values():
    h = amplifier_hamiltonian(CFG)
    assert math.isclose(h.omega1, 0.6, rel_tol=1e-12)
    assert h.omega2 == 0.0
    assert math.isclose(h.omega3, 0.4, rel_tol=1e-12)
    assert abs(h.gamma1 - (-0.1)) <= 1e-15


def test_hamiltonian_quarter_period():
    # omega*t = pi/2 moves the interaction entirely into the cross term.
    h = amplifier_hamiltonian(AmplifierConfig(t=math.pi / 6.0))
    assert math.isclose(h.omega1, 0.5, abs_tol=1e-12)
    assert math.isclose(h.omega2.real, 0.1, abs_tol=1e-12)
    assert math.isclose(h.omega3, 0.5, abs_tol=1e-12)


def test_thermal_light_covariance_values():
    vac = thermal_light_covariance(ThermalLight(0.0), 1.0)
    assert (vac.sigma_pp, vac.sigma_qq) == (0.5, 0.5)
    assert math.isclose(vac.determinant, 0.25, rel_tol=1e-12)
    one = thermal_light_covariance(ThermalLight(1.0), 1.0)
    assert (one.sigma_pp, one.sigma_qq) == (1.5, 1.5)
    assert math.isclose(purity(one), 1.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(entropy_gaussian(purity(one)), math.log(4.0),
                        rel_tol=1e-12)


@pytest.mark.parametrize("omega0", [0.0, -1.0, math.nan, math.inf])
def test_thermal_light_covariance_rejects_omega0(omega0):
    with pytest.raises(ValueError, match=f"^omega0 must be positive and finite, got {omega0}$"):
        thermal_light_covariance(ThermalLight(1.0), omega0)


def test_nbar_from_temperature():
    assert math.isclose(nbar_from_temperature(1.0 / math.log(2.0), 1.0), 1.0,
                        rel_tol=1e-12)
    assert abs(nbar_from_temperature(10.0, 1.0) - 9.508) < 1e-3
    assert nbar_from_temperature(1e-3, 1.0) < 1e-10
    with pytest.raises(DomainError, match="^T' must be positive, got -1.0$"):
        nbar_from_temperature(-1.0, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t_prime, omega_t, message", [
    (math.nan, 1.0, "T' must be finite, got nan"),  # returned nan
    (math.inf, 1.0, "T' must be finite, got inf"),  # ZeroDivisionError
    (1.0, math.nan, "omega_t must be positive and finite, got nan"),  # returned nan
    (1.0, math.inf, "omega_t must be positive and finite, got inf"),
    (1.0, 0.0, "omega_t must be positive and finite, got 0.0"),
])
def test_nbar_from_temperature_names_the_bad_input(t_prime, omega_t, message):
    with pytest.raises(DomainError) as info:
        nbar_from_temperature(t_prime, omega_t)
    assert str(info.value) == message


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega_t", [1e-15, 1e-16, 1e-300])
def test_nbar_past_the_double_range_is_numerical_failure(omega_t):
    # nbar ~ T'/omega_t: 1e-15 returned inf, 1e-16 (omega_t/T' underflows to 0)
    # raised ZeroDivisionError.
    with pytest.raises(NumericalFailure, match="past the double range"):
        nbar_from_temperature(1e308, omega_t)


def test_nbar_at_the_edge_of_the_double_range():
    # The largest nbars still a double: 1/x for the smallest x that the rule accepts.
    assert nbar_from_temperature(1e308, 1.0) == pytest.approx(1e308, rel=1e-12)
    x = 1.0 / np.finfo(float).max
    assert math.isfinite(nbar_from_temperature(1.0, np.nextafter(x, 1.0)))


@pytest.mark.parametrize("k", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("nbar", [0.5, 2.0])
def test_energy_cancellation_at_t0(k, nbar):
    h = amplifier_hamiltonian(AmplifierConfig(k=k))
    cov = thermal_light_covariance(ThermalLight(nbar), 1.0)
    assert abs(mean_energy(cov, h) - (1.0 + 2.0 * nbar) / 2.0) <= 1e-12


def test_surface_shape_sign_and_markers():
    surface = amplifier_delta_surface(CFG, GridSpec(0.2, 10.0, 25),
                                      GridSpec(0.2, 10.0, 13))
    assert surface.cells.shape == (25, 13)
    assert surface.cells.min() >= -1e-9
    assert surface.to_csv_text().splitlines()[0] == "T,nbar,delta,argmin"
    assert (surface.markers.sum(axis=0) == 1).all()


def loop_argmin_markers(cells):
    """Reference: one argmin per column."""
    markers = np.zeros(cells.shape, dtype=int)
    for j in range(cells.shape[1]):
        markers[np.argmin(cells[:, j]), j] = 1
    return markers


def test_argmin_markers_match_column_loop():
    rng = np.random.default_rng(5)
    cells = rng.integers(0, 4, (40, 30)).astype(float)  # many ties
    assert np.array_equal(_argmin_markers(cells), loop_argmin_markers(cells))
    cells[5:, 3] = 9.0               # a column whose minimum is in its first rows
    cells[:, 4] = 2.0                # a column tied everywhere
    cells[[2, 9], 5] = [-1e300, -1e300]
    markers = _argmin_markers(cells)
    assert np.array_equal(markers, loop_argmin_markers(cells))
    assert markers[0, 4] == 1 and markers[2, 5] == 1
    surface = amplifier_delta_surface(CFG, GridSpec(0.2, 10.0, 40), GridSpec(0.5, 4.0, 6))
    assert np.array_equal(surface.markers, loop_argmin_markers(surface.cells))


def test_surface_markers_are_one_byte_per_cell():
    surface = amplifier_delta_surface(CFG, GridSpec(0.2, 10.0, 40), GridSpec(0.5, 4.0, 6))
    assert surface.markers.dtype == np.int8
    assert surface.markers.shape == surface.cells.shape
    assert surface.markers.nbytes == surface.cells.size


def test_markers_stay_int8_through_json():
    surface = amplifier_delta_surface(CFG, GridSpec(0.2, 10.0, 40), GridSpec(0.5, 4.0, 6))
    back = grid_from_json_dict(json.loads(surface.to_json_text()))
    assert back.markers.dtype == np.int8
    assert np.array_equal(back.markers, surface.markers)


def test_int8_markers_match_column_loop_on_edge_columns():
    # Columns: a minimum in the last row, a tie of the extreme doubles, a
    # tie of finite values in the lower rows, and signed zeros, which tie.
    big = np.finfo(np.float64).max
    cells = np.array([[3.0, -big, 1.0, 0.0],
                      [2.0, -big, 0.5, -0.0],
                      [1.0, big, 0.5, 0.0]])
    markers = _argmin_markers(cells)
    assert markers.dtype == np.int8
    assert np.array_equal(markers, loop_argmin_markers(cells))
    assert np.array_equal(markers.argmax(axis=0), [2, 0, 1, 0])


def test_argmin_marker_never_on_a_divergent_cell(monkeypatch):
    # A NaN or infinite cell raises before any marker is placed.
    kernel = _kernels.amplifier_delta_cells
    for bad in (np.nan, np.inf, -np.inf):
        def one_bad_cell(*args, bad=bad):
            cells = kernel(*args)
            cells[3, 1] = bad
            return cells

        monkeypatch.setattr(_kernels, "amplifier_delta_cells", one_bad_cell)
        with pytest.raises(NumericalFailure):
            amplifier_delta_surface(CFG, GridSpec(0.2, 10.0, 8), GridSpec(0.5, 4.0, 3))


def test_surface_all_divergent():
    with pytest.raises(DivergentPartition):
        amplifier_delta_surface(AmplifierConfig(k=0.6), GridSpec(0.5, 5.0, 5),
                                GridSpec(0.5, 5.0, 5))


# k > omega0/2 is hyperbolic; k = omega0/2 is marginal (omega_eff = 0), and at
# t = 1 its rounded coefficients pass the form rule by about 20 ulps.  The
# golden amplifier-marginal-* cases check the surface at t = 1.
@pytest.mark.parametrize("cfg", [AmplifierConfig(k=0.6), AmplifierConfig(k=0.5, t=0.3),
                                 AmplifierConfig(k=0.5, t=1.0)])
def test_argmin_rejects_divergent_amplifier(cfg):
    with pytest.raises(DivergentPartition):
        delta_argmin_temperature(cfg, 1.0, (0.1, 10.0))


# The pump frequency and the frozen time move omega1, omega2 and omega3 but
# not k0 = omega0 or omega_eff, so they change no cell and no T*.
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.7])
@pytest.mark.parametrize("omega", [1.0, 3.0, 7.5])
def test_surface_and_argmin_do_not_depend_on_t_or_omega(t, omega):
    base = AmplifierConfig(omega0=1.3, k=0.2)
    cfg = AmplifierConfig(omega0=1.3, k=0.2, omega=omega, t=t)
    temps, nbars = GridSpec(0.2, 10.0, 40), GridSpec(0.2, 10.0, 30)
    surface = amplifier_delta_surface(cfg, temps, nbars)
    expected = amplifier_delta_surface(base, temps, nbars)
    assert np.array_equal(surface.cells, expected.cells)
    assert np.array_equal(surface.markers, expected.markers)
    for nbar in (0.5, 2.0):
        assert (delta_argmin_temperature(cfg, nbar, (0.1, 20.0))
                == delta_argmin_temperature(base, nbar, (0.1, 20.0)))


@pytest.mark.parametrize("j", [-1000, -500, 500, 1000])
def test_surface_scales_with_omega0_k_and_temperature(j):
    # Delta is homogeneous of degree 1 in (omega0, k, T).  Scaling by 2^j is
    # exact in every step, past the range where omega0^2 is a double.
    s = 2.0 ** j
    nbars = GridSpec(0.2, 10.0, 30)
    base = amplifier_delta_surface(AmplifierConfig(omega0=1.3, k=0.2, t=0.3),
                                   GridSpec(0.2, 10.0, 40), nbars)
    scaled = amplifier_delta_surface(AmplifierConfig(omega0=s * 1.3, k=s * 0.2, t=0.3),
                                     GridSpec(s * 0.2, s * 10.0, 40), nbars)
    assert np.array_equal(scaled.cells, s * base.cells)
    assert np.array_equal(scaled.markers, base.markers)


@pytest.mark.parametrize("omega0", [1.0, 1.3])
def test_effective_frequency_near_marginal(omega0):
    mpmath = pytest.importorskip("mpmath")
    for j in range(1, 15):
        k = omega0 / 2.0 - 10.0 ** -j
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.mpf(omega0) ** 2 - 4 * mpmath.mpf(k) ** 2)
        weff = amplifier.effective_frequency(AmplifierConfig(omega0=omega0, k=k, t=1.0))
        assert abs(weff - float(exact)) <= 4.0 * math.ulp(float(exact)), (j, weff)


@pytest.mark.parametrize("omega0", [1e308, 1.5e308, 1.7976931348623157e308])
def test_effective_frequency_where_omega0_plus_2k_overflows(omega0):
    mpmath = pytest.importorskip("mpmath")
    for frac in (0.4, 0.45, 0.49, 0.5 - 1e-12):
        k = frac * omega0
        assert not math.isfinite(omega0 + 2.0 * k)
        with mpmath.workdps(50):
            exact = mpmath.sqrt(mpmath.mpf(omega0) ** 2 - 4 * mpmath.mpf(k) ** 2)
        weff = amplifier.effective_frequency(AmplifierConfig(omega0=omega0, k=k))
        assert abs(weff - float(exact)) <= 2.0 * math.ulp(float(exact)), (frac, weff)


def test_argmin_k0_exact():
    t_star = delta_argmin_temperature(AmplifierConfig(k=0.0), 2.0, (0.1, 20.0))
    assert abs(t_star - 1.0 / math.log(1.5)) < 1e-4
    assert abs(1.0 / math.log(1.5) - 2.466303) < 1e-6


@pytest.mark.parametrize("nbar", [1.0, 2.0, 3.0, 5.0])
def test_argmin_matches_entropy_matching_temperature(nbar):
    # The minimum over T sits where the thermal entropy of the effective
    # oscillator matches the probe entropy: T* = w_eff / ln(1 + 1/nbar).
    h = amplifier_hamiltonian(CFG)
    w_eff = h.effective_frequency
    expected = w_eff / math.log(1.0 + 1.0 / nbar)
    t_star = delta_argmin_temperature(CFG, nbar, (0.1, 10.0 * nbar))
    assert abs(t_star - expected) <= 1e-4 * expected


def test_argmin_monotone_bracket_rejected():
    with pytest.raises(BracketError):
        delta_argmin_temperature(CFG, 1.0, (50.0, 100.0))


@pytest.mark.parametrize("nbar", [0.7, 1.0, 2.5, 4.0])
def test_argmin_within_one_step_of_surface_marker(nbar):
    t_grid = GridSpec(0.2, 8.0, 2001)
    t_step = (t_grid.stop - t_grid.start) / (t_grid.count - 1)
    surface = amplifier_delta_surface(CFG, t_grid, GridSpec(nbar, nbar, 1))
    marker_t = surface.axis1_values[np.argmax(surface.markers[:, 0])]
    assert abs(delta_argmin_temperature(CFG, nbar, (0.1, 10.0)) - marker_t) <= t_step


def test_argmin_divergent_sample_raises(monkeypatch):
    kernel = _kernels.amplifier_delta_cells

    def nan_sample(*args):
        delta = kernel(*args)
        delta[len(delta) // 2] = np.nan
        return delta

    monkeypatch.setattr(_kernels, "amplifier_delta_cells", nan_sample)
    with pytest.raises(NumericalFailure):
        delta_argmin_temperature(CFG, 1.0, (0.1, 10.0))


def test_argmin_overflowed_sample_raises():
    # T* ~ 1.41e308 lies inside the bracket, but T S overflows to inf before
    # it cancels, so the samples near 1.5e308 read -inf: not a minimum.
    with pytest.raises(NumericalFailure):
        delta_argmin_temperature(AmplifierConfig(omega0=1e308, k=1e307), 1.0, (1e308, 1.7e308))


def test_gaussian_delta_past_the_double_range_raises():
    # T S and T ln Z both overflow at T = 1.7e308; their difference is NaN.
    c = thermal_light_covariance(ThermalLight(1.0), 1.0)
    with pytest.raises(NumericalFailure):
        gaussian_delta(c, amplifier_hamiltonian(AmplifierConfig()), 1.7e308)


def test_argmin_wide_bracket():
    # The bracket reaches beta omega_eff ~ 1e-8, where ln Z is still finite.
    expected = amplifier_hamiltonian(CFG).effective_frequency / math.log(2.0)
    t_star = delta_argmin_temperature(CFG, 1.0, (1.0, 1e8))
    assert abs(t_star - expected) <= 1e-5 * expected


def test_argmin_rejects_nan_nbar():
    with pytest.raises(ValueError):
        delta_argmin_temperature(CFG, math.nan, (0.1, 10.0))


def test_argmin_kernel_calls(monkeypatch):
    calls = []
    kernel = _kernels.amplifier_delta_cells

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(_kernels, "amplifier_delta_cells", counting)
    for nbar in (0.5, 1.0, 3.0, 5.0):
        calls.clear()
        delta_argmin_temperature(CFG, nbar, (0.05, 100.0))
        assert 1 <= len(calls) <= 6, (nbar, calls)


@pytest.mark.parametrize("bracket", [(0.1, math.inf), (math.nan, 10.0), (0.1, math.nan),
                                     (-math.inf, 10.0), (0.0, 10.0), (10.0, 0.1)])
def test_argmin_rejects_bad_bracket(bracket):
    with pytest.raises(BracketError):
        delta_argmin_temperature(CFG, 1.0, bracket)


def test_argmin_ends_when_bracket_stops_shrinking(monkeypatch):
    # A tolerance far below one ulp: the loop stops at adjacent floats.
    monkeypatch.setattr(amplifier, "_ARGMIN_REL_TOL", 1e-300)
    t_star = delta_argmin_temperature(CFG, 1.0, (0.1, 10.0))
    expected = amplifier_hamiltonian(CFG).effective_frequency / math.log(2.0)
    assert abs(t_star - expected) <= 1e-6 * expected


@pytest.mark.parametrize("nbar,temp", [(0.5, 0.7), (2.0, 2.0), (5.0, 4.0),
                                       (1.0, 9.0), (3.0, 0.5)])
def test_delta_matches_fock_oracle(nbar, temp):
    # Independent route: truncated thermal-light state, explicit Hamiltonian
    # matrix and the filtered truncated trace.
    n_max = 400
    h = amplifier_hamiltonian(CFG)
    hm = quadratic_hamiltonian_matrix(h, FockTruncation(n_max, h.omega0))
    rho = thermal_light_fock(nbar, n_max)
    probs = np.diag(rho).real
    probs = probs[probs > 0.0]
    energy = float(np.trace(rho @ hm).real)
    entropy = float(-(probs * np.log(probs)).sum())
    log_z = math.log(stable_partition(h, 1.0 / temp))
    oracle = energy - temp * entropy + temp * log_z
    closed = gaussian_delta(thermal_light_covariance(ThermalLight(nbar), 1.0),
                            h, temp).delta
    assert abs(closed - oracle) <= 1e-7
