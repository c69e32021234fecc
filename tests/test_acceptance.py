"""Acceptance suite: one test per release criterion, tolerances stated inline.

Each test prints a single machine-readable line
``criterion=<n> status=<PASS|FAIL> measured=<value> bound=<value>`` before
asserting, so the log carries the measured margins even on failure.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from entropyne import (
    AmplifierConfig,
    BlochHamiltonian,
    GridSpec,
    ThermalLight,
    amplifier_delta_surface,
    amplifier_hamiltonian,
    delta_argmin_temperature,
    delta_from_operators,
    entropy_gaussian,
    fock_diagonal_element,
    gaussian,
    gaussian_delta,
    gibbs_state,
    kernel_moments,
    purity,
    qubit_delta_record,
    random_density_matrix,
    random_hermitian,
    relative_entropy_vn,
    thermal_light_covariance,
    tsallis_relative_entropy,
    tsallis_series,
)
from entropyne.fock import stable_partition
from entropyne.gaussian import (
    QuadraticHamiltonian,
    covariance_from_params,
    partition_function,
    random_gaussian_params,
    random_quadratic_hamiltonian,
)
from entropyne.verify import refine_zero_temperature

from dense_fock import FockTruncation, exponential_diagonal, quadratic_hamiltonian_matrix

SEED = 2024
H_NORM = math.sqrt(14.0)
HAM_Z = BlochHamiltonian(h0=0.0, h=np.array([0.0, 0.0, H_NORM]))


def report(criterion, measured, bound, passed):
    status = "PASS" if passed else "FAIL"
    print(f"criterion={criterion} status={status} measured={measured:.6e} "
          f"bound={bound:.6e}")


def test_criterion_1_qubit_zero_locus_high_temperature():
    # |p|=0.01, h0=0, |h|=sqrt(14), theta=pi: |Delta| < 1e-8 at T = 187.08 +- 0.5.
    t_zero = refine_zero_temperature(0.01, HAM_Z, math.pi, 150.0, 220.0)
    residual = abs(qubit_delta_record(0.01, math.pi, HAM_Z, t_zero).delta)
    ok = abs(t_zero - 187.08) <= 0.5 and residual < 1e-8
    report(1, t_zero, 0.5, ok)
    assert ok


def test_criterion_2_qubit_zero_locus_near_unit_purity():
    # |p|=0.99: zeros at T = +-0.7069 +- 0.005 (theta=pi for T>0, 0 for T<0).
    t_pos = refine_zero_temperature(0.99, HAM_Z, math.pi, 0.5, 1.0)
    t_neg = -refine_zero_temperature(0.99, HAM_Z, 0.0, -1.0, -0.5)
    res_pos = abs(qubit_delta_record(0.99, math.pi, HAM_Z, t_pos).delta)
    res_neg = abs(qubit_delta_record(0.99, 0.0, HAM_Z, -t_neg).delta)
    worst = max(abs(t_pos - 0.7069), abs(t_neg - 0.7069))
    ok = worst <= 0.005 and max(res_pos, res_neg) < 1e-8
    report(2, worst, 0.005, ok)
    assert ok


def test_criterion_3_sign_law_and_gibbs_identity():
    # 1000 seeded triples in dims 2-8: Delta >= -1e-9 (T>0), <= 1e-9 (T<0),
    # and Delta = T * S_vn(rho || gibbs) within 1e-9 throughout.
    worst = 0.0
    for i in range(1000):
        dim = 2 + (i % 7)
        rho = random_density_matrix(dim, SEED + i)
        h = random_hermitian(dim, SEED + 30_000 + i)
        w = np.linalg.eigvalsh(h)
        # |T| floored by spread/16 keeps every Gibbs weight representable,
        # so the generic eigenvector route below stays well-conditioned.
        t = (-1.0) ** i * max(0.1 + (i % 17) * 0.35, (w[-1] - w[0]) / 16.0)
        rec = delta_from_operators(rho, h, t)
        ident = t * relative_entropy_vn(rho, gibbs_state(h, t))
        worst = max(worst, abs(rec.delta - ident))
        worst = max(worst, -(rec.delta if t > 0 else -rec.delta))
    ok = worst <= 1e-9
    report(3, worst, 1e-9, ok)
    assert ok


def test_criterion_4_tsallis_limit_and_series_order():
    # |S_{1+1e-6} - S_vn| <= 1e-4 on 50 full-support pairs; residual slope of
    # the two-term-corrected series = 3.0 +- 0.3.
    worst_gap = 0.0
    slopes = []
    deltas = np.array([1e-1, 10.0**-1.5, 1e-2, 10.0**-2.5])
    for i in range(50):
        dim = 2 + (i % 5)
        rho = random_density_matrix(dim, SEED + i)
        sigma = random_density_matrix(dim, SEED + 900 + i)
        vn = relative_entropy_vn(rho, sigma)
        worst_gap = max(worst_gap,
                        abs(tsallis_relative_entropy(rho, sigma, 1 + 1e-6) - vn))
        series = tsallis_series(rho, sigma)
        resid = [abs(tsallis_relative_entropy(rho, sigma, 1.0 + d)
                     - series.evaluate(d)) for d in deltas]
        slopes.append(np.polyfit(np.log(deltas), np.log(resid), 1)[0])
    worst_slope = max(abs(s - 3.0) for s in slopes)
    ok = worst_gap <= 1e-4 and worst_slope <= 0.3
    report(4, max(worst_gap, worst_slope), 0.3, ok)
    assert ok


def test_criterion_5_partition_function_oracle():
    # Harmonic reduction to 1e-12 over (beta, omega0) in {0.5,1,2}^2; 50
    # seeded Hamiltonians against the truncated-trace oracle to 1e-8 relative.
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for omega0 in (0.5, 1.0, 2.0):
            h = QuadraticHamiltonian(omega0=omega0, omega1=0.5, omega2=0j,
                                     omega3=omega0**2 / 2.0)
            exact = math.exp(-beta * omega0 / 2.0) / (1.0 - math.exp(-beta * omega0))
            assert abs(partition_function(h, beta) - exact) <= 1e-12 * exact
    for i in range(50):
        h = random_quadratic_hamiltonian(SEED + i)
        beta = 0.5 + (i % 5) * 0.5
        closed = partition_function(h, beta)
        worst = max(worst, abs(closed - stable_partition(h, beta)) / closed)
    ok = worst <= 1e-8
    report(5, worst, 1e-8, ok)
    assert ok


def test_criterion_6_legendre_diagonal_elements():
    # <n|e^{-beta H}|n> closed form vs dense matrix exponential, n <= 30,
    # amplifier at t=0, k=0.1, beta=1; tolerance 1e-8.
    h = amplifier_hamiltonian(AmplifierConfig())
    hm = quadratic_hamiltonian_matrix(h, FockTruncation(300, h.omega0))
    diag = exponential_diagonal(hm, 1.0)
    worst = max(abs(fock_diagonal_element(h, 1.0, n) - diag[n])
                for n in range(31))
    ok = worst <= 1e-8
    report(6, worst, 1e-8, ok)
    assert ok


def test_criterion_7_gaussian_moments():
    # Normalization, covariance entries and <q> vs quadrature on 100 seeded
    # parameter sets (1e-8; derivative-route entries 1e-7); the mean-momentum
    # arbitration outcome (oracle-confirmed closed form) holds at 1e-7.
    worst = 0.0
    for i in range(100):
        g = random_gaussian_params(SEED + i)
        c = covariance_from_params(g)
        m = kernel_moments(g)
        worst = max(
            worst,
            abs(m.norm - 1.0),
            abs(m.mean_q - c.mean_q),
            abs(m.sigma_qq - c.sigma_qq),
        )
        assert abs(m.sigma_pp - c.sigma_pp) <= 1e-7
        assert abs(m.sigma_pq - c.sigma_pq) <= 1e-7
        assert abs(m.mean_p - c.mean_p) <= 1e-7
    ok = worst <= 1e-8
    report(7, worst, 1e-8, ok)
    assert ok


def test_criterion_8_entropy_identity():
    # Purity-form vs photon-number-form entropy to 1e-12 at the listed nbar.
    worst = 0.0
    for nbar in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        s_mu = entropy_gaussian(purity(thermal_light_covariance(
            ThermalLight(nbar), 1.0)))
        s_n = nbar * math.log((1.0 + nbar) / nbar) + math.log(1.0 + nbar)
        worst = max(worst, abs(s_mu - s_n))
    ok = worst <= 1e-12
    report(8, worst, 1e-12, ok)
    assert ok


def test_criterion_9a_minimum_locus_proximity():
    # k=0.1 surface: location of the per-nbar minimum T*(nbar), nbar in [1, 5].
    #
    # Differentiating Delta = <E> - T*S + T*ln Z in T, with
    # d(T ln Z)/dT = ln Z + <H>_Gibbs/T = S_Gibbs(T), gives
    #   dDelta/dT = S_Gibbs(T) - S_probe,
    # increasing in T, so the unique minimum is where the Gibbs state of the
    # effective oscillator has the probe's entropy, i.e. its thermal occupation
    # 1/(e^{w_eff/T} - 1) equals nbar:
    #   T* = w_eff / ln(1 + 1/nbar),   w_eff^2 = 4(w1*w3 - Re(w2)^2)
    # (Im w2 only shifts H by a constant).  Bounds checked:
    #   1. |T* - T_exact| / T_exact <= 1e-5 (T* is computed in closed form,
    #      so this holds to rounding);
    #   2. 1/ln(1 + 1/n) = n + 1/2 - 1/(12 n) + O(n^-2), so
    #      |T*/w_eff - (nbar + 1/2)| <= 1/(12 nbar);
    #   3. the argmin marker of the k=0.1 surface lies within one T step of
    #      T_exact in every nbar column.
    cfg = AmplifierConfig()
    h = amplifier_hamiltonian(cfg)
    w_eff = 2.0 * math.sqrt(h.omega1 * h.omega3 - h.omega2.real ** 2)
    nbars = (1.0, 2.0, 3.0, 4.0, 5.0)
    t_exact = {nbar: w_eff / math.log1p(1.0 / nbar) for nbar in nbars}

    worst = 0.0
    expansion_ok = True
    for nbar in nbars:
        t_star = delta_argmin_temperature(cfg, nbar, (0.1, 10.0 * nbar))
        worst = max(worst, abs(t_star - t_exact[nbar]) / t_exact[nbar])
        expansion_ok &= abs(t_star / w_eff - (nbar + 0.5)) <= 1.0 / (12.0 * nbar)

    t_grid = GridSpec(0.5, 8.0, 301)
    t_step = (t_grid.stop - t_grid.start) / (t_grid.count - 1)
    surface = amplifier_delta_surface(cfg, t_grid, GridSpec(1.0, 5.0, 5))
    assert tuple(surface.axis2_values) == nbars
    marker_t = surface.axis1_values[np.argmax(surface.markers, axis=0)]
    markers_ok = all(abs(t - t_exact[nbar]) <= t_step
                     for t, nbar in zip(marker_t, nbars))

    ok = worst <= 1e-5 and expansion_ok and markers_ok
    report("9a", worst, 1e-5, ok)
    assert ok


def test_criterion_9b_k0_analytic_locus():
    # k=0: Delta(1/ln(1+1/nbar), nbar) <= 1e-9 exactly on the analytic locus.
    cfg = AmplifierConfig(k=0.0)
    h = amplifier_hamiltonian(cfg)
    worst = 0.0
    for nbar in (0.5, 1.0, 2.0, 5.0):
        t_star = 1.0 / math.log(1.0 + 1.0 / nbar)
        cov = thermal_light_covariance(ThermalLight(nbar), 1.0)
        worst = max(worst, abs(gaussian_delta(cov, h, t_star).delta))
    ok = worst <= 1e-9
    report("9b", worst, 1e-9, ok)
    assert ok


@pytest.mark.parametrize("args,fmt", [
    (["qubit-grid", "--p-norm", "0.5", "--h-norm", "3.7416573867739413",
      "--theta", "0:3.14159:21", "--temp", "0.5:5:17"], "csv"),
    (["amplifier-grid", "--temp", "0.5:6:15", "--nbar", "0.5:6:11"], "json"),
])
def test_criterion_10_determinism(args, fmt):
    # Fixed seed, threads in {1, 8}: byte-identical output.
    outputs = []
    for threads in ("1", "8"):
        res = subprocess.run(
            [sys.executable, "-m", "entropyne.cli", *args, "--format", fmt,
             "--seed", "2024", "--threads", threads],
            capture_output=True, check=True)
        outputs.append(res.stdout)
    ok = outputs[0] == outputs[1]
    report(10, float(len(outputs[0])), float(len(outputs[1])), ok)
    assert ok
    if fmt == "json":
        json.loads(outputs[0])  # stays parseable
