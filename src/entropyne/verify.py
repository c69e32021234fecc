"""Oracle verification suites behind the `verify` CLI subcommand.

Each family re-derives a closed form by an independent route (brute-force
traces, quadrature, finite differences) and reports a pass/fail line with
the measured worst-case deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, amplifier, entropy, fock, gaussian, qubit
from .hermitian import (
    eigendecompose,
    gibbs_state,
    log_trace_exp,
    matrix_function,
    random_density_matrix,
    random_hermitian,
)


@dataclass
class FamilyResult:
    name: str
    passed: bool
    measured: str


def _result(name: str, worst: float, bound: float, extra: str = "") -> FamilyResult:
    note = f"worst={worst:.3e} bound={bound:.1e}"
    if extra:
        note += f" {extra}"
    return FamilyResult(name=name, passed=worst <= bound, measured=note)


def check_spectral(seed: int, quick: bool) -> FamilyResult:
    """Reconstruction, exp/ln round trip and thermal-state properties."""
    n = 20 if quick else 100
    worst = 0.0
    for i in range(n):
        dim = 2 + (i % 7)
        m = random_hermitian(dim, seed + i)
        dec = eigendecompose(m)
        rec = np.linalg.norm(dec.reconstruct() - m)
        worst = max(worst, rec / max(1.0, np.linalg.norm(m)) / 1e-10)
        rho = random_density_matrix(dim, seed + 1000 + i)
        rho = rho + 1e-3 * np.eye(dim)  # keep strictly positive for ln
        rho /= np.trace(rho).real
        back = matrix_function(matrix_function(rho, np.log), np.exp)
        worst = max(worst, np.abs(back - rho).max() / 1e-9)
        t = (-1.0) ** i * (0.1 + i % 5)
        sig = gibbs_state(m, t)
        worst = max(worst, abs(np.trace(sig).real - 1.0) / 1e-12)
        worst = max(worst, max(0.0, -eigendecompose(sig).eigenvalues.min()) / 1e-12)
        worst = max(worst, np.abs(sig @ m - m @ sig).max() / 1e-10)
    return _result("spectral-roundtrip", worst, 1.0, f"samples={n}")


def check_entropy_nonnegativity(seed: int, quick: bool) -> FamilyResult:
    n = 100 if quick else 1000
    worst = -np.inf
    for i in range(n):
        dim = 2 + (i % 5)
        rho = random_density_matrix(dim, seed + i)
        sig = random_density_matrix(dim, seed + 50_000 + i)
        worst = max(worst, -entropy.relative_entropy_vn(rho, sig))
        for q in (0.5, 1.5, 2.0, 3.0):
            worst = max(worst, -entropy.tsallis_relative_entropy(rho, sig, q))
    return _result("entropy-nonnegativity", worst, 1e-10, f"pairs={n}")


def check_q1_continuity(seed: int, quick: bool) -> FamilyResult:
    n = 10 if quick else 50
    delta = 1e-6
    worst = 0.0
    for i in range(n):
        dim = 2 + (i % 4)
        rho = random_density_matrix(dim, seed + i)
        sig = random_density_matrix(dim, seed + 70_000 + i)
        vn = entropy.relative_entropy_vn(rho, sig)
        for q in (1.0 + delta, 1.0 - delta):
            worst = max(worst, abs(entropy.tsallis_relative_entropy(rho, sig, q) - vn))
    return _result("tsallis-q1-continuity", worst, 1e-4, f"pairs={n}")


def check_series_order(seed: int, quick: bool) -> FamilyResult:
    n = 3 if quick else 10
    worst = 0.0
    slopes = []
    for i in range(n):
        dim = 3 + (i % 3)
        rho = random_density_matrix(dim, seed + i)
        sig = random_density_matrix(dim, seed + 90_000 + i)
        slope = entropy.tsallis_series_report(rho, sig, entropy.SERIES_DELTAS).slope
        slope = math.inf if slope is None else slope  # no slope fails
        slopes.append(slope)
        worst = max(worst, abs(slope - 3.0))
    return _result("tsallis-series-order", worst, 0.3,
                   f"slopes={min(slopes):.2f}..{max(slopes):.2f}")


def check_delta_identity(seed: int, quick: bool) -> FamilyResult:
    n = 100 if quick else 1000
    worst = 0.0
    for i in range(n):
        dim = 2 + (i % 7)
        rho = random_density_matrix(dim, seed + i)
        h = random_hermitian(dim, seed + 30_000 + i)
        # Keep |T| above spread/16 so every Gibbs weight stays well clear of
        # the double-precision floor; the generic eigenvector route below
        # cannot represent weights under ~1e-16.
        w = np.linalg.eigvalsh(h)
        t_min = float(w[-1] - w[0]) / 16.0
        t = float((-1.0) ** i * max(0.1 + (i % 17) * 0.35, t_min))
        rec = entropy.delta_from_operators(rho, h, t)
        ident = t * entropy.relative_entropy_vn(rho, gibbs_state(h, t))
        worst = max(worst, abs(rec.delta - ident))
        # sign law: delta >= 0 for T > 0, <= 0 for T < 0
        worst = max(worst, -(rec.delta if t > 0 else -rec.delta))
    return _result("delta-gibbs-identity", worst, 1e-8, f"triples={n}")


def check_qubit_consistency(seed: int, quick: bool) -> FamilyResult:
    n = 50 if quick else 500
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n):
        p = rng.normal(size=3)
        p *= rng.uniform(0.0, 0.999) / np.linalg.norm(p)
        state = qubit.BlochState(p)
        ham = qubit.BlochHamiltonian(h0=rng.normal(), h=rng.normal(size=3))
        t = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
        obs = qubit.qubit_observables(state, ham, t)
        rho = qubit.density_from_bloch(state)
        hm = qubit.hamiltonian_from_bloch(ham)
        worst = max(worst, abs(obs.energy - np.trace(rho @ hm).real))
        worst = max(worst, abs(obs.entropy - entropy.von_neumann_entropy(rho)))
        worst = max(worst, abs(obs.log_partition - log_trace_exp(hm, t)))
    return _result("qubit-operator-consistency", worst, 1e-10, f"samples={n}")


def refine_zero_temperature(p_norm: float, ham: qubit.BlochHamiltonian,
                            theta: float, lo: float, hi: float) -> float:
    """Temperature in [lo, hi] where |distance| attains its 0 extremum.

    Along theta = pi (T > 0) or theta = 0 (T < 0) the distance has a unique
    sign-definite extremum of 0 (dDelta/dT = S_Gibbs(T) - S), which
    `_kernels.argmin_rounds` locates on |distance| from the grid kernel.
    """
    return _kernels.argmin_rounds(
        lambda t: np.abs(_kernels.qubit_delta_cells(p_norm, ham.h0, ham.norm, [theta], t)[0]),
        lo, hi, rel_tol=1e-10)


def check_qubit_zero_locus(seed: int, quick: bool) -> FamilyResult:
    """T* of the minimizer against the exact locus |h|/(2 artanh p), for both signs of T.

    Delta is quadratic at its zero, Delta ~ (C/2|T|)(T - T_eq)^2 with C the
    Gibbs heat capacity, and rounds to a few ulps of its cancelling terms
    (scale = |E| + |T| S + |T ln Z|).  So argmin |Delta| resolves T_eq only to
    r = sqrt(2 eps scale / (C |T|)) relative: 2.5e-6 at p = 0.01, 5.7e-8 at
    p = 0.5.  T* is held to 4 r, and |Delta(T*)| to 1e-8.
    """
    h_norm = math.sqrt(14.0)
    ham = qubit.BlochHamiltonian(h0=0.0, h=np.array([0.0, 0.0, h_norm]))
    cases = [(p_norm, sign) for p_norm in (0.01, 0.1, 0.5, 0.9, 0.99) for sign in (1, -1)]
    worst = 0.0
    for p_norm, sign in cases:
        theta = math.pi if sign > 0 else 0.0
        t_eq = qubit.equilibrium_temperature(p_norm, h_norm, sign)
        t_star = refine_zero_temperature(p_norm, ham, theta, *sorted((0.1 * sign, 1e3 * sign)))
        rec = qubit.qubit_delta_record(p_norm, theta, ham, t_eq)
        scale = abs(rec.energy) + abs(t_eq) * rec.entropy + abs(t_eq * rec.log_partition)
        x = h_norm / (2.0 * abs(t_eq))
        heat_capacity = (x / math.cosh(x)) ** 2
        r = math.sqrt(2.0 * np.finfo(float).eps * scale / (heat_capacity * abs(t_eq)))
        worst = max(worst, abs(t_star / t_eq - 1.0) / (4.0 * r))
        worst = max(worst,
                    abs(qubit.qubit_delta_record(p_norm, theta, ham, t_star).delta) / 1e-8)
    return _result("qubit-zero-locus", worst, 1.0, f"cases={len(cases)}")


def check_gaussian_moments(seed: int, quick: bool) -> FamilyResult:
    """Quadrature norm, means and covariance against the closed forms, to 1e-12 absolute.

    The one-pass trapezoid rule of `fock.kernel_moments` errs only by
    rounding: on 330 seeded kernels its worst absolute error over the norm
    and the five moments is 3.3e-14.  One absolute bound of 1e-12, 30 times
    that, holds all six, so a closed form off by 1e-12 relative on a moment
    of order one fails.
    """
    n = 20 if quick else 100
    worst = 0.0
    for i in range(n):
        g = gaussian.random_gaussian_params(seed + i)
        cov = gaussian.covariance_from_params(g)
        mom = fock.kernel_moments(g)
        worst = max(worst, abs(mom.norm - 1.0), abs(mom.mean_q - cov.mean_q),
                    abs(mom.mean_p - cov.mean_p), abs(mom.sigma_qq - cov.sigma_qq),
                    abs(mom.sigma_pp - cov.sigma_pp), abs(mom.sigma_pq - cov.sigma_pq))
    return _result("gaussian-kernel-moments", worst, 1e-12, f"samples={n}")


def check_partition_oracle(seed: int, quick: bool) -> FamilyResult:
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        for omega0 in (0.5, 1.0, 2.0):
            h = QUAD_OSC(omega0)
            closed = gaussian.partition_function(h, beta)
            exact = math.exp(-beta * omega0 / 2.0) / (1.0 - math.exp(-beta * omega0))
            worst = max(worst, abs(closed - exact) / exact / 1e-12)
    n = 8 if quick else 50
    for i in range(n):
        h = gaussian.random_quadratic_hamiltonian(seed + i)
        beta = 0.5 + (i % 5) * 0.5
        closed = gaussian.partition_function(h, beta)
        brute = fock.stable_partition(h, beta)
        worst = max(worst, abs(closed - brute) / closed / 1e-8)
    return _result("partition-function-oracle", worst, 1.0, f"samples={n}")


def QUAD_OSC(omega0: float) -> gaussian.QuadraticHamiltonian:
    """Free oscillator omega0(adag a + 1/2) in quadratic-form coefficients."""
    return gaussian.QuadraticHamiltonian(
        omega0=omega0, omega1=0.5, omega2=0j, omega3=omega0**2 / 2.0
    )


def check_legendre_diagonal(seed: int, quick: bool) -> FamilyResult:
    cfg = amplifier.AmplifierConfig()
    h = amplifier.amplifier_hamiltonian(cfg)
    beta = 1.0
    diag = fock.boltzmann_diagonal(h, beta, 300)
    worst = 0.0
    for n in range(31):
        closed = gaussian.fock_diagonal_element(h, beta, n)
        worst = max(worst, abs(closed - diag[n]))
    return _result("legendre-diagonal-elements", worst, 1e-8, "n<=30")


def check_entropy_identity(seed: int, quick: bool) -> FamilyResult:
    worst = 0.0
    for nbar in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
        cov = amplifier.thermal_light_covariance(amplifier.ThermalLight(nbar), 1.0)
        s_mu = gaussian.entropy_gaussian(gaussian.purity(cov))
        s_nbar = nbar * math.log((1.0 + nbar) / nbar) + math.log(1.0 + nbar)
        worst = max(worst, abs(s_mu - s_nbar))
    return _result("gaussian-entropy-identity", worst, 1e-12)


def check_amplifier_k0(seed: int, quick: bool) -> FamilyResult:
    h = amplifier.amplifier_hamiltonian(amplifier.AmplifierConfig(k=0.0))
    worst = 0.0
    for nbar in (0.5, 1.0, 2.0, 5.0):
        cov = amplifier.thermal_light_covariance(amplifier.ThermalLight(nbar), 1.0)
        t_exact = 1.0 / math.log1p(1.0 / nbar)
        at_exact = gaussian.gaussian_delta(cov, h, t_exact).delta
        worst = max(worst, abs(at_exact) / 1e-9)
        for factor in (0.8, 1.2):
            if gaussian.gaussian_delta(cov, h, factor * t_exact).delta <= 0.0:
                worst = max(worst, 2.0)
    cfg_k = amplifier.AmplifierConfig(k=0.1)
    for nbar in (0.5, 2.0, 5.0):
        h = amplifier.amplifier_hamiltonian(cfg_k)
        cov = amplifier.thermal_light_covariance(amplifier.ThermalLight(nbar), 1.0)
        e = gaussian.mean_energy(cov, h)
        worst = max(worst, abs(e - (1.0 + 2.0 * nbar) / 2.0) / 1e-12)
    return _result("amplifier-thermal-coincidence", worst, 1.0)


def check_amplifier_min_locus(seed: int, quick: bool) -> FamilyResult:
    """Closed-form T* = omega_eff / ln(1 + 1/nbar) against the kernel's minimizer.

    Delta is quadratic at its minimum, Delta - Delta(T*) ~ (C/2T*)(T - T*)^2
    with C = (x/2 / sinh(x/2))^2 the Gibbs heat capacity, x = omega_eff/T*,
    and rounds to a few ulps of its cancelling terms (scale = |E| + T S +
    |T ln Z|).  So `_kernels.argmin_rounds` on `_kernels.amplifier_delta_cells`
    resolves T* only to r = sqrt(2 eps scale / (C T*)) relative: 3.3e-8 at
    k = 0, nbar = 0.5, 9.6e-8 at k = 0.49, nbar = 0.05.  T* is held to 4 r.
    """
    cases = [(k, nbar) for k in (0.0, 0.1, 0.3, 0.49) for nbar in (0.05, 0.5, 2.0, 20.0)]
    worst = 0.0
    for k, nbar in cases:
        cfg = amplifier.AmplifierConfig(k=k)
        w_eff = amplifier.effective_frequency(cfg)
        t_exact = amplifier.delta_argmin_temperature(cfg, nbar, (1e-3, 1e3))
        t_min = _kernels.argmin_rounds(
            lambda t: _kernels.amplifier_delta_cells(t, np.array([nbar]), cfg.omega0,
                                                     w_eff)[:, 0],
            0.5 * t_exact, 2.0 * t_exact, rel_tol=1e-10)
        rec = gaussian.gaussian_delta(
            amplifier.thermal_light_covariance(amplifier.ThermalLight(nbar), cfg.omega0),
            amplifier.amplifier_hamiltonian(cfg), t_exact)
        scale = abs(rec.energy) + t_exact * rec.entropy + abs(t_exact * rec.log_partition)
        x = w_eff / t_exact
        heat_capacity = (0.5 * x / math.sinh(0.5 * x)) ** 2
        r = math.sqrt(2.0 * np.finfo(float).eps * scale / (heat_capacity * t_exact))
        worst = max(worst, abs(t_min / t_exact - 1.0) / (4.0 * r))
    return _result("amplifier-min-locus", worst, 1.0, f"cases={len(cases)}")


def check_thermal_light_fock(seed: int, quick: bool) -> FamilyResult:
    worst = 0.0
    n_max = 400
    h_diag, _ = fock.number_basis_bands(QUAD_OSC(1.0), 1.0, n_max)
    for nbar in (0.5, 1.0, 2.0):
        rho = fock.thermal_light_fock(nbar, n_max)
        trace = np.trace(rho).real
        expected_trace = 1.0 - (nbar / (1.0 + nbar)) ** n_max
        worst = max(worst, abs(trace - expected_trace) / 1e-12)
        probs = np.diag(rho).real
        e = probs @ h_diag  # rho is diagonal: Tr(rho H) = sum_n rho_nn H_nn
        worst = max(worst, abs(e - (nbar + 0.5)) / 1e-8)
        probs = probs[probs > 0.0]
        s = float(-(probs * np.log(probs)).sum())
        s_exact = nbar * math.log((1.0 + nbar) / nbar) + math.log(1.0 + nbar)
        worst = max(worst, abs(s - s_exact) / 1e-8)
    return _result("thermal-light-fock", worst, 1.0)


ALL_FAMILIES = [
    check_spectral,
    check_entropy_nonnegativity,
    check_q1_continuity,
    check_series_order,
    check_delta_identity,
    check_qubit_consistency,
    check_qubit_zero_locus,
    check_gaussian_moments,
    check_partition_oracle,
    check_legendre_diagonal,
    check_entropy_identity,
    check_amplifier_k0,
    check_amplifier_min_locus,
    check_thermal_light_fock,
]


def run_verification(seed: int = 2024, quick: bool = False) -> list[FamilyResult]:
    return [family(seed, quick) for family in ALL_FAMILIES]
