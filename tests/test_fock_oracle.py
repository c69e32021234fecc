"""Truncated number-basis oracle: ladder algebra, traces, quadrature moments."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from entropyne import fock
from entropyne import (
    GaussianParams,
    NegativeBeta,
    NumericalFailure,
    QuadraticHamiltonian,
    TruncationUnstable,
    ZeroTemperature,
    kernel_moments,
    partition_function,
    stable_partition,
    thermal_light_fock,
)
from entropyne.amplifier import AmplifierConfig, amplifier_hamiltonian
from entropyne.gaussian import (
    fock_diagonal_element,
    random_quadratic_hamiltonian,
    su11_coefficients,
)

from dense_fock import (
    FockTruncation,
    annihilation_matrix,
    exponential_diagonal,
    ladder_matrices,
    quadratic_hamiltonian_matrix,
    truncated_partition,
)


def oscillator(omega0: float) -> QuadraticHamiltonian:
    return QuadraticHamiltonian(omega0=omega0, omega1=0.5, omega2=0j,
                                omega3=omega0**2 / 2.0)


def test_annihilation_small():
    assert np.array_equal(annihilation_matrix(2), np.array([[0, 1], [0, 0]],
                                                           dtype=complex))


def test_quadrature_entry():
    _, q = ladder_matrices(FockTruncation(4, 1.0))
    assert math.isclose(q[0, 1].real, 1.0 / math.sqrt(2.0), rel_tol=1e-12)


@pytest.mark.parametrize("omega2", [0.6j, 0.2 + 0.7j, -0.3 + 0.4j])
def test_hamiltonian_matrix_has_no_spurious_level(omega2):
    # The Im omega2 constant once entered through the truncated commutator,
    # which shifted the last level by about -Im(omega2) N: Z came out 4.39e8
    # for omega2 = 0.6i, against the closed form 0.527.
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.5, omega2=omega2, omega3=0.5)
    hm = quadratic_hamiltonian_matrix(h, FockTruncation(200, 1.0))
    z, _ = truncated_partition(hm, 1.0)
    assert abs(z - partition_function(h, 1.0)) <= 1e-12 * z


@pytest.mark.parametrize("omega0", [0.5, 1.0, 2.0])
def test_canonical_commutator(omega0):
    n_max = 30
    p, q = ladder_matrices(FockTruncation(n_max, omega0))
    comm = q @ p - p @ q
    block = comm[: n_max - 1, : n_max - 1]
    assert np.abs(block - 1j * np.eye(n_max - 1)).max() <= 1e-10


def test_harmonic_matrix_is_number_operator():
    hm = quadratic_hamiltonian_matrix(oscillator(1.0), FockTruncation(40, 1.0))
    interior = np.arange(38)
    assert np.abs(np.diag(hm).real[:38] - (interior + 0.5)).max() <= 1e-10
    off = hm - np.diag(np.diag(hm))
    assert np.abs(off[:38, :38]).max() <= 1e-10


@pytest.mark.parametrize("h", [oscillator(1.0),
                               QuadraticHamiltonian(omega0=0.7, omega1=0.6, omega2=0.2 + 0.3j,
                                                    omega3=0.4)])
def test_hamiltonian_diagonal_without_the_matrix(h):
    # number_basis_bands against the dense ladder products, in the basis of
    # omega0 and in the matched basis sqrt(omega3/omega1).
    for w in (h.omega0, math.sqrt(h.omega3 / h.omega1)):
        hm = quadratic_hamiltonian_matrix(dataclasses.replace(h, omega0=w),
                                          FockTruncation(400, w))
        diag, off = fock.number_basis_bands(h, w, 400)
        # The truncated p p and q q lack the a adag term in the last entry.
        want = np.diag(hm).real[:-1]
        assert np.all(np.abs(diag[:-1] - want) <= 2e-15 * np.abs(want))
        want = np.abs(np.diag(hm, 2))
        # Absolute part: the rounding of ladder products of size |diag|.
        assert np.all(np.abs(off - want) <= 2e-15 * (np.abs(want) + np.abs(diag).max()))


def test_su11_operator_form():
    # H = 2(gamma1 K- + gamma1* K+ + (w3/w0 + w0 w1) K0) + Im(w2), with
    # K+ = adag^2/2, K- = a^2/2, K0 = (adag a + 1/2)/2.
    h = QuadraticHamiltonian(omega0=1.0, omega1=0.6, omega2=0.2 + 0.3j,
                             omega3=0.4)
    n_max = 25
    hm = quadratic_hamiltonian_matrix(h, FockTruncation(n_max, 1.0))
    a = annihilation_matrix(n_max)
    ad = a.conj().T
    k_plus = ad @ ad / 2.0
    k_minus = a @ a / 2.0
    k_zero = (ad @ a + 0.5 * np.eye(n_max)) / 2.0
    alg = 2.0 * (h.gamma1 * k_minus + np.conj(h.gamma1) * k_plus
                 + h.k0_coefficient * k_zero) + h.omega2.imag * np.eye(n_max)
    # Truncating operator products perturbs the last two rows/columns; the
    # identity holds on the interior block.
    interior = n_max - 2
    assert np.abs(hm[:interior, :interior] - alg[:interior, :interior]).max() <= 1e-10


def disentangled_elements(h, beta, n_max):
    """<m|e^{-beta Im w2} e^{A+ K+} A0^{K0} e^{A- K-}|n> for m, n <= n_max, summed
    term by term: k runs over min(m, n), k = m = n (mod 2)."""
    c = su11_coefficients(h, beta)
    out = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for m in range(n_max + 1):
        for n in range(m % 2, n_max + 1, 2):
            for k in range(m % 2, min(m, n) + 1, 2):
                i, j = (m - k) // 2, (n - k) // 2
                out[m, n] += ((c.A_plus / 2.0) ** i / math.factorial(i)
                              * (c.A_minus / 2.0) ** j / math.factorial(j)
                              * math.sqrt(math.factorial(m) * math.factorial(n))
                              / math.factorial(k) * c.A_zero ** ((2 * k + 1) / 4))
    return math.exp(-beta * h.omega2.imag) * out


@pytest.mark.parametrize("seed", range(6))
def test_su11_coefficients_element_by_element(seed):
    # The diagonal reads A+ and A- only through their product; the elements
    # off it tell them apart (swapping them conjugates the elements of a form
    # with Re w2 != 0) and fix their sign ((m - n)/2 odd).  The dense e^{-beta H}
    # at N = 300 has settled to rounding on m, n <= 20 already at N = 100, and
    # agrees with the sum to 2.2e-14 of its largest element on these forms;
    # either mutation is off by more than 1e-3.
    h = random_quadratic_hamiltonian(seed)
    assert h.omega2.real != 0.0
    w, v = np.linalg.eigh(quadratic_hamiltonian_matrix(h, FockTruncation(300, h.omega0)))
    for beta in (0.5, 1.0, 2.0):
        dense = ((v * np.exp(-beta * w)) @ v.conj().T)[:21, :21]
        got = disentangled_elements(h, beta, 20)
        assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def test_truncated_partition_harmonic():
    hm = quadratic_hamiltonian_matrix(oscillator(1.0), FockTruncation(200, 1.0))
    z, last = truncated_partition(hm, 1.0)
    exact = math.exp(-0.5) / (1.0 - math.exp(-1.0))
    assert abs(z - exact) <= 1e-12
    assert last < 1e-12


def test_truncated_partition_converges_with_basis_size():
    # The truncated spectra are not nested (edge rows shift), so the raw sum
    # is not monotone in N; the error against the exact trace is.
    h = oscillator(1.0)
    exact = math.exp(-0.1) / (1.0 - math.exp(-0.2))
    errors = []
    for n in (50, 100, 150, 200):
        hm = quadratic_hamiltonian_matrix(h, FockTruncation(n, 1.0))
        errors.append(abs(truncated_partition(hm, 0.2)[0] - exact))
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[3] <= 1e-8


def test_truncated_partition_rejects_nonpositive_beta():
    hm = quadratic_hamiltonian_matrix(oscillator(1.0), FockTruncation(20, 1.0))
    with pytest.raises(ValueError):
        truncated_partition(hm, 0.0)


@pytest.mark.parametrize("seed", range(6))
def test_stable_partition_matches_closed_form(seed):
    h = random_quadratic_hamiltonian(seed)
    beta = 0.5 + seed * 0.3
    closed = partition_function(h, beta)
    brute = stable_partition(h, beta)
    assert abs(closed - brute) <= 1e-8 * closed


def test_stable_partition_unstable_for_tiny_beta():
    # beta so small the truncated sum keeps growing past the basis cap.
    with pytest.raises(TruncationUnstable):
        stable_partition(oscillator(1.0), 1e-3)


# Forms for the dense cross-check, with Im(omega2) of either sign: the dense
# matrix adds Im(omega2) as an exact identity term, which shifts every level
# alike.  The levels omega_eff (n + 1/2) + Im(omega2) are compared relative
# to their size, so no form puts one near 0.
CROSS_CHECK_FORMS = [
    oscillator(1.0),
    QuadraticHamiltonian(omega0=1.0, omega1=0.3, omega2=0.25 + 0j, omega3=1.2),
    QuadraticHamiltonian(omega0=1.3, omega1=0.6, omega2=0.2 - 0.3j, omega3=0.4),
    QuadraticHamiltonian(omega0=1.3, omega1=0.6, omega2=0.2 + 0.3j, omega3=0.4),
]


def matched_dense_matrix(h: QuadraticHamiltonian, n_max: int) -> np.ndarray:
    w = math.sqrt(h.omega3 / h.omega1)
    return quadratic_hamiltonian_matrix(dataclasses.replace(h, omega0=w),
                                        FockTruncation(n_max, w))


SOLVERS = ["dsterf", "eigvalsh"]


def use_solver(monkeypatch, solver: str) -> None:
    """Route _matched_basis_spectrum to LAPACK dsterf, or to the stacked
    numpy.linalg.eigvalsh that a numpy linked to another LAPACK runs."""
    if solver == "eigvalsh":
        monkeypatch.setattr(fock, "_lapack_dsterf", lambda: None)
    elif fock._lapack_dsterf() is None:
        pytest.skip("numpy's LAPACK exports no dsterf")


# Every size on both solver paths; the dsterf cases keep the bare size as id.
@pytest.mark.parametrize("n_max, solver", [
    pytest.param(n, solver, id=str(n) if solver == "dsterf" else f"{n}-{solver}")
    for solver in SOLVERS for n in (200, 300, 550)])
@pytest.mark.parametrize("h", CROSS_CHECK_FORMS)
def test_tridiagonal_spectrum_matches_dense(h, n_max, solver, monkeypatch):
    use_solver(monkeypatch, solver)
    dense = np.sort(scipy.linalg.eigvalsh(matched_dense_matrix(h, n_max)))[:50]
    tridiagonal = fock._matched_basis_spectrum(h, n_max)[:50]
    assert (np.abs(tridiagonal - dense) / np.abs(dense)).max() <= 1e-12


@pytest.mark.parametrize("h", CROSS_CHECK_FORMS)
def test_dense_matrix_has_no_cross_parity_coupling(h):
    hm = matched_dense_matrix(h, 60)
    n = np.arange(60)
    cross = (n[:, None] + n[None, :]) % 2 == 1
    assert np.abs(hm[cross]).max() == 0.0


@pytest.fixture
def solved_sizes(monkeypatch):
    """The truncation sizes that stable_partition solves, in call order."""
    sizes = []
    spectrum = fock._matched_basis_spectrum

    def counting(h, n_max):
        sizes.append(n_max)
        return spectrum(h, n_max)

    monkeypatch.setattr(fock, "_matched_basis_spectrum", counting)
    return sizes


def test_stable_partition_solves_each_size_once(solved_sizes):
    stable_partition(random_quadratic_hamiltonian(2024), 1.0)
    assert solved_sizes == [112, 128]


# The forms of test_stable_partition_matches_closed_form, then the 50 forms
# of `entropyne verify`'s partition-oracle family at its default seed 2024.
WORK_CASES = ([(seed, 0.5 + seed * 0.3) for seed in range(6)]
              + [(2024 + i, 0.5 + (i % 5) * 0.5) for i in range(50)])


@pytest.mark.parametrize("solver", SOLVERS)
def test_stable_partition_work_is_pinned(solved_sizes, solver, monkeypatch):
    # The levels that matter are exact in small blocks, so no solve needs
    # more than 200 levels and the trace still meets the closed form to 1e-13.
    use_solver(monkeypatch, solver)
    for seed, beta in WORK_CASES:
        h = random_quadratic_hamiltonian(seed)
        closed = partition_function(h, beta)
        assert abs(stable_partition(h, beta) - closed) <= 1e-13 * closed
    assert max(solved_sizes) <= 200


def test_solver_paths_agree_at_work_sizes(solved_sizes, monkeypatch):
    use_solver(monkeypatch, "dsterf")
    solves = []
    for seed, beta in WORK_CASES:
        h = random_quadratic_hamiltonian(seed)
        solved_sizes.clear()
        stable_partition(h, beta)
        solves += [(h, n_max) for n_max in solved_sizes]
    fast = [fock._matched_basis_spectrum(h, n_max) for h, n_max in solves]
    use_solver(monkeypatch, "eigvalsh")
    for (h, n_max), w in zip(solves, fast):
        dense = fock._matched_basis_spectrum(h, n_max)
        assert (np.abs(w - dense) / np.abs(dense)).max() <= 1e-13, (h, n_max)


def test_stable_partition_work_does_not_depend_on_form(solved_sizes):
    # With |Re w2| <= 0.6 sqrt(w1 w3), as these forms have, and
    # beta * omega_eff >= 0.8, every trace settles at the first two sizes.
    cases = [(random_quadratic_hamiltonian(seed), beta) for seed, beta in WORK_CASES]
    cases = [(h, beta) for h, beta in cases if beta * h.effective_frequency >= 0.8]
    assert len(cases) >= 40
    for h, beta in cases:
        solved_sizes.clear()
        stable_partition(h, beta)
        assert solved_sizes == [fock.N_START, fock.N_START + fock.N_STEP]


def test_truncated_sums_rise_toward_closed_form():
    # Why stable_partition needs no level filter: the truncated H is
    # P_N H P_N, so by Cauchy interlacing the full sums rise with N and stay
    # below Z (up to rounding) at every size solved under the default cap 500.
    for seed in range(20):
        h = random_quadratic_hamiltonian(seed)
        beta = 0.5 + (seed % 5) * 0.5
        closed = partition_function(h, beta)
        sums = [np.exp(-beta * fock._matched_basis_spectrum(h, n)).sum()
                for n in range(fock.N_START, 501, fock.N_STEP)]
        assert max(sums) <= closed * (1.0 + 1e-14), seed
        assert all(hi >= lo * (1.0 - 1e-14) for lo, hi in zip(sums, sums[1:])), seed


def test_stable_partition_converges_on_hot_squeezed_form():
    # beta * omega_eff = 0.1 with a large Re(omega2): a form whose stable-level
    # filter never settled by the default cap.
    h = QuadraticHamiltonian(omega0=1.3, omega1=0.7,
                             omega2=0.4762352359916263 + 0.2j, omega3=0.9)
    beta = 0.078742598543589
    closed = partition_function(h, beta)
    assert abs(stable_partition(h, beta) - closed) <= 1e-11 * closed


def test_stable_partition_converges_at_smallest_cap():
    h = random_quadratic_hamiltonian(2024)
    closed = partition_function(h, 1.0)
    z = stable_partition(h, 1.0, n_cap=fock.N_CAP_MIN)
    assert abs(z - closed) <= 1e-13 * closed


@pytest.mark.parametrize("n_cap", [-1, 0, 31, 112, 127, 1001])
def test_stable_partition_rejects_cap_out_of_range(n_cap, monkeypatch):
    monkeypatch.setattr(fock, "_matched_basis_spectrum", None)  # no solve may run
    with pytest.raises(ValueError, match="n_cap must be in \\[128, 1000\\]"):
        stable_partition(oscillator(1.0), 1.0, n_cap=n_cap)


@pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
def test_oracle_rejects_beta_outside_open_half_line(beta, monkeypatch):
    # The closed forms' beta rule: log_partition_function refuses the same betas.
    error = ZeroTemperature if beta == math.inf else NegativeBeta
    monkeypatch.setattr(fock, "_matched_basis_spectrum", None)  # no solve may run
    monkeypatch.setattr(fock, "_parity_blocks", None)  # no block may be built
    for call in (lambda: stable_partition(oscillator(1.0), beta),
                 lambda: fock.boltzmann_diagonal(oscillator(1.0), beta, 4)):
        with pytest.raises(error, match="^beta must be positive and finite, got ") as info:
            call()
        assert info.type is error


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("omega1, omega3", [(1e-300, 1e300), (1e300, 1e-300),
                                            (1e307, 1e307)])
def test_stable_partition_refuses_bands_outside_double_range(omega1, omega3, solver,
                                                             monkeypatch):
    # The matched basis w = sqrt(omega3/omega1) overflows, underflows to 0,
    # or the diagonal overflows: no solver gets infinite bands.
    use_solver(monkeypatch, solver)
    h = QuadraticHamiltonian(omega0=1.0, omega1=omega1, omega2=0j, omega3=omega3)
    with pytest.raises(NumericalFailure, match="leave the double range"):
        stable_partition(h, 1.0)


def test_dsterf_info_is_numerical_failure(monkeypatch):
    def failing(n, d, e, info):
        info._obj.value = 7  # dsterf's INFO > 0: no convergence

    monkeypatch.setattr(fock, "_lapack_dsterf", lambda: failing)
    with pytest.raises(NumericalFailure, match="info = 7"):
        stable_partition(oscillator(1.0), 1.0)


def test_boltzmann_diagonal_refuses_bands_outside_double_range():
    h = QuadraticHamiltonian(omega0=1.0, omega1=1e307, omega2=0j, omega3=1e307)
    with pytest.raises(NumericalFailure, match="leave the double range"):
        fock.boltzmann_diagonal(h, 1.0, 20)


@pytest.mark.filterwarnings("error")
def test_boltzmann_diagonal_refuses_elements_outside_double_range():
    # Finite bands, but the spectrum of a negative-definite form reaches far below
    # 0: e^{-beta lambda} overflowed with a numpy warning and the diagonal read NaN.
    h = QuadraticHamiltonian(omega0=1.0, omega1=-0.5, omega2=0j, omega3=-0.5)
    with pytest.raises(NumericalFailure, match="leaves the double range by n_max = 300"):
        fock.boltzmann_diagonal(h, 10.0, 300)


@pytest.mark.parametrize("omega1, omega3", [(0.5, -0.5), (-0.5, 0.5), (0.0, 0.5)])
def test_stable_partition_rejects_form_without_matched_basis(omega1, omega3):
    h = QuadraticHamiltonian(omega0=1.0, omega1=omega1, omega2=0j, omega3=omega3)
    with pytest.raises(ValueError, match="omega1\\*omega3 must be positive"):
        stable_partition(h, 1.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 3.0])
def test_stable_partition_unstable_for_negative_definite_form(beta):
    # Spectrum unbounded below: the truncated sum grows with N, and at
    # beta = 3 it overflows, which must not pass as a converged infinity.
    h = QuadraticHamiltonian(omega0=1.0, omega1=-0.5, omega2=0j, omega3=-0.5)
    with pytest.raises(TruncationUnstable):
        stable_partition(h, beta)


def test_exponential_diagonal_harmonic():
    hm = quadratic_hamiltonian_matrix(oscillator(1.0), FockTruncation(60, 1.0))
    diag = exponential_diagonal(hm, 1.0)
    n = np.arange(40)
    assert np.abs(diag[:40] - np.exp(-(n + 0.5))).max() <= 1e-10


# Forms for boltzmann_diagonal: the amplifier at three frozen times, and one
# form with Im(omega2) != 0 whose xi passes 1 at beta = 2.
DIAGONAL_FORMS = [amplifier_hamiltonian(AmplifierConfig(t=t)) for t in (0.0, 0.3, 1.0)] + [
    QuadraticHamiltonian(omega0=1.0, omega1=0.7, omega2=0.25 + 0.4j, omega3=0.5)]


@pytest.mark.parametrize("h", DIAGONAL_FORMS)
def test_boltzmann_diagonal_matches_dense(h):
    hm = quadratic_hamiltonian_matrix(h, FockTruncation(200, h.omega0))
    for beta in (0.5, 1.0, 2.0):
        diag = fock.boltzmann_diagonal(h, beta, 200)
        assert np.abs(diag[:31] - exponential_diagonal(hm, beta)[:31]).max() <= 1e-14


@pytest.mark.parametrize("h", DIAGONAL_FORMS)
def test_boltzmann_diagonal_matches_closed_form(h):
    for beta in (0.5, 1.0, 2.0):
        diag = fock.boltzmann_diagonal(h, beta, 200)
        closed = [fock_diagonal_element(h, beta, n) for n in range(31)]
        assert np.abs(diag[:31] - closed).max() <= 1e-15


# The default amplifier passes xi = 1 at beta = 2.34 (xi = 3.70 at beta = 3),
# the near-marginal one (k = 0.45) at beta = 1.07.
PAST_XI_ONE_FORMS = [amplifier_hamiltonian(AmplifierConfig()),
                     amplifier_hamiltonian(AmplifierConfig(k=0.45, t=0.3))]


def reference_diagonal(mpmath, h, beta, n):
    """The paper's e^{-beta Im(w2)} A0^{1/4} t^n P_n(z), t^2 = A0 (1 - xi) and
    z = 1/sqrt(1 - xi), at 60 digits from h's coefficients.

    Past xi = 1, t and z are imaginary; t^n P_n(z) is still real, and its
    real part is taken.
    """
    with mpmath.workdps(60):
        w0, w1, w3 = (mpmath.mpf(v) for v in (h.omega0, h.omega1, h.omega3))
        w2 = mpmath.mpf(h.omega2.real)
        weff = 2 * mpmath.sqrt(w1 * w3 - w2 * w2)
        phi, r = mpmath.mpf(beta) * weff, (w0 * w1 + w3 / w0) / weff
        a_zero = 1 / (mpmath.cosh(phi) + r * mpmath.sinh(phi)) ** 2
        s = mpmath.sqrt(mpmath.mpc(1 - (r * r - 1) * mpmath.sinh(phi) ** 2))
        r_n = (mpmath.sqrt(a_zero) * s) ** n * mpmath.legendre(n, 1 / s)
        shift = mpmath.exp(-mpmath.mpf(beta) * mpmath.mpf(h.omega2.imag))
        return float(shift * mpmath.root(a_zero, 4) * mpmath.re(r_n))


@pytest.mark.parametrize("beta", [1.0, 3.0, 5.0, 20.0])
@pytest.mark.parametrize("h", PAST_XI_ONE_FORMS)
def test_diagonal_element_past_xi_one(h, beta):
    mpmath = pytest.importorskip("mpmath")
    assert su11_coefficients(h, beta).xi > 1.0 or beta == 1.0
    diag = fock.boltzmann_diagonal(h, beta, 200)
    # n = 1000 is a long recurrence; on the default amplifier that element
    # (~1e-340) underflows to 0.
    for n in (0, 1, 2, 5, 10, 30, 60, 1000):
        closed = fock_diagonal_element(h, beta, n)
        exact = reference_diagonal(mpmath, h, beta, n)
        # Each step of the recurrence, and each of the n/2 powers of A0 in
        # R_n, adds rounding: 6.4e-14 at n = 60, 2.9e-13 at n = 1000.
        assert abs(closed - exact) <= (n + 1) * 4e-15 * exact, (n, closed, exact)
        # The oracle's precision is absolute, a few ulps of its largest
        # elements, so it is read only where the element is not tiny.
        if n < 200 and closed > 1e-12 * diag[0]:
            assert abs(closed - diag[n]) <= 1e-14 * diag[0], (n, closed, diag[n])


@pytest.mark.parametrize("n_max", [2, 60])
def test_boltzmann_diagonal_harmonic(n_max):
    n = np.arange(n_max)
    diag = fock.boltzmann_diagonal(oscillator(1.0), 1.0, n_max)
    assert np.abs(diag - np.exp(-(n + 0.5))).max() <= 1e-15


@pytest.mark.parametrize("n_max", [-2, 0, 1, 3, 201])
def test_boltzmann_diagonal_rejects_odd_or_small_size(n_max):
    with pytest.raises(ValueError, match="n_max"):
        fock.boltzmann_diagonal(oscillator(1.0), 1.0, n_max)


@pytest.mark.parametrize("nbar", [0.3, 1.0, 4.0])
def test_thermal_light_fock_properties(nbar):
    n_max = 300
    rho = thermal_light_fock(nbar, n_max)
    probs = np.diag(rho).real
    # Truncated geometric mass over levels 0..n_max-1.
    expected_trace = 1.0 - (nbar / (1.0 + nbar)) ** n_max
    assert abs(probs.sum() - expected_trace) <= 1e-12
    pos = probs[probs > 0.0]
    s_exact = nbar * math.log((1.0 + nbar) / nbar) + math.log(1.0 + nbar)
    assert abs(-(pos * np.log(pos)).sum() - s_exact) <= 1e-8
    hm = quadratic_hamiltonian_matrix(oscillator(1.0), FockTruncation(n_max, 1.0))
    assert abs(np.trace(rho @ hm).real - (nbar + 0.5)) <= 1e-8


@pytest.mark.parametrize("nbar, n_max", [(math.nan, 10), (math.inf, 10), (-1.0, 10),
                                         (0.0, 0), (1.0, 0), (1.0, -3)])
def test_thermal_light_fock_rejects_bad_input(nbar, n_max):
    with pytest.raises(ValueError, match="nbar must be finite|n_max must be >= 1"):
        thermal_light_fock(nbar, n_max)


def test_thermal_light_vacuum():
    rho = thermal_light_fock(0.0, 10)
    assert rho[0, 0] == 1.0
    assert abs(np.trace(rho) - 1.0) <= 1e-15


def test_kernel_moments_squeezed():
    s = 1.7
    m = kernel_moments(GaussianParams(a1=s / 2.0 + 0j, a2=0.0, b1=0j))
    assert abs(m.norm - 1.0) <= 1e-9
    assert abs(m.sigma_qq - 1.0 / (2.0 * s)) <= 1e-9
    assert abs(m.sigma_pp - s / 2.0) <= 1e-9
    assert abs(m.mean_p) <= 1e-9 and abs(m.mean_q) <= 1e-9


def test_kernel_moments_displaced_vacuum():
    c = 0.8
    m = kernel_moments(GaussianParams(a1=0.5 + 0j, a2=0.0, b1=c + 0j))
    assert abs(m.mean_q - c) <= 1e-9
    assert abs(m.mean_p) <= 1e-9
