"""entropyne: thermodynamic distance of quantum states from thermal equilibrium.

The central quantity is the distance parameter

    Delta = <E> - T S + T ln Z,

which equals T times the relative entropy between the state and the thermal
state of the same Hamiltonian: nonnegative for T > 0, nonpositive for T < 0,
and zero exactly at equilibrium.  Closed forms are provided for qubits
(Bloch parametrization) and single-mode Gaussian states (quadratic
Hamiltonians handled through their hyperbolic normal form), with an
independent truncated number-basis / quadrature verification layer.
"""

__version__ = "0.1.0"

from .amplifier import (
    AmplifierConfig,
    ThermalLight,
    amplifier_delta_surface,
    amplifier_hamiltonian,
    delta_argmin_temperature,
    nbar_from_temperature,
    thermal_light_covariance,
)
from .entropy import (
    DeltaRecord,
    TsallisSeries,
    delta_from_operators,
    delta_from_scalars,
    relative_entropy_vn,
    tsallis_relative_entropy,
    tsallis_series,
    von_neumann_entropy,
)
from .errors import (
    BlochNormExceeded,
    BracketError,
    DimensionMismatch,
    DivergentPartition,
    DomainError,
    EntropyneError,
    HyperbolicDomain,
    InvalidGaussian,
    InvalidState,
    NegativeBeta,
    NotHermitian,
    NumericalFailure,
    QuadratureUnstable,
    SupportDeficient,
    TruncationUnstable,
    UnphysicalCovariance,
    UnsupportedQ,
    ZeroTemperature,
)
from .fock import (
    KernelMoments,
    kernel_moments,
    stable_partition,
    thermal_light_fock,
)
from .gaussian import (
    CovarianceState,
    GaussianParams,
    QuadraticHamiltonian,
    Su11Coefficients,
    covariance_from_params,
    entropy_gaussian,
    fock_diagonal_element,
    gaussian_delta,
    legendre_pn,
    log_partition_function,
    mean_energy,
    normalization,
    partition_function,
    purity,
    su11_coefficients,
)
from .grids import DeltaGrid, GridSpec, grid_from_json_dict, parse_grid_spec
from .hermitian import (
    SpectralDecomposition,
    check_hermitian,
    eigendecompose,
    gibbs_state,
    log_trace_exp,
    matrix_function,
    random_density_matrix,
    random_hermitian,
)
from .qubit import (
    BlochHamiltonian,
    BlochState,
    QubitObservables,
    bloch_entropy,
    density_from_bloch,
    equilibrium_bloch,
    equilibrium_temperature,
    hamiltonian_from_bloch,
    log_partition_qubit,
    qubit_delta_grid,
    qubit_delta_record,
    qubit_observables,
)
from .verify import run_verification

__all__ = [
    "__version__",
    # amplifier
    "AmplifierConfig",
    "ThermalLight",
    "amplifier_delta_surface",
    "amplifier_hamiltonian",
    "delta_argmin_temperature",
    "nbar_from_temperature",
    "thermal_light_covariance",
    # entropy
    "DeltaRecord",
    "TsallisSeries",
    "delta_from_operators",
    "delta_from_scalars",
    "relative_entropy_vn",
    "tsallis_relative_entropy",
    "tsallis_series",
    "von_neumann_entropy",
    # errors
    "BlochNormExceeded",
    "BracketError",
    "DimensionMismatch",
    "DivergentPartition",
    "DomainError",
    "EntropyneError",
    "HyperbolicDomain",
    "InvalidGaussian",
    "InvalidState",
    "NegativeBeta",
    "NotHermitian",
    "NumericalFailure",
    "QuadratureUnstable",
    "SupportDeficient",
    "TruncationUnstable",
    "UnphysicalCovariance",
    "UnsupportedQ",
    "ZeroTemperature",
    # fock
    "KernelMoments",
    "kernel_moments",
    "stable_partition",
    "thermal_light_fock",
    # gaussian
    "CovarianceState",
    "GaussianParams",
    "QuadraticHamiltonian",
    "Su11Coefficients",
    "covariance_from_params",
    "entropy_gaussian",
    "fock_diagonal_element",
    "gaussian_delta",
    "legendre_pn",
    "log_partition_function",
    "mean_energy",
    "normalization",
    "partition_function",
    "purity",
    "su11_coefficients",
    # grids
    "DeltaGrid",
    "GridSpec",
    "grid_from_json_dict",
    "parse_grid_spec",
    # hermitian
    "SpectralDecomposition",
    "check_hermitian",
    "eigendecompose",
    "gibbs_state",
    "log_trace_exp",
    "matrix_function",
    "random_density_matrix",
    "random_hermitian",
    # qubit
    "BlochHamiltonian",
    "BlochState",
    "QubitObservables",
    "bloch_entropy",
    "density_from_bloch",
    "equilibrium_bloch",
    "equilibrium_temperature",
    "hamiltonian_from_bloch",
    "log_partition_qubit",
    "qubit_delta_grid",
    "qubit_delta_record",
    "qubit_observables",
    # verify
    "run_verification",
]
