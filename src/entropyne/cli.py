"""Command-line front end.

Subcommands:
    qubit-grid      distance over a (theta, T) grid for a qubit
    amplifier-grid  distance over a (T, nbar) grid for the parametric amplifier
    gaussian-z      closed-form partition function of a quadratic Hamiltonian
    tsallis         deformed relative entropy / series report for two matrix files
    verify          run the oracle verification families

Exit codes: 0 success, 1 verification failure, 2 usage error (a grid too
large to allocate among them), 3 numeric domain error.  Output is
deterministic for fixed inputs and seed.  The grid subcommands accept
--threads (default 1) for compatibility; it does not affect the work done
or the output.  They stream their output, and a reader that closes stdout
early (`| head`) ends the run quietly with exit 0.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, entropy, fock, gaussian, verify
from .amplifier import AmplifierConfig, amplifier_delta_surface
from .errors import EntropyneError
from .grids import DeltaGrid, GridSpec, fmt, parse_grid_spec
from .qubit import BlochHamiltonian, qubit_delta_grid

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _grid_spec(text: str) -> GridSpec:
    try:
        return parse_grid_spec(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _write_output(grid: DeltaGrid, args) -> None:
    """Stream the grid to --output, or to stdout."""
    write = grid.write_csv if args.format == "csv" else grid.write_json
    if args.output is not None:
        with open(args.output, "w", newline="\n") as fh:
            write(fh)
        return
    try:
        write(sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`) and wants no more output.
        # Point stdout at devnull so that the flush at exit stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _grid_common_metadata(args, extra: dict) -> dict:
    meta = {
        "tool_version": __version__,
        "seed": args.seed,
        "subcommand": args.subcommand,
    }
    meta.update(extra)
    return meta


def cmd_qubit_grid(args) -> int:
    theta_spec = _grid_spec(args.theta)
    temp_spec = _grid_spec(args.temp)
    ham = BlochHamiltonian(h0=args.h0, h=np.array([0.0, 0.0, args.h_norm]))
    grid = qubit_delta_grid(args.p_norm, ham, theta_spec, temp_spec)
    grid.metadata = _grid_common_metadata(args, {
        "p_norm": fmt(args.p_norm), "h_norm": fmt(args.h_norm),
        "h0": fmt(args.h0),
        "theta": str(theta_spec), "temp": str(temp_spec),
    })
    _write_output(grid, args)
    return EXIT_OK


def cmd_amplifier_grid(args) -> int:
    cfg = AmplifierConfig(omega0=args.omega0, omega=args.omega, k=args.k,
                          t=args.t, omega_t=args.omega_t)
    temp_spec = _grid_spec(args.temp)
    nbar_spec = _grid_spec(args.nbar)
    surface = amplifier_delta_surface(cfg, temp_spec, nbar_spec)
    surface.metadata = _grid_common_metadata(args, {
        "omega0": fmt(args.omega0), "omega": fmt(args.omega), "k": fmt(args.k),
        "t": fmt(args.t), "omega_t": fmt(args.omega_t),
        "temp": str(temp_spec), "nbar": str(nbar_spec),
    })
    _write_output(surface, args)
    return EXIT_OK


def cmd_gaussian_z(args) -> int:
    if args.oracle and not fock.N_CAP_MIN <= args.oracle <= fock.N_CAP_MAX:
        raise UsageError(f"--oracle must be 0 or in [{fock.N_CAP_MIN}, "
                         f"{fock.N_CAP_MAX}], got {args.oracle}")
    h = gaussian.QuadraticHamiltonian(
        omega0=args.omega0, omega1=args.omega1,
        omega2=complex(args.omega2_re, args.omega2_im), omega3=args.omega3,
    )
    z = gaussian.partition_function(h, args.beta)
    print(f"Z={fmt(z)}")
    print(f"lnZ={fmt(gaussian.log_partition_function(h, args.beta))}")
    if args.oracle:
        brute = fock.stable_partition(h, args.beta, n_cap=args.oracle)
        rel = abs(z - brute) / brute
        print(f"oracle_Z={fmt(brute)}")
        print(f"oracle_rel_diff={fmt(rel)}")
    return EXIT_OK


def _read_matrix(path: str) -> np.ndarray:
    with open(path) as fh:
        tokens = fh.read().split("\n")
    try:
        dim = int(tokens[0].strip())
        rows = [[complex(tok) for tok in line.split()]
                for line in tokens[1:] if line.strip()]
        m = np.array(rows, dtype=complex)
    except ValueError as exc:
        raise UsageError(f"{path}: malformed matrix file ({exc})") from None
    if m.shape != (dim, dim):
        raise UsageError(f"{path}: expected {dim}x{dim} entries, got {m.shape}")
    if not np.isfinite(m).all():
        raise UsageError(f"{path}: malformed matrix file (non-finite entry)")
    return m


def cmd_tsallis(args) -> int:
    rho = _read_matrix(args.rho_file)
    sigma = _read_matrix(args.sigma_file)
    if args.q is not None:
        value = entropy.tsallis_relative_entropy(rho, sigma, args.q)
        print(f"S_q={fmt(value) if math.isfinite(value) else 'inf'}")
        # S_q is +inf only for q > 1 with rho's mass on sigma's kernel; an
        # S_q past the double range raises NumericalFailure instead.
        if not math.isfinite(value):
            print("# support(rho) is not contained in support(sigma)")
        return EXIT_OK

    try:
        deltas = [float(tok) for tok in args.delta_series.split(",")]
    except ValueError as exc:
        raise UsageError(f"--delta-series: {exc}") from None
    if not all(0.0 < d < math.inf for d in deltas):
        raise UsageError(f"--delta-series: every delta must be finite and > 0, "
                         f"got {args.delta_series}")
    report = entropy.tsallis_series_report(rho, sigma, deltas)
    series = report.series
    for k, coef in enumerate((series.order0, series.order1, series.order2)):
        print(f"order{k}={fmt(coef)}")
    for d, direct in zip(deltas, report.values):
        print(f"delta={fmt(d)} S={fmt(direct)} series={fmt(series.evaluate(d))}")
    if report.slope is not None:
        print(f"residual_slope={fmt(report.slope)}")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be >= 0, got {args.seed}")
    results = verify.run_verification(seed=args.seed, quick=args.quick)
    failed = False
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"family={res.name} status={status} {res.measured}")
        failed |= not res.passed
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entropyne",
        description="Thermodynamic distance of quantum states from thermal equilibrium",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; does not affect output")
        p.add_argument("--seed", type=int, default=0,
                       help="echoed into metadata; grids are deterministic")

    p = sub.add_parser("qubit-grid", help="distance over a (theta, T) qubit grid")
    p.add_argument("--p-norm", type=float, required=True)
    p.add_argument("--h-norm", type=float, required=True)
    p.add_argument("--h0", type=float, default=0.0)
    p.add_argument("--theta", required=True, help="start:stop:count (inclusive)")
    p.add_argument("--temp", required=True, help="start:stop:count (inclusive)")
    add_common(p)
    p.set_defaults(func=cmd_qubit_grid)

    p = sub.add_parser("amplifier-grid",
                       help="distance over a (T, nbar) amplifier grid")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=3.0)
    p.add_argument("--k", type=float, default=0.1)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--omega-t", type=float, default=1.0)
    p.add_argument("--temp", default="0.2:10:100", help="start:stop:count, T > 0")
    p.add_argument("--nbar", default="0.2:10:100", help="start:stop:count")
    add_common(p)
    p.set_defaults(func=cmd_amplifier_grid)

    p = sub.add_parser("gaussian-z", help="closed-form quadratic partition function")
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--omega1", type=float, required=True)
    p.add_argument("--omega2-re", type=float, default=0.0)
    p.add_argument("--omega2-im", type=float, default=0.0)
    p.add_argument("--omega3", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--oracle", type=int, default=0,
                   help="cross-check against the truncated trace up to this basis "
                        f"size, {fock.N_CAP_MIN}..{fock.N_CAP_MAX} (default 0: none)")
    p.set_defaults(func=cmd_gaussian_z)

    p = sub.add_parser("tsallis", help="deformed relative entropy of two matrix files")
    p.add_argument("--rho-file", required=True)
    p.add_argument("--sigma-file", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--q", type=float, default=None)
    group.add_argument("--delta-series", nargs="?", default=None,
                       const=",".join(map(repr, entropy.SERIES_DELTAS)),
                       help="comma-separated delta list for the series report")
    p.set_defaults(func=cmd_tsallis)

    p = sub.add_parser("verify", help="run oracle verification families")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EntropyneError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, MemoryError) as exc:  # a grid too large to allocate is a usage error
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
