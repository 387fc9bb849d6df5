"""Command-line front end.

Subcommands: redshift, overlap, optimize, sweep, purity, validate,
dump-config.  Exit codes: 0 success, 1 validation failure, 2 config error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import warnings
from dataclasses import replace

from . import analytic, validation
from .errors import (ConfigError, GridMismatchError, NonConvergenceError,
                     SupportEscapeError, ValidityError)
from .multiphoton import (PhotonKind, PhotonStatistics, coherent_overlap, fock_overlap,
                          squeezed_overlap)
from .optimize import FlatObjectiveWarning, OptimizationResult, maximize_shift
from .overlap import OverlapResult, evaluate_overlap
from .profiles import Profile, ProfileKind
from .scenario import Scenario, dump_scenario, load_preset, parse_scenario, preset_names
from .spacetime import RedshiftFactor, kappa_from_delta
from .states import FrequencyGrid, apply_redshift, fidelity, mixed_state, pure_state, purity

__all__ = ["main"]

CSV_HEADER = ("param,chi,delta1,z_bar_opt,delta_omega_opt_rad_s,"
              "delta_p_opt,delta_m_opt,eta,naive_delta_p,n_evals")
# _fmt on the nine float columns, str on n_evals
CSV_ROW = ",".join(["%.17g"] * 9 + ["%d"])

# Below this |delta1| the deficits 1 - Delta (~delta1^2) fall under the numeric
# optimizer's 1e-13 resolution, so optimize and sweep use the weak-field forms.
ANALYTIC_FALLBACK_DELTA1 = 1e-7

# `purity` holds about 96 bytes per grid bin at its peak; requests whose
# estimate exceeds the cap are refused before anything is allocated.
PURITY_BYTES_PER_BIN = 128
MAX_PURITY_BYTES = 2**29

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    # Built once per process; parse_args leaves the parser unchanged.
    parser = argparse.ArgumentParser(
        prog="gravpulse",
        description="Gravitational redshift deformation of light-pulse wavepackets")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="scenario file path")
        p.add_argument("--preset", help=f"built-in scenario: {', '.join(preset_names())}")
        p.add_argument("--chi", type=float, default=None,
                       help="override the redshift factor directly")
        p.add_argument("--out", help="write CSV output to this path")
        p.add_argument("--workers", type=int, default=1,
                       help="accepted and ignored: sweeps run serially")
        p.add_argument("--tolerance", type=float, default=1e-10,
                       help="quadrature absolute tolerance")

    for name, help_text in [
        ("redshift", "report chi, delta1, delta2, kappa and the carrier shift"),
        ("overlap", "evaluate the overlaps at a fixed rigid shift"),
        ("optimize", "maximize the overlaps over the rigid shift"),
        ("sweep", "scan one parameter, emitting one CSV row per point"),
        ("purity", "finite-grid state purities before/after the redshift map"),
        ("validate", "run the cross-validation battery"),
        ("dump-config", "print the effective scenario in config format"),
    ]:
        p = sub.add_parser(name, help=help_text)
        add_common(p)
        if name == "overlap":
            p.add_argument("--z-bar", type=float, default=0.0,
                           help="rigid shift in rescaled units")
        if name == "purity":
            p.add_argument("--bins", type=int, default=2048)
        if name == "validate":
            p.add_argument("--level", choices=(validation.FAST, validation.FULL),
                           default=validation.FAST)
    return parser


def _load_scenario(args: argparse.Namespace) -> Scenario:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                sc = parse_scenario(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    elif args.preset:
        sc = load_preset(args.preset)
    else:
        raise ConfigError("a scenario is required: pass --config or --preset")
    if args.chi is not None:
        sc = replace(sc, spacetime=None, chi_override=args.chi)
    return sc


def _redshift(sc: Scenario) -> RedshiftFactor:
    """The one redshift record of a command or sweep row: from the geometry,
    or (chi, chi - 1, NaN, NaN) under a bare chi override."""
    if sc.spacetime is not None:
        return RedshiftFactor.from_config(sc.spacetime)
    return RedshiftFactor(sc.chi_override, sc.chi_override - 1.0, math.nan, math.nan)


def cmd_redshift(sc: Scenario, out) -> int:
    rf = _redshift(sc)
    kap = kappa_from_delta(rf.delta)
    print(f"chi = {_fmt(rf.chi)}", file=out)
    print(f"delta1 = {_fmt(rf.delta1)}", file=out)
    print(f"delta2 = {_fmt(rf.delta2)}", file=out)
    print(f"kappa = {_fmt(kap)}", file=out)
    print(f"kappa*omega0 = {_fmt(kap * sc.frame.omega0)} rad/s", file=out)
    print(f"series residual chi - (1 + delta1 + delta2) = "
          f"{_fmt(rf.chi - (1.0 + rf.delta1 + rf.delta2))}", file=out)
    return EXIT_OK


def cmd_overlap(sc: Scenario, z_bar: float, tol: float, out) -> int:
    chi = _redshift(sc).chi
    res = evaluate_overlap(sc.profile, chi, z_bar, tol=tol)
    print(f"chi = {_fmt(chi)}", file=out)
    print(f"z_bar = {_fmt(z_bar)}", file=out)
    print(f"delta_p = {_fmt(res.delta_p)}", file=out)
    print(f"delta_m = {_fmt(res.delta_m)}", file=out)
    print(f"lambda_p = {_fmt(res.lambda_p.real)} + {_fmt(res.lambda_p.imag)}j", file=out)
    if sc.photons is not None:
        dp = _photon_delta_p(sc.photons, res)
        print(f"{sc.photons.kind.value} delta_p(N={sc.photons.n_mean:g}) = {_fmt(dp)}",
              file=out)
        print(f"multi-photon delta_m = {_fmt(res.delta_m)} (photon-number independent)",
              file=out)
    return EXIT_OK


def _photon_delta_p(photons: PhotonStatistics, res: OverlapResult) -> float:
    """Pure-state overlap of the N-photon state built on the one-photon `res`."""
    if photons.kind is PhotonKind.FOCK:
        return fock_overlap(res.delta_p, int(photons.n_mean))
    law = coherent_overlap if photons.kind is PhotonKind.COHERENT else squeezed_overlap
    return law(res.lambda_p, photons.n_mean)


def _analytic_prediction(prof: Profile, chi: float) -> tuple[float, float, float] | None:
    if prof.kind is ProfileKind.GAUSSIAN_LINEAR:
        return analytic.gaussian_linear_optimal(chi, prof.phi_tilde)
    if prof.kind is ProfileKind.GAUSSIAN_QUADRATIC:
        return analytic.gaussian_quadratic_optimal(chi, prof.phi_tilde, prof.z0)
    return None


def _optimum(sc: Scenario, rf: RedshiftFactor, tol: float
             ) -> tuple[float, float, float, OptimizationResult, str | None]:
    """(chi, delta1, delta_omega_opt, record, warning) for `sc` at `rf`: the record
    comes from the weak-field expressions below ANALYTIC_FALLBACK_DELTA1 and
    from the numeric optimizer otherwise, whose flat-scan warning, if any,
    is returned.  delta_omega_opt = (sigma/chi^2)*(z_bar_opt - (chi^2 - 1)*z0)
    in rad/s, with chi^2 - 1 formed from the exact chi - 1."""
    chi, d1, delta = rf.chi, rf.delta1, rf.delta
    warning = None
    if abs(d1) < ANALYTIC_FALLBACK_DELTA1:        # NaN (bare chi) compares false
        res = analytic.weak_field_optimum(sc.profile, d1)
    else:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", FlatObjectiveWarning)
            res = maximize_shift(sc.profile, chi, quad_tol=tol * 1e-2)
        flat = [str(w.message) for w in caught
                if issubclass(w.category, FlatObjectiveWarning)]
        warning = flat[0] if flat else None
    domega = (sc.frame.sigma / (chi * chi)) * (res.z_bar_opt
                                               - delta * (2.0 + delta) * sc.profile.z0)
    return chi, d1, domega, res, warning


def cmd_optimize(sc: Scenario, tol: float, out) -> int:
    chi, _, domega, res, warning = _optimum(sc, _redshift(sc), tol)
    if warning is not None:
        print(f"warning: {warning} (try --chi to exaggerate the redshift)", file=sys.stderr)
    print(f"chi = {_fmt(chi)}", file=out)
    print(f"z_bar_opt = {_fmt(res.z_bar_opt)}", file=out)
    print(f"delta_omega_opt = {_fmt(domega)} rad/s", file=out)
    print(f"delta_p_opt = {_fmt(res.delta_p_opt)}", file=out)
    print(f"delta_m_opt = {_fmt(res.delta_m_opt)}", file=out)
    print(f"eta = {_fmt(res.eta)}", file=out)
    print(f"naive delta_p(z_bar=0) = {_fmt(res.naive_delta_p)}", file=out)
    print(f"path = {res.path}", file=out)
    print(f"n_evals = {res.n_evals}", file=out)
    # On the numeric path, the gap to the closed form compares two routes.
    pred = _analytic_prediction(sc.profile, chi) if res.path == "numeric" else None
    if pred is not None:
        for name, a, got in zip(("delta_p_opt", "delta_m_opt", "z_bar_opt"), pred,
                                (res.delta_p_opt, res.delta_m_opt, res.z_bar_opt)):
            print(f"analytic {name} = {_fmt(a)} (gap {_fmt(got - a)})", file=out)
    return EXIT_OK


def _sweep_row(sc: Scenario, rf: RedshiftFactor, value: float, tol: float) -> str:
    if sc.photons is not None and sc.sweep.param == "photons.n_mean":
        base = evaluate_overlap(sc.profile, rf.chi, 0.0, tol=tol)
        dp = _photon_delta_p(sc.photons, base)
        dm = base.delta_m
        return CSV_ROW % (value, rf.chi, rf.delta1, 0.0, math.nan, dp, dm, dp / dm - 1.0,
                          base.delta_p, 0)
    chi, d1, domega, res, _ = _optimum(sc, rf, tol)
    return CSV_ROW % (value, chi, d1, res.z_bar_opt, domega, res.delta_p_opt,
                      res.delta_m_opt, res.eta, res.naive_delta_p, res.n_evals)


def cmd_sweep(sc: Scenario, tol: float, out) -> int:
    """Write the CSV one row at a time.  Nothing is written until the first
    row is computed; a later row that fails leaves the header and the rows
    before it written.  The redshift is built once unless chi is swept."""
    if sc.sweep is None:
        raise ConfigError("sweep command needs a sweep section in the scenario")
    param, rf, header = sc.sweep.param, None, CSV_HEADER + "\n"
    for value in sc.sweep.values():
        row_sc = sc.with_param(param, value)
        if rf is None or param == "spacetime.chi":
            rf = _redshift(row_sc)
        print(header + _sweep_row(row_sc, rf, value, tol), file=out)
        header = ""
    return EXIT_OK


def cmd_purity(sc: Scenario, n_bins: int, out) -> int:
    if n_bins < 2:
        raise ConfigError(f"--bins must be at least 2, got {n_bins}")
    need = n_bins * PURITY_BYTES_PER_BIN
    if need > MAX_PURITY_BYTES:
        raise ConfigError(
            f"--bins {n_bins} needs ~{need / 2**20:.0f} MiB, above the "
            f"{MAX_PURITY_BYTES // 2**20} MiB cap "
            f"(at most {MAX_PURITY_BYTES // PURITY_BYTES_PER_BIN} bins)")
    chi = _redshift(sc).chi
    grid = FrequencyGrid.centered(n_bins, 20.0 / n_bins)
    print(f"chi = {_fmt(chi)}", file=out)
    print(f"grid: {n_bins} bins, lam = {_fmt(grid.lam)}", file=out)
    for label, build in (("pure", pure_state), ("mixed", mixed_state)):
        sent = build(sc.profile, grid)
        received = apply_redshift(sent, chi)
        fid = fidelity(sent, received)
        print(f"{label}: purity before = {_fmt(purity(sent))}, "
              f"after = {_fmt(purity(received))}, "
              f"fidelity(sent, received) = {_fmt(fid)}", file=out)
    return EXIT_OK


def cmd_validate(level: str, out) -> int:
    results = validation.run_battery(level)
    print(validation.format_report(results), file=out)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out = sys.stdout
    out_file = None
    try:
        if not (args.tolerance > 0.0 and math.isfinite(args.tolerance)):
            raise ConfigError(f"--tolerance must be positive and finite, got {args.tolerance!r}")
        if getattr(args, "out", None):
            out_file = open(args.out, "w", encoding="utf-8")
            out = out_file
        if args.command == "validate":
            return cmd_validate(args.level, out)
        sc = _load_scenario(args)
        if args.command == "redshift":
            return cmd_redshift(sc, out)
        if args.command == "overlap":
            return cmd_overlap(sc, args.z_bar, args.tolerance, out)
        if args.command == "optimize":
            return cmd_optimize(sc, args.tolerance, out)
        if args.command == "sweep":
            return cmd_sweep(sc, args.tolerance, out)
        if args.command == "purity":
            return cmd_purity(sc, args.bins, out)
        if args.command == "dump-config":
            out.write(dump_scenario(sc))
            return EXIT_OK
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError,) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValidityError, SupportEscapeError, GridMismatchError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        if out_file is not None:
            out_file.close()


if __name__ == "__main__":
    sys.exit(main())
