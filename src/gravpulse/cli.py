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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from . import analytic, validation
from .errors import (ConfigError, GridMismatchError, NonConvergenceError,
                     SupportEscapeError, ValidityError)
from .multiphoton import PhotonKind, coherent_overlap, fock_overlap, squeezed_overlap
from .optimize import (FlatObjectiveWarning, Objective, maximize_shift,
                       naive_corrected_overlap)
from .overlap import evaluate_overlap
from .profiles import ProfileKind
from .scenario import Scenario, dump_scenario, load_preset, parse_scenario, preset_names
from .spacetime import (RedshiftFactor, classical_redshift, kappa_from_delta,
                        redshift_factor)
from .states import FrequencyGrid, apply_redshift, fidelity, mixed_state, pure_state, purity

__all__ = ["main"]

CSV_HEADER = ("param,chi,delta1,z_bar_opt,delta_omega_opt_rad_s,"
              "delta_p_opt,delta_m_opt,eta,naive_delta_p,n_evals")

# Below this |delta1| the overlap deficits (~delta1^2) drown in quadrature
# noise and sweeps fall back to the weak-field analytic path.
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
                       help="concurrent sweep evaluations")
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


def _chi_and_deltas(sc: Scenario) -> tuple[float, float, float]:
    """(chi, delta1, delta2); the deltas are NaN under a bare chi override.

    The expansion-validity ratio is relaxed to 5e-2 here (vs the strict
    library default) so pedagogically exaggerated geometries still report;
    the printed series residual quantifies any loss of accuracy.
    """
    if sc.spacetime is not None:
        rf = RedshiftFactor.from_config(sc.spacetime, max_ratio=5e-2)
        return rf.chi, rf.delta1, rf.delta2
    return sc.chi_override, float("nan"), float("nan")


def cmd_redshift(sc: Scenario, out) -> int:
    chi, d1, d2 = _chi_and_deltas(sc)
    if sc.spacetime is not None:
        chi_exact = redshift_factor(sc.spacetime)
        kap = kappa_from_delta(d1 + d2)
    else:
        chi_exact = chi
        kap = (chi * chi - 1.0) / (chi * chi)
    omega0 = sc.frame.omega0
    print(f"chi = {_fmt(chi_exact)}", file=out)
    print(f"delta1 = {_fmt(d1)}", file=out)
    print(f"delta2 = {_fmt(d2)}", file=out)
    print(f"kappa = {_fmt(kap)}", file=out)
    print(f"kappa*omega0 = {_fmt(kap * omega0)} rad/s", file=out)
    print(f"series residual chi - (1 + delta1 + delta2) = "
          f"{_fmt(chi_exact - (1.0 + d1 + d2))}", file=out)
    return EXIT_OK


def cmd_overlap(sc: Scenario, z_bar: float, tol: float, out) -> int:
    chi, _, _ = _chi_and_deltas(sc)
    res = evaluate_overlap(sc.profile, chi, z_bar, tol=tol)
    print(f"chi = {_fmt(chi)}", file=out)
    print(f"z_bar = {_fmt(z_bar)}", file=out)
    print(f"delta_p = {_fmt(res.delta_p)}", file=out)
    print(f"delta_m = {_fmt(res.delta_m)}", file=out)
    print(f"lambda_p = {_fmt(res.lambda_p.real)} + {_fmt(res.lambda_p.imag)}j", file=out)
    if sc.photons is not None:
        n = sc.photons.n_mean
        if sc.photons.kind is PhotonKind.FOCK:
            print(f"fock delta_p(N={n:g}) = {_fmt(fock_overlap(res.delta_p, int(n)))}", file=out)
        elif sc.photons.kind is PhotonKind.COHERENT:
            dp, _ = coherent_overlap(res.lambda_p, n, res.delta_m)
            print(f"coherent delta_p(N={n:g}) = {_fmt(dp)}", file=out)
        else:
            dp, _ = squeezed_overlap(res.lambda_p, n, res.delta_m)
            print(f"squeezed delta_p(N={n:g}) = {_fmt(dp)}", file=out)
        print(f"multi-photon delta_m = {_fmt(res.delta_m)} (photon-number independent)",
              file=out)
    return EXIT_OK


def _analytic_prediction(sc: Scenario, chi: float) -> tuple[float, float, float] | None:
    prof = sc.profile
    if prof.kind is ProfileKind.GAUSSIAN_LINEAR:
        dp, dm, zb = analytic.gaussian_linear_optimal(chi, prof.phi_tilde)
        return dp, dm, zb
    if prof.kind is ProfileKind.GAUSSIAN_QUADRATIC:
        return analytic.gaussian_quadratic_optimal(chi, prof.phi_tilde, prof.z0)
    return None


def cmd_optimize(sc: Scenario, tol: float, out) -> int:
    chi, d1, _ = _chi_and_deltas(sc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", FlatObjectiveWarning)
        res_p = maximize_shift(sc.profile, chi, Objective.PURE, frame=sc.frame,
                               quad_tol=tol * 1e-2)
        res_m = maximize_shift(sc.profile, chi, Objective.MIXED, frame=sc.frame,
                               quad_tol=tol * 1e-2)
    for w in caught:
        if issubclass(w.category, FlatObjectiveWarning):
            print(f"warning: {w.message} (try --chi to exaggerate the redshift)",
                  file=sys.stderr)
            break
    naive_p = naive_corrected_overlap(sc.profile, chi, Objective.PURE)
    eta = res_p.delta_p_opt / res_m.delta_m_opt - 1.0
    print(f"chi = {_fmt(chi)}", file=out)
    print(f"z_bar_opt = {_fmt(res_p.z_bar_opt)}", file=out)
    print(f"delta_omega_opt = {_fmt(res_p.delta_omega_opt)} rad/s", file=out)
    print(f"delta_p_opt = {_fmt(res_p.delta_p_opt)}", file=out)
    print(f"delta_m_opt = {_fmt(res_m.delta_m_opt)}", file=out)
    print(f"eta = {_fmt(eta)}", file=out)
    print(f"naive delta_p(z_bar=0) = {_fmt(naive_p)}", file=out)
    print(f"n_evals = {res_p.n_evals + res_m.n_evals}", file=out)
    pred = _analytic_prediction(sc, chi)
    if pred is not None:
        dp_a, dm_a, zb_a = pred
        print(f"analytic delta_p_opt = {_fmt(dp_a)} "
              f"(gap {_fmt(res_p.delta_p_opt - dp_a)})", file=out)
        print(f"analytic delta_m_opt = {_fmt(dm_a)} "
              f"(gap {_fmt(res_m.delta_m_opt - dm_a)})", file=out)
        print(f"analytic z_bar_opt = {_fmt(zb_a)} "
              f"(gap {_fmt(res_p.z_bar_opt - zb_a)})", file=out)
    return EXIT_OK


def _near_earth_row(sc: Scenario, d1: float) -> tuple[float, float, float, float, float]:
    """(z_bar_opt, delta_p_opt, delta_m_opt, eta, naive_delta_p) from the
    weak-field analytic path."""
    prof = sc.profile
    phi = prof.phi_tilde
    if prof.kind is ProfileKind.GAUSSIAN_LINEAR:
        dp, dm = analytic.gaussian_linear_near_earth(d1, phi)
        eta = analytic.relative_change(
            analytic.OverlapFamily.GAUSSIAN_LINEAR,
            analytic.NearEarthParams(delta1=d1, phi_tilde=phi))
        return 0.0, dp, dm, eta, dp
    if prof.kind is ProfileKind.GAUSSIAN_QUADRATIC:
        dp, dm = analytic.gaussian_quadratic_near_earth(d1, phi, prof.z0)
        params = analytic.NearEarthParams(delta1=d1, phi_tilde=phi, z0=prof.z0)
        eta = analytic.relative_change(analytic.OverlapFamily.GAUSSIAN_QUADRATIC, params)
        chi = 1.0 + d1
        _, _, zb = analytic.gaussian_quadratic_optimal(chi, phi, prof.z0)
        naive = dp * math.exp(-256.0 * _quadratic_gain(chi, phi, prof.z0))
        return zb, dp, dm, eta, naive
    if prof.kind is ProfileKind.COMB_LINEAR:
        dp, dm, zb = analytic.comb_linear_near_earth_optimal(
            d1, prof.sigma_tilde, prof.d_tilde, phi)
        params = analytic.NearEarthParams(delta1=d1, phi_tilde=phi,
                                          sigma_tilde=prof.sigma_tilde,
                                          d_tilde=prof.d_tilde)
        eta = analytic.relative_change(analytic.OverlapFamily.COMB_LINEAR, params)
        return zb, dp, dm, eta, dp
    params = analytic.NearEarthParams(delta1=d1, phi_tilde=phi,
                                      sigma_tilde=prof.sigma_tilde,
                                      d_tilde=prof.d_tilde,
                                      delta_z0=prof.delta_z0, z0=prof.z0)
    res = analytic.comb_quadratic_optimal(params)
    return res.z_bar_opt, res.delta_p_opt, res.delta_m_opt, res.eta, res.delta_p_opt


def _quadratic_gain(chi: float, phi: float, z0: float) -> float:
    _, a1, a2 = analytic.gaussian_quadratic_coefficients(chi, phi, z0)
    return a1 * a1 / a2


def _sweep_row(sc: Scenario, value: float, tol: float) -> str:
    chi, d1, d2 = _chi_and_deltas(sc)
    if sc.photons is not None and sc.sweep.param == "photons.n_mean":
        base = evaluate_overlap(sc.profile, chi, 0.0, tol=tol)
        n = sc.photons.n_mean
        if sc.photons.kind is PhotonKind.FOCK:
            dp = fock_overlap(base.delta_p, int(n))
        elif sc.photons.kind is PhotonKind.COHERENT:
            dp, _ = coherent_overlap(base.lambda_p, n, base.delta_m)
        else:
            dp, _ = squeezed_overlap(base.lambda_p, n, base.delta_m)
        dm = base.delta_m
        eta = dp / dm - 1.0
        row = (value, chi, d1, 0.0, float("nan"), dp, dm, eta, base.delta_p, 0)
        return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)

    use_analytic = (not math.isnan(d1)) and abs(d1) < ANALYTIC_FALLBACK_DELTA1
    if use_analytic:
        zb, dp, dm, eta, naive = _near_earth_row(sc, d1)
        domega = classical_redshift(zb, 1.0 + d1 + d2, sc.frame.sigma, sc.profile.z0)
        row = (value, chi, d1, zb, domega, dp, dm, eta, naive, 0)
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FlatObjectiveWarning)
            res_p = maximize_shift(sc.profile, chi, Objective.PURE, frame=sc.frame,
                                   quad_tol=tol * 1e-2)
            res_m = maximize_shift(sc.profile, chi, Objective.MIXED, frame=sc.frame,
                                   quad_tol=tol * 1e-2)
        naive = naive_corrected_overlap(sc.profile, chi, Objective.PURE)
        eta = res_p.delta_p_opt / res_m.delta_m_opt - 1.0
        row = (value, chi, d1, res_p.z_bar_opt, res_p.delta_omega_opt,
               res_p.delta_p_opt, res_m.delta_m_opt, eta, naive,
               res_p.n_evals + res_m.n_evals)
    return ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)


def cmd_sweep(sc: Scenario, tol: float, workers: int, out) -> int:
    if sc.sweep is None:
        raise ConfigError("sweep command needs a sweep section in the scenario")
    values = sc.sweep.values()
    scenarios = [sc.with_param(sc.sweep.param, v) for v in values]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda pair: _sweep_row(pair[0], pair[1], tol),
                                 zip(scenarios, values)))
    else:
        rows = [_sweep_row(s, v, tol) for s, v in zip(scenarios, values)]
    print(CSV_HEADER, file=out)
    for row in rows:
        print(row, file=out)
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
    chi, _, _ = _chi_and_deltas(sc)
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
            return cmd_sweep(sc, args.tolerance, args.workers, out)
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
