"""Output checker: every command's output against a bound the repository
already pins (acceptance suite, `gravpulse validate`, unit tests).

Reference values come from the closed forms in `gravpulse.analytic`, which
`gravpulse validate` pins against quadrature:

* Gaussian overlaps and optima: relative 1e-7 on Delta, relative 1e-6 on
  z_bar, absolute 1e-8 where the reference z_bar is 0.
* Combs: `comb_linear_near_earth_optimal` at absolute 1e-6 on Delta_p and
  Delta_m (Delta_m only for quadratic phase, which it does not model) and
  on z_bar for linear phase.
* Every Delta: 0 <= Delta_p <= Delta_m <= 1 + 1e-9; the optimum beats the
  naive z_bar = 0 overlap to 1e-9.
* purity: before and after the redshift map agree to 1e-9.
* multi-photon laws: relative 1e-12 against the single-photon overlap.
* validate: every check passes.
* redshift: chi relative 1e-12 against the exact fourth root.
* dump-config: every input key is echoed with the same value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from gravpulse import analytic

from workloads import OMEGA0, SIGMA, Command

REL_DELTA = 1e-7
REL_ZBAR = 1e-6
ABS_ZBAR_ZERO = 1e-8
ABS_COMB = 1e-6
ORDER_SLACK = 1e-9
PURITY_ABS = 1e-9
PHOTON_REL = 1e-12
CHI_REL = 1e-12

CSV_HEADER = ("param,chi,delta1,z_bar_opt,delta_omega_opt_rad_s,"
              "delta_p_opt,delta_m_opt,eta,naive_delta_p,n_evals")


@dataclass
class Verdict:
    """Outcome of checking one command: the worst error as a share of its
    bound, and a message per violated bound."""

    worst: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def bound(self, what: str, err: float, limit: float) -> None:
        ratio = err / limit if math.isfinite(err) else math.inf
        self.worst = max(self.worst, ratio)
        if not ratio <= 1.0:
            self.problems.append(f"{what}: error {err:.3e} exceeds {limit:.1e}")

    def rel(self, what: str, got: float, ref: float, limit: float) -> None:
        self.bound(what, abs(got - ref) / max(abs(ref), 1e-300), limit)

    def absolute(self, what: str, got: float, ref: float, limit: float) -> None:
        self.bound(what, abs(got - ref), limit)

    def require(self, what: str, cond: bool) -> None:
        if not cond:
            self.problems.append(what)


def parse_config(text: str) -> dict[str, str]:
    """key -> value of a flat scenario file (comments and blanks skipped)."""
    pairs = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if "=" in line:
            key, value = (s.strip() for s in line.split("=", 1))
            pairs[key] = value
    return pairs


def scenario_params(pairs: dict[str, str]) -> dict:
    """The generator's parameter dict, rebuilt from config key/values."""
    p = {"kind": pairs.get("profile.kind", "gaussian_linear"),
         "phi": float(pairs.get("profile.phi_tilde", 0.0)),
         "z0": float(pairs.get("profile.z0", OMEGA0 / SIGMA))}
    for key, name in (("profile.sigma_tilde", "sigma_tilde"), ("profile.d_tilde", "d_tilde"),
                      ("profile.delta_z0", "delta_z0"), ("spacetime.chi", "chi"),
                      ("spacetime.r_a_m", "r_a"), ("spacetime.r_b_m", "r_b"),
                      ("spacetime.r_s_m", "r_s")):
        if key in pairs:
            p[name] = float(pairs[key])
    return p


def _values(out: str) -> dict[str, str]:
    """`name = value ...` lines -> name: first token of the value."""
    vals = {}
    for line in out.splitlines():
        if " = " in line:
            name, rest = line.split(" = ", 1)
            vals[name] = rest.split()[0] if rest.split() else ""
    return vals


def _check_optimum(v: Verdict, p: dict, chi: float, zb: float, dp: float,
                   dm: float, naive: float) -> None:
    _check_order(v, dp, dm)
    v.require(f"naive {naive!r} outside [0, 1]", 0.0 <= naive <= 1.0 + ORDER_SLACK)
    v.bound("optimum below naive overlap", max(naive - dp, 0.0), ORDER_SLACK)
    kind = p["kind"]
    if kind == "gaussian_linear":
        rp, rm, rz = analytic.gaussian_linear_optimal(chi, p["phi"])
    elif kind == "gaussian_quadratic":
        rp, rm, rz = analytic.gaussian_quadratic_optimal(chi, p["phi"], p["z0"])
    else:
        rp, rm, rz = analytic.comb_linear_near_earth_optimal(
            chi - 1.0, p["sigma_tilde"], p["d_tilde"], p["phi"])
        if kind == "comb_linear":
            v.absolute("comb delta_p_opt", dp, rp, ABS_COMB)
            v.absolute("comb z_bar_opt", zb, rz, ABS_COMB)
        v.absolute("comb delta_m_opt", dm, rm, ABS_COMB)
        return
    v.rel("delta_p_opt", dp, rp, REL_DELTA)
    v.rel("delta_m_opt", dm, rm, REL_DELTA)
    if rz == 0.0:
        v.absolute("z_bar_opt", zb, 0.0, ABS_ZBAR_ZERO)
    else:
        v.rel("z_bar_opt", zb, rz, REL_ZBAR)


def _check_order(v: Verdict, dp: float, dm: float) -> None:
    v.require(f"delta_p {dp!r} < 0", dp >= 0.0)
    v.bound("delta_p above delta_m", max(dp - dm, 0.0), ORDER_SLACK)
    v.bound("delta_m above 1", max(dm - 1.0, 0.0), ORDER_SLACK)


def _exact_chi(r_a: float, r_b: float, r_s: float) -> float:
    return ((1.0 - 1.5 * r_s / r_b) / (1.0 - r_s / r_a)) ** 0.25


def check_redshift(v: Verdict, p: dict, out: str) -> None:
    vals = _values(out)
    chi = float(vals["chi"])
    v.rel("chi", chi, _exact_chi(p["r_a"], p["r_b"], p["r_s"]), CHI_REL)
    d1, d2 = float(vals["delta1"]), float(vals["delta2"])
    v.bound("series residual", abs(chi - (1.0 + d1 + d2)), 1e-3 * abs(d1))


def check_dump(v: Verdict, given: dict[str, str], out: str) -> None:
    dumped = parse_config(out)
    for key, value in given.items():
        if key not in dumped:
            v.problems.append(f"dump-config dropped {key}")
            continue
        try:
            same = float(value) == float(dumped[key])
        except ValueError:
            same = value == dumped[key]
        v.require(f"dump-config changed {key}: {value} -> {dumped[key]}", same)


def check_optimize(v: Verdict, p: dict, out: str) -> None:
    vals = _values(out)
    _check_optimum(v, p, float(vals["chi"]), float(vals["z_bar_opt"]),
                   float(vals["delta_p_opt"]), float(vals["delta_m_opt"]),
                   float(vals["naive delta_p(z_bar=0)"]))
    for key in ("analytic delta_p_opt", "analytic delta_m_opt"):
        if key in vals:
            a = float(vals[key])
            v.require(f"{key} {a!r} < 0", a >= 0.0)
            v.bound(f"{key} above 1", max(a - 1.0, 0.0), ORDER_SLACK)


def check_sweep(v: Verdict, p: dict, out: str) -> int:
    lines = out.strip().splitlines()
    v.require("sweep CSV header changed", bool(lines) and lines[0] == CSV_HEADER)
    sw = p["sweep"]
    rows = lines[1:]
    v.require(f"sweep wrote {len(rows)} rows, expected {sw['count']}", len(rows) == sw["count"])
    step = (sw["stop"] - sw["start"]) / (sw["count"] - 1) if sw["count"] > 1 else 0.0
    for i, row in enumerate(rows):
        f = [float(x) for x in row.split(",")]
        value, chi, zb, dp, dm, naive = f[0], f[1], f[3], f[5], f[6], f[8]
        v.absolute(f"row {i} param", value, sw["start"] + step * i, 1e-12 * max(abs(value), 1.0))
        rowp = dict(p)
        if sw["param"] == "profile.phi_tilde":
            rowp["phi"] = value
        _check_optimum(v, rowp, chi, zb, dp, dm, naive)
    return len(rows)


def check_overlap(v: Verdict, p: dict, out: str) -> None:
    vals = _values(out)
    chi, zb = float(vals["chi"]), float(vals["z_bar"])
    dp, dm = float(vals["delta_p"]), float(vals["delta_m"])
    _check_order(v, dp, dm)
    kind = p["kind"]
    if kind == "gaussian_linear":
        rp, rm = analytic.gaussian_linear_closed(chi, p["phi"], zb)
    elif kind == "gaussian_quadratic":
        rp, rm = analytic.gaussian_quadratic_closed(chi, p["phi"], p["z0"], zb)
    else:
        rp, rm, _ = analytic.comb_linear_near_earth_optimal(
            chi - 1.0, p["sigma_tilde"], p["d_tilde"], p["phi"])
        if kind == "comb_linear":
            v.absolute("comb delta_p", dp, rp, ABS_COMB)
        v.absolute("comb delta_m", dm, rm, ABS_COMB)
        rp = rm = None
    if rp is not None:
        v.rel("delta_p", dp, rp, REL_DELTA)
        v.rel("delta_m", dm, rm, REL_DELTA)
    m = re.search(r"^lambda_p = (\S+) \+ (\S+)j$", out, re.M)
    lam = complex(float(m.group(1)), float(m.group(2)))
    v.rel("|lambda_p| vs delta_p", abs(lam), dp, PHOTON_REL)
    if "photons" in p:
        kind_n, n = p["photons"]
        m = re.search(rf"^{kind_n} delta_p\(N=\S+\) = (\S+)$", out, re.M)
        got = float(m.group(1))
        if kind_n == "fock":
            ref = dp ** int(n)
        elif kind_n == "coherent":
            ref = math.exp(-(1.0 - lam.real) * n)
        else:
            re_t, im_t = 1.0 + 0.5 * (1.0 - lam.real) * n, 0.5 * lam.imag * n
            ref = (re_t * re_t + im_t * im_t) ** -0.5
        v.rel(f"{kind_n} multi-photon law", got, ref, PHOTON_REL)
        m = re.search(r"^multi-photon delta_m = (\S+)", out, re.M)
        v.require("multi-photon delta_m differs from delta_m", float(m.group(1)) == dm)


def check_purity(v: Verdict, out: str) -> None:
    found = 0
    for m in re.finditer(r"^(pure|mixed): purity before = (\S+), after = (\S+), "
                         r"fidelity\(sent, received\) = (\S+)$", out, re.M):
        found += 1
        label, before, after, fid = m.group(1), *map(float, m.groups()[1:])
        v.absolute(f"{label} purity change", after, before, PURITY_ABS)
        v.require(f"{label} fidelity {fid!r} outside [0, 1]",
                  0.0 <= fid <= 1.0 + ORDER_SLACK)
    v.require(f"purity printed {found} state lines, expected 2", found == 2)


def check_validate(v: Verdict, out: str) -> None:
    m = re.search(r"^(\d+)/(\d+) checks passed$", out, re.M)
    v.require("validate printed no summary", m is not None)
    if m:
        passed, total = int(m.group(1)), int(m.group(2))
        v.require(f"validate passed {passed}/{total}", passed == total and total >= 15)


def check(cmd: Command, rc: int, out: str, presets: dict[str, str]) -> tuple[Verdict, int]:
    """Verdict on one command, and the number of sweep rows it produced."""
    v = Verdict()
    rows = 0
    if rc != 0:
        v.problems.append(f"exit code {rc}")
        return v, rows
    if cmd.config is not None:
        given = parse_config(cmd.config)
    else:
        given = parse_config(presets[cmd.argv[2]]) if "--preset" in cmd.argv else {}
    p = {**scenario_params(given), **cmd.params}
    try:
        if cmd.kind == "redshift":
            check_redshift(v, p, out)
        elif cmd.kind == "dump-config":
            check_dump(v, given, out)
        elif cmd.kind == "optimize":
            check_optimize(v, p, out)
        elif cmd.kind == "sweep":
            rows = check_sweep(v, p, out)
        elif cmd.kind == "overlap":
            check_overlap(v, p, out)
        elif cmd.kind == "purity":
            check_purity(v, out)
        elif cmd.kind == "validate":
            check_validate(v, out)
        else:
            v.problems.append(f"no checker for {cmd.kind}")
    except (KeyError, ValueError, IndexError, AttributeError) as exc:
        v.problems.append(f"unparsable output: {type(exc).__name__}: {exc}")
    return v, rows


_TIMING = re.compile(r"  \(\d+\.\d+ s\)$", re.M)


def comparable(kind: str, out: str) -> str:
    """Output with run-to-run timing fields masked (validate prints the
    seconds each check took); everything else must match byte for byte."""
    return _TIMING.sub("  (- s)", out) if kind == "validate" else out
