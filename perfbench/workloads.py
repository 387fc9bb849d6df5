"""Seeded input generator for the three benchmark workloads.

A workload is one *pass*: a fixed list of CLI commands, each with the
config text it reads.  The seed draws every profile and geometry parameter;
the program under test only ever sees the generated config text and argv.

Parameter bands are narrow in the quantities that drive cost (phi_tilde of a
quadratic Gaussian phase sets the integrand's oscillation, tooth spacing and
width set the comb's tooth count and breakpoints) and wide elsewhere, so two
seeds give different inputs that cost the same and their timings compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

OMEGA0 = 1.215e15
SIGMA = 1.0e9
EARTH_R = 6.371e6
LEO_R = 6.771e6
GEO_R = 4.2164e7
EARTH_RS = 8.87e-3
EARTH_PRESETS = ("earth-leo", "earth-geo", "earth-surface-lab")

# Above the CLI's ANALYTIC_FALLBACK_DELTA1 (1e-7), so every desk-sweep row
# takes the numeric optimizer path.
DESK_DELTA_LO = 1e-3
DESK_DELTA_HI = 1e-1
COMB_DELTA1 = 1e-3
PURITY_BINS = (2**11, 2**13, 2**15, 2**17)   # 2^17 bins keeps peak RSS < 200 MB
NEAR_EARTH_ROWS = 1000
POINTS_PER_FAMILY = 5

WORKLOADS = ("desk-sweep", "near-earth", "crosscheck")

# The command whose throughput `ops_per_s` reports, per workload.
HEADLINE = {
    "desk-sweep": "sweep",
    "near-earth": "sweep",
    "crosscheck": "overlap",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation.  `params` is what the checker needs to compute the
    reference values; `config` is the text written to the --config file."""

    name: str
    argv: tuple[str, ...]
    config: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.argv[0]


def _fmt(x: float) -> str:
    return repr(float(x))


def config_text(params: dict) -> str:
    """Flat key = value scenario text for the generator's parameter dict."""
    lines = []
    if "chi" in params:
        lines.append(f"spacetime.chi = {_fmt(params['chi'])}")
    else:
        lines += [f"spacetime.r_a_m = {_fmt(params['r_a'])}",
                  f"spacetime.r_b_m = {_fmt(params['r_b'])}",
                  f"spacetime.r_s_m = {_fmt(params['r_s'])}"]
    lines += [f"frame.omega0_rad_s = {_fmt(OMEGA0)}",
              f"frame.sigma_rad_s = {_fmt(SIGMA)}",
              f"profile.kind = {params['kind']}",
              f"profile.phi_tilde = {_fmt(params['phi'])}"]
    if "z0" in params:
        lines.append(f"profile.z0 = {_fmt(params['z0'])}")
    if params["kind"].startswith("comb"):
        lines += [f"profile.sigma_tilde = {_fmt(params['sigma_tilde'])}",
                  f"profile.d_tilde = {_fmt(params['d_tilde'])}"]
        if params["kind"] == "comb_quadratic":
            lines.append(f"profile.delta_z0 = {_fmt(params.get('delta_z0', 0.0))}")
    if "photons" in params:
        kind, n = params["photons"]
        lines += [f"photons.kind = {kind}", f"photons.n_mean = {_fmt(n)}"]
    if "sweep" in params:
        sw = params["sweep"]
        lines += [f"sweep.param = {sw['param']}",
                  f"sweep.start = {_fmt(sw['start'])}",
                  f"sweep.stop = {_fmt(sw['stop'])}",
                  f"sweep.count = {sw['count']}",
                  "sweep.scale = linear"]
    return "\n".join(lines) + "\n"


def _cfg_cmd(name: str, verb: str, params: dict, *extra: str) -> Command:
    return Command(name=name, argv=(verb, "--config", "{cfg}", *extra),
                   config=config_text(params), params=params)


def _comb(rng: random.Random, kind: str, sigma_lo: float, sigma_hi: float,
          d_lo: float, d_hi: float) -> dict:
    p = {"kind": kind,
         "phi": rng.uniform(0.5, 3.0),
         "z0": rng.uniform(0.0, 10.0),
         "sigma_tilde": rng.uniform(sigma_lo, sigma_hi),
         "d_tilde": rng.uniform(d_lo, d_hi)}
    if kind == "comb_quadratic":
        p["delta_z0"] = rng.uniform(-0.5, 0.5)
    return p


def desk_sweep(rng: random.Random) -> list[Command]:
    """Numeric sweeps over chi for both Gaussian phases."""
    cmds = []
    for kind, phi_lo, phi_hi in (("gaussian_linear", 0.5, 3.0),
                                 ("gaussian_quadratic", 0.68, 0.72)):
        start = 1.0 + DESK_DELTA_LO * rng.uniform(1.0, 1.2)
        stop = 1.0 + DESK_DELTA_HI * rng.uniform(0.85, 1.0)
        p = {"kind": kind, "chi": start, "phi": rng.uniform(phi_lo, phi_hi),
             "z0": rng.uniform(1.0, 10.0),
             "sweep": {"param": "spacetime.chi", "start": start, "stop": stop,
                       "count": 2}}
        cmds.append(_cfg_cmd(f"sweep-{kind}", "sweep", p, "--workers", "1"))
    return cmds


def _orbit(rng: random.Random) -> dict:
    return {"r_a": EARTH_R, "r_b": rng.uniform(LEO_R, GEO_R), "r_s": EARTH_RS}


def near_earth(rng: random.Random) -> list[Command]:
    """Real geometries: every sweep row takes the weak-field fallback."""
    cmds = [Command(f"redshift-{p}", ("redshift", "--preset", p)) for p in EARTH_PRESETS]
    cmds += [Command(f"dump-config-{p}", ("dump-config", "--preset", p))
             for p in EARTH_PRESETS]
    for kind in ("gaussian_linear", "gaussian_quadratic", "comb_linear", "comb_quadratic"):
        # Tooth spacing sets the length of the theta-series loops in every
        # comb row; the quadratic-comb expansion needs d_tilde^2/2 <= 0.3.
        if kind == "comb_linear":
            p = _comb(rng, kind, 10.0, 10.2, 2.0, 2.02)
        elif kind == "comb_quadratic":
            p = _comb(rng, kind, 25.0, 25.5, 0.5, 0.505)
        else:
            p = {"kind": kind, "phi": 0.0}
        p.update(_orbit(rng))
        lo, hi = rng.uniform(0.0, 0.1), rng.uniform(4.0, 4.1)
        p["sweep"] = {"param": "profile.phi_tilde", "start": lo, "stop": hi,
                      "count": NEAR_EARTH_ROWS}
        p["phi"] = lo
        cmds.append(_cfg_cmd(f"redshift-{kind}", "redshift", p))
        cmds.append(_cfg_cmd(f"dump-config-{kind}", "dump-config", p))
        cmds.append(_cfg_cmd(f"sweep-{kind}", "sweep", p, "--workers", "1"))
    cmds += [Command(f"optimize-{p}", ("optimize", "--preset", p)) for p in EARTH_PRESETS]
    return cmds


def crosscheck(rng: random.Random) -> list[Command]:
    """Validation battery, density-matrix purities and point overlaps."""
    cmds = [Command("validate-full", ("validate", "--level", "full"))]
    families = ("gaussian_linear", "gaussian_quadratic", "comb_linear", "comb_quadratic")
    for bins, kind in zip(PURITY_BINS, families):
        p = _point(rng, kind)
        p["chi"] = rng.uniform(0.97, 1.05)
        cmds.append(_cfg_cmd(f"purity-{kind}-{bins}", "purity", p, "--bins", str(bins)))
    photons = {"gaussian_linear": ("fock", float(rng.randint(2, 10))),
               "gaussian_quadratic": ("coherent", rng.uniform(1.0, 1000.0)),
               "comb_linear": ("squeezed", rng.uniform(1.0, 1000.0)),
               "comb_quadratic": ("coherent", rng.uniform(1.0, 1000.0))}
    for kind in families:
        for i in range(POINTS_PER_FAMILY):
            p = _point(rng, kind)
            if i == 0:
                p["photons"] = photons[kind]
            cmds.append(_cfg_cmd(f"overlap-{kind}-{i}", "overlap", p,
                                 "--z-bar", _fmt(p["z_bar"])))
    return cmds


def _point(rng: random.Random, kind: str) -> dict:
    if kind == "gaussian_linear":
        return {"kind": kind, "chi": rng.uniform(0.95, 1.08), "phi": rng.uniform(0.5, 3.0),
                "z0": rng.uniform(0.0, 10.0), "z_bar": rng.uniform(-1.0, 1.0)}
    if kind == "gaussian_quadratic":
        return {"kind": kind, "chi": rng.uniform(1.01, 1.05), "phi": rng.uniform(0.6, 0.62),
                "z0": rng.uniform(1.0, 20.0), "z_bar": rng.uniform(-1.0, 1.0)}
    p = _comb(rng, kind, 10.0, 10.2, 2.5, 2.52)
    p["chi"] = 1.0 + COMB_DELTA1 * rng.uniform(0.8, 1.2)
    p["z_bar"] = 0.0
    return p


_BUILDERS = {"desk-sweep": desk_sweep, "near-earth": near_earth, "crosscheck": crosscheck}


def generate(workload: str, seed: int) -> list[Command]:
    """The pass of `workload` for `seed`; the same seed gives the same pass."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
