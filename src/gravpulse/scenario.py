"""Scenario files: flat dotted key-value configs driving the CLI.

Format: one ``section.key = value`` per line, ``#`` comments, blank lines
ignored.  Recognized keys:

    spacetime.r_a_m, spacetime.r_b_m, spacetime.r_s_m   geometry [m]
    spacetime.chi                                       direct chi override
    frame.omega0_rad_s, frame.sigma_rad_s               dimensionful frame
    profile.kind          gaussian_linear | gaussian_quadratic |
                          comb_linear | comb_quadratic
    profile.phi_tilde, profile.z0, profile.sigma_tilde,
    profile.d_tilde, profile.delta_z0, profile.n_max
    photons.kind          fock | coherent | squeezed
    photons.n_mean
    sweep.param, sweep.start, sweep.stop, sweep.count, sweep.scale

Exactly one of the radii pair or the chi override must be present.  When
profile.z0 is omitted it defaults to omega0/sigma from the frame.  When a
comb's profile.n_max is omitted it is derived from profile.d_tilde, again
for every row of a d_tilde sweep.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from importlib import resources

from .errors import ConfigError, ValidityError
from .multiphoton import PhotonKind, PhotonStatistics
from .profiles import (DimensionfulFrame, Profile, ProfileKind, comb, default_n_max,
                       gaussian_linear, gaussian_quadratic)
from .spacetime import SpacetimeConfig

__all__ = [
    "SweepSpec",
    "Scenario",
    "parse_scenario",
    "dump_scenario",
    "load_preset",
    "preset_names",
    "SWEEPABLE_PARAMS",
]

SWEEPABLE_PARAMS = (
    "profile.phi_tilde",
    "profile.z0",
    "profile.sigma_tilde",
    "profile.d_tilde",
    "profile.delta_z0",
    "photons.n_mean",
    "spacetime.chi",
)


@dataclass(frozen=True)
class SweepSpec:
    param: str
    start: float
    stop: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        if self.param not in SWEEPABLE_PARAMS:
            raise ConfigError(
                f"sweep.param must be one of {', '.join(SWEEPABLE_PARAMS)}, "
                f"got {self.param!r}")
        if self.count < 1:
            raise ConfigError(f"sweep.count must be >= 1, got {self.count}")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep.scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and (self.start <= 0.0 or self.stop <= 0.0):
            raise ConfigError("log sweeps need positive endpoints")

    def values(self) -> Iterator[float]:
        """The sweep points, computed one at a time."""
        if self.count == 1:
            return iter((self.start,))
        if self.scale == "log":
            ratio = (self.stop / self.start) ** (1.0 / (self.count - 1))
            return (self.start * ratio**i for i in range(self.count))
        step = (self.stop - self.start) / (self.count - 1)
        return (self.start + step * i for i in range(self.count))


@dataclass(frozen=True)
class Scenario:
    frame: DimensionfulFrame
    profile: Profile
    spacetime: SpacetimeConfig | None = None
    chi_override: float | None = None
    photons: PhotonStatistics | None = None
    sweep: SweepSpec | None = None
    # The comb's n_max was chosen from d_tilde and follows it in sweeps.
    auto_n_max: bool = False

    def __post_init__(self):
        if (self.spacetime is None) == (self.chi_override is None):
            raise ConfigError(
                "exactly one of the spacetime radii and the chi override must be set")
        if self.chi_override is not None and not (
                self.chi_override > 0.0 and math.isfinite(self.chi_override)):
            raise ConfigError(f"chi override must be positive, got {self.chi_override!r}")

    def with_param(self, param: str, value: float) -> "Scenario":
        """Scenario with one sweepable parameter replaced."""
        section, key = param.split(".", 1)
        if section == "profile":
            changes = {key: value}
            if key == "d_tilde" and self.auto_n_max:
                changes["n_max"] = default_n_max(value)
            return replace(self, profile=replace(self.profile, **changes))
        if param == "photons.n_mean":
            if self.photons is None:
                raise ConfigError("photons.n_mean sweep needs a photons section")
            return replace(self, photons=PhotonStatistics(self.photons.kind, value))
        if param == "spacetime.chi":
            return replace(self, spacetime=None, chi_override=value)
        raise ConfigError(f"cannot sweep {param!r}")


def _parse_pairs(text: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw!r}")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = value
    return pairs


def _pop_float(pairs: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in pairs:
        return default
    raw = pairs.pop(key)
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: must be finite, got {raw!r}")
    return value


def _pop_int(pairs: dict[str, str], key: str, default: int | None = None) -> int | None:
    if key not in pairs:
        return default
    raw = pairs.pop(key)
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario file; raises ConfigError on any problem."""
    pairs = _parse_pairs(text)

    omega0 = _pop_float(pairs, "frame.omega0_rad_s")
    sigma = _pop_float(pairs, "frame.sigma_rad_s")
    if omega0 is None or sigma is None:
        raise ConfigError("frame.omega0_rad_s and frame.sigma_rad_s are required")
    try:
        frame = DimensionfulFrame(omega0=omega0, sigma=sigma)
    except ValidityError as exc:
        raise ConfigError(str(exc)) from exc

    r_a = _pop_float(pairs, "spacetime.r_a_m")
    r_b = _pop_float(pairs, "spacetime.r_b_m")
    r_s = _pop_float(pairs, "spacetime.r_s_m")
    chi = _pop_float(pairs, "spacetime.chi")
    spacetime = None
    if r_a is not None or r_b is not None:
        if r_a is None or r_b is None:
            raise ConfigError("spacetime.r_a_m and spacetime.r_b_m must come together")
        try:
            spacetime = (SpacetimeConfig(r_a=r_a, r_b=r_b, r_s=r_s)
                         if r_s is not None else SpacetimeConfig(r_a=r_a, r_b=r_b))
        except ValidityError as exc:
            raise ConfigError(str(exc)) from exc

    kind_raw = pairs.pop("profile.kind", "gaussian_linear")
    try:
        kind = ProfileKind(kind_raw)
    except ValueError as exc:
        raise ConfigError(f"unknown profile.kind {kind_raw!r}") from exc
    phi = _pop_float(pairs, "profile.phi_tilde", 0.0)
    z0 = _pop_float(pairs, "profile.z0", frame.z0)
    auto_n_max = kind.is_comb and "profile.n_max" not in pairs
    try:
        if kind is ProfileKind.GAUSSIAN_LINEAR:
            profile = gaussian_linear(phi, z0=z0)
        elif kind is ProfileKind.GAUSSIAN_QUADRATIC:
            profile = gaussian_quadratic(phi, z0=z0)
        else:
            sig = _pop_float(pairs, "profile.sigma_tilde")
            d = _pop_float(pairs, "profile.d_tilde")
            if sig is None or d is None:
                raise ConfigError(
                    "comb profiles need profile.sigma_tilde and profile.d_tilde")
            profile = comb(
                sig, d, phi_tilde=phi,
                phase_kind="quadratic" if kind is ProfileKind.COMB_QUADRATIC else "linear",
                delta_z0=_pop_float(pairs, "profile.delta_z0", 0.0),
                n_max=_pop_int(pairs, "profile.n_max"), z0=z0)
    except ValidityError as exc:
        raise ConfigError(str(exc)) from exc
    comb_only = ("profile.sigma_tilde", "profile.d_tilde", "profile.delta_z0",
                 "profile.n_max")
    for stale in comb_only:
        if stale in pairs:
            raise ConfigError(f"{stale} is only valid for comb profiles")

    photons = None
    if "photons.kind" in pairs or "photons.n_mean" in pairs:
        pk_raw = pairs.pop("photons.kind", None)
        n_mean = _pop_float(pairs, "photons.n_mean")
        if pk_raw is None or n_mean is None:
            raise ConfigError("photons.kind and photons.n_mean must come together")
        try:
            photons = PhotonStatistics(PhotonKind(pk_raw), n_mean)
        except (ValueError, ValidityError) as exc:
            raise ConfigError(f"bad photons section: {exc}") from exc

    sweep = None
    if any(k.startswith("sweep.") for k in pairs):
        param = pairs.pop("sweep.param", None)
        start = _pop_float(pairs, "sweep.start")
        stop = _pop_float(pairs, "sweep.stop")
        count = _pop_int(pairs, "sweep.count")
        if param is None or start is None or stop is None or count is None:
            raise ConfigError("sweep needs sweep.param, sweep.start, sweep.stop, sweep.count")
        sweep = SweepSpec(param=param, start=start, stop=stop, count=count,
                          scale=pairs.pop("sweep.scale", "linear"))
        if not kind.is_comb and param in comb_only:
            raise ConfigError(f"{param} is only valid for comb profiles")

    if pairs:
        raise ConfigError(f"unrecognized keys: {', '.join(sorted(pairs))}")
    try:
        return Scenario(frame=frame, profile=profile, spacetime=spacetime,
                        chi_override=chi, photons=photons, sweep=sweep,
                        auto_n_max=auto_n_max)
    except ValidityError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def dump_scenario(sc: Scenario) -> str:
    """Serialize a scenario to the flat key-value format; parsing the output
    reproduces an equivalent scenario."""
    lines = []
    if sc.spacetime is not None:
        lines += [f"spacetime.r_a_m = {_fmt(sc.spacetime.r_a)}",
                  f"spacetime.r_b_m = {_fmt(sc.spacetime.r_b)}",
                  f"spacetime.r_s_m = {_fmt(sc.spacetime.r_s)}"]
    else:
        lines.append(f"spacetime.chi = {_fmt(sc.chi_override)}")
    lines += [f"frame.omega0_rad_s = {_fmt(sc.frame.omega0)}",
              f"frame.sigma_rad_s = {_fmt(sc.frame.sigma)}",
              f"profile.kind = {sc.profile.kind.value}",
              f"profile.phi_tilde = {_fmt(sc.profile.phi_tilde)}",
              f"profile.z0 = {_fmt(sc.profile.z0)}"]
    if sc.profile.kind.is_comb:
        lines += [f"profile.sigma_tilde = {_fmt(sc.profile.sigma_tilde)}",
                  f"profile.d_tilde = {_fmt(sc.profile.d_tilde)}"]
        if not sc.auto_n_max:
            lines.append(f"profile.n_max = {sc.profile.n_max}")
        if sc.profile.kind is ProfileKind.COMB_QUADRATIC:
            lines.append(f"profile.delta_z0 = {_fmt(sc.profile.delta_z0)}")
    if sc.photons is not None:
        lines += [f"photons.kind = {sc.photons.kind.value}",
                  f"photons.n_mean = {_fmt(sc.photons.n_mean)}"]
    if sc.sweep is not None:
        lines += [f"sweep.param = {sc.sweep.param}",
                  f"sweep.start = {_fmt(sc.sweep.start)}",
                  f"sweep.stop = {_fmt(sc.sweep.stop)}",
                  f"sweep.count = {sc.sweep.count}",
                  f"sweep.scale = {sc.sweep.scale}"]
    return "\n".join(lines) + "\n"


def preset_names() -> list[str]:
    root = resources.files("gravpulse").joinpath("presets")
    return sorted(p.name[:-4] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_preset(name: str) -> Scenario:
    path = resources.files("gravpulse").joinpath("presets", f"{name}.cfg")
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}") from exc
    return parse_scenario(text)
