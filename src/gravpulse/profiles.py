"""Normalized spectral profiles in the rescaled dimensionless frequency z.

A profile is a complex amplitude F(z) = f(z) * exp(i * psi(z)) with
``integral |F|^2 dz = 1``.  z measures the offset from the carrier in units
of the envelope width, so every profile here peaks at z = 0.  Two envelope
families are supported, each with a linear or quadratic spectral phase:

* Gaussian:          f(z) = (2*pi)**-0.25 * exp(-z**2/4)
* Gaussian-enveloped frequency comb: teeth of relative width 1/sigma_tilde
  spaced d_tilde apart under the same Gaussian envelope, normalized through
  Jacobi theta_3 sums that include the overlap of neighbouring teeth.

Phase conventions (z0 / delta_z0 are carried inside the profile):

* linear:    psi(z) = -phi_tilde * (z + z0)
* quadratic: psi(z) = -phi_tilde**2 * (z + z0)**2   (combs use delta_z0)

Only phase *differences* enter overlap integrals, so the constant part of
the linear phase is physically inert; it is kept for evaluate() fidelity.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, ValidityError

__all__ = [
    "ProfileKind",
    "Profile",
    "DimensionfulFrame",
    "gaussian_linear",
    "gaussian_quadratic",
    "comb",
    "jacobi_theta3",
    "evaluate",
    "modulus",
    "phase",
    "phase_slope",
    "phase_difference",
    "normalization",
    "comb_tooth_positions",
]

_GAUSS_NORM = (2.0 * math.pi) ** -0.25
MAX_RELATIVE_WIDTH = 1e-2    # narrowband bound on sigma/omega0

# Comb construction preconditions: teeth must be well separated and much
# narrower than the envelope, as the comb's weak-field expressions assume.
MIN_TOOTH_SEPARATION = 10.0   # d_tilde * sigma_tilde
MIN_SIGMA_TILDE = 5.0

# Envelope weight allowed to be dropped by the tooth-index truncation.
_TRUNCATION_WEIGHT = 1e-14

# Trapezoid intervals the overlap kernel may use over a profile's domain; a
# comb whose coarsest kernel grid already needs more is refused at
# construction, before its teeth are stored.
MAX_INTERVALS = 2**17


class ProfileKind(enum.Enum):
    GAUSSIAN_LINEAR = "gaussian_linear"
    GAUSSIAN_QUADRATIC = "gaussian_quadratic"
    COMB_LINEAR = "comb_linear"
    COMB_QUADRATIC = "comb_quadratic"

    def __init__(self, value: str):
        # Plain member attributes: read at every quadrature node, where a
        # property lookup costs ~20 times as much.
        self.is_comb = value.startswith("comb")
        self.has_quadratic_phase = value.endswith("quadratic")


@dataclass(frozen=True)
class DimensionfulFrame:
    """Carrier frequency and spectral width in rad/s.

    The narrowband condition sigma/omega0 << 1 underlies the extension of
    overlap integrals to the whole real line; it is enforced here as
    sigma/omega0 < MAX_RELATIVE_WIDTH.
    """

    omega0: float
    sigma: float

    def __post_init__(self):
        if not (self.omega0 > 0 and math.isfinite(self.omega0)):
            raise ValidityError(f"omega0 must be positive and finite, got {self.omega0!r}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValidityError(f"sigma must be positive and finite, got {self.sigma!r}")
        if self.sigma / self.omega0 >= MAX_RELATIVE_WIDTH:
            raise ValidityError(
                f"sigma/omega0 = {self.sigma / self.omega0:.3e} violates the "
                f"narrowband condition (< {MAX_RELATIVE_WIDTH:g})")

    @property
    def z0(self) -> float:
        """Dimensionless carrier position omega0/sigma."""
        return self.omega0 / self.sigma


@dataclass(frozen=True)
class Profile:
    """Immutable parameter record for one normalized spectral amplitude."""

    kind: ProfileKind
    phi_tilde: float = 0.0
    z0: float = 0.0
    sigma_tilde: float = 0.0      # comb kinds only: envelope/tooth width ratio
    d_tilde: float = 0.0          # comb kinds only: tooth spacing
    delta_z0: float = 0.0         # quadratic comb only: phase-center offset
    n_max: int = 0                # comb tooth truncation index

    def __post_init__(self):
        # One sum screens the fields: sweeps rebuild the profile per row.
        if not math.isfinite(self.phi_tilde + self.z0 + self.sigma_tilde + self.d_tilde
                             + self.delta_z0):
            for name in ("phi_tilde", "z0", "sigma_tilde", "d_tilde", "delta_z0"):
                if not math.isfinite(getattr(self, name)):
                    raise ValidityError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.kind.is_comb:
            # written so that NaN fails them
            if not self.sigma_tilde >= MIN_SIGMA_TILDE:
                raise ValidityError(
                    f"sigma_tilde = {self.sigma_tilde:g} < {MIN_SIGMA_TILDE:g}; the "
                    "envelope must be much wider than a single tooth")
            if not self.d_tilde * self.sigma_tilde >= MIN_TOOTH_SEPARATION:
                raise ValidityError(
                    f"d_tilde*sigma_tilde = {self.d_tilde * self.sigma_tilde:g} < "
                    f"{MIN_TOOTH_SEPARATION:g}; comb teeth are not well separated")
            if not hasattr(self.n_max, "__index__"):      # what operator.index accepts
                raise ValidityError(f"n_max must be an integer, got {self.n_max!r}")
            if not self.n_max >= 1:
                raise ValidityError("comb profiles need n_max >= 1")
            intervals = 2.0 * self.z_extent / self.node_spacing
            if intervals > MAX_INTERVALS:
                raise ValidityError(
                    f"comb needs {intervals:.3g} overlap-kernel intervals at its coarsest "
                    f"spacing, above the {MAX_INTERVALS} cap (sigma_tilde or n_max too large)")
            # Truncation must actually reach the target dropped weight.
            dropped = math.exp(-0.5 * ((self.n_max + 1) * self.d_tilde) ** 2)
            if dropped > _TRUNCATION_WEIGHT:
                raise NonConvergenceError(
                    f"n_max = {self.n_max} keeps only envelope weight down to "
                    f"{dropped:.2e} > {_TRUNCATION_WEIGHT:g}")

    # -- geometry -----------------------------------------------------------

    @property
    def phase_center(self) -> float:
        """Offset c of the spectral phase, psi = -phi_tilde*(z + c) or
        -phi_tilde**2*(z + c)**2: delta_z0 for the quadratic comb, z0 otherwise."""
        kind = self.kind
        return self.delta_z0 if kind.is_comb and kind.has_quadratic_phase else self.z0

    @property
    def z_extent(self) -> float:
        """Half-width of the truncation domain.  Outside [-z_extent, z_extent]
        the Gaussian envelope of |F| is below exp(-25) ~ 1.4e-11 of its peak,
        so |F|^2 is below ~2e-22 of its peak."""
        if not self.kind.is_comb:
            return 10.0
        return max(10.0, self.n_max * self.d_tilde + 10.0 / self.sigma_tilde + 10.0)

    @property
    def node_spacing(self) -> float:
        """Coarsest trapezoid node spacing of `overlap.overlap_batch`: a
        quarter of the tooth width for combs, of the envelope width otherwise."""
        return 0.25 / self.sigma_tilde if self.kind.is_comb else 0.25

    @functools.cached_property
    def _teeth(self) -> tuple[float, ...]:
        """Comb tooth centers n*d_tilde for |n| <= n_max, ascending."""
        teeth = np.arange(-self.n_max, self.n_max + 1, dtype=float) * self.d_tilde
        return tuple(teeth.tolist())

    @functools.cached_property
    def scalar_modulus(self) -> Callable[[float], float]:
        """|F(z)| of one float z, with the profile's constants bound once:
        the one scalar code path of `modulus`, `evaluate` and `normalization`,
        called directly at every node of a point quadrature."""
        exp = math.exp
        if not self.kind.is_comb:
            norm = _GAUSS_NORM
            return lambda z: norm * exp(-0.25 * z ** 2)
        c = self.norm_constant
        s2over4 = 0.25 * self.sigma_tilde**2
        reach = math.sqrt(60.0 / s2over4)
        d, n, teeth = self.d_tilde, self.n_max, self._teeth
        floor, ceil, isfinite = math.floor, math.ceil, math.isfinite

        def comb_modulus(z: float) -> float:
            acc = 0.0
            if isfinite(z):
                # Only teeth within `reach` of z can have e < 60.  Visit that
                # index window, rounded outwards, in ascending order: the same
                # terms are summed in the same order as over all teeth.  (Two
                # tests cost less than two max() calls.)
                lo = floor((z - reach) / d) + n
                hi = ceil((z + reach) / d) + n + 1
                if lo < 0:
                    lo = 0
                if hi < 0:
                    hi = 0
                for t in teeth[lo:hi]:
                    e = s2over4 * (z - t) ** 2
                    if e < 60.0:
                        acc += exp(-e)
            return c * exp(-0.25 * z * z) * acc

        return comb_modulus

    @functools.cached_property
    def norm_constant(self) -> float:
        if not self.kind.is_comb:
            return _GAUSS_NORM
        s2, d2 = self.sigma_tilde**2, self.d_tilde**2
        q = math.exp(-0.5 * (s2 / (1.0 + s2)) * d2)
        a = math.exp(-0.125 * s2 * d2)
        # Teeth n and m overlap with weight a^((n-m)^2) * q^((n+m)^2/4); n - m and
        # n + m share parity, so the double sum splits into even and odd theta sums.
        t = jacobi_theta3
        norm = t(a**4) * t(q) + (t(a) - t(a**4)) * (t(q**0.25) - t(q))
        return ((1.0 + s2) / (2.0 * math.pi)) ** 0.25 / math.sqrt(norm)


def default_n_max(d_tilde: float) -> int:
    """Tooth truncation index that `comb` chooses when n_max is omitted."""
    # Envelope weight of tooth n is ~exp(-n^2 d^2 / 2); keep everything down
    # to _TRUNCATION_WEIGHT with one tooth of margin.  Well-separated teeth
    # lie >= 4*MIN_TOOTH_SEPARATION kernel nodes apart, so below d_min they
    # cannot fit in MAX_INTERVALS; NaN fails the test too.
    reach = math.sqrt(2.0 * math.log(1.0 / _TRUNCATION_WEIGHT))
    d_min = 8.0 * MIN_TOOTH_SEPARATION * reach / MAX_INTERVALS
    if not d_tilde > d_min:
        raise ValidityError(f"d_tilde = {d_tilde:g} is below {d_min:.3g}, the smallest spacing "
                            f"whose teeth fit in {MAX_INTERVALS} overlap-kernel intervals")
    return int(math.ceil(reach / d_tilde)) + 1


def gaussian_linear(phi_tilde: float, z0: float = 0.0) -> Profile:
    """Gaussian envelope with linear spectral phase -phi_tilde*(z+z0)."""
    return Profile(ProfileKind.GAUSSIAN_LINEAR, phi_tilde=phi_tilde, z0=z0)


def gaussian_quadratic(phi_tilde: float, z0: float = 0.0) -> Profile:
    """Gaussian envelope with quadratic spectral phase -phi_tilde**2*(z+z0)**2."""
    return Profile(ProfileKind.GAUSSIAN_QUADRATIC, phi_tilde=phi_tilde, z0=z0)


def comb(sigma_tilde: float, d_tilde: float, phi_tilde: float = 0.0,
         phase_kind: str = "linear", delta_z0: float = 0.0,
         n_max: int | None = None, z0: float = 0.0) -> Profile:
    """Gaussian-enveloped frequency comb.

    Parameters
    ----------
    sigma_tilde : envelope width over tooth width (>= 5).
    d_tilde : tooth spacing in envelope-width units (d_tilde*sigma_tilde >= 10).
    phi_tilde : spectral phase strength.
    phase_kind : "linear" or "quadratic".
    delta_z0 : center offset of the quadratic phase parabola.
    n_max : tooth truncation index; chosen automatically so the dropped
        envelope weight is below 1e-14 when omitted.
    """
    if phase_kind == "linear":
        kind = ProfileKind.COMB_LINEAR
    elif phase_kind == "quadratic":
        kind = ProfileKind.COMB_QUADRATIC
    else:
        raise ValidityError(f"unknown phase_kind {phase_kind!r}")
    if n_max is None:
        n_max = default_n_max(d_tilde)
    return Profile(kind, phi_tilde=phi_tilde, z0=z0, sigma_tilde=sigma_tilde,
                   d_tilde=d_tilde, delta_z0=delta_z0, n_max=n_max)


def jacobi_theta3(q: float) -> float:
    """theta_3(0, q) = 1 + 2*sum_{n>=1} q**(n*n), truncated when a term < 1e-16.

    Valid for the nome range 0 <= q < 1.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"theta_3 nome must satisfy 0 <= q < 1, got {q!r}")
    total = 1.0
    n = 1
    while True:
        term = 2.0 * q ** (n * n)
        total += term
        if term < 1e-16:
            return total
        n += 1


def comb_tooth_positions(profile: Profile) -> np.ndarray:
    """Tooth centers n*d_tilde of a comb profile, for |n| <= n_max."""
    if not profile.kind.is_comb:
        raise ValidityError("tooth positions are defined for comb profiles only")
    return np.array(profile._teeth)


def modulus(profile: Profile, z):
    """|F(z)|; accepts scalars or arrays and matches the input shape."""
    # isinstance first: np.ndim costs more than a scalar Gaussian evaluation.
    if isinstance(z, float) or np.ndim(z) == 0:
        return profile.scalar_modulus(float(z))
    z = np.asarray(z, dtype=float)
    if not profile.kind.is_comb:
        return _GAUSS_NORM * np.exp(-0.25 * z * z)
    # Each element sums 2w + 1 teeth in ascending order from its own lowest
    # index m, leaving out e >= 60 as the scalar loop does.  A tooth more than
    # k = ceil(reach/d) indices from rint(z/d) lies further than
    # (k + 1/2)*d > reach from z, so with w = min(k, n) and m = rint(z/d) - w
    # moved inside [-n, n - 2w] the window holds every term that a sum over
    # all teeth adds, in the same order.
    s2over4 = 0.25 * profile.sigma_tilde**2
    d, n = profile.d_tilde, profile.n_max
    w = min(math.ceil(math.sqrt(60.0 / s2over4) / d), n)
    with np.errstate(over="ignore"):      # |z| near 1e300 squares to inf
        m = np.divide(z, d)
        np.rint(m, out=m)
        m -= w
        np.clip(m, -n, n - 2 * w, out=m)
        tooth_sum = np.zeros_like(z)
        term = np.empty_like(z)
        near = np.empty(z.shape, dtype=bool)
        for _ in range(2 * w + 1):
            np.multiply(m, d, out=term)
            np.subtract(z, term, out=term)
            term *= term
            term *= -s2over4
            np.greater(term, -60.0, out=near)
            np.add(tooth_sum, np.exp(term, out=term), out=tooth_sum, where=near)
            m += 1.0
        np.multiply(z, z, out=term)
    term *= -0.25
    tooth_sum *= np.exp(term, out=term)
    tooth_sum *= profile.norm_constant
    return tooth_sum


def phase(profile: Profile, z):
    """Spectral phase psi(z); accepts scalars or arrays."""
    scalar = np.ndim(z) == 0
    z = float(z) if scalar else np.asarray(z, dtype=float)
    if not profile.kind.has_quadratic_phase:
        return -profile.phi_tilde * (z + profile.phase_center)
    return -profile.phi_tilde**2 * (z + profile.phase_center) ** 2


def phase_slope(profile: Profile) -> tuple[float, float]:
    """(a, b) with psi'(z) = a + b*z."""
    if not profile.kind.has_quadratic_phase:
        return -profile.phi_tilde, 0.0
    b = -2.0 * profile.phi_tilde**2
    return b * profile.phase_center, b


def evaluate(profile: Profile, z):
    """Complex amplitude F(z) = |F(z)| * exp(i*psi(z))."""
    m = modulus(profile, z)
    p = phase(profile, z)
    if np.ndim(z) == 0:
        return m * complex(math.cos(p), math.sin(p))
    return m * np.exp(1j * p)


def phase_difference(profile: Profile, chi: float, z_bar: float, z: float) -> float:
    """psi(chi*z + z_bar) - psi(z/chi), formed without the cancellation of
    large common terms.

    The direct difference loses ~z0*phi*eps of absolute phase accuracy for
    carriers at z0 ~ 1e6, which is enough to spoil 1e-12 quadrature; here
    the linear case drops z0 exactly and the quadratic case factors the
    difference of squares.
    """
    diff = (chi - 1.0 / chi) * z + z_bar
    if not profile.kind.has_quadratic_phase:
        return -profile.phi_tilde * diff
    total = (chi + 1.0 / chi) * z + z_bar + 2.0 * profile.phase_center
    return -profile.phi_tilde**2 * diff * total


def normalization(profile: Profile) -> float:
    """Quadrature of |F|^2 over the truncation domain.

    Must come out as 1 within 1e-8 for any valid profile; the deviation
    measures tail truncation and quadrature error.  Raises
    NonConvergenceError when the quadrature error estimate exceeds 1e-10.
    """
    from scipy.integrate import quad

    lim = profile.z_extent
    pts = list(profile._teeth) if profile.kind.is_comb else None
    f = profile.scalar_modulus
    val, err = quad(lambda x: f(x) ** 2, -lim, lim,
                    epsabs=1e-12, epsrel=1e-12,
                    limit=max(200, 20 * (len(pts) if pts else 1)), points=pts)
    if err > 1e-10:
        raise NonConvergenceError(
            f"normalization quadrature error {err:.2e} exceeds 1e-10")
    return val
