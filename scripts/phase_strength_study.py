#!/usr/bin/env python3
"""Distortion versus spectral-phase strength for Gaussian wavepackets.

Sweeps phi_tilde at an exaggerated redshift, comparing the numeric
optimizer against the closed forms, and prints the weak-field relative
change eta for a realistic ground-to-LEO geometry alongside.

Usage: python scripts/phase_strength_study.py [--chi 1.02] [--out FILE.csv]
"""

import argparse
import sys

import numpy as np

from gravpulse.analytic import (gaussian_linear_optimal, gaussian_quadratic_optimal,
                                relative_change)
from gravpulse.optimize import maximize_shift
from gravpulse.profiles import gaussian_linear, gaussian_quadratic
from gravpulse.spacetime import SpacetimeConfig, delta_expansion


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chi", type=float, default=1.02)
    ap.add_argument("--z0", type=float, default=20.0,
                    help="quadratic-phase carrier offset")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    leo = SpacetimeConfig(r_a=6.371e6, r_b=6.771e6)
    d1, _ = delta_expansion(leo)

    out = open(args.out, "w") if args.out else sys.stdout
    print("phi,eta_linear_numeric,eta_linear_closed,eta_quadratic_numeric,"
          "eta_quadratic_closed,eta_linear_leo,eta_quadratic_leo", file=out)
    for phi in np.linspace(0.0, 3.0, 13):
        lin = gaussian_linear(phi)
        quad = gaussian_quadratic(phi, z0=args.z0)
        num_lin = maximize_shift(lin, args.chi).eta
        num_quad = maximize_shift(quad, args.chi).eta
        dp, dm, _ = gaussian_linear_optimal(args.chi, phi)
        closed_lin = dp / dm - 1.0
        dp, dm, _ = gaussian_quadratic_optimal(args.chi, phi, args.z0)
        closed_quad = dp / dm - 1.0
        leo_lin = relative_change(lin, d1)
        leo_quad = relative_change(quad, d1)
        print(f"{phi:.6g},{num_lin:.10e},{closed_lin:.10e},"
              f"{num_quad:.10e},{closed_quad:.10e},{leo_lin:.10e},{leo_quad:.10e}",
              file=out)
    if args.out:
        out.close()
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
