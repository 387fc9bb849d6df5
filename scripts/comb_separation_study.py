#!/usr/bin/env python3
"""How tooth separation controls the comb's phase-distortion penalty.

For a linear spectral phase, the pure/mixed overlap ratio of a comb has
two pieces: a within-tooth term exp(-2 d1^2 phi^2 / sigma^2) and an
across-tooth dephasing term exp(-B^2 <n^2>/2) that dies off exponentially
with spacing.  This study sweeps the spacing at fixed envelope/tooth width
ratio and compares the weak-field formula with full quadrature at an
exaggerated delta1, locating the crossover where the comb's 1/sigma^2
suppression of the Gaussian penalty actually sets in.

Usage: python scripts/comb_separation_study.py [--delta1 1e-3]
"""

import argparse
import sys

import numpy as np

from gravpulse.analytic import relative_change
from gravpulse.overlap import evaluate_overlap
from gravpulse.profiles import comb


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--delta1", type=float, default=1e-3)
    ap.add_argument("--sigma-tilde", type=float, default=10.0)
    ap.add_argument("--phi-tilde", type=float, default=2.0)
    args = ap.parse_args()

    d1, sig, phi = args.delta1, args.sigma_tilde, args.phi_tilde
    chi = 1.0 + d1
    eta_gauss = -2.0 * phi**2 * d1**2
    eta_floor = eta_gauss / sig**2

    print(f"# sigma_tilde={sig} phi_tilde={phi} delta1={d1}")
    print(f"# gaussian eta = {eta_gauss:.4e}, ideal comb floor = {eta_floor:.4e}")
    print("d_tilde,eta_formula,eta_quadrature,suppression_vs_gaussian")
    for d in np.arange(max(10.0 / sig, 1.0), 6.5, 0.5):
        prof = comb(sig, float(d), phi_tilde=phi)
        res = evaluate_overlap(prof, chi, 0.0, tol=1e-11)
        eta_q = res.delta_p / res.delta_m - 1.0
        eta_f = relative_change(prof, d1)
        print(f"{d:.2f},{eta_f:.6e},{eta_q:.6e},{eta_q / eta_gauss:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
