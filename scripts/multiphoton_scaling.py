#!/usr/bin/env python3
"""Overlap decay with photon number for Fock, coherent and squeezed pulses.

Takes the optimized single-photon overlap at a chosen redshift and tracks
the N-photon overlaps: exponential decay for coherent states, polynomial
for Fock and squeezed ones, with the mixed-state overlap N-independent.

Usage: python scripts/multiphoton_scaling.py [--chi 1.01] [--phi 1.0]
"""

import argparse
import sys

import numpy as np

from gravpulse.multiphoton import coherent_overlap, fock_overlap, squeezed_overlap
from gravpulse.optimize import maximize_shift
from gravpulse.overlap import lambda_pure
from gravpulse.profiles import gaussian_linear


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--chi", type=float, default=1.01)
    ap.add_argument("--phi", type=float, default=1.0)
    args = ap.parse_args()

    prof = gaussian_linear(args.phi)
    res = maximize_shift(prof, args.chi)
    lam = lambda_pure(prof, args.chi, res.z_bar_opt)
    dm = res.delta_m_opt
    print(f"# chi={args.chi} phi={args.phi}: single-photon Lambda = {lam:.12g}, "
          f"delta_m = {dm:.12g} (N-independent for coherent/squeezed)")
    print("n,fock,coherent,squeezed")
    for n in np.unique(np.logspace(0, 5, 16).astype(int)):
        fo = fock_overlap(abs(lam), int(n))
        co = coherent_overlap(lam, float(n))
        sq = squeezed_overlap(lam, float(n))
        print(f"{n},{fo:.10e},{co:.10e},{sq:.10e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
