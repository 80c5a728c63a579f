"""Rotating the sine measure through a full turn yields the circle average.

Averaging the semicircle sine pairing over equispaced frame rotations
flattens the sine density into the uniform density on the circle, so
the frame-averaged pairing must equal sqrt(u) times the circle average
at radius 1/sqrt(u).  The identity is exact for harmonic boundary data
and holds within a small Monte Carlo gate for sampled fields.
"""

import numpy as np

from gffforge.averaging import rotational_average_check
from gffforge.fields import FieldSample, sample_dgff
from gffforge.greens import disk_lattice


def main():
    lat = disk_lattice(96)

    # deterministic check: a discrete-harmonic-ish smooth field
    vals = (1.0 + (lat.z**3).real - 0.4 * (lat.z**2).imag).astype(float)
    f = FieldSample(lat, vals)
    lhs, rhs = rotational_average_check(f, 4.0, n_angles=64)
    print("smooth harmonic data, u = 4:")
    print(f"  frame-averaged sine pairing {lhs:.6f} vs sqrt(u) circle average {rhs:.6f}")

    samples = sample_dgff(lat, 100, seed=31)
    gaps, rhss = [], []
    for s in samples:
        lhs, rhs = rotational_average_check(s, 4.0, n_angles=64)
        gaps.append(lhs - rhs)
        rhss.append(rhs)
    gaps, rhss = np.array(gaps), np.array(rhss)
    print("\n100 field samples, u = 4, 64 frames:")
    print(f"  mean |lhs - rhs| = {np.mean(np.abs(gaps)):.5f}")
    print(f"  5% of sd(rhs)    = {0.05 * rhss.std():.5f}   (the acceptance gate)")


if __name__ == "__main__":
    main()
