"""Half-plane excursion sampler: mass and hitting law of a semicircle.

Paths started from a hair above the origin either hit the semicircle of
radius r or get absorbed on the real line.  Rescaling the hit frequency
by 1/eps estimates the excursion mass 4/(pi r); the angles of the hit
points follow the density (1/2) sin(theta).  Continuing the survivors
outward reproduces the hitting statistics of a larger semicircle, which
is the Markov property that makes the measure consistent across radii.
"""

import numpy as np

from gffforge.excursions import (
    arc_mass,
    continue_paths,
    hitting_cdf,
    ks_distance,
    sample_excursion_hits,
    total_mass,
)


def main():
    r, eps, n = 1.0, 5e-3, 40_000
    sample = sample_excursion_hits(r, eps, n, seed=7)
    print(f"paths started at height {eps:g}, target semicircle radius {r:g}")
    print(f"  hits: {len(sample.angles)} weighted fragments of {n} split paths")
    print(f"  mass estimate  {sample.mass_estimate:.4f} +- {sample.mass_stderr():.4f}")
    print(f"  analytic mass  {total_mass(r):.4f}  (4 / pi r)")

    ks = ks_distance(sample.angles)
    print(f"  KS distance of hit angles to the sine law: {ks:.4f}")

    print("\nangle-bin occupancy vs the arc mass of the sine density:")
    edges = np.linspace(0.0, np.pi, 7)
    for a, b in zip(edges[:-1], edges[1:]):
        frac = np.count_nonzero((sample.angles >= a) & (sample.angles < b)) / len(sample.angles)
        want = arc_mass(r, a, b) / total_mass(r)
        print(f"  [{a:4.2f}, {b:4.2f})  sampled {frac:.4f}   analytic {want:.4f}")

    # push the radius-1 hits on to radius 2: the composite run must look
    # like a fresh radius-2 experiment
    z0 = r * np.exp(1j * sample.angles)
    mask, angles2 = continue_paths(z0, 2.0, seed=11)
    mass2 = sample.weight * np.count_nonzero(mask) / (sample.n_paths * sample.eps)
    print("\ncontinuation of the hits to radius 2:")
    print(f"  composite mass {mass2:.4f}   analytic {total_mass(2.0):.4f}")
    ks2 = ks_distance(angles2[mask])
    print(f"  continued-angle KS to the sine law: {ks2:.4f} "
          f"(median angle {np.median(angles2[mask]):.4f}, "
          f"CDF there {hitting_cdf(float(np.median(angles2[mask]))):.3f})")


if __name__ == "__main__":
    main()
