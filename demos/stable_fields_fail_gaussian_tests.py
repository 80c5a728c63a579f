"""Why there is no heavy-tailed analogue of the Gaussian field's averages.

A symmetric alpha-stable field with alpha < 2 keeps linearity and even
scale covariance, so some Gaussian-looking checks pass.  What breaks is
everything tied to second and fourth moments: circle-average increments
fail normality, the fourth-moment ratio explodes, and a stable Levy
path violates the square-root diffusive scaling.
"""

import numpy as np

from gffforge.averaging import circle_average_path
from gffforge.fields import stable_matrix
from gffforge.geometry import disk_bump
from gffforge.greens import disk_lattice
from gffforge.verify import (
    levy_path,
    test_brownian_scaling,
    test_normality,
    test_wick_fourth,
)


def main():
    alpha = 1.5
    lat = disk_lattice(48)

    Y = circle_average_path(
        800, (0.25, 0.5, 0.75, 1.0), seed=21, lattice=lat, law="stable", alpha=alpha,
    )
    inc = (np.diff(Y.replicas, axis=1) / np.sqrt(np.diff(Y.grid))).T.ravel()
    rep = test_normality(inc)
    print(f"normality of stable circle-average increments (alpha={alpha}):")
    print(f"  A^2 = {rep.statistic:.1f}, p = {rep.p_value:.2e} -> passed={rep.passed}")

    phi = disk_bump(0.0, 0.5)
    w = np.asarray(phi(lat.z)) * lat.spacing**2
    pair = w @ stable_matrix(lat, alpha, 4000, seed=22)
    wick = test_wick_fourth(pair)
    print(f"\nfourth-moment ratio of (h, phi) pairings: {wick.statistic + 1.0:.2f} "
          f"(Gaussian value 1) -> passed={wick.passed}")

    L = levy_path((0.5, 1.0, 2.0, 4.0), 10_000, seed=23, alpha=alpha)
    sc = test_brownian_scaling(L, 4.0)
    print(f"\ndiffusive scaling of a stable Levy path: KS={sc.statistic:.4f}, "
          f"p={sc.p_value:.2e} -> passed={sc.passed}")
    print(f"  (increments scale like du^(1/alpha); the mismatch at c=4 is "
          f"4^(1/alpha - 1/2) = {4 ** (1 / alpha - 0.5):.3f} in scale)")


if __name__ == "__main__":
    main()
