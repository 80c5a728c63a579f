"""Circle averages around a point walk like a Brownian motion in log scale.

Averaging the disk field over the circle of radius e^-t around the
origin gives a process with Var = t and independent Gaussian
increments.  With no lattice the path is drawn from the analytic
covariance; on a disk lattice it averages actual discrete-field samples
over the circle and must land on the same law after the lattice
calibration.
"""

import numpy as np

from gffforge.averaging import circle_average_path
from gffforge.greens import disk_lattice
from gffforge.verify import test_independent_increments, test_normality

T_GRID = (0.25, 0.5, 0.75, 1.0, 1.25)


def main():
    exact = circle_average_path(8000, T_GRID, seed=5)
    inc = np.diff(exact.replicas, axis=1) / np.sqrt(np.diff(exact.grid))
    print("exact backend, 8000 replicas:")
    print(f"  Var(increment)/dt = {inc.var(ddof=1):.4f}   (analytic 1)")
    print(f"  normality of increments: {test_normality(inc.T.ravel()[:8000]).notes or 'pass'}"
          f" -> {test_normality(inc.T.ravel()[:8000]).passed}")
    print(f"  independence: {test_independent_increments(exact, seed=5).notes}")

    lat = disk_lattice(96)
    lattice = circle_average_path(2000, T_GRID, seed=6, lattice=lat)
    print("\nlattice backend, 96^2 disk, 2000 replicas:")
    for t in T_GRID:
        v = lattice.column(t).var(ddof=1)
        print(f"  Var(Y({t:4.2f})) = {v:.4f}   (analytic {t:4.2f})")


if __name__ == "__main__":
    main()
