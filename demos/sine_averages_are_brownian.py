"""Sine averages of the half-plane field form a Brownian motion in u.

Pairing the field with the semicircle sine measure at scale u gives a
process Y(u) whose covariance is (pi^2/2) min(u, s).  The statistical
battery checks every Brownian fingerprint it knows: diffusive scaling,
independent increments, bridge-residual independence, the moment
bootstrap split, and normality of increments.
"""

import numpy as np

from gffforge.averaging import sine_average_path
from gffforge.verify import characterize_bm, sigma_hat

U_GRID = (0.5, 1.0, 1.025, 1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0)


def main():
    Y = sine_average_path(3000, U_GRID, seed=3)
    print("empirical covariance over u in {1, 2, 4} (analytic: 4.9348 * min(u, s)):")
    cols = [Y.column(u) for u in (1.0, 2.0, 4.0)]
    C = np.cov(np.array(cols))
    for i, u in enumerate((1, 2, 4)):
        row = "  ".join(f"{C[i, j]:7.3f}" for j in range(3))
        print(f"  u={u}:  {row}")
    print(f"  pi^2/2 = {np.pi ** 2 / 2.0:.4f}")

    verdict = characterize_bm(Y, seed=3)
    print(f"\ndiffusivity estimate sigma_hat = {sigma_hat(Y):.4f} "
          f"(analytic pi/sqrt(2) = {np.pi / np.sqrt(2.0):.4f})")
    print(f"verdict: {verdict.overall}")
    for name, rep in sorted(verdict.reports.items()):
        flag = "pass" if rep.passed else "FAIL"
        print(f"  [{flag}] {name}: {rep.notes or rep.name}")


if __name__ == "__main__":
    main()
