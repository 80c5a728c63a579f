"""Domain Markov decomposition of a discrete field.

Inside any subdomain the field splits into a part that is discretely
harmonic there (determined by the field outside) plus an independent
zero-boundary field of the subdomain.  The demo decomposes samples over
the half-radius disk and checks the three structural facts: the parts
sum back exactly, the harmonic part satisfies the four-neighbor mean
identity, and the residual's variance at the center matches the
subdomain's own Green function value.
"""

import numpy as np

from gffforge.fields import CALIBRATION, markov_decompose, sample_dgff
from gffforge.greens import LatticeDomain, discrete_green, disk_lattice


def main():
    lat = disk_lattice(48)
    fields = sample_dgff(lat, 1500, seed=9)
    cell_mask = np.abs(lat.z) < 0.5

    d = markov_decompose(fields[0], cell_mask)
    resid = np.max(np.abs(d.harmonic.values + d.residual.values - fields[0].values))
    print(f"lattice: {lat.n_sites} sites, cell: {int(cell_mask.sum())} sites")
    print(f"harmonic + residual reassembles the field to {resid:.2e}")

    arr, i0, j0 = d.harmonic.grid()
    inner = np.zeros_like(arr, dtype=bool)
    idx = lat.interior_ij[d.cell.member_idx]
    inner[idx[:, 0] - i0, idx[:, 1] - j0] = True
    lap = (
        np.roll(arr, 1, 0) + np.roll(arr, -1, 0) + np.roll(arr, 1, 1) + np.roll(arr, -1, 1)
    ) / 4.0
    print(f"four-neighbor mean identity inside the cell: "
          f"{np.max(np.abs((lap - arr)[inner])):.2e}")

    center_j = int(np.argmin(np.abs(lat.z[cell_mask])))
    R = np.empty(len(fields))
    for i, f in enumerate(fields):
        R[i] = markov_decompose(f, cell_mask).residual.values[cell_mask][center_j]
    sub = LatticeDomain(lat.spacing, idx)
    c = int(np.argmin(np.abs(sub.z)))
    target = CALIBRATION**2 * discrete_green(sub, sub.z[c], sub.z[c])
    print(f"residual variance at the center: {R.var(ddof=1):.4f} "
          f"(subdomain Green value {target:.4f})")


if __name__ == "__main__":
    main()
