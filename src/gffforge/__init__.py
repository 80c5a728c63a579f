"""gffforge: simulation and statistical verification of planar free-field
averages.

The package covers five layers: conformal geometry and test functions
(geometry), Green's kernels and lattice Dirichlet machinery (greens),
field samplers over lattices and observable covariances (fields), circle
and sine average processes (averaging), excursion hitting laws
(excursions), and the hypothesis-test battery (verify).  The cli module
wires named experiments over all of it.  Import each name from the module
that defines it; the package namespace holds only the version and the
shared error types.  Importing the package sets numpy's and scipy's
OpenBLAS to one thread each (see rng).
"""

from . import rng  # noqa: F401  (its import is the OpenBLAS pin)
from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    ResolutionError,
    SingularityError,
)

__version__ = "0.1.0"
