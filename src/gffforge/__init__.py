"""gffforge: simulation and statistical verification of planar free-field
averages.

The package covers five layers: conformal geometry and test functions
(geometry), Green's kernels and lattice Dirichlet machinery (greens),
field samplers over lattices and observable covariances (fields), circle
and sine average processes (averaging), excursion hitting laws
(excursions), and the hypothesis-test battery (verify).  The cli module
wires named experiments over all of it.
"""

from .errors import (
    ConfigError,
    DomainError,
    NumericalError,
    ResolutionError,
    SingularityError,
)
from .geometry import (
    Ball,
    Composition,
    ConformalMap,
    HalfPlaneAnnulus,
    Inversion,
    JoukowskiInverse,
    JoukowskiLike,
    Mobius,
    MollifierProfile,
    Rotation,
    Scaling,
    SemiDisk,
    Support,
    TestFunction,
    UnitDisk,
    UpperHalfPlane,
    disk_bump,
    gauss_legendre,
    halfplane_annulus_map,
    integrate_test_function,
    mobius_to_disk,
    mollifier,
    pullback_test_function,
    radial_annulus_bump,
    shrink_radius,
)
from .greens import (
    CovarianceMatrix,
    DirichletCell,
    LatticeDomain,
    covariance_of_observables,
    discrete_green,
    disk_lattice,
    green_disk,
    green_halfplane,
    green_variance_ratio,
    h_minus1_inner,
    halfplane_lattice,
)
from .fields import (
    CALIBRATION,
    FieldSample,
    GridField,
    MarkovDecomposition,
    dgff_matrix,
    evaluate,
    load_field,
    markov_decompose,
    sample_dgff,
    sample_functionals,
    sample_gff_observables,
    sample_sas,
    sample_stable_field,
    save_field,
    stable_matrix,
)
from .averaging import (
    DEFAULT_T_GRID,
    DEFAULT_U_GRID,
    CircleMeasure,
    FattenedSineMeasure,
    ProcessPath,
    SineMeasure,
    circle_average,
    circle_average_path,
    fattened_sine_pair,
    rotational_average_check,
    sine_average_path,
    sine_lattice_for,
    sine_pair,
)
from .excursions import (
    ExcursionHitRecord,
    ExcursionSample,
    arc_mass,
    continue_paths,
    hit_functional,
    hitting_cdf,
    hitting_density,
    sample_excursion_hits,
    total_mass,
    weighted_ks_distance,
)
from .verify import (
    SIGNIFICANCE,
    CharBMVerdict,
    TestReport,
    anderson_darling_p,
    ar1_increment_path,
    characterize_bm,
    compound_poisson_path,
    distance_correlation,
    levy_path,
    sigma_hat,
    test_brownian_scaling,
    test_conformal_invariance,
    test_harness,
    test_independent_increments,
    test_moment_bootstrap,
    test_normality,
    test_wick_fourth,
)
from .rng import derived_seed, parallel_map, replica_rng, thread_count

__version__ = "0.1.0"
