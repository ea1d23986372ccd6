"""Exact-arithmetic laboratory for infinite-measure rank-one transformations.

Builds cutting-and-stacking systems from reproducible parameter rules,
computes intersection measures mu(T^n A /\\ B) as exact rational intervals,
and verifies weak-limit, joining, product and spectral claims at desk scale.
"""

from .construction import (
    ConstructionParams,
    CutRule,
    InvalidConstructionError,
    PartialSumReport,
    SpacerRule,
    StageGeometry,
    StarConditionReport,
    block_sequence,
    condition_star_check,
    family,
    height,
    infinite_measure_partial_sum,
    level_width,
    params_from_config,
    params_to_config,
    scaled,
    stage_geometry,
    thm2,
    toy,
    utv1,
)
from .joinings import (
    JoiningCombination,
    WitnessReport,
    combination_value,
    delta_shift,
    domination_witness,
    partial_joining,
    partial_joining_grid,
)
from .oracle import IntervalSystem, OracleResult, OrbitWalker, oracle_intersection
from .products import (
    ProductSystem,
    RectangleReturnReport,
    dissipativity_grid,
    dissipativity_scan,
    product_return,
    ratio_condition,
)
from .spectral import (
    CorrelationSequence,
    SpectralDensityEstimate,
    correlation_sequence,
    correlations,
    fejer_density,
    product_correlation,
    suspension_correlation,
    toeplitz_min_eigenvalue,
)
from .tower import (
    LevelSet,
    MeasureBound,
    apply_power_bounds,
    difference,
    format_level_set,
    intersect,
    measure,
    parse_level_set,
    power_grid,
    power_profile,
    refine,
    union,
)
from .weak_limits import (
    CandidateSequence,
    LimitReport,
    MixtureLawReport,
    OperatorPolynomial,
    WindowScanReport,
    block_value_stages,
    parse_polynomial,
    parse_sequence,
    predict,
    scan_window,
    verify_limit,
    verify_mixture_law,
)

__version__ = "0.1.0"
