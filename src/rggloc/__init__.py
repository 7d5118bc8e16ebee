"""rggloc: a simulation and verification lab for random geometric graphs on
the torus — edge-count upper tails, clique localization, and rare-event
estimators."""

from .geometry import (
    Ball,
    BallBoxIntersection,
    Box,
    Norm,
    ball_volume_tau,
    probe_contains,
    probe_measure,
    torus_distance,
)
from .points import (
    ModelParams,
    PointSet,
    count_in_probe,
    edge_count,
    edge_count_bruteforce,
    expected_edges,
    params_for_p_hat,
    sample_ppp,
)
from .grid import (
    CellConfig,
    GridModel,
    build_grid,
    cell_metric,
    cell_metric_numeric_oracle,
    coarsen,
    enumerate_max_clique_sets,
    index_union,
    inner_hull,
    inscribed_ball_diameter,
    max_clique_info,
    neighborhood,
    outer_hull,
    sample_cell_config,
    sgraded_edge_count,
    tiny_grid,
)
from .stats import (
    DerivedScales,
    Q_cross,
    Q_internal,
    V_count,
    derived_scales,
    event_A,
    event_B,
    event_D,
    event_L,
    exact_poisson_tail,
    h_frac,
    jensen_lower_bound,
    poisson_tail_bound,
    rate_Y,
)
from .extract import (
    InsufficientMassError,
    LocalizationReport,
    certify_thm1,
    certify_thm2,
    extract_bulk_exceedance,
    extract_P,
    extract_T,
    localization_profile,
)
from .sampling import (
    TailEstimate,
    WeightedSample,
    exact_tail_tiny,
    importance_estimate_tail,
    planted_cell_sampler,
    planted_continuum_sampler,
    rejection_conditional,
    rejection_estimate_tail,
)
from .ldp import SandwichBound, normalized_log_tail, rate_function, sandwich_bounds

__version__ = "0.1.0"
