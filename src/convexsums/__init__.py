"""Uniformly convex sequences, their exponential sums, and experiments on both."""

__version__ = "0.1.0"

from .rational import count_fractions, enumerate_fractions
from .interp import (
    ConvexInterpolant,
    InterpolationError,
    build_c1,
    knots_from_sequence,
    solve_x_cot_x,
    upgrade_c2,
)
from .convexseq import (
    ConstructionError,
    ConvexSequence,
    LatticeHit,
    construct_dirichlet_like,
    construct_small_alpha,
    intersect_count,
    shear,
    validate,
)
from .expsum import (
    ExpSumSpec,
    GridSpec,
    canonical_grid,
    dyadic_level_report,
    eval_grid,
    eval_point,
    level_set_projection,
    sup_norm_Lp,
)
from .experiments import (
    experiment_A,
    experiment_B,
    experiment_C,
    intersection_scan,
    regress,
)

__all__ = [
    "count_fractions",
    "enumerate_fractions",
    "ConvexInterpolant",
    "InterpolationError",
    "build_c1",
    "knots_from_sequence",
    "solve_x_cot_x",
    "upgrade_c2",
    "ConstructionError",
    "ConvexSequence",
    "LatticeHit",
    "construct_dirichlet_like",
    "construct_small_alpha",
    "intersect_count",
    "shear",
    "validate",
    "ExpSumSpec",
    "GridSpec",
    "canonical_grid",
    "dyadic_level_report",
    "eval_grid",
    "eval_point",
    "level_set_projection",
    "sup_norm_Lp",
    "experiment_A",
    "experiment_B",
    "experiment_C",
    "intersection_scan",
    "regress",
]
