"""Toroidal circle planes and flat Minkowski planes, numerically.

A toolkit for building circle planes on the torus (the classical model
and the half-classical family twisted by circle homeomorphisms), acting
on them with the classified automorphism families, and verifying the
incidence axioms and action claims by seeded randomized property testing.
"""

from .errors import (
    CoincidentPoints,
    ConfigError,
    EqualCircles,
    FamilyMismatch,
    IdentityMap,
    MonotonicityError,
    NoBranch,
    NotFound,
    ParallelInput,
    PlaneGeometryError,
    PointOnBaseCross,
    PreconditionViolated,
    SamplingExhausted,
    UnsupportedPlane,
)
from .groups import (
    Case3Element,
    DiagonalPSL,
    FactorActionReport,
    KernelMinusPSL,
    KernelPlusPSL,
    PhiStd,
    PhiTwoFixed,
    diagonal_transitivity_witness,
    fixed_coordinates,
    group_literal,
    induced_factor_action,
    parse_group_literal,
)
from .homeo import (
    CircleHomeo,
    MonotoneSpline,
    PowerMap,
    homeo_sup_distance,
    load_spline_knots,
)
from .planes import (
    Circle,
    DerivedLine,
    ParallelClass,
    PlaneModel,
    classical_plane,
    half_classical_plane,
    homeo_from_spec,
    parallel,
    parse_plane_spec,
    plane_from_config,
)
from .projline import (
    MobiusMap,
    ProjPoint,
    TorusPoint,
    TwoPointFamily,
    chordal,
    mobius_fixed_points,
    mobius_from_three,
    proj_matrix_equal,
    torus_dist,
)
from .svgplot import render_svg
from .verify import (
    SUITES,
    TrialConfig,
    VerifyReport,
    recheck_counterexample,
    verify_automorphism,
    verify_derived_plane,
    verify_fixed_configuration,
    verify_joining,
    verify_rigidity,
    verify_touching,
)

__version__ = "0.1.0"
