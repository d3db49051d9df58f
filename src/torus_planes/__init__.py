"""Toroidal circle planes and flat Minkowski planes, numerically.

A toolkit for building circle planes on the torus (the classical model
and the half-classical family twisted by circle homeomorphisms), acting
on them with the classified automorphism families, and verifying the
incidence axioms and action claims by seeded randomized property testing.

The public names below resolve on first use (PEP 562), so importing the
package, or one of its modules, compiles only the modules that are used.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "CoincidentPoints",
        "ConfigError",
        "EqualCircles",
        "FamilyMismatch",
        "IdentityMap",
        "MonotonicityError",
        "NoBranch",
        "NotFound",
        "ParallelInput",
        "PlaneGeometryError",
        "PointOnBaseCross",
        "PreconditionViolated",
        "SamplingExhausted",
        "UnsupportedPlane",
    ),
    "groups": (
        "Case3Element",
        "DiagonalPSL",
        "FactorActionReport",
        "KernelMinusPSL",
        "KernelPlusPSL",
        "PhiStd",
        "PhiTwoFixed",
        "diagonal_transitivity_witness",
        "fixed_coordinates",
        "group_literal",
        "induced_factor_action",
        "parse_group_literal",
    ),
    "homeo": (
        "CircleHomeo",
        "MonotoneSpline",
        "PowerMap",
        "homeo_sup_distance",
        "load_spline_knots",
    ),
    "planes": (
        "Circle",
        "DerivedLine",
        "ParallelClass",
        "PlaneModel",
        "classical_plane",
        "half_classical_plane",
        "homeo_from_spec",
        "parallel",
        "parse_plane_spec",
        "plane_from_config",
    ),
    "projline": (
        "MobiusMap",
        "ProjPoint",
        "TorusPoint",
        "TwoPointFamily",
        "chordal",
        "mobius_fixed_points",
        "mobius_from_three",
        "proj_matrix_equal",
        "torus_dist",
    ),
    "svgplot": ("render_svg",),
    "verify": (
        "SUITES",
        "TrialConfig",
        "VerifyReport",
        "recheck_counterexample",
        "verify_automorphism",
        "verify_derived_plane",
        "verify_fixed_configuration",
        "verify_joining",
        "verify_rigidity",
        "verify_touching",
    ),
}
#: public name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
