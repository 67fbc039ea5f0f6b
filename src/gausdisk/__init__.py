"""Compactly supported approximations of the standard Gaussian, with
certified error functionals on complex disks.

The package builds two families of approximating measures (matched-moment
quadrature rules and renormalized truncations), measures how far their
Laplace and characteristic transforms drift from the Gaussian's on disks
and vertical lines in the complex plane, checks the log-convexity
structure of those errors, and assembles a deliberately flat mixture
density whose flatness it certifies.  All numerics run at explicit,
per-value precision.

``import gausdisk`` loads neither mpmath nor any module of the package: an
exported name is imported from its home module, with the layers under it,
the first time it is used.
"""

import importlib

__version__ = "0.1.0"

# Each module and the names the package exports from it: the package's only
# list of public names, since the modules declare no __all__ of their own.
_EXPORTS = {
    "precision": (
        "MIN_BITS", "MAX_BITS", "PReal", "PComplex", "exp", "log", "sqrt", "pi_value",
        "cos_sin", "double_factorial", "working_bits",
    ),
    "errors": (
        "GausdiskError", "ConfigError", "InsufficientDataError", "MathInvariantError",
        "NonFiniteError", "ConvergenceError", "SupportViolation", "ConvexityViolation",
        "EnvelopeViolation", "ChainViolation", "CertificateViolation",
    ),
    "hermite": (
        "QuadratureRule", "hermite_pair", "build_rule", "moment", "k_for_support",
        "rule_to_csv",
    ),
    "measures": (
        "Measure", "DiscreteMeasure", "TruncatedGaussian", "StandardGaussian",
        "CharBoundReport", "normal_cdf", "truncation_error_closed_form",
        "char_bound_check",
    ),
    "disks": (
        "CircleSupReport", "LineSupReport", "GrowthProfile", "ConvexityReport",
        "sup_abs_on_circle", "sup_on_circle", "sup_on_line", "growth_profile",
        "three_circles_check", "three_lines_check",
    ),
    "superflat": (
        "SuperflatMixture", "FlatnessCertificate", "build_superflat",
        "density_derivative", "density_derivatives", "flatness_certificate",
        "superflat_to_csv",
    ),
    "experiments": (
        "RateRow", "RateTable", "RateFit", "TailBoundModel", "TailChainReport",
        "default_grid", "run_figure", "fit_truncation_rate", "fit_quadrature_rate",
        "fit_c1", "tail_bound_value", "validate_tail_bound", "figure_csv_text",
        "figure_svg_text", "manifest_text", "emit_figure",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
