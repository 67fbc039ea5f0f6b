"""Exception hierarchy for gausdisk.

Two top-level families matter operationally: configuration problems
(bad parameters, unusable input files) and mathematical invariant
violations (a computation produced something the construction forbids).
The CLI maps them to distinct exit codes, so library code should raise
the most specific subclass that applies.
"""

from __future__ import annotations


class GausdiskError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GausdiskError):
    """A parameter, option, or input file is invalid or unusable."""


class InsufficientDataError(ConfigError):
    """A fit or summary was requested over too few data rows."""


class MathInvariantError(GausdiskError):
    """A mathematical invariant of the construction was violated."""


class NonFiniteError(MathInvariantError):
    """A NaN or infinity appeared where a finite value is required."""


class ConvergenceError(MathInvariantError):
    """An iterative refinement failed to reach its tolerance."""


class SupportViolation(MathInvariantError):
    """A construction's support does not fit inside the requested interval."""


class ConvexityViolation(MathInvariantError):
    """A log-convexity inequality failed beyond numerical slack."""


class EnvelopeViolation(MathInvariantError):
    """A measured growth profile escaped its proven two-sided envelope."""


class ChainViolation(MathInvariantError):
    """A link of a certified inequality chain failed."""


class CertificateViolation(MathInvariantError):
    """A flatness certificate's cross-checks failed."""

