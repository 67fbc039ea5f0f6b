"""Exception hierarchy for gausdisk.

Two top-level families matter operationally: configuration problems
(bad parameters, unusable input files) and mathematical invariant
violations (a computation produced something the construction forbids).
The CLI maps them to distinct exit codes, so library code should raise
the most specific subclass that applies.

``check_value_above_scaled_floor`` turns a value that rounding has left
with no correct digit into a ConfigError, since more precision is the
cure; ``disks``, ``experiments`` and ``superflat`` share it.
"""

from __future__ import annotations

import math


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


def check_value_above_scaled_floor(value, log2_scale: float, subject: str, scale: str) -> None:
    """Raise ConfigError when the PReal ``value`` is zero or at or below
    2**(16 - b) * S at b bits, with log2(S) = ``log2_scale``: a value
    summed from terms whose sizes total at most S has no correct digit
    left there.  The message starts with ``subject`` and writes S as
    ``scale``.
    """
    if value.is_zero():
        raise ConfigError(f"{subject} rounds to zero at {value.bits} bits")
    # log2|value| = exp + log2(man) for a raw value (sign, man, exp, bc).
    _, man, exp, _ = value.raw
    if exp + math.log2(man) <= 16 - value.bits + log2_scale:
        raise ConfigError(
            f"{subject} is rounding noise at {value.bits} bits: "
            f"it lies below 2**(16 - bits) * {scale}"
        )
