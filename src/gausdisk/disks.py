"""Sup-norm scans of transform errors over circles and vertical lines,
with the log-convexity certificates that tie them together.

The central quantity is M(r) = sup_{|z|=r} |B(z)| where B is a measure's
transform error L(z) - exp(z**2/2).  For both paper families, the
Gauss-Hermite rules from ``build_rule`` and the truncated Gaussians, -B
has nonnegative Taylor coefficients: a Gauss rule's remainder for
x**(2m) is nonnegative, and conditioning on |X| <= a lowers every even
moment.  Then |B(z)| <= -B(|z|), so M(r) = |B(r)| exactly, and
``sup_on_circle`` returns that single real-axis value (method
"real-axis").

Every other measure is scanned (method "scan").  Because every measure
here lives on the real line, B(conj z) = conj B(z), so |B| on a circle
is determined by the upper half; symmetric measures add B(-z) = B(z) and
a quarter arc suffices.  Scans sample an arc uniformly (endpoints
included) and then sharpen the best sample by golden-section search down
to an angular resolution of 2**-64, keeping the largest value ever
evaluated.  Either way the reported sup is a value of |B| at a point of
the circle, so it is always a lower bound for the true one; scans agree
with it to scan resolution in practice.

Three checks are layered on top, each taking a Measure and running at
its precision:

* a two-sided growth envelope, (1/2)exp(r**2/2) <= M(r) <= exp(a*r) +
  exp(r**2/2) once r >= 3a for support half-width a;
* the three-circles inequality: log M(r) is a convex function of log r,
  tested at a chosen triple with a fixed slack of 1e-6;
* the three-lines inequality for sups over vertical segments, convex in
  the line's real offset, with the same slack.  Vertical scans are cut
  off at the height where the two transform pieces are both provably
  negligible, and the report carries that off-segment ceiling.

Each check returns only when it holds and raises its MathInvariantError
subclass otherwise; both convexity checks return a ConvexityReport.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

from .errors import ConfigError, ConvexityViolation, EnvelopeViolation
from .measures import Measure
from .precision import PComplex, PReal, _check_bits, _real, cos_sin, exp, log, pi_value, sqrt

__all__ = [
    "CircleSupReport",
    "LineSupReport",
    "GrowthProfile",
    "ConvexityReport",
    "circle_point",
    "sup_abs_on_circle",
    "sup_on_circle",
    "sup_on_line",
    "growth_profile",
    "three_circles_check",
    "three_lines_check",
]

_RESOLUTION_EXP = -64
# Line scans stop at the height where |exp(z**2/2)| has fallen to
# 2**-(_LINE_CEILING_BITS/2) * exp(-a*offset); see sup_on_line.
_LINE_CEILING_BITS = 256
# Relative slack of the three-circles and three-lines inequalities.
_CONVEXITY_SLACK = 1e-6


@dataclass(frozen=True)
class CircleSupReport:
    radius: PReal
    sup_value: PReal
    witness: PComplex
    arc: str
    n_samples: int
    refine_iterations: int
    method: str


@dataclass(frozen=True)
class LineSupReport:
    offset: PReal
    height: PReal
    sup_value: PReal
    witness: PComplex
    n_samples: int
    refine_iterations: int
    tail_ceiling: PReal
    certified: bool


@dataclass(frozen=True)
class GrowthProfile:
    reports: tuple[CircleSupReport, ...]
    envelope_checked: tuple[bool, ...]


@dataclass(frozen=True)
class ConvexityReport:
    """A three-circles or three-lines log-convexity test that held: its
    weight lam, the margin rhs - lhs of the inequality in logs, status
    "ok" or "degenerate", and whether it took the 4x rescan."""

    lam: PReal
    margin: PReal
    status: str
    retried: bool


def _circle_radius(radius, bits: int) -> PReal:
    r = _real(radius, bits).round_to(bits)
    if not r > 0:
        raise ConfigError("circle radius must be positive")
    return r


def _maximize_1d(
    evaluate: Callable[[PReal], PReal],
    lo: PReal,
    hi: PReal,
    seeds: int,
) -> tuple[PReal, PReal, int]:
    """Sample [lo, hi] uniformly, then golden-section sharpen around the
    best sample.  Returns (argmax, max, refine_iters).

    Golden-section assumes local unimodality; the returned maximum is
    the largest value seen anywhere, so a multimodal profile degrades
    only the sharpening, never the lower-bound property.
    """
    if seeds < 3:
        raise ConfigError("need at least 3 scan samples")
    bits = lo.bits
    span = hi - lo
    best_x = lo
    best_v = evaluate(lo)
    step = span / (seeds - 1)
    xs = [lo + step * j for j in range(1, seeds - 1)] + [hi]
    best_idx = 0
    for j, x in enumerate(xs, start=1):
        v = evaluate(x)
        if v > best_v:
            best_v, best_x, best_idx = v, x, j

    all_points = [lo] + xs
    left = all_points[max(0, best_idx - 1)]
    right = all_points[min(len(all_points) - 1, best_idx + 1)]

    inv_phi = (sqrt(PReal(5, bits)) - 1) / 2
    tol = PReal(2, bits) ** _RESOLUTION_EXP
    a, b = left, right
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = evaluate(x1)
    f2 = evaluate(x2)
    iters = 0
    for v, x in ((f1, x1), (f2, x2)):
        if v > best_v:
            best_v, best_x = v, x
    while (b - a) > tol and iters < 4000:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = evaluate(x2)
            if f2 > best_v:
                best_v, best_x = f2, x2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = evaluate(x1)
            if f1 > best_v:
                best_v, best_x = f1, x1
        iters += 1
    return best_x, best_v, iters


_ARC_FRACTIONS = {"full": 1, "half": 2, "quarter": 4}


@lru_cache(maxsize=2048)
def circle_point(radius: PReal, theta: PReal, bits: int) -> PComplex:
    """radius * e^(i*theta) at ``bits``, the point a circle scan visits at
    angle theta.

    Both inputs are rounded to ``bits`` first, so the point depends only
    on the key's values.  Scans of one circle at one sample count visit
    the same seed angles, so the points are kept: the flatness
    certificate's four order scans visit about 340 points each at 256
    seeds, and 2048 points hold every seed of a 1024-seed scan together
    with its refinement.
    """
    r = radius.round_to(bits)
    c, s = cos_sin(theta.round_to(bits))
    return PComplex(r * c, r * s, bits=bits)


def sup_abs_on_circle(
    f: Callable,
    radius,
    bits: int,
    n_samples: int = 1024,
    arc: str = "full",
) -> CircleSupReport:
    """Maximize |f| over {radius * e^(i*theta)} for theta in the chosen
    arc of the circle ("full", "half", or "quarter", from theta = 0)."""
    _check_bits(bits)
    if arc not in _ARC_FRACTIONS:
        raise ConfigError(f"arc must be one of {sorted(_ARC_FRACTIONS)}, got {arc!r}")
    r = _circle_radius(radius, bits)
    two_pi = 2 * pi_value(bits)
    span = two_pi / _ARC_FRACTIONS[arc]

    def evaluate(theta: PReal) -> PReal:
        return abs(f(circle_point(r, theta, bits)))

    theta_best, sup_value, iters = _maximize_1d(
        evaluate, PReal(0, bits), span, n_samples
    )
    return CircleSupReport(
        radius=r,
        sup_value=sup_value,
        witness=circle_point(r, theta_best, bits),
        arc=arc,
        n_samples=n_samples,
        refine_iterations=iters,
        method="scan",
    )


def _measure_arc(measure: Measure) -> str:
    return "quarter" if measure.is_symmetric() else "half"


def sup_on_circle(
    measure: Measure,
    radius,
    bits: int | None = None,
    n_samples: int = 1024,
) -> CircleSupReport:
    """M(r): maximize the transform error of a measure over |z| = r.

    When ``measure.error_peaks_on_real_axis()`` holds, M(r) = |B(r)| by
    theorem and one evaluation at z = r + 0i (the scan's own theta = 0
    seed) replaces the scan; the report says method "real-axis" and
    keeps the arc and sample count a scan would have used.
    """
    if not isinstance(measure, Measure):
        raise ConfigError("sup_on_circle expects a Measure")
    b = measure.bits if bits is None else _check_bits(bits)
    arc = _measure_arc(measure)
    if not measure.error_peaks_on_real_axis():
        return sup_abs_on_circle(
            measure.laplace_error, radius, b, n_samples=n_samples, arc=arc
        )
    if n_samples < 3:
        raise ConfigError("need at least 3 scan samples")
    r = _circle_radius(radius, b)
    witness = PComplex(r, PReal(0, b), bits=b)
    return CircleSupReport(
        radius=r,
        sup_value=abs(measure.laplace_error(witness)),
        witness=witness,
        arc=arc,
        n_samples=n_samples,
        refine_iterations=0,
        method="real-axis",
    )


def sup_on_line(measure: Measure, offset, n_samples: int = 1024) -> LineSupReport:
    """Maximize the transform error over the vertical line Re z = offset,
    at the measure's precision.

    The scan covers 0 <= Im z <= Y with
    Y = sqrt(offset**2 + 2*a*offset + 256*ln2); above Y both
    |L(z)| <= exp(a*offset) and |exp(z**2/2)| = exp((offset**2-y**2)/2)
    are below the reported tail ceiling
    exp(a*offset) + exp((offset**2-Y**2)/2), so the full-line sup is at
    most max(sup found, tail ceiling).  ``certified`` records whether
    the ceiling already lies below the scanned sup.
    """
    if not isinstance(measure, Measure):
        raise ConfigError("sup_on_line expects a Measure")
    a = measure.support_radius()
    if a is None:
        raise ConfigError("sup_on_line needs a compactly supported measure")
    b = measure.bits
    r = _real(offset, b).round_to(b)
    if r < 0:
        raise ConfigError("line offset must be nonnegative")
    a_b = a.round_to(b)
    ln2 = log(PReal(2, b))
    height = sqrt(r * r + 2 * a_b * r + _LINE_CEILING_BITS * ln2)

    def evaluate(y: PReal) -> PReal:
        return abs(measure.laplace_error(PComplex(r, y, bits=b)))

    y_best, sup_value, iters = _maximize_1d(
        evaluate, PReal(0, b), height, n_samples
    )
    ceiling = exp(a_b * r) + exp((r * r - height * height) / 2)
    return LineSupReport(
        offset=r,
        height=height,
        sup_value=sup_value,
        witness=PComplex(r, y_best, bits=b),
        n_samples=n_samples,
        refine_iterations=iters,
        tail_ceiling=ceiling,
        certified=bool(ceiling <= sup_value),
    )


def growth_profile(
    measure: Measure,
    radii: Sequence,
    n_samples: int = 1024,
) -> GrowthProfile:
    """Scan M(r) over a set of radii at the measure's precision and check
    the two-sided envelope (1/2)exp(r**2/2) <= M(r) <= exp(a*r) +
    exp(r**2/2) at every radius with r >= 3a.

    The lower half holds because the scan includes z = r where
    |B(r)| >= exp(r**2/2) - exp(a*r) >= (1/2)exp(r**2/2) once r >= 3a;
    the upper half is the triangle inequality, so a violation of either
    indicates a broken scan or transform.
    """
    if not isinstance(measure, Measure):
        raise ConfigError("growth_profile expects a Measure")
    b = measure.bits
    a = measure.support_radius()
    reports = []
    checked = []
    for radius in radii:
        rep = sup_on_circle(measure, radius, n_samples=n_samples)
        r = rep.radius
        if a is not None and r >= 3 * a.round_to(b):
            half_sq = exp(r * r / 2)
            lower = half_sq / 2
            upper = exp(a.round_to(b) * r) + half_sq
            if not (lower <= rep.sup_value and rep.sup_value <= upper):
                raise EnvelopeViolation(
                    f"growth at r={float(r):g} escaped its envelope: "
                    f"M={float(rep.sup_value):.6e}, "
                    f"bounds [{float(lower):.6e}, {float(upper):.6e}]"
                )
            checked.append(True)
        else:
            checked.append(False)
        reports.append(rep)
    return GrowthProfile(reports=tuple(reports), envelope_checked=tuple(checked))


def _log_convexity(
    sups: tuple[PReal, PReal, PReal], lam: PReal, bits: int
) -> tuple[PReal, str, bool]:
    """(margin, status, holds) for log sup2 <= (1-lam) log sup1 + lam log sup3
    within the slack; a zero sup makes the test "degenerate", which holds."""
    if any(s.is_zero() for s in sups):
        return PReal(0, bits), "degenerate", True
    logs = [log(s) for s in sups]
    span = abs(logs[2] - logs[0])
    allowance = PReal(_CONVEXITY_SLACK, bits) * (span if span > 1 else PReal(1, bits))
    margin = (1 - lam) * logs[0] + lam * logs[2] - logs[1]
    return margin, "ok", bool(margin >= -allowance)


def _convexity_check(
    sups_at: Callable[[int], tuple],
    rs: tuple[PReal, PReal, PReal],
    lam: PReal,
    n_samples: int,
    what: str,
) -> ConvexityReport:
    """Test the sups ``sups_at(n_samples)`` and, on failure, always once
    more at 4x; raise ConvexityViolation if the inequality still fails."""
    for attempt, n in enumerate((n_samples, 4 * n_samples)):
        margin, status, holds = _log_convexity(sups_at(n), lam, rs[0].bits)
        if holds:
            return ConvexityReport(lam=lam, margin=margin, status=status, retried=attempt > 0)
    raise ConvexityViolation(
        f"{what} ({float(rs[0]):g}, {float(rs[1]):g}, {float(rs[2]):g}): "
        f"margin {float(margin):.3e} with slack {_CONVEXITY_SLACK:g}"
    )


def three_circles_check(
    measure: Measure,
    r1,
    r2,
    r3,
    n_samples: int = 1024,
) -> ConvexityReport:
    """Verify log-convexity of M(r) in log r at radii r1 < r2 < r3, with
    M(r) from :func:`sup_on_circle` at the measure's precision:

        log M(r2) <= (1-lam) log M(r1) + lam log M(r3),
        lam = (log r2 - log r1) / (log r3 - log r1),

    within a slack of 1e-6 (scaled by the log-range when that exceeds
    1).  On failure the sups are always taken once more at 4x the sample
    density before raising ConvexityViolation, even when all three are
    exact real-axis values that the retry cannot change.
    """
    if not isinstance(measure, Measure):
        raise ConfigError("three_circles_check expects a Measure")
    b = measure.bits
    rs = tuple(_real(r, b).round_to(b) for r in (r1, r2, r3))
    if not (0 < rs[0] < rs[1] < rs[2]):
        raise ConfigError("radii must satisfy 0 < r1 < r2 < r3")
    lam = (log(rs[1]) - log(rs[0])) / (log(rs[2]) - log(rs[0]))

    def sups_at(n):
        return tuple(sup_on_circle(measure, r, n_samples=n).sup_value for r in rs)

    return _convexity_check(
        sups_at, rs, lam, n_samples, "three-circles inequality failed at radii"
    )


def three_lines_check(
    measure: Measure,
    r1,
    r2,
    r3,
    n_samples: int = 1024,
) -> ConvexityReport:
    """Verify log-convexity of the vertical-line sup b(r) in the offset,
    with b(r) from :func:`sup_on_line` at the measure's precision:

        log b(r2) <= (1-lam) log b(r1) + lam log b(r3),
        lam = (r2 - r1) / (r3 - r1),

    within a slack of 1e-6, retrying once at 4x density before raising
    ConvexityViolation.  Reports status "degenerate" when any line sup
    is exactly zero."""
    if not isinstance(measure, Measure):
        raise ConfigError("three_lines_check expects a Measure")
    b = measure.bits
    rs = tuple(_real(r, b).round_to(b) for r in (r1, r2, r3))
    if not (rs[0] < rs[1] < rs[2]):
        raise ConfigError("offsets must satisfy r1 < r2 < r3")
    if rs[0] < 0:
        raise ConfigError("offsets must be nonnegative")
    lam = (rs[1] - rs[0]) / (rs[2] - rs[0])

    def sups_at(n):
        return tuple(sup_on_line(measure, r, n_samples=n).sup_value for r in rs)

    return _convexity_check(
        sups_at, rs, lam, n_samples, "three-lines inequality failed at offsets"
    )

