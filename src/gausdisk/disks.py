"""Sup-norm scans of transform errors over circles and vertical lines,
with the log-convexity certificates that tie them together.

The central quantity is M(r) = sup_{|z|=r} |B(z)| where B is a measure's
transform error L(z) - exp(z**2/2).  For both paper families, the
Gauss-Hermite rules from ``build_rule`` and the truncated Gaussians, -B
has nonnegative Taylor coefficients: a Gauss rule's remainder for
x**(2m) is nonnegative, and conditioning on |X| <= a lowers every even
moment.  Then |B(z)| <= -B(|z|), so M(r) = |B(r)| exactly:
``Measure.real_axis_error(r)`` in ``measures``.  ``figure``, the flatness
certificate and verify's tail chain call it directly, and
``sup_on_circle`` reports it as method "real-axis".

Every other measure is scanned (method "scan").  Because every measure
here lives on the real line, B(conj z) = conj B(z), so |B| on a circle
is determined by the upper half; symmetric measures add B(-z) = B(z) and
a quarter arc suffices.  Scans sample an arc uniformly (endpoints
included) and then sharpen the best sample by Brent's parabolic search
down to an angular resolution of 2**-64, keeping the largest value ever
evaluated.  Either way the reported sup is a value of |B| at a point of
the circle, so it is always a lower bound for the true one; scans agree
with it to scan resolution in practice.

The same symmetries make the scan ends mirror axes of |B|: conjugation
reflects about theta = 0 and theta = pi, and, for a symmetric measure,
B(-conj z) = conj B(z) reflects about theta = pi/2; on a vertical line,
conjugation reflects about y = 0.  So a best sample at an end is
bracketed across it, each point past the end is evaluated at its mirror
image, and a peak there is sharpened in a few steps with no linear
crawl; every evaluated point stays on the arc or segment.  At a line's
top end, or at the far end of a quarter arc scanned for an asymmetric
function, the mirrored profile is only continuous, and Brent's
safeguards still converge.

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

import math
from typing import Callable, NamedTuple, Sequence

from .errors import (
    ConfigError,
    ConvexityViolation,
    EnvelopeViolation,
    check_value_above_scaled_floor,
)
from .measures import _RESOLUTION_EXP, Measure
from .precision import PComplex, PReal, _check_bits, _real, cos_sin, exp, log, pi_value, sqrt


# Line scans stop at the height where |exp(z**2/2)| has fallen to
# 2**-(_LINE_CEILING_BITS/2) * exp(-a*offset); see sup_on_line.
_LINE_CEILING_BITS = 256
# Relative slack of the three-circles and three-lines inequalities.
_CONVEXITY_SLACK = 1e-6


class CircleSupReport(NamedTuple):
    radius: PReal
    sup_value: PReal
    witness: PComplex
    arc: str
    n_samples: int
    refine_iterations: int
    method: str


class LineSupReport(NamedTuple):
    offset: PReal
    height: PReal
    sup_value: PReal
    witness: PComplex
    n_samples: int
    refine_iterations: int
    tail_ceiling: PReal
    certified: bool


class GrowthProfile(NamedTuple):
    reports: tuple[CircleSupReport, ...]
    envelope_checked: tuple[bool, ...]


class ConvexityReport(NamedTuple):
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
    """Sample [lo, hi] uniformly, then sharpen the best sample by Brent's
    safeguarded parabolic search (R. P. Brent, *Algorithms for
    Minimization without Derivatives*, 1973, ch. 5) on the bracket of its
    two neighbours.  Returns (argmax, max, refine_iters).

    The bracket's two golden-section points are evaluated first and
    become Brent's w and v; then each iteration evaluates one point until
    the bracket is 2**_RESOLUTION_EXP wide, or 4000 iterations: ``seeds +
    2 + refine_iters`` evaluations in all.  Brent's best point x moves
    only on a strict gain, so values that tie by rounding near a peak do
    not walk the search away from it.  A best seed at an end is bracketed
    by [end - step, end + step], and a point u past the end is evaluated
    at its mirror image 2*end - u; see the module docstring for why the
    ends are mirror axes.

    Parabolic steps assume local unimodality; the returned maximum is
    the largest value evaluated anywhere, always at a point of [lo, hi],
    so a multimodal profile degrades only the sharpening, never the
    lower-bound property.
    """
    if seeds < 3:
        raise ConfigError("need at least 3 scan samples")
    bits = lo.bits
    step = (hi - lo) / (seeds - 1)
    xs = [lo] + [lo + step * j for j in range(1, seeds - 1)] + [hi]
    best_x, best_v, best_idx = lo, evaluate(lo), 0
    for j in range(1, seeds):
        v = evaluate(xs[j])
        if v > best_v:
            best_v, best_x, best_idx = v, xs[j], j

    def probe(u: PReal) -> PReal:
        nonlocal best_x, best_v
        t = 2 * lo - u if u < lo else 2 * hi - u if u > hi else u
        v = evaluate(t)
        if v > best_v:
            best_v, best_x = v, t
        return v

    x, fx = xs[best_idx], best_v
    a = xs[best_idx - 1] if best_idx else 2 * lo - xs[1]
    b = xs[best_idx + 1] if best_idx < seeds - 1 else 2 * hi - xs[-2]
    tol = PReal(2, bits) ** _RESOLUTION_EXP
    # Brent's least step: two of them close a bracket around x within tol.
    tol1 = tol / 4
    inv_phi = (sqrt(PReal(5, bits)) - 1) / 2
    w, fw, v, fv = x, fx, x, fx
    # d and e, the last two steps, start at the bracket width, so the
    # first iteration may already take a parabolic step.
    d = e = b - a
    pending = [b - inv_phi * (b - a), a + inv_phi * (b - a)]
    iters = 0
    while pending or ((b - a) > tol and iters < 4000):
        if pending:
            u = pending.pop(0)
        else:
            iters += 1
            mid = (a + b) / 2
            parabolic = False
            if abs(e) > tol1:
                # The vertex x + p/q of the parabola through x, w and v.
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2 * (q - r)
                if q > 0:
                    p = -p
                q = abs(q)
                prev, e = e, d
                # Accept it inside the bracket and under half the step
                # before last, which forces the bracket to shrink.
                if abs(p) < q * abs(prev) / 2 and q * (a - x) < p < q * (b - x):
                    d = p / q
                    if x + d - a < 2 * tol1 or b - x - d < 2 * tol1:
                        d = tol1 if mid >= x else -tol1
                    parabolic = True
            if not parabolic:
                e = (a - x) if x >= mid else (b - x)
                d = (1 - inv_phi) * e
            u = x + d if abs(d) >= tol1 else x + (tol1 if d >= 0 else -tol1)
        fu = probe(u)
        if fu > fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return best_x, best_v, iters


_ARC_FRACTIONS = {"full": 1, "half": 2, "quarter": 4}


def circle_point(radius: PReal, theta: PReal, bits: int) -> PComplex:
    """radius * e^(i*theta) at ``bits``, the point a circle scan visits at
    angle theta.

    Both inputs are rounded to ``bits`` first, so the point depends only
    on their values.
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


def sup_on_circle(
    measure: Measure,
    radius,
    bits: int | None = None,
    n_samples: int = 1024,
) -> CircleSupReport:
    """M(r): maximize the transform error of a measure over |z| = r.

    When ``measure.error_peaks_on_real_axis()`` holds, M(r) = |B(r)| by
    theorem and ``measure.real_axis_error(r)``, one evaluation at the
    scan's own theta = 0 seed z = r + 0i at the measure's precision,
    replaces the scan; the report says method "real-axis" and keeps the
    arc and sample count a scan would have used.
    """
    if not isinstance(measure, Measure):
        raise ConfigError("sup_on_circle expects a Measure")
    b = measure.bits if bits is None else _check_bits(bits)
    arc = "quarter" if measure.is_symmetric() else "half"
    if not measure.error_peaks_on_real_axis():
        return sup_abs_on_circle(
            measure.laplace_error, radius, b, n_samples=n_samples, arc=arc
        )
    if n_samples < 3:
        raise ConfigError("need at least 3 scan samples")
    r = _circle_radius(radius, b)
    return CircleSupReport(
        radius=r,
        sup_value=measure.real_axis_error(r),
        witness=PComplex(r, PReal(0, b), bits=b),
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


def check_above_noise_floor(report, subject: str, var: str) -> None:
    """Raise ConfigError when a circle or line sup is zero or rounding
    noise.

    On |z| = r and on Re z = r, |exp(z**2/2)| <= exp(r**2/2), so at b bits
    a value at or below 2**(16 - b) * exp(r**2/2) has no correct digit of
    L(z) - exp(z**2/2) left.  The message starts with ``subject`` and
    calls r ``var``.  A real-axis sup is |B(r)| of a paper family,
    positive by theorem, so its zero is rounding too; a scanned zero may
    be exact (the Gaussian's own error) and passes.
    """
    if isinstance(report, CircleSupReport):
        r, positive = float(report.radius), report.method == "real-axis"
    else:
        r, positive = float(report.offset), False
    if positive or not report.sup_value.is_zero():
        check_value_above_scaled_floor(
            report.sup_value, r * r / (2 * math.log(2.0)), subject, f"exp({var}**2/2)"
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

