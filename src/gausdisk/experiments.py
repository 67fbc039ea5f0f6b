"""Decay-rate experiments for the two approximating families.

``run_figure`` sweeps support half-widths a over a grid and, for each,
measures the sup of the transform error on the disk |z| <= b for

* the Gaussian truncated to [-a, a], and
* the matched-moment rule with k = ceil(a**2/8) points,

at a per-row working precision chosen by the standard policy.  The
resulting table feeds three summaries:

* a least-squares rate for the truncation error, log err against a**2
  (its decay is essentially exp(-a**2/2));
* a least-squares rate for the rule error, log err against a**2 log a
  (the moment-matching mechanism decays like exp(-c a**2 log a));
* the smallest constant c1 >= e/2 making the closed-form ceiling
  3 * (c1*b/a)**(a**2/4) dominate every measured rule error.

``validate_tail_bound`` audits the inequality chain behind that ceiling
for one (a, b) pair.  The always-convergent majorant of the rule error
is the l-indexed sum

    S = sum_{l>=k} [ (e*a/(2l))**(2l) + (e/sqrt(2l))**(2l) ] * b**(2l),

and the audit checks err <= S against a certified ceiling of S.  The
series is summed at a fixed 128 bits, whatever the audit's precision,
with every operation rounded up, and its tail is bounded by a geometric
series rather than dropped; the ceiling is then rounded up to the
audit's precision.  Replacing l by k in the denominators gives a
geometric series, which converges only when
q = max(e*a/(2k), e/sqrt(2k)) * b < 1, and collapses to 3*q**(a**2/4)
only when q < 1/2; outside its regime ``k_sum`` or ``closed_bound`` is
None rather than assumed.  The fitted ceiling with c1 is checked
separately whenever a fitted constant is supplied.

Artifacts (CSV, SVG, JSON manifest) are plain deterministic text: the
same table writes byte-identical files.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple

from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpf_add,
    mpf_div,
    mpf_e,
    mpf_le,
    mpf_mul,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    round_down,
    round_up,
)

from .errors import (
    ChainViolation,
    ConfigError,
    InsufficientDataError,
    check_value_above_scaled_floor,
)
from .hermite import build_rule, k_for_support
from .measures import _RESOLUTION_EXP, TruncatedGaussian
from .precision import PReal, _check_bits, _real, exp, log, sqrt, working_bits


class RateRow(NamedTuple):
    a: float
    k: int
    bits: int
    err_trunc: PReal
    err_quad: PReal


class RateTable(NamedTuple):
    b: float
    n_samples: int
    rows: tuple[RateRow, ...]


class RateFit(NamedTuple):
    slope: float
    intercept: float
    n_rows: int
    x_label: str


class TailBoundModel(NamedTuple):
    c1: PReal
    rows_used: int
    binding_a: float | None
    floored: bool


class TailChainReport(NamedTuple):
    """An audit of the tail chain at one (a, b): ``checks`` maps each link
    to its verdict, None where the link does not apply, and is read-only.
    The audit holds when no link reads False."""

    k: int
    bits: int
    ell_sum: PReal
    q_geometric: float
    k_sum: PReal | None
    closed_bound: PReal | None
    fit_bound: PReal | None
    checks: MappingProxyType
    passed: bool


def default_grid() -> tuple[float, ...]:
    return tuple(4.0 + 0.5 * j for j in range(17))


def _log10(value: PReal) -> float:
    return float(log(value)) / math.log(10.0)


def run_figure(
    a_values=None,
    b: float = 1.0,
    n_samples: int = 256,
    bits_override: int | None = None,
    progress=None,
) -> RateTable:
    """Measure both error curves over a grid of support half-widths.

    Precision per row is working_bits(a, b), or ``bits_override`` when
    given.  Both families' errors peak on the real axis, so each sup is
    the exact ``Measure.real_axis_error(b)`` and ``n_samples``, which
    must be at least 3, changes no number; the table and manifest record
    it.  A sup at or below its rounding floor 2**(16 - bits) *
    exp(b**2/2) raises ConfigError.  ``progress``, when given, receives
    one line per row before the row is measured.
    """
    if a_values is None:
        a_values = default_grid()
    grid = sorted(set(float(_real(a)) for a in a_values))
    if not grid:
        raise ConfigError("empty grid of support half-widths")
    bf = float(_real(b))
    # Every row is checked before the first is measured, those with a
    # outside [1, 64] first: a half-width out of range is named before
    # a + b > 64 at a smaller one.
    for a in sorted(grid, key=lambda x: 1.0 <= x <= 64.0):
        _check_row(a, bf)
    if bits_override is not None:
        _check_bits(bits_override)
    if n_samples < 3:
        raise ConfigError("need at least 3 scan samples")
    plan = []
    for a in grid:
        bits = working_bits(a, b) if bits_override is None else bits_override
        plan.append((a, k_for_support(a), bits))
    log2_scale = bf * bf / (2 * math.log(2.0))
    rows = []
    for a, k, bits in plan:
        if progress is not None:
            progress(f"a={a:g}: k={k}, bits={bits}")
        err_trunc = TruncatedGaussian(a, bits).real_axis_error(b)
        err_quad = build_rule(k, bits).real_axis_error(b)
        for name, err in (("truncation", err_trunc), ("rule", err_quad)):
            check_value_above_scaled_floor(
                err, log2_scale, f"the {name} error at a={a:g}, b={bf:g}", "exp(b**2/2)"
            )
        rows.append(
            RateRow(a=a, k=k, bits=bits, err_trunc=err_trunc, err_quad=err_quad)
        )
    return RateTable(b=bf, n_samples=n_samples, rows=tuple(rows))


def _fit_rate(
    table: RateTable, err: str, x_of, x_label: str, a_min: float | None = None
) -> RateFit:
    """The least-squares line of ln ``err`` (a row field) on x_of(a) over
    the rows with a >= a_min, or over all rows when a_min is None."""
    points = [
        (x_of(row.a), float(log(getattr(row, err))))
        for row in table.rows
        if a_min is None or row.a >= a_min
    ]
    n = len(points)
    if n < 4:
        where = "" if a_min is None else f" with a >= {a_min:g}"
        raise InsufficientDataError(f"need at least 4 rows{where} to fit a rate")
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0.0:
        raise InsufficientDataError("degenerate fit: all x values coincide")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / var
    return RateFit(slope=slope, intercept=mean_y - slope * mean_x, n_rows=n, x_label=x_label)


def fit_truncation_rate(table: RateTable) -> RateFit:
    """ln err_trunc regressed on a**2 over all rows."""
    return _fit_rate(table, "err_trunc", lambda a: a**2, "a^2")


def fit_quadrature_rate(table: RateTable) -> RateFit:
    """ln err_quad regressed on a**2 * ln a over rows with a >= 6.

    Small-a rows are excluded because the k staircase dominates there.
    """
    return _fit_rate(table, "err_quad", lambda a: a**2 * math.log(a), "a^2 ln a", 6.0)


def fit_c1(table: RateTable) -> TailBoundModel:
    """The smallest c1 >= e/2 with 3*(c1*b/a)**(a**2/4) >= err_quad on
    every row, computed at 256 bits.  Solved in closed form per row:
    c_row = (a/b) * (err/3)**(4/a**2); the answer is the largest row
    value or the floor.

    A binding row meets its bound with equality, so the result is padded
    by one part in 2**(256-32); otherwise reconstructing the bound at a
    different precision can round it just below the measured error."""
    if not table.rows:
        raise InsufficientDataError("empty table")
    bits = 256
    b = PReal(table.b, bits)
    floor = exp(PReal(1, bits)) / 2
    best = floor
    binding = None
    for row in table.rows:
        a = PReal(row.a, bits)
        c_row = (a / b) * exp(log(row.err_quad.round_to(bits) / 3) * 4 / (a * a))
        if c_row > best:
            best = c_row
            binding = row.a
    if binding is not None:
        best = best * (1 + PReal(2, bits) ** -(bits - 32))
    return TailBoundModel(
        c1=best,
        rows_used=len(table.rows),
        binding_a=binding,
        floored=binding is None,
    )


def _check_row(a: float, b: float) -> None:
    """The (a, b) rows ``run_figure`` accepts: 1 <= a <= 64, b > 0 and
    a + b <= 64, where the truncated Gaussian's transform is defined."""
    if not 1.0 <= a <= 64.0:
        raise ConfigError(f"support half-width a={a:g} is outside [1, 64]")
    if b <= 0:
        raise ConfigError("disk radius b must be positive")
    if a + b > 64.0:
        raise ConfigError(f"disk radius b={b:g} puts a + b past 64 at a={a:g}")


def tail_bound_value(c1, a, b, bits: int = 256) -> PReal:
    """3 * (c1*b/a)**(a**2/4) at the stated precision, for c1 > 0 and a
    row (a, b) that ``run_figure`` accepts."""
    _check_bits(bits)
    c1, a, b = (_real(x, bits) for x in (c1, a, b))
    if c1 <= 0:
        raise ConfigError("tail constant c1 must be positive")
    _check_row(float(a), float(b))
    ratio = c1.round_to(bits) * b / a
    return 3 * exp(log(ratio) * (a * a) / 4)


# The precision of the l-indexed sum, whatever the audit's ``bits``.
_ELL_SUM_BITS = 128


def _ell_sum_ceiling(a: float, b: float, k: int):
    """A raw upper bound for S = sum_{l>=k} (A/l)**(2l) + (C/l)**l, where
    A = e*a*b/2 and C = (e*b)**2/2, at most S * (1 + 2**-60).

    Every operation rounds up at 128 bits, starting from an upper bound
    for e.  From term l on, u_{j+1}/u_j <= (A/(j+1))**2 and
    v_{j+1}/v_j <= C/(j+1), so once rho = max((A/(l+1))**2, C/(l+1)) is
    at most 1/2 the rest of the series is at most term l itself.  The
    sum stops at the first such l whose term is also at most 2**-64 of
    the partial sum, and adds that term once more for the rest."""
    wp, up = _ELL_SUM_BITS, round_up
    eb = mpf_mul(mpf_e(wp, up), from_float(b), wp, up)
    big_a = mpf_shift(mpf_mul(eb, from_float(a), wp, up), -1)
    two_a_sq = mpf_shift(mpf_mul(big_a, big_a, wp, up), 1)
    two_c = mpf_mul(eb, eb, wp, up)
    big_c = mpf_shift(two_c, -1)
    total = fzero
    ell = k
    while True:
        n = from_int(ell)
        term = mpf_add(
            mpf_pow_int(mpf_div(big_a, n, wp, up), 2 * ell, wp, up),
            mpf_pow_int(mpf_div(big_c, n, wp, up), ell, wp, up),
            wp,
            up,
        )
        total = mpf_add(total, term, wp, up)
        ell += 1
        if (
            mpf_le(two_c, from_int(ell))
            and mpf_le(two_a_sq, from_int(ell * ell))
            and mpf_le(mpf_shift(term, 64), total)
        ):
            return mpf_add(total, term, wp, up)
        if ell > k + 100000:
            raise ChainViolation("l-indexed tail sum failed to converge")


def validate_tail_bound(
    a,
    b,
    c1_fit=None,
    err_quad=None,
    bits: int = 320,
) -> TailChainReport:
    """Audit the tail inequality chain at one (a, b) that ``run_figure``
    accepts; see the module docstring for the regime structure.

    ``ell_sum`` is a certified ceiling of the l-indexed sum S, at most
    S * (1 + 2**-60): summed at 128 bits with upward rounding and a
    geometric bound on its tail, independent of ``bits``, then rounded
    up to ``bits``.  The link ``ell_le_k_sum`` compares the two sums past
    the l = k term they share.  Raises ChainViolation only if the
    always-valid link err <= l-indexed sum fails."""
    _check_bits(bits)
    af = float(_real(a))
    bf = float(_real(b))
    _check_row(af, bf)
    k = k_for_support(PReal(af, bits))
    wp = bits + 64
    e_val = exp(PReal(1, wp))
    a_p = PReal(af, wp)
    b_p = PReal(bf, wp)

    ell_sum = PReal._wrap(mpf_pos(_ell_sum_ceiling(af, bf, k), bits, round_up), bits)

    q1 = e_val * a_p * b_p / (2 * k)
    q2 = e_val * b_p / sqrt(PReal(2 * k, wp))
    q = q1 if q1 > q2 else q2
    qf = float(q)

    k_sum = None
    ell_le_k_sum = None
    if qf < 1.0:
        one = PReal(1, wp)
        k_sum = (
            q1 ** (2 * k) / (one - q1 * q1) + q2 ** (2 * k) / (one - q2 * q2)
        ).round_to(bits)
        beyond = q1 ** (2 * k + 2) / (one - q1 * q1) + q2 ** (2 * k + 2) / (one - q2 * q2)
        # S and the geometric sum share their l = k term exactly, which can
        # swamp the ceiling's 2**-60 slack; past it each geometric term is
        # at least ((k+1)/k)**(k+1) > 2 times S's, so the parts beyond it
        # compare with room for every rounding.
        beyond_floor = mpf_pos(beyond.raw, bits, round_down)
        ell_le_k_sum = mpf_le(_ell_sum_ceiling(af, bf, k + 1), beyond_floor)

    closed_bound = None
    if qf < 0.5:
        closed_bound = (3 * exp(log(q) * (a_p * a_p) / 4)).round_to(bits)

    fit_bound = None
    if c1_fit is not None:
        fit_bound = tail_bound_value(c1_fit, af, bf, bits)

    err = None
    if err_quad is not None:
        err = _real(err_quad, bits)

    checks = MappingProxyType({
        "err_le_ell_sum": None if err is None else bool(err <= ell_sum),
        "ell_le_k_sum": ell_le_k_sum,
        "k_le_closed": None
        if (k_sum is None or closed_bound is None)
        else bool(k_sum <= closed_bound),
        "err_le_fit": None
        if (err is None or fit_bound is None)
        else bool(err <= fit_bound),
    })
    if checks["err_le_ell_sum"] is False:
        raise ChainViolation(
            f"measured error {float(err):.6e} exceeds its tail majorant "
            f"{float(ell_sum):.6e} at a={af:g}, b={bf:g}"
        )
    passed = all(v is not False for v in checks.values())
    return TailChainReport(
        k=k,
        bits=bits,
        ell_sum=ell_sum,
        q_geometric=qf,
        k_sum=k_sum,
        closed_bound=closed_bound,
        fit_bound=fit_bound,
        checks=checks,
        passed=passed,
    )


# -- artifacts ---------------------------------------------------------


def _figure_series(table: RateTable, model: TailBoundModel | None) -> dict[str, list[float]]:
    """log10 of both errors of every row and, given ``model``, of its
    fitted ceiling: the curves that the CSV and the SVG both show."""
    rows = table.rows
    series = {
        "err_trunc": [_log10(row.err_trunc) for row in rows],
        "err_quad": [_log10(row.err_quad) for row in rows],
    }
    if model is not None:
        series["tail"] = [_log10(tail_bound_value(model.c1, row.a, table.b)) for row in rows]
    return series


def figure_csv_text(table: RateTable, model: TailBoundModel | None = None) -> str:
    series = _figure_series(table, model)
    lines = ["a,k,log10_err_trunc,log10_err_quad,log10_tail_bound"]
    for j, row in enumerate(table.rows):
        tail = f"{series['tail'][j]:.12f}" if "tail" in series else ""
        lines.append(
            f"{row.a:g},{row.k},{series['err_trunc'][j]:.12f},"
            f"{series['err_quad'][j]:.12f},{tail}"
        )
    return "\n".join(lines) + "\n"


_SVG_SERIES = (
    ("err_trunc", "truncated Gaussian", "#1f6fb2", None),
    ("err_quad", "matched-moment rule", "#c23d3d", "7 3"),
    ("tail", "fitted ceiling", "#3d8f4f", "2 3"),
)


def figure_svg_text(table: RateTable, model: TailBoundModel | None = None) -> str:
    """A small deterministic SVG chart of the error curves."""
    rows = table.rows
    if len(rows) < 2:
        raise InsufficientDataError("need at least 2 rows to draw the figure")
    xs = [row.a for row in rows]
    series = _figure_series(table, model)
    x_lo, x_hi = min(xs), max(xs)
    all_y = [v for vs in series.values() for v in vs]
    y_lo = 5.0 * math.floor(min(all_y) / 5.0)
    y_hi = 5.0 * math.ceil(max(all_y) / 5.0)
    if y_hi == y_lo:
        y_hi = y_lo + 5.0

    left, right, top, bottom = 72.0, 616.0, 24.0, 384.0

    def px(a: float) -> float:
        return left + (a - x_lo) / (x_hi - x_lo) * (right - left)

    def py(v: float) -> float:
        return bottom - (v - y_lo) / (y_hi - y_lo) * (bottom - top)

    out = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="440" '
        'viewBox="0 0 640 440">',
        '<rect x="0" y="0" width="640" height="440" fill="white"/>',
    ]
    for a_tick in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        x = px(float(a_tick))
        out.append(
            f'<line x1="{x:.2f}" y1="{top:.2f}" x2="{x:.2f}" y2="{bottom:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.2f}" y="{bottom + 18:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{a_tick}</text>'
        )
    tick = y_lo
    while tick <= y_hi + 1e-9:
        y = py(tick)
        out.append(
            f'<line x1="{left:.2f}" y1="{y:.2f}" x2="{right:.2f}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8:.2f}" y="{y + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{tick:.0f}</text>'
        )
        tick += 5.0
    out.append(
        f'<rect x="{left:.2f}" y="{top:.2f}" width="{right - left:.2f}" '
        f'height="{bottom - top:.2f}" fill="none" stroke="#333333"/>'
    )
    legend, legend_y = [], top + 16
    for key, label, color, dash in _SVG_SERIES:
        if key not in series:
            continue
        pts = " ".join(
            f"{px(a):.2f},{py(v):.2f}" for a, v in zip(xs, series[key])
        )
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        legend.append(
            f'<line x1="{right - 190:.2f}" y1="{legend_y:.2f}" '
            f'x2="{right - 160:.2f}" y2="{legend_y:.2f}" stroke="{color}" '
            f'stroke-width="1.8"{dash_attr}/>'
        )
        legend.append(
            f'<text x="{right - 152:.2f}" y="{legend_y + 4:.2f}" '
            f'font-family="monospace" font-size="11">{label}</text>'
        )
        legend_y += 16
    out += legend
    out.append(
        f'<text x="{(left + right) / 2:.2f}" y="430" font-family="monospace" '
        'font-size="12" text-anchor="middle">support half-width a</text>'
    )
    out.append(
        '<text x="16" y="204" font-family="monospace" font-size="12" '
        'text-anchor="middle" transform="rotate(-90 16 204)">'
        f"log10 sup error on |z| = {table.b:g}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def manifest_text(
    table: RateTable,
    trunc_fit: RateFit | None = None,
    quad_fit: RateFit | None = None,
    model: TailBoundModel | None = None,
) -> str:
    import json  # imported here so that other commands do not load it

    doc = {
        "b": table.b,
        "n_samples": table.n_samples,
        "scan_resolution_exp": _RESOLUTION_EXP,
        "rows": [
            {"a": row.a, "k": row.k, "bits": row.bits} for row in table.rows
        ],
        "fits": {
            "truncation": None if trunc_fit is None else trunc_fit._asdict(),
            "quadrature": None if quad_fit is None else quad_fit._asdict(),
        },
        "c1_fit": None
        if model is None
        else {
            "value": float(model.c1),
            "tag": model.c1.serialize(),
            "binding_a": model.binding_a,
            "floored": model.floored,
            "rows_used": model.rows_used,
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emit_figure(
    table: RateTable,
    csv_path=None,
    svg_path=None,
    manifest_path=None,
    model: TailBoundModel | None = None,
    trunc_fit: RateFit | None = None,
    quad_fit: RateFit | None = None,
) -> list:
    """Write the requested artifacts; returns the paths written.  Every
    artifact is rendered before any file is opened, so an artifact that
    cannot be drawn leaves no file."""
    texts = [
        (path, render())
        for path, render in (
            (csv_path, lambda: figure_csv_text(table, model)),
            (svg_path, lambda: figure_svg_text(table, model)),
            (manifest_path, lambda: manifest_text(table, trunc_fit, quad_fit, model)),
        )
        if path is not None
    ]
    for path, text in texts:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return [path for path, _ in texts]
