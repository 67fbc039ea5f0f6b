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

and the audit checks err <= S.  Replacing l by k in the denominators
gives a geometric series, which converges only when
q = max(e*a/(2k), e/sqrt(2k)) * b < 1, and collapses to 3*q**(a**2/4)
only when q < 1/2; outside its regime ``k_sum`` or ``closed_bound`` is
None rather than assumed.  The fitted ceiling with c1 is checked
separately whenever a fitted constant is supplied.

Artifacts (CSV, SVG, JSON manifest) are plain deterministic text: the
same table writes byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .disks import _RESOLUTION_EXP, sup_on_circle
from .errors import ChainViolation, ConfigError, InsufficientDataError
from .hermite import build_rule, k_for_support
from .measures import TruncatedGaussian
from .precision import PReal, _check_bits, _real, exp, log, sqrt, working_bits

__all__ = [
    "RateRow",
    "RateTable",
    "RateFit",
    "TailBoundModel",
    "TailChainReport",
    "default_grid",
    "run_figure",
    "fit_truncation_rate",
    "fit_quadrature_rate",
    "fit_c1",
    "tail_bound_value",
    "validate_tail_bound",
    "figure_csv_text",
    "figure_svg_text",
    "manifest_text",
    "emit_figure",
]


@dataclass(frozen=True)
class RateRow:
    a: float
    k: int
    bits: int
    err_trunc: PReal
    err_quad: PReal


@dataclass(frozen=True)
class RateTable:
    b: float
    n_samples: int
    rows: tuple[RateRow, ...]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    n_rows: int
    x_label: str


@dataclass(frozen=True)
class TailBoundModel:
    c1: PReal
    rows_used: int
    binding_a: float | None
    floored: bool


@dataclass(frozen=True)
class TailChainReport:
    """An audit of the tail chain at one (a, b): ``checks`` maps each link
    to its verdict, None where the link does not apply.  The audit holds
    when no link reads False."""

    k: int
    bits: int
    ell_sum: PReal
    q_geometric: float
    k_sum: PReal | None
    closed_bound: PReal | None
    fit_bound: PReal | None
    checks: dict
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
    given.  Both families take the exact real-axis path of
    ``sup_on_circle``, so ``n_samples`` changes no number; the table and
    manifest record it.  ``progress``, when given, receives one line per
    row before the row is measured.
    """
    if a_values is None:
        a_values = default_grid()
    grid = sorted(set(float(_real(a)) for a in a_values))
    if not grid:
        raise ConfigError("empty grid of support half-widths")
    if _real(b) <= 0:
        raise ConfigError("disk radius b must be positive")
    if bits_override is not None:
        _check_bits(bits_override)
    # Every row is checked before the first is measured.  The truncated
    # Gaussian takes a <= 64, where the rule reaches its largest size, 512.
    plan = []
    for a in grid:
        if not 1.0 <= a <= 64.0:
            raise ConfigError(f"support half-width a={a:g} is outside [1, 64]")
        bits = working_bits(a, b) if bits_override is None else bits_override
        plan.append((a, k_for_support(a), bits))
    rows = []
    for a, k, bits in plan:
        if progress is not None:
            progress(f"a={a:g}: k={k}, bits={bits}")
        trunc = TruncatedGaussian(a, bits)
        quad = build_rule(k, bits)
        err_trunc = sup_on_circle(trunc, b, n_samples=n_samples).sup_value
        err_quad = sup_on_circle(quad, b, n_samples=n_samples).sup_value
        # -B has a positive Taylor coefficient for both families, so
        # |B(b)| > 0 for every b > 0 and a zero sup is rounding.
        for name, err in (("truncation", err_trunc), ("rule", err_quad)):
            if err.is_zero():
                raise ConfigError(
                    f"the {name} error at a={a:g}, b={float(b):g} rounds to zero "
                    f"at {bits} bits"
                )
        rows.append(
            RateRow(a=a, k=k, bits=bits, err_trunc=err_trunc, err_quad=err_quad)
        )
    return RateTable(b=b, n_samples=n_samples, rows=tuple(rows))


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


def tail_bound_value(c1, a, b, bits: int = 256) -> PReal:
    """3 * (c1*b/a)**(a**2/4) at the stated precision."""
    _check_bits(bits)
    c1, a, b = (_real(x, bits) for x in (c1, a, b))
    ratio = c1.round_to(bits) * b / a
    return 3 * exp(log(ratio) * (a * a) / 4)


def validate_tail_bound(
    a,
    b,
    c1_fit=None,
    err_quad=None,
    bits: int = 320,
) -> TailChainReport:
    """Audit the tail inequality chain at one (a, b); see the module
    docstring for the regime structure.  Raises ChainViolation only if
    the always-valid link err <= l-indexed sum fails."""
    _check_bits(bits)
    af = float(_real(a))
    bf = float(_real(b))
    if bf <= 0:
        raise ConfigError("disk radius b must be positive")
    k = k_for_support(PReal(af, bits))
    wp = bits + 64
    e_val = exp(PReal(1, wp))
    a_p = PReal(af, wp)
    b_p = PReal(bf, wp)

    # The l-indexed majorant; terms eventually decay superexponentially.
    total = PReal(0, wp)
    tiny = PReal(2, wp) ** (-(bits + 32))
    ell = k
    while True:
        t1 = (e_val * a_p * b_p / (2 * ell)) ** (2 * ell)
        t2 = (e_val * b_p / sqrt(PReal(2 * ell, wp))) ** (2 * ell)
        term = t1 + t2
        total = total + term
        scale = total if total > 1 else PReal(1, wp)
        if ell > k + 4 and term < tiny * scale:
            break
        ell += 1
        if ell > k + 100000:
            raise ChainViolation("l-indexed tail sum failed to converge")
    ell_sum = total.round_to(bits)

    q1 = e_val * a_p * b_p / (2 * k)
    q2 = e_val * b_p / sqrt(PReal(2 * k, wp))
    q = q1 if q1 > q2 else q2
    qf = float(q)

    k_sum = None
    if qf < 1.0:
        one = PReal(1, wp)
        k_sum = (
            q1 ** (2 * k) / (one - q1 * q1) + q2 ** (2 * k) / (one - q2 * q2)
        ).round_to(bits)

    closed_bound = None
    if qf < 0.5:
        closed_bound = (3 * exp(log(q) * (a_p * a_p) / 4)).round_to(bits)

    fit_bound = None
    if c1_fit is not None:
        fit_bound = tail_bound_value(c1_fit, af, bf, bits)

    err = None
    if err_quad is not None:
        err = _real(err_quad, bits)

    checks = {
        "err_le_ell_sum": None if err is None else bool(err <= ell_sum),
        "ell_le_k_sum": None if k_sum is None else bool(ell_sum <= k_sum),
        "k_le_closed": None
        if (k_sum is None or closed_bound is None)
        else bool(k_sum <= closed_bound),
        "err_le_fit": None
        if (err is None or fit_bound is None)
        else bool(err <= fit_bound),
    }
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


def figure_csv_text(table: RateTable, model: TailBoundModel | None = None) -> str:
    lines = ["a,k,log10_err_trunc,log10_err_quad,log10_tail_bound"]
    for row in table.rows:
        tail = ""
        if model is not None:
            tail = f"{_log10(tail_bound_value(model.c1, row.a, table.b)):.12f}"
        lines.append(
            f"{row.a:g},{row.k},{_log10(row.err_trunc):.12f},"
            f"{_log10(row.err_quad):.12f},{tail}"
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
    series: dict[str, list[float]] = {
        "err_trunc": [_log10(row.err_trunc) for row in rows],
        "err_quad": [_log10(row.err_quad) for row in rows],
    }
    if model is not None:
        series["tail"] = [
            _log10(tail_bound_value(model.c1, row.a, table.b)) for row in rows
        ]
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
    doc = {
        "b": table.b,
        "n_samples": table.n_samples,
        "scan_resolution_exp": _RESOLUTION_EXP,
        "rows": [
            {"a": row.a, "k": row.k, "bits": row.bits} for row in table.rows
        ],
        "fits": {
            "truncation": None if trunc_fit is None else asdict(trunc_fit),
            "quadrature": None if quad_fit is None else asdict(quad_fit),
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
