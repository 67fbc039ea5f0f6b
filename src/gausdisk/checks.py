"""Self-contained invariant checks behind the ``verify`` command.

Each check raises on failure and stays silent on success.  The suite is
sized for an operational smoke run (a few tenths of a second in full);
the exhaustive acceptance gate lives in the test suite.  ``quick`` trims the
heavier sweeps further.  ``artifact-determinism`` compares two pinned CSV
artifacts with the reference bytes ``_ARTIFACT_REFERENCE``; a change that
alters those bytes on purpose updates the constant and says so in the
changelog, as for a golden file.
"""

from __future__ import annotations

import io
import random
import sys
import time

from .disks import growth_profile, three_circles_check, three_lines_check
from .errors import MathInvariantError
from .experiments import RateRow, RateTable, figure_csv_text, validate_tail_bound
from .hermite import build_rule, moment
from .measures import (
    TruncatedGaussian,
    char_bound_check,
    normal_cdf,
    truncation_error_closed_form,
)
from .precision import PComplex, PReal, cos_sin, double_factorial, exp, working_bits
from .superflat import build_superflat, flatness_certificate, superflat_to_csv


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MathInvariantError(message)


def check_exp_identity(quick: bool) -> None:
    rng = random.Random(20240811)
    bits = 256
    tol = PReal(2, bits) ** -240
    for _ in range(40 if quick else 200):
        z = PComplex(rng.uniform(-10, 10), rng.uniform(-10, 10), bits=bits)
        gap = abs(exp(z) * exp(-z) - 1)
        _require(gap <= tol, f"exp(z)exp(-z) drifted by {float(gap):.3e}")


def check_serialization(quick: bool) -> None:
    rng = random.Random(20240812)
    for _ in range(40 if quick else 200):
        bits = rng.choice([64, 128, 192, 333, 512])
        x = PReal(rng.uniform(-5, 5), bits) * PReal(2, bits) ** rng.randint(-80, 80)
        y = PReal.parse(x.serialize())
        _require(y.raw == x.raw and y.bits == x.bits, "serialization round-trip changed a value")


def check_rule_moments(quick: bool) -> None:
    top = 6 if quick else 12
    for k in range(1, top + 1):
        rule = build_rule(k, 256)
        tol = PReal(2, 256) ** -128
        for i in range(2 * k):
            m = moment(rule, i)
            if i % 2:
                _require(m.is_zero(), f"odd moment {i} of k={k} rule is not exactly 0")
            else:
                gap = abs(m - double_factorial(i - 1))
                _require(gap <= tol, f"moment {i} of k={k} rule off by {float(gap):.3e}")


def check_rule_geometry(quick: bool) -> None:
    ks = (2, 3, 5, 8) if quick else (2, 3, 5, 8, 12, 25)
    for k in ks:
        rule = build_rule(k, 192)
        bound = PReal(4 * k + 2, 192)
        top = rule.support_radius()
        _require(top * top <= bound, f"k={k} nodes escaped their interval")
        for (x, w), (y, v) in zip(rule.atoms, reversed(rule.atoms)):
            _require(x.raw == (-y).raw, f"k={k} nodes are not mirror-symmetric")
            _require(w.raw == v.raw, f"k={k} weights are not mirror-symmetric")


def check_cdf_symmetry(quick: bool) -> None:
    rng = random.Random(20240813)
    bits = 192
    tol = PReal(2, bits) ** -(bits - 16)
    for _ in range(10 if quick else 40):
        x = PReal(rng.uniform(-6, 6), bits)
        gap = abs(normal_cdf(x) + normal_cdf(-x) - 1)
        _require(gap <= tol, f"CDF symmetry broke by {float(gap):.3e}")
    # Conjugate symmetry off the real axis.
    for _ in range(5 if quick else 20):
        z = PComplex(rng.uniform(-3, 3), rng.uniform(-3, 3), bits=bits)
        gap = abs(normal_cdf(z).conjugate() - normal_cdf(z.conjugate()))
        _require(gap <= tol, f"CDF conjugate symmetry broke by {float(gap):.3e}")


def check_transform_identities(quick: bool) -> None:
    rng = random.Random(20240814)
    bits = 256
    rule2 = build_rule(2, bits)
    tol = PReal(2, bits) ** -(bits - 24)
    for _ in range(20 if quick else 100):
        z = PComplex(rng.uniform(-2, 2), rng.uniform(-2, 2), bits=bits)
        cosh = (exp(z) + exp(-z)) / 2
        gap = abs(rule2.laplace(z) - cosh)
        _require(gap <= tol, f"two-point transform differs from cosh by {float(gap):.3e}")
    trunc = TruncatedGaussian(4, bits)
    tol_half = PReal(2, bits) ** -(bits // 2)
    for _ in range(4 if quick else 12):
        z = PComplex(rng.uniform(-1, 1), rng.uniform(-1, 1), bits=bits)
        gap = abs(trunc.laplace_error(z) - truncation_error_closed_form(trunc, z))
        _require(gap <= tol_half, f"truncation error routes disagree by {float(gap):.3e}")


def check_char_chain(quick: bool) -> None:
    char_bound_check(1.0, t_max=5.0, t_step=0.05 if quick else 0.01)


def check_three_circles(quick: bool) -> None:
    a = 4.0
    bits = working_bits(a, 20.0)
    measure = build_rule(2, bits)
    three_circles_check(measure, 1, 12, 20)


def check_three_lines(quick: bool) -> None:
    measure = build_rule(2, 512)
    three_lines_check(measure, 0, 3, 6, n_samples=64 if quick else 128)


def check_envelope(quick: bool) -> None:
    measure = build_rule(2, 512)
    profile = growth_profile(measure, [6, 10])
    _require(any(profile.envelope_checked), "no radius qualified for the envelope")


def check_superflat(quick: bool) -> None:
    mix = build_superflat(4)
    flatness_certificate(mix)
    half = exp(PReal(1, mix.bits) / 2)
    gap = abs(mix.tilt_total - half)
    _require(
        gap <= PReal(2, mix.bits) ** -(mix.bits // 2),
        "a=4 tilt total should equal exp(1/2)",
    )


def check_tail_chain(quick: bool) -> None:
    bits = working_bits(6.0, 1.0)
    quad = build_rule(5, bits)
    err = quad.real_axis_error(1)
    report = validate_tail_bound(6.0, 1.0, err_quad=err)
    _require(report.passed, "tail chain audit failed at a=6")
    report11 = validate_tail_bound(11.0, 1.0)
    _require(
        report11.k_sum is not None and report11.checks["ell_le_k_sum"] is True,
        "k-denominator majorization failed in its regime",
    )


def _determinism_text() -> str:
    """The figure CSV of a pinned table followed by the a=4 superflat CSV."""
    rows = (
        RateRow(a=4.0, k=2, bits=197, err_trunc=PReal("2.1e-3", 64), err_quad=PReal("0.105", 64)),
        RateRow(a=5.0, k=4, bits=291, err_trunc=PReal("5.1e-5", 64), err_quad=PReal("7.5e-4", 64)),
    )
    buf = io.StringIO()
    buf.write(figure_csv_text(RateTable(b=1.0, n_samples=64, rows=rows)))
    superflat_to_csv(build_superflat(4), buf)
    return buf.getvalue()


# _determinism_text() as a fresh interpreter prints it under any hash seed.
_ARTIFACT_REFERENCE = (
    "a,k,log10_err_trunc,log10_err_quad,log10_tail_bound\n"
    "4,2,-2.677780705266,-0.978810700930,\n"
    "5,4,-4.292429823902,-3.124938736608,\n"
    "# a=4\n"
    "# k=2\n"
    "# tilt_total="
    "1648721270700128146848650787814163571653776100710148011575079311673287632291878708501"
    "4692582377636177004116038801388420078971600797952682356982708097409169134207787121154"
    "6646890155898290686309337615966796875e-206@212\n"
    "location,weight\n"
    "-1e0@212,5e-1@212\n"
    "1e0@212,5e-1@212\n"
)


def check_determinism(quick: bool) -> None:
    """The pinned CSV artifacts are byte-identical to ``_ARTIFACT_REFERENCE``,
    the bytes that fresh interpreters print under any hash seed."""
    _require(
        _determinism_text() == _ARTIFACT_REFERENCE,
        "figure and superflat CSV bytes differ from the reference",
    )


def check_trig_identity(quick: bool) -> None:
    rng = random.Random(20240815)
    bits = 192
    tol = PReal(2, bits) ** -(bits - 8)
    for _ in range(10 if quick else 50):
        theta = PReal(rng.uniform(0, 6.28), bits)
        c, s = cos_sin(theta)
        gap = abs(c * c + s * s - 1)
        _require(gap <= tol, f"cos^2+sin^2 drifted by {float(gap):.3e}")


ALL_CHECKS = (
    ("exp-identity", check_exp_identity),
    ("serialization-roundtrip", check_serialization),
    ("trig-identity", check_trig_identity),
    ("rule-moments", check_rule_moments),
    ("rule-geometry", check_rule_geometry),
    ("cdf-symmetry", check_cdf_symmetry),
    ("transform-identities", check_transform_identities),
    ("char-deviation-chain", check_char_chain),
    ("three-circles", check_three_circles),
    ("three-lines", check_three_lines),
    ("growth-envelope", check_envelope),
    ("superflat-certificate", check_superflat),
    ("tail-chain", check_tail_chain),
    ("artifact-determinism", check_determinism),
)


def run_all(quick: bool = False) -> bool:
    """Run every check, printing one PASS/FAIL line each and writing one
    ``<check> <seconds>`` line each to stderr; returns overall success."""
    ok = True
    for name, fn in ALL_CHECKS:
        start = time.perf_counter()
        try:
            fn(quick)
        except Exception as exc:  # noqa: BLE001 - each failure is reported
            ok = False
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
        print(f"{name} {time.perf_counter() - start:.3f}", file=sys.stderr)
    return ok
