"""The normal-CDF kernels, summed in integer fixed point: bit-identical to
the mpf kernels they replaced (``phi_oracle``), accurate against mpmath
deep in the tails, and the upper tail without a lift."""

import cmath
import math
import random

import mpmath
import pytest
from mpmath.libmp import from_float, from_man_exp, fzero

import phi_oracle
from gausdisk import measures
from gausdisk.measures import normal_cdf
from gausdisk.precision import PComplex, PReal

BITS = (64, 96, 128, 192, 256, 320, 512, 830)


def _same_as_oracle(w: complex, bits: int, real: bool) -> bool:
    if real:
        x = from_float(w.real)
        want = (phi_oracle._phi_series_real(x, bits), fzero)
        return measures._phi_series((x, fzero), bits) == want
    z = (from_float(w.real), from_float(w.imag))
    return measures._phi_series(z, bits) == phi_oracle._phi_series_complex(z, bits)


def _random_case(rng: random.Random, r: float):
    """A point of modulus about r: real (either sign), complex on the real
    axis (exact-zero imaginary part), complex just off it, or anywhere."""
    kind = rng.random()
    w = cmath.rect(r, rng.uniform(0.0, 2.0 * math.pi))
    if kind < 0.3:
        return complex(rng.choice((-r, r)), 0.0), True
    if kind < 0.4:
        return complex(w.real, 0.0), False
    if kind < 0.5:
        return complex(w.real, w.imag * 2.0 ** -rng.uniform(10, 200)), False
    return w, False


def test_sweep_is_bit_identical_to_the_mpf_kernels():
    rng = random.Random(20261018)
    mismatches = []
    for _ in range(2000):
        bits = rng.choice(BITS)
        w, real = _random_case(rng, 12.0 * rng.random() ** 2)
        if not _same_as_oracle(w, bits, real):
            mismatches.append((w, bits, real))
    assert mismatches == []


def test_large_arguments_are_bit_identical_to_the_mpf_kernels():
    rng = random.Random(20261019)
    cases = [
        (complex(-63.0, 0.0), 64, True),
        (complex(-63.0, 0.0), 830, True),
        (complex(-63.9, 0.0), 256, True),
        (complex(-63.0, 0.5), 64, False),
        (complex(-63.0, 0.5), 830, False),
        (complex(-30.0, 1e-30), 192, False),
    ]
    for _ in range(16):
        w, real = _random_case(rng, rng.uniform(12.0, 63.9))
        cases.append((w, rng.choice(BITS), real))
    mismatches = [case for case in cases if not _same_as_oracle(*case)]
    assert mismatches == []


def _rel_gap(got, ref) -> float:
    return float(abs(got - ref) / abs(ref))


@pytest.mark.parametrize("bits", [96, 512])
def test_deep_tails_against_mpmath(bits):
    limit = 2.0 ** -(bits - 4)
    with mpmath.workprec(bits + 128):
        for af in (20, 30, 45, 63):
            got = mpmath.mpf(normal_cdf(-PReal(af, bits)).raw)
            assert _rel_gap(got, mpmath.ncdf(-af)) < limit, af
        for xf in (-20, -40, -63):
            got = mpmath.mpf(normal_cdf(PReal(xf, bits)).raw)
            assert _rel_gap(got, mpmath.ncdf(xf)) < limit, xf
        for r in (20, 40, 63):
            for theta in (math.pi - 0.3, math.pi / 6, 2 * math.pi / 3):
                w = cmath.rect(r, theta)
                out = normal_cdf(PComplex(w.real, w.imag, bits=bits))
                got = mpmath.mpc(mpmath.mpf(out.real.raw), mpmath.mpf(out.imag.raw))
                z = mpmath.mpc(w.real, w.imag)
                ref = mpmath.erfc(-z / mpmath.sqrt(2)) / 2
                assert _rel_gap(got, ref) < limit, (r, theta)


@pytest.mark.parametrize("bits", [64, 256])
def test_real_kernel_meets_its_absolute_error_bound(bits, monkeypatch):
    """Unrounded sums stay within 2**-(bits + ceil(lift/2) + 30) of Phi."""
    monkeypatch.setattr(
        measures, "from_man_exp", lambda man, exp, prec, rnd: from_man_exp(man, exp)
    )
    for xf in (-63.0, -41.5, -17.25, -6.0, -0.5, 0.75, 9.0, 33.0):
        half = -(-int(xf * xf / math.log(2.0)) // 2)
        with mpmath.workprec(bits + 2 * half + 128):
            exact = mpmath.mpf(measures._phi_series((from_float(xf), fzero), bits)[0])
            gap = abs(exact - mpmath.ncdf(xf))
            assert gap < mpmath.mpf(2) ** -(bits + half + 30), xf


def test_upper_tail_left_of_zero_pays_no_lift(monkeypatch):
    asked = []
    kernel = measures._phi_series

    def spy(z, bits):
        asked.append(bits)
        return kernel(z, bits)

    monkeypatch.setattr(measures, "_phi_series", spy)
    a = PReal(-6, 256)
    got = normal_cdf(-a)
    assert asked and max(asked) <= 256 + 16
    assert got.raw == phi_oracle.gauss_upper_tail_lifted(a.raw, 256)


def test_upper_tail_matches_the_lifted_complement():
    rng = random.Random(20261020)
    for _ in range(60):
        bits = rng.choice(BITS)
        a = PReal(rng.uniform(-8.0, 14.0), bits)
        assert normal_cdf(-a).raw == phi_oracle.gauss_upper_tail_lifted(a.raw, bits)
