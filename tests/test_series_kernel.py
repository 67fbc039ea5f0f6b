"""The truncated Gaussian's moment series and the Hermite recurrence, summed
in integer fixed point: bit-identical to the mpf kernels they replaced
(``series_oracle``), and within their stated error bounds of the exact
values.  The Hermite rows kernel is bit-identical to the two loops it
replaced."""

import cmath
import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import fzero

import series_oracle
from gausdisk import hermite, measures
from gausdisk.errors import ChainViolation
from gausdisk.hermite import build_rule
from gausdisk.measures import TruncatedGaussian, char_bound_check
from gausdisk.precision import PComplex, PReal
from gausdisk.superflat import build_superflat, density_derivatives

BITS = (64, 96, 192, 256, 832, 3000)


def _random_point(rng: random.Random, a: float, bits: int):
    """A point with a + |z| <= 64: real, imaginary, complex with an exact
    zero imaginary part, complex just off the real axis, or anywhere."""
    w = cmath.rect((64.0 - a) * rng.random() ** 2, rng.uniform(0.0, 2.0 * math.pi))
    kind = rng.randrange(5)
    if kind == 0:
        return PReal(w.real, bits)
    if kind == 1:
        return PComplex(0.0, w.imag, bits=bits)
    if kind == 2:
        return PComplex(w.real, 0.0, bits=bits)
    if kind == 3:
        return PComplex(w.real, w.imag * 2.0 ** -rng.uniform(10, 200), bits=bits)
    return PComplex(w.real, w.imag, bits=bits)


def _same_as_oracle(a: float, bits: int, z) -> bool:
    m = TruncatedGaussian(a, bits)
    got, want = m.laplace(z), series_oracle.trunc_laplace(m, z)
    return type(got) is type(want) and got.raw == want.raw


class TestTruncatedTransform:
    def test_seeded_grid_is_bit_identical_to_the_mpf_kernel(self):
        rng = random.Random(20261019)
        mismatches = []
        for _ in range(90):
            a = 1.0 + 63.0 * rng.random() ** 2
            bits = rng.choice(BITS)
            z = _random_point(rng, a, bits)
            if not _same_as_oracle(a, bits, z):
                mismatches.append((a, bits, complex(z)))
        assert mismatches == []

    @pytest.mark.parametrize(
        "a,z",
        [
            (64.0, 0.0),
            (1.0, 63.0),
            (1.0, 63.0j),
            (1.0, -40.0 + 47.0j),
            (32.0, 32.0),
            (32.0, 32.0j),
            (16.0, 16.0j),
            (4.0, 1.5),
            (4.0, 1.5 + 1e-60j),
            (60.0, 3.0 - 2.0j),
        ],
    )
    @pytest.mark.parametrize("bits", [64, 256, 3000])
    def test_corners_are_bit_identical_to_the_mpf_kernel(self, a, z, bits):
        point = PComplex(z, bits=bits) if isinstance(z, complex) else PReal(z, bits)
        assert _same_as_oracle(a, bits, point)

    def test_real_points_run_the_real_loop(self, monkeypatch):
        """A real point, and a complex one with an exact zero imaginary
        part, pass Im u = 0 to the Horner kernel, and the two agree bit for
        bit."""
        seen = []
        kernel = measures._horner

        def spy(coeffs, n, ur, ui, wp, f):
            seen.append(ui)
            return kernel(coeffs, n, ur, ui, wp, f)

        monkeypatch.setattr(measures, "_horner", spy)
        rng = random.Random(20261020)
        for _ in range(24):
            bits = rng.choice(BITS[:5])
            a = rng.uniform(1.0, 40.0)
            x = PReal(rng.uniform(-(64.0 - a), 64.0 - a), bits)
            m = TruncatedGaussian(a, bits)
            real = m.laplace(x)
            cplx = m.laplace(PComplex(x, PReal(0, bits)))
            assert isinstance(real, PReal)
            assert real.raw == cplx.real.raw
            assert cplx.imag.raw == fzero
        assert seen and all(ui == 0 for ui in seen)

    @pytest.mark.parametrize("bits", [64, 256])
    def test_unrounded_sum_meets_its_error_bound(self, bits, monkeypatch):
        """Both parts of the integer sum lie within 2**-(bits + 32) of the
        true transform, the imaginary part of a point near the real axis
        within 2**-(bits + 32 + f), f = 29 here; the truth comes from
        mpmath's complex erf."""
        monkeypatch.setattr(measures, "_like", lambda z, pair, out_bits: pair)
        for af, z, f in ((4.0, 1.5, 0), (6.5, 1 + 1j, 0), (3.0, 4j, 0), (12.0, -2 + 1e-9j, 29), (1.0, 20 - 15j, 0)):
            m = TruncatedGaussian(af, bits)
            point = PComplex(z, bits=bits)
            pair = m.laplace(point)
            lift = math.ceil(af * abs(z) / math.log(2.0))
            with mpmath.workprec(bits + 2 * lift + int(abs(z) ** 2 / math.log(2.0)) + 256):
                got_re, got_im = (mpmath.mpf(part) for part in pair)
                w = mpmath.mpc(*(mpmath.mpf(part) for part in point.raw))
                a = mpmath.mpf(m.a.raw)
                r2 = mpmath.sqrt(2)
                want = (
                    mpmath.exp(w * w / 2)
                    * (mpmath.erf((a - w) / r2) + mpmath.erf((a + w) / r2))
                    / (2 * mpmath.erf(a / r2))
                )
                tol = mpmath.mpf(2) ** -(bits + 32)
                assert abs(got_re - want.real) < tol, (af, z)
                assert abs(got_im - want.imag) < tol * mpmath.mpf(2) ** -f, (af, z)

    def test_coefficients_sit_within_one_unit_below_the_truth(self):
        for af, n, e, wp in ((1.0, 12, 0, 96), (3.0, 30, 4, 200), (7.25, 40, 6, 160), (20.0, 60, 9, 400)):
            a = PReal(af, wp)
            got = measures._moment_coeffs(a.raw, n, e, wp)
            exact_a = Fraction(af)
            terms, t, j = [], exact_a, 1
            # t_j = a**(2j-1)/(2j-1)!!, until the rest cannot reach a unit.
            while j <= max(n, af * af) or t * 2 ** (wp + e * n + 64) >= 1:
                terms.append(t)
                t = t * exact_a * exact_a / (2 * j + 1)
                j += 1
            rest, tails = Fraction(0), []  # R_m = sum_{j>m} t_j
            for m in range(len(terms), -1, -1):
                if m <= n:
                    tails.append(rest)
                if m:
                    rest += terms[m - 1]
            tails.reverse()
            assert got[0] == 1 << wp
            for m in range(1, n + 1):
                true = tails[m] / (tails[0] * 2**m * math.factorial(m)) * 2 ** (e * m + wp)
                gap = true - got[m]
                assert 0 <= gap < 1 + Fraction(1, 2**30), (af, m, float(gap))


class TestCharSweep:
    @pytest.mark.parametrize("args", [(1, 5.0, 0.01), (4, 12.0, 0.25), (8, 6.0, 0.2)])
    def test_report_is_field_by_field_the_mpf_sweep(self, args):
        got = char_bound_check(*args)
        want = series_oracle.char_bound_check(*args)
        assert got.bits == want.bits
        assert got.cross_checks == want.cross_checks
        for name in ("max_deviation", "bound_tail", "bound_density", "bound_plain"):
            assert getattr(got, name).raw == getattr(want, name).raw, name

    def test_stepped_gaussian_matches_the_per_point_sweep_on_seeded_grids(self):
        """The sweep steps exp(-t**2/2) and the series cutoff along its grid;
        the oracle evaluates both afresh at every point."""
        rng = random.Random(20261019)
        for _ in range(8):
            a = rng.uniform(1.0, 8.0)
            t_max = rng.uniform(0.5, min(20.0, 60.0 - a))
            t_step = t_max / rng.randint(8, 300)
            try:
                got = char_bound_check(a, t_max, t_step)
            except ChainViolation:
                got = None
            # The oracle returns its report unchecked; its verdict is the chain.
            want = series_oracle.char_bound_check(a, t_max, t_step)
            chain = (want.max_deviation, want.bound_tail, want.bound_density, want.bound_plain)
            holds = all(lo <= hi for lo, hi in zip(chain, chain[1:]))
            assert (got is not None) == holds, (a, t_max, t_step)
            if got is not None:
                gap = abs(got.max_deviation - want.max_deviation)
                assert gap <= PReal(2, got.bits) ** -(got.bits + 16), (a, t_max, t_step)
                assert got.cross_checks == want.cross_checks


def _atoms(rule):
    return [(x.raw, w.raw) for x, w in rule.atoms]


def _oracle_rule(monkeypatch, k: int, bits: int):
    with monkeypatch.context() as patch:
        patch.setattr(hermite, "_he_pair_raw", series_oracle._he_pair_raw)
        return build_rule(k, bits)


class TestHermiteRecurrence:
    def test_rules_up_to_k64_are_bit_identical_to_the_mpf_recurrence(self, monkeypatch):
        rng = random.Random(20261021)
        mismatches = []
        for k in range(1, 65):
            bits = rng.choice((64, 96, 160, 256, 512, 900, 1500))
            if _atoms(build_rule(k, bits)) != _atoms(_oracle_rule(monkeypatch, k, bits)):
                mismatches.append((k, bits))
        assert mismatches == []

    def test_k72_at_6000_bits_is_bit_identical(self, monkeypatch):
        new = build_rule(72, 6000)
        assert _atoms(new) == _atoms(_oracle_rule(monkeypatch, 72, 6000))

    @pytest.mark.parametrize("k", [5, 40, 160])
    def test_pair_at_the_nodes_against_the_exact_recurrence(self, k):
        """At a node, He_(k-1) (the weights') is the exact dyadic recurrence
        within one unit in the last place, and He_k (the Newton step's
        numerator, near zero there) is within 2**-(prec + 16) of
        k * He_(k-1): the step moves the node by under that much."""
        prec = 192
        rule = build_rule(k, prec)
        for x, _ in rule.atoms[k // 2 :: max(1, k // 10)]:
            xq = _exact(x.raw)
            prev, cur = Fraction(1), xq
            for m in range(1, k):
                prev, cur = cur, xq * cur - m * prev
            he_k, he_km1 = hermite._he_pair_raw(k, x.raw, prec)
            sign, man, exp, _ = he_km1
            assert abs(_exact(he_km1) - prev) <= Fraction(2) ** (exp + man.bit_length() - prec)
            assert abs(_exact(he_k) - cur) <= abs(k * prev) * Fraction(2) ** -(prec + 16)


def _kinds(values) -> list:
    return [(type(v), v.bits, v.raw) for v in values]


class TestHermiteRows:
    """``hermite_pair`` and ``density_derivatives`` both read
    ``hermite._he_rows``; the oracle runs the loop each had before."""

    def test_hermite_pair_is_raw_identical_to_the_operator_loop(self):
        rng = random.Random(20261026)
        mismatches = []
        for j in range(3000):
            bits = rng.randint(64, 500)
            n = j % 3 if j < 60 else rng.randint(0, 40)
            re, im = rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0)
            x = (
                PReal(re, bits),
                PComplex(re, im, bits=bits),
                PComplex(re, 0.0, bits=bits),
                PReal(re * 2.0 ** -rng.uniform(0, 200), bits),
                complex(re, im),
                re,
                rng.randint(-9, 9),
            )[j % 7]
            got, want = hermite.hermite_pair(n, x), series_oracle.hermite_pair(n, x)
            if _kinds(got) != _kinds(want):
                mismatches.append((n, bits, x))
        assert mismatches == []

    @pytest.mark.parametrize("a", [4, 5, 6, 8])
    def test_density_derivatives_are_raw_identical_to_the_mpc_loop(self, a):
        rng = random.Random(20261027 + a)
        mix = build_superflat(a)
        for j in range(60):
            bits = rng.choice((64, 128, mix.bits, 700))
            n_max = rng.randint(0, 8)
            re, im = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
            z = PReal(re, bits) if j % 3 == 0 else PComplex(re, 0.0 if j % 3 == 1 else im, bits=bits)
            got = density_derivatives(mix, z, n_max)
            assert _kinds(got) == _kinds(series_oracle.density_derivatives(mix, z, n_max)), (z, n_max)


def _exact(raw) -> Fraction:
    sign, man, exp, _ = raw
    return Fraction((-1) ** sign * man) * Fraction(2) ** exp
