"""Measures and their transforms: CDF series, Laplace errors, deviation
sweeps of the characteristic function."""

import io
import math
import os
import random
from fractions import Fraction

import mpmath
import pytest

from gausdisk import measures
from gausdisk.disks import sup_on_circle
from gausdisk.errors import ChainViolation, ConfigError
from gausdisk.hermite import build_rule, k_for_support
from gausdisk.measures import (
    CharBoundReport,
    DiscreteMeasure,
    StandardGaussian,
    TruncatedGaussian,
    char_bound_check,
    normal_cdf,
    truncation_error_closed_form,
)
from gausdisk.precision import PComplex, PReal, exp, working_bits, write_tag_rows


def mp_cdf(z):
    """Reference CDF through mpmath's erf, a code path disjoint from the
    library's direct Taylor series."""
    return (1 + mpmath.erf(z / mpmath.sqrt(2))) / 2


def to_mpc(z: PComplex):
    return mpmath.mpc(mpmath.mpf(float(z.real)), mpmath.mpf(float(z.imag)))


class TestNormalCdf:
    def test_origin(self):
        assert normal_cdf(PReal(0, 128)) == PReal("0.5", 128)

    def test_known_digits_at_one(self):
        got = normal_cdf(PReal(1, 256)).str_digits(20)
        assert got.startswith("0.841344746068542948")

    def test_against_mpmath_real(self):
        with mpmath.workdps(60):
            for xf in (-6.5, -2.0, -0.75, 0.3, 1.0, 4.25, 7.0):
                ref = mp_cdf(mpmath.mpf(xf))
                got = normal_cdf(PReal(xf, 200))
                assert abs(mpmath.mpf(got.str_digits(50)) - ref) < mpmath.mpf(10) ** -48

    def test_against_mpmath_complex(self):
        rng = random.Random(311)
        with mpmath.workdps(60):
            for _ in range(20):
                z = PComplex(rng.uniform(-4, 4), rng.uniform(-4, 4), bits=220)
                got = normal_cdf(z)
                ref = mp_cdf(to_mpc(z))
                gap = abs(
                    mpmath.mpc(
                        mpmath.mpf(got.real.str_digits(50)),
                        mpmath.mpf(got.imag.str_digits(50)),
                    )
                    - ref
                )
                assert gap < mpmath.mpf(10) ** -45

    def test_reflection_symmetry(self):
        rng = random.Random(20240813)
        for _ in range(40):
            x = PReal(rng.uniform(-8, 8), 192)
            gap = abs(normal_cdf(x) + normal_cdf(-x) - 1)
            assert gap <= PReal(2, 192) ** -180

    def test_conjugate_symmetry(self):
        z = PComplex(1.25, 0.75, bits=192)
        a = normal_cdf(z).conjugate()
        b = normal_cdf(z.conjugate())
        assert abs(a - b) <= PReal(2, 192) ** -180

    def test_radius_cap(self):
        with pytest.raises(ConfigError):
            normal_cdf(PReal(100, 128))


class TestUpperTail:
    def test_against_mpmath(self):
        with mpmath.workdps(60):
            for af in (1.0, 3.0, 6.0, 10.0, 14.0):
                ref = mpmath.erfc(mpmath.mpf(af) / mpmath.sqrt(2)) / 2
                got = normal_cdf(-PReal(af, 256))
                rel = abs(mpmath.mpf(got.str_digits(45)) - ref) / ref
                assert rel < mpmath.mpf(10) ** -40

    def test_three_sigma_digits(self):
        got = normal_cdf(-PReal(3, 256)).str_digits(20)
        assert got.startswith("0.001349898031630094")

    def test_complement(self):
        a = PReal(2.5, 200)
        gap = abs(normal_cdf(-a) + normal_cdf(a) - 1)
        assert gap <= PReal(2, 200) ** -185


class TestDiscreteMeasure:
    def test_two_point_laplace_is_cosh(self):
        m = build_rule(2, 256)
        rng = random.Random(20240814)
        for _ in range(25):
            z = PComplex(rng.uniform(-3, 3), rng.uniform(-3, 3), bits=256)
            direct = m.laplace(z)
            reference = (exp(z) + exp(-z)) / 2
            assert abs(direct - reference) <= PReal(2, 256) ** -232

    def test_two_point_char_is_cosine(self):
        m = build_rule(2, 192)
        from gausdisk.precision import cos_sin

        t = PReal("0.8", 192)
        c, _ = cos_sin(t)
        got = m.char_fn(t)
        assert abs(got.real - c) <= PReal(2, 192) ** -170
        assert abs(got.imag) <= PReal(2, 192) ** -170

    def test_laplace_at_zero_is_one(self):
        m = build_rule(5, 192)
        assert abs(m.laplace(PReal(0, 192)) - 1) <= PReal(2, 192) ** -170

    def test_laplace_error_small_near_zero(self):
        m = build_rule(k_for_support(6), 256)
        err = m.laplace_error(PComplex(0.1, 0.1, bits=256))
        assert float(abs(err)) < 1e-4

    def test_symmetry_detection(self):
        sym = DiscreteMeasure([(PReal(-1, 64), PReal("0.5", 64)), (PReal(1, 64), PReal("0.5", 64))])
        assert sym.is_symmetric()
        skew = DiscreteMeasure(
            [(PReal(-1, 64), PReal("0.25", 64)), (PReal(1, 64), PReal("0.75", 64))]
        )
        assert not skew.is_symmetric()
        point = DiscreteMeasure([(PReal(0, 64), PReal(1, 64))])
        assert point.is_symmetric()

    def test_mass_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            DiscreteMeasure([(PReal(0, 64), PReal("0.5", 64))])

    def test_mass_sum_is_checked_at_the_coarsest_mass(self):
        third = PReal(1, 128) / 3
        atoms = [(PReal(x, 128), third) for x in (-1, 0, 1)]
        # Three 128-bit thirds miss one by about 2^-129: too far for 2^-240,
        # well inside the 2^-112 their own precision allows.
        assert DiscreteMeasure(atoms, 256).bits == 256
        off = third + PReal(2, 128) ** -100
        with pytest.raises(ConfigError, match=r"within 2\^-112"):
            DiscreteMeasure([*atoms[:2], (PReal(1, 128), off)], 256)

    def test_mass_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            DiscreteMeasure(
                [(PReal(0, 64), PReal(2, 64)), (PReal(1, 64), PReal(-1, 64))]
            )

    def test_atoms_sorted_by_location(self):
        m = DiscreteMeasure(
            [
                (PReal(2, 64), PReal("0.25", 64)),
                (PReal(-2, 64), PReal("0.25", 64)),
                (PReal(0, 64), PReal("0.5", 64)),
            ]
        )
        locs = [float(x) for x, _ in m.atoms]
        assert locs == sorted(locs)

    def test_support_radius(self):
        m = build_rule(k_for_support(5), 128)
        assert float(m.support_radius()) <= 5.0

    def test_csv_roundtrip(self):
        m = build_rule(4, 200)
        buf = io.StringIO()
        write_tag_rows(buf, "location,mass", m.atoms)
        back = DiscreteMeasure.from_csv(io.StringIO(buf.getvalue()))
        assert back.bits == m.bits
        for (x1, w1), (x2, w2) in zip(back.atoms, m.atoms):
            assert x1.raw == x2.raw and w1.raw == w2.raw


class TestTruncatedGaussian:
    def test_laplace_against_mpmath_quadrature(self):
        m = TruncatedGaussian(3, 220)
        with mpmath.workdps(40):
            a = mpmath.mpf(3)
            norm = mpmath.erf(a / mpmath.sqrt(2))
            for zf in (-2.0, -0.5, 0.0, 1.0, 2.5):
                z = mpmath.mpf(zf)
                integrand = lambda x: mpmath.e ** (z * x) * mpmath.npdf(x)
                ref = mpmath.quad(integrand, [-a, 0, a]) / (norm / 1)
                ref = ref / mpmath.mpf(1)
                got = m.laplace(PReal(zf, 220))
                assert abs(mpmath.mpf(got.str_digits(35)) - ref) < mpmath.mpf(10) ** -30

    def test_laplace_complex_against_mpmath_quadrature(self):
        m = TruncatedGaussian(2, 220)
        with mpmath.workdps(40):
            a = mpmath.mpf(2)
            norm = mpmath.erf(a / mpmath.sqrt(2))
            z = mpmath.mpc("0.5", "1.25")
            integrand = lambda x: mpmath.e ** (z * x) * mpmath.npdf(x)
            ref = mpmath.quad(integrand, [-a, 0, a]) / norm
            got = m.laplace(PComplex(0.5, 1.25, bits=220))
            gap = abs(
                mpmath.mpc(
                    mpmath.mpf(got.real.str_digits(35)),
                    mpmath.mpf(got.imag.str_digits(35)),
                )
                - ref
            )
            assert gap < mpmath.mpf(10) ** -30

    def test_closed_form_matches_direct(self):
        rng = random.Random(20240816)
        for af in (1.5, 4.0, 6.0):
            m = TruncatedGaussian(af, 256)
            for _ in range(10):
                z = PComplex(rng.uniform(-2, 2), rng.uniform(-2, 2), bits=256)
                direct = m.laplace_error(z)
                closed = truncation_error_closed_form(m, z)
                assert abs(direct - closed) <= PReal(2, 256) ** -120

    def test_laplace_error_at_zero(self):
        m = TruncatedGaussian(4, 192)
        assert float(abs(m.laplace_error(PReal(0, 192)))) == 0.0

    def test_error_shrinks_with_support(self):
        z = PComplex(1, 0, bits=256)
        errs = [
            float(abs(TruncatedGaussian(a, 256).laplace_error(z)))
            for a in (2, 4, 6, 8)
        ]
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-11

    def test_half_width_validation(self):
        with pytest.raises(ConfigError):
            TruncatedGaussian(0.5, 128)
        with pytest.raises(ConfigError):
            TruncatedGaussian(80, 128)

    def test_evaluation_radius_guard(self):
        m = TruncatedGaussian(60, 128)
        with pytest.raises(ConfigError):
            m.laplace(PComplex(10, 0, bits=128))

    @pytest.mark.parametrize("af", [1, 4, 8])
    def test_imaginary_axis_matches_closed_form(self, af):
        m = TruncatedGaussian(af, 256)
        for t in (0.5, 7.25, 20, 50):
            z = PComplex(0, t, bits=256)
            gap = abs(m.laplace_error(z) - truncation_error_closed_form(m, z))
            assert gap <= PReal(2, 256) ** -240, (af, t)

    def test_results_do_not_depend_on_earlier_calls(self):
        points = [
            PComplex(0.6, 0.8, bits=256),
            PReal(2.5, 256),
            PComplex(0, 20, bits=256),
            PComplex(3, -2, bits=512),
            PReal("0.125", 256),
        ]
        fresh = [TruncatedGaussian(4, 256).laplace(z).raw for z in points]
        m = TruncatedGaussian(4, 256)
        m.char_fn(PReal(7, 256))
        for order in (range(len(points)), reversed(range(len(points)))):
            for j in order:
                assert m.laplace(points[j]).raw == fresh[j]

    def test_laplace_makes_no_cdf_call(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the moment series needs no normal CDF")

        for name in ("normal_cdf", "_phi_series"):
            monkeypatch.setattr(measures, name, forbidden)
        m = TruncatedGaussian(5, 192)
        assert float(m.laplace(PReal(1, 192))) > 1
        assert float(abs(m.laplace_error(PComplex(1, 2, bits=192)))) < 1e-3

    @pytest.mark.parametrize("bits", [64, 96, 160])
    def test_low_precision_agrees_with_high(self, bits):
        for af, z in ((1, PComplex(0.25, 0.5, bits=bits)), (3, PReal(0.75, bits))):
            low = TruncatedGaussian(af, bits).laplace(z)
            high = TruncatedGaussian(af, 512).laplace(z)
            assert abs(low - high) <= PReal(2, 512) ** -(bits - 4)


@pytest.mark.parametrize(
    "ats, bits",
    [
        *(pytest.param((0.0, 0.25, 1.0, 1.5, 4.0, 20.0), b, id=str(b)) for b in (64, 96, 160)),
        pytest.param((8.0,), 600, id="a8-600"),
        pytest.param((4.0,), 300, id="a4-300"),
        pytest.param((60.0,), 2000, id="a60-2000"),
    ],
)
def test_series_cutoff_bounds_the_tail(ats, bits):
    """The cutoff m bounds the tail, and it is the least index that meets
    its own bound: the term at m is below 2**-bits, the one at m - 1 not."""
    for at in ats:
        m = measures._series_cutoff(at, bits)
        x = Fraction(max(at, 1.0))
        tail = sum(x ** (2 * n) / math.factorial(2 * n) for n in range(m + 1, m + 200))
        assert tail < Fraction(1, 2**bits), (at, m)
        assert x ** (2 * m) / math.factorial(2 * m) < Fraction(1, 2**bits), (at, m)
        assert x ** (2 * m - 2) / math.factorial(2 * m - 2) >= Fraction(1, 2**bits), (at, m)


class TestStandardGaussian:
    def test_laplace_real(self):
        g = StandardGaussian(192)
        x = PReal("0.7", 192)
        want = exp(x * x / 2)
        assert abs(g.laplace(x) - want) <= PReal(2, 192) ** -180

    def test_laplace_error_identically_zero(self):
        g = StandardGaussian(128)
        assert abs(g.laplace_error(PComplex(1.3, -0.4, bits=128))).is_zero()

    def test_char_fn_decays(self):
        g = StandardGaussian(128)
        v = g.char_fn(PReal(2, 128))
        assert float(v.real) == pytest.approx(math.exp(-2), rel=1e-12)
        assert abs(v.imag).is_zero()


def _three_families(bits):
    return (
        TruncatedGaussian(4, bits),
        build_rule(k_for_support(5), bits),
        StandardGaussian(bits),
    )


def test_transforms_take_the_finer_of_measure_and_point_precision():
    for m in _three_families(128):
        for z in (PReal(1, 512), PComplex(1, 0.5, bits=512)):
            assert m.laplace(z).bits == 512
            assert m.laplace_error(z).bits == 512
            assert type(m.laplace_error(z)) is type(z)


def test_real_points_are_complex_points_with_zero_imaginary_part():
    """A PReal in gives a PReal out, bit for bit the real part of the
    result at PComplex(x, 0), whose imaginary part is exactly zero."""
    rng = random.Random(20261018)
    for _ in range(12):
        bits = rng.choice((64, 128, 256, 512))
        x = PReal(rng.uniform(-5, 5), bits)
        xc = PComplex(x, PReal(0, bits))
        pairs = [(normal_cdf(x), normal_cdf(xc))]
        a = PReal(rng.uniform(-8, 40), bits)
        pairs.append((normal_cdf(-a), normal_cdf(PComplex(-a, PReal(0, bits)))))
        for m in _three_families(rng.choice((64, 192, 320))):
            pairs.append((m.laplace(x), m.laplace(xc)))
            pairs.append((m.laplace_error(x), m.laplace_error(xc)))
        for real, cplx in pairs:
            assert isinstance(real, PReal) and isinstance(cplx, PComplex)
            assert real.bits == cplx.bits
            assert real.raw == cplx.real.raw
            assert cplx.imag.raw == mpmath.libmp.fzero


class TestRealAxisError:
    """``real_axis_error`` against the two routes it replaces: one
    ``laplace_error`` at z = r + 0i, and ``sup_on_circle``'s report."""

    @staticmethod
    def _paper_measures():
        for a in (1.5, 4, 6.5, 8.3, 12):
            for b in (0.5, 1, 2):
                for bits in (128, working_bits(a, b)):
                    yield a, b, TruncatedGaussian(a, bits)
                    # k = ceil(a**2/8) as figure sizes it; a = 1.5 is too
                    # narrow for k_for_support's node-interval check.
                    yield a, b, build_rule(math.ceil(a * a / 8), bits)

    def test_bit_identical_to_the_old_routes(self):
        seen = 0
        for a, b, m in self._paper_measures():
            r = PReal(b, m.bits)
            value = m.real_axis_error(b)
            assert value.bits == m.bits
            assert value.raw == abs(m.laplace_error(PComplex(r, PReal(0, m.bits)))).raw, (a, b)
            assert value.raw == sup_on_circle(m, b).sup_value.raw, (a, b)
            assert value > 0
            seen += 1
        assert seen == 60

    def test_radius_is_rounded_to_the_measure_bits(self):
        m = TruncatedGaussian(4, 128)
        fine = PReal(1, 512) + PReal(2, 512) ** -300
        assert m.real_axis_error(fine).raw == m.real_axis_error(1).raw

    def test_measures_that_need_a_scan_raise(self):
        path = os.path.join(os.path.dirname(__file__), "data", "cli", "three_atoms.csv")
        with open(path, encoding="utf-8") as fh:
            three_atoms = DiscreteMeasure.from_csv(fh)
        for m in (StandardGaussian(128), three_atoms):
            assert not m.error_peaks_on_real_axis()
            with pytest.raises(ConfigError, match="needs a scan"):
                m.real_axis_error(1)

    @pytest.mark.parametrize("r", [0, -1, PReal(-0.5, 128)])
    def test_radius_must_be_positive(self, r):
        for m in (TruncatedGaussian(4, 128), build_rule(3, 128)):
            with pytest.raises(ConfigError, match="circle radius must be positive"):
                m.real_axis_error(r)


class TestCharBoundCheck:
    def test_unit_support_chain(self):
        report = char_bound_check(1, t_max=5.0, t_step=0.125)
        assert isinstance(report, CharBoundReport)
        assert float(report.max_deviation) <= float(report.bound_tail)
        assert float(report.bound_tail) <= float(report.bound_density)
        assert float(report.bound_density) <= float(report.bound_plain)

    def test_series_route_engages_and_cross_checks(self):
        report = char_bound_check(4, t_max=12.0, t_step=0.25)
        assert report.cross_checks > 0

    def test_deviation_bounded_by_four_tails(self):
        for af in (1, 2, 3):
            report = char_bound_check(af, t_max=6.0, t_step=0.2)
            four_q = 4 * normal_cdf(-PReal(af, report.bits))
            assert report.max_deviation <= four_q

    def test_failed_chain_link_raises(self, monkeypatch):
        # Shrink only the chain's own Q(a), a real argument at the chain's
        # 192 bits; the closed form's Q(a) runs at its working precision
        # 224 and its Q(a +- z) are complex, so the cross-checks hold.
        cdf = measures.normal_cdf

        def shrunk(z):
            out = cdf(z)
            return out / 100 if isinstance(z, PReal) and z.bits == 192 else out

        monkeypatch.setattr(measures, "normal_cdf", shrunk)
        with pytest.raises(ChainViolation, match="deviation chain failed at a=1"):
            char_bound_check(1, t_max=5.0, t_step=0.125)

    def test_series_and_closed_form_disagreeing_raises(self, monkeypatch):
        closed = measures.truncation_error_closed_form
        monkeypatch.setattr(
            measures,
            "truncation_error_closed_form",
            lambda m, z: closed(m, z) + PReal(2, m.bits) ** -40,
        )
        with pytest.raises(ChainViolation, match="closed-form char evaluations disagree"):
            char_bound_check(1, t_max=5.0, t_step=0.125)

    @pytest.mark.parametrize("a, t_max, t_step, points", [(1, 1.1, 0.4, 3), (3, 3.5, 1.0, 4)])
    def test_grid_stops_at_t_max(self, a, t_max, t_step, points):
        # Under sixteen steps every point is cross-checked, so the count is
        # the number of grid points j*t_step <= t_max.
        assert char_bound_check(a, t_max, t_step).cross_checks == points

    def test_rejects_out_of_range_width(self):
        with pytest.raises(ConfigError):
            char_bound_check(0.5)
        with pytest.raises(ConfigError):
            char_bound_check(9)

    @staticmethod
    def _no_sweep(monkeypatch):
        def refuse(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(measures, "_moment_coeffs", refuse)

    @pytest.mark.parametrize("t_max", [70.0, 60.0])
    def test_grid_past_the_transform_domain_rejected_up_front(self, monkeypatch, t_max):
        # The truncated Gaussian's transform takes a + |z| <= 64.
        self._no_sweep(monkeypatch)
        with pytest.raises(ConfigError, match=r"a \+ t <= 64"):
            char_bound_check(8, t_max=t_max, t_step=1.0)

    def test_grid_of_more_than_ten_thousand_steps_rejected_up_front(self, monkeypatch):
        self._no_sweep(monkeypatch)
        with pytest.raises(ConfigError, match="more than 10000"):
            char_bound_check(1, t_max=1.0001, t_step=1e-4)


class TestValidation:
    def test_laplace_rejects_junk(self):
        g = StandardGaussian(128)
        with pytest.raises(ConfigError):
            g.laplace("one")

    def test_char_fn_rejects_junk(self):
        g = StandardGaussian(128)
        with pytest.raises(ConfigError):
            g.char_fn(object())
