"""Boundary scans, convexity checks and growth envelopes."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gausdisk.disks import (
    ConvexityReport,
    check_above_noise_floor,
    check_value_above_scaled_floor,
    circle_point,
    growth_profile,
    sup_abs_on_circle,
    sup_on_circle,
    sup_on_line,
    three_circles_check,
    three_lines_check,
)
from gausdisk.errors import ConfigError, ConvexityViolation, EnvelopeViolation
from gausdisk.experiments import default_grid
from gausdisk.hermite import build_rule, k_for_support, moment, rule_to_csv
from gausdisk.measures import (
    DiscreteMeasure,
    Measure,
    StandardGaussian,
    TruncatedGaussian,
)
from gausdisk.precision import (
    PComplex,
    PReal,
    cos_sin,
    double_factorial,
    exp,
    log,
    pi_value,
    working_bits,
)


def numpy_circle_error_max(measure: DiscreteMeasure, radius: float, n: int = 20001):
    """Dense float64 boundary scan of the transform error, sharing no
    code with the library's scanner."""
    locs = np.array([float(x) for x, _ in measure.atoms])
    masses = np.array([float(w) for _, w in measure.atoms])
    thetas = np.linspace(0.0, 2 * np.pi, n)
    z = radius * np.exp(1j * thetas)
    transform = (masses[None, :] * np.exp(np.outer(z, locs))).sum(axis=1)
    err = np.abs(transform - np.exp(z * z / 2))
    return float(err.max())


class TestCircleScan:
    def test_constant_modulus_function(self):
        report = sup_abs_on_circle(lambda z: z, PReal(3, 128), 128, n_samples=16)
        assert abs(report.sup_value - 3) <= PReal(2, 128) ** -120

    def test_exp_peak_at_angle_zero(self):
        bits = 192
        r = PReal(2, bits)
        report = sup_abs_on_circle(exp, r, bits, n_samples=64)
        # theta = 0 is a seed, so the exact maximum e^r is attained
        assert abs(report.sup_value - exp(r)) <= PReal(2, bits) ** -(bits - 8)

    def test_offset_peak_located_precisely(self):
        bits = 192
        alpha = 0.3

        def f(z: PComplex):
            rot = PComplex(math.cos(alpha), -math.sin(alpha), bits=bits)
            return exp((z * rot + (z * rot).conjugate()) / 2)

        report = sup_abs_on_circle(f, PReal(1, bits), bits, n_samples=64)
        angle = math.atan2(float(report.witness.imag), float(report.witness.real))
        assert angle == pytest.approx(alpha, abs=1e-15)

    def test_agrees_with_numpy_grid(self):
        m = build_rule(k_for_support(5), 256)
        report = sup_on_circle(m, 1, n_samples=128)
        oracle = numpy_circle_error_max(m, 1.0)
        assert float(report.sup_value) == pytest.approx(oracle, rel=1e-9)

    def test_quarter_arc_equals_full_scan_for_symmetric(self):
        m = build_rule(3, 224)
        quarter = sup_on_circle(m, 1.5, n_samples=96)
        assert quarter.arc == "quarter"
        full = sup_abs_on_circle(
            m.laplace_error, 1.5, 224, n_samples=384, arc="full"
        )
        gap = abs(quarter.sup_value - full.sup_value)
        assert float(gap) <= 1e-12 * float(full.sup_value)

    def test_uses_half_arc_for_asymmetric(self):
        skew = DiscreteMeasure(
            [(PReal(-1, 192), PReal("0.25", 192)), (PReal(2, 192), PReal("0.75", 192))]
        )
        report = sup_on_circle(skew, 1, n_samples=48)
        assert report.arc == "half"

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            sup_abs_on_circle(exp, PReal(0, 128), 128)
        with pytest.raises(ConfigError):
            sup_abs_on_circle(exp, PReal(1, 128), 128, arc="octant")
        with pytest.raises(ConfigError):
            sup_abs_on_circle(exp, PReal(1, 128), 128, n_samples=2)
        with pytest.raises(ConfigError):
            sup_on_circle(lambda z: z, 1)

    def test_circle_point_depends_only_on_the_rounded_inputs(self):
        bits = 160
        theta = pi_value(bits) / 7
        for r in (PReal(1, bits), PReal("0.3", 96)):
            c, s = cos_sin(theta)
            want = PComplex(r.round_to(bits) * c, r.round_to(bits) * s, bits=bits)
            assert circle_point(r, theta, bits).raw == want.raw
        # The key's values and bits fix the point, whatever precision the
        # angle came at.
        coarse = PReal(1, 64)
        c, s = cos_sin(coarse.round_to(bits))
        got = circle_point(PReal(1, bits), coarse, bits)
        assert got.raw == PComplex(c, s, bits=bits).raw and got.bits == bits


def forced_scan(measure, radius, n_samples):
    """The quarter-arc scan that sup_on_circle ran before its real-axis
    path; the oracle for that path."""
    return sup_abs_on_circle(
        measure.laplace_error, radius, measure.bits, n_samples=n_samples, arc="quarter"
    )


class TestRealAxisPath:
    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("a", [4, 5.5, 7])
    def test_equals_scan_bit_for_bit(self, a, r):
        bits = working_bits(a, r)
        for m in (TruncatedGaussian(a, bits), build_rule(k_for_support(a), bits)):
            fast = sup_on_circle(m, r, n_samples=64)
            scan = forced_scan(m, r, 64)
            assert fast.method == "real-axis" and scan.method == "scan"
            assert fast.sup_value.raw == scan.sup_value.raw
            assert fast.witness.raw == scan.witness.raw
            assert (fast.arc, fast.n_samples) == (scan.arc, scan.n_samples)

    def test_mixed_sign_csv_measure_keeps_scan(self):
        # cosh(2z) - exp(z**2/2): the second moment 4 exceeds the Gaussian's
        # 1 while high moments fall below it, and at r = 3 the sup sits off
        # the real axis, above |B(3)|.
        text = "location,mass\n-2e0@192,5e-1@192\n2e0@192,5e-1@192\n"
        m = DiscreteMeasure.from_csv(io.StringIO(text))
        assert m.is_symmetric()
        report = sup_on_circle(m, 3, n_samples=64)
        assert report.method == "scan"
        assert report.sup_value.raw == forced_scan(m, 3, 64).sup_value.raw
        on_axis = abs(m.laplace_error(PComplex(PReal(3, 192), PReal(0, 192))))
        assert float(report.sup_value) > 1.1 * float(on_axis)

    def test_rule_read_from_csv_keeps_scan(self):
        rule = build_rule(5, 256)
        buf = io.StringIO()
        rule_to_csv(rule, buf)
        loaded = DiscreteMeasure.from_csv(io.StringIO(buf.getvalue()))
        report = sup_on_circle(loaded, 1, n_samples=64)
        assert report.method == "scan"
        built = sup_on_circle(rule, 1, n_samples=64)
        assert built.method == "real-axis"
        assert report.sup_value.raw == built.sup_value.raw

    @pytest.mark.parametrize(
        # the default figure grid, plus half-widths between its steps
        "a", list(default_grid()) + [4.303, 6.067, 6.561, 7.655, 8.371]
    )
    def test_rounded_rule_deficits_below_printed_digits(self, a):
        # For the exact rule, -B(z) = sum_m d_m z**(2m)/(2m)! with
        # d_m = (2m-1)!! - mu_2m >= 0.  Rounding the atoms can flip the
        # sign of the deficits d_m, m < k, which are zero for the exact
        # rule; they move sup |B| away from |B(r)| by at most twice their
        # weighted sum.
        r, bits = 1, working_bits(a, 1.0)
        rule = build_rule(k_for_support(PReal(a, bits)), bits)
        at_axis = abs(rule.laplace_error(PReal(r, bits)))
        bound = PReal(0, bits)
        for m in range(rule.k):
            gap = abs(moment(rule, 2 * m) - double_factorial(2 * m - 1))
            bound = bound + 2 * gap * PReal(r, bits) ** (2 * m) / math.factorial(2 * m)
        assert bound < PReal(2, bits) ** -(bits // 2) * at_axis

    @settings(derandomize=True, database=None, deadline=None, max_examples=12)
    @given(
        family=st.one_of(
            st.tuples(st.just("rule"), st.integers(2, 12)),
            st.tuples(st.just("trunc"), st.floats(1, 8)),
        ),
        r=st.floats(0.25, 3),
        bits=st.sampled_from([96, 128, 192, 256]),
    )
    # |B(1/4)| = 2.8e-30 for the 12-node rule, under the 96-bit floor: the
    # axis reads 4.3e-30 there and the scan 1.2e-29.
    @example(family=("rule", 12), r=0.25, bits=96)
    def test_scan_never_beats_the_theorem_value(self, family, r, bits):
        # -B has nonnegative Taylor coefficients, so the circle's max is |B(r)|.
        # The scan starts at theta = 0, so it cannot read less; it may read
        # more by rounding: relatively 2**-(bits//2), or, where |B| lies below
        # the rounding floor of the terms e**(z**2/2) and L(z) that cancel in
        # it, a few units in the last place of e**(r**2/2).
        kind, value = family
        if kind == "rule":
            m = build_rule(value, bits)
        else:
            m = TruncatedGaussian(value, bits)
        axis = sup_on_circle(m, r, n_samples=16)
        scan = forced_scan(m, r, 16)
        assert axis.method == "real-axis" and scan.method == "scan"
        two = PReal(2, bits)
        floor = exp(PReal(r, bits) ** 2 / 2) * two ** (4 - bits)
        assert axis.sup_value <= scan.sup_value
        assert scan.sup_value <= axis.sup_value * (1 + two ** -(bits // 2)) + floor


class TestLineScan:
    def test_two_point_rule_on_imaginary_axis(self):
        m = build_rule(2, 256)
        report = sup_on_line(m, 0, n_samples=128)
        # max_y |cos y - exp(-y^2/2)| sits where sin y = y exp(-y^2/2)
        assert float(report.sup_value) == pytest.approx(1.0074649012, abs=1e-9)
        assert report.certified
        assert float(report.witness.imag) == pytest.approx(3.11740748, abs=1e-6)

    def test_matches_numpy_grid(self):
        m = build_rule(2, 256)
        report = sup_on_line(m, 0.5, n_samples=128)
        ys = np.linspace(0.0, float(report.height), 40001)
        z = 0.5 + 1j * ys
        err = np.abs(np.cosh(z) - np.exp(z * z / 2))
        assert float(report.sup_value) == pytest.approx(float(err.max()), rel=1e-9)

    def test_uncertifiable_scan_reports_honestly(self):
        m = TruncatedGaussian(2, 192)
        report = sup_on_line(m, 0, n_samples=64)
        assert not report.certified
        assert float(report.tail_ceiling) > float(report.sup_value)

    def test_needs_compact_support(self):
        with pytest.raises(ConfigError):
            sup_on_line(StandardGaussian(128), 1)

    def test_negative_offset_rejected(self):
        m = build_rule(2, 128)
        with pytest.raises(ConfigError):
            sup_on_line(m, -1)


class TestNoiseFloor:
    """check_above_noise_floor: 2**(16 - bits) * exp(r**2/2) on circles and lines."""

    def test_real_axis_sup_at_the_floor_fails_and_above_it_passes(self):
        low = sup_on_circle(build_rule(12, 96), 0.25)
        assert low.method == "real-axis" and float(low.sup_value) < 8.5e-25
        with pytest.raises(ConfigError, match=r"^S is rounding noise at 96 bits: .*exp\(b\*\*2/2\)$"):
            check_above_noise_floor(low, "S", "b")
        check_above_noise_floor(sup_on_circle(build_rule(12, 256), 0.25), "S", "b")

    def test_zero_fails_on_the_real_axis_only(self):
        exact = sup_on_circle(build_rule(4, 128), 1)
        zero = exact._replace(sup_value=PReal(0, 128))
        with pytest.raises(ConfigError, match="^S rounds to zero at 128 bits$"):
            check_above_noise_floor(zero, "S", "r")
        check_above_noise_floor(zero._replace(method="scan"), "S", "r")
        check_above_noise_floor(sup_on_circle(StandardGaussian(128), 2, n_samples=16), "S", "r")

    def test_scanned_sup_fails_only_at_or_below_the_floor(self):
        scanned = forced_scan(build_rule(4, 128), 1, 16)
        floor = PReal(2, 128) ** (16 - 128) * exp(PReal("0.5", 128))
        check_above_noise_floor(scanned._replace(sup_value=floor * 4), "S", "r")
        with pytest.raises(ConfigError, match="rounding noise"):
            check_above_noise_floor(scanned._replace(sup_value=floor / 4), "S", "r")

    def test_a_line_takes_its_offset_as_r(self):
        line = sup_on_line(build_rule(2, 128), 3, n_samples=16)
        floor = PReal(2, 128) ** (16 - 128) * exp(PReal("4.5", 128))
        check_above_noise_floor(line._replace(sup_value=floor * 4), "S", "r")
        with pytest.raises(ConfigError, match="rounding noise"):
            check_above_noise_floor(line._replace(sup_value=floor / 4), "S", "r")
        check_above_noise_floor(line._replace(sup_value=PReal(0, 128)), "S", "r")

    def test_a_scaled_floor_writes_its_scale(self):
        floor = PReal(2, 128) ** (16 - 128) * 8
        check_value_above_scaled_floor(floor * 4, 3.0, "S", "8")
        with pytest.raises(ConfigError, match=r"^S is rounding noise at 128 bits: .* \* 8$"):
            check_value_above_scaled_floor(floor / 4, 3.0, "S", "8")

    @pytest.mark.parametrize("bits", [128, 192, 3000])
    def test_the_floor_is_compared_exactly(self, bits):
        # log2 S = 0.7: 0.75 * floor has the floor's binary exponent, so an
        # exponent comparison would pass it.
        floor = PReal(2, bits) ** (16 - bits) * exp(PReal("0.7", bits) * log(PReal(2, bits)))
        check_value_above_scaled_floor(floor * PReal("1.5", bits), 0.7, "S", "S")
        with pytest.raises(ConfigError, match="^S is rounding noise"):
            check_value_above_scaled_floor(floor * PReal("0.75", bits), 0.7, "S", "S")


class TestGrowthProfile:
    def test_envelope_holds_for_small_support(self):
        m = build_rule(2, 320)
        profile = growth_profile(m, [6, 10], n_samples=64)
        assert profile.envelope_checked == (True, True)
        assert all(rep.method == "real-axis" for rep in profile.reports)
        for rep, r in zip(profile.reports, (6, 10)):
            lower = math.exp(r * r / 2) / 2
            assert float(rep.sup_value) >= lower

    def test_small_radii_not_checked(self):
        m = build_rule(2, 192)
        profile = growth_profile(m, [1, 2], n_samples=32)
        assert profile.envelope_checked == (False, False)

    def test_violation_detected(self):
        class FlatLiar(Measure):
            # claims compact support but reports zero transform error
            def __init__(self, bits):
                self.bits = bits

            def support_radius(self):
                return PReal(1, self.bits)

            def is_symmetric(self):
                return True

            def laplace(self, z):
                return StandardGaussian(self.bits).laplace(z)

        with pytest.raises(EnvelopeViolation):
            growth_profile(FlatLiar(192), [6], n_samples=32)


class TestThreeCircles:
    def test_quadrature_measure_convex(self):
        bits = working_bits(4, 20)
        m = build_rule(k_for_support(4), bits)
        report = three_circles_check(m, 1, 12, 20, n_samples=64)
        assert report.status == "ok"
        assert float(report.margin) > 0
        assert not report.retried

    def test_gaussian_transform_function_convex(self):
        class GaussianError(Measure):
            # an error function equal to exp(z^2/2), scanned over the circle
            bits = 320

            def laplace_error(self, z):
                return exp(z * z / 2)

        report = three_circles_check(GaussianError(), 1, math.sqrt(10), 10, n_samples=48)
        # exactly log-midpoint radii: lam = 1/2
        assert float(report.lam) == pytest.approx(0.5, abs=1e-12)
        # log M(r) = r^2/2 gives margin (1/2 + 100/2)/2 - 10/2 = 20.25
        assert float(report.margin) == pytest.approx(20.25, abs=1e-6)

    def test_degenerate_when_error_vanishes(self):
        report = three_circles_check(StandardGaussian(192), 1, 2, 4, n_samples=32)
        assert report.status == "degenerate"

    def test_plain_function_needs_bits(self):
        # only a Measure is accepted; a plain function is rejected
        with pytest.raises(ConfigError, match="expects a Measure"):
            three_circles_check(lambda z: z, 1, 2, 3)

    def test_radii_must_increase(self):
        m = StandardGaussian(128)
        with pytest.raises(ConfigError):
            three_circles_check(m, 2, 1, 3)


class KinkedLines(Measure):
    # the line sup at offset 3 is 100 during the first ``kinked_scans`` line
    # scans and 1 after them; it is 1 at every other offset
    bits = 128

    def __init__(self, kinked_scans):
        self.scans = 0
        self.kinked_scans = kinked_scans

    def support_radius(self):
        return PReal(1, self.bits)

    def laplace_error(self, z):
        if z.imag.is_zero():  # every line scan starts at Im z = 0
            self.scans += 1
        kinked = float(z.real) == 3 and self.scans <= self.kinked_scans
        return PReal(100 if kinked else 1, self.bits)


class TestThreeLines:
    def test_two_point_rule_convex(self):
        m = build_rule(2, 320)
        report = three_lines_check(m, 0, 3, 6, n_samples=64)
        assert report.status == "ok"
        assert 4.0 < float(report.margin) < 5.5
        assert float(report.lam) == pytest.approx(0.5)

    def test_offsets_validated(self):
        m = build_rule(2, 128)
        with pytest.raises(ConfigError):
            three_lines_check(m, 3, 0, 6)
        with pytest.raises(ConfigError):
            three_lines_check(m, -1, 0, 1)

    def test_failure_is_retried_at_four_times_density(self):
        m = KinkedLines(kinked_scans=6)
        with pytest.raises(ConvexityViolation, match="three-lines inequality failed at offsets"):
            three_lines_check(m, 0, 3, 6, n_samples=16)
        assert m.scans == 6

    def test_failure_that_the_rescan_clears_reports_the_retry(self):
        m = KinkedLines(kinked_scans=3)  # the first pass only
        report = three_lines_check(m, 0, 3, 6, n_samples=16)
        assert report.retried and report.status == "ok"
        assert m.scans == 6


def test_circle_and_line_checks_share_one_report_type():
    m = build_rule(2, 320)
    lines = three_lines_check(m, 0, 3, 6, n_samples=16)
    circles = three_circles_check(m, 1, 2, 4, n_samples=16)
    assert type(lines) is ConvexityReport and type(circles) is ConvexityReport
