"""Tilted Gaussian mixture and its flatness certificate."""

import dataclasses
import io
import math

import mpmath
import pytest

from gausdisk import superflat
from gausdisk.disks import sup_abs_on_circle
from gausdisk.errors import CertificateViolation, ConfigError
from gausdisk.hermite import build_rule, hermite_pair
from gausdisk.measures import DiscreteMeasure
from gausdisk.precision import PComplex, PReal, _inv_sqrt_2pi, exp, pi_value, sqrt
from gausdisk.superflat import (
    build_superflat,
    density_derivative,
    density_derivatives,
    flatness_certificate,
    mixture_density,
    superflat_to_csv,
)


def reference_density_derivative(mix, z, n):
    """The single-order density derivative: one exp and one hermite_pair
    per atom, all in PReal/PComplex arithmetic."""
    bits = max(mix.bits, z.bits)
    zw = z.round_to(bits)
    inv_root = PReal._wrap(_inv_sqrt_2pi(bits), bits)
    total = None
    for x, v in zip(mix.rule.nodes, mix.weights):
        u = zw - x
        term = v * (exp(-(u * u) / 2) * inv_root)
        if n > 0:
            he_n, _ = hermite_pair(n, u)
            term = term * he_n
        total = term if total is None else total + term
    if n % 2:
        total = -total
    return total


def reference_boundary_scan(mix, n_samples):
    """The quarter-arc scan of |L(z)exp(-z**2/2) - 1| over |z| = 2: the
    oracle for the certificate's one-point eps2."""
    b = mix.bits
    return sup_abs_on_circle(
        lambda z: mix.rule.laplace(z) * exp(-(z * z) / 2) - 1,
        PReal(2, b), b, n_samples=n_samples, arc="quarter",
    )


def reference_certificate_scans(mix, n_samples):
    """eps2 and the direct sups of orders 1..4 from independent scans, each
    evaluating its own function at every point."""
    b = mix.bits
    scale = sqrt(2 * pi_value(b)) * mix.tilt_total.round_to(b)
    eps = reference_boundary_scan(mix, n_samples)
    direct = [
        sup_abs_on_circle(
            lambda z, n=n: scale * reference_density_derivative(mix, z, n),
            PReal(1, b), b, n_samples=n_samples, arc="quarter",
        )
        for n in range(1, 5)
    ]
    return eps, direct


class TestBuild:
    def test_small_width_rejected(self):
        with pytest.raises(ConfigError):
            build_superflat(3.5)

    def test_a4_structure(self):
        mix = build_superflat(4, 256)
        assert mix.rule.k == 2
        assert [float(x) for x in mix.rule.nodes] == [-1.0, 1.0]
        # equal source weights stay equal after tilting
        assert mix.weights[0] == mix.weights[1]
        assert abs(mix.weights[0] - PReal("0.5", 256)) <= PReal(2, 256) ** -250

    def test_a4_tilt_total_is_sqrt_e(self):
        mix = build_superflat(4, 256)
        want = exp(PReal("0.5", 256))
        assert abs(mix.tilt_total - want) <= PReal(2, 256) ** -250

    def test_weights_renormalized(self):
        mix = build_superflat(7, 320)
        total = mix.weights[0]
        for w in mix.weights[1:]:
            total = total + w
        assert abs(total - 1) <= PReal(2, 320) ** -300

    def test_tilting_flattens_weight_profile(self):
        mix = build_superflat(8, 512)
        source = [float(w) for w in mix.rule.weights]
        tilted = [float(v) for v in mix.weights]
        # the rule's outer weights are tiny; tilting lifts them
        assert source[0] < tilted[0]
        assert max(tilted) / min(tilted) < max(source) / min(source)

    def test_default_bits_follow_policy(self):
        from gausdisk.precision import working_bits

        mix = build_superflat(5)
        assert mix.bits == working_bits(5.0, 2.0)

    def test_precision_is_the_rules(self):
        mix = build_superflat(4, 256)
        assert mix.bits == mix.rule.bits == 256
        moved = dataclasses.replace(mix, rule=build_rule(mix.rule.k, 320))
        assert moved.bits == 320


class TestDensity:
    def test_value_at_origin_for_a4(self):
        mix = build_superflat(4, 256)
        # two atoms at +-1 with tilted weight 1/2 each
        phi1 = exp(PReal(-0.5, 256)) / sqrt(2 * pi_value(256))
        assert abs(mixture_density(mix, PReal(0, 256)) - phi1) <= PReal(2, 256) ** -240

    def test_against_mpmath_sum(self):
        mix = build_superflat(6, 256)
        with mpmath.workdps(40):
            for zf in (-1.3, 0.2, 2.0):
                ref = mpmath.mpf(0)
                for x, v in zip(mix.rule.nodes, mix.weights):
                    ref += mpmath.mpf(float(v)) * mpmath.npdf(
                        mpmath.mpf(zf) - mpmath.mpf(float(x))
                    )
                got = mixture_density(mix, PReal(zf, 256))
                assert float(got) == pytest.approx(float(ref), rel=1e-13)

    def test_odd_derivatives_vanish_at_origin(self):
        mix = build_superflat(4, 256)
        for n in (1, 3, 5):
            assert float(abs(density_derivative(mix, PReal(0, 256), n))) < 1e-70

    def test_derivative_matches_central_difference(self):
        mix = build_superflat(4, 512)
        z0 = PReal("0.3", 512)
        h = PReal(2, 512) ** -40
        for n in (1, 2):
            plus = density_derivative(mix, z0 + h, n - 1)
            minus = density_derivative(mix, z0 - h, n - 1)
            numeric = (plus - minus) / (2 * h)
            exact = density_derivative(mix, z0, n)
            assert abs(numeric - exact) <= PReal(2, 512) ** -75

    def test_complex_argument(self):
        mix = build_superflat(4, 224)
        z = PComplex(0.5, 1.0, bits=224)
        val = mixture_density(mix, z)
        # conjugate symmetry of a real-coefficient entire function
        conj = mixture_density(mix, z.conjugate())
        assert abs(val.conjugate() - conj) <= PReal(2, 224) ** -200

    def test_rejects_bad_order(self):
        mix = build_superflat(4, 128)
        with pytest.raises(ConfigError):
            density_derivative(mix, PReal(0, 128), -1)


class TestAllOrdersKernel:
    POINTS = [
        PReal(0, 64),
        PReal("0.7", 96),
        PReal(-1.3),
        PReal("2.5", 600),
        PComplex(0.5, 1.0, bits=128),
        PComplex(-1.2, 0.3, bits=64),
        PComplex(0, 2, bits=256),
        PComplex(1e-3, -2, bits=900),
        PComplex(1.5, 0, bits=64),
    ]

    @pytest.mark.parametrize("a", [4, 6, 8])
    def test_matches_single_order_reference_bit_for_bit(self, a):
        mix = build_superflat(a)
        for z in self.POINTS:
            values = density_derivatives(mix, z, 6)
            assert len(values) == 7
            for n, value in enumerate(values):
                want = reference_density_derivative(mix, z, n)
                assert type(value) is type(want)
                assert value.raw == want.raw and value.bits == want.bits, (a, z, n)
                wrapped = density_derivative(mix, z, n)
                assert wrapped.raw == want.raw and wrapped.bits == want.bits
            assert mixture_density(mix, z).raw == values[0].raw

    @pytest.mark.parametrize("a, bits", [(4, 128), (7, None)])
    def test_matches_reference_where_a_direct_constant_differs(self, a, bits):
        # 1/sqrt(2*pi) taken directly at these precisions (128 bits, and
        # a = 7's default of 594) differs in the last bit from the guarded
        # constant that the kernel and the reference share.
        mix = build_superflat(a, bits)
        assert (1 / sqrt(2 * pi_value(mix.bits))).raw != _inv_sqrt_2pi(mix.bits)
        for z in (PReal("0.7", 64), PComplex(-1.2, 0.3, bits=64), PComplex(0, 2, bits=64)):
            for n, value in enumerate(density_derivatives(mix, z, 4)):
                want = reference_density_derivative(mix, z, n)
                assert value.raw == want.raw and value.bits == want.bits, (a, z, n)

    def test_python_scalars_take_the_mixture_precision(self):
        mix = build_superflat(4, 160)
        for z, same in ((0.25, PReal(0.25, 160)), (3, PReal(3, 160)),
                        (0.5 - 1j, PComplex(0.5, -1, bits=160))):
            got = density_derivatives(mix, z, 3)
            want = density_derivatives(mix, same, 3)
            assert [v.raw for v in got] == [v.raw for v in want]
            assert all(v.bits == 160 for v in got)

    @pytest.mark.parametrize("n_max", [-1, 1.0, True, "2"])
    def test_rejects_bad_order(self, n_max):
        with pytest.raises(ConfigError):
            density_derivatives(build_superflat(4, 128), PReal(0, 128), n_max)

    def test_rejects_non_scalar_and_non_mixture(self):
        mix = build_superflat(4, 128)
        with pytest.raises(ConfigError):
            density_derivatives(mix, "1", 2)
        with pytest.raises(ConfigError):
            density_derivatives("mixture", PReal(0, 128), 2)


class TestTransformIdentity:
    def test_identity_on_random_points(self):
        import random

        rng = random.Random(20240817)
        mix = build_superflat(6, 320)
        source = mix.rule
        scale = sqrt(2 * pi_value(320)) * mix.tilt_total
        for _ in range(10):
            z = PComplex(rng.uniform(-2, 2), rng.uniform(-2, 2), bits=320)
            lhs = scale * mixture_density(mix, z)
            rhs = source.laplace(z) * exp(-(z * z) / 2)
            assert abs(lhs - rhs) <= PReal(2, 320) ** -280


class TestCertificate:
    def test_a4_certificate(self):
        mix = build_superflat(4)
        cert = flatness_certificate(mix, n_samples=128)
        assert float(cert.eps2) == pytest.approx(4.07493232, abs=1e-7)
        assert len(cert.derivative_bounds) == 8
        assert len(cert.direct_sups) == 4
        assert all(r <= 1 + superflat._CERTIFICATE_SLACK for r in cert.ratios)

    def test_a6_certificate_flatter(self):
        cert4 = flatness_certificate(build_superflat(4), n_samples=96)
        cert6 = flatness_certificate(build_superflat(6), n_samples=96)
        assert float(cert6.eps2) == pytest.approx(9.832382e-2, rel=1e-5)
        assert float(cert6.eps2) < float(cert4.eps2)

    @pytest.mark.parametrize("a", [4, 6])
    def test_shared_scans_equal_independent_scans(self, a):
        mix = build_superflat(a)
        cert = flatness_certificate(mix, n_samples=64)
        eps, direct = reference_certificate_scans(mix, 64)
        assert cert.eps2.raw == eps.sup_value.raw
        assert cert.eps2_witness.raw == eps.witness.raw
        assert [d.raw for d in cert.direct_sups] == [r.sup_value.raw for r in direct]
        want_ratios = [
            float(r.sup_value / bound) for r, bound in zip(direct, cert.derivative_bounds)
        ]
        assert list(cert.ratios) == want_ratios

    def test_order_scans_share_one_evaluation_per_point(self, monkeypatch):
        kernel_calls = []
        scans = []
        kernel = superflat.density_derivatives
        scan = superflat.sup_abs_on_circle

        def counted_kernel(mix, z, n_max):
            kernel_calls.append(n_max)
            return kernel(mix, z, n_max)

        def recorded_scan(f, *args, **kwargs):
            calls = [0]

            def counted_f(z):
                calls[0] += 1
                return f(z)

            report = scan(counted_f, *args, **kwargs)
            scans.append((report, calls[0]))
            return report

        monkeypatch.setattr(superflat, "density_derivatives", counted_kernel)
        monkeypatch.setattr(superflat, "sup_abs_on_circle", recorded_scan)
        cert = flatness_certificate(build_superflat(4), n_samples=256)
        assert len(scans) == 4  # eps2 takes no scan
        # Every scanned function is still called once per visited point.
        for report, calls in scans:
            assert calls == report.n_samples + 2 + report.refine_iterations
        one_scan = max(calls for _, calls in scans)
        assert len(kernel_calls) <= one_scan + 16
        assert kernel_calls.count(0) == 16  # the identity samples

    def test_direct_sup_past_its_bound_raises(self, monkeypatch):
        # Orders >= 1 scaled by 10: f itself, and so the identity check, is
        # unchanged, while every a = 4 ratio lands above 1.
        kernel = superflat.density_derivatives

        def inflated(mix, z, n_max):
            f, *derivs = kernel(mix, z, n_max)
            return (f, *(10 * d for d in derivs))

        monkeypatch.setattr(superflat, "density_derivatives", inflated)
        with pytest.raises(CertificateViolation, match="exceeded its Cauchy bound"):
            flatness_certificate(build_superflat(4), n_samples=64)

    @pytest.mark.parametrize("a", [4, 4.5, 5, 6, 7, 8])
    def test_eps2_is_the_boundary_scan_sup(self, a):
        # At the policy precision the scan's sup is its theta = pi/2 seed,
        # the one point the certificate evaluates.  Forced precisions of
        # 64-128 bits can let the scan's refinement beat the seed by
        # rounding noise; those are not the policy.
        mix = build_superflat(a)
        for n in (16, 64, 256):
            cert = flatness_certificate(mix, n_samples=n)
            scan = reference_boundary_scan(mix, n)
            assert cert.eps2.raw == scan.sup_value.raw, (a, n)
            assert cert.eps2_witness.raw == scan.witness.raw, (a, n)
            assert cert.eps2_ceiling >= scan.sup_value

    @pytest.mark.parametrize("a", [4, 6, 8])
    def test_ceiling_margin_covers_a_finer_evaluation(self, a):
        cert = flatness_certificate(build_superflat(a), n_samples=16)
        b = cert.bits
        fine = build_superflat(a, b + 256)
        two = PReal(2, b + 256)
        exact = exp(two) * abs(fine.rule.laplace_error(two))
        # The ceiling is e**2 |E(2)|, E the source rule's transform error,
        # rounded up by a relative 2**-(b//2).
        unrounded = cert.eps2_ceiling / (1 + PReal(2, b) ** (-(b // 2)))
        assert abs(unrounded - exact) <= exact * PReal(2, b) ** (-(b // 2) - 8)
        assert cert.eps2_ceiling >= exact
        # The two ends of [e**2 |E(2i)|, e**2 |E(2)|] sit about 6.6x apart.
        assert 6.5 < float(cert.eps2_ceiling / cert.eps2) < 6.8

    def test_bounds_grow_factorially(self):
        cert = flatness_certificate(build_superflat(4), n_samples=64)
        eps = float(cert.eps2)
        for n, bound in enumerate(cert.derivative_bounds, start=1):
            assert float(bound) == pytest.approx(math.factorial(n) * eps, rel=1e-12)

    def test_tampered_mixture_fails_identity_check(self):
        mix = build_superflat(4, 256)
        bad = dataclasses.replace(mix, tilt_total=mix.tilt_total * 2)
        with pytest.raises(CertificateViolation):
            flatness_certificate(bad, n_samples=32)

    def test_rejects_non_mixture(self):
        with pytest.raises(ConfigError):
            flatness_certificate("mixture")

    def test_ceiling_needs_a_gauss_hermite_source(self):
        mix = build_superflat(4, 256)
        unmarked = DiscreteMeasure(mix.rule.atoms, mix.bits)
        with pytest.raises(ConfigError, match="Gauss-Hermite"):
            flatness_certificate(dataclasses.replace(mix, rule=unmarked), n_samples=16)


class TestCsv:
    def test_deterministic_and_tagged(self):
        mix = build_superflat(5, 200)
        buf1, buf2 = io.StringIO(), io.StringIO()
        superflat_to_csv(mix, buf1)
        superflat_to_csv(build_superflat(5, 200), buf2)
        assert buf1.getvalue() == buf2.getvalue()
        text = buf1.getvalue()
        assert text.startswith("# a=5\n# k=4\n# tilt_total=")
        assert "location,weight" in text
        body = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(body) == 1 + mix.rule.k
        for line in body[1:]:
            loc_tag, weight_tag = line.split(",")
            PReal.parse(loc_tag)
            PReal.parse(weight_tag)
