"""Quadrature rules: polynomial recurrence, nodes, weights, moments."""

import io
import math
import os
import subprocess
import sys

import numpy.polynomial.hermite_e as hermite_e
import pytest

from gausdisk import hermite
from gausdisk.disks import sup_on_circle
from gausdisk.errors import ConfigError
from gausdisk.hermite import (
    MAX_RULE_SIZE,
    QuadratureRule,
    build_rule,
    hermite_pair,
    k_for_support,
    moment,
    rule_to_csv,
)
from gausdisk.measures import DiscreteMeasure
from gausdisk.precision import PComplex, PReal, double_factorial, sqrt


def monic_poly_value(n: int, x: float) -> float:
    """Value of the degree-n monic orthogonal polynomial for the weight
    exp(-x**2/2), evaluated through numpy's hermite_e basis."""
    coeffs = [0.0] * n + [1.0]
    return float(hermite_e.hermeval(x, coeffs))


class TestHermitePair:
    def test_hand_values(self):
        x = PReal(2, 128)
        h2, h1 = hermite_pair(2, x)
        assert h2 == 3  # x**2 - 1 at x=2
        assert h1 == 2  # x at x=2
        h3, h2b = hermite_pair(3, x)
        assert h3 == 2  # x**3 - 3x at x=2
        assert h2b == h2
        h4, _ = hermite_pair(4, x)
        assert h4 == -5  # x**4 - 6x**2 + 3 at x=2

    def test_against_numpy_basis(self):
        for n in range(1, 15):
            for xf in (-3.25, -0.5, 0.125, 1.0, 2.75):
                ours = float(hermite_pair(n, PReal(xf, 192))[0])
                ref = monic_poly_value(n, xf)
                assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_zeroth_and_first(self):
        x = PReal(1.5, 64)
        value, below = hermite_pair(1, x)
        assert value == x and below == 1

    def test_order_zero_convention(self):
        value, below = hermite_pair(0, PReal(7, 64))
        assert value == 1 and below.is_zero()

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_python_complex_is_lifted_at_64_bits(self, n):
        ours = hermite_pair(n, 1.25 + 0.5j)
        ref = hermite_pair(n, PComplex(1.25, 0.5, bits=64))
        assert [(v.bits, v.raw) for v in ours] == [(v.bits, v.raw) for v in ref]


class TestBuildRule:
    def test_single_point_rule(self):
        rule = build_rule(1, 128)
        assert rule.k == 1
        assert rule.nodes == (PReal(0, 128),)
        assert rule.weights == (PReal(1, 128),)

    @pytest.mark.parametrize("bits", [64, 65, 96, 128, 197, 256, 1000])
    def test_single_point_rule_from_the_general_path(self, bits):
        # k = 1 has no special case: the lone root 0 and its weight come
        # out of the same code as every other rule.
        rule = build_rule(1, bits)
        assert (rule.k, rule.bits, rule.error_peaks_on_real_axis()) == (1, bits, True)
        assert [v.raw for v in rule.nodes] == [PReal(0, bits).raw]
        assert [v.raw for v in rule.weights] == [PReal(1, bits).raw]
        assert {v.bits for v in rule.nodes + rule.weights} == {bits}

    def test_rule_is_its_own_measure(self):
        # The kernel probes still convert with from_quadrature; it must hand
        # back the rule itself, whose circle sup takes the theorem's path.
        rule = build_rule(8, 128)
        assert isinstance(rule, QuadratureRule) and isinstance(rule, DiscreteMeasure)
        assert DiscreteMeasure.from_quadrature(rule) is rule
        assert sup_on_circle(rule, 1, n_samples=16).method == "real-axis"

    def test_two_point_rule_exact(self):
        rule = build_rule(2, 256)
        assert [float(n) for n in rule.nodes] == [-1.0, 1.0]
        half = PReal("0.5", 256)
        assert rule.weights == (half, half)

    def test_three_point_rule(self):
        rule = build_rule(3, 256)
        root3 = sqrt(PReal(3, 256))
        assert abs(rule.nodes[2] - root3) < PReal(2, 256) ** -250
        assert float(rule.nodes[1]) == 0.0
        assert abs(rule.weights[1] - PReal(2, 256) / 3) < PReal(2, 256) ** -250
        assert abs(rule.weights[0] - PReal(1, 256) / 6) < PReal(2, 256) ** -250

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7, 8])
    def test_against_numpy_gauss_rule(self, k):
        nodes_ref, weights_ref = hermite_e.hermegauss(k)
        weights_ref = weights_ref / weights_ref.sum()
        rule = build_rule(k, 192)
        for ours, ref in zip(rule.nodes, nodes_ref):
            assert float(ours) == pytest.approx(float(ref), abs=1e-12)
        for ours, ref in zip(rule.weights, weights_ref):
            assert float(ours) == pytest.approx(float(ref), abs=1e-13)

    @pytest.mark.parametrize("k", [2, 5, 10, 17, 25])
    def test_structure(self, k):
        bits = 256
        rule = build_rule(k, bits)
        nodes, weights = rule.nodes, rule.weights
        assert len(nodes) == len(weights) == k
        # strict ascending order
        assert all(a < b for a, b in zip(nodes, nodes[1:]))
        # exact mirror symmetry at the raw level
        for left, right in zip(nodes, reversed(nodes)):
            assert (left + right).is_zero()
        for left, right in zip(weights, reversed(weights)):
            assert left == right
        assert all(w > 0 for w in weights)
        total = weights[0]
        for w in weights[1:]:
            total = total + w
        assert abs(total - 1) <= PReal(2, bits) ** -(bits - 16)

    def test_nodes_inside_support_bound(self):
        for k in (1, 2, 6, 12, 20):
            rule = build_rule(k, 128)
            bound = math.sqrt(4 * k + 2)
            assert float(rule.support_radius()) <= bound + 1e-12
            assert all(abs(float(x)) < bound for x in rule.nodes)

    def test_interlacing_with_next_size(self):
        small = build_rule(6, 128)
        big = build_rule(7, 128)
        for i, x in enumerate(small.nodes):
            assert big.nodes[i] < x < big.nodes[i + 1]

    def test_newton_residual_tiny(self):
        bits = 512
        rule = build_rule(9, bits)
        for x in rule.nodes:
            if x.is_zero():
                continue
            value, below = hermite_pair(9, PReal(x, bits + 64))
            step = abs(value / (9 * below))
            assert step < PReal(2, bits) ** -(bits - 16)

    def test_each_call_builds_a_distinct_equal_rule(self):
        first, second = build_rule(4, 128), build_rule(4, 128)
        assert first is not second
        assert first.bits == second.bits == 128
        assert [(x.raw, w.raw) for x, w in first.atoms] == [
            (x.raw, w.raw) for x, w in second.atoms
        ]

    def test_patched_instance_does_not_reach_the_next_call(self):
        # A wrapper set on one rule, as the kernel probes set one to count
        # laplace calls, stays on that instance alone.
        rule = build_rule(8, 128)
        rule.laplace = lambda z: None
        fresh = build_rule(8, 128)
        assert "laplace" not in vars(fresh)
        assert fresh.laplace.__func__ is DiscreteMeasure.laplace

    def test_rejects_bad_k(self):
        with pytest.raises(ConfigError):
            build_rule(0, 128)
        with pytest.raises(ConfigError):
            build_rule(True, 128)

    def test_rejects_k_above_maximum(self):
        assert MAX_RULE_SIZE == k_for_support(64)
        with pytest.raises(ConfigError, match="exceeds the maximum 512"):
            build_rule(MAX_RULE_SIZE + 1, 64)


def eigvalsh_seeds(k: int) -> list[float]:
    """The positive roots of He_k as eigenvalues of the k x k Jacobi matrix
    (Golub & Welsch), the double-precision seeds build_rule once used."""
    np = pytest.importorskip("numpy")
    off = np.sqrt(np.arange(1.0, k))
    seeds = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    return [float(s) for s in seeds if s > 1e-9]


def rule_tags(rule):
    return [x.serialize() for x in rule.nodes] + [w.serialize() for w in rule.weights]


class TestDoubleSeeds:
    """The Sturm-bracketed Newton seeds against the eigenvalue oracle."""

    def test_rules_match_eigvalsh_seeding_bit_for_bit(self, monkeypatch):
        pairs = [(k, bits) for bits in (64, 256, 830) for k in range(1, 65)]
        pairs += [(100, 256), (128, 256)]
        ours = {pair: rule_tags(build_rule(*pair)) for pair in pairs}
        monkeypatch.setattr(hermite, "_double_seeds", eigvalsh_seeds)
        for pair in pairs:
            assert rule_tags(build_rule(*pair)) == ours[pair], pair

    @pytest.mark.parametrize("k", list(range(2, 131)) + [199, 256, 400, 512])
    def test_seeds_match_eigvalsh(self, k):
        ref = eigvalsh_seeds(k)
        ours = hermite._double_seeds(k)
        assert len(ours) == len(ref) == k // 2
        for x, y in zip(ours, ref):
            assert abs(x - y) <= 1e-12 * y

    def test_ratio_through_an_exact_zero(self):
        # x = 1 is a root of He_2, so r_2 = 0 on the way to
        # r_4 = He_4(1) / He_3(1) = -2 / -2; one root of He_4 lies above 1.
        assert hermite._ratio_count(4, 1.0) == (1.0, 1)

    @pytest.mark.parametrize("blocked", [True, False])
    def test_cli_runs_without_numpy(self, tmp_path, blocked):
        # Blocked, any import of numpy fails; unblocked, none may happen.
        script = (
            "import sys\n"
            + ("sys.modules['numpy'] = None\n" if blocked else "")
            + "from gausdisk.cli import main\n"
            "for argv in (['verify', '--quick'], ['rule', '--k', '8'],\n"
            "             ['figure', '--grid', '4,5', '--samples', '16']):\n"
            "    code = main(argv)\n"
            "    if code:\n"
            "        sys.exit(f'{argv} exited {code}')\n"
            "if sys.modules.get('numpy') is not None:\n"
            "    sys.exit('numpy was imported')\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr


class TestMoments:
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_matched_even_moments(self, k):
        bits = 256
        rule = build_rule(k, bits)
        tol = PReal(2, bits) ** -128
        for i in range(0, 2 * k, 2):
            target = double_factorial(i - 1)
            gap = abs(moment(rule, i) - target)
            # the moment itself grows like (i-1)!!; compare relatively
            assert gap <= tol * target

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_odd_moments_exactly_zero(self, k):
        rule = build_rule(k, 256)
        for i in range(1, 2 * k, 2):
            assert moment(rule, i).is_zero()

    def test_first_unmatched_moment_differs(self):
        k = 4
        rule = build_rule(k, 256)
        target = double_factorial(2 * k - 1)
        gap = abs(moment(rule, 2 * k) - target)
        assert gap > PReal(1, 256)

    def test_moment_against_bruteforce_float(self):
        rule = build_rule(6, 192)
        for i in (2, 4, 6):
            brute = sum(float(w) * float(x) ** i for x, w in rule.atoms)
            assert float(moment(rule, i)) == pytest.approx(brute, rel=1e-12)

    def test_rejects_a_measure_that_is_not_a_rule(self):
        rule = build_rule(3, 128)
        lopsided = [(PReal(-1, 128), PReal(0.25, 128)), (PReal(2, 128), PReal(0.75, 128))]
        for measure in (DiscreteMeasure(rule.atoms), DiscreteMeasure(lopsided)):
            with pytest.raises(ConfigError, match="QuadratureRule"):
                moment(measure, 2)


class TestKForSupport:
    @pytest.mark.parametrize(
        "a,expected",
        [(4, 2), (5, 4), (6, 5), (7, 7), (8, 8), (10, 13), (12, 18), (4.5, 3)],
    )
    def test_values(self, a, expected):
        assert k_for_support(a) == expected

    def test_matches_ceiling_formula(self):
        for tenth in range(40, 160):
            a = tenth / 10
            assert k_for_support(a) == math.ceil(a * a / 8)

    def test_rule_fits_inside(self):
        for a in (4, 5.5, 7, 9, 12):
            k = k_for_support(a)
            assert math.sqrt(4 * k + 2) <= a

    def test_too_small_support_rejected(self):
        with pytest.raises(ConfigError):
            k_for_support(2)
        with pytest.raises(ConfigError):
            k_for_support(1)

    def test_boundary_is_strict_about_rounding(self):
        # sqrt(6) rounded to 256 bits lands just below the true value,
        # so its square cannot host the k=1 rule; a hair above it can.
        with pytest.raises(ConfigError):
            k_for_support(sqrt(PReal(6, 256)))
        assert k_for_support(2.4495) == 1


class TestCsv:
    def test_roundtrip_bit_exact(self):
        rule = build_rule(7, 300)
        buf = io.StringIO()
        rule_to_csv(rule, buf)
        back = DiscreteMeasure.from_csv(io.StringIO(buf.getvalue()))
        # Read back, the atoms are a plain measure: the file carries no
        # Gauss-Hermite promise.
        assert type(back) is DiscreteMeasure and not back.error_peaks_on_real_axis()
        assert back.bits == rule.bits
        assert [(x.raw, w.raw) for x, w in back.atoms] == [
            (x.raw, w.raw) for x, w in rule.atoms
        ]

    def test_header_required(self):
        with pytest.raises(ConfigError):
            DiscreteMeasure.from_csv(io.StringIO("1e0@64,1e0@64\n"))

    @staticmethod
    def rows(*atoms):
        return io.StringIO("node,weight\n" + "".join(f"{x},{w}\n" for x, w in atoms))

    def test_negative_weight_rejected(self):
        atoms = (("-1e0@64", "75e-2@64"), ("0e0@64", "-5e-1@64"), ("1e0@64", "75e-2@64"))
        with pytest.raises(ConfigError, match="nonnegative"):
            DiscreteMeasure.from_csv(self.rows(*atoms))

    def test_weights_not_summing_to_one_rejected(self):
        with pytest.raises(ConfigError, match="sum to 1"):
            DiscreteMeasure.from_csv(self.rows(("-1e0@64", "5e-1@64"), ("1e0@64", "25e-2@64")))
