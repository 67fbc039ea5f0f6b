"""Tests of the benchmark's oracle.

    PYTHONPATH=src python3 -m pytest perfbench/test_oracle.py

Closed forms first, then agreement with the library's real-axis values.
"""

import pytest
from mpmath import mp, mpf

import oracle


def test_two_point_rule_is_cosh():
    nodes, weights = oracle.hermite_rule(2, 300)
    with mp.workprec(300):
        assert [float(x) for x in nodes] == [-1.0, 1.0]
        assert abs(weights[0] - mpf(1) / 2) < mpf(2) ** -290
        expected = mp.exp(mpf(1) / 2) - mp.cosh(1)
        assert abs(oracle.quad_error_on_axis(2, "1", 300) - expected) < mpf(2) ** -280


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_odd_rules_have_an_exact_zero_root(k):
    nodes, weights = oracle.hermite_rule(k, 256)
    assert nodes[k // 2] == 0
    with mp.workprec(256):
        assert abs(sum(weights) - 1) < mpf(2) ** -250


def test_three_point_rule():
    nodes, weights = oracle.hermite_rule(3, 256)
    with mp.workprec(256):
        assert abs(nodes[2] - mp.sqrt(3)) < mpf(2) ** -250
        assert abs(weights[1] - mpf(2) / 3) < mpf(2) ** -250


def test_truncated_error_matches_quadrature_of_the_density():
    a = mpf(float("4.37"))
    with mp.workprec(200):
        mass = mp.quad(lambda x: mp.npdf(x), [-a, 0, a])
        lap = mp.quad(lambda x: mp.exp(x) * mp.npdf(x), [-a, 0, a]) / mass
        expected = mp.exp(mpf(1) / 2) - lap
        got = oracle.trunc_error_on_axis("4.37", "1", 200)
        assert abs(got - expected) < mpf(10) ** -45 * expected


def test_digit_agreement():
    assert oracle.agrees_to_digits("1.234", mpf("1.23449"), digits=4)
    assert not oracle.agrees_to_digits("1.234", mpf("1.2346"), digits=4)


@pytest.mark.parametrize("a", ["4.37", "4.6", "5.5", "6.81"])
def test_oracle_matches_library_on_the_real_axis(a):
    measures = pytest.importorskip("gausdisk.measures")
    from gausdisk.hermite import build_rule, k_for_support
    from gausdisk.precision import PReal, working_bits

    bits = working_bits(float(a), 1.0)
    k = k_for_support(PReal(float(a), bits))
    assert k == oracle.k_for_support(a)
    one = PReal(1, bits)
    trunc = abs(measures.TruncatedGaussian(float(a), bits).laplace_error(one))
    quad = abs(measures.DiscreteMeasure.from_quadrature(build_rule(k, bits)).laplace_error(one))
    assert oracle.agrees_to_digits(trunc.str_digits(40), oracle.trunc_error_on_axis(a, "1"))
    assert oracle.agrees_to_digits(quad.str_digits(40), oracle.quad_error_on_axis(k, "1"))
