"""Property tests of the scalar layer: every operator and elementary
function rounds as libmp does, for PReal and PComplex alike; values cross
the raw boundary unchanged; and equal scalars hash equally."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_div,
    mpc_exp,
    mpc_mul,
    mpc_neg,
    mpc_pos,
    mpc_pow_int,
    mpc_sqrt,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
)

from gausdisk.disks import sup_on_circle, sup_on_line, three_circles_check, three_lines_check
from gausdisk.errors import ConfigError
from gausdisk.experiments import run_figure, tail_bound_value, validate_tail_bound
from gausdisk.hermite import build_rule
from gausdisk.measures import DiscreteMeasure, char_bound_check
from gausdisk.precision import (
    PComplex,
    PReal,
    _like,
    _pair,
    _real,
    _scalar,
    exp,
    sqrt,
    working_bits,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)
PER_PAIR = settings(PROPERTY, max_examples=20)

OPS = {
    operator.add: (mpf_add, mpc_add),
    operator.sub: (mpf_sub, mpc_sub),
    operator.mul: (mpf_mul, mpc_mul),
    operator.truediv: (mpf_div, mpc_div),
}

bits = st.integers(64, 1024)
floats = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(-(2**80), 2**80)
# Mantissas wider than the precision, so the constructor rounds them.
wide = st.builds(
    lambda m, e, b: PReal(m, b) / PReal(2) ** e,
    st.integers(-(2**1100), 2**1100), st.integers(-40, 40), bits,
)
reals = st.one_of(st.builds(PReal, floats, bits), wide)
complexes = st.builds(
    lambda re, im, b: PComplex(re, im, bits=b), reals, reals, st.one_of(st.none(), bits)
)
scalars = st.one_of(reals, complexes)
KINDS = {"PReal": reals, "PComplex": complexes, "int": ints, "float": floats}
# Every pairing with at least one package scalar, in both orders, so each
# forward and reflected operator of both classes is reached.
PAIRS = [(lk, rk) for lk in KINDS for rk in KINDS if "P" in lk[0] + rk[0]]


def as_raw(x, lift: bool):
    """The operand as libmp sees it; a real one as an (re, 0) pair if ``lift``."""
    if isinstance(x, PComplex):
        return x.raw
    raw = x.raw if isinstance(x, PReal) else from_int(x) if isinstance(x, int) else from_float(x)
    return (raw, fzero) if lift else raw


@pytest.mark.parametrize("op", OPS, ids=lambda op: op.__name__)
@pytest.mark.parametrize("left_kind, right_kind", PAIRS)
def test_binary_operations_match_libmp(op, left_kind, right_kind):
    @PER_PAIR
    @given(KINDS[left_kind], KINDS[right_kind])
    def check(left, right):
        prec = max(x.bits for x in (left, right) if isinstance(x, (PReal, PComplex)))
        kind = PComplex if PComplex in (type(left), type(right)) else PReal
        lift = kind is PComplex
        try:
            want = OPS[op][lift](as_raw(left, lift), as_raw(right, lift), prec, round_nearest)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                op(left, right)
            return
        got = op(left, right)
        assert type(got) is kind
        assert (got.bits, got.raw) == (prec, want)

    check()


@PROPERTY
@given(scalars)
def test_raw_pair_round_trip_is_the_identity(z):
    back = _like(z, _pair(z), z.bits)
    assert type(back) is type(z)
    assert (back.bits, back.raw) == (z.bits, z.raw)


@pytest.mark.parametrize("convert", [_real, _scalar])
@pytest.mark.parametrize("value", [True, False, "1", None])
def test_boundary_rejects_non_numbers(convert, value):
    with pytest.raises(ConfigError):
        convert(value)


# -- the rest of the shared core: one definition serves both classes ------

exponents = st.integers(-12, 12)


@PROPERTY
@given(scalars, exponents)
def test_integer_power_matches_libmp(x, n):
    fn = mpc_pow_int if isinstance(x, PComplex) else mpf_pow_int
    try:
        want = fn(x.raw, n, x.bits, round_nearest)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            x**n
        return
    got = x**n
    assert type(got) is type(x) and (got.bits, got.raw) == (x.bits, want)


@PROPERTY
@given(scalars)
def test_negation_is_exact(x):
    got = -x
    want = mpc_neg(x.raw) if isinstance(x, PComplex) else mpf_neg(x.raw)
    assert type(got) is type(x) and (got.bits, got.raw) == (x.bits, want)


@PROPERTY
@given(scalars)
def test_abs_matches_libmp(x):
    # A real's abs is exact; a complex one's modulus rounds at its bits.
    got = abs(x)
    want = mpc_abs(x.raw, x.bits, round_nearest) if isinstance(x, PComplex) else mpf_abs(x.raw)
    assert type(got) is PReal and (got.bits, got.raw) == (x.bits, want)


@PROPERTY
@given(scalars, bits)
def test_round_to_matches_libmp(x, prec):
    got = x.round_to(prec)
    fn = mpc_pos if isinstance(x, PComplex) else mpf_pos
    assert type(got) is type(x) and (got.bits, got.raw) == (prec, fn(x.raw, prec, round_nearest))


# exp of a value near 2**40 would not fit in memory; keep arguments moderate.
moderate = st.builds(PReal, st.floats(-700, 700), bits)
moderate_scalars = st.one_of(
    moderate, st.builds(lambda re, im: PComplex(re, im), moderate, moderate)
)


@PROPERTY
@given(moderate_scalars)
def test_exp_matches_libmp(x):
    fn = mpc_exp if isinstance(x, PComplex) else mpf_exp
    got = exp(x)
    assert type(got) is type(x)
    assert (got.bits, got.raw) == (x.bits, fn(x.raw, x.bits, round_nearest))


@PROPERTY
@given(scalars)
def test_sqrt_matches_libmp(x):
    if isinstance(x, PReal) and x < 0:
        with pytest.raises(ConfigError):
            sqrt(x)
        return
    fn = mpc_sqrt if isinstance(x, PComplex) else mpf_sqrt
    got = sqrt(x)
    assert type(got) is type(x)
    assert (got.bits, got.raw) == (x.bits, fn(x.raw, x.bits, round_nearest))


@PROPERTY
@given(st.one_of(reals, ints, floats), st.one_of(st.none(), bits))
def test_real_is_the_old_ladder(x, prec):
    # The atom, tail-bound and err_quad sites used to write
    # ``x if isinstance(x, PReal) else PReal(x, bits)``.
    got = _real(x, prec)
    if isinstance(x, PReal):
        assert got is x
    else:
        want = PReal(x, prec)
        assert type(got) is PReal and (got.bits, got.raw) == (want.bits, want.raw)


@PROPERTY
@given(reals, st.integers(64, 256))
def test_real_rounded_is_the_old_disk_ladder(x, prec):
    # disks rounds a PReal radius or offset to the measure's bits.
    got = _real(x, prec).round_to(prec)
    want = x if x.bits == prec else x.round_to(prec)
    assert (got.bits, got.raw) == (want.bits, want.raw)


def _measure():
    return build_rule(3, 96)


@pytest.mark.parametrize(
    "site",
    [
        lambda v: DiscreteMeasure([(v, 1)], bits=64),
        lambda v: DiscreteMeasure([(0, v)], bits=64),
        lambda v: tail_bound_value(v, 4, 1),
        lambda v: tail_bound_value(1, v, 1),
        lambda v: tail_bound_value(1, 4, v),
        lambda v: validate_tail_bound(4, 1, err_quad=v),
        lambda v: sup_on_circle(_measure(), v),
        lambda v: sup_on_line(_measure(), v),
        lambda v: three_circles_check(_measure(), v, 2, 3),
        lambda v: three_lines_check(_measure(), v, 2, 3),
        lambda v: working_bits(v),
        lambda v: validate_tail_bound(4, v),
        lambda v: run_figure([4], b=v),
        lambda v: char_bound_check(v, 0.5, 0.25),
    ],
    ids=[
        "atom-location", "atom-mass", "tail-c1", "tail-a", "tail-b", "err-quad",
        "circle-radius", "line-offset", "three-circles", "three-lines",
        "working-bits", "tail-chain-b", "figure-b", "char-sweep-a",
    ],
)
@pytest.mark.parametrize("value", ["1", True, PComplex(1, 1)])
def test_former_ladder_sites_take_numbers_only(site, value):
    with pytest.raises(ConfigError):
        site(value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: working_bits("4"),
        lambda: validate_tail_bound("4", "1"),
        lambda: run_figure(["4", "5"]),
        lambda: char_bound_check("1", 0.5, 0.25),
    ],
    ids=["working-bits", "tail-chain", "figure-grid", "char-sweep"],
)
def test_decimal_strings_are_not_numbers(call):
    # Each of these once read its string through float() and ran.
    with pytest.raises(ConfigError, match="expected a real scalar"):
        call()


# -- hashing: equal values hash equally, as Python requires -------------

small_ints = st.integers(-(2**70), 2**70)


@PROPERTY
@given(st.one_of(small_ints, floats), bits)
def test_equal_reals_hash_equally(v, prec):
    # Exact at any precision: a float has 53 bits, and an int keeps its own.
    x = PReal(v) if isinstance(v, int) else PReal(v, prec)
    z = PComplex(x, 0)
    forms = [v, x, x.round_to(max(prec, x.bits) + 7)]
    if float(x) == v:
        forms += [float(x), complex(float(x), 0.0)]
    assert x == v
    for form in forms:
        for y in (x, z):
            assert form == y and y == form and hash(form) == hash(y)


@PROPERTY
@given(floats, floats, bits)
def test_equal_complexes_hash_equally(re, im, prec):
    c = complex(re, im)
    z = PComplex(c, bits=prec)
    assert z == c and hash(z) == hash(c)
    assert z.round_to(prec + 64) == z and hash(z.round_to(prec + 64)) == hash(z)


@PROPERTY
@given(reals)
def test_reals_beyond_double_hash_as_their_complex(x):
    z = PComplex(x, 0)
    assert z == x and hash(z) == hash(x)


@pytest.mark.parametrize("v", [1, -1, -0.5, 3, 2**70, -(2**70)])
def test_pinned_hashes(v):
    assert hash(PReal(v, 96)) == hash(v)
    assert hash(PComplex(v, 0, bits=96)) == hash(v) == hash(complex(v))


def test_equal_scalars_share_a_set_entry():
    one = PReal(1, 64)
    assert len({one, 1}) == 1
    assert len({one, PComplex(1, 0, bits=64)}) == 1
    assert one in {1} and PComplex(-1, 0, bits=64) in {-1}


@PROPERTY
@given(floats, floats, bits)
def test_real_equals_a_complex_exactly_when_its_imaginary_part_is_zero(re, im, prec):
    x = PReal(re, prec)
    c = complex(re, im)
    assert (x == c) == (c == x) == (im == 0) == (PComplex(x, 0) == c)
    assert (x != c) == (im != 0)


def test_complex_takes_no_arithmetic_or_ordering_with_a_real():
    x = PReal(0, 64)
    assert x == 0j and 0j == x and PComplex(0, 0, bits=64) == 0j
    for op in (operator.add, operator.mul, operator.lt, operator.ge):
        with pytest.raises(TypeError):
            op(x, 0j)
        with pytest.raises(TypeError):
            op(0j, x)
