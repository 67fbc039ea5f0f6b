"""Property tests of the scalar layer: every operator rounds as libmp does,
and values cross the raw boundary unchanged."""

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_float,
    from_int,
    fzero,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_sub,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_sub,
    round_nearest,
)

from gausdisk.errors import ConfigError
from gausdisk.precision import PComplex, PReal, _like, _pair, _real, _scalar

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
