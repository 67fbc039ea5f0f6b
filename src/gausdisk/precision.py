"""Fixed-precision real and complex scalars with explicit rounding.

Every value carries its own precision in bits (``bits >= 64``) and every
arithmetic operation rounds to nearest at an explicit precision, with no
global precision state anywhere.  Binary operations between operands of
different stated precisions round the result to the larger of the two.

The arithmetic engine is mpmath's low-level ``libmp`` layer, which
operates on immutable normalized mantissa/exponent tuples.  Wrapping it
(rather than mpmath's context objects) keeps rounding explicit per
operation and makes values safe to share across threads.

Infinities and NaNs are rejected at construction and whenever an
operation would produce one; see :class:`gausdisk.errors.NonFiniteError`.

PReal and PComplex share one core: each holds one raw libmp value (an mpf
tuple, or for PComplex the pair (re, im) of them) and its bits, and each
arithmetic operator, ``**``, unary minus and ``round_to`` is written once,
calling the ``mpf_*`` or ``mpc_*`` function its class names.  Equal
scalars hash equally, across both classes and Python's int, float and
complex: a PReal hashes with libmp's ``mpf_hash``, which is Python's
numeric hash, and a PComplex with Python's complex rule over its two part
hashes.

The kernels run on raw libmp values, and this module owns the way in and
out: ``_real`` and ``_scalar`` lift Python numbers to PReal and PComplex,
``_pair`` gives a value's raw (re, im) pair, a real one with an exact zero
imaginary part, and ``_like`` rounds a raw pair back to a given value's
kind.

A PReal serializes to an exact decimal tag ``<sign><digits>e<exp10>@<bits>``.
The digit string is the full decimal expansion of the binary value (every
finite binary float has one), so parsing recovers the value bit for bit.
Tags are written and read for PReal values only; a complex value is
printed as its two parts.
``write_tag_rows`` and ``read_tag_rows`` write and read the two-column CSV
tables of tags in which rules, measures and mixtures are stored.
"""

from __future__ import annotations

import functools
import math
import operator
import re
import sys
from typing import Iterable, TextIO

from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    from_man_exp,
    from_str,
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
    mpf_cmp,
    mpf_cos_sin,
    mpf_div,
    mpf_exp,
    mpf_hash,
    mpf_log,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
    to_str,
)

from .errors import ConfigError, NonFiniteError


MIN_BITS = 64
# The largest precision a caller may request: from the command line, a value
# tag or the working_bits policy.  Internal guard precisions above a request
# may exceed it.
MAX_BITS = 2**18

_RND = round_nearest

_LOG10_2 = math.log10(2.0)

# Python hashes a complex number as hash(re) + _HASH_IMAG * hash(im),
# wrapped to a signed machine word.
_HASH_IMAG = sys.hash_info.imag
_HASH_WORD = 2**sys.hash_info.width

# The exponent and the precision of a tag are short numbers; capping their
# digit counts keeps int() away from the interpreter's digit limit.
_TAG_RE = re.compile(r"(-?)([0-9]+)e(-?[0-9]{1,12})@([0-9]{1,12})\Z")

# serialize writes |exp10| < 1.44 * (mantissa digits) for exp10 < 0, since the
# mantissa is odd * 5**-exp10, and exp10 < 0.44 * bits otherwise, since the
# trailing zeros come from factors of 5 in a mantissa of at most ``bits``
# bits.  parse accepts |exp10| up to twice the digit count plus the bits plus
# this allowance, which admits short hand-written tags such as 1e-300@64, so
# its work grows with the tag's length and precision, never with a bare
# exponent.
_EXP10_ALLOWANCE = 4096

# Tags convert between int and decimal text in pieces of at most this many
# digits, below the interpreter's int/str digit limit at any setting.
_CHUNK_DIGITS = 600
_CHUNK_LIMIT = 10**_CHUNK_DIGITS


def _int_to_decimal(n: int) -> str:
    """Decimal digits of n >= 0, split in halves until each piece is short."""
    if n < _CHUNK_LIMIT:
        return str(n)
    half = int(n.bit_length() * _LOG10_2) // 2
    high, low = divmod(n, 10**half)
    return _int_to_decimal(high) + _int_to_decimal(low).zfill(half)


def _decimal_to_int(text: str) -> int:
    """Inverse of :func:`_int_to_decimal` for a string of digits."""
    if len(text) <= _CHUNK_DIGITS:
        return int(text)
    half = len(text) // 2
    return _decimal_to_int(text[:-half]) * 10**half + _decimal_to_int(text[-half:])


def _exact_raw(n: int):
    """The integer n >= 1 as an exact libmp value.  Its trailing zero bits
    are stripped here in one shift; from_int strips them a byte at a time,
    which is quadratic in a long run of them."""
    zeros = (n & -n).bit_length() - 1
    return from_man_exp(n >> zeros, zeros)


def _check_bits(bits: int) -> int:
    if not isinstance(bits, int) or isinstance(bits, bool):
        raise ConfigError(f"precision must be an integer, got {bits!r}")
    if bits < MIN_BITS:
        raise ConfigError(f"precision must be at least {MIN_BITS} bits, got {bits}")
    return bits


def _checked(raw, what: str = "operation"):
    # Normalized mpf tuples use a zero mantissa only for 0 and the three
    # special values, which are distinguished by the exponent slot.
    if raw[1] == 0 and raw != fzero:
        raise NonFiniteError(f"{what} produced a non-finite value")
    return raw


def _checked_pair(pair):
    _checked(pair[0])
    _checked(pair[1])
    return pair


class _Scalar:
    """What PReal and PComplex share: a raw libmp value and a stated
    precision, and the operators that differ only in the libmp functions
    they call.  Each subclass names its functions (``mpf_*`` or ``mpc_*``)
    and its finiteness check, and supplies ``_coerce``, which turns an
    operand into a raw value of its own kind and that operand's bits, or
    None when the operand is not a number it takes."""

    __slots__ = ("_raw", "_bits")

    @classmethod
    def _wrap(cls, raw, bits: int):
        out = object.__new__(cls)
        out._raw = cls._check(raw)
        out._bits = bits
        return out

    @property
    def bits(self) -> int:
        return self._bits

    @property
    def raw(self):
        """The underlying libmp value: a normalized tuple (sign, man, exp,
        bc) for PReal, a pair (re, im) of them for PComplex."""
        return self._raw

    def round_to(self, bits: int):
        """Return this value rounded to nearest at a new stated precision."""
        _check_bits(bits)
        return self._wrap(self._pos(self._raw, bits, _RND), bits)

    def _binop(self, other, op, reverse=False):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        raw, obits = pair
        bits = max(self._bits, obits)
        a, b = (raw, self._raw) if reverse else (self._raw, raw)
        return self._wrap(op(a, b, bits, _RND), bits)

    # Addition and multiplication round the exact result, so their operands
    # commute bit for bit and the reflected forms need no swap.
    def __add__(self, other):
        return self._binop(other, self._add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, self._sub)

    def __rsub__(self, other):
        return self._binop(other, self._sub, reverse=True)

    def __mul__(self, other):
        return self._binop(other, self._mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, self._div)

    def __rtruediv__(self, other):
        return self._binop(other, self._div, reverse=True)

    def __pow__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return self._wrap(self._pow_int(self._raw, other, self._bits, _RND), self._bits)
        return NotImplemented

    def __neg__(self):
        # Exact: negation never rounds.
        return self._wrap(self._neg(self._raw), self._bits)


class PReal(_Scalar):
    """An immutable real number with a stated precision in bits."""

    __slots__ = ()
    _check, _pos, _neg, _add, _sub, _mul, _div, _pow_int, _exp, _sqrt = map(
        staticmethod,
        (_checked, mpf_pos, mpf_neg, mpf_add, mpf_sub,
         mpf_mul, mpf_div, mpf_pow_int, mpf_exp, mpf_sqrt),
    )

    def __init__(self, value, bits: int | None = None):
        if isinstance(value, PReal):
            raw = value._raw
            if bits is None:
                bits = value._bits
            else:
                _check_bits(bits)
                raw = mpf_pos(raw, bits, _RND)
        elif isinstance(value, bool):
            raise ConfigError("cannot build a PReal from a bool")
        elif isinstance(value, int):
            if bits is None:
                bits = max(MIN_BITS, value.bit_length())
                raw = from_int(value)
            else:
                _check_bits(bits)
                raw = from_int(value, bits, _RND)
        elif isinstance(value, float):
            if not math.isfinite(value):
                raise NonFiniteError(f"cannot build a PReal from {value!r}")
            if bits is None:
                bits = MIN_BITS
            else:
                _check_bits(bits)
            raw = mpf_pos(from_float(value), bits, _RND)
        elif isinstance(value, str):
            if bits is None:
                raise ConfigError("building a PReal from a string requires explicit bits")
            _check_bits(bits)
            try:
                raw = from_str(value, bits, _RND)
            except ValueError as exc:
                raise ConfigError(f"cannot parse {value!r} as a real number") from exc
        else:
            raise ConfigError(f"cannot build a PReal from {type(value).__name__}")
        self._raw = _checked(raw, "construction")
        self._bits = bits

    def is_zero(self) -> bool:
        return self._raw == fzero

    def _coerce(self, other):
        if isinstance(other, PReal):
            return other._raw, other._bits
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return from_int(other), self._bits
        if isinstance(other, float):
            if not math.isfinite(other):
                raise NonFiniteError(f"non-finite operand {other!r}")
            return from_float(other), self._bits
        return None

    def __pos__(self):
        return self

    def __abs__(self):
        # Exact, as negation is.
        return PReal._wrap(mpf_abs(self._raw), self._bits)

    # -- comparisons ---------------------------------------------------

    def _comparison(test):
        def compare(self, other):
            pair = self._coerce(other)
            return NotImplemented if pair is None else test(mpf_cmp(self._raw, pair[0]), 0)

        return compare

    __lt__, __le__, __gt__, __ge__ = map(
        _comparison, (operator.lt, operator.le, operator.gt, operator.ge)
    )
    del _comparison

    def __eq__(self, other):
        pair = self._coerce(other)
        if pair is not None:
            return mpf_cmp(self._raw, pair[0]) == 0
        if isinstance(other, complex):
            # Equal as the PComplex with an exact zero imaginary part, so
            # equality stays transitive; arithmetic and ordering with a
            # complex stay unsupported.
            return PComplex._wrap((self._raw, fzero), self._bits) == other
        return NotImplemented

    def __hash__(self):
        # Python's numeric hash, so a PReal hashes as the equal int or float.
        return mpf_hash(self._raw)

    # -- conversions ---------------------------------------------------

    def __float__(self) -> float:
        return to_float(self._raw, rnd=_RND)

    def str_digits(self, digits: int) -> str:
        return to_str(self._raw, digits)

    def full_digits(self) -> int:
        """Number of decimal digits carrying information at this precision."""
        return int(self._bits * _LOG10_2) + 2

    def __str__(self) -> str:
        return to_str(self._raw, self.full_digits())

    def __repr__(self) -> str:
        return f"PReal({to_str(self._raw, 24)}, bits={self._bits})"

    # -- serialization -------------------------------------------------

    def serialize(self) -> str:
        """Exact decimal tag; parses back to the identical value."""
        sign, man, exp, _bc = self._raw
        if man == 0:
            return f"0e0@{self._bits}"
        if exp >= 0:
            digits = man << exp
            exp10 = 0
        else:
            digits = man * 5 ** (-exp)
            exp10 = exp
        while digits % 10 == 0:
            digits //= 10
            exp10 += 1
        return f"{'-' if sign else ''}{_int_to_decimal(digits)}e{exp10}@{self._bits}"

    @classmethod
    def parse(cls, tag: str) -> "PReal":
        m = _TAG_RE.match(tag.strip())
        if m is None:
            raise ConfigError(f"malformed precision tag {tag!r}")
        neg, digits_s, exp10_s, bits_s = m.groups()
        bits = _check_bits(int(bits_s))
        if bits > MAX_BITS:
            raise ConfigError(f"precision tag asks for {bits} bits, over {MAX_BITS}")
        exp10 = int(exp10_s)
        if abs(exp10) > 2 * len(digits_s) + bits + _EXP10_ALLOWANCE:
            raise ConfigError(f"precision tag exponent {exp10} is out of range")
        digits = _decimal_to_int(digits_s)
        # 10**e = 5**e * 2**e: the odd factor goes through the arithmetic and
        # the power of two is an exact shift.
        if digits == 0:
            raw = fzero
        elif exp10 >= 0:
            raw = mpf_shift(mpf_pos(_exact_raw(digits * 5**exp10), bits, _RND), exp10)
        else:
            raw = mpf_div(_exact_raw(digits), from_int(5**-exp10), bits, _RND)
            raw = mpf_shift(raw, exp10)
        if neg:
            raw = mpf_neg(raw)
        return cls._wrap(raw, bits)


class PComplex(_Scalar):
    """An immutable complex number; both parts share one stated precision,
    and its raw value is the libmp pair (re, im)."""

    __slots__ = ()
    _check, _pos, _neg, _add, _sub, _mul, _div, _pow_int, _exp, _sqrt = map(
        staticmethod,
        (_checked_pair, mpc_pos, mpc_neg, mpc_add, mpc_sub,
         mpc_mul, mpc_div, mpc_pow_int, mpc_exp, mpc_sqrt),
    )

    def __init__(self, real, imag=None, bits: int | None = None):
        if isinstance(real, PComplex) and imag is None:
            if bits is None:
                self._raw, self._bits = real._raw, real._bits
            else:
                _check_bits(bits)
                self._raw, self._bits = mpc_pos(real._raw, bits, _RND), bits
            return
        if isinstance(real, complex):
            if imag is not None:
                raise ConfigError("pass either a complex value or two real parts")
            real, imag = real.real, real.imag
        if imag is None:
            imag = 0
        re_part = real if isinstance(real, PReal) else PReal(real, bits)
        im_part = imag if isinstance(imag, PReal) else PReal(imag, bits)
        if bits is None:
            bits = max(re_part.bits, im_part.bits)
        else:
            _check_bits(bits)
        self._raw = mpc_pos((re_part._raw, im_part._raw), bits, _RND)
        self._bits = bits

    @property
    def real(self) -> PReal:
        return PReal._wrap(self._raw[0], self._bits)

    @property
    def imag(self) -> PReal:
        return PReal._wrap(self._raw[1], self._bits)

    def conjugate(self) -> "PComplex":
        re_raw, im_raw = self._raw
        return PComplex._wrap((re_raw, mpf_neg(im_raw)), self._bits)

    def is_zero(self) -> bool:
        return self._raw == (fzero, fzero)

    def _coerce(self, other):
        if isinstance(other, PComplex):
            return other._raw, other._bits
        if isinstance(other, PReal):
            return (other._raw, fzero), other._bits
        if isinstance(other, bool):
            return None
        if isinstance(other, int):
            return (from_int(other), fzero), self._bits
        if isinstance(other, float):
            if not math.isfinite(other):
                raise NonFiniteError(f"non-finite operand {other!r}")
            return (from_float(other), fzero), self._bits
        if isinstance(other, complex):
            if not (math.isfinite(other.real) and math.isfinite(other.imag)):
                raise NonFiniteError(f"non-finite operand {other!r}")
            return (from_float(other.real), from_float(other.imag)), self._bits
        return None

    def __abs__(self) -> PReal:
        return PReal._wrap(mpc_abs(self._raw, self._bits, _RND), self._bits)

    def __eq__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        (re_raw, im_raw), _ = pair
        return mpf_cmp(self._raw[0], re_raw) == 0 and mpf_cmp(self._raw[1], im_raw) == 0

    def __hash__(self):
        # Python's complex hash over the two part hashes, so a PComplex
        # hashes as the equal complex, float, int or PReal.  mpc_hash is not
        # used: it reduces unsigned, and -1+0j would not hash as -1.
        re_hash, im_hash = map(mpf_hash, self._raw)
        h = (re_hash + _HASH_IMAG * im_hash) % _HASH_WORD
        return h - _HASH_WORD if h >= _HASH_WORD // 2 else h

    def __complex__(self) -> complex:
        return complex(to_float(self._raw[0], rnd=_RND), to_float(self._raw[1], rnd=_RND))

    def __str__(self) -> str:
        return f"({self.real} {'+' if self._raw[1][0] == 0 else '-'} {abs(self.imag)}j)"

    def __repr__(self) -> str:
        re_raw, im_raw = self._raw
        return f"PComplex({to_str(re_raw, 24)}, {to_str(im_raw, 24)}, bits={self._bits})"


# -- the scalar boundary ----------------------------------------------


def _real(x, bits: int | None = None) -> PReal:
    """A PReal as it is, or a Python int or float at ``bits``; anything
    else, a bool included, raises ConfigError."""
    if isinstance(x, PReal):
        return x
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return PReal(x, bits)
    raise ConfigError(f"expected a real scalar, got {type(x).__name__}")


def _scalar(z, bits: int | None = None):
    """As :func:`_real`, and a PComplex as it is or a Python complex at
    ``bits``."""
    if isinstance(z, PComplex):
        return z
    if isinstance(z, complex):
        return PComplex(z, bits=bits)
    if isinstance(z, (PReal, int, float)):
        return _real(z, bits)
    raise ConfigError(f"expected a real or complex scalar, got {type(z).__name__}")


def _pair(z):
    """The raw (re, im) pair of a PReal or PComplex; a real point gets an
    exact zero imaginary part, which the libmp complex operations round as
    their real twins do and keep zero."""
    return (z._raw, fzero) if isinstance(z, PReal) else z._raw


def _like(z, pair, bits: int):
    """A raw pair rounded to ``bits``, returned as the kind of ``z``: a
    PReal for a real point (its imaginary part is then dropped), else a
    PComplex."""
    if isinstance(z, PReal):
        return PReal._wrap(mpf_pos(pair[0], bits, _RND), bits)
    return PComplex._wrap(mpc_pos(pair, bits, _RND), bits)


# -- tag tables -------------------------------------------------------


def read_tag_rows(src: TextIO, *headers: str) -> list[tuple[PReal, PReal]]:
    """The rows of a two-column CSV of value tags whose header is one of
    ``headers`` (each written "first,second").

    Blank lines and lines starting with '#' are skipped wherever they
    appear, so a file may open with comments.
    """
    import csv  # imported here so that other commands do not load it

    lines = (line for line in src if line.strip() and not line.startswith("#"))
    reader = csv.reader(lines)
    if next(reader, None) not in [header.split(",") for header in headers]:
        raise ConfigError(f"expected a CSV with header {' or '.join(headers)}")
    rows = []
    for row in reader:
        if len(row) != 2:
            raise ConfigError(f"malformed tag row {row!r}")
        rows.append((PReal.parse(row[0]), PReal.parse(row[1])))
    return rows


def write_tag_rows(out: TextIO, header: str, rows: Iterable[tuple]) -> None:
    """Write ``header`` ("first,second") and one line of two value tags per
    row of PReals: the table :func:`read_tag_rows` reads.  A tag holds no
    comma, quote or space, so no field needs quoting."""
    out.write(f"{header}\n")
    for first, second in rows:
        out.write(f"{first.serialize()},{second.serialize()}\n")


# -- elementary functions ---------------------------------------------


def exp(x):
    """e**x for PReal or PComplex, rounded at the argument's precision."""
    if not isinstance(x, _Scalar):
        raise ConfigError(f"exp expects PReal or PComplex, got {type(x).__name__}")
    return x._wrap(x._exp(x._raw, x._bits, _RND), x._bits)


def log(x: PReal) -> PReal:
    """Natural logarithm of a positive PReal."""
    if not isinstance(x, PReal):
        raise ConfigError(f"log expects PReal, got {type(x).__name__}")
    if x._raw[0] or x.is_zero():
        raise ConfigError("log requires a positive argument")
    return PReal._wrap(mpf_log(x._raw, x.bits, _RND), x.bits)


def sqrt(x):
    """Square root of a nonnegative PReal or of a PComplex."""
    if not isinstance(x, _Scalar):
        raise ConfigError(f"sqrt expects PReal or PComplex, got {type(x).__name__}")
    if isinstance(x, PReal) and x._raw[0]:
        raise ConfigError("sqrt of a negative PReal; use PComplex")
    return x._wrap(x._sqrt(x._raw, x._bits, _RND), x._bits)


def pi_value(bits: int) -> PReal:
    _check_bits(bits)
    return PReal._wrap(mpf_pi(bits, _RND), bits)


@functools.lru_cache(maxsize=64)
def _inv_sqrt_2pi(bits: int):
    """The raw value of 1/sqrt(2*pi) at ``bits``, from pi and its root taken
    at 8 guard bits: the normal density's constant, which the CDF series,
    the mixture density and the characteristic deviation chain share."""
    two_pi = mpf_shift(mpf_pi(bits + 8, _RND), 1)
    return mpf_div(fone, mpf_sqrt(two_pi, bits + 8, _RND), bits, _RND)


def cos_sin(x: PReal) -> tuple[PReal, PReal]:
    """(cos x, sin x) computed together."""
    if not isinstance(x, PReal):
        raise ConfigError(f"cos_sin expects PReal, got {type(x).__name__}")
    c_raw, s_raw = mpf_cos_sin(x._raw, x.bits, _RND)
    return PReal._wrap(c_raw, x.bits), PReal._wrap(s_raw, x.bits)


def double_factorial(n: int) -> PReal:
    """n!! as an exact integer value (n >= -1); -1!! = 0!! = 1, at a stated
    precision just large enough to hold the product exactly."""
    if not isinstance(n, int) or isinstance(n, bool) or n < -1:
        raise ConfigError(f"double_factorial expects an integer n >= -1, got {n!r}")
    value = 1
    for factor in range(n, 1, -2):
        value *= factor
    return PReal(value)


def working_bits(a: float, radius: float = 1.0) -> int:
    """Precision policy for computations tied to support half-width ``a``
    and evaluation radius ``radius``.

    Budgets three effects: the interior cancellation of the error
    functional (which scales like a**2 * log a bits), the size of
    exp(z**2/2) out to the largest point touched ((a+radius)**2 / ln 2
    bits), and a fixed guard.  Never returns less than 128; raises
    ConfigError when the budget exceeds MAX_BITS.
    """
    a = float(_real(a))
    radius = float(_real(radius))
    if not (math.isfinite(a) and math.isfinite(radius)):
        raise NonFiniteError("working_bits got a non-finite input")
    if a <= 0 or radius < 0:
        raise ConfigError("working_bits expects a > 0 and radius >= 0")
    # Past this reach the magnitude term alone exceeds MAX_BITS, and
    # squaring a huge float would overflow.
    if a + radius <= math.sqrt(MAX_BITS * math.log(2.0)):
        interior = math.ceil(3.0 * a * a * math.log2(max(a, 2.0)))
        magnitude = math.ceil((a + radius) ** 2 / math.log(2.0))
        bits = max(128, interior + magnitude + 64)
        if bits <= MAX_BITS:
            return bits
    raise ConfigError(
        f"a={a:g} at radius {radius:g} needs more than the maximum {MAX_BITS} bits"
    )
