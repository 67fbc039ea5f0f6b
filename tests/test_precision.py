"""Arbitrary-precision scalar layer: arithmetic, rounding, serialization."""

import csv
import io
import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_rational, round_nearest

from gausdisk.errors import ConfigError, NonFiniteError
from gausdisk.precision import (
    MIN_BITS,
    PComplex,
    PReal,
    _inv_sqrt_2pi,
    cos_sin,
    double_factorial,
    exp,
    log,
    pi_value,
    read_tag_rows,
    sqrt,
    working_bits,
    write_tag_rows,
)


def taylor_exp_digits(x_num: int, x_den: int, digits: int) -> str:
    """Decimal expansion of exp(x_num/x_den) via exact rational Taylor
    partial sums, an oracle sharing no code with the library."""
    x = Fraction(x_num, x_den)
    total = Fraction(0)
    term = Fraction(1)
    n = 0
    # Run until the term cannot move the printed digits.
    bound = Fraction(1, 10 ** (digits + 10))
    while True:
        total += term
        n += 1
        term *= x / n
        if abs(term) < bound and n > abs(x):
            break
    scaled = total * 10**digits
    return str(scaled.numerator // scaled.denominator)


class TestConstruction:
    def test_from_int_is_exact(self):
        v = PReal(3)
        assert v.bits >= MIN_BITS
        assert float(v) == 3.0

    def test_big_int_keeps_all_bits(self):
        n = (1 << 300) + 12345
        v = PReal(n)
        assert v.serialize().startswith(str(n))

    def test_float_matches_ieee_value(self):
        v = PReal(0.1, 128)
        assert float(v) == 0.1
        # 0.1 as a double is not 1/10; the exact value must be preserved
        assert v != PReal("0.1", 128)

    def test_str_requires_bits(self):
        with pytest.raises(ConfigError):
            PReal("1.5")

    def test_str_parses_decimal(self):
        assert PReal("1.5", 64) == PReal(3, 64) / 2

    def test_bad_str_rejected(self):
        with pytest.raises(ConfigError):
            PReal("one point five", 64)

    def test_bool_rejected(self):
        with pytest.raises(ConfigError):
            PReal(True, 64)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteError):
            PReal(float("nan"), 64)

    def test_inf_rejected(self):
        with pytest.raises(NonFiniteError):
            PReal(float("inf"), 64)

    def test_too_few_bits_rejected(self):
        with pytest.raises(ConfigError):
            PReal(1, 32)

    def test_copy_rerounds(self):
        fine = PReal("0.1", 256)
        coarse = PReal(fine, 64)
        assert coarse.bits == 64
        assert coarse != fine
        assert abs(coarse - fine) < PReal(2, 256) ** -60


class TestArithmetic:
    def test_bits_propagate_as_max(self):
        a = PReal(1, 64)
        b = PReal(1, 256)
        assert (a + b).bits == 256
        assert (a * b).bits == 256
        assert (b - a).bits == 256
        assert (a / b).bits == 256

    def test_int_float_coercion(self):
        a = PReal(10, 128)
        assert a + 1 == PReal(11, 128)
        assert 1 + a == PReal(11, 128)
        assert a * 0.5 == PReal(5, 128)
        assert 20 / a == PReal(2, 128)
        assert 1 - a == PReal(-9, 128)

    def test_integer_powers(self):
        a = PReal(3, 96)
        assert a**4 == PReal(81, 96)
        assert a**0 == PReal(1, 96)
        assert a**-2 == PReal(1, 96) / 9

    def test_division_rounds_at_target(self):
        coarse = PReal(1, 200) / 3
        fine = PReal(1, 320) / 3
        gap = abs(coarse - fine)
        assert not gap.is_zero()
        assert gap < PReal(2, 320) ** -199

    def test_neg_abs(self):
        a = PReal(-2.5, 64)
        assert -a == PReal(2.5, 64)
        assert abs(a) == PReal(2.5, 64)

    def test_comparisons(self):
        assert PReal(1, 64) < PReal(2, 128)
        assert PReal(2, 64) >= 2
        assert PReal(2, 64) <= 2.0
        assert not PReal(1, 64) > 1

    def test_hash_consistent_across_bits(self):
        assert hash(PReal(7, 64)) == hash(PReal(7, 512))

    def test_exp_identity_sweep(self):
        rng = random.Random(987123)
        bits = 256
        tol = PReal(2, bits) ** -240
        for _ in range(1000):
            x = PReal(rng.uniform(-10, 10), bits)
            y = PReal(rng.uniform(-10, 10), bits)
            gap = abs(exp(x + y) - exp(x) * exp(y))
            scale = exp(x + y)
            assert gap <= tol * scale


class TestFunctions:
    def test_exp_half_against_taylor_oracle(self):
        want = taylor_exp_digits(1, 2, 60)
        got = exp(PReal("0.5", 256)).str_digits(55)
        got_digits = got.replace(".", "").replace("-", "")
        # The final printed digit is rounded, the oracle's is truncated;
        # compare everything before it.
        assert want[:54] == got_digits[:54]

    def test_exp_log_roundtrip(self):
        x = PReal("2.75", 192)
        assert abs(log(exp(x)) - x) < PReal(2, 192) ** -180

    def test_sqrt(self):
        r = sqrt(PReal(2, 256))
        assert abs(r * r - 2) < PReal(2, 256) ** -250
        with pytest.raises(ConfigError):
            sqrt(PReal(-1, 64))

    def test_pi_value_digits(self):
        # 31st digit 5 rounds the printed tail ...3279... up to ...328
        assert pi_value(128).str_digits(30) == "3.14159265358979323846264338328"

    @pytest.mark.parametrize("bits", [64, 128, 219, 594, 1413])
    def test_inv_sqrt_2pi_within_one_unit_in_the_last_place(self, bits):
        # Rounded twice (8 guard bits, then ``bits``), so at a few
        # precisions, 219 among them, it is not the nearest value.
        with mpmath.workprec(bits + 64):
            want = mpmath.mpf(1) / mpmath.sqrt(2 * mpmath.pi)
            got = mpmath.mpf(_inv_sqrt_2pi(bits))
            assert abs(got - want) < want * mpmath.ldexp(1, 1 - bits)

    def test_cos_sin_pythagoras(self):
        rng = random.Random(55221)
        for _ in range(50):
            t = PReal(rng.uniform(0, 7), 128)
            c, s = cos_sin(t)
            assert abs(c * c + s * s - 1) < PReal(2, 128) ** -120

    def test_cos_sin_known_value(self):
        c, s = cos_sin(pi_value(192) / 6)
        assert abs(s - PReal("0.5", 192)) < PReal(2, 192) ** -180

    def test_double_factorial_matches_bruteforce(self):
        def brute(n):
            out = 1
            while n > 1:
                out *= n
                n -= 2
            return out

        for n in range(0, 25):
            assert double_factorial(n) == brute(n)

    def test_double_factorial_edge_cases(self):
        assert double_factorial(-1) == 1
        assert double_factorial(0) == 1
        with pytest.raises(ConfigError):
            double_factorial(-2)


class TestWorkingBits:
    def test_floor_applies(self):
        assert working_bits(1, 1) == 128

    def test_known_values(self):
        assert working_bits(12, 1) == 1857
        assert working_bits(8, 40) == 3964

    def test_monotone_in_both_arguments(self):
        assert working_bits(6, 1) < working_bits(7, 1)
        assert working_bits(6, 1) < working_bits(6, 5)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ConfigError):
            working_bits(0, 1)

    def test_rejects_budgets_above_max_bits(self):
        assert working_bits(64, 1) == 79888
        assert working_bits(100, 2) == 214390
        for a, radius in ((1, 1e9), (3.7, 1e30), (1e200, 1), (1, 1e200)):
            with pytest.raises(ConfigError, match="262144"):
                working_bits(a, radius)


class TestTagRows:
    @pytest.mark.parametrize("header", ["node,weight", "location,mass", "location,weight"])
    def test_round_trip(self, header):
        rows = [(PReal(-1.5, 64), PReal("0.25", 128)), (PReal(0, 200), pi_value(333))]
        buf = io.StringIO()
        write_tag_rows(buf, header, rows)
        text = buf.getvalue()
        # The bytes a csv.writer gives the same table.
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(header.split(","))
        writer.writerows([x.serialize(), y.serialize()] for x, y in rows)
        assert text == want.getvalue()
        back = read_tag_rows(io.StringIO(text), header)
        assert [(x.raw, x.bits, y.raw, y.bits) for x, y in back] == [
            (x.raw, x.bits, y.raw, y.bits) for x, y in rows
        ]


class TestSerialization:
    def test_simple_tag(self):
        assert PReal("0.5", 256).serialize() == "5e-1@256"

    def test_roundtrip_random(self):
        rng = random.Random(424242)
        for _ in range(200):
            bits = rng.choice([64, 128, 192, 333, 512])
            v = PReal(rng.uniform(-1, 1), bits) * PReal(2, bits) ** rng.randint(-80, 80)
            tag = v.serialize()
            back = PReal.parse(tag)
            assert back == v
            assert back.bits == v.bits
            assert back.raw == v.raw

    @pytest.mark.parametrize("bits", [5000, 20000])
    def test_roundtrip_past_the_int_str_digit_limit(self, bits):
        # Both tags carry more than the 4300 digits that str(int) and
        # int(str) accept by default.
        v = sqrt(PReal(2, bits)) / 3**400
        tag = v.serialize()
        assert len(tag) > 4300
        back = PReal.parse(tag)
        assert back.raw == v.raw and back.bits == bits
        z = PComplex(v, -v * 7)
        back_z = PComplex.parse(z.serialize())
        assert back_z.raw == z.raw and back_z.bits == bits

    def test_roundtrip_zero(self):
        z = PReal(0, 77)
        assert PReal.parse(z.serialize()) == z

    def test_parse_rejects_malformed(self):
        for bad in ["", "abc", "5e-1", "5e-1@", "5e-1@-3", "5.0e-1@64", "5e -1@64"]:
            with pytest.raises(ConfigError):
                PReal.parse(bad)

    @pytest.mark.parametrize(
        "tag",
        [
            "1e" + "9" * 5000 + "@64",  # past int()'s digit limit
            "1e-9999999@64",  # would build 10**9999999
            "1e9999999@64",
            "1e-5000@64",  # beyond the allowance for a one-digit tag
            "1e0@" + "9" * 5000,
            "1e0@999999999",  # more than MAX_BITS
        ],
    )
    def test_parse_rejects_absurd_exponents_quickly(self, tag):
        start = time.perf_counter()
        with pytest.raises(ConfigError):
            PReal.parse(tag)
        with pytest.raises(ConfigError):
            PComplex.parse(f"{tag} 0e0@64")
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "tag", ["1e-30@64", "1e-300@64", "-25e4000@64", "3e-4096@64", "0e99@64"]
    )
    def test_parse_accepts_short_hand_written_tags(self, tag):
        digits, exp10 = tag.split("@")[0].split("e")
        exact = Fraction(int(digits)) * Fraction(10) ** int(exp10)
        want = from_rational(exact.numerator, exact.denominator, 64, round_nearest)
        assert PReal.parse(tag).raw == want

    def test_long_tag_with_large_exponent_parses_quickly(self):
        # 200000 leading zeros admit the exponent -400000; 10**400000 has
        # 400000 trailing zero bits, which libmp's from_int strips a byte
        # at a time.
        start = time.perf_counter()
        value = PReal.parse("0" * 200000 + "1e-400000@64")
        assert time.perf_counter() - start < 1.0
        # Correctly rounded: |man * 2**exp - 10**-400000| <= 2**exp / 2.
        sign, man, exp, _ = value.raw
        assert sign == 0 and exp < 0
        assert 2 * abs(man * 10**400000 - 2**-exp) <= 10**400000

    @pytest.mark.parametrize("bits", [64, 256])
    @pytest.mark.parametrize("shift", [-100000, -3000, 3000, 100000])
    def test_tags_of_extreme_exponents_round_trip(self, bits, shift):
        # Mantissas holding powers of 5 give the most trailing decimal
        # zeros; tiny values give the longest exponents.
        for base in (PReal(5**27, bits), PReal(3, bits) / 7):
            v = base * PReal(2, bits) ** shift
            back = PReal.parse(v.serialize())
            assert back.raw == v.raw and back.bits == bits

    def test_parse_tolerates_surrounding_whitespace(self):
        assert PReal.parse(" 5e-1@64 \n") == PReal("0.5", 64)

    def test_tag_is_minimal(self):
        # No trailing zeros in the digit block
        tag = PReal(10, 64).serialize()
        assert tag == "1e1@64"

    def test_str_digits_count(self):
        text = (PReal(1, 512) / 7).str_digits(40)
        mantissa = text.replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) == 40
        assert mantissa.startswith("142857142857")


class TestPComplex:
    def test_construction_and_parts(self):
        z = PComplex(1.5, -2.5, bits=128)
        assert z.real == PReal(1.5, 128)
        assert z.imag == PReal(-2.5, 128)
        assert z.bits == 128

    def test_from_python_complex(self):
        z = PComplex(complex(1, 2), bits=96)
        assert z.real == 1 and z.imag == 2

    def test_arithmetic(self):
        i = PComplex(0, 1, bits=128)
        assert (i * i).real == -1
        assert (i * i).imag.is_zero()
        z = PComplex(3, 4, bits=128)
        assert abs(z) == PReal(5, 128)
        assert (z * z.conjugate()).real == 25

    def test_integer_powers(self):
        z = PComplex(1, 1, bits=128)
        w = z**4
        assert w.real == -4 and w.imag.is_zero()

    def test_mixed_bits(self):
        a = PComplex(1, 1, bits=64)
        b = PComplex(1, 1, bits=320)
        assert (a + b).bits == 320

    def test_exp_of_imaginary_unit_circle(self):
        rng = random.Random(77)
        for _ in range(25):
            t = rng.uniform(-3, 3)
            z = exp(PComplex(0, t, bits=192))
            assert abs(abs(z) - 1) < PReal(2, 192) ** -180

    def test_complex_exp_identity(self):
        rng = random.Random(20240811)
        bits = 256
        tol = PReal(2, bits) ** -236
        for _ in range(200):
            z = PComplex(rng.uniform(-10, 10), rng.uniform(-10, 10), bits=bits)
            w = PComplex(rng.uniform(-10, 10), rng.uniform(-10, 10), bits=bits)
            gap = abs(exp(z + w) - exp(z) * exp(w))
            assert gap <= tol * abs(exp(z + w))

    def test_sqrt_principal_branch(self):
        z = PComplex(0, 2, bits=128)
        r = sqrt(z)
        assert abs(r * r - z) < PReal(2, 128) ** -120
        assert float(r.real) > 0

    def test_serialize_roundtrip(self):
        z = PComplex(0.1, -0.7, bits=160)
        back = PComplex.parse(z.serialize())
        assert back == z and back.bits == z.bits

    def test_division(self):
        z = PComplex(1, 2, bits=128)
        w = PComplex(3, -1, bits=128)
        q = z / w
        assert abs(q * w - z) < PReal(2, 128) ** -120


def test_float_no_silent_precision_claim():
    # Requesting more bits than a float carries is allowed; the value is
    # the exact binary double, padded with zeros, not invented digits.
    v = PReal(0.5, 1024)
    assert v == PReal("0.5", 64)
