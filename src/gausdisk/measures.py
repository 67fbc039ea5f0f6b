"""Probability measures approximating the standard Gaussian, and the
transforms used to compare them with it.

Three measure families live here:

* ``DiscreteMeasure`` — finitely many atoms; in particular the
  matched-moment quadrature rules viewed as probability measures.
* ``TruncatedGaussian`` — the Gaussian conditioned on [-a, a].
* ``StandardGaussian`` — the target itself, for reference.

Each measure exposes its two-sided Laplace transform L(z) = E[exp(zX)]
as an entire function of a complex argument, the characteristic function
L(it), and the error functional L(z) - exp(z**2/2) measuring the drift
from the Gaussian transform.

The complex normal CDF needed by the truncated family is evaluated by
its everywhere-convergent odd Taylor series

    1/2 + (2*pi)**(-1/2) * sum_n (-1)**n z**(2n+1) / (2**n n! (2n+1)),

with working precision raised by about |z|**2/ln 2 bits because the
partial sums grow to exp(|z|**2/2) before collapsing.  Arguments are
capped at |z| <= 64 so that blow-up stays within reason.

``char_bound_check`` sweeps the characteristic function of a truncated
Gaussian over a dense real grid and certifies the deviation chain
max_t |psi(t) - exp(-t**2/2)|  <=  4*Q(a)  <=  (4/(sqrt(2*pi)*a))*exp(-a**2/2)
<=  2*exp(-a**2/2), where Q is the Gaussian upper tail.  Long grids use a
moment-series evaluator for psi (orders of magnitude faster than the
complex-CDF route at large a*t) and cross-check it pointwise against the
closed form on a subsample.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpc_add,
    mpc_div,
    mpc_exp,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pi,
    mpf_pos,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from .errors import ChainViolation, ConfigError, ConvergenceError
from .hermite import QuadratureRule, build_rule, k_for_support
from .precision import PComplex, PReal, _check_bits

__all__ = [
    "normal_cdf",
    "gauss_upper_tail",
    "Measure",
    "DiscreteMeasure",
    "TruncatedGaussian",
    "StandardGaussian",
    "quadrature_measure_for_support",
    "truncation_error_closed_form",
    "CharBoundReport",
    "char_bound_check",
]

_RND = round_nearest
_LN2 = math.log(2.0)
_HALF = mpf_shift(fone, -1)

_MAX_CDF_ARG = 64.0


def _mag(raw) -> int:
    """Upper bound on log2|raw|; very small for zero."""
    return raw[2] + raw[3] if raw[1] else -(1 << 60)


def _inv_sqrt_2pi(prec: int):
    two_pi = mpf_mul_int(mpf_pi(prec + 8, _RND), 2, prec + 8, _RND)
    return mpf_div(fone, mpf_sqrt(two_pi, prec + 8, _RND), prec, _RND)


def _phi_series_real(x, bits: int):
    """Phi(x) on a raw real tuple via the odd Taylor series."""
    xf = to_float(x, rnd=_RND)
    norm2 = xf * xf
    if norm2 > _MAX_CDF_ARG * _MAX_CDF_ARG:
        raise ConfigError(f"normal_cdf argument too large: |z| = {abs(xf):.3g} > 64")
    lift = int(norm2 / _LN2)
    wp = bits + lift + 64
    stop = -(bits + lift + 32)
    xw = mpf_pos(x, wp, _RND)
    neg_half_sq = mpf_neg(mpf_shift(mpf_mul(xw, xw, wp, _RND), -1))
    s = xw
    total = xw
    n = 1
    while True:
        s = mpf_div(mpf_mul(s, neg_half_sq, wp, _RND), from_int(n), wp, _RND)
        term = mpf_div(s, from_int(2 * n + 1), wp, _RND)
        total = mpf_add(total, term, wp, _RND)
        if 2 * n > norm2 and _mag(term) < stop:
            break
        n += 1
        if n > 200000:
            raise ConvergenceError("normal_cdf series failed to terminate")
    total = mpf_mul(total, _inv_sqrt_2pi(wp), wp, _RND)
    return mpf_pos(mpf_add(total, _HALF, wp, _RND), bits, _RND)


def _phi_series_complex(z, bits: int):
    """Phi(z) on a raw (re, im) pair via the odd Taylor series."""
    re_f = to_float(z[0], rnd=_RND)
    im_f = to_float(z[1], rnd=_RND)
    norm2 = re_f * re_f + im_f * im_f
    if norm2 > _MAX_CDF_ARG * _MAX_CDF_ARG:
        raise ConfigError(
            f"normal_cdf argument too large: |z| = {math.sqrt(norm2):.3g} > 64"
        )
    lift = int(norm2 / _LN2)
    wp = bits + lift + 64
    stop = -(bits + lift + 32)
    zw = (mpf_pos(z[0], wp, _RND), mpf_pos(z[1], wp, _RND))
    sq = mpc_mul(zw, zw, wp, _RND)
    neg_half_sq = (mpf_neg(mpf_shift(sq[0], -1)), mpf_neg(mpf_shift(sq[1], -1)))
    s = zw
    total = zw
    n = 1
    while True:
        s = mpc_mul(s, neg_half_sq, wp, _RND)
        dn = from_int(n)
        s = (mpf_div(s[0], dn, wp, _RND), mpf_div(s[1], dn, wp, _RND))
        d2 = from_int(2 * n + 1)
        term = (mpf_div(s[0], d2, wp, _RND), mpf_div(s[1], d2, wp, _RND))
        total = mpc_add(total, term, wp, _RND)
        if 2 * n > norm2 and max(_mag(term[0]), _mag(term[1])) < stop:
            break
        n += 1
        if n > 200000:
            raise ConvergenceError("normal_cdf series failed to terminate")
    total = mpc_mul_mpf(total, _inv_sqrt_2pi(wp), wp, _RND)
    return (
        mpf_pos(mpf_add(total[0], _HALF, wp, _RND), bits, _RND),
        mpf_pos(total[1], bits, _RND),
    )


def normal_cdf(z, bits: int | None = None):
    """Standard normal CDF, extended to complex arguments with |z| <= 64.

    Returns a PReal for real input and a PComplex otherwise, at the
    argument's precision unless ``bits`` overrides it.
    """
    if isinstance(z, (int, float)):
        z = PReal(z, bits)
    elif isinstance(z, complex):
        z = PComplex(z, bits=bits)
    if isinstance(z, PReal):
        b = z.bits if bits is None else _check_bits(bits)
        return PReal._wrap(_phi_series_real(z.raw, b), b)
    if isinstance(z, PComplex):
        b = z.bits if bits is None else _check_bits(bits)
        re_raw, im_raw = _phi_series_complex(z.raw, b)
        return PComplex._wrap(re_raw, im_raw, b)
    raise ConfigError(f"normal_cdf expects a scalar, got {type(z).__name__}")


def gauss_upper_tail(a, bits: int | None = None) -> PReal:
    """Q(a) = P(N(0,1) > a), accurate to the stated precision in relative
    terms even deep in the tail."""
    if isinstance(a, (int, float)):
        a = PReal(a, bits)
    if not isinstance(a, PReal):
        raise ConfigError(f"gauss_upper_tail expects a real scalar, got {type(a).__name__}")
    b = a.bits if bits is None else _check_bits(bits)
    af = float(a)
    # 1 - Phi(a) loses about a**2/(2 ln 2) leading bits for a > 0.
    lift = int(max(0.0, af * af) / (2.0 * _LN2)) + 16
    phi = _phi_series_real(a.raw, b + lift)
    q = mpf_sub(fone, phi, b + lift, _RND)
    return PReal._wrap(mpf_pos(q, b, _RND), b)


# -- measures ----------------------------------------------------------


def _coerce_point(z, bits: int):
    """Lift a Python scalar to the package types; reject anything else."""
    if isinstance(z, bool):
        raise ConfigError("expected a real or complex scalar, got a bool")
    if isinstance(z, (int, float)):
        return PReal(z, bits)
    if isinstance(z, complex):
        return PComplex(z, bits=bits)
    if isinstance(z, (PReal, PComplex)):
        return z
    raise ConfigError(
        f"expected a real or complex scalar, got {type(z).__name__}"
    )


class Measure:
    """A probability measure on the real line with an entire Laplace
    transform.  Subclasses implement :meth:`laplace`."""

    bits: int

    def laplace(self, z):
        raise NotImplementedError

    def char_fn(self, t):
        """Characteristic function: the Laplace transform at i*t."""
        t = _coerce_point(t, self.bits)
        if isinstance(t, PReal):
            return self.laplace(PComplex(PReal(0, t.bits), t))
        return self.laplace(PComplex(-t.imag, t.real))

    def laplace_error(self, z):
        """L(z) - exp(z**2/2): the drift from the Gaussian transform."""
        z = _coerce_point(z, self.bits)
        value = self.laplace(z)
        bits = value.bits
        if isinstance(z, PReal):
            half_sq = mpf_shift(mpf_mul(z.raw, z.raw, bits + 8, _RND), -1)
            gauss = mpf_exp(half_sq, bits + 8, _RND)
            diff = mpf_sub(value.raw, gauss, bits + 8, _RND)
            return PReal._wrap(mpf_pos(diff, bits, _RND), bits)
        sq = mpc_mul(z.raw, z.raw, bits + 8, _RND)
        gauss = mpc_exp((mpf_shift(sq[0], -1), mpf_shift(sq[1], -1)), bits + 8, _RND)
        diff = mpc_sub(value.raw, gauss, bits + 8, _RND)
        return PComplex._wrap(
            mpf_pos(diff[0], bits, _RND), mpf_pos(diff[1], bits, _RND), bits
        )

    def support_radius(self) -> PReal | None:
        """Half-width of the support, or None when unbounded."""
        return None

    def is_symmetric(self) -> bool:
        return False

    def error_peaks_on_real_axis(self) -> bool:
        """True when -B(z) = exp(z**2/2) - L(z) has nonnegative Taylor
        coefficients (odd moments zero, every even moment at most the
        Gaussian's), so that sup over |z| = r of |B| is |B(r)| exactly.

        Only constructions that guarantee this by theorem answer True;
        the default is the safe False."""
        return False

    def description(self) -> str:
        return type(self).__name__


class DiscreteMeasure(Measure):
    """A measure with finitely many atoms, locations sorted ascending.

    Masses must be nonnegative and sum to one within 2**(-bits+16).
    """

    def __init__(self, atoms: Iterable[tuple], bits: int | None = None):
        coerced = []
        for loc, mass in atoms:
            loc = loc if isinstance(loc, PReal) else PReal(loc, bits)
            mass = mass if isinstance(mass, PReal) else PReal(mass, bits)
            coerced.append((loc, mass))
        if not coerced:
            raise ConfigError("a discrete measure needs at least one atom")
        if bits is None:
            bits = max(max(l.bits, m.bits) for l, m in coerced)
        else:
            _check_bits(bits)
        coerced.sort(key=lambda lm: to_float(lm[0].raw, rnd=_RND))
        for _, mass in coerced:
            if mass.raw[0]:
                raise ConfigError("atom masses must be nonnegative")
        total = fzero
        for _, mass in coerced:
            total = mpf_add(total, mass.raw, bits + 32, _RND)
        drift = mpf_sub(total, fone, bits + 32, _RND)
        if drift[1] != 0 and _mag(drift) > -(bits - 16):
            raise ConfigError(
                f"atom masses sum to {to_float(total, rnd=_RND)!r}, not 1"
            )
        self.atoms = tuple(coerced)
        self.bits = bits
        self._symmetric = self._check_symmetric()
        self._gauss_hermite = False

    def _check_symmetric(self) -> bool:
        n = len(self.atoms)
        for j in range(n // 2 + 1):
            xl, wl = self.atoms[j]
            xr, wr = self.atoms[n - 1 - j]
            if xl.raw != (mpf_neg(xr.raw)) or wl.raw != wr.raw:
                return False
        return True

    @classmethod
    def from_quadrature(cls, rule: QuadratureRule) -> "DiscreteMeasure":
        measure = cls(zip(rule.nodes, rule.weights), bits=rule.bits)
        measure._gauss_hermite = rule.gauss_hermite
        return measure

    def support_radius(self) -> PReal:
        return max(abs(self.atoms[0][0]), abs(self.atoms[-1][0]))

    def is_symmetric(self) -> bool:
        return self._symmetric

    def error_peaks_on_real_axis(self) -> bool:
        # A Gauss rule's remainder for x**(2m) is f^(2k)(xi) k!/(2k)! >= 0.
        return self._gauss_hermite and self._symmetric

    def description(self) -> str:
        return f"discrete measure with {len(self.atoms)} atoms"

    def laplace(self, z):
        z = _coerce_point(z, self.bits)
        out_bits = max(self.bits, z.bits)
        wp = out_bits + 32
        n = len(self.atoms)
        if isinstance(z, PReal):
            zr = mpf_pos(z.raw, wp, _RND)
            total = fzero
            if self._symmetric:
                for j in range(n // 2):
                    x, w = self.atoms[n - 1 - j]
                    e = mpf_exp(mpf_mul(x.raw, zr, wp, _RND), wp, _RND)
                    pair = mpf_add(e, mpf_div(fone, e, wp, _RND), wp, _RND)
                    total = mpf_add(total, mpf_mul(w.raw, pair, wp, _RND), wp, _RND)
                if n % 2:
                    total = mpf_add(total, self.atoms[n // 2][1].raw, wp, _RND)
            else:
                for x, w in self.atoms:
                    e = mpf_exp(mpf_mul(x.raw, zr, wp, _RND), wp, _RND)
                    total = mpf_add(total, mpf_mul(w.raw, e, wp, _RND), wp, _RND)
            return PReal._wrap(mpf_pos(total, out_bits, _RND), out_bits)
        zw = (mpf_pos(z.raw[0], wp, _RND), mpf_pos(z.raw[1], wp, _RND))
        total = (fzero, fzero)
        one = (fone, fzero)
        if self._symmetric:
            for j in range(n // 2):
                x, w = self.atoms[n - 1 - j]
                arg = (
                    mpf_mul(x.raw, zw[0], wp, _RND),
                    mpf_mul(x.raw, zw[1], wp, _RND),
                )
                e = mpc_exp(arg, wp, _RND)
                pair = mpc_add(e, mpc_div(one, e, wp, _RND), wp, _RND)
                total = mpc_add(total, mpc_mul_mpf(pair, w.raw, wp, _RND), wp, _RND)
            if n % 2:
                total = mpc_add(total, (self.atoms[n // 2][1].raw, fzero), wp, _RND)
        else:
            for x, w in self.atoms:
                arg = (
                    mpf_mul(x.raw, zw[0], wp, _RND),
                    mpf_mul(x.raw, zw[1], wp, _RND),
                )
                e = mpc_exp(arg, wp, _RND)
                total = mpc_add(total, mpc_mul_mpf(e, w.raw, wp, _RND), wp, _RND)
        return PComplex._wrap(
            mpf_pos(total[0], out_bits, _RND), mpf_pos(total[1], out_bits, _RND), out_bits
        )

    def to_csv(self, out: TextIO) -> None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["location", "mass"])
        for loc, mass in self.atoms:
            writer.writerow([loc.serialize(), mass.serialize()])

    @classmethod
    def from_csv(cls, src: TextIO) -> "DiscreteMeasure":
        reader = csv.reader(src)
        header = next(reader, None)
        if header != ["location", "mass"]:
            raise ConfigError("expected a CSV with header location,mass")
        atoms = []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ConfigError(f"malformed measure row {row!r}")
            atoms.append((PReal.parse(row[0]), PReal.parse(row[1])))
        return cls(atoms)


class TruncatedGaussian(Measure):
    """The standard Gaussian conditioned on [-a, a], a >= 1.

    Its Laplace transform is
    exp(z**2/2) * (Phi(a+z) + Phi(a-z) - 1) / (2*Phi(a) - 1).
    Evaluation requires a + |z| <= 64 (the CDF series domain).
    """

    def __init__(self, a, bits: int = 256):
        _check_bits(bits)
        if isinstance(a, (int, float)):
            a = PReal(a, bits)
        if not isinstance(a, PReal):
            raise ConfigError(f"half-width must be a real scalar, got {type(a).__name__}")
        if a < 1:
            raise ConfigError("truncation half-width must be at least 1")
        if a > _MAX_CDF_ARG:
            raise ConfigError("truncation half-width must be at most 64")
        self.a = a.round_to(bits)
        self.bits = bits
        # 2*Phi(a) - 1, the conditioning mass; kept with guard bits.
        phi_a = _phi_series_real(self.a.raw, bits + 32)
        self._denom = mpf_sub(mpf_shift(phi_a, 1), fone, bits + 32, _RND)

    def support_radius(self) -> PReal:
        return self.a

    def is_symmetric(self) -> bool:
        return True

    def error_peaks_on_real_axis(self) -> bool:
        # Conditioning on |X| <= a lowers every even moment.
        return True

    def description(self) -> str:
        return f"Gaussian truncated to [-{float(self.a):g}, {float(self.a):g}]"

    def laplace(self, z):
        z = _coerce_point(z, self.bits)
        out_bits = max(self.bits, z.bits)
        wp = out_bits + 32
        a_raw = self.a.raw
        if isinstance(z, PReal):
            zr = z.raw
            if float(abs(self.a + abs(z))) > _MAX_CDF_ARG:
                raise ConfigError("laplace argument too far out: a + |z| > 64")
            plus = _phi_series_real(mpf_add(a_raw, zr, wp, _RND), wp)
            minus = _phi_series_real(mpf_sub(a_raw, zr, wp, _RND), wp)
            bracket = mpf_sub(mpf_add(plus, minus, wp, _RND), fone, wp, _RND)
            half_sq = mpf_shift(mpf_mul(zr, zr, wp, _RND), -1)
            gauss = mpf_exp(half_sq, wp, _RND)
            value = mpf_div(mpf_mul(gauss, bracket, wp, _RND), self._denom, wp, _RND)
            return PReal._wrap(mpf_pos(value, out_bits, _RND), out_bits)
        if float(self.a + abs(z)) > _MAX_CDF_ARG:
            raise ConfigError("laplace argument too far out: a + |z| > 64")
        zre, zim = z.raw
        plus = _phi_series_complex(
            (mpf_add(a_raw, zre, wp, _RND), zim), wp
        )
        minus = _phi_series_complex(
            (mpf_sub(a_raw, zre, wp, _RND), mpf_neg(zim)), wp
        )
        bracket = mpc_sub(mpc_add(plus, minus, wp, _RND), (fone, fzero), wp, _RND)
        sq = mpc_mul(z.raw, z.raw, wp, _RND)
        gauss = mpc_exp((mpf_shift(sq[0], -1), mpf_shift(sq[1], -1)), wp, _RND)
        num = mpc_mul(gauss, bracket, wp, _RND)
        value = (
            mpf_div(num[0], self._denom, wp, _RND),
            mpf_div(num[1], self._denom, wp, _RND),
        )
        return PComplex._wrap(
            mpf_pos(value[0], out_bits, _RND), mpf_pos(value[1], out_bits, _RND), out_bits
        )


class StandardGaussian(Measure):
    """The target measure; its own transform, for reference and testing."""

    def __init__(self, bits: int = 256):
        _check_bits(bits)
        self.bits = bits

    def is_symmetric(self) -> bool:
        return True

    def description(self) -> str:
        return "standard Gaussian"

    def laplace(self, z):
        z = _coerce_point(z, self.bits)
        out_bits = max(self.bits, z.bits)
        wp = out_bits + 8
        if isinstance(z, PReal):
            half_sq = mpf_shift(mpf_mul(z.raw, z.raw, wp, _RND), -1)
            return PReal._wrap(mpf_pos(mpf_exp(half_sq, wp, _RND), out_bits, _RND), out_bits)
        sq = mpc_mul(z.raw, z.raw, wp, _RND)
        e = mpc_exp((mpf_shift(sq[0], -1), mpf_shift(sq[1], -1)), wp, _RND)
        return PComplex._wrap(
            mpf_pos(e[0], out_bits, _RND), mpf_pos(e[1], out_bits, _RND), out_bits
        )

    def laplace_error(self, z):
        z = _coerce_point(z, self.bits)
        if isinstance(z, PReal):
            return PReal(0, self.bits)
        return PComplex(0, 0, bits=self.bits)


def quadrature_measure_for_support(a, bits: int = 256) -> DiscreteMeasure:
    """The smallest admissible matched-moment rule fitting in [-a, a],
    as a probability measure."""
    return DiscreteMeasure.from_quadrature(build_rule(k_for_support(a), bits))


def truncation_error_closed_form(measure: TruncatedGaussian, z) -> "PComplex | PReal":
    """The truncated-Gaussian transform error written through upper tails:

        -exp(z**2/2) * (Q(a+z) + Q(a-z) - 2*Q(a)) / (1 - 2*Q(a)).

    Algebraically identical to ``measure.laplace_error(z)``; computing it
    through tails provides an independent cross-check of the direct
    subtraction.
    """
    if not isinstance(measure, TruncatedGaussian):
        raise ConfigError("closed form applies to truncated Gaussians")
    if isinstance(z, (int, float)):
        z = PReal(z, measure.bits)
    elif isinstance(z, complex):
        z = PComplex(z, bits=measure.bits)
    out_bits = max(measure.bits, z.bits)
    wp = out_bits + 32
    a = measure.a
    one = PReal(1, wp)
    q_a = gauss_upper_tail(a, wp)
    denom = one - 2 * q_a
    if isinstance(z, PReal):
        q_plus = one - normal_cdf((a + z).round_to(wp), wp)
        q_minus = one - normal_cdf((a - z).round_to(wp), wp)
        half_sq = (z * z).round_to(wp) / 2
        gauss = PReal._wrap(mpf_exp(half_sq.raw, wp, _RND), wp)
        value = -(gauss * (q_plus + q_minus - 2 * q_a)) / denom
        return value.round_to(out_bits)
    zw = z.round_to(wp)
    a_w = PComplex(a, PReal(0, wp), bits=wp)
    q_plus = 1 - normal_cdf(a_w + zw, wp)
    q_minus = 1 - normal_cdf(a_w - zw, wp)
    sq = zw * zw
    gauss_raw = mpc_exp((mpf_shift(sq.raw[0], -1), mpf_shift(sq.raw[1], -1)), wp, _RND)
    gauss = PComplex._wrap(gauss_raw[0], gauss_raw[1], wp)
    value = -(gauss * (q_plus + q_minus - 2 * q_a)) / denom
    return value.round_to(out_bits)


# -- characteristic function deviation sweep ---------------------------


def _trunc_half_integral(n: int, a_raw, wp: int):
    """integral_0^a x**n exp(-x**2/2) dx by its alternating series
    a**(n+1) sum_j (-1)**j (a**2/2)**j / (j! (n+2j+1)), which is stable
    for every n (unlike the two-term recurrence, which loses all
    accuracy once n greatly exceeds a**2)."""
    half_sq = mpf_shift(mpf_mul(a_raw, a_raw, wp, _RND), -1)
    half_sq_f = to_float(half_sq, rnd=_RND)
    coeff = fone
    total = mpf_div(fone, from_int(n + 1), wp, _RND)
    j = 1
    while True:
        coeff = mpf_div(
            mpf_mul(coeff, mpf_neg(half_sq), wp, _RND), from_int(j), wp, _RND
        )
        term = mpf_div(coeff, from_int(n + 2 * j + 1), wp, _RND)
        total = mpf_add(total, term, wp, _RND)
        if j > half_sq_f and _mag(term) < -(wp + 8):
            break
        j += 1
        if j > 200000:
            raise ConvergenceError("half-range moment series failed to terminate")
    power = fone
    for _ in range(n + 1):
        power = mpf_mul(power, a_raw, wp, _RND)
    return mpf_mul(power, total, wp, _RND)


def _char_series_coeffs(a_raw, m_top: int, wp: int) -> list:
    """Coefficients d_m with psi(t) = sum_m d_m t**(2m) for the
    truncated Gaussian: d_m = (-1)**m mu_{2m} / (2m)! with mu the
    normalized even moments."""
    j0 = _trunc_half_integral(0, a_raw, wp)
    coeffs = []
    fact = 1
    for m in range(m_top + 1):
        if m > 0:
            fact *= (2 * m - 1) * (2 * m)
        jm = _trunc_half_integral(2 * m, a_raw, wp)
        d = mpf_div(jm, mpf_mul(j0, from_int(fact), wp, _RND), wp, _RND)
        coeffs.append(mpf_neg(d) if m % 2 else d)
    return coeffs


def _series_cutoff(at: float, bits_needed: float) -> int:
    """Smallest m with (a*t)**(2m)/(2m)! below 2**(-bits_needed)."""
    if at <= 1.0:
        return max(4, int(bits_needed // 8))
    target = -bits_needed * _LN2
    m = max(2, int(at / 2))
    while 2 * m * math.log(at) - math.lgamma(2 * m + 1) > target:
        m = int(m * 1.25) + 1
    return m


@dataclass(frozen=True)
class CharBoundReport:
    """Outcome of a characteristic-function deviation sweep."""

    a: float
    bits: int
    method: str
    t_max: float
    t_step: float
    n_points: int
    max_deviation: PReal
    witness_t: float
    bound_tail: PReal
    bound_density: PReal
    bound_plain: PReal
    cross_checks: int
    passed: bool


def char_bound_check(
    a,
    t_max: float = 50.0,
    t_step: float = 0.01,
    bits: int | None = None,
    method: str = "auto",
) -> CharBoundReport:
    """Sweep |psi_trunc(t) - exp(-t**2/2)| over the symmetric grid
    |t| <= t_max (step t_step) and certify the three-bound chain
    grid max <= 4*Q(a) <= (4/(sqrt(2*pi)*a))*exp(-a**2/2) <= 2*exp(-a**2/2).

    The characteristic function of a symmetric measure is even, so only
    t >= 0 is evaluated.  ``method`` is "closed" (complex-CDF route),
    "series" (even moment series, cross-checked against closed on a
    subsample), or "auto".
    """
    af = float(a)
    if not (1.0 <= af <= 8.0):
        raise ConfigError("char_bound_check supports 1 <= a <= 8")
    if t_max <= 0 or t_step <= 0:
        raise ConfigError("t_max and t_step must be positive")
    if bits is None:
        bits = max(192, int(af * af / (2 * _LN2)) + 96)
    else:
        _check_bits(bits)
    if method not in ("auto", "closed", "series"):
        raise ConfigError(f"unknown method {method!r}")
    if method == "auto":
        method = "series" if af * t_max > 32.0 else "closed"

    trunc = TruncatedGaussian(af, bits)
    n_steps = int(round(t_max / t_step))
    step_raw = PReal(t_step, bits).raw
    wp_top = bits + int(af * t_max / _LN2) + 64

    coeffs = None
    if method == "series":
        m_top = _series_cutoff(af * t_max, bits + 32)
        coeffs = _char_series_coeffs(trunc.a.raw, m_top, wp_top)

    def psi_series(t_raw, tf: float):
        at = af * abs(tf)
        wp = bits + int(at / _LN2) + 64
        m_use = min(len(coeffs) - 1, _series_cutoff(at, bits + 32))
        t2 = mpf_mul(t_raw, t_raw, wp, _RND)
        acc = coeffs[m_use]
        for m in range(m_use - 1, -1, -1):
            acc = mpf_add(coeffs[m], mpf_mul(acc, t2, wp, _RND), wp, _RND)
        return acc

    def psi_closed(t_raw):
        t_val = PReal._wrap(t_raw, bits)
        return trunc.char_fn(t_val).real.raw

    best = fzero
    best_t = 0.0
    cross = 0
    check_every = max(1, n_steps // 8)
    for j in range(n_steps + 1):
        t_raw = mpf_mul_int(step_raw, j, wp_top, _RND)
        tf = j * t_step
        if method == "series":
            psi = psi_series(t_raw, tf)
            if j % check_every == 0:
                ref = psi_closed(t_raw)
                gap = mpf_abs(mpf_sub(psi, ref, bits, _RND))
                if _mag(gap) > -(bits // 2):
                    raise ChainViolation(
                        f"series and closed-form char evaluations disagree at t={tf:g}"
                    )
                cross += 1
        else:
            psi = psi_closed(t_raw)
        half_sq = mpf_shift(mpf_mul(t_raw, t_raw, wp_top, _RND), -1)
        gauss = mpf_exp(mpf_neg(half_sq), wp_top, _RND)
        dev = mpf_abs(mpf_sub(psi, gauss, wp_top, _RND))
        if mpf_cmp(dev, best) > 0:
            best = dev
            best_t = tf

    q = gauss_upper_tail(PReal(af, bits))
    bound_tail = 4 * q
    half_a_sq = mpf_shift(mpf_mul(trunc.a.raw, trunc.a.raw, bits, _RND), -1)
    gauss_a = PReal._wrap(mpf_exp(mpf_neg(half_a_sq), bits, _RND), bits)
    two_pi = PReal._wrap(mpf_mul_int(mpf_pi(bits, _RND), 2, bits, _RND), bits)
    bound_density = 4 * gauss_a / (
        PReal._wrap(mpf_sqrt(two_pi.raw, bits, _RND), bits) * trunc.a
    )
    bound_plain = 2 * gauss_a
    max_dev = PReal._wrap(mpf_pos(best, bits, _RND), bits)

    links = (
        max_dev <= bound_tail,
        bound_tail <= bound_density,
        bound_density <= bound_plain,
    )
    if not all(links):
        raise ChainViolation(
            f"characteristic deviation chain failed at a={af:g}: "
            f"max {float(max_dev):.6e}, 4Q {float(bound_tail):.6e}, "
            f"density {float(bound_density):.6e}, plain {float(bound_plain):.6e}"
        )
    return CharBoundReport(
        a=af,
        bits=bits,
        method=method,
        t_max=t_max,
        t_step=t_step,
        n_points=2 * n_steps + 1,
        max_deviation=max_dev,
        witness_t=best_t,
        bound_tail=bound_tail,
        bound_density=bound_density,
        bound_plain=bound_plain,
        cross_checks=cross,
        passed=True,
    )
