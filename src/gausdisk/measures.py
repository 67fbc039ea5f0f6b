"""Probability measures approximating the standard Gaussian, and the
transforms used to compare them with it.

Three measure families live here:

* ``DiscreteMeasure`` — finitely many atoms.  A matched-moment rule is
  one: ``hermite.build_rule`` returns a ``QuadratureRule``, the subclass
  whose type vouches for the Gauss-Hermite atoms.
* ``TruncatedGaussian`` — the Gaussian conditioned on [-a, a].
* ``StandardGaussian`` — the target itself, for reference.

Each measure exposes its two-sided Laplace transform L(z) = E[exp(zX)]
as an entire function of a complex argument, the characteristic function
L(it), and the error functional L(z) - exp(z**2/2) measuring the drift
from the Gaussian transform.  Every transform has one kernel, on raw
libmp (re, im) pairs: arguments enter through ``precision._scalar`` and
``precision._pair``, so a real argument is the complex point with an exact
zero imaginary part, and ``precision._like`` returns a PReal for it.

For both paper families, -B = exp(z**2/2) - L(z) has nonnegative Taylor
coefficients, so the sup of |B| over |z| = r is the single value |B(r)|:
``Measure.real_axis_error(r)``, which ``figure`` reads with no scan.

The truncated family has one kernel, the series of its even moments,

    L(z) = sum_m ell_m z**(2m),   ell_m = R_m / (R_0 * 2**m * m!),
    R_m = sum_{j>m} a**(2j-1) / (2j-1)!!,

which follows from integral_0^a x**(2m) exp(-x**2/2) dx
= (2m-1)!! exp(-a**2/2) R_m.  The normaliser 2*phi(a)/(1 - 2*Q(a)) is
1/R_0, so no CDF is needed.  Each R_m is a sum of positive terms, built
downward from one short tail sum.  Since ell_m <= a**(2m)/(2m)!, the
terms add up to at most exp(a*|z|), and a lift of a*|z|/ln 2 bits covers
the cancellation off the real axis.

Both halves run on Python integers at a fixed scale 2**-wp, as
``_phi_series`` does: ``_moment_coeffs`` builds the t_j, R_m and ell_m
with one floor division a step, and ``_horner`` sums the series in
u = z**2 / 2**e, 2**e >= |z|**2, so |u| <= 1 and no error grows from one
step to the next.  Their docstrings derive the guard bits and the error
bound.  Im u = 0 (a real or an imaginary z) runs a real loop, one product
a step, and leaves the imaginary part an exact zero.

The normal CDF has one kernel, ``_phi_series``, for real and complex
arguments: the everywhere-convergent odd Taylor series

    1/2 + (2*pi)**(-1/2) * sum_n (-1)**n z**(2n+1) / (2**n n! (2n+1)),

summed on integers at the fixed scale 2**-(bits + ceil(lift/2) + 64),
lift = |z|**2/ln 2; its docstring derives the error bound behind that
precision.  Arguments are capped at |z| <= 64.  It serves ``normal_cdf``,
which is also every upper tail, Q(a) = Phi(-a), and through it
``truncation_error_closed_form``, which writes the truncated error
through upper tails and is the independent oracle for the moment series.

``char_bound_check`` sweeps the characteristic function of a truncated
Gaussian over a dense real grid and certifies the deviation chain
max_t |psi(t) - exp(-t**2/2)|  <=  4*Q(a)  <=  (4/(sqrt(2*pi)*a))*exp(-a**2/2)
<=  2*exp(-a**2/2), where Q is the Gaussian upper tail.  It builds the
moment coefficients once, evaluates psi by the same integer Horner loop
at every grid point, and cross-checks it against the closed form on a
subsample.  It returns only when the chain and the cross-check hold, and
raises ChainViolation otherwise.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, TextIO

from mpmath.libmp import (
    fone,
    from_man_exp,
    fzero,
    mpc_add,
    mpc_div,
    mpc_exp,
    mpc_mul,
    mpc_mul_mpf,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_exp,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
)

from .errors import ChainViolation, ConfigError, ConvergenceError
from .precision import PComplex, PReal, _check_bits, _inv_sqrt_2pi, _like, _pair, _real, _scalar
from .precision import read_tag_rows


_RND = round_nearest
_LN2 = math.log(2.0)

_MAX_CDF_ARG = 64.0
# log2 of the resolution to which a circle or line scan sharpens its best
# sample; the figure manifest records it as scan_resolution_exp.
_RESOLUTION_EXP = -64
# The most grid steps char_bound_check sweeps.
_MAX_CHAR_STEPS = 10_000


def _mag(raw) -> int:
    """Upper bound on log2|raw|; very small for zero."""
    return raw[2] + raw[3] if raw[1] else -(1 << 60)


def _gauss_raw(pair, prec: int):
    """exp(z**2/2) on a raw pair, at ``prec`` bits."""
    sq = mpc_mul(pair, pair, prec, _RND)
    return mpc_exp((mpf_shift(sq[0], -1), mpf_shift(sq[1], -1)), prec, _RND)


def _phi_series(z, bits: int):
    """Phi(z) on a raw (re, im) pair: the odd Taylor series summed on Python
    integers at the fixed scale 2**-wp, as mpmath's elementary functions
    are: s_n = ((s_(n-1)*h) >> wp) // n, h = -z**2/2, term_n = s_n // (2n+1),
    and one rounding to ``bits`` at the end.

    On the real axis the integers hold the growth of the partial sums
    exactly; each step loses under three units of 2**-wp.  The terms
    alternate, so a unit lost in s_n perturbs a tail that sums to about
    term_n, and N terms (N < 2**14) cost about N units.  Stopping at the
    first term below 2**-(bits + ceil(lift/2) + 32) past 2n > |z|**2,
    lift = |z|**2/ln 2, wp = bits + ceil(lift/2) + 64 keeps the absolute
    error below about 2**-(bits + ceil(lift/2) + 30).  Since
    Phi(-x) ~ 2**-(lift/2)/(2.5|x|), that is relative error below
    2**-(bits + 20) down to x = -64.

    Imaginary parts carry the finer scale 2**-(wp + e), |Im z| < 2**-e, so
    Im Phi(z) ~ Im(z)*phi(Re z) keeps its relative accuracy near the real
    axis; an exact zero imaginary part stays exactly zero.  Where
    |Im z| > |Re z| the terms keep their phase and the error grows to about
    2**-(bits + 30) * |Phi(z)|."""
    re_f = to_float(z[0], rnd=_RND)
    im_f = to_float(z[1], rnd=_RND)
    norm2 = re_f * re_f + im_f * im_f
    if norm2 > _MAX_CDF_ARG * _MAX_CDF_ARG:
        raise ConfigError(
            f"normal_cdf argument too large: |z| = {math.hypot(re_f, im_f):.3g} > 64"
        )
    half = -(-int(norm2 / _LN2) // 2)
    wp = bits + half + 64
    cut = 1 << (wp - (bits + half + 32))
    e = max(0, -_mag(z[1])) if z[1][1] else 0
    sr = total_r = to_fixed(z[0], wp)
    si = total_i = to_fixed(z[1], wp + e)
    hr, hi = -((sr * sr - ((si * si) >> 2 * e)) >> (wp + 1)), -((sr * si) >> wp)
    n = 1
    while True:
        sr, si = (
            ((sr * hr - ((si * hi) >> 2 * e)) >> wp) // n,
            ((sr * hi + si * hr) >> wp) // n,
        )
        term_r, term_i = sr // (2 * n + 1), si // (2 * n + 1)
        total_r += term_r
        total_i += term_i
        if 2 * n > norm2 and -cut < term_r < cut and -cut < term_i < cut:
            break
        n += 1
        if n > 200000:
            raise ConvergenceError("normal_cdf series failed to terminate")
    c = to_fixed(_inv_sqrt_2pi(wp), wp)
    return (
        from_man_exp(((total_r * c) >> wp) + (1 << (wp - 1)), -wp, bits, _RND),
        from_man_exp((total_i * c) >> wp, -wp - e, bits, _RND),
    )


def normal_cdf(z):
    """Standard normal CDF, extended to complex arguments with |z| <= 64.

    Returns a PReal for real input and a PComplex otherwise, at the
    argument's precision.
    """
    z = _scalar(z)
    return _like(z, _phi_series(_pair(z), z.bits), z.bits)


# -- measures ----------------------------------------------------------


def _sums_to_one(weights: Iterable[PReal], bits: int) -> bool:
    """True when ``weights`` sum to one within 2**(16 - bits)."""
    total = fzero
    for w in weights:
        total = mpf_add(total, w.raw, bits + 32, _RND)
    drift = mpf_sub(total, fone, bits + 32, _RND)
    return drift[1] == 0 or drift[2] + drift[3] <= 16 - bits


class Measure:
    """A probability measure on the real line with an entire Laplace
    transform.  Subclasses implement :meth:`laplace`."""

    bits: int

    def laplace(self, z):
        raise NotImplementedError

    def char_fn(self, t):
        """Characteristic function: the Laplace transform at i*t."""
        t = PComplex(_scalar(t, self.bits))
        return self.laplace(PComplex(-t.imag, t.real))

    def laplace_error(self, z):
        """L(z) - exp(z**2/2): the drift from the Gaussian transform."""
        z = _scalar(z, self.bits)
        value = self.laplace(z)
        bits = value.bits
        gauss = _gauss_raw(_pair(z), bits + 8)
        return _like(z, mpc_sub(_pair(value), gauss, bits + 8, _RND), bits)

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

    def real_axis_error(self, r) -> PReal:
        """sup over |z| = r of |B(z)|, read as |B(r)| at z = r + 0i, for a
        measure whose :meth:`error_peaks_on_real_axis` holds.

        r is rounded to the measure's bits and must be positive; any other
        measure raises ConfigError, since its sup needs a scan."""
        if not self.error_peaks_on_real_axis():
            raise ConfigError(f"the sup of a {type(self).__name__}'s error needs a scan")
        bits = self.bits
        r = _real(r, bits).round_to(bits)
        if not r > 0:
            raise ConfigError("circle radius must be positive")
        return abs(self.laplace_error(PComplex(r, PReal(0, bits), bits=bits)))


class DiscreteMeasure(Measure):
    """A measure with finitely many atoms, locations sorted ascending.

    Masses must be nonnegative and sum to one within 2**(16 - b), where b
    is the least of ``bits`` and the masses' own stated bits.
    """

    def __init__(self, atoms: Iterable[tuple], bits: int | None = None):
        coerced = [(_real(loc, bits), _real(mass, bits)) for loc, mass in atoms]
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
        # Masses stated at fewer bits than the measure's sum to one only as
        # closely as their own precision allows.
        sum_bits = min(bits, *(mass.bits for _, mass in coerced))
        if not _sums_to_one((mass for _, mass in coerced), sum_bits):
            raise ConfigError(f"atom masses do not sum to 1 within 2^{16 - sum_bits}")
        self.atoms = tuple(coerced)
        self.bits = bits
        self._symmetric = self._check_symmetric()

    def _check_symmetric(self) -> bool:
        n = len(self.atoms)
        for j in range(n // 2 + 1):
            xl, wl = self.atoms[j]
            xr, wr = self.atoms[n - 1 - j]
            if xl.raw != (mpf_neg(xr.raw)) or wl.raw != wr.raw:
                return False
        return True

    @staticmethod
    def from_quadrature(rule: "DiscreteMeasure") -> "DiscreteMeasure":
        """The rule itself: a rule from ``build_rule`` is already a measure."""
        return rule

    def support_radius(self) -> PReal:
        return max(abs(self.atoms[0][0]), abs(self.atoms[-1][0]))

    def is_symmetric(self) -> bool:
        return self._symmetric

    def laplace(self, z):
        z = _scalar(z, self.bits)
        out_bits = max(self.bits, z.bits)
        wp = out_bits + 32
        zw = tuple(mpf_pos(part, wp, _RND) for part in _pair(z))
        n = len(self.atoms)
        # A symmetric measure pairs x with -x through exp(-xz) = 1/exp(xz):
        # the largest atom first, the middle one (if any) last.
        atoms = reversed(self.atoms[(n + 1) // 2:]) if self._symmetric else self.atoms
        total = (fzero, fzero)
        for x, w in atoms:
            e = mpc_exp(mpc_mul_mpf(zw, x.raw, wp, _RND), wp, _RND)
            if self._symmetric:
                e = mpc_add(e, mpc_div((fone, fzero), e, wp, _RND), wp, _RND)
            total = mpc_add(total, mpc_mul_mpf(e, w.raw, wp, _RND), wp, _RND)
        if self._symmetric and n % 2:
            total = mpc_add(total, (self.atoms[n // 2][1].raw, fzero), wp, _RND)
        return _like(z, total, out_bits)

    @classmethod
    def from_csv(cls, src: TextIO) -> "DiscreteMeasure":
        """Atoms from a location,mass CSV or from a rule CSV (see
        :func:`gausdisk.hermite.rule_to_csv`)."""
        return cls(read_tag_rows(src, "location,mass", "node,weight"))


def _term_below(at: float, m: int, bits_needed: float) -> bool:
    """Whether max(a*t, 1)**(2m)/(2m)! < 2**(-bits_needed), on logs."""
    return 2 * m * math.log(max(at, 1.0)) - math.lgamma(2 * m + 1) < -bits_needed * _LN2


def _series_cutoff(at: float, bits_needed: float) -> int:
    """The least index m >= 1 with max(a*t, 1)**(2m)/(2m)! below
    2**(-bits_needed), tested by ``_term_below``: grown by a factor 1.25
    from a*t/2, then bisected.

    The terms rise and then fall, and none before the peak is below the
    first, 1, so for bits_needed >= 0 the test fails below m and passes
    from m on.  Such an m is large enough that each later term of
    sum_n (a*t)**(2n)/(2n)! is under half the one before, so the series
    cut after index m misses less than 2**(-bits_needed)."""
    lo, hi = 0, max(1, int(at / 2))
    while not _term_below(at, hi, bits_needed):
        lo, hi = hi, int(hi * 1.25) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _term_below(at, mid, bits_needed) else (mid, hi)
    return hi


def _shift(man: int, k: int) -> int:
    """floor(man * 2**k)."""
    return man << k if k >= 0 else man >> -k


def _signed(raw) -> tuple[int, int]:
    """(m, x) with raw = m * 2**x exactly, m a signed integer."""
    return (-raw[1] if raw[0] else raw[1]), raw[2]


def _prescale(w_abs: float) -> int:
    """The least e >= 0 with 2**e > |w|(1 + 2**-40), given |w| as a double
    within a relative 2**-50 of the true one: the true |w| lies strictly
    below 2**e, and 2**e < 2.01*|w| when e > 0."""
    return max(0, math.frexp(w_abs * (1.0 + 2.0**-40))[1])


def _horner_guard(n: int, af: float) -> int:
    """Guard bits of ``_horner`` for n + 1 terms at half-width a; see there."""
    return 36 + 2 * (n + math.ceil(af * af) + 1).bit_length()


def _moment_coeffs(a_raw, n: int, e: int, wp: int) -> list:
    """C_0..C_n with C_m = ell_m * 2**(e*m) at the fixed scale 2**-wp:
    C_0 = 2**wp exactly and each other C_m below its true value by less
    than 1 + 2**-30 units, for a >= 1 and e >= 0.

    With rho_m = R_m/R_0 <= 1 and p_m = 2**((e-1)*m)/m!, the coefficient is
    ell_m * 2**(e*m) = rho_m * p_m.  p_m is largest at m = min(n, 2**(e-1));
    call its log2 ceiling ``big``.  Every step below is one floor division,
    so each quantity comes out below its true value:

    * t_1 = a, t_(j+1) = t_j * a**2/(2j+1) at the scale 2**-s, a**2 exact.
      The unit lost at step i reaches step j scaled by t_j/t_i, and t_i is
      at least min(1, t_j) for i <= j (the terms rise from t_1 = a >= 1 to
      their peak, then fall), so T_j is short by under j*(1 + t_j) units.
    * The loop runs past n until a**2/(2j+1) <= 1/2 and T_j = 0; each later
      term at most halves, so the dropped tail is at most t_j, inside that
      error.  It stops at some J < n + s + 2**13: the ratio drops to 1/2
      by j = 4097, and after that T_j, below R_0 * 2**s < 2**(s + 2955),
      halves at every step.  So each R_m is short by under 2*J**2*R_0
      units, and with s = wp + big + 2*bitlen(span) + 33, span =
      n + wp + big + 2**14 > J, rho_m * p_m loses under 2**-32 units of
      2**-wp, the normaliser R_0 included.
    * K_m = 2**v * p_m / R_0 runs K_m = K_(m-1) * 2**e / (2m) from
      K_0 = 2**(v+s) // R_0.  The unit lost at step i grows by K_m/K_i,
      so K_m is short by under (m+1)/min(K_0, K_m) relative; with
      v = wp + big + log2(R_0) + bitlen(n+1) + 33 that is under 2**-32
      units of C_m either way.
    * C_m = R_m * K_m >> (s + v - wp) floors once more: under one unit.
    """
    _, man, exp, _ = a_raw
    num, den = (man * man << 2 * exp, 1) if exp >= 0 else (man * man, 1 << -2 * exp)
    top = min(n, 1 << (e - 1)) if e else 0
    big = math.ceil(((e - 1) * top * _LN2 - math.lgamma(top + 1)) / _LN2) + 1 if top else 0
    s = wp + big + 2 * (n + wp + big + (1 << 14)).bit_length() + 33

    t = _shift(man, exp + s)
    terms = [t]  # T_1..T_n
    for j in range(1, n):
        t = t * num // (den * (2 * j + 1))
        terms.append(t)
    j = n
    tail = 0  # R_n
    while True:
        t = t * num // (den * (2 * j + 1))
        j += 1
        if not t and 2 * num <= den * (2 * j + 1):
            break
        tail += t
    tails = [tail]  # R_n down to R_0
    for t in reversed(terms):
        tails.append(tails[-1] + t)
    tails.reverse()

    r0 = tails[0]
    v = wp + big + (r0.bit_length() - s) + (n + 1).bit_length() + 33
    k = (1 << (v + s)) // r0
    cut = s + v - wp
    coeffs = [1 << wp]
    for m in range(1, n + 1):
        k = (k << e) // (2 * m)
        coeffs.append((tails[m] * k) >> cut)
    return coeffs


def _horner(coeffs: list, n: int, ur: int, ui: int, wp: int, f: int) -> tuple[int, int]:
    """sum_{m <= n} c_m * u**m on Python integers, for |u| < 1 and
    coefficients C_m = c_m at the fixed scale 2**-wp: Re u and the real
    part at 2**-wp, Im u and the imaginary part at the finer 2**-(wp + f),
    where |Im u| < 2**-f.  With ui = 0 the loop is real: one product a step
    and an exact zero imaginary part.

    Every step floors its product once, under one unit, and an error made
    at step m reaches the sum multiplied by u**m, |u**m| <= 1; in the
    imaginary part a real unit lost at step m enters through Im u**m,
    under m * 2**-f.  For the series of ``_moment_coeffs`` with u =
    z**2 / 2**e (``_prescale``), n terms and a*|z| = at, adding the
    coefficients' units and the flooring of u itself (under two units,
    moving the sum by at most |du| * max|P'|, and the imaginary part by
    |du| * max|P''| as well; both derivatives are bounded through
    ell_m <= a**(2m)/(2m)!), the sum is off by under
    16 * N**2 * e**at units of each part's scale, N = n + ceil(a**2) + 1.
    So at wp = bits + ceil(at / ln 2) + G with G = ``_horner_guard(n, a)``
    = 36 + 2 * bitlen(N), each part errs by under 2**-(bits + 32) of its
    scale: absolute in the real part, and relative to 2**-f in the
    imaginary part, which keeps Im L(z) ~ Im(z**2) * L'(Re z**2) accurate
    near the real axis.
    """
    acc = coeffs[n]
    if not ui:
        for m in range(n - 1, -1, -1):
            acc = coeffs[m] + ((acc * ur) >> wp)
        return acc, 0
    acc_i = 0
    for m in range(n - 1, -1, -1):
        acc, acc_i = (
            coeffs[m] + ((acc * ur - ((acc_i * ui) >> 2 * f)) >> wp),
            (acc * ui + acc_i * ur) >> wp,
        )
    return acc, acc_i


class TruncatedGaussian(Measure):
    """The standard Gaussian conditioned on [-a, a], 1 <= a <= 64.

    Its Laplace transform is summed from the even-moment series of the
    module docstring.  Evaluation requires a + |z| <= 64.
    """

    def __init__(self, a, bits: int = 256):
        _check_bits(bits)
        a = _real(a, bits)
        if a < 1:
            raise ConfigError("truncation half-width must be at least 1")
        if a > _MAX_CDF_ARG:
            raise ConfigError("truncation half-width must be at most 64")
        self.a = a.round_to(bits)
        self.bits = bits

    def support_radius(self) -> PReal:
        return self.a

    def is_symmetric(self) -> bool:
        return True

    def error_peaks_on_real_axis(self) -> bool:
        # Conditioning on |X| <= a lowers every even moment.
        return True

    def laplace(self, z):
        z = _scalar(z, self.bits)
        out_bits = max(self.bits, z.bits)
        af = float(self.a)
        z_abs = abs(complex(z))
        if af + z_abs > _MAX_CDF_ARG:
            raise ConfigError("laplace argument too far out: a + |z| > 64")
        at = af * z_abs
        lift = math.ceil(at / _LN2)
        n = _series_cutoff(at, out_bits + lift + 32)
        e = _prescale(z_abs * z_abs)
        wp = out_bits + lift + _horner_guard(n, af)
        zr, zi = _pair(z)
        (xr, er), (xi, ei) = _signed(zr), _signed(zi)
        # u = z**2 / 2**e from the exact square; |Im u| < 2**-f.
        ur = _shift(xr * xr, 2 * er + wp - e) - _shift(xi * xi, 2 * ei + wp - e)
        f = max(0, e - 1 - _mag(zr) - _mag(zi)) if xr and xi else 0
        ui = _shift(2 * xr * xi, er + ei + wp + f - e)
        coeffs = _moment_coeffs(self.a.raw, n, e, wp)
        re, im = _horner(coeffs, n, ur, ui, wp, f)
        return _like(z, (from_man_exp(re, -wp), from_man_exp(im, -wp - f)), out_bits)


class StandardGaussian(Measure):
    """The target measure; its own transform, for reference and testing."""

    def __init__(self, bits: int = 256):
        _check_bits(bits)
        self.bits = bits

    def is_symmetric(self) -> bool:
        return True

    def laplace(self, z):
        z = _scalar(z, self.bits)
        out_bits = max(self.bits, z.bits)
        return _like(z, _gauss_raw(_pair(z), out_bits + 8), out_bits)

    def laplace_error(self, z):
        z = _scalar(z, self.bits)
        return _like(z, (fzero, fzero), max(self.bits, z.bits))


def truncation_error_closed_form(measure: TruncatedGaussian, z) -> "PComplex | PReal":
    """The truncated-Gaussian transform error written through upper tails:

        -exp(z**2/2) * (Q(a+z) + Q(a-z) - 2*Q(a)) / (1 - 2*Q(a)).

    Algebraically identical to ``measure.laplace_error(z)``; computing it
    through tails provides an independent cross-check of the direct
    subtraction.
    """
    if not isinstance(measure, TruncatedGaussian):
        raise ConfigError("closed form applies to truncated Gaussians")
    z = _scalar(z, measure.bits)
    out_bits = max(measure.bits, z.bits)
    wp = out_bits + 32
    a = measure.a
    q_a = normal_cdf(-a.round_to(wp))
    denom = PReal(1, wp) - 2 * q_a
    zw = PComplex(z, bits=wp)
    a_w = PComplex(a, PReal(0, wp), bits=wp)
    q_plus = 1 - normal_cdf(a_w + zw)
    q_minus = 1 - normal_cdf(a_w - zw)
    gauss = PComplex._wrap(_gauss_raw(zw.raw, wp), wp)
    value = -(gauss * (q_plus + q_minus - 2 * q_a)) / denom
    return _like(z, value.raw, out_bits)


# -- characteristic function deviation sweep ---------------------------


class CharBoundReport(NamedTuple):
    """A characteristic-function deviation sweep whose chain held."""

    bits: int
    max_deviation: PReal
    bound_tail: PReal
    bound_density: PReal
    bound_plain: PReal
    cross_checks: int


def char_bound_check(
    a,
    t_max: float = 50.0,
    t_step: float = 0.01,
) -> CharBoundReport:
    """Sweep |psi_trunc(t) - exp(-t**2/2)| over the symmetric grid
    {j*h : |j*h| <= t_max}, h = t_step, and certify the three-bound chain
    grid max <= 4*Q(a) <= (4/(sqrt(2*pi)*a))*exp(-a**2/2) <= 2*exp(-a**2/2),
    at max(192, floor(a**2/(2 ln 2)) + 96) bits.

    The characteristic function of a symmetric measure is even, so only
    t >= 0 is evaluated.  psi comes from the moment series, built once at
    the precision the largest t needs, and is summed at each t_j = j*h,
    h = t_step rounded to ``bits``, up to ``_series_cutoff``'s least index
    m with max(a*t, 1)**(2m)/(2m)! under 2**-(bits + 32); m only grows
    with t, so it is advanced along the grid by the same ``_term_below``
    test.  The Gaussian G_j = exp(-t_j**2/2) is stepped on integers at
    psi's scale 2**-wp,

        G_(j+1) = G_j * P_j,   P_(j+1) = P_j * Q,

    with P_0 = exp(-h**2/2) and Q = exp(-h**2) from exp at wp + 8 bits,
    floored, each within 2 units.  Each product floors once, and P, Q <= 1,
    so P_j is off by under 2 + 3j units and G_j by under 3j**2 <= 2**29
    units on at most 10,000 steps; wp exceeds wp_top by the 40 or more
    guard bits of ``_horner``, so G_j errs by under 2**-(wp_top + 11), far
    below psi's own error.  On every eighth of the grid psi - G is cross-checked against
    ``truncation_error_closed_form`` at z = it.  Returns only when the
    chain and every cross-check hold; raises ChainViolation otherwise.  A
    grid of more than 10,000 steps, or one reaching past a + t = 64, the
    truncated Gaussian's transform domain, raises ConfigError before any
    work starts.
    """
    af = float(_real(a))
    if not (1.0 <= af <= 8.0):
        raise ConfigError("char_bound_check supports 1 <= a <= 8")
    t_max, t_step = float(_real(t_max)), float(_real(t_step))
    if t_max <= 0 or t_step <= 0:
        raise ConfigError("t_max and t_step must be positive")
    steps = t_max / t_step
    if steps > _MAX_CHAR_STEPS:
        raise ConfigError(
            f"char_bound_check grid has {steps:.6g} steps, more than {_MAX_CHAR_STEPS}"
        )
    # The last j has j*h <= t_max up to a relative 2**-44: that absorbs the
    # rounding of t_max/h (0.3/0.1 gives three steps) well inside the 2**-40
    # margin of _prescale, so everything below is sized from t_max.
    n_steps = math.floor(steps * (1 + 2.0**-44))
    if af + t_max > _MAX_CDF_ARG:
        raise ConfigError(
            f"char_bound_check needs a + t <= 64 on its grid, got a={af:g}, t up to {t_max:g}"
        )
    bits = max(192, int(af * af / (2 * _LN2)) + 96)

    trunc = TruncatedGaussian(af, bits)
    step_raw = PReal(t_step, bits).raw
    wp_top = bits + int(af * t_max / _LN2) + 64
    n_top = _series_cutoff(af * t_max, bits + 32)
    # One coefficient set serves every t, so u = -t**2 / 2**e can be far
    # below 1 in size; the e extra bits cover 2**e / max(t**2, 1) in the
    # bound of _horner.
    e = _prescale(t_max * t_max)
    wp = wp_top + e + _horner_guard(n_top, af)
    coeffs = _moment_coeffs(trunc.a.raw, n_top, e, wp)
    step_man, step_exp = _signed(step_raw)
    h_sq = from_man_exp(step_man * step_man, 2 * step_exp)
    p_j = to_fixed(mpf_exp(mpf_neg(mpf_shift(h_sq, -1)), wp + 8, _RND), wp)
    q_step = to_fixed(mpf_exp(mpf_neg(h_sq), wp + 8, _RND), wp)
    g_j = 1 << wp
    n = 1
    zero = PReal(0, bits)

    best = 0
    cross = 0
    check_every = max(1, n_steps // 8)
    for j in range(n_steps + 1):
        tf = j * t_step
        while n < n_top and not _term_below(af * tf, n, bits + 32):
            n += 1
        t_man = step_man * j
        psi, _ = _horner(coeffs, n, _shift(-t_man * t_man, 2 * step_exp + wp - e), 0, wp, 0)
        diff = psi - g_j
        if j % check_every == 0:
            it = PComplex(zero, PReal._wrap(from_man_exp(t_man, step_exp), bits))
            ref = truncation_error_closed_form(trunc, it).real.raw
            gap = mpf_abs(mpf_sub(from_man_exp(diff, -wp), ref, bits, _RND))
            if _mag(gap) > -(bits // 2):
                raise ChainViolation(
                    f"series and closed-form char evaluations disagree at t={tf:g}"
                )
            cross += 1
        best = max(best, abs(diff))
        g_j = (g_j * p_j) >> wp
        p_j = (p_j * q_step) >> wp

    q = normal_cdf(PReal(-af, bits))
    bound_tail = 4 * q
    gauss_a = PReal._wrap(_gauss_raw((fzero, trunc.a.raw), bits)[0], bits)
    bound_density = 4 * gauss_a * PReal._wrap(_inv_sqrt_2pi(bits), bits) / trunc.a
    bound_plain = 2 * gauss_a
    max_dev = PReal._wrap(from_man_exp(best, -wp, bits, _RND), bits)

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
        bits=bits,
        max_deviation=max_dev,
        bound_tail=bound_tail,
        bound_density=bound_density,
        bound_plain=bound_plain,
        cross_checks=cross,
    )
