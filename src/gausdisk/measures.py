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

The truncated family has one kernel, the series of its even moments,

    L(z) = sum_m ell_m z**(2m),   ell_m = R_m / (R_0 * 2**m * m!),
    R_m = sum_{j>m} a**(2j-1) / (2j-1)!!,

which follows from integral_0^a x**(2m) exp(-x**2/2) dx
= (2m-1)!! exp(-a**2/2) R_m.  The normaliser 2*phi(a)/(1 - 2*Q(a)) is
1/R_0, so no CDF is needed.  Each R_m is a sum of positive terms, built
downward from one short tail sum.  Since ell_m <= a**(2m)/(2m)!, the
terms add up to at most exp(a*|z|), and a lift of a*|z|/ln 2 bits covers
the cancellation off the real axis.

The normal CDF has one kernel, ``_phi_series``, for real and complex
arguments: the everywhere-convergent odd Taylor series

    1/2 + (2*pi)**(-1/2) * sum_n (-1)**n z**(2n+1) / (2**n n! (2n+1)),

summed on integers at the fixed scale 2**-(bits + ceil(lift/2) + 64),
lift = |z|**2/ln 2; its docstring derives the error bound behind that
precision.  Arguments are capped at |z| <= 64.  It serves
``normal_cdf``, ``gauss_upper_tail`` (as Q(a) = Phi(-a)) and
``truncation_error_closed_form``, which writes the truncated error
through upper tails and is the independent oracle for the moment series.

``char_bound_check`` sweeps the characteristic function of a truncated
Gaussian over a dense real grid and certifies the deviation chain
max_t |psi(t) - exp(-t**2/2)|  <=  4*Q(a)  <=  (4/(sqrt(2*pi)*a))*exp(-a**2/2)
<=  2*exp(-a**2/2), where Q is the Gaussian upper tail.  It builds the
moment coefficients once, evaluates psi by Horner's rule at every grid
point, and cross-checks it against the closed form on a subsample.  It
returns only when the chain and the cross-check hold, and raises
ChainViolation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, TextIO

from mpmath.libmp import (
    fone,
    from_int,
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
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
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
from .precision import read_tag_rows, write_tag_rows

__all__ = [
    "normal_cdf",
    "gauss_upper_tail",
    "Measure",
    "DiscreteMeasure",
    "TruncatedGaussian",
    "StandardGaussian",
    "truncation_error_closed_form",
    "CharBoundReport",
    "char_bound_check",
]

_RND = round_nearest
_LN2 = math.log(2.0)

_MAX_CDF_ARG = 64.0
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


def normal_cdf(z, bits: int | None = None):
    """Standard normal CDF, extended to complex arguments with |z| <= 64.

    Returns a PReal for real input and a PComplex otherwise, at the
    argument's precision unless ``bits`` overrides it.
    """
    z = _scalar(z, bits)
    b = z.bits if bits is None else _check_bits(bits)
    return _like(z, _phi_series(_pair(z), b), b)


def gauss_upper_tail(a, bits: int | None = None) -> PReal:
    """Q(a) = P(N(0,1) > a) = Phi(-a), accurate to the stated precision in
    relative terms even deep in the tail, with no lift of its own."""
    a = _real(a, bits)
    b = a.bits if bits is None else _check_bits(bits)
    return _like(a, _phi_series((mpf_neg(a.raw), fzero), b), b)


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


class DiscreteMeasure(Measure):
    """A measure with finitely many atoms, locations sorted ascending.

    Masses must be nonnegative and sum to one within 2**(-bits+16).
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
        if not _sums_to_one((mass for _, mass in coerced), bits):
            raise ConfigError(f"atom masses do not sum to 1 within 2^{16 - bits}")
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

    def to_csv(self, out: TextIO) -> None:
        write_tag_rows(out, "location,mass", self.atoms)

    @classmethod
    def from_csv(cls, src: TextIO) -> "DiscreteMeasure":
        """Atoms from a location,mass CSV (see :meth:`to_csv`) or from a
        rule CSV (see :func:`gausdisk.hermite.rule_to_csv`)."""
        return cls(read_tag_rows(src, "location,mass", "node,weight"))


def _series_cutoff(at: float, bits_needed: float) -> int:
    """An index m with max(a*t, 1)**(2m)/(2m)! below 2**(-bits_needed).

    Such an m is large enough that each later term of
    sum_n (a*t)**(2n)/(2n)! is under half the one before, so the series
    cut after index m misses less than 2**(-bits_needed)."""
    at = max(at, 1.0)
    target = -bits_needed * _LN2
    m = max(2, int(at / 2))
    while 2 * m * math.log(at) - math.lgamma(2 * m + 1) > target:
        m = int(m * 1.25) + 1
    return m


def _moment_coeffs(a_raw, n: int, wp: int) -> list:
    """ell_0..ell_n of the truncated Gaussian's series L(z) = sum ell_m z**(2m),
    each to about 2**-wp relative (see the module docstring)."""
    a_sq = mpf_mul(a_raw, a_raw, wp, _RND)
    a_sq_f = to_float(a_sq, rnd=_RND)

    def after(t, j):  # t_(j+1) from t_j = a**(2j-1)/(2j-1)!!
        return mpf_div(mpf_mul(t, a_sq, wp, _RND), from_int(2 * j + 1), wp, _RND)

    terms = [mpf_pos(a_raw, wp, _RND)]  # t_1..t_n
    for j in range(1, n):
        terms.append(after(terms[-1], j))
    # R_n = t_(n+1) + t_(n+2) + ...; once a**2/(2j+1) <= 1/2, all that
    # follows t_j is at most t_j.
    j = n + 1
    t = r = after(terms[-1], n)
    while 2 * j + 1 < 2 * a_sq_f or _mag(t) >= _mag(r) - wp - 1:
        t = after(t, j)
        r = mpf_add(r, t, wp, _RND)
        j += 1
    tails = [r]  # R_n down to R_0
    for m in range(n, 0, -1):
        tails.append(mpf_add(tails[-1], terms[m - 1], wp, _RND))
    tails.reverse()
    coeffs = [fone]
    scale = mpf_div(fone, tails[0], wp, _RND)
    for m in range(1, n + 1):
        scale = mpf_div(scale, from_int(2 * m), wp, _RND)
        coeffs.append(mpf_mul(tails[m], scale, wp, _RND))
    return coeffs


def _horner(coeffs: list, n: int, w, wp: int):
    """sum_{m <= n} coeffs[m] * w**m for a raw real w."""
    acc = coeffs[n]
    for m in range(n - 1, -1, -1):
        acc = mpf_add(coeffs[m], mpf_mul(acc, w, wp, _RND), wp, _RND)
    return acc


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
        wp = out_bits + math.ceil(at / _LN2) + 32
        n = _series_cutoff(at, wp)
        coeffs = _moment_coeffs(self.a.raw, n, wp)
        zp = _pair(z)
        w = mpc_mul(zp, zp, wp, _RND)
        acc = (coeffs[n], fzero)
        for m in range(n - 1, -1, -1):
            acc = mpc_mul(acc, w, wp, _RND)
            acc = (mpf_add(acc[0], coeffs[m], wp, _RND), acc[1])
        return _like(z, acc, out_bits)


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
    q_a = gauss_upper_tail(a, wp)
    denom = PReal(1, wp) - 2 * q_a
    zw = PComplex(z, bits=wp)
    a_w = PComplex(a, PReal(0, wp), bits=wp)
    q_plus = 1 - normal_cdf(a_w + zw)
    q_minus = 1 - normal_cdf(a_w - zw)
    gauss = PComplex._wrap(_gauss_raw(zw.raw, wp), wp)
    value = -(gauss * (q_plus + q_minus - 2 * q_a)) / denom
    return _like(z, value.raw, out_bits)


# -- characteristic function deviation sweep ---------------------------


@dataclass(frozen=True)
class CharBoundReport:
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
    |t| <= t_max (step t_step) and certify the three-bound chain
    grid max <= 4*Q(a) <= (4/(sqrt(2*pi)*a))*exp(-a**2/2) <= 2*exp(-a**2/2),
    at max(192, floor(a**2/(2 ln 2)) + 96) bits.

    The characteristic function of a symmetric measure is even, so only
    t >= 0 is evaluated.  psi comes from the moment series, built once at
    the precision the largest t needs; on every eighth of the grid it is
    cross-checked against ``truncation_error_closed_form`` at z = it.
    Returns only when the chain and every cross-check hold; raises
    ChainViolation otherwise.  A grid of more than 10,000 steps, or one
    reaching past a + t = 64, the truncated Gaussian's transform domain,
    raises ConfigError before any work starts.
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
    n_steps = int(round(steps))
    t_top = max(t_max, n_steps * t_step)
    if af + t_top > _MAX_CDF_ARG:
        raise ConfigError(
            f"char_bound_check needs a + t <= 64 on its grid, got a={af:g}, t up to {t_top:g}"
        )
    bits = max(192, int(af * af / (2 * _LN2)) + 96)

    trunc = TruncatedGaussian(af, bits)
    step_raw = PReal(t_step, bits).raw
    wp_top = bits + int(af * t_max / _LN2) + 64
    coeffs = _moment_coeffs(trunc.a.raw, _series_cutoff(af * t_max, bits + 32), wp_top)
    zero = PReal(0, bits)

    best = fzero
    cross = 0
    check_every = max(1, n_steps // 8)
    for j in range(n_steps + 1):
        t_raw = mpf_mul_int(step_raw, j, wp_top, _RND)
        tf = j * t_step
        at = af * tf
        wp = bits + int(at / _LN2) + 64
        n = min(len(coeffs) - 1, _series_cutoff(at, bits + 32))
        psi = _horner(coeffs, n, mpf_neg(mpf_mul(t_raw, t_raw, wp, _RND)), wp)
        gauss = _gauss_raw((fzero, t_raw), wp_top)[0]  # exp((it)**2/2)
        diff = mpf_sub(psi, gauss, wp_top, _RND)
        if j % check_every == 0:
            it = PComplex(zero, PReal._wrap(t_raw, bits))
            ref = truncation_error_closed_form(trunc, it).real.raw
            gap = mpf_abs(mpf_sub(diff, ref, bits, _RND))
            if _mag(gap) > -(bits // 2):
                raise ChainViolation(
                    f"series and closed-form char evaluations disagree at t={tf:g}"
                )
            cross += 1
        dev = mpf_abs(diff)
        if mpf_cmp(dev, best) > 0:
            best = dev

    q = gauss_upper_tail(PReal(af, bits))
    bound_tail = 4 * q
    gauss_a = PReal._wrap(_gauss_raw((fzero, trunc.a.raw), bits)[0], bits)
    bound_density = 4 * gauss_a * PReal._wrap(_inv_sqrt_2pi(bits), bits) / trunc.a
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
        bits=bits,
        max_deviation=max_dev,
        bound_tail=bound_tail,
        bound_density=bound_density,
        bound_plain=bound_plain,
        cross_checks=cross,
    )
