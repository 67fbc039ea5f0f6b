"""The truncated-Gaussian series and the Hermite recurrence as the library
first summed them: loops on libmp ``mpf`` tuples that round after every
operation.

These are the test oracle for the integer fixed-point kernels in
``gausdisk.measures`` and ``gausdisk.hermite``, which must return the same
raw tuples.  ``hermite_pair`` and ``density_derivatives`` are the two
loops that each ran their own Hermite recurrence before both called
``hermite._he_rows``; they are its oracle.
"""

import math

from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpc_add,
    mpc_exp,
    mpc_mul,
    mpc_mul_int,
    mpc_mul_mpf,
    mpc_neg,
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
    to_float,
)

from gausdisk.errors import ChainViolation, ConfigError
from gausdisk.measures import (
    _LN2,
    _MAX_CDF_ARG,
    _MAX_CHAR_STEPS,
    _RND,
    CharBoundReport,
    TruncatedGaussian,
    _gauss_raw,
    _mag,
    _series_cutoff,
    normal_cdf,
    truncation_error_closed_form,
)
from gausdisk.precision import PComplex, PReal, _inv_sqrt_2pi, _like, _pair, _real, _scalar
from gausdisk.superflat import SuperflatMixture


def _moment_coeffs(a_raw, n: int, wp: int) -> list:
    """ell_0..ell_n of the truncated Gaussian's series L(z) = sum ell_m z**(2m),
    each to about 2**-wp relative."""
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


def trunc_laplace(measure: TruncatedGaussian, z):
    """``measure.laplace(z)`` summed by the complex mpf Horner loop."""
    z = _scalar(z, measure.bits)
    out_bits = max(measure.bits, z.bits)
    af = float(measure.a)
    z_abs = abs(complex(z))
    if af + z_abs > _MAX_CDF_ARG:
        raise ConfigError("laplace argument too far out: a + |z| > 64")
    at = af * z_abs
    wp = out_bits + math.ceil(at / _LN2) + 32
    n = _series_cutoff(at, wp)
    coeffs = _moment_coeffs(measure.a.raw, n, wp)
    zp = _pair(z)
    w = mpc_mul(zp, zp, wp, _RND)
    acc = (coeffs[n], fzero)
    for m in range(n - 1, -1, -1):
        acc = mpc_mul(acc, w, wp, _RND)
        acc = (mpf_add(acc[0], coeffs[m], wp, _RND), acc[1])
    return _like(z, acc, out_bits)


def char_bound_check(a, t_max: float = 50.0, t_step: float = 0.01) -> CharBoundReport:
    """``measures.char_bound_check`` with psi summed by the mpf Horner loop."""
    af = float(_real(a))
    if not (1.0 <= af <= 8.0):
        raise ConfigError("char_bound_check supports 1 <= a <= 8")
    t_max, t_step = float(_real(t_max)), float(_real(t_step))
    steps = t_max / t_step
    if steps > _MAX_CHAR_STEPS:
        raise ConfigError("grid too fine")
    n_steps = math.floor(steps * (1 + 2.0**-44))
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
        gauss = _gauss_raw((fzero, t_raw), wp_top)[0]
        diff = mpf_sub(psi, gauss, wp_top, _RND)
        if j % check_every == 0:
            it = PComplex(zero, PReal._wrap(t_raw, bits))
            ref = truncation_error_closed_form(trunc, it).real.raw
            gap = mpf_abs(mpf_sub(diff, ref, bits, _RND))
            if _mag(gap) > -(bits // 2):
                raise ChainViolation(f"closed-form char evaluations disagree at t={tf:g}")
            cross += 1
        dev = mpf_abs(diff)
        if mpf_cmp(dev, best) > 0:
            best = dev

    q = normal_cdf(-PReal(af, bits))
    bound_tail = 4 * q
    gauss_a = PReal._wrap(_gauss_raw((fzero, trunc.a.raw), bits)[0], bits)
    bound_density = 4 * gauss_a * PReal._wrap(_inv_sqrt_2pi(bits), bits) / trunc.a
    return CharBoundReport(
        bits=bits,
        max_deviation=PReal._wrap(mpf_pos(best, bits, _RND), bits),
        bound_tail=bound_tail,
        bound_density=bound_density,
        bound_plain=2 * gauss_a,
        cross_checks=cross,
    )


def _he_pair_raw(n: int, x, prec: int):
    """(He_n(x), He_{n-1}(x)) on raw libmp tuples, n >= 1."""
    prev, cur = fone, x
    for m in range(1, n):
        nxt = mpf_sub(
            mpf_mul(x, cur, prec, _RND),
            mpf_mul_int(prev, m, prec, _RND),
            prec,
            _RND,
        )
        prev, cur = cur, nxt
    return cur, prev


def hermite_pair(n: int, x):
    """``hermite.hermite_pair`` by PReal/PComplex operators at 64 guard bits."""
    x = _scalar(x)
    bits = x.bits
    if n == 0:
        return _like(x, (fone, fzero), bits), _like(x, (fzero, fzero), bits)
    xw = x.round_to(bits + 64)
    prev, cur = _like(x, (fone, fzero), bits + 64), xw
    for m in range(1, n):
        prev, cur = cur, xw * cur - m * prev
    return cur.round_to(bits), prev.round_to(bits)


def density_derivatives(mix: SuperflatMixture, z, n_max: int) -> tuple:
    """``superflat.density_derivatives`` with its own mpc Hermite loop."""
    z = _scalar(z, mix.bits)
    bits = max(mix.bits, z.bits)
    zw = _pair(z.round_to(bits))
    guard = bits + 64
    inv_root = _inv_sqrt_2pi(bits)
    totals = [(fzero, fzero)] * (n_max + 1)
    for (x, _), v in zip(mix.rule.atoms, mix.weights):
        u = mpc_sub(zw, (x.raw, fzero), bits, _RND)
        minus_sq = mpc_neg(mpc_mul(u, u, bits, _RND))
        half = (mpf_shift(minus_sq[0], -1), mpf_shift(minus_sq[1], -1))  # exact
        phi = mpc_mul_mpf(mpc_exp(half, bits, _RND), inv_root, bits, _RND)
        phi = mpc_mul_mpf(phi, v.raw, bits, _RND)  # v * phi(u)
        totals[0] = mpc_add(totals[0], phi, bits, _RND)
        he_prev, he = (fzero, fzero), (fone, fzero)  # He_{-1}, He_0
        for n in range(1, n_max + 1):
            he_prev, he = he, mpc_sub(
                mpc_mul(u, he, guard, _RND),
                mpc_mul_int(he_prev, n - 1, guard, _RND),
                guard,
                _RND,
            )
            he_n = (mpf_pos(he[0], bits, _RND), mpf_pos(he[1], bits, _RND))
            totals[n] = mpc_add(totals[n], mpc_mul(phi, he_n, bits, _RND), bits, _RND)
    return tuple(_like(z, mpc_neg(t) if n % 2 else t, bits) for n, t in enumerate(totals))
