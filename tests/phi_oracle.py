"""The normal-CDF kernels as the library first summed them: the odd Taylor
series on libmp ``mpf`` tuples, with the working precision raised by
|z|**2/ln 2 bits to cover the growth of the partial sums.

These are the test oracle for the integer fixed-point kernels in
``gausdisk.measures``, which must return the same raw tuples.
"""

import math

from mpmath.libmp import (
    fone,
    from_int,
    mpc_add,
    mpc_mul,
    mpc_mul_mpf,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_pos,
    mpf_shift,
    mpf_sub,
    to_float,
)

from gausdisk.errors import ConfigError, ConvergenceError
from gausdisk.measures import _LN2, _MAX_CDF_ARG, _RND, _mag
from gausdisk.precision import _inv_sqrt_2pi

_HALF = mpf_shift(fone, -1)


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


def gauss_upper_tail_lifted(a, bits: int):
    """Q(a) as 1 - Phi(a) on a raw real tuple, lifted by a**2/(2 ln 2) + 16
    bits for every a, as the library first computed the upper tail."""
    af = to_float(a, rnd=_RND)
    lift = int(max(0.0, af * af) / (2.0 * _LN2)) + 16
    phi = _phi_series_real(a, bits + lift)
    q = mpf_sub(fone, phi, bits + lift, _RND)
    return mpf_pos(q, bits, _RND)
