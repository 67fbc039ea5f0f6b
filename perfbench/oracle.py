"""Independent mpmath oracle for the benchmark's correctness gate.

Nothing here imports gausdisk.  The quadrature rule comes from numpy's
double-precision Gauss-Hermite nodes, Newton-polished in mpmath; the
truncated Gaussian uses ``mpmath.ncdf``.  Inputs are taken as the exact
binary doubles the CLI parses from its arguments.

Why the real axis is enough: for both families -B has nonnegative Taylor
coefficients (B = L - exp(z**2/2)), so sup over |z| = r of |B| is |B(r)|.
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp, mpf


def _he_pair(k: int, x):
    """(He_k(x), He_{k-1}(x)) for the probabilists' Hermite polynomials."""
    prev, cur = mpf(1), x
    for m in range(1, k):
        prev, cur = cur, x * cur - m * prev
    return cur, prev


def hermite_rule(k: int, prec: int):
    """Nodes and normalised weights of the k-point Gauss rule for N(0, 1),
    accurate to about ``prec`` bits."""
    with mp.workprec(prec + 32):
        tol = mpf(2) ** -(prec + 16)
        nodes = []
        for guess in np.polynomial.hermite_e.hermegauss(k)[0]:
            # Odd k has the root 0 exactly; a double guess leaves ~1e-17.
            x = mpf(0) if k % 2 and abs(guess) < 1e-6 else mpf(float(guess))
            for _ in range(200):
                he_k, he_km1 = _he_pair(k, x)
                step = he_k / (k * he_km1)
                x -= step
                if abs(step) <= tol * max(1, abs(x)):
                    break
            else:
                raise ArithmeticError(f"Newton failed for a root of He_{k}")
            nodes.append(x)
        raw = [math.factorial(k - 1) / (k * _he_pair(k, x)[1] ** 2) for x in nodes]
        total = sum(raw)
        weights = [w / total for w in raw]
    return nodes, weights


def k_for_support(a_text: str) -> int:
    """ceil(a**2 / 8) for the double the CLI parses from ``a_text``."""
    with mp.workprec(256):
        return int(mp.ceil(mpf(float(a_text)) ** 2 / 8))


def trunc_error_on_axis(a_text: str, b_text: str, prec: int = 400):
    """|B(b)| for the Gaussian truncated to [-a, a]."""
    with mp.workprec(prec):
        a, b = mpf(float(a_text)), mpf(float(b_text))
        gauss = mp.exp(b * b / 2)
        lap = gauss * (mp.ncdf(a + b) + mp.ncdf(a - b) - 1) / (2 * mp.ncdf(a) - 1)
        return abs(lap - gauss)


def quad_error_on_axis(k: int, b_text: str, prec: int = 400):
    """|B(b)| for the k-point Gauss rule."""
    nodes, weights = hermite_rule(k, prec)
    with mp.workprec(prec):
        b = mpf(float(b_text))
        lap = sum(w * mp.exp(b * x) for x, w in zip(nodes, weights))
        return abs(lap - mp.exp(b * b / 2))


def agrees_to_digits(printed: str, reference, digits: int = 40) -> bool:
    """True when ``printed`` is ``reference`` correctly rounded to
    ``digits`` significant digits (half an ulp of the last digit, plus a
    hair for the reference's own rounding)."""
    with mp.workprec(512):
        value = mpf(printed)
        ref = mpf(reference)
        if ref == 0:
            return value == 0
        ulp = mpf(10) ** (int(mp.floor(mp.log10(abs(ref)))) - (digits - 1))
        return abs(value - ref) <= ulp * mpf("0.5000001")

