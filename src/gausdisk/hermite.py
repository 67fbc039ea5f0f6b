"""Hermite polynomials (probabilists' normalization) and the matched-moment
quadrature rules built from their roots.

The polynomials follow He_0 = 1, He_1 = x, He_{m+1} = x*He_m - m*He_{m-1},
which are orthogonal for the standard Gaussian weight.  One kernel,
``_he_rows``, evaluates He_0..He_n at a real or complex point for
``hermite_pair`` and the superflat mixture's derivatives; the only other
copy of the recurrence is ``build_rule``'s integer loop below.  A k-point
rule places nodes at the roots of He_k with weights
(k-1)! / (k * He_{k-1}(x_i)**2); it reproduces the Gaussian moments
0, 1, 0, 3, ... up to degree 2k-1 and its nodes all lie inside
[-sqrt(4k+2), sqrt(4k+2)].

Nodes are seeded in double precision from the ratio form of the same
recurrence, r_j = He_j/He_{j-1}: its count of negative ratios brackets
each root by bisection (a Sturm sequence) and r_k/k is the Newton step.
The seeds are then polished by Newton iteration at elevated precision,
using He_k' = k*He_{k-1}; the recurrence behind each Newton step and each
weight runs on Python integers at a fixed scale (``_he_pair_raw``).
Rules stop at k = MAX_RULE_SIZE.  Weights are renormalized so they sum to
one exactly at working precision before the final rounding, making the
rule a probability measure to within the stated precision.

A rule is a measure: ``build_rule`` returns a ``QuadratureRule``, the
``DiscreteMeasure`` whose atoms are the nodes and weights, so it is
evaluated, scanned and tilted as it is.  ``rule_to_csv`` writes it, and
``DiscreteMeasure.from_csv`` reads the file back as a plain measure.  Each
call builds a new rule, so what one caller sets on its instance reaches no
other caller.
"""

from __future__ import annotations

import math
from typing import TextIO

from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpc_mul,
    mpc_mul_int,
    mpc_pos,
    mpc_sub,
    mpf_add,
    mpf_ceil,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pos,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
    to_fixed,
    to_float,
    to_int,
)

from .errors import (
    ConfigError,
    ConvergenceError,
    MathInvariantError,
    SupportViolation,
)
from .measures import DiscreteMeasure, _sums_to_one
from .precision import PReal, _check_bits, _like, _pair, _real, _scalar, write_tag_rows


_RND = round_nearest

# The largest rule build_rule makes: k_for_support(64), the rule matching
# the widest truncated Gaussian.
MAX_RULE_SIZE = 512


def hermite_pair(n: int, x):
    """Return (He_n(x), He_{n-1}(x)); He_{-1} is taken to be 0.

    ``x`` may be a PReal, a PComplex, or a Python int, float or complex
    (see :func:`gausdisk.precision._scalar`); the result has the same kind
    and stated precision as ``x``.  The rows come from :func:`_he_rows`.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ConfigError(f"hermite_pair expects an integer n >= 0, got {n!r}")
    x = _scalar(x)
    rows = [(fzero, fzero)] + _he_rows(_pair(x), n, x.bits)
    return _like(x, rows[n + 1], x.bits), _like(x, rows[n], x.bits)


def _he_rows(u, n_max: int, bits: int) -> list:
    """[He_0(u), ..., He_(n_max)(u)] for a raw (re, im) pair u, each row
    rounded to ``bits``.

    The recurrence runs on libmp complex values with 64 guard bits: u is
    rounded to bits + 64 and each step rounds its product, its integer
    multiple and their difference there.  A zero imaginary part stays an
    exact zero, and each operation then rounds as its real twin does.
    """
    guard = bits + 64
    u = mpc_pos(u, guard, _RND)
    rows = [(fzero, fzero), (fone, fzero)]  # He_(-1), He_0
    for m in range(n_max):
        u_he = mpc_mul(u, rows[-1], guard, _RND)
        rows.append(mpc_sub(u_he, mpc_mul_int(rows[-2], m, guard, _RND), guard, _RND))
    return [mpc_pos(row, bits, _RND) for row in rows[1:]]


def _he_pair_raw(n: int, x, prec: int):
    """(He_n(x), He_{n-1}(x)) for a raw real x, n >= 1, each rounded to
    ``prec`` bits: the recurrence summed on Python integers at the fixed
    scale 2**-wp, wp = prec + 32,

        H_(m+1) = ((X * H_m) >> wp) - m * H_(m-1),   X = floor(x * 2**wp).

    Only the product is floored, so each step loses under one unit of
    2**-wp, and that unit reaches He_n through the recurrence itself.  The
    mpf recurrence this replaces loses about 2**-prec times the step's
    terms |x*He_m| + m*|He_(m-1)| at each step, and its losses take the
    same path.  Those terms cannot both be small, since running the
    recurrence backward from two small values would make He_0 = 1 small;
    on the nodes their least value is 2**-2.27, at m = 2 and x = 0.0694,
    the smallest positive root of He_512 (x = 0 is exact).  So each unit
    lost here is below 2**-29 of the mpf loop's loss at the same step: the
    pair is at least as accurate as the mpf one at ``prec`` bits, before
    the one rounding at the end.  Flooring x moves the point by under one
    unit, which moves He_n by under 2**-wp * |He_n'(x)|.
    """
    wp = prec + 32
    xf = to_fixed(x, wp)
    prev, cur = 1 << wp, xf
    for m in range(1, n):
        prev, cur = cur, ((xf * cur) >> wp) - m * prev
    return from_man_exp(cur, -wp, prec, _RND), from_man_exp(prev, -wp, prec, _RND)


class QuadratureRule(DiscreteMeasure):
    """The k-point Gauss-Hermite rule as a probability measure, made only
    by :func:`build_rule`.

    Nodes ascend and mirror about zero bit for bit; weights are positive
    and sum to one at the stated precision.  The type vouches that the
    atoms are the Gauss rule itself, whose quadrature remainder for every
    even power x**(2m) is f^(2k)(xi) k!/(2k)! >= 0, so no even moment
    exceeds the Gaussian's beyond rounding.  Atoms read from elsewhere are
    a plain DiscreteMeasure and carry no such promise.
    """

    @property
    def k(self) -> int:
        return len(self.atoms)

    @property
    def nodes(self) -> tuple[PReal, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[PReal, ...]:
        return tuple(w for _, w in self.atoms)

    def error_peaks_on_real_axis(self) -> bool:
        return True


# Stand-in for a ratio that lands within this of zero; j / _TINY stays
# finite for every j < MAX_RULE_SIZE.
_TINY = 1e-290
# A double-precision Newton step below _SEED_TOL relative leaves the seed
# at rounding level, since the error squares with each step.
_SEED_TOL = 1e-10
_SEED_STEPS = 100


def _ratio_count(k: int, x: float) -> tuple[float, int]:
    """(r_k, number of roots of He_k above x) in double precision.

    r_j = He_j(x) / He_{j-1}(x) obeys r_1 = x, r_{j+1} = x - j / r_j.
    The ratios never overflow, the count of negative r_j is the Sturm
    count of roots above x, and r_k / k is the Newton step He_k / He_k'.
    """
    r, above = x, 0
    for j in range(1, k):
        if -_TINY < r < _TINY:
            r = -_TINY
        if r < 0.0:
            above += 1
        r = x - j / r
    if r < 0.0:
        above += 1
    return r, above


def _double_seeds(k: int) -> list[float]:
    """The positive roots of He_k in double precision, ascending.

    Each root is isolated in (0, sqrt(4k+2)) by bisecting on the Sturm
    count, every count tightening the brackets of all the roots, and is
    then finished by Newton steps that fall back to bisection whenever
    they would leave the bracket.
    """
    n = k // 2
    # Root m (m = 0 the largest) lies in (lo[m], hi[m]).  Both lists fall
    # with m; hi[n] = 0 bounds the roots at or below zero.
    lo = [0.0] * n
    hi = [math.sqrt(4 * k + 2)] * n + [0.0]

    def probe(x: float) -> float:
        """Tighten every bracket with the count at x; return r_k."""
        r, above = _ratio_count(k, x)
        i = above - 1
        while i >= 0 and lo[i] < x:
            lo[i] = x
            i -= 1
        i = above
        while i < n and hi[i] > x:
            hi[i] = x
            i += 1
        return r

    roots = []
    for m in range(n):
        while (m > 0 and lo[m - 1] < hi[m]) or hi[m + 1] > lo[m]:
            probe(0.5 * (lo[m] + hi[m]))
        x = 0.5 * (lo[m] + hi[m])
        for _ in range(_SEED_STEPS):
            step = probe(x) / k
            x -= step
            if abs(step) <= _SEED_TOL * x:
                break
            if not lo[m] < x < hi[m]:
                x = 0.5 * (lo[m] + hi[m])
        else:
            raise ConvergenceError(
                f"double-precision seed {m} of He_{k} did not settle "
                f"in {_SEED_STEPS} steps"
            )
        roots.append(x)
    roots.reverse()
    return roots


def _polished_positive_roots(k: int, bits: int) -> list:
    """Newton-refined positive roots of He_k as raw tuples."""
    positive = _double_seeds(k)

    work = bits + 128
    tol_exp = -(bits + 80)
    max_iter = 4 * bits
    roots = []
    for seed in positive:
        x = PReal(seed, work).raw
        for _ in range(max_iter):
            he_k, he_km1 = _he_pair_raw(k, x, work)
            step = mpf_div(he_k, mpf_mul_int(he_km1, k, work, _RND), work, _RND)
            x = mpf_sub(x, step, work, _RND)
            if step[1] == 0 or (step[2] + step[3]) <= tol_exp:
                break
        else:
            raise ConvergenceError(
                f"node refinement for k={k} did not reach 2^{tol_exp} "
                f"in {max_iter} iterations"
            )
        roots.append(x)
    # Doubles are enough to order the well-separated refined roots.
    roots.sort(key=lambda r: to_float(r, rnd=_RND))
    return roots


def build_rule(k: int, bits: int = 256) -> QuadratureRule:
    """Build the k-point rule at the stated precision, a new instance
    with the same atoms on every call."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ConfigError(f"rule size must be an integer k >= 1, got {k!r}")
    if k > MAX_RULE_SIZE:
        raise ConfigError(f"rule size k={k} exceeds the maximum {MAX_RULE_SIZE}")
    _check_bits(bits)

    work = bits + 128
    positives = _polished_positive_roots(k, bits)

    centers = [] if k % 2 == 0 else [fzero]

    fact = from_int(math.factorial(k - 1))
    half_weights = []
    for x in centers + positives:
        _, he_km1 = _he_pair_raw(k, x, work)
        denom = mpf_mul_int(mpf_mul(he_km1, he_km1, work, _RND), k, work, _RND)
        half_weights.append(mpf_div(fact, denom, work, _RND))
    raw_weights = list(reversed(half_weights[len(centers):])) + half_weights

    total = fzero
    for w in raw_weights:
        total = mpf_add(total, w, work, _RND)
    raw_weights = [mpf_div(w, total, work, _RND) for w in raw_weights]

    # Round to the stated precision, mirroring negatives exactly so the
    # rule stays symmetric bit for bit.
    half_nodes = [mpf_pos(r, bits, _RND) for r in centers + positives]
    neg_nodes = [mpf_neg(r) for r in reversed(half_nodes[len(centers):])]
    node_vals = tuple(PReal._wrap(r, bits) for r in neg_nodes + half_nodes)

    w_half = [PReal._wrap(mpf_pos(w, bits, _RND), bits) for w in raw_weights[k // 2:]]
    weight_vals = tuple(list(reversed(w_half[len(centers):])) + w_half)

    if not _sums_to_one(weight_vals, bits):
        raise MathInvariantError(f"rule weights for k={k} do not sum to 1 within 2^{16 - bits}")

    bound = mpf_shift(from_int(4 * k + 2), 0)
    top = node_vals[-1].raw
    if mpf_cmp(mpf_mul(top, top, work, _RND), bound) > 0:
        raise SupportViolation(
            f"largest node of the k={k} rule escaped sqrt({4 * k + 2})"
        )

    return QuadratureRule(zip(node_vals, weight_vals), bits)


def moment(rule: QuadratureRule, i: int) -> PReal:
    """The i-th moment sum(w * x**i) of the rule.

    Mirror nodes are paired before summing, so odd moments come out as
    exact zeros rather than rounding residue.  The pairing needs the
    symmetric atoms that only a ``QuadratureRule`` vouches for, so any
    other measure raises ConfigError.
    """
    if not isinstance(rule, QuadratureRule):
        raise ConfigError(f"moment expects a QuadratureRule, got {type(rule).__name__}")
    if not isinstance(i, int) or isinstance(i, bool) or i < 0:
        raise ConfigError(f"moment order must be an integer >= 0, got {i!r}")
    work = rule.bits + 64
    nodes, weights = rule.nodes, rule.weights
    n = len(nodes)
    total = fzero
    for j in range(n // 2):
        x = nodes[n - 1 - j].raw
        pow_pos = mpf_pow_int(x, i, work, _RND)
        pow_neg = mpf_neg(pow_pos) if i % 2 else pow_pos
        paired = mpf_add(pow_pos, pow_neg, work, _RND)
        total = mpf_add(
            total, mpf_mul(weights[j].raw, paired, work, _RND), work, _RND
        )
    if n % 2 and i == 0:
        # build_rule makes an odd rule's middle node an exact zero, which
        # only the zeroth moment sees.
        total = mpf_add(total, weights[n // 2].raw, work, _RND)
    return PReal._wrap(mpf_pos(total, rule.bits, _RND), rule.bits)


def k_for_support(a) -> int:
    """Smallest admissible rule size ceil(a**2 / 8) for support [-a, a].

    Raises ConfigError when the resulting rule's node interval
    sqrt(4k+2) would not fit inside [-a, a], which happens for
    a < sqrt(6) and for sqrt(8) < a < sqrt(10).
    """
    a = _real(a)
    if a < 1:
        raise ConfigError("support half-width must be at least 1")
    exact = 2 * a.bits + 8
    sq = mpf_mul(a.raw, a.raw, exact, _RND)
    eighth = mpf_shift(sq, -3)
    k = int(to_int(mpf_ceil(eighth, exact, _RND)))
    if mpf_cmp(from_int(4 * k + 2), sq) > 0:
        raise ConfigError(
            f"a={float(a):g} cannot host the k={k} rule: "
            f"sqrt({4 * k + 2}) exceeds a"
        )
    return k


def rule_to_csv(rule: QuadratureRule, out: TextIO) -> None:
    """Write the rule as CSV with exact value tags."""
    write_tag_rows(out, "node,weight", rule.atoms)
