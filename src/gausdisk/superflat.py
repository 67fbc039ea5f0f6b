"""A Gaussian mixture engineered to be extremely flat near the origin.

Starting from the k-point matched-moment rule with atoms (x_m, w_m), the
weights are exponentially tilted,

    v_m = w_m exp(x_m**2/2) / B,      B = sum_m w_m exp(x_m**2/2),

and the mixture places a unit Gaussian at each node:

    f(x) = sum_m v_m * phi(x - x_m),   phi the standard normal density.

Completing the square turns the mixture into the rule's tilted transform,

    sqrt(2*pi) * B * f(z) = L(z) * exp(-z**2/2)      for every complex z,

where L is the rule's Laplace transform.  Because the rule matches
Gaussian moments through degree 2k-1, the right-hand side is
1 + O(z**2k) near the origin, so f is constant to high order there:
all its low derivatives nearly vanish.

The flatness certificate quantifies this without expanding anything.
With g(z) = L(z) exp(-z**2/2) and eps2 = sup_{|z|=2} |g(z) - 1|, the
Cauchy integral over the radius-2 circle bounds every derivative on the
closed unit disk by  sup_{|z|<=1} |g^(n)(z)| <= n! * eps2  (radius gap
2 - 1 = 1), since constants drop out of derivatives.  The certificate
then measures a few low-order derivative sups directly and checks them
against their bounds.

Writing g - 1 = E(z) exp(-z**2/2), with E(z) = L(z) - exp(z**2/2) the
source rule's transform error, brackets eps2 without a scan: |E(z)| <= |E(|z|)| for the rules
built here, so eps2 lies in [e**2 |E(2i)|, e**2 |E(2)|].  The
certificate takes eps2 as the one value |g(2i) - 1|, the last seed of a
quarter-arc scan, which no scan's refinement beat at the policy
precision; it is a value at a point, so a lower bound, and n! * eps2 is
not a certified ceiling.  The upper end, e**2 |E(2)| from one real-axis
evaluation rounded up, is certified and reported beside it.  The direct
sups are scan values, so they are lower bounds too.  The certificate
returns only when the identity samples and every direct sup pass, and
raises CertificateViolation otherwise.

All derivatives come from one kernel, :func:`density_derivatives`, which
evaluates f, f', ..., f^(n) at a point with one exp and one Hermite
recurrence per atom.  The direct scans of orders 1..4 visit the same
circle points, so they share one all-orders evaluation per point; the
16 identity samples are computed on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

from mpmath.libmp import (
    fone,
    fzero,
    mpc_add,
    mpc_exp,
    mpc_mul,
    mpc_mul_int,
    mpc_mul_mpf,
    mpc_neg,
    mpc_sub,
    mpf_pos,
    mpf_shift,
    round_nearest,
)

from .disks import circle_point, sup_abs_on_circle, sup_on_circle
from .errors import CertificateViolation, ConfigError
from .hermite import QuadratureRule, build_rule, k_for_support
from .precision import (
    PComplex,
    PReal,
    _check_bits,
    _inv_sqrt_2pi,
    _like,
    _pair,
    _real,
    _scalar,
    exp,
    pi_value,
    sqrt,
    working_bits,
    write_tag_rows,
)

__all__ = [
    "SuperflatMixture",
    "build_superflat",
    "mixture_density",
    "density_derivative",
    "density_derivatives",
    "FlatnessCertificate",
    "flatness_certificate",
    "superflat_to_csv",
]

_RND = round_nearest

# Orders bounded and orders scanned by the certificate, and the relative
# amount by which a direct sup may exceed its bound.
_MAX_BOUND_ORDER = 8
_MAX_DIRECT_ORDER = 4
_CERTIFICATE_SLACK = 1e-3


@dataclass(frozen=True)
class SuperflatMixture:
    """Unit Gaussians on the nodes of ``rule``, with the tilted weights
    ``weights`` in node order."""

    a: PReal
    weights: tuple[PReal, ...]
    tilt_total: PReal
    rule: QuadratureRule

    @property
    def bits(self) -> int:
        """The mixture's precision, which is its rule's."""
        return self.rule.bits


def build_superflat(a, bits: int | None = None) -> SuperflatMixture:
    """Build the mixture for support half-width a >= 4.

    The default precision follows the radius-2 policy, since the
    flatness certificate lives on the disk |z| <= 2.
    """
    a = _real(a)
    if a < 4:
        raise ConfigError("the superflat construction requires a >= 4")
    if bits is None:
        bits = working_bits(float(a), 2.0)
    else:
        _check_bits(bits)
    rule = build_rule(k_for_support(a), bits)
    work = bits + 32
    tilted = []
    for x, w in rule.atoms:
        xw = x.round_to(work)
        tilted.append(w.round_to(work) * exp(xw * xw / 2))
    total = tilted[0]
    for t in tilted[1:]:
        total = total + t
    weights = tuple((t / total).round_to(bits) for t in tilted)
    return SuperflatMixture(
        a=a.round_to(bits),
        weights=weights,
        tilt_total=total.round_to(bits),
        rule=rule,
    )


def mixture_density(mix: SuperflatMixture, z):
    """f(z), entire in z; accepts real or complex scalars."""
    return density_derivatives(mix, z, 0)[0]


def density_derivative(mix: SuperflatMixture, z, n: int):
    """The n-th derivative of the mixture density at z."""
    return density_derivatives(mix, z, n)[n]


def density_derivatives(mix: SuperflatMixture, z, n_max: int) -> tuple:
    """(f(z), f'(z), ..., f^(n_max)(z)) for the mixture density f, via
    d^n/du^n phi(u) = (-1)^n He_n(u) phi(u).

    Each atom costs one exp and one Hermite recurrence, run at 64 guard
    bits with every He_n rounded back to the working precision, exactly
    as :func:`gausdisk.hermite.hermite_pair` computes it.  z enters
    through ``precision._scalar`` and ``precision._pair``, so a real z is
    carried with an exact zero imaginary part, and ``precision._like``
    gives the results z's kind.  The real factors 1/sqrt(2*pi) and
    v_m scale both parts with ``mpc_mul_mpf``, which rounds each part
    once, as ``mpc_mul`` does with a zero imaginary part.
    """
    if not isinstance(mix, SuperflatMixture):
        raise ConfigError("expected a SuperflatMixture")
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 0:
        raise ConfigError(f"derivative order must be an integer >= 0, got {n_max!r}")
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


@dataclass(frozen=True)
class FlatnessCertificate:
    """A flatness certificate that held; each ratio is a direct sup over
    its Cauchy bound, at most 1 + ``_CERTIFICATE_SLACK``."""

    bits: int
    eps2: PReal
    eps2_witness: PComplex
    eps2_ceiling: PReal
    derivative_bounds: tuple[PReal, ...]
    direct_sups: tuple[PReal, ...]
    ratios: tuple[float, ...]


def flatness_certificate(
    mix: SuperflatMixture,
    n_samples: int = 1024,
) -> FlatnessCertificate:
    """Certify the mixture's flatness on the unit disk, at the mixture's
    precision.

    Takes eps2 = |g(2i) - 1| with g(z) = L(z)exp(-z**2/2), brackets the
    boundary sup by eps2 <= sup_{|z|=2} |g - 1| <= eps2_ceiling, derives
    the Cauchy bounds n! * eps2 for derivative orders 1..8, and for
    orders 1..4 also scans sup_{|z|=1} |g^(n)| directly (through the
    mixture identity, so the two sides are computed by genuinely
    different code paths) and requires direct <= bound * (1 + 1e-3).
    The mixture identity itself is spot-checked on the sampling circle
    first.  Returns only when both hold; raises CertificateViolation
    otherwise.
    """
    if not isinstance(mix, SuperflatMixture):
        raise ConfigError("expected a SuperflatMixture")
    b = mix.bits

    def g_minus_1(z: PComplex):
        """g(z) - 1 with g the tilted transform L(z)exp(-z**2/2)."""
        return mix.rule.laplace(z) * exp(-(z * z) / 2) - 1

    # The identity sqrt(2*pi) * B * f(z) = L(z) exp(-z**2/2) ties the
    # transform side to the mixture-side derivative scans.
    root_2pi = sqrt(2 * pi_value(b))
    scale = root_2pi * mix.tilt_total.round_to(b)
    two = PReal(2, b)
    for j in range(16):
        theta = pi_value(b) * (2 * j + 1) / 32
        z = circle_point(two, theta, b)
        lhs = scale * mixture_density(mix, z)
        rhs = g_minus_1(z) + 1
        gap = abs(lhs - rhs)
        if not gap <= PReal(2, b) ** (-(b // 2)):
            raise CertificateViolation(
                f"mixture identity failed at sample {j}: gap {float(gap):.3e}"
            )

    # g - 1 = E(z) exp(-z**2/2) with E the source rule's transform error.
    # On |z| = 2 the factor exp(-z**2/2) peaks at z = 2i, the last seed of
    # a quarter-arc scan, and a scan's refinement never beat that seed at
    # the policy precision, so eps2 is |g - 1| there: a value at a point,
    # a lower bound for the sup.  |E(z)| <= |E(2)| and
    # |exp(-z**2/2)| <= e**2 give the ceiling, rounded up by a relative
    # 2**-(b//2) that covers the rounding of E(2).
    witness = circle_point(two, 2 * pi_value(b) / 4, b)
    eps2 = abs(g_minus_1(witness))
    axis = sup_on_circle(mix.rule, two)
    if axis.method != "real-axis":
        raise ConfigError("the flatness certificate needs a symmetric Gauss-Hermite source rule")
    margin = 1 + PReal(2, b) ** (-(b // 2))
    ceiling = exp(two) * axis.sup_value * margin

    bounds = []
    fact = 1
    for n in range(1, _MAX_BOUND_ORDER + 1):
        fact *= n
        bounds.append(fact * eps2)

    # The order scans visit the same circle points, so each point gets one
    # all-orders evaluation, kept as |g^(n)| = |scale * f^(n)| for orders
    # 1..max.
    scaled_abs: dict = {}

    def all_orders(z: PComplex) -> tuple:
        key = z.raw
        hit = scaled_abs.get(key)
        if hit is None:
            derivs = density_derivatives(mix, z, _MAX_DIRECT_ORDER)
            hit = scaled_abs[key] = tuple(abs(scale * d) for d in derivs[1:])
        return hit

    direct = []
    ratios = []
    ok = True
    for n in range(1, _MAX_DIRECT_ORDER + 1):
        rep = sup_abs_on_circle(
            lambda z, order=n: all_orders(z)[order - 1],
            PReal(1, b), b, n_samples=n_samples, arc="quarter",
        )
        direct.append(rep.sup_value)
        bound = bounds[n - 1]
        ratio = float(rep.sup_value / bound) if not bound.is_zero() else math.inf
        ratios.append(ratio)
        if not rep.sup_value <= bound * (1 + PReal(_CERTIFICATE_SLACK, b)):
            ok = False
    if not ok:
        raise CertificateViolation(
            f"a direct derivative sup exceeded its Cauchy bound: "
            f"ratios {[f'{r:.4f}' for r in ratios]}"
        )
    return FlatnessCertificate(
        bits=b,
        eps2=eps2,
        eps2_witness=witness,
        eps2_ceiling=ceiling,
        derivative_bounds=tuple(bounds),
        direct_sups=tuple(direct),
        ratios=tuple(ratios),
    )


def superflat_to_csv(mix: SuperflatMixture, out: TextIO) -> None:
    """Write the mixture atoms with construction metadata comments."""
    out.write(f"# a={float(mix.a):.17g}\n")
    out.write(f"# k={mix.rule.k}\n")
    out.write(f"# tilt_total={mix.tilt_total.serialize()}\n")
    write_tag_rows(out, "location,weight", zip(mix.rule.nodes, mix.weights))
