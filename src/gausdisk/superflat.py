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

The flatness certificate quantifies this without expanding anything:
with eps2 = sup_{|z|=2} |L(z) exp(-z**2/2) - 1|, the Cauchy integral
over the radius-2 circle bounds every derivative on the closed unit
disk by  sup_{|z|<=1} |g^(n)(z)| <= n! * eps2  (radius gap 2 - 1 = 1),
g denoting the tilted transform minus nothing, since constants drop out
of derivatives.  The certificate then measures a few low-order
derivative sups directly and checks them against their bounds.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import TextIO

from .disks import sup_abs_on_circle
from .errors import CertificateViolation, ConfigError
from .hermite import QuadratureRule, build_rule, hermite_pair, k_for_support
from .measures import DiscreteMeasure
from .precision import (
    PComplex,
    PReal,
    _check_bits,
    cos_sin,
    exp,
    pi_value,
    sqrt,
    working_bits,
)

__all__ = [
    "SuperflatMixture",
    "build_superflat",
    "mixture_density",
    "density_derivative",
    "FlatnessCertificate",
    "flatness_certificate",
    "superflat_to_csv",
]


@dataclass(frozen=True)
class SuperflatMixture:
    """A tilted-weight Gaussian mixture centered on rule nodes."""

    a: PReal
    k: int
    bits: int
    locations: tuple[PReal, ...]
    weights: tuple[PReal, ...]
    tilt_total: PReal
    rule: QuadratureRule

    def source_measure(self) -> DiscreteMeasure:
        """The untilted rule as a probability measure."""
        return DiscreteMeasure.from_quadrature(self.rule)


def build_superflat(a, bits: int | None = None) -> SuperflatMixture:
    """Build the mixture for support half-width a >= 4.

    The default precision follows the radius-2 policy, since the
    flatness certificate lives on the disk |z| <= 2.
    """
    if isinstance(a, (int, float)):
        a = PReal(a)
    if not isinstance(a, PReal):
        raise ConfigError(f"support half-width must be real, got {type(a).__name__}")
    if a < 4:
        raise ConfigError("the superflat construction requires a >= 4")
    if bits is None:
        bits = working_bits(float(a), 2.0)
    else:
        _check_bits(bits)
    k = k_for_support(a)
    rule = build_rule(k, bits)
    work = bits + 32
    tilted = []
    for x, w in rule.atoms():
        xw = x.round_to(work)
        tilted.append(w.round_to(work) * exp(xw * xw / 2))
    total = tilted[0]
    for t in tilted[1:]:
        total = total + t
    weights = tuple((t / total).round_to(bits) for t in tilted)
    return SuperflatMixture(
        a=a.round_to(bits),
        k=k,
        bits=bits,
        locations=rule.nodes,
        weights=weights,
        tilt_total=total.round_to(bits),
        rule=rule,
    )


def mixture_density(mix: SuperflatMixture, z):
    """f(z), entire in z; accepts real or complex scalars."""
    return density_derivative(mix, z, 0)


def density_derivative(mix: SuperflatMixture, z, n: int):
    """The n-th derivative of the mixture density at z, via
    d^n/du^n phi(u) = (-1)^n He_n(u) phi(u)."""
    if not isinstance(mix, SuperflatMixture):
        raise ConfigError("expected a SuperflatMixture")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ConfigError(f"derivative order must be an integer >= 0, got {n!r}")
    if isinstance(z, (int, float)):
        z = PReal(z, mix.bits)
    elif isinstance(z, complex):
        z = PComplex(z, bits=mix.bits)
    if not isinstance(z, (PReal, PComplex)):
        raise ConfigError(f"expected a scalar, got {type(z).__name__}")
    bits = max(mix.bits, z.bits)
    zw = z.round_to(bits)
    inv_root = 1 / sqrt(2 * pi_value(bits))
    total = None
    for x, v in zip(mix.locations, mix.weights):
        u = zw - x
        term = v * (exp(-(u * u) / 2) * inv_root)  # v * phi(u)
        if n > 0:
            he_n, _ = hermite_pair(n, u)
            term = term * he_n
        total = term if total is None else total + term
    if n % 2:
        total = -total
    return total


def _tilted_transform_error(mix: SuperflatMixture):
    """g(z) - 1 with g the tilted transform L(z)exp(-z**2/2)."""
    source = mix.source_measure()

    def f(z: PComplex):
        return source.laplace(z) * exp(-(z * z) / 2) - 1

    return f


@dataclass(frozen=True)
class FlatnessCertificate:
    a: float
    k: int
    bits: int
    eps2: PReal
    eps2_witness: PComplex
    n_samples: int
    derivative_bounds: tuple[PReal, ...]
    direct_sups: tuple[PReal, ...]
    ratios: tuple[float, ...]
    identity_checks: int
    slack: float
    passed: bool


def flatness_certificate(
    mix: SuperflatMixture,
    bits: int | None = None,
    n_samples: int = 1024,
    max_bound_order: int = 8,
    max_direct_order: int = 4,
    slack: float = 1e-3,
) -> FlatnessCertificate:
    """Certify the mixture's flatness on the unit disk.

    Measures eps2 = sup_{|z|=2} |L(z)exp(-z**2/2) - 1|, derives the
    Cauchy bounds n! * eps2 for derivative orders 1..max_bound_order,
    and for orders up to max_direct_order also scans
    sup_{|z|=1} |g^(n)| directly (through the mixture identity, so the
    two sides are computed by genuinely different code paths) and
    requires direct <= bound * (1 + slack).  The mixture identity
    itself is spot-checked on the sampling circle first.
    """
    if not isinstance(mix, SuperflatMixture):
        raise ConfigError("expected a SuperflatMixture")
    if max_direct_order > max_bound_order:
        raise ConfigError("max_direct_order cannot exceed max_bound_order")
    b = mix.bits if bits is None else _check_bits(bits)
    g_minus_1 = _tilted_transform_error(mix)

    # The identity sqrt(2*pi) * B * f(z) = L(z) exp(-z**2/2) ties the
    # transform-side scan to the mixture-side derivative scans.
    root_2pi = sqrt(2 * pi_value(b))
    scale = root_2pi * mix.tilt_total.round_to(b)
    two = PReal(2, b)
    identity_checks = 0
    for j in range(16):
        theta = pi_value(b) * (2 * j + 1) / 32
        c, s = cos_sin(theta)
        z = PComplex(two * c, two * s, bits=b)
        lhs = scale * mixture_density(mix, z)
        rhs = g_minus_1(z) + 1
        gap = abs(lhs - rhs)
        if not gap <= PReal(2, b) ** (-(b // 2)):
            raise CertificateViolation(
                f"mixture identity failed at sample {j}: gap {float(gap):.3e}"
            )
        identity_checks += 1

    eps_rep = sup_abs_on_circle(g_minus_1, two, b, n_samples=n_samples, arc="quarter")
    eps2 = eps_rep.sup_value

    bounds = []
    fact = 1
    for n in range(1, max_bound_order + 1):
        fact *= n
        bounds.append(fact * eps2)

    direct = []
    ratios = []
    ok = True
    for n in range(1, max_direct_order + 1):

        def g_deriv(z: PComplex, order=n):
            return scale * density_derivative(mix, z, order)

        rep = sup_abs_on_circle(g_deriv, PReal(1, b), b, n_samples=n_samples, arc="quarter")
        direct.append(rep.sup_value)
        bound = bounds[n - 1]
        ratio = float(rep.sup_value / bound) if not bound.is_zero() else math.inf
        ratios.append(ratio)
        if not rep.sup_value <= bound * (1 + PReal(slack, b)):
            ok = False
    if not ok:
        raise CertificateViolation(
            f"a direct derivative sup exceeded its Cauchy bound: "
            f"ratios {[f'{r:.4f}' for r in ratios]}"
        )
    return FlatnessCertificate(
        a=float(mix.a),
        k=mix.k,
        bits=b,
        eps2=eps2,
        eps2_witness=eps_rep.witness,
        n_samples=n_samples,
        derivative_bounds=tuple(bounds),
        direct_sups=tuple(direct),
        ratios=tuple(ratios),
        identity_checks=identity_checks,
        slack=slack,
        passed=True,
    )


def superflat_to_csv(mix: SuperflatMixture, out: TextIO) -> None:
    """Write the mixture atoms with construction metadata comments."""
    out.write(f"# a={float(mix.a):.17g}\n")
    out.write(f"# k={mix.k}\n")
    out.write(f"# tilt_total={mix.tilt_total.serialize()}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["location", "weight"])
    for x, v in zip(mix.locations, mix.weights):
        writer.writerow([x.serialize(), v.serialize()])
