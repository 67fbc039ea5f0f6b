"""Fixed-input kernel timings, run in a fresh process without tracing.

Prints one JSON object of probe metrics: the median seconds of one call
to each kernel named in ROADMAP item 1, plus the evaluation count of one
256-seed circle scan.  Inputs never depend on the seed.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from gausdisk.disks import sup_on_circle
from gausdisk.hermite import build_rule, k_for_support
from gausdisk.measures import DiscreteMeasure, TruncatedGaussian, normal_cdf
from gausdisk.precision import PComplex, PReal, cos_sin, pi_value, working_bits
from gausdisk.superflat import build_superflat, density_derivative

REPS = 7


def _median_call(fn, reps: int = REPS) -> float:
    times = []
    for rep in range(reps):
        start = perf_counter()
        fn(rep)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _on_circle(radius: float, turn: int, bits: int) -> PComplex:
    """radius * exp(i*pi/turn), a generic point off both axes."""
    c, s = cos_sin(pi_value(bits) / turn)
    return PComplex(c * radius, s * radius, bits=bits)


def main() -> dict:
    out = {}
    for a in (4, 8, 12):
        bits = working_bits(a, 1.0)
        z = _on_circle(1.0, 8, bits)
        trunc = TruncatedGaussian(a, bits)
        quad = DiscreteMeasure.from_quadrature(build_rule(k_for_support(PReal(a, bits)), bits))
        out[f"probe.laplace_error.trunc.a{a}.call_s"] = _median_call(lambda _: trunc.laplace_error(z))
        out[f"probe.laplace_error.quad.a{a}.call_s"] = _median_call(lambda _: quad.laplace_error(z))
    for k in (2, 8, 18, 40):
        # A precision never requested before, so every call misses the rule cache.
        out[f"probe.build_rule.k{k}.cold_s"] = _median_call(lambda rep: build_rule(k, 300 + rep))

    bits = working_bits(8, 1.0)
    measure = DiscreteMeasure.from_quadrature(build_rule(k_for_support(PReal(8, bits)), bits))
    evals = []
    laplace = measure.laplace

    def counted(z):
        evals.append(1)
        return laplace(z)

    measure.laplace = counted  # every transform evaluation goes through laplace
    out["probe.sup_on_circle.n256.s"] = _median_call(
        lambda _: sup_on_circle(measure, 1, bits=bits, n_samples=256), reps=3
    )
    out["probe.sup_on_circle.n256.evals"] = len(evals) // 3

    mix = build_superflat(6)
    z = _on_circle(1.0, 5, mix.bits)
    for n in (1, 2, 3, 4):
        out[f"probe.density_derivative.n{n}.call_s"] = _median_call(
            lambda _: density_derivative(mix, z, n)
        )
    for w in (3, 13):
        point = _on_circle(float(w), 6, 256)
        out[f"probe.normal_cdf.w{w}.call_s"] = _median_call(lambda _: normal_cdf(point))
    return out


if __name__ == "__main__":
    json.dump(main(), sys.stdout)
    sys.stdout.write("\n")
