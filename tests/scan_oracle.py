"""The scan engine as the library first ran it: uniform seeds, then
golden-section search on the best seed's neighbours down to an absolute
resolution of 2**_RESOLUTION_EXP.

This is the test oracle for ``gausdisk.disks._maximize_1d``, which takes
the same arguments and returns the same (argmax, max, refine_iters).
"""

from gausdisk.disks import _RESOLUTION_EXP
from gausdisk.errors import ConfigError
from gausdisk.precision import PReal, sqrt


def maximize_1d(evaluate, lo, hi, seeds):
    """Sample [lo, hi] uniformly, then golden-section sharpen around the
    best sample, keeping the largest value ever evaluated."""
    if seeds < 3:
        raise ConfigError("need at least 3 scan samples")
    bits = lo.bits
    span = hi - lo
    best_x = lo
    best_v = evaluate(lo)
    step = span / (seeds - 1)
    xs = [lo + step * j for j in range(1, seeds - 1)] + [hi]
    best_idx = 0
    for j, x in enumerate(xs, start=1):
        v = evaluate(x)
        if v > best_v:
            best_v, best_x, best_idx = v, x, j

    all_points = [lo] + xs
    left = all_points[max(0, best_idx - 1)]
    right = all_points[min(len(all_points) - 1, best_idx + 1)]

    inv_phi = (sqrt(PReal(5, bits)) - 1) / 2
    tol = PReal(2, bits) ** _RESOLUTION_EXP
    a, b = left, right
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1 = evaluate(x1)
    f2 = evaluate(x2)
    iters = 0
    for v, x in ((f1, x1), (f2, x2)):
        if v > best_v:
            best_v, best_x = v, x
    while (b - a) > tol and iters < 4000:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = evaluate(x2)
            if f2 > best_v:
                best_v, best_x = f2, x2
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = evaluate(x1)
            if f1 > best_v:
                best_v, best_x = f1, x1
        iters += 1
    return best_x, best_v, iters
