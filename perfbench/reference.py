"""The reference program: a fixed piece of work that uses no gausdisk code.

    python3 perfbench/reference.py

It starts an interpreter, imports numpy and mpmath as the gausdisk CLI
does, and evaluates complex exponentials and normal CDFs at 600 bits:
work of the same kind as the CLI's operations.  run.py times it between
operations and reports every time at the speed where this program takes
REFERENCE_S seconds, so that the host's drifting speed cancels out (see
NOTES.md, "Steadiness").
"""

import mpmath
import numpy  # noqa: F401  (imported for its start-up cost, as the CLI imports it)


def main() -> None:
    mpmath.mp.prec = 600
    total = mpmath.mpc(0)
    for i in range(1, 1500):
        total += mpmath.exp(mpmath.mpc(i, 1) / 97) * mpmath.ncdf(mpmath.mpf(i) / 300)
    print(mpmath.nstr(total, 20))


if __name__ == "__main__":
    main()
