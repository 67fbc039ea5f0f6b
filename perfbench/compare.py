"""Compare two results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of BASE beside NEW with the ratio NEW/BASE.  Refuses
(exit 2) when the two ran on different mpmath backends: a gmpy backend
changes every timing, so such a comparison means nothing.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    backends = [doc["provenance"]["mpmath_backend"] for doc in (base, new)]
    if backends[0] != backends[1]:
        print(f"refusing to compare: mpmath backends differ ({backends[0]} vs {backends[1]})",
              file=sys.stderr)
        return 2
    for name, entry in base["metrics"].items():
        other = new["metrics"].get(name)
        if other is None:
            print(f"{name:60s} {entry['value']:14.6g} {'-':>14s}")
            continue
        ratio = other["value"] / entry["value"] if entry["value"] else float("nan")
        print(f"{name:60s} {entry['value']:14.6g} {other['value']:14.6g} {ratio:8.3f} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
