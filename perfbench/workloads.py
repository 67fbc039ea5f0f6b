"""The benchmark's two workloads: inputs drawn from the seed, the CLI
arguments each operation runs, and the oracle gate on every output.

A workload is a list of operations, one ``gausdisk`` invocation each.
Running the list once is a pass.  Oracle values are computed when the
workload is built (benchmark set-up), never inside a timed operation.
See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

# One a per band, spread over the figure's range up to k = 9.  The four bands
# at a >= 6 let fit_quad (which needs four rows with a >= 6) and every
# tail_chain line print.  Each band lies inside one k = ceil(a**2/8) step and
# is narrow, so the seed changes the inputs but hardly the cost.
RATE_BANDS = ((4.3, 4.38), (6.0, 6.08), (6.5, 6.58), (7.6, 7.68), (8.3, 8.38))
# Seed points per circle scan.  The scans peak on the real axis, so 64 print
# the same digits as the CLI's default 256 at about a third of the time.
RATE_SAMPLES = 64
FIGURE_ARTIFACTS = ("figure.csv", "figure.svg", "manifest.json")
VERIFY_CHECKS = 14


@dataclass
class Op:
    """One CLI invocation and the oracle gate for its output."""

    args: Callable[[Path], list]  # CLI arguments, given the artifact directory
    check: Callable[[str, Path], list]  # (stdout, artifact dir) -> problems
    label: str


@dataclass
class Workload:
    command: str  # the subcommand, for the no-work set-up invocation
    ops: list


def _draw(rng: random.Random, bands) -> list:
    return [f"{lo + (hi - lo) * rng.random():.3f}" for lo, hi in bands]


# -- rate-figure ---------------------------------------------------------


def _rate_figure(rng: random.Random) -> Workload:
    a_texts = _draw(rng, RATE_BANDS)
    refs = {
        float(a): (
            oracle.k_for_support(a),
            oracle.trunc_error_on_axis(a, "1"),
            oracle.quad_error_on_axis(oracle.k_for_support(a), "1"),
        )
        for a in a_texts
    }

    def args(outdir: Path) -> list:
        csv, svg, manifest = (str(outdir / name) for name in FIGURE_ARTIFACTS)
        return ["figure", "--grid", ",".join(a_texts), "--b", "1", "--samples", str(RATE_SAMPLES),
                "--csv", csv, "--svg", svg, "--manifest", manifest]

    def check(stdout: str, outdir: Path) -> list:
        problems = []
        lines = stdout.splitlines()
        rows = [ln.split() for ln in lines if ln.startswith("a ")]
        seen = set()
        for parts in rows:
            if len(parts) != 10:
                problems.append(f"malformed row {' '.join(parts)!r}")
                continue
            a = float(parts[1])
            if a not in refs:
                problems.append(f"unexpected row a={parts[1]}")
                continue
            seen.add(a)
            k, err_trunc, err_quad = refs[a]
            if int(parts[3]) != k:
                problems.append(f"a={parts[1]}: k {parts[3]} != {k}")
            if not oracle.agrees_to_digits(parts[7], err_trunc):
                problems.append(f"a={parts[1]}: err_trunc {parts[7]} disagrees with oracle")
            if not oracle.agrees_to_digits(parts[9], err_quad):
                problems.append(f"a={parts[1]}: err_quad {parts[9]} disagrees with oracle")
        if seen != set(refs):
            problems.append(f"rows printed for {sorted(seen)}, expected {sorted(refs)}")
        for prefix in ("fit_trunc slope", "fit_quad slope", "fit_c1 "):
            if not any(ln.startswith(prefix) for ln in lines):
                problems.append(f"missing '{prefix.strip()}' line")
        chains = [ln for ln in lines if ln.startswith("tail_chain a ")]
        if len(chains) != len(refs):
            problems.append(f"{len(chains)} tail_chain lines, expected {len(refs)}")
        # The program counts any False flag as a failed chain (None: not applicable).
        problems += [f"failed chain: {ln}" for ln in chains if "=False" in ln]
        try:
            manifest = json.loads((outdir / "manifest.json").read_text())
            if sorted(r["a"] for r in manifest["rows"]) != sorted(refs):
                problems.append("manifest rows do not match the grid")
            for name in FIGURE_ARTIFACTS[:2]:
                if (outdir / name).stat().st_size == 0:
                    problems.append(f"{name} is empty")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"artifacts unreadable: {exc}")
        return problems

    op = Op(args=args, check=check, label="grid " + ",".join(a_texts))
    return Workload("figure", [op])


# -- verify-suite --------------------------------------------------------


def _verify_check(stdout: str, outdir: Path) -> list:
    lines = stdout.splitlines()
    passes = [ln for ln in lines if ln.startswith("PASS ")]
    problems = [ln for ln in lines if not ln.startswith("PASS ")]
    if len(passes) != VERIFY_CHECKS:
        problems.append(f"{len(passes)} PASS lines, expected {VERIFY_CHECKS}")
    return problems


def _verify_suite(rng: random.Random) -> Workload:
    # verify takes no inputs, so the seed has nothing to draw.
    return Workload("verify", [Op(args=lambda outdir: ["verify"], check=_verify_check, label="verify")])


WORKLOADS = {
    "rate-figure": _rate_figure,
    "verify-suite": _verify_suite,
}


def build(name: str, seed: int) -> Workload:
    """The workload's operations for ``seed``; the same seed gives the same inputs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))
