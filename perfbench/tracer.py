"""Per-layer tracing from outside the program.

Run as ``python3 perfbench/tracer.py SPANS.json gausdisk-arguments...``: it
imports gausdisk, wraps the public functions of each layer, calls
``gausdisk.cli.main(argv)`` in-process and, when main returns, writes the
spans it kept in memory to SPANS.json.  Standard output is the CLI's own,
untouched, so it can be compared byte for byte with an untraced run.

A span is [name, start, end, parent index, extra].  A name is wrapped in
every gausdisk module that bound it with ``from .x import y``; methods are
wrapped on their classes.  The precision helpers are only counted, to keep
tracing overhead low.  ``summarize`` turns the spans of a pass into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
from collections import Counter
from time import perf_counter

MODULES = ("precision", "hermite", "measures", "disks", "superflat", "experiments", "checks", "cli")
COUNTED = ("exp", "sqrt", "pi_value", "cos_sin")
# checks.ALL_CHECKS at the time the benchmark was defined; metric names are fixed.
CHECK_NAMES = (
    "exp-identity", "serialization-roundtrip", "trig-identity", "rule-moments",
    "rule-geometry", "cdf-symmetry", "transform-identities", "char-deviation-chain",
    "three-circles", "three-lines", "growth-envelope", "superflat-certificate",
    "tail-chain", "artifact-determinism",
)
SPANNED = {
    ("hermite", "build_rule"): "hermite.build_rule",
    ("hermite", "hermite_pair"): "hermite.hermite_pair",
    ("measures", "normal_cdf"): "measures.normal_cdf",
    ("measures", "char_bound_check"): "measures.char_bound_check",
    ("disks", "sup_abs_on_circle"): "disks.circle_scan",
    ("disks", "sup_on_line"): "disks.line_scan",
    ("disks", "three_circles_check"): "disks.convexity",
    ("disks", "three_lines_check"): "disks.convexity",
    ("superflat", "density_derivative"): "superflat.density_derivative",
    ("superflat", "flatness_certificate"): "superflat.flatness_certificate",
    ("superflat", "build_superflat"): "superflat.build_superflat",
    ("experiments", "run_figure"): "experiments.run_figure",
    ("experiments", "validate_tail_bound"): "experiments.validate_tail_bound",
    ("experiments", "fit_truncation_rate"): "experiments.fits",
    ("experiments", "fit_quadrature_rate"): "experiments.fits",
    ("experiments", "fit_c1"): "experiments.fits",
    ("experiments", "emit_figure"): "experiments.emit_figure",
    ("cli", "main"): "cli.main",
}
METHODS = {
    ("measures", "TruncatedGaussian", "laplace"): "measures.laplace.trunc",
    ("measures", "DiscreteMeasure", "laplace"): "measures.laplace.discrete",
    ("measures", "Measure", "laplace_error"): "measures.laplace_error",
}


class Recorder:
    """Spans and counts of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, extra]
        self.stack = []
        self.counts = Counter()
        self.bits_max = 0
        self.rules = {}  # id -> every rule build_rule returned, to spot cache hits

    def note_bits(self, value) -> None:
        if isinstance(value, tuple) and value:
            value = value[0]
        bits = getattr(value, "bits", None)
        if isinstance(bits, int) and bits > self.bits_max:
            self.bits_max = bits

    def spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            if name == "disks.circle_scan":
                args, record[4] = _count_evaluations(args)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self.stack.pop()
            self.note_bits(result)
            self.annotate(record, result)
            return result

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            self.note_bits(result)
            return result

        return wrapper

    def annotate(self, record, result) -> None:
        name = record[0]
        if name in ("disks.circle_scan", "disks.line_scan"):
            witness = result.witness
            extra = record[4] or {}
            extra.update(
                expected=result.n_samples + 2 + result.refine_iterations,
                on_axis=abs(float(witness.imag))
                <= math.ldexp(abs(complex(witness)), -(witness.bits // 2)),
            )
            record[4] = extra
        elif name == "hermite.build_rule":
            record[4] = {"hit": id(result) in self.rules}
            self.rules[id(result)] = result
        elif name == "disks.convexity":
            record[4] = {"retried": bool(result.retried)}

    def install(self) -> None:
        """Wrap every traced name wherever gausdisk bound it."""
        modules = [importlib.import_module(f"gausdisk.{m}") for m in MODULES]
        modules.append(importlib.import_module("gausdisk"))

        def rebind(original, wrapped) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

        precision = importlib.import_module("gausdisk.precision")
        for fname in COUNTED:
            original = getattr(precision, fname)
            rebind(original, self.counted(f"precision.{fname}.calls", original))
        for (mod, fname), name in SPANNED.items():
            original = getattr(importlib.import_module(f"gausdisk.{mod}"), fname)
            rebind(original, self.spanned(name, original))
        for (mod, cls_name, meth), name in METHODS.items():
            cls = getattr(importlib.import_module(f"gausdisk.{mod}"), cls_name)
            setattr(cls, meth, self.spanned(name, cls.__dict__[meth]))
        checks = importlib.import_module("gausdisk.checks")
        checks.ALL_CHECKS = tuple(
            (check, self.spanned(f"checks.{check}", fn)) for check, fn in checks.ALL_CHECKS
        )

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "bits_max": self.bits_max}, fh
            )


def _count_evaluations(args):
    """Swap the scanned function (always passed first) for one that counts its calls."""
    extra = {"evals": 0}
    inner = args[0]

    def counted(z):
        extra["evals"] += 1
        return inner(z)

    return (counted, *args[1:]), extra


def main(argv: list) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    cli = importlib.import_module("gausdisk.cli")
    try:
        return cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        recorder.dump(spans_path)


# -- aggregation (runs in the benchmark process) -----------------------------


def summarize(traces: list) -> tuple:
    """Per-layer metrics of one traced pass, and the self-check problems.

    ``traces`` holds one loaded spans file per operation.  A layer's self
    time is its span's duration minus the durations of its child spans.
    """
    calls, self_s = Counter(), Counter()
    counts = Counter()
    bits_max = 0
    scans = {"disks.circle_scan": [], "disks.line_scan": []}
    hits = retried = convexity = 0
    problems = []
    for trace in traces:
        spans = trace["spans"]
        counts.update(trace["counts"])
        bits_max = max(bits_max, trace["bits_max"])
        own = [end - start for _, start, end, _, _ in spans]
        line_evals = Counter()
        for name, start, end, parent, extra in spans:
            calls[name] += 1
            if parent >= 0:
                own[parent] -= end - start
                if name == "measures.laplace_error" and spans[parent][0] == "disks.line_scan":
                    line_evals[parent] += 1
            if name == "hermite.build_rule":
                hits += bool(extra and extra["hit"])
            elif name == "disks.convexity":
                convexity += 1
                retried += extra is None or extra["retried"]
        for index, (name, start, end, parent, extra) in enumerate(spans):
            self_s[name] += own[index]
            if name in scans and extra and "expected" in extra:  # else the scan raised
                evals = extra["evals"] if name == "disks.circle_scan" else line_evals[index]
                scans[name].append((evals, extra["on_axis"]))
                if evals != extra["expected"]:
                    problems.append(
                        f"{name}: {evals} wrapped evaluations, report says {extra['expected']}"
                    )
    circles, lines = scans["disks.circle_scan"], scans["disks.line_scan"]
    circle_evals = sum(e for e, _ in circles)
    metrics = {
        "precision.bits_max": (bits_max, "bits"),
        "hermite.build_rule.calls": (calls["hermite.build_rule"], "count"),
        "hermite.build_rule.cache_hits": (hits, "count"),
        "hermite.build_rule.self_s": (self_s["hermite.build_rule"], "s"),
        "hermite.hermite_pair.calls": (calls["hermite.hermite_pair"], "count"),
        "hermite.hermite_pair.self_s": (self_s["hermite.hermite_pair"], "s"),
        "measures.laplace.trunc.calls": (calls["measures.laplace.trunc"], "count"),
        "measures.laplace.trunc.self_s": (self_s["measures.laplace.trunc"], "s"),
        "measures.laplace.discrete.calls": (calls["measures.laplace.discrete"], "count"),
        "measures.laplace.discrete.self_s": (self_s["measures.laplace.discrete"], "s"),
        "measures.laplace_error.self_s": (self_s["measures.laplace_error"], "s"),
        "measures.normal_cdf.calls": (calls["measures.normal_cdf"], "count"),
        "measures.normal_cdf.self_s": (self_s["measures.normal_cdf"], "s"),
        "measures.char_bound_check.self_s": (self_s["measures.char_bound_check"], "s"),
        "disks.circle_scan.calls": (len(circles), "count"),
        "disks.circle_scan.evals": (circle_evals, "count"),
        "disks.circle_scan.evals_per_scan": (circle_evals / len(circles) if circles else 0, "count"),
        "disks.circle_scan.self_s": (self_s["disks.circle_scan"], "s"),
        "disks.circle_scan.axis_witness_frac": (
            sum(a for _, a in circles) / len(circles) if circles else 0, "ratio"),
        "disks.line_scan.calls": (len(lines), "count"),
        "disks.line_scan.evals": (sum(e for e, _ in lines), "count"),
        "disks.line_scan.self_s": (self_s["disks.line_scan"], "s"),
        "disks.convexity.first_try_frac": (
            (convexity - retried) / convexity if convexity else 0, "ratio"),
        "superflat.density_derivative.calls": (calls["superflat.density_derivative"], "count"),
        "superflat.density_derivative.self_s": (self_s["superflat.density_derivative"], "s"),
        "superflat.flatness_certificate.self_s": (self_s["superflat.flatness_certificate"], "s"),
        "superflat.build_superflat.self_s": (self_s["superflat.build_superflat"], "s"),
        "experiments.run_figure.self_s": (self_s["experiments.run_figure"], "s"),
        "experiments.validate_tail_bound.calls": (calls["experiments.validate_tail_bound"], "count"),
        "experiments.validate_tail_bound.self_s": (self_s["experiments.validate_tail_bound"], "s"),
        "experiments.fits.self_s": (self_s["experiments.fits"], "s"),
        "experiments.emit_figure.self_s": (self_s["experiments.emit_figure"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
    }
    for fname in COUNTED:
        metrics[f"precision.{fname}.calls"] = (counts[f"precision.{fname}.calls"], "count")
    for check in CHECK_NAMES:
        metrics[f"checks.{check}.self_s"] = (self_s[f"checks.{check}"], "s")
    return metrics, problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
