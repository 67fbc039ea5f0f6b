"""gausdisk benchmark: CLI workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload rate-figure --seed 1 --seconds 48 --trace 0

Run from anywhere; the program under test is ``src/gausdisk`` beside this
directory.  Each operation is a fresh process running the gausdisk CLI
as ``python3 -m gausdisk.cli`` does (through launch.py, which records its
peak RSS), one at a time: a closed loop with one client.  Every output is
checked against the mpmath oracle in oracle.py.

--trace 0 cycles through the workload's operations for --seconds (at
least one whole pass) and reports the end-to-end metrics.  The reference
program (reference.py) is timed around each operation: every time is
reported at the speed where it takes REFERENCE_S seconds.
--trace 1 runs one untraced pass and one traced pass (tracer.py) plus the
kernel probes (probes.py) and reports the per-layer metrics.  The last
line of standard output is the JSON result; the lines before it are the
human-readable report.  ``--workload all`` runs both workloads in
turn.  See NOTES.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import mpmath
import numpy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPS = 11
OP_TIMEOUT_S = 150
# About the reference program's wall time on the 2-vCPU development host.
# A time t is reported as t * REFERENCE_S / (the reference time around it).
REFERENCE_S = 0.7
REFERENCE_REPS = 2  # reference timings before the first operation and after each


class Failure(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("GAUSDISK_PRECISION", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list, workdir: Path, tag: str) -> dict:
    """Run one process to completion: wall time from spawn to exit, exit
    code and output."""
    out_path, err_path = workdir / f"{tag}.out", workdir / f"{tag}.err"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=workdir, env=_child_env()
        )

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(OP_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rc": proc.returncode,
        "timed_out": killed.is_set(),
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_bytes().decode("utf-8", "replace"),
    }


def run_op(op, workdir: Path, tag: str, traced: bool = False) -> dict:
    """One operation, gated by the oracle.  Artifacts go to workdir/tag/.
    Untraced operations run under launch.py, which records peak RSS."""
    outdir = workdir / tag
    outdir.mkdir()
    spans, peak = workdir / f"{tag}.spans.json", workdir / f"{tag}.peak"
    script, sidecar = ("tracer.py", spans) if traced else ("launch.py", peak)
    result = spawn([sys.executable, str(HERE / script), str(sidecar), *op.args(outdir)], workdir, tag)
    problems = []
    if result["timed_out"]:
        problems.append(f"timed out after {OP_TIMEOUT_S} s")
    elif result["rc"] != 0:
        problems.append(f"exit code {result['rc']}: {result['stderr'].strip()[-300:]}")
    try:
        text = result["stdout"].decode("utf-8")
    except UnicodeDecodeError:
        problems.append("stdout is not UTF-8")
        text = ""
    if not problems:
        try:
            problems += op.check(text, outdir)
        except (ValueError, IndexError, KeyError) as exc:
            problems.append(f"malformed output: {exc!r}")
    result.update(problems=problems, outdir=outdir, label=op.label)
    try:
        if traced:
            result["trace"] = json.loads(spans.read_text())
        else:
            result["rss_mb"] = int(peak.read_text()) / 1024.0
    except (OSError, ValueError):
        problems.append(f"{script} left no readable {sidecar.name}")
    return result


def reference_time(workdir: Path) -> float:
    """Wall time of the reference program, from spawn to exit."""
    result = spawn([sys.executable, str(HERE / "reference.py")], workdir, "reference")
    if result["rc"] != 0:
        raise Failure(f"reference.py failed: {result['stderr'].strip()[-300:]}")
    return result["wall_s"]


def reference_times(workdir: Path) -> list:
    return [reference_time(workdir) for _ in range(REFERENCE_REPS)]


def setup_time(workload, workdir: Path, reference: list) -> list:
    """Wall times of the no-work invocation ``gausdisk <cmd> --help``; the
    reference program is timed before every fourth."""
    times = []
    for rep in range(SETUP_REPS):
        if rep % 4 == 0:
            reference.append(reference_time(workdir))
        argv = [sys.executable, "-m", "gausdisk.cli", workload.command, "--help"]
        result = spawn(argv, workdir, f"help{rep}")
        if result["rc"] != 0 or b"usage:" not in result["stdout"]:
            raise Failure(f"'{workload.command} --help' failed: {result['stderr'].strip()[-300:]}")
        times.append(result["wall_s"])
    return times


def measure(workload, seconds: float, workdir: Path) -> dict:
    """Cycle through the operations for ``seconds``: always one whole
    pass, then no operation that its last wall time says would overrun.

    The reference program runs REFERENCE_REPS times before each operation
    and after the last.  An operation's time is scaled by the mean of the
    reference times around it, the set-up time by the run's median
    reference time.  Each operation's times are reduced to their median
    before the median over operations, so a run that ends inside a pass
    weighs them all the same.
    """
    setup_reference = []
    setup = setup_time(workload, workdir, setup_reference)
    ops, last = [], {}
    gaps = [reference_times(workdir)]  # gaps[i] and gaps[i + 1] enclose ops[i]
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        op = workload.ops[i % len(workload.ops)]
        if op.label in last and time.perf_counter() + last[op.label] + sum(gaps[-1]) > deadline:
            break
        ops.append(run_op(op, workdir, f"o{i}"))
        last[op.label] = ops[-1]["wall_s"]
        gaps.append(reference_times(workdir))
    walls = {op.label: [] for op in workload.ops}
    scaled = {op.label: [] for op in workload.ops}
    for i, result in enumerate(ops):
        walls[result["label"]].append(result["wall_s"])
        local = statistics.mean(gaps[i] + gaps[i + 1])
        scaled[result["label"]].append(result["wall_s"] * REFERENCE_S / local)
    all_reference = setup_reference + [t for gap in gaps for t in gap]

    def times(per_label: dict, setup_scale: float) -> dict:
        medians = [statistics.median(w) for w in per_label.values()]
        return {  # name -> (value, unit, samples)
            "setup_s": (setup_scale * statistics.median(setup), "s", len(setup)),
            "op_s_p50": (statistics.median(medians), "s", len(ops)),
            "run_s": (sum(medians), "s", len(ops)),
        }

    metrics = times(scaled, REFERENCE_S / statistics.median(all_reference))
    metrics["peak_rss_mb"] = (max(r.get("rss_mb", 0.0) for r in ops), "MB", len(ops))
    unscaled = times(walls, 1.0)
    unscaled["reference_s"] = (statistics.median(all_reference), "s", len(all_reference))
    return {"metrics": metrics, "unscaled": unscaled, "ops": ops}


def _artifact_bytes(result: dict) -> dict:
    return {p.name: p.read_bytes() for p in sorted(result["outdir"].iterdir())}


def trace(workload, workdir: Path) -> dict:
    """One untraced pass, the same pass traced, and the kernel probes."""
    plain = [run_op(op, workdir, f"u{i}") for i, op in enumerate(workload.ops)]
    traced = [run_op(op, workdir, f"t{i}", traced=True) for i, op in enumerate(workload.ops)]
    layer, problems = tracer.summarize([r["trace"] for r in traced if "trace" in r])
    for u, t in zip(plain, traced):
        if u["stdout"] != t["stdout"]:
            problems.append(f"{u['label']}: traced stdout differs from untraced")
        if _artifact_bytes(u) != _artifact_bytes(t):
            problems.append(f"{u['label']}: traced artifacts differ from untraced")
    plain_s = sum(r["wall_s"] for r in plain)
    traced_s = sum(r["wall_s"] for r in traced)
    metrics = {name: (value, unit, len(traced)) for name, (value, unit) in layer.items()}
    metrics["experiments.artifact_bytes"] = (
        sum(len(b) for r in traced for b in _artifact_bytes(r).values()), "bytes", len(traced))
    metrics["cli.output_bytes"] = (sum(len(r["stdout"]) for r in traced), "bytes", len(traced))
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio", len(traced))
    probe = spawn([sys.executable, str(HERE / "probes.py")], workdir, "probes")
    if probe["rc"] != 0:
        problems.append(f"probes failed: {probe['stderr'].strip()[-300:]}")
    else:
        for name, value in json.loads(probe["stdout"]).items():
            unit = "count" if name.endswith(".evals") else "s"
            metrics[name] = (value, unit, 1)
    return {"metrics": metrics, "ops": plain + traced, "problems": problems}


def provenance(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        elif not ref.startswith("ref: "):
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "gausdisk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = workloads.build(name, seed)  # oracle values are computed here
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=SCRATCH))
    try:
        outcome = trace(workload, workdir) if traced else measure(workload, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = list(outcome.get("problems", []))
    failed = 0
    for op in outcome["ops"]:
        if op["problems"]:
            failed += 1
            problems += [f"{op['label']}: {p}" for p in op["problems"]]
    return {
        "workload": name,
        "unscaled": outcome.get("unscaled", {}),
        "ops": len(outcome["ops"]),
        "failed": failed,
        "problems": problems,
        "metrics": outcome["metrics"],
    }


def report(result: dict) -> None:
    name = result["workload"]
    for metric, (value, unit, n) in result["metrics"].items():
        print(f"{name:18s} {metric:44s} {value:14.6g} {unit:6s} n={n}")
    for metric, (value, unit, n) in result["unscaled"].items():
        print(f"{name:18s} {'unscaled ' + metric:44s} {value:14.6g} {unit:6s} n={n}")
    frac = result["failed"] / result["ops"]
    print(f"{name:18s} {'ops_failed_frac':44s} {frac:14.6g} {'ratio':6s} n={result['ops']}")
    for problem in result["problems"]:
        print(f"{name:18s} PROBLEM {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=48.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result as JSON here")
    args = parser.parse_args(argv)

    if not (SRC / "gausdisk" / "cli.py").is_file():
        raise Failure(f"no gausdisk sources at {SRC}")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    prov = provenance(args.seed)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    metrics = {}
    for result in results:
        report(result)
        prefix = f"{result['workload']}." if args.workload == "all" else ""
        for metric, (value, unit, _) in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    if args.out:
        args.out.write_text(json.dumps(
            {"provenance": prov, "workload": args.workload, "trace": args.trace,
             "seconds": args.seconds, "results": results, "metrics": metrics},
            indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        sys.exit(2)
