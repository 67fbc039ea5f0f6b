"""Run the gausdisk CLI as ``python3 -m gausdisk.cli`` would, then record
the process's own peak resident set size.

    python3 perfbench/launch.py PEAK_FILE gausdisk-arguments...

At exit, VmHWM (kB) from /proc/self/status is written to PEAK_FILE.  The
ru_maxrss that wait4 returns is no good here: Linux carries the spawning
process's RSS across fork and exec, so every operation would read at least
the benchmark's own size.  VmHWM belongs to the memory image created at exec.
"""

import atexit
import os
import runpy
import sys


def _write_peak(path: str) -> None:
    with open("/proc/self/status", encoding="ascii") as status:
        peak_kb = next(int(ln.split()[1]) for ln in status if ln.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as out:
        out.write(f"{peak_kb}\n")


if __name__ == "__main__":
    atexit.register(_write_peak, sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    sys.path[0] = os.getcwd()  # as under -m
    runpy.run_module("gausdisk.cli", run_name="__main__", alter_sys=True)
