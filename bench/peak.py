"""Run ``python -m apwalks.cli ARGS`` and write the process's peak resident set to a file.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 bench/peak.py PEAK_KB_FILE -- evolve -g 7 ...

At exit the process writes its ``VmHWM`` (kB) from ``/proc/self/status``.
``ru_maxrss`` from ``wait4`` cannot stand in for it: Linux carries the
spawning process's resident set into the child's ``ru_maxrss``, so a child
of the benchmark, which holds parsed outputs, would report the benchmark's
peak instead of its own.
"""

from __future__ import annotations

import atexit
import runpy
import sys


def record_peak(path: str) -> None:
    with open("/proc/self/status") as fh:
        peak_kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as fh:
        fh.write(peak_kb)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: peak.py PEAK_KB_FILE -- CLI_ARGS...")
    atexit.register(record_peak, sys.argv[1])
    sys.argv = ["apwalks", *sys.argv[3:]]
    runpy.run_module("apwalks.cli", run_name="__main__", alter_sys=True)
