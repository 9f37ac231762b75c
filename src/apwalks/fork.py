"""Run one share of a job in a forked child while this process runs the other.

The CLI's writer of large CSV and JSON bodies and the verification runner
both split their work this way. ``two_cpus`` is their one trigger: it reads the affinity mask only, so a
cgroup CPU quota or a busy second CPU leaves a split with no gain and the cost
of the fork.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from typing import BinaryIO, NoReturn


def two_cpus() -> bool:
    """Whether ``os.fork`` exists and the affinity mask holds two or more CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


@contextmanager
def child(work: Callable[[BinaryIO], object]) -> Iterator[Callable[[], BinaryIO]]:
    """Fork a child that runs ``work(part)`` into an unlinked temporary file.

    Yields ``join``: it waits for the child, raises ``RuntimeError`` if the
    child exited nonzero, and returns ``part`` seeked to 0 for reading. The
    body of the ``with`` runs beside the child; if it leaves without joining
    (it raised), the child is killed and reaped.
    """
    with tempfile.TemporaryFile() as part:
        # Flushed first, so that nothing buffered before the fork is written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if not pid:
            _run_child(work, part)
        status = None

        def join() -> BinaryIO:
            nonlocal status
            status = os.waitpid(pid, 0)[1]
            code = os.waitstatus_to_exitcode(status)
            if code:
                raise RuntimeError(f"the forked child {pid} exited with {code}")
            part.seek(0)  # the child's writes moved the shared file offset to the end
            return part

        try:
            yield join
        finally:
            if status is None:
                # Imported only here: signal would add to the peak resident
                # set of every command.
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_child(work: Callable[[BinaryIO], object], part: BinaryIO) -> NoReturn:
    """Run ``work(part)`` and leave through ``os._exit``: 0 if it returned.

    The child never returns into the caller or runs ``atexit`` handlers.
    """
    code = 1
    try:
        work(part)
        part.flush()
        code = 0
    except Exception:
        sys.excepthook(*sys.exc_info())  # the traceback, without importing traceback
        sys.stderr.flush()
    finally:
        os._exit(code)
