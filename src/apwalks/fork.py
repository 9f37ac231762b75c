"""Run one share of a job in a forked child while this process runs the other.

``split`` is the one place that forks. The CLI's writer of large CSV and JSON
bodies and the verification runner both split their work through it. It forks
only where ``os.fork`` exists and the affinity mask holds two or more CPUs: it
reads that mask only, so a cgroup CPU quota, a busy second CPU, or an idle one
that adds no throughput leaves a split with no gain and the cost of the fork.
When the child fails, for any reason, this process runs the child's share
itself: a split has no failure of its own.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections.abc import Callable
from typing import Any, BinaryIO, NoReturn


def split(here: Callable[[], Any], there: Callable[[BinaryIO], object],
          read: Callable[[BinaryIO], Any], redo: Callable[[], Any]) -> tuple[Any, Any]:
    """``(here(), read(part))``, with ``there(part)`` run by a forked child.

    The child runs ``there(part)`` into ``part``, an unlinked temporary file,
    and prints nothing, while this process runs ``here()``. Then ``read``
    gets ``part`` seeked to 0; if the child did not exit with 0, whatever the
    reason, ``redo()`` runs instead. If anything raises before the child is
    reaped, the wait too, the child is killed and reaped. Without two CPUs
    nothing is forked: the result is ``(here(), redo())``, in that order.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        return here(), redo()
    with tempfile.TemporaryFile() as part:
        # Flushed first, so that nothing buffered before the fork is written twice.
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if not pid:
            _run_child(there, part)
        status = None
        try:
            mine = here()
            status = os.waitpid(pid, 0)[1]
        finally:
            if status is None:
                # Imported only here: signal would add to the peak resident
                # set of every command.
                import signal
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if os.waitstatus_to_exitcode(status):
            return mine, redo()
        part.seek(0)  # the child's writes moved the shared file offset to the end
        return mine, read(part)


def _run_child(work: Callable[[BinaryIO], object], part: BinaryIO) -> NoReturn:
    """Run ``work(part)`` and leave through ``os._exit``: 0 if it returned, else 1.

    The child never returns into the caller, runs no ``atexit`` handler and
    prints no traceback: whatever it raised, the caller raises again when it
    runs the share itself.
    """
    code = 1
    try:
        work(part)
        part.flush()
        code = 0
    finally:
        os._exit(code)
