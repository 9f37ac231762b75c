"""Peak-memory bounds of the stages that hold N x N arrays or a whole series.

``tracemalloc`` sees numpy's data buffers, so each bound counts the arrays a
stage allocates, in units of one N x N float matrix (N^2 * 8 bytes), with the
spectrum it reads already computed. At G=7 one such matrix is 9.6 MB. The
G=7 ``spectrum``, ``limit``, ``verify`` and ``evolve`` commands are held to
budgets of their own, read as the resident peak of fresh CLI processes,
because ``np.linalg.eigh``'s and the allocator's own buffers are not
``tracemalloc``'s to see: each budget is the peak of importing the CLI plus a
stated multiple of N^2 * 8 bytes. The series writer's bound counts in units
of the series it writes (times x N floats), which it never holds.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import apwalks
from apwalks import dynamics, serialize, verify
from apwalks.dynamics import TimeGrid, evolve_series, limiting_matrix
from apwalks.network import node_count_for_generation
from apwalks.verify import check_reconstruction, run_verification

G = 6


def _peak_bytes(fn) -> int:
    """Peak traced allocation while ``fn()`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def _peak_matrices(fn, n: int) -> float:
    """Peak traced allocation while ``fn()`` runs, in N x N float matrices."""
    return _peak_bytes(fn) / (n * n * 8)


# The reconstruction check holds one N x N residual, reused for Q^T Q - I.
@pytest.mark.parametrize("g", [G, 7], ids=["g6", "g7"])
def test_reconstruction_check_holds_one_residual(pipe, g):
    for h in range(g + 1):
        pipe.spectrum(h)
    n = pipe.spectrum(g).order
    peak = _peak_matrices(lambda: check_reconstruction(pipe, g), n)
    assert peak < 1.5


# Up to G=6 one row stripe (``dynamics._STRIPE_ENTRIES``) is the whole
# matrix, so a stage holds its result and one N x N temporary; at G=7 a
# stripe is 0.22 N x N.
@pytest.mark.parametrize("g, bound", [(G, 2.5), (7, 1.75)], ids=["g6", "g7"])
def test_limiting_matrix_holds_its_result_pair_columns_and_one_stripe(pipe, g, bound):
    s, grouping = pipe.spectrum(g), pipe.grouping(g)
    peak = _peak_matrices(lambda: limiting_matrix(s, grouping), s.order)
    assert peak < bound


def _cli_peak_kb(tmp_path: Path, *argv: str) -> int:
    """``VmHWM`` (kB) at exit of ``python -m apwalks.cli ARGV`` in a fresh process on one BLAS thread."""
    script = """if True:
        import atexit, runpy, sys

        def record(path):
            with open("/proc/self/status") as fh:
                peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
            with open(path, "w") as fh:
                fh.write(peak)

        atexit.register(record, sys.argv[1])
        sys.argv = ["apwalks", *sys.argv[2:]]
        runpy.run_module("apwalks.cli", run_name="__main__", alter_sys=True)
    """
    out = tmp_path / "peak_kb"
    env = dict(os.environ, PYTHONPATH=str(Path(apwalks.__file__).parents[1]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, "-c", script, str(out), *argv], env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return int(out.read_text())


def _import_peak_kb() -> int:
    """``VmHWM`` (kB) of a fresh process that imports ``apwalks.cli`` on one BLAS thread."""
    script = ("import apwalks.cli\n"
              "print(next(line.split()[1] for line in open('/proc/self/status')"
              " if line.startswith('VmHWM:')))")
    env = dict(os.environ, PYTHONPATH=str(Path(apwalks.__file__).parents[1]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


# Peaks above import in N x N matrices (9.2 MiB at G=7), measured on one BLAS
# thread with import at 29.6 MiB: spectrum 2.09 (the G=7 eigenvectors, which
# hold the projected basis while it is built, and the complement solve),
# evolve 2.10 (the build of W_j, then W_j and one block of times with the
# spectra dropped, not a series: 17.5 MB at the default 2000 times; 2.22
# when it kept the spectrum and propagated over every mode), verify 3.02
# (the reconstruction check's residual) and limit 3.34 (chi and its pair
# columns). Every budget is below the 61.4 MiB that each of
# them read when G=7 came from one dense solve of its Laplacian.
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("argv, budget", [
    (("spectrum", "-g", "7", "-o", os.devnull), 2.3),
    (("evolve", "-g", "7", "-s", "77", "--kind", "both", "-o", "s.csv"), 2.3),
    (("verify", "--max-generation", "7"), 3.25),
    (("limit", "-g", "7", "-s", "77", "--report", os.devnull), 3.45),
], ids=["spectrum", "evolve", "verify", "limit"])
def test_g7_commands_peak_within_their_budgets(tmp_path, argv, budget):
    n = node_count_for_generation(7)
    argv = [str(tmp_path / arg) if arg == "s.csv" else arg for arg in argv]
    growth = (_cli_peak_kb(tmp_path, *argv) - _import_peak_kb()) * 1024 / (n * n * 8)
    assert growth < budget


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("fmt, steps, bound", [
    ("csv", (1000, 500_000), 16), ("json", (1000, 500_000), 16),
    ("csv", (500_000, 2_000_000), 12),
], ids=["csv", "json", "csv-2000000"])
def test_evolve_peak_grows_only_by_its_times_at_small_n(tmp_path, fmt, steps, bound):
    # At G=0 (N=3) a series block is 43,690 times and the labels of the rows
    # are built a format block at a time, so a long grid costs what a short
    # one does but the times themselves: 8 bytes a time, filled in place.
    # At 500,000 times propagating a block, not the grid, sets the peak, so
    # the step up to it gets the looser bound.
    argv = ("evolve", "-g", "0", "--format", fmt, "-o", os.devnull, "--t-steps")
    short, long = (_cli_peak_kb(tmp_path, *argv, str(count)) for count in steps)
    assert (long - short) * 1024 < bound * (steps[1] - steps[0])

def test_chi_csv_is_formatted_one_block_at_a_time(pipe):
    # A block of rows (``serialize._format_values``) is formatted at once: one
    # row at G=6, four at G=7. A first call also builds the kernel's tables
    # (0.08 N x N at G=6).
    for g in (G, 7):
        chi = pipe.chi(g)
        rows = serialize.limiting_matrix_to_csv(chi)
        peak = _peak_matrices(lambda: sum(map(len, rows)), chi.order)
        assert peak < 0.25, g


def test_chi_csv_at_g7_calls_the_kernel_once_per_four_rows(pipe, monkeypatch):
    calls = []
    real = serialize._format17

    def format17(x, out):
        calls.append(len(x))
        real(x, out)

    monkeypatch.setattr(serialize, "_format17", format17)
    n = node_count_for_generation(7)
    sum(map(len, serialize.limiting_matrix_to_csv(pipe.chi(7))))
    assert len(calls) == 274 and set(calls) == {4 * n}


def test_pair_columns_hold_no_second_array_of_their_size(pipe):
    # Forming chi's pair columns (3.1 MB at G=7) holds them and one row stripe
    # of the factor v[:, b] (``dynamics._CHECK_ENTRIES``): 1.13 of their size.
    # A whole copy of v[:, b], or of the off-diagonal columns, read 2.01.
    s, grouping = pipe.spectrum(7), pipe.grouping(7)
    small = [group for group in grouping.groups if group[1] - group[0] <= dynamics._PAIR_MAX_DIM]
    size = dynamics._pair_columns(s.eigenvectors, small).nbytes
    assert _peak_bytes(lambda: dynamics._pair_columns(s.eigenvectors, small)) < 1.5 * size


def test_series_csv_holds_a_block_not_the_series(pipe):
    # At G=7 a block is 119 of the 2000 times (6%); writing the series holds
    # one block and the kernel's temporaries, about three blocks at most. The
    # quantum kernel holds more than the classical one; the wide layout reads
    # the same rows as the long one in less time under tracemalloc.
    p = pipe.projections(7, 77)
    grid = TimeGrid(0.01, 100.0, 2000, "logarithmic")
    one_series = grid.steps * p.order * 8
    peak = _peak_bytes(lambda: sum(map(len, serialize.series_to_csv(
        evolve_series(p, "quantum", grid), wide=True))))
    assert peak / one_series < 0.25


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_verification_diagonalizes_its_largest_generation_first(monkeypatch, cpus):
    # With two CPUs the forked child's calls are not recorded here; this
    # process still diagonalizes every generation, largest first, for the
    # reconstruction check.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    orders = []
    real = verify.eigendecompose

    def record(h):
        orders.append(h.shape[0])
        return real(h)

    monkeypatch.setattr(verify, "eigendecompose", record)
    assert run_verification(4)["passed"]
    assert orders == [node_count_for_generation(g) for g in (4, 3, 2, 1, 0)]

