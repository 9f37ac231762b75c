"""Peak-memory bounds of the stages that hold N x N arrays or a whole series.

``tracemalloc`` sees numpy's data buffers, so each bound counts the arrays a
stage allocates, in units of one N x N float matrix (N^2 * 8 bytes), with the
spectrum it reads already computed. At G=7 one such matrix is 9.6 MB. The
eigensolver's bound reads the process's resident peak instead, because
``np.linalg.eigh``'s buffers are plain ``malloc`` that ``tracemalloc`` does
not see: beside its input the solver holds a 2 N^2 workspace, then the
eigenvector copy. The series writer's bound counts in units of the series it
reads (times x N floats).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import apwalks
from apwalks import serialize, verify
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


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_eigensolver_holds_less_than_three_matrices_beside_its_input():
    # A fresh process, so no earlier test's peak hides the solver's.
    script = """if True:
        from apwalks.network import generate_apollonian, laplacian
        from apwalks.spectral import eigendecompose

        def peak():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

        h = laplacian(generate_apollonian(7))
        before = peak()
        eigendecompose(h)
        print((peak() - before) * 1024 / h.nbytes)
    """
    env = dict(os.environ, PYTHONPATH=str(Path(apwalks.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 3.0


def test_reconstruction_check_holds_one_buffer_and_one_temporary(pipe):
    for g in range(G + 1):
        pipe.spectrum(g)
    n = pipe.spectrum(G).order
    peak = _peak_matrices(lambda: check_reconstruction(pipe, G), n)
    assert peak < 2.5


def test_limiting_matrix_holds_one_buffer_beside_its_result(pipe):
    s, grouping = pipe.spectrum(G), pipe.grouping(G)
    peak = _peak_matrices(lambda: limiting_matrix(s, grouping), s.order)
    assert peak < 2.5


def test_chi_csv_rows_are_zeroed_one_row_at_a_time(pipe):
    chi = pipe.chi(G)
    rows = serialize.limiting_matrix_to_csv(chi)
    peak = _peak_matrices(lambda: sum(map(len, rows)), chi.order)
    assert peak < 0.25


def test_series_csv_reads_the_snapshots_without_a_copy(pipe):
    s = pipe.spectrum(G)
    series = evolve_series(s, 4, "quantum", TimeGrid(0.01, 100.0, 2000, "logarithmic"))
    one_series = len(series) * s.order * 8
    assert _peak_bytes(lambda: serialize.series_to_csv(series)) / one_series < 0.25


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_verification_diagonalizes_its_largest_generation_first(monkeypatch, cpus):
    # With two CPUs the forked child's calls are not recorded here; this
    # process still diagonalizes every generation for the reconstruction check.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    orders = []
    real = verify.eigendecompose

    def record(h):
        orders.append(h.shape[0])
        return real(h)

    monkeypatch.setattr(verify, "eigendecompose", record)
    assert run_verification(4).passed
    assert orders[0] == node_count_for_generation(4)
    assert sorted(orders) == [node_count_for_generation(g) for g in range(5)]

