"""Peak-memory bounds of the stages that hold N x N arrays.

``tracemalloc`` sees numpy's data buffers, so each bound counts the arrays a
stage allocates, in units of one N x N float matrix (N^2 * 8 bytes), with the
spectrum it reads already computed. At G=7 one such matrix is 9.6 MB, and
the eigensolver itself holds about four at once.
"""

from __future__ import annotations

import os
import tracemalloc

import pytest

from apwalks import serialize, verify
from apwalks.dynamics import limiting_matrix
from apwalks.network import node_count_for_generation
from apwalks.verify import check_reconstruction, run_verification

G = 6


def _peak_matrices(fn, n: int) -> float:
    """Peak traced allocation while ``fn()`` runs, in N x N float matrices."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (n * n * 8)


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

