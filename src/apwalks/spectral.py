"""Eigendecomposition of the transport Hamiltonian and degeneracy grouping.

Every transport quantity downstream is a function of the eigenvalues and an
orthonormal eigenbasis of the (real symmetric) Laplacian, so this module is
the single place the matrix is diagonalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class NumericError(RuntimeError):
    """A linear-algebra routine failed or produced out-of-tolerance output."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues paired with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def order(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class EigenspaceGrouping:
    """Half-open index ranges over the eigenvalues, one per eigenspace."""

    groups: tuple[tuple[int, int], ...]
    tolerance: float

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.groups)


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Diagonalize a real symmetric matrix.

    Eigenvalues ascending, eigenvector columns orthonormal, both arrays
    frozen read-only. Output is deterministic for identical input and a
    fixed BLAS thread count only: the last bits of both arrays change with
    the number of threads the eigensolver uses.

    Raises:
        ValueError: if ``h`` is not square and exactly symmetric.
        NumericError: if the eigensolver fails to converge.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.array_equal(h, h.T):
        raise ValueError("matrix is not symmetric")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericError(
            f"eigendecomposition failed for matrix of order {h.shape[0]}: {exc}"
        ) from exc
    eigenvalues.flags.writeable = False
    eigenvectors.flags.writeable = False
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def default_degeneracy_tolerance(s: Spectrum) -> float:
    """Scale-aware gap tolerance separating structural degeneracies."""
    return 1e-8 * max(1.0, float(abs(s.eigenvalues[-1])))


def gap_runs(values: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Half-open index ranges of ascending ``values``, split wherever a gap exceeds ``tol``.

    This is the one rule for equal values: adjacent values at most ``tol``
    apart share a run, so a run can span more than ``tol`` in all.

    Raises:
        ValueError: if ``tol`` is not finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    cuts = (np.flatnonzero(np.diff(values) > tol) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(values)]))


def group_degenerate(s: Spectrum, tol: float) -> EigenspaceGrouping:
    """Group adjacent eigenvalues whose gap is at most ``tol`` (``gap_runs``).

    Raises:
        ValueError: if ``tol`` is not finite and positive, or the eigenvalues
            are not ascending.
    """
    groups = gap_runs(s.eigenvalues, tol)
    if np.any(np.diff(s.eigenvalues) < 0):
        raise ValueError("eigenvalues must be ascending")
    return EigenspaceGrouping(groups=tuple(groups), tolerance=tol)
