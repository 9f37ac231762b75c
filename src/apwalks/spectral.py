"""Eigendecomposition of the transport Hamiltonian and degeneracy grouping.

Every transport quantity downstream is a function of the eigenvalues and an
orthonormal eigenbasis of the (real symmetric) Laplacian, and this module is
the one place either is computed. Two routes give them:

- ``eigendecompose`` diagonalizes a dense matrix with ``np.linalg.eigh``
  (LAPACK ``dsyevd``).
- ``spectrum_from_copies`` builds generation G from generation G-1. G is
  three copies of G-1 glued at nodes 1-4 (``network.copy_map``), so
  N_G = 3 N_(G-1) - 5. Each eigenspace of G-1 of three modes or more vanishes
  on G-1's corners and extends by zero into each copy: these are the family
  modes. What is left, the complement, has dimension 3 r - 5, with r the
  modes of G-1 in one- and two-mode eigenspaces. Its orthonormal basis
  comes without a solver: the unit vectors on nodes 1-4, and in each copy the
  orthonormalized interior rows of G-1's other modes. One dense solve of the
  Laplacian projected on that basis, of order 286 at G=7 (N=1096), gives the
  rest of the spectrum.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

#: What the copy route tolerates, in units of N eps (N the order of the
#: spectrum it reads): in a family mode's corner rows, and in the split of
#: M^T M's eigenvalues into 0 and 1 (``spectrum_from_copies``). Measured
#: worst: 0.24 reading G=5 and 0.16 reading G=6 (1.3e-14 of 8.1e-14).
COPY_TOL_FACTOR = 10.0


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

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(stop - start for start, stop in self.groups)


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Diagonalize a real symmetric matrix with ``np.linalg.eigh``; ``h`` is left as it was.

    Eigenvalues ascending, eigenvector columns orthonormal, both eigh's
    arrays, frozen read-only; the eigenvectors are a C-ordered array of their
    own. Output is deterministic for identical input and a fixed BLAS thread
    count only: the last bits of both arrays change with the number of threads
    the eigensolver uses.

    Raises:
        ValueError: if ``h`` is not square, has a non-finite entry, or is not
            exactly symmetric.
        NumericError: if the eigensolver fails to converge.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise ValueError("matrix has a non-finite entry")
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


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2, whose mirrored entries are equal bit for bit."""
    return (a + a.T) * 0.5


def spectrum_from_copies(
    prev: Spectrum,
    grouping: EigenspaceGrouping,
    copies: tuple[tuple[int, ...], ...],
    edges: tuple[tuple[int, int], ...],
    solve: Callable[[np.ndarray], Spectrum],
) -> Spectrum:
    """The Laplacian spectrum of generation G from G-1's spectrum and grouping.

    ``copies`` is ``network.copy_map`` of G's network, ``edges`` its edge
    list, and ``solve`` diagonalizes the complement (``eigendecompose``). In
    four steps (module docstring):

    - **Family modes.** The modes of G-1's eigenspaces of three or more, zero
      extended into each copy, corner rows exactly 0, with G-1's eigenvalues.
    - **Complement basis.** Q: the unit vectors on nodes 1-4, and in each copy
      the columns M U / sqrt(w), where M is the interior rows of G-1's other
      r modes and (w, U) the eigenpairs of M^T M with w near 1. As G-1's rows
      are orthonormal, its corner rows C satisfy C C^T = I, so M^T M = I - C^T C
      has the eigenvalues 0 (three times) and 1 (r - 3 times).
    - **Complement solve.** ``solve`` of Q^T (L Q), with L Q taken from the
      edge list one edge at a time, and symmetrized.
    - **Assembly.** Every column goes straight into its slot of ascending
      eigenvalue, and the ground mode is set to exactly 1/sqrt(N).

    Raises:
        NumericError: if a family mode's corner rows, or M^T M's eigenvalues
            off 0 and 1, exceed ``COPY_TOL_FACTOR`` N eps, or if the copies,
            family and complement do not account for G's N nodes. Each
            message gives the measured value and its bound.
    """
    copies = np.asarray(copies) - 1
    n, n_prev = int(copies.max()) + 1, prev.order
    v = prev.eigenvectors
    tol = COPY_TOL_FACTOR * n_prev * np.finfo(float).eps
    in_family = np.zeros(n_prev, dtype=bool)
    for start, stop in grouping.groups:
        in_family[start:stop] = stop - start >= 3
    family, other = np.flatnonzero(in_family), np.flatnonzero(~in_family)
    f, r = len(family), len(other)
    width = r - 3  # complement columns per copy
    if copies.shape != (3, n_prev) or 3 * f + 3 * width + 4 != n:
        raise NumericError(
            f"copies of {n_prev} nodes with {f} family and {r} other modes give "
            f"3*{f} + 3*{width} + 4 = {3 * f + 3 * width + 4} modes, not N = {n}")
    corner = float(np.abs(v[:3, family]).max(initial=0.0))
    if not corner <= tol:
        raise NumericError(f"family modes do not vanish on the corners: {corner:.3e} "
                           f"exceeds {tol:.3e} ({COPY_TOL_FACTOR:g} N eps)")

    m = v[3:, other]
    gram = eigendecompose(_symmetrized(m.T @ m))
    w = gram.eigenvalues
    split = max(float(np.abs(w[:3]).max()), float(np.abs(w[3:] - 1.0).max(initial=0.0)))
    if not split <= tol:
        raise NumericError(f"interior Gram matrix is not three 0s and {width} 1s: "
                           f"{split:.3e} off exceeds {tol:.3e} ({COPY_TOL_FACTOR:g} N eps)")
    basis = m @ gram.eigenvectors[:, 3:]
    basis /= np.sqrt(w[3:])
    del m, gram

    # Q and L Q are formed in the buffer that the eigenvectors fill later,
    # which holds both from G=6 on, so that beside it the build holds no array
    # of N rows. At G=7 that keeps the limit command's peak 1.1 MiB lower.
    interiors, k = copies[:, 3:], 4 + 3 * width
    vectors = np.zeros((n, n))
    scratch = vectors.reshape(-1) if 2 * k <= n else np.zeros(2 * n * k)
    q, lq = scratch[:2 * n * k].reshape(2, n, k)
    q[np.arange(4), np.arange(4)] = 1.0
    blocks = [slice(4 + c * width, 4 + (c + 1) * width) for c in range(3)]
    for rows, cols in zip(interiors, blocks):
        q[rows, cols] = basis
    degree = np.bincount(np.ravel(edges), minlength=n + 1)[1:]
    np.multiply(degree[:, None], q, out=lq)
    for a, b in edges:
        lq[a - 1] -= q[b - 1]
        lq[b - 1] -= q[a - 1]
    h = q.T @ lq
    vectors.fill(0.0)
    del scratch, q, lq
    complement = solve(_symmetrized(h))
    del h
    y = complement.eigenvectors

    values = np.concatenate([np.tile(prev.eigenvalues[family], 3), complement.eigenvalues])
    order = np.argsort(values, kind="stable")
    slot = np.empty(n, dtype=int)
    slot[order] = np.arange(n)
    for c, rows in enumerate(interiors):
        vectors[np.ix_(rows, slot[c * f:(c + 1) * f])] = v[3:, family]
    cols = slot[3 * f:]
    vectors[np.ix_(np.arange(4), cols)] = y[:4]
    for rows, block in zip(interiors, blocks):
        vectors[np.ix_(rows, cols)] = basis @ y[block]
    vectors[:, 0] = 1.0 / math.sqrt(n)
    eigenvalues = values[order]
    eigenvalues.flags.writeable = False
    vectors.flags.writeable = False
    return Spectrum(eigenvalues=eigenvalues, eigenvectors=vectors)


def default_degeneracy_tolerance(s: Spectrum) -> float:
    """The gap tolerance between rounding spread and real gaps, measured on ``s``.

    The floor N eps max(1, |E|max) stands for the spread rounding leaves
    inside an eigenspace. The tolerance is the geometric mean of the floor and
    the narrowest gap above it (1.3e-7 at G=7, from 4.7e-11 and 3.7e-4), or
    the floor itself when no gap is above it.

    Raises:
        NumericError: if that gap is under 1e3 floors, so that rounding and
            real gaps cannot be told apart.
    """
    e = s.eigenvalues
    floor = len(e) * np.finfo(float).eps * max(1.0, float(np.abs(e).max()))
    gaps = np.diff(e)
    gaps = gaps[gaps > floor]
    if not gaps.size:
        return floor
    gap = float(gaps.min())
    if gap < 1e3 * floor:
        raise NumericError(f"eigenvalues too close to group: narrowest gap {gap:.3e} "
                           f"is under 1e3 times the rounding floor {floor:.3e}")
    return math.sqrt(floor * gap)


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
    return EigenspaceGrouping(groups=tuple(groups))
