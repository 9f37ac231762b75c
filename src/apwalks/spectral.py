"""Eigendecomposition of the transport Hamiltonian and degeneracy grouping.

Every transport quantity downstream is a function of the eigenvalues and an
orthonormal eigenbasis of the (real symmetric) Laplacian, so this module is
the single place the matrix is diagonalized.

The solver is LAPACK ``dsyevd``, the routine ``np.linalg.eigh`` calls, from
the library numpy loaded, run in the input's own buffer: beside the input it
holds a 2 N^2 workspace instead of eigh's copy, workspace and separate output,
and it gives eigh's bits. Where numpy's build does not export that routine,
``np.linalg.eigh`` runs instead.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

try:
    # numpy's own linalg extension imports this symbol from its bundled
    # OpenBLAS: ILP64 integers, then one hidden length per string argument.
    _DSYEVD = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_dsyevd_64_
except (OSError, AttributeError):
    _DSYEVD = None
else:
    _INT, _PTR = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    _DSYEVD.argtypes = [ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _INT, _PTR,
                        _PTR, _INT, _PTR, _INT, _INT, ctypes.c_size_t, ctypes.c_size_t]
    _DSYEVD.restype = None


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


def _dsyevd(a, w, work, lwork, iwork, liwork) -> None:
    """``dsyevd`` with jobz "V" and uplo "L" on the column-major matrix in ``a``."""
    i64, info = ctypes.c_int64, ctypes.c_int64()
    _DSYEVD(b"V", b"L", i64(len(a)), a.ctypes.data, i64(max(1, len(a))), w.ctypes.data,
            work.ctypes.data, i64(lwork), iwork.ctypes.data, i64(liwork), info, 1, 1)
    if info.value < 0:
        raise RuntimeError(f"dsyevd rejected argument {-info.value}")
    if info.value > 0:
        raise NumericError(f"eigendecomposition failed for matrix of order {len(a)}: "
                           f"dsyevd info {info.value}")


def _eigh_in_place(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(h)``'s bits, computed in ``h``'s C buffer, which ends up holding V^T.

    A symmetric C buffer is also its own column-major buffer. The workspace
    comes from the same size query eigh makes, because ``dsytrd`` picks its
    blocked or unblocked reduction from that size.
    """
    w, work, iwork = np.empty(len(h)), np.empty(1), np.empty(1, dtype=np.int64)
    _dsyevd(h, w, work, -1, iwork, -1)
    work, iwork = np.empty(int(work[0])), np.empty(int(iwork[0]), dtype=np.int64)
    _dsyevd(h, w, work, work.size, iwork, iwork.size)
    del work, iwork  # freed before the copy below, so the copy adds nothing to the peak
    return w, np.ascontiguousarray(h.T)


def eigendecompose(h: np.ndarray) -> Spectrum:
    """Diagonalize a real symmetric matrix; ``h`` is overwritten, so pass a copy to keep it.

    Eigenvalues ascending, eigenvector columns orthonormal, both arrays frozen
    read-only; the eigenvectors are a C-ordered array of their own. Both are
    ``np.linalg.eigh(h)``'s bit for bit, and eigh itself runs instead (leaving
    ``h`` as it was) where numpy exports no ``dsyevd``. A writable C-ordered
    float64 ``h`` whose mirrored entries match bit for bit is the solver's
    buffer; any other input is copied once. Output is deterministic for
    identical input and a fixed BLAS thread count only: the last bits of
    both arrays change with the number of threads the eigensolver uses.

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
    if _DSYEVD is not None:
        # The solver reads its buffer as h's transpose: h's own C buffer only
        # when mirrored entries share their bits, not just their values (0.0
        # and -0.0 differ in bits and can change the result).
        own = h.flags.carray and np.array_equal(h.view(np.int64), h.T.view(np.int64))
        eigenvalues, eigenvectors = _eigh_in_place(h if own else h.T.copy())
    else:
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
    return EigenspaceGrouping(groups=tuple(groups), tolerance=tol)
