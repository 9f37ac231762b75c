"""Classical and coherent transition probabilities on a fixed spectrum.

All quantities are spectral sums over the eigenpairs (E_n, q_n) of the
Laplacian H:

    classical   p_kj(t) = sum_n exp(-t E_n) q_n[k] q_n[j]
    amplitude   a_kj(t) = sum_n exp(-i t E_n) q_n[k] q_n[j]
    coherent    pi_kj(t) = |a_kj(t)|^2

and the infinite-time average of pi, which keeps only pairs of equal
eigenvalues and therefore depends on the degeneracy grouping:

    chi_kj = sum_groups ( sum_{n in group} q_n[k] q_n[j] )^2

One kernel, ``_propagate``, evaluates p and pi for a whole block of times as
phase-matrix products on the eigenvectors: with T the block's times and V
the eigenvector matrix, the classical rows are ``(exp(-T E) * q[j]) @ V^T``
and the coherent rows are the squared norms of the cosine and sine parts of
``(exp(-i T E) * q[j]) @ V^T``. Point probabilities, series and the
finite-time average all call it. A block holds at most ``_BLOCK_ENTRIES``
phase entries (times x modes), so each of the kernel's temporaries stays
near 1 MB whatever the grid length. The sum runs over single modes, never
over degeneracy groups, so the series depend on no degeneracy tolerance and
carry no phase error from the spread inside a group: they are exact up to
the rounding of the products.

Time is measured in units of the inverse hopping rate throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal

import numpy as np

from .spectral import EigenspaceGrouping, NumericError, Spectrum

TransitionKind = Literal["classical", "quantum"]

#: Probability entries may undershoot zero by at most this much.
ENTRY_FLOOR = -1e-12
#: Snapshot entries may overshoot one by at most this much.
ENTRY_CEIL = 1.0 + 1e-12
#: A snapshot's entries must sum to one within this tolerance.
SUM_TOL = 1e-10

#: Grid density used by the revival search when none is specified.
DEFAULT_REVIVAL_POINTS = 100_000

#: Phase entries (times x modes) per time block: bounds the kernel's and the
#: revival scan's temporaries; the block length follows from the order N.
#: At G=3 (N=16) a block is 8192 times, the revival scan's former chunk; at
#: G=7 it is 119 times, which multiply as fast as larger blocks. Blocks of
#: 2**20 entries ran no faster and raised peak memory at G=3 by 30-40 MB.
_BLOCK_ENTRIES = 2**17


def _block_rows(s: Spectrum) -> int:
    """Times per block for this spectrum: about ``_BLOCK_ENTRIES`` entries."""
    return max(1, _BLOCK_ENTRIES // s.order)


@dataclass(frozen=True)
class TransitionSnapshot:
    """Distribution over all nodes from one source at one time."""

    source: int
    time: float
    kind: TransitionKind
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        # Negated comparisons: a NaN entry fails every one of them.
        if not (values.min() >= ENTRY_FLOOR and values.max() <= ENTRY_CEIL):
            raise NumericError(
                f"snapshot entries escape [0, 1] beyond tolerance at "
                f"t={self.time} (min {values.min():.3e}, max {values.max():.3e})"
            )
        total = float(values.sum())
        if not abs(total - 1.0) <= SUM_TOL:
            raise NumericError(
                f"snapshot does not sum to 1 within {SUM_TOL:g} at "
                f"t={self.time}: sum={total!r}"
            )

    def value_at(self, node: int) -> float:
        return float(self.values[node - 1])


@dataclass(frozen=True)
class LimitingMatrix:
    """Long-time averaged transition probabilities, entry [k-1, j-1]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        # Negated comparisons: a NaN entry fails every one of them.
        if not np.abs(entries - entries.T).max() <= 1e-12:
            raise NumericError("limiting matrix is not symmetric")
        if not entries.min() >= 0.0:
            raise NumericError("limiting matrix has a negative entry")
        col_err = np.abs(entries.sum(axis=0) - 1.0).max()
        if not col_err <= SUM_TOL:
            raise NumericError(
                f"limiting matrix columns do not sum to 1 (max error {col_err:.3e})"
            )

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    def column(self, j: int) -> np.ndarray:
        return self.entries[:, j - 1]

    def value(self, k: int, j: int) -> float:
        return float(self.entries[k - 1, j - 1])


@dataclass(frozen=True)
class TimeGrid:
    """Sample times for a series: linear or logarithmic spacing.

    A single-point grid (steps == 1) samples only ``start``; grids with two
    or more points require ``end > start``, and logarithmic spacing requires
    ``start > 0``. Both ends must be finite.
    """

    start: float
    end: float
    steps: int
    spacing: Literal["linear", "logarithmic"] = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(
                f"grid ends must be finite (start={self.start}, end={self.end})"
            )
        if self.steps < 1:
            raise ValueError(f"step count must be at least 1, got {self.steps}")
        if self.start < 0:
            raise ValueError(f"start time must be non-negative, got {self.start}")
        if self.steps >= 2 and not self.end > self.start:
            raise ValueError(
                f"end must exceed start for multi-point grids "
                f"(start={self.start}, end={self.end})"
            )
        if self.spacing == "logarithmic" and self.start <= 0:
            raise ValueError("logarithmic spacing requires start > 0")
        if self.spacing not in ("linear", "logarithmic"):
            raise ValueError(f"unknown spacing {self.spacing!r}")

    def times(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start], dtype=float)
        if self.spacing == "logarithmic":
            return np.geomspace(self.start, self.end, self.steps)
        return np.linspace(self.start, self.end, self.steps)


def _source_weights(s: Spectrum, j: int) -> np.ndarray:
    """Per-mode overlaps q_n[j], as a length-N vector."""
    s.check_node(j)
    return s.eigenvectors[j - 1, :]


def _propagate(
    s: Spectrum, j: int, times: np.ndarray, kind: TransitionKind
) -> np.ndarray:
    """Distributions from node j, one row per time: a (len(times) x N) array.

    Each block of times is two real GEMMs at most; the coherent rows are
    |cos part|^2 + |sin part|^2 of the amplitudes.
    """
    if kind not in ("classical", "quantum"):
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    w = _source_weights(s, j)
    vt = s.eigenvectors.T
    out = np.empty((len(times), s.order))
    rows = _block_rows(s)
    for lo in range(0, len(times), rows):
        arg = np.outer(times[lo : lo + rows], s.eigenvalues)
        if kind == "classical":
            out[lo : lo + rows] = (np.exp(-arg) * w) @ vt
        else:
            re = (np.cos(arg) * w) @ vt
            im = (np.sin(arg) * w) @ vt
            out[lo : lo + rows] = re * re + im * im
    return out


def _probability(
    s: Spectrum, j: int, t: float, kind: TransitionKind
) -> TransitionSnapshot:
    if not t >= 0:
        raise ValueError(f"time must be non-negative, got {t}")
    values = _propagate(s, j, np.array([t], dtype=float), kind)[0]
    return TransitionSnapshot(source=j, time=float(t), kind=kind, values=values)


def classical_probability(s: Spectrum, j: int, t: float) -> TransitionSnapshot:
    """Continuous-time random-walk distribution from node j at time t."""
    return _probability(s, j, t, "classical")


def quantum_probability(s: Spectrum, j: int, t: float) -> TransitionSnapshot:
    """Coherent-walk distribution |a_kj(t)|^2 from node j at time t."""
    return _probability(s, j, t, "quantum")


def closed_form_g1(j: int, k: int, t: float) -> float:
    """Exact generation-1 (complete-graph) coherent transition probability."""
    if j == k:
        return (5.0 + 3.0 * np.cos(4.0 * t)) / 8.0
    return (1.0 - np.cos(4.0 * t)) / 8.0


def closed_form_g2(k: int, t: float) -> float:
    """Exact generation-2 coherent probability from the central node 4."""
    if k == 4:
        return (37.0 + 12.0 * np.cos(7.0 * t)) / 49.0
    return (2.0 - 2.0 * np.cos(7.0 * t)) / 49.0


def _check_grouping(s: Spectrum, grouping: EigenspaceGrouping) -> None:
    if not grouping.groups or grouping.groups[-1][1] != s.order:
        raise ValueError(
            "eigenspace grouping does not match the spectrum order "
            f"({grouping.groups[-1][1] if grouping.groups else 0} vs {s.order})"
        )


def limiting_probability(
    s: Spectrum, grouping: EigenspaceGrouping, j: int
) -> np.ndarray:
    """Infinite-time averaged distribution from node j, as a length-N column.

    Only eigenvalue pairs inside the same degenerate group survive the
    average, so the result is a sum of squared per-group overlaps.
    """
    _check_grouping(s, grouping)
    w = _source_weights(s, j)
    column = np.zeros(s.order)
    for start, stop in grouping.groups:
        block = s.eigenvectors[:, start:stop]
        column += (block @ w[start:stop]) ** 2
    return column


def limiting_matrix(s: Spectrum, grouping: EigenspaceGrouping) -> LimitingMatrix:
    """Long-time averages for every source/target pair at once."""
    _check_grouping(s, grouping)
    chi = np.zeros((s.order, s.order))
    for start, stop in grouping.groups:
        block = s.eigenvectors[:, start:stop]
        projector = block @ block.T
        chi += projector * projector
    return LimitingMatrix(entries=chi)


def evolve_series(
    s: Spectrum, j: int, kind: TransitionKind, grid: TimeGrid
) -> list[TransitionSnapshot]:
    """One snapshot per grid time, in grid order."""
    times = grid.times()
    values = _propagate(s, j, times, kind)
    return [
        TransitionSnapshot(source=j, time=float(t), kind=kind, values=row)
        for t, row in zip(times, values)
    ]


def _return_probability_chunks(
    s: Spectrum, j: int, times: np.ndarray
) -> Iterator[np.ndarray]:
    w2 = _source_weights(s, j) ** 2
    rows = _block_rows(s)
    for lo in range(0, len(times), rows):
        block = times[lo : lo + rows]
        amplitudes = np.exp(-1j * np.outer(block, s.eigenvalues)) @ w2
        yield np.abs(amplitudes) ** 2


def max_return_probability(
    s: Spectrum, j: int, window: TimeGrid
) -> tuple[float, float]:
    """Grid time and value maximizing the return probability pi_jj.

    The window must start strictly after t = 0 (the trivial maximum). The
    search is a dense scan; the grid resolution is the caller's to report.
    """
    if not window.start > 0:
        raise ValueError("revival search window must exclude t = 0")
    times = window.times()
    best_t, best_p = times[0], -1.0
    offset = 0
    for probs in _return_probability_chunks(s, j, times):
        i = int(np.argmax(probs))
        if probs[i] > best_p:
            best_p = float(probs[i])
            best_t = float(times[offset + i])
        offset += len(probs)
    return best_t, best_p


def default_revival_window(
    t_min: float = 0.1, t_max: float = 200.0, points: int = DEFAULT_REVIVAL_POINTS
) -> TimeGrid:
    """Dense linear window used for partial-revival searches."""
    return TimeGrid(start=t_min, end=t_max, steps=points, spacing="linear")


def finite_time_average(
    s: Spectrum, j: int, horizon: float, samples: int | None = None
) -> np.ndarray:
    """Trapezoidal average of the coherent distribution over [0, horizon].

    This is a consistency check only: the limiting probabilities are defined
    by their infinite-horizon spectral form, never by this average.
    """
    if not horizon > 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if samples is None:
        # ~25 samples per period of the fastest oscillation.
        fastest = float(s.eigenvalues[-1] - s.eigenvalues[0])
        samples = max(1000, int(horizon * max(fastest, 1.0) * 4))
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    times = np.linspace(0.0, horizon, samples)
    weights = np.ones(samples)
    weights[[0, -1]] = 0.5
    acc = np.zeros(s.order)
    rows = _block_rows(s)
    for lo in range(0, samples, rows):
        block = slice(lo, lo + rows)
        acc += weights[block] @ _propagate(s, j, times[block], "quantum")
    return acc / (samples - 1)
