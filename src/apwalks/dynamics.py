"""Classical and coherent transition probabilities on a fixed spectrum.

All quantities are spectral sums over the eigenpairs (E_n, q_n) of the
Laplacian H:

    classical   p_kj(t) = sum_n exp(-t E_n) q_n[k] q_n[j]
    amplitude   a_kj(t) = sum_n exp(-i t E_n) q_n[k] q_n[j]
    coherent    pi_kj(t) = |a_kj(t)|^2

and the infinite-time average of pi, which keeps only pairs of equal
eigenvalues and therefore depends on the degeneracy grouping:

    chi_kj = sum_groups ( sum_{n in group} q_n[k] q_n[j] )^2

that is, chi is the sum over groups of the entrywise square of the group's
projector B B^T, with B the group's eigenvector columns. ``limiting_matrix``
evaluates it through the exact pair-product identity

    (B B^T) o (B B^T) = sum_{a,b in group} (q_a o q_b)(q_a o q_b)^T

(o the entrywise product): every eigenspace of at most ``_PAIR_MAX_DIM``
modes contributes its m(m+1)/2 pair columns q_a o q_b, the off-diagonal ones
scaled by sqrt(2) to count both orders, to one N x K matrix P, and
chi = P P^T is a single matrix product. Each larger eigenspace adds its
squared projector into chi one row stripe at a time (``_stripes``), so
beside chi and P no N x N array is formed; ``LimitingMatrix`` checks
symmetry over narrower stripes of its own (``_CHECK_ENTRIES``).

One kernel, ``_propagate``, evaluates p and pi for a whole block of times as
phase-matrix products on the eigenvectors: with T the block's times and V
the eigenvector matrix, the classical rows are ``(exp(-T E) * q[j]) @ V^T``
and the coherent rows are the squared norms of the cosine and sine parts of
``(exp(-i T E) * q[j]) @ V^T``. Point probabilities, series, the
finite-time average and the revival scan all call it. The revival scan asks
for one target node: V^T shrinks to that node's eigenvector row, and each
block yields one column, the return probability pi_jj. A block holds at
most ``_BLOCK_ENTRIES`` phase entries (times x modes) and at most as many
result entries, so each of the kernel's temporaries stays near 1 MB
whatever the grid length. The one helper ``_stripes`` cuts both kinds of
bounded axis, times into blocks and rows of N x N products into stripes,
each against its own budget.

A ``Series`` holds no probabilities: its rows are propagated, checked and
handed out one whole block (``Series.blocks``) at a time as they are read, so
a reader holds about one block, and a row's bits do not depend on which
blocks are read. A failed check raises after the rows before its block were
handed out.

Point probabilities and series sum over every mode. The revival scan and
the finite-time average sum over the modes that reach the source j only
(``_source_modes``): the modes with the smallest weights q_n[j]^2 are
dropped while their sum D stays at most (N eps)^2, eps the machine epsilon.
By Cauchy-Schwarz every amplitude a_kj(t) then moves by at most
sqrt(D) <= N eps, and the return amplitude a_jj(t) by at most D, at any t;
so, up to rounding, the probabilities move by at most 2 N eps + (N eps)^2
and the return probability by at most 2 (N eps)^2 + (N eps)^4. The central node of
G=3 keeps 5 of 16 modes, that of G=7 65 of 1096. No sum runs over
degeneracy groups, so the series depend on no degeneracy tolerance and
carry no phase error from the spread inside a group.

Time is measured in units of the inverse hopping rate throughout.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .network import check_node
from .spectral import EigenspaceGrouping, NumericError, Spectrum

TransitionKind = Literal["classical", "quantum"]

#: Probability entries may undershoot zero by at most this much.
ENTRY_FLOOR = -1e-12
#: Probability entries may overshoot one by at most this much.
ENTRY_CEIL = 1.0 + 1e-12
#: A distribution's entries must sum to one within this tolerance.
SUM_TOL = 1e-10

#: Phase or result entries per time block: bounds the kernel's temporaries;
#: the block length follows from the wider of the mode count and the result
#: width. Over all N modes, a block at G=3 (N=16) is 8192 times; at G=7 it
#: is 119 times, which multiply as fast as larger blocks. Blocks of 2**20
#: entries ran no faster and raised peak memory at G=3 by 30-40 MB.
_BLOCK_ENTRIES = 2**17


#: Eigenspaces with at most this many modes enter chi as pair columns of one
#: batched product; larger ones are squared one at a time. At G=7 (N=1096)
#: this takes 145 of the 160 eigenspaces (353 pair columns). Measured at G=7
#: on one BLAS thread (best of 3): 0.33 s at a threshold of 1, 0.14 s at 2,
#: 0.08-0.09 s at 3, 4, 8 and 16 (within run-to-run noise of each other) and
#: 0.19 s at 40, against 0.74 s for squaring every projector separately.
_PAIR_MAX_DIM = 4

#: Entries (2 MB) per row stripe of the N x N products formed for chi, so
#: that none needs a second N x N array beside chi. Up to G=6 (N=367) one
#: stripe is the whole matrix and each product stays one BLAS call: splitting
#: a G=6 product changes its last bits (stripes of 2**17 entries move 1,226
#: chi entries by up to 3.3e-16). At G=7 a stripe is 239 rows; every split
#: tried there (64 to 256 rows) gave the bits of the single product, in the
#: time of the single product within run-to-run noise (one BLAS thread).
_STRIPE_ENTRIES = 2**18


def _stripes(count: int, width: int, entries: int) -> list[slice]:
    """Slices of ``count`` rows of ``width`` entries, each of at most ``entries`` entries.

    Every bounded axis is cut here: times into blocks of ``_BLOCK_ENTRIES``,
    the rows of N x N products into stripes of ``_STRIPE_ENTRIES`` and
    ``_CHECK_ENTRIES``. A slice holds at least one row. The budget has no
    default because a default binds when the function is defined: a patched
    module constant would not reach it.
    """
    rows = max(1, entries // width)
    return [slice(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


#: Entries (256 kB) per row stripe of the difference ``_asymmetry`` forms. Its
#: result is exact at any stripe. At ``_STRIPE_ENTRIES`` the 2 MB difference
#: stayed resident after the check, and the G=7 ``limit -o``, whose chi CSV is
#: written after it, peaked 1.4 MiB higher (61.4 against 60.0 MiB).
_CHECK_ENTRIES = 2**15


def _asymmetry(m: np.ndarray) -> float:
    """max |m - m^T| over a square matrix, one row stripe at a time."""
    worst = 0.0
    for rows in _stripes(len(m), len(m), _CHECK_ENTRIES):
        d = m[rows] - m[:, rows].T
        worst = max(worst, float(np.abs(d, out=d).max()))
    return worst


def _check_rows(times: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows``, one distribution per time, made read-only.

    Raises:
        NumericError: at the first time whose row leaves [ENTRY_FLOOR,
            ENTRY_CEIL] or does not sum to 1 within ``SUM_TOL``.
    """
    # Negated comparisons: a NaN entry fails every one of them.
    in_range = (rows.min(axis=1) >= ENTRY_FLOOR) & (rows.max(axis=1) <= ENTRY_CEIL)
    bad = np.flatnonzero(~(in_range & (np.abs(rows.sum(axis=1) - 1.0) <= SUM_TOL)))
    if bad.size:
        t, values = float(times[bad[0]]), rows[bad[0]]
        if not in_range[bad[0]]:
            raise NumericError(
                f"snapshot entries escape [0, 1] beyond tolerance at "
                f"t={t} (min {values.min():.3e}, max {values.max():.3e})"
            )
        raise NumericError(
            f"snapshot does not sum to 1 within {SUM_TOL:g} at t={t}: sum={float(values.sum())!r}"
        )
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class LimitingMatrix:
    """Long-time averaged transition probabilities, entry [k-1, j-1]."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.asarray(self.entries, dtype=float)
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        # min and max propagate NaN, so they see every non-finite entry
        # without an N x N temporary.
        low, high = entries.min(), entries.max()
        if not (np.isfinite(low) and np.isfinite(high)):
            raise NumericError("limiting matrix has a non-finite entry")
        if not _asymmetry(entries) <= 1e-12:
            raise NumericError("limiting matrix is not symmetric")
        if not low >= 0.0:
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
        check_node(j, self.order)
        return self.entries[:, j - 1]

    def value(self, k: int, j: int) -> float:
        check_node(k, self.order)
        check_node(j, self.order)
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
            # np.geomspace's values, with the exponents turned into times in
            # place: a long grid never holds twice its size.
            t = np.linspace(np.log10(self.start), np.log10(self.end), self.steps)
            np.power(10.0, t, out=t)
            t[0], t[-1] = self.start, self.end
            return t
        return np.linspace(self.start, self.end, self.steps)


@np.errstate(over="ignore", invalid="ignore")
def _propagate(
    s: Spectrum,
    j: int,
    times: np.ndarray,
    kind: TransitionKind,
    target: int | None = None,
    modes: np.ndarray | None = None,
) -> np.ndarray:
    """Distributions from node j, one row per time: a (len(times) x N) array.

    With a ``target`` node, only that node's probability is formed: the
    result is one (len(times) x 1) column. With ``modes`` (ascending mode
    indices, from ``_source_modes``) the sums run over those modes only;
    without, over all N. Each block of times is two real GEMMs at most; the
    coherent rows are |cos part|^2 + |sin part|^2 of the amplitudes. Beside
    the result, a block holds at most two temporaries of its size.

    ``s`` is a connected graph's Laplacian: its one zero eigenvalue is its
    smallest, and the classical kernel takes it as exactly 0 (as computed it
    is a few 1e-15 off, and exp(-t E_0) drifts from 1 from t = 1e5 on).

    Near the largest doubles t E_n overflows to inf, silently: exp(-inf) = 0
    is the classical limit, and the coherent rows turn NaN, which
    ``_check_rows`` refuses.
    """
    e, v = s.eigenvalues, s.eigenvectors
    if kind == "classical":
        e = np.concatenate(([0.0], e[1:]))
    if modes is not None:
        e, v = e[modes], v[:, modes]
    w = v[j - 1, :]
    vt = v.T
    if target is not None:
        vt = vt[:, target - 1 : target]
    out = np.empty((len(times), vt.shape[1]))
    for block in _stripes(len(times), max(vt.shape), _BLOCK_ENTRIES):
        arg = np.outer(times[block], e)
        rows = out[block]
        if kind == "classical":
            np.exp(np.negative(arg, out=arg), out=arg)
            arg *= w
            np.matmul(arg, vt, out=rows)
        else:
            phase = np.cos(arg)
            phase *= w
            np.matmul(phase, vt, out=rows)
            del phase
            np.sin(arg, out=arg)
            arg *= w
            im = arg @ vt
            rows *= rows
            im *= im
            rows += im
    return out


def _source_modes(s: Spectrum, j: int) -> np.ndarray:
    """Ascending indices of the modes that reach node j.

    The modes of smallest weight q_n[j]^2 are dropped while the dropped
    weights sum to at most (N eps)^2, so every amplitude from j moves by at
    most N eps and the return amplitude by at most (N eps)^2 (module
    docstring).
    """
    check_node(j, s.order)
    weights = s.eigenvectors[j - 1] ** 2
    order = np.argsort(weights, kind="stable")
    floor = (s.order * np.finfo(float).eps) ** 2
    dropped = np.count_nonzero(np.cumsum(weights[order]) <= floor)
    return np.sort(order[dropped:])


def classical_probability(s: Spectrum, j: int, t: float) -> np.ndarray:
    """Continuous-time random-walk distribution from node j at time t >= 0, read-only."""
    return next(iter(evolve_series(s, j, "classical", TimeGrid(t, t, 1))))


def quantum_probability(s: Spectrum, j: int, t: float) -> np.ndarray:
    """Coherent-walk distribution |a_kj(t)|^2 from node j at time t >= 0, read-only."""
    return next(iter(evolve_series(s, j, "quantum", TimeGrid(t, t, 1))))


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


def limiting_matrix(s: Spectrum, grouping: EigenspaceGrouping) -> LimitingMatrix:
    """Long-time averages for every source/target pair at once.

    Small eigenspaces share one product of pair columns; each larger one is
    squared one row stripe at a time (see the module docstring).
    """
    _check_grouping(s, grouping)
    v = s.eigenvectors
    small = [g for g in grouping.groups if g[1] - g[0] <= _PAIR_MAX_DIM]
    large = [g for g in grouping.groups if g[1] - g[0] > _PAIR_MAX_DIM]
    index = [(a, b) for start, stop in small
             for a in range(start, stop) for b in range(a, stop)]
    a, b = np.array(index, dtype=int).reshape(-1, 2).T
    pairs = v[:, a]
    pairs *= v[:, b]
    pairs[:, a != b] *= math.sqrt(2.0)
    chi = pairs @ pairs.T
    del pairs
    stripes = _stripes(s.order, s.order, _STRIPE_ENTRIES)
    buffer = np.empty((stripes[0].stop, s.order))
    for start, stop in large:
        block = v[:, start:stop]
        for rows in stripes:
            k = rows.stop - rows.start
            np.matmul(block[rows], block.T, out=buffer[:k])
            buffer[:k] *= buffer[:k]
            chi[rows] += buffer[:k]
    # No view of buffer is bound, so this frees it before LimitingMatrix's checks.
    del buffer
    return LimitingMatrix(entries=chi)


@dataclass(frozen=True)
class Series:
    """Distributions from ``source``, row i at ``times[i]``, propagated as they are read."""

    spectrum: Spectrum
    source: int
    kind: TransitionKind
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[np.ndarray]:
        for rows in self.blocks():
            yield from self.block(rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.spectrum.order

    def blocks(self) -> list[slice]:
        """The slices of rows that ``block`` propagates and checks at once."""
        return _stripes(len(self), self.spectrum.order, _BLOCK_ENTRIES)

    def block(self, rows: slice) -> np.ndarray:
        """The rows of one of ``blocks()``, propagated and checked, as a read-only 2-D array."""
        times = self.times[rows]
        return _check_rows(times, _propagate(self.spectrum, self.source, times, self.kind))


def evolve_series(s: Spectrum, j: int, kind: TransitionKind, grid: TimeGrid) -> Series:
    """The series from node j over the grid; kind and node are checked before any row is read."""
    if kind not in ("classical", "quantum"):
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    check_node(j, s.order)
    return Series(spectrum=s, source=j, kind=kind, times=grid.times())


def max_return_probability(
    s: Spectrum, j: int, window: TimeGrid
) -> tuple[float, float]:
    """Grid time and value maximizing the return probability pi_jj.

    The window must start strictly after t = 0 (the trivial maximum). The
    search is a dense scan; the grid resolution is the caller's to report.
    The earliest of equal maxima wins. The sum runs over the modes that reach
    j (``_source_modes``): up to rounding, each value is within
    2 (N eps)^2 + (N eps)^4 of the sum over all N modes, eps the machine
    epsilon.
    """
    if not window.start > 0:
        raise ValueError("revival search window must exclude t = 0")
    modes = _source_modes(s, j)
    times = window.times()
    probs = _propagate(s, j, times, "quantum", target=j, modes=modes)[:, 0]
    i = int(np.argmax(probs))
    return float(times[i]), float(probs[i])


def default_revival_window() -> TimeGrid:
    """Dense linear window used for partial-revival searches: 100,000 times in [0.1, 200]."""
    return TimeGrid(start=0.1, end=200.0, steps=100_000, spacing="linear")


def finite_time_average(s: Spectrum, j: int, horizon: float) -> np.ndarray:
    """Trapezoidal average of the coherent distribution over [0, horizon].

    The grid has about 25 times per period of the fastest oscillation, and at
    least 1000. This is a consistency check only: the limiting probabilities
    are defined by their infinite-horizon spectral form, never by this
    average. The sum runs over the modes that reach j (``_source_modes``), so
    up to rounding each entry is within 2 N eps + (N eps)^2 of the sum over
    all N modes, eps the machine epsilon; it reads no degeneracy grouping.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    fastest = float(s.eigenvalues[-1] - s.eigenvalues[0])
    samples = max(1000, int(horizon * max(fastest, 1.0) * 4))
    times = np.linspace(0.0, horizon, samples)
    weights = np.ones(samples)
    weights[[0, -1]] = 0.5
    modes = _source_modes(s, j)
    acc = np.zeros(s.order)
    for block in _stripes(samples, s.order, _BLOCK_ENTRIES):
        acc += weights[block] @ _propagate(s, j, times[block], "quantum", modes=modes)
    return acc / (samples - 1)
