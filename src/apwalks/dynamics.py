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

Series, point probabilities, the revival scan and the finite-time average
sum over the eigenspaces g that reach the source j instead (Mulken & Blumen,
Phys. Rep. 502, 37 (2011)):

    p_kj(t) = sum_g exp(-t theta_g) W[k, g]      pi_kj(t) = |sum_g exp(-i t theta_g) W[k, g]|^2

with W = W_j (``SourceProjections``), column g = P_g e_j = sum_{n in g} q_n q_n[j],
and theta_g the mean eigenvalue of the group. So they depend on the
grouping, with two bounded departures from the sums over modes:

- **Dropped eigenspaces.** Those of smallest weight W[j, g] = ||P_g e_j||^2
  are dropped while their sum D stays at most (N eps)^2, eps the machine
  epsilon. By Cauchy-Schwarz every amplitude a_kj(t) then moves by at most
  sqrt(D) <= N eps, and the return amplitude a_jj(t) by at most D, at any t;
  so, up to rounding, the probabilities move by at most 2 N eps + (N eps)^2
  and the return probability by at most 2 (N eps)^2 + (N eps)^4. The central
  node of G=3 keeps 5 of 10 eigenspaces, that of G=7 65 of 160.
- **Phase.** Rounding spreads the computed eigenvalues of one eigenspace; a
  sum over modes gives mode n the phase t E_n, this one t theta_g. With
  ``spread`` the largest |E_n - theta_g|, each phase differs by at most
  t spread, so an amplitude by at most t spread (sum_n |q_n[k] q_n[j]| <= 1)
  and a probability by at most 2 t spread + (t spread)^2. At G=7 (N=1096)
  the spread is 4.3e-14, in a two-mode eigenspace near E = 97, so the bound
  is 8.5e-12 at t = 100. Measured over 2000 times in [0.01, 100], the
  coherent rows from sources 4, 64 and 77 move by 1.3e-15, 6.3e-14 and
  1.8e-13, and from the corner 1 by 1.6e-12; the classical ones by under
  2e-14. Neither sum is the exact one: against a 34-digit eigensolve at G=5,
  from node 1 at t = 90, the sum over modes is 5.3e-13 off and this one
  3.6e-13.

One kernel, ``_propagate``, evaluates them for a whole block of times as
phase-matrix products on W: with T the block's times, the classical rows are
``exp(-T theta) @ W^T`` and the coherent rows are the squared norms of the
cosine and sine parts of ``exp(-i T theta) @ W^T``. The revival scan passes
row j of W alone, the return column, and each block yields one column, the
return probability pi_jj. A block holds at most ``_BLOCK_ENTRIES`` phase
entries (times x eigenspaces) and at most as many result entries, so each of
the kernel's temporaries stays near 1 MB whatever the grid length. The one
helper ``_stripes`` cuts both kinds of bounded axis, times into blocks and
rows of N x N products into stripes, each against its own budget.

A ``Series`` holds W_j and no probabilities: its rows are propagated, checked
and handed out one whole block (``Series.blocks``) at a time as they are
read, so a reader holds about one block, and a row's bits do not depend on
which blocks are read. A failed check raises after the rows before its block
were handed out.

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
#: the block length follows from the wider of the eigenspace count and the
#: result width. For rows of N entries a block at G=3 (N=16) is 8192 times; at
#: G=7 it is 119 times, which multiply as fast as larger blocks. Blocks of 2**20
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


#: Entries (256 kB) per row stripe of the difference ``_asymmetry`` forms and
#: of the factor ``_pair_columns`` multiplies by; both results are exact at any
#: stripe. At ``_STRIPE_ENTRIES`` the 2 MB difference stayed resident after the
#: check, and the G=7 ``limit -o``, whose chi CSV is written after it, peaked
#: 1.4 MiB higher (61.4 against 60.0 MiB).
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


@dataclass(frozen=True)
class SourceProjections:
    """W_j: node j split over the eigenspaces that reach it.

    Column g of ``weights`` (N x support) is P_g e_j, the projection of the
    unit vector on j onto eigenspace g, and ``theta[g]`` is that eigenspace's
    value: the mean of its eigenvalues, and exactly 0 for the ground
    eigenspace. Row j of ``weights`` is the return column W[j, g] =
    ||P_g e_j||^2. Built by ``source_projections``.
    """

    source: int
    theta: np.ndarray
    weights: np.ndarray

    @property
    def order(self) -> int:
        return self.weights.shape[0]


def source_projections(s: Spectrum, grouping: EigenspaceGrouping, j: int) -> SourceProjections:
    """W_j of node j from the spectrum and its degeneracy grouping.

    The eigenspaces of smallest W[j, g] are dropped while their sum stays at
    most (N eps)^2, eps the machine epsilon (module docstring). The central
    node of G=3 keeps 5 of 10 eigenspaces, that of G=7 65 of 160.

    ``s`` is a connected graph's Laplacian: its first eigenspace is the
    ground, of the one zero eigenvalue, whose value is taken as exactly 0 (as
    computed it is a few 1e-15 off, and exp(-t E_0) drifts from 1 from
    t = 1e5 on).

    Raises:
        ValueError: if the grouping does not match the spectrum, or j is not
            a node.
    """
    _check_grouping(s, grouping)
    check_node(j, s.order)
    v, row = s.eigenvectors, s.eigenvectors[j - 1]
    groups = grouping.groups
    reach = np.array([row[start:stop] @ row[start:stop] for start, stop in groups])
    order = np.argsort(reach, kind="stable")
    floor = (s.order * np.finfo(float).eps) ** 2
    kept = np.sort(order[np.count_nonzero(np.cumsum(reach[order]) <= floor):])
    weights = np.empty((s.order, len(kept)))
    for column, g in enumerate(kept.tolist()):
        start, stop = groups[g]
        weights[:, column] = v[:, start:stop] @ row[start:stop]
    theta = np.add.reduceat(s.eigenvalues, [start for start, _ in groups]) / grouping.sizes
    theta[0] = 0.0
    theta = theta[kept]
    theta.flags.writeable = False
    weights.flags.writeable = False
    return SourceProjections(source=j, theta=theta, weights=weights)


@np.errstate(over="ignore", invalid="ignore")
def _propagate(theta: np.ndarray, weights: np.ndarray, times: np.ndarray,
               kind: TransitionKind) -> np.ndarray:
    """Rows over the columns of ``weights``, one per time: a (len(times) x len(weights)) array.

    ``weights`` is W_j, or some of its rows (the return column is row j
    alone), and ``theta`` the values of its columns. The classical rows are
    ``exp(-T theta) @ W^T``, the coherent ones |cos part|^2 + |sin part|^2 of
    ``exp(-i T theta) @ W^T``, for each block of times T: two real GEMMs at
    most. Beside the result, a block holds at most two temporaries of its size.

    Near the largest doubles t theta overflows to inf, silently: exp(-inf) = 0
    is the classical limit, and the coherent rows turn NaN, which
    ``_check_rows`` refuses.
    """
    wt = weights.T
    out = np.empty((len(times), len(weights)))
    for block in _stripes(len(times), max(weights.shape), _BLOCK_ENTRIES):
        arg = np.outer(times[block], theta)
        rows = out[block]
        if kind == "classical":
            np.exp(np.negative(arg, out=arg), out=arg)
            np.matmul(arg, wt, out=rows)
        else:
            phase = np.cos(arg)
            np.matmul(phase, wt, out=rows)
            del phase
            np.sin(arg, out=arg)
            im = arg @ wt
            rows *= rows
            im *= im
            rows += im
    return out


def classical_probability(p: SourceProjections, t: float) -> np.ndarray:
    """Continuous-time random-walk distribution from ``p.source`` at time t >= 0, read-only."""
    return next(iter(evolve_series(p, "classical", TimeGrid(t, t, 1))))


def quantum_probability(p: SourceProjections, t: float) -> np.ndarray:
    """Coherent-walk distribution |a_kj(t)|^2 from j = ``p.source`` at time t >= 0, read-only."""
    return next(iter(evolve_series(p, "quantum", TimeGrid(t, t, 1))))


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


def _pair_columns(v: np.ndarray, small: list[tuple[int, int]]) -> np.ndarray:
    """The N x K pair columns q_a o q_b of the eigenspaces ``small``, off-diagonal ones x sqrt(2).

    Formed in their own array: v[:, b] one row stripe at a time, and the
    sqrt(2) as a weight row (x * 1.0 is x), so no second array of their size.
    """
    index = [(a, b) for start, stop in small for a in range(start, stop) for b in range(a, stop)]
    a, b = np.array(index, dtype=int).reshape(-1, 2).T
    pairs = v[:, a]
    for rows in _stripes(len(v), max(len(a), 1), _CHECK_ENTRIES):
        pairs[rows] *= v[rows, b]
    pairs *= np.where(a != b, math.sqrt(2.0), 1.0)
    return pairs


def limiting_matrix(s: Spectrum, grouping: EigenspaceGrouping) -> LimitingMatrix:
    """Long-time averages for every source/target pair at once.

    Small eigenspaces share one product of pair columns; each larger one is
    squared one row stripe at a time (see the module docstring).
    """
    _check_grouping(s, grouping)
    v = s.eigenvectors
    large = [g for g in grouping.groups if g[1] - g[0] > _PAIR_MAX_DIM]
    pairs = _pair_columns(v, [g for g in grouping.groups if g[1] - g[0] <= _PAIR_MAX_DIM])
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

    projections: SourceProjections
    kind: TransitionKind
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[np.ndarray]:
        for rows in self.blocks():
            yield from self.block(rows)

    @property
    def source(self) -> int:
        return self.projections.source

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.projections.order

    def blocks(self) -> list[slice]:
        """The slices of rows that ``block`` propagates and checks at once."""
        return _stripes(len(self), self.projections.order, _BLOCK_ENTRIES)

    def block(self, rows: slice) -> np.ndarray:
        """The rows of one of ``blocks()``, propagated and checked, as a read-only 2-D array."""
        times, p = self.times[rows], self.projections
        return _check_rows(times, _propagate(p.theta, p.weights, times, self.kind))


def evolve_series(p: SourceProjections, kind: TransitionKind, grid: TimeGrid) -> Series:
    """The series from ``p.source`` over the grid; the kind is checked before any row is read."""
    if kind not in ("classical", "quantum"):
        raise ValueError(f"kind must be 'classical' or 'quantum', got {kind!r}")
    return Series(projections=p, kind=kind, times=grid.times())


def max_return_probability(p: SourceProjections, window: TimeGrid) -> tuple[float, float]:
    """Grid time and value maximizing the return probability pi_jj, j = ``p.source``.

    The window must start strictly after t = 0 (the trivial maximum). The
    search is a dense scan; the grid resolution is the caller's to report.
    The earliest of equal maxima wins. Each value is the kernel's on the
    return column alone, row j of W_j.
    """
    if not window.start > 0:
        raise ValueError("revival search window must exclude t = 0")
    times = window.times()
    j = p.source
    probs = _propagate(p.theta, p.weights[j - 1 : j], times, "quantum")[:, 0]
    i = int(np.argmax(probs))
    return float(times[i]), float(probs[i])


def default_revival_window() -> TimeGrid:
    """Dense linear window used for partial-revival searches: 100,000 times in [0.1, 200]."""
    return TimeGrid(start=0.1, end=200.0, steps=100_000, spacing="linear")


def finite_time_average(p: SourceProjections, horizon: float) -> np.ndarray:
    """Trapezoidal average of the coherent distribution from ``p.source`` over [0, horizon].

    The grid has about 25 times per period of the fastest oscillation, the
    widest spread of the eigenspace values that reach the source, and at
    least 1000. This is a consistency check only: the limiting probabilities
    are defined by their infinite-horizon spectral form, never by this
    average.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    fastest = float(p.theta[-1] - p.theta[0])
    samples = max(1000, int(horizon * max(fastest, 1.0) * 4))
    times = np.linspace(0.0, horizon, samples)
    weights = np.ones(samples)
    weights[[0, -1]] = 0.5
    acc = np.zeros(p.order)
    for block in _stripes(samples, p.order, _BLOCK_ENTRIES):
        acc += weights[block] @ _propagate(p.theta, p.weights, times[block], "quantum")
    return acc / (samples - 1)
