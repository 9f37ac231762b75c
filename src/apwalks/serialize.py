"""Text formats for networks, spectra, series, and cluster reports.

Identical inputs produce byte-identical text: floats are rendered with 17
significant digits and probability entries in [-1e-12, 0) are clamped to 0
on output only. No command reads this text back; ``np.loadtxt`` (CSV) and
``json.loads`` (JSON) read it exactly.

The CSV writers for eigenvectors, series and the limiting matrix return a
``CsvRows`` row source. Iterating it yields str chunks, the header and then
one chunk per row, formatted only as they are read, so a caller can write
each row as soon as it is formatted; the text is ``"".join`` of the chunks.
``CsvRows.rows(start, stop)`` yields the chunks of one row range alone, so
two processes can format disjoint ranges of one text; ``len`` is the number
of rows and ``values.size`` the number of values in the body. The JSON
writers for series and the limiting matrix also yield one chunk per row; the
other writers return the whole text.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import LimitingMatrix, TransitionSnapshot
from .network import Network
from .spectral import Spectrum
from .symmetry import ChiClustering, OrbitConsistencyReport


def format_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def format_probability(x: float) -> str:
    """Probability entries only: clamp the tolerated negative band to 0."""
    if -1e-12 <= x < 0.0:
        x = 0.0
    return format_float(x)


def _zeroed(values, probability: bool) -> np.ndarray:
    """``values`` as floats with ``-0.0`` and, for probabilities, the clamp band set to ``0.0``."""
    values = np.asarray(values, dtype=float)
    zero = (values >= -1e-12) & (values <= 0.0) if probability else values == 0.0
    return np.where(zero, 0.0, values)


def _format_rows(
    labels: list[str], values: np.ndarray, *, long: bool, probability: bool
) -> Iterator[str]:
    """CSV lines for a 2-D array, one ``"%"`` operation and one chunk per row.

    Wide layout: one line ``label,v_1,...,v_n`` per row. Long layout: one line
    ``label,k,v_k`` per entry, row-major. Every line ends in ``"\\n"``. Every
    value prints exactly as ``format_probability`` (``probability=True``) or
    ``format_float`` would print it: ``"%.17g"`` matches them except that it
    keeps the sign of ``-0.0``, so zero and, for probabilities, the clamp band
    become ``0.0`` before formatting, one row at a time.
    """
    n = values.shape[1]
    if long:
        template = "".join(f"%s,{k},%.17g\n" for k in range(1, n + 1))
        args: list = [None] * (2 * n)
        for label, row in zip(labels, values):
            args[0::2] = [label] * n
            args[1::2] = _zeroed(row, probability).tolist()
            yield template % tuple(args)
    else:
        template = "%s" + ",%.17g" * n + "\n"
        for label, row in zip(labels, values):
            yield template % (label, *_zeroed(row, probability).tolist())


def _node_labels(n: int) -> list[str]:
    return [str(k) for k in range(1, n + 1)]


@dataclass(frozen=True)
class CsvRows:
    """A CSV text as its header and the rows of ``values``, formatted on demand.

    Iterating yields the header and then one chunk per row, in order. Row i
    is ``labels[i]`` and ``values[i]`` in the ``_format_rows`` layout.
    """

    header: str
    labels: list[str]
    values: np.ndarray
    long: bool
    probability: bool

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        yield self.header
        yield from self.rows(0, len(self))

    def rows(self, start: int, stop: int) -> Iterator[str]:
        """The chunks of rows ``start`` to ``stop - 1``, without the header."""
        return _format_rows(self.labels[start:stop], self.values[start:stop],
                            long=self.long, probability=self.probability)


def _json_chunks(head: str, items: Iterable[str], tail: str) -> Iterator[str]:
    """``head``, then each item with a ``",\\n"`` before all but the first, then ``tail``."""
    yield head
    separator = ""
    for item in items:
        yield separator + item
        separator = ",\n"
    yield tail


def _json_list_template(n: int, indent: int) -> str:
    """``json.dumps(indent=2)`` layout of an n-float list at ``indent`` spaces, as ``%r`` slots.

    ``%r`` prints a float exactly as ``json`` does when it is finite.
    """
    inner = " " * (indent + 2)
    return "[\n" + ",\n".join([inner + "%r"] * n) + "\n" + " " * indent + "]"


# -- network ---------------------------------------------------------------

def network_to_edge_list(net: Network) -> str:
    lines = [f"apollonian g={net.generation} n={net.node_count}"]
    lines.extend(f"{i} {j}" for i, j in net.edges)
    return "\n".join(lines) + "\n"


def network_to_json(net: Network) -> str:
    doc = {
        "generation": net.generation,
        "nodes": [
            {
                "id": node,
                "gen": info.gen,
                "parent": list(info.parent) if info.parent else None,
            }
            for node, info in enumerate(net.node_meta, start=1)
        ],
        "edges": [list(e) for e in net.edges],
    }
    return json.dumps(doc, indent=2) + "\n"


# -- spectrum ----------------------------------------------------------------

def spectrum_to_csv(s: Spectrum) -> str:
    lines = ["index,eigenvalue"]
    lines.extend(
        f"{i},{format_float(v)}" for i, v in enumerate(s.eigenvalues, start=1)
    )
    return "\n".join(lines) + "\n"


def eigenvectors_to_csv(s: Spectrum) -> CsvRows:
    """The ``node,q_1,...,q_N`` CSV: the header, then one row per node."""
    n = s.order
    header = "node," + ",".join(f"q_{m}" for m in range(1, n + 1)) + "\n"
    return CsvRows(header, _node_labels(n), s.eigenvectors, long=False, probability=False)


# -- probability series ------------------------------------------------------

def series_to_csv(
    snapshots: list[TransitionSnapshot], wide: bool = False
) -> CsvRows:
    """The series CSV: the header, then one row per snapshot.

    The input is checked here, when the function is called, and not when the
    chunks are first read, so a bad call raises before any output is opened.
    """
    if not snapshots:
        raise ValueError("cannot serialize an empty series")
    n = len(snapshots[0].values)
    if wide:
        header = "t," + ",".join(f"p_{k}" for k in range(1, n + 1)) + "\n"
    else:
        header = "t,k,probability\n"
    labels = [format_float(snap.time) for snap in snapshots]
    values = np.array([snap.values for snap in snapshots])
    return CsvRows(header, labels, values, long=not wide, probability=True)


def series_to_json(snapshots: list[TransitionSnapshot]) -> Iterator[str]:
    """Chunks of ``{"source", "kind", "snapshots": [{"t", "p"}, ...]}``, one per snapshot.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every value printed as it reads back from ``format_float`` (times) or
    ``format_probability`` (probabilities). The input is checked when the
    function is called, as in ``series_to_csv``.
    """
    if not snapshots:
        raise ValueError("cannot serialize an empty series")
    first = snapshots[0]
    head = (f'{{\n  "source": {first.source},\n  "kind": {json.dumps(first.kind)},\n'
            '  "snapshots": [\n')
    item = ('    {\n      "t": %r,\n      "p": '
            + _json_list_template(len(first.values), 6) + "\n    }")
    times = _zeroed([snap.time for snap in snapshots], probability=False).tolist()
    items = (item % (t, *_zeroed(snap.values, probability=True).tolist())
             for t, snap in zip(times, snapshots))
    return _json_chunks(head, items, "\n  ]\n}\n")


# -- limiting matrix ---------------------------------------------------------

def limiting_matrix_to_csv(chi: LimitingMatrix) -> CsvRows:
    """The ``j,k,chi`` CSV: the header, then one row of N lines per source j."""
    # Source-major: the row for source j is column j of the matrix.
    return CsvRows("j,k,chi\n", _node_labels(chi.order), chi.entries.T,
                   long=True, probability=True)


def limiting_matrix_to_json(chi: LimitingMatrix) -> Iterator[str]:
    """Chunks of ``{"order", "entries": [[...], ...]}``, one per matrix row.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every entry printed as it reads back from ``format_probability``.
    """
    row = "    " + _json_list_template(chi.order, 4)
    items = (row % tuple(_zeroed(values, probability=True).tolist())
             for values in chi.entries)
    return _json_chunks(f'{{\n  "order": {chi.order},\n  "entries": [\n', items,
                        "\n  ]\n}\n")


# -- cluster / orbit reports --------------------------------------------------

def cluster_report_to_json(
    clustering: ChiClustering, consistency: OrbitConsistencyReport
) -> str:
    doc = {
        "source": clustering.source,
        "tol": clustering.tolerance,
        "clusters": [
            {"value": float(format_probability(value)), "nodes": list(nodes)}
            for value, nodes in zip(clustering.values, clustering.clusters)
        ],
        "unexplained_pairs": [list(p) for p in consistency.unexplained_pairs],
    }
    return json.dumps(doc, indent=2) + "\n"
