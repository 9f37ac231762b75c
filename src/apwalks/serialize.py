"""Text formats for networks, spectra, series, and cluster reports.

Identical inputs produce byte-identical text: floats are rendered with 17
significant digits and probability entries in [``dynamics.ENTRY_FLOOR``, 0),
the band a snapshot tolerates below zero, are clamped to 0 on output only.
No command reads this text back; ``np.loadtxt`` (CSV) and ``json.loads``
(JSON) read it exactly.

Every text of many rows, the spectrum, eigenvector, series and limiting-matrix
CSV and the spectrum, series and limiting-matrix JSON, comes back as one
``Rows`` row source. Iterating it yields str chunks: the head, one chunk per
row, formatted only as it is read, and the tail, so a caller can write each
row as soon as it is formatted; the text is ``"".join`` of the chunks.
``Rows.rows(start, stop)`` yields the chunks of one row range alone, so two
processes can format disjoint ranges of one text; ``len`` is the number of
rows and ``len(values[0])`` the number of values in each row. The network and
cluster-report writers return the whole text.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import ENTRY_FLOOR, LimitingMatrix, TransitionSnapshot
from .network import Network
from .spectral import Spectrum
from .symmetry import CLUSTER_TOL, ChiClustering, OrbitConsistencyReport


def format_float(x: float) -> str:
    if x == 0.0:
        return "0"
    return f"{x:.17g}"


def format_probability(x: float) -> str:
    """Probability entries only: clamp the tolerated negative band to 0."""
    if ENTRY_FLOOR <= x < 0.0:
        x = 0.0
    return format_float(x)


def _zeroed(values, probability: bool) -> np.ndarray:
    """``values`` as floats with ``-0.0`` and, for probabilities, the clamp band set to ``0.0``."""
    values = np.asarray(values, dtype=float)
    zero = (values >= ENTRY_FLOOR) & (values <= 0.0) if probability else values == 0.0
    return np.where(zero, 0.0, values)


def _node_labels(n: int) -> list[str]:
    return [str(k) for k in range(1, n + 1)]


def _separated(labels: list[str]) -> list[str]:
    """``labels`` with the JSON ``",\\n"`` separator before all but the first."""
    return labels[:1] + [",\n" + label for label in labels[1:]]


@dataclass(frozen=True)
class Rows:
    """A text as ``head``, one chunk per row of ``values``, and ``tail``, formatted on demand.

    ``values`` is a 2-D array or a list of equal-length 1-D arrays, one per
    row. Chunk i is ``template % (labels[i], *row)``, where ``row`` is
    ``values[i]`` with zero and, for ``probability`` values, the clamp band
    set to ``0.0``: ``"%.17g"`` prints a value exactly as ``format_float`` or
    ``format_probability`` would except that it keeps the sign of ``-0.0``,
    and ``%r`` prints it as ``json`` does when it is finite. With ``long`` the
    template holds a ``%s`` slot before each value, and ``labels[i]`` fills
    every one of them.
    """

    head: str
    template: str
    labels: list[str]
    values: np.ndarray | list[np.ndarray]
    probability: bool
    tail: str = ""
    long: bool = False

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        yield self.head
        yield from self.rows(0, len(self))
        yield self.tail

    def rows(self, start: int, stop: int) -> Iterator[str]:
        """The chunks of rows ``start`` to ``stop - 1``, without the head or the tail."""
        n = len(self.values[0])
        args: list = [None] * (2 * n)
        for label, row in zip(self.labels[start:stop], self.values[start:stop]):
            zeroed = _zeroed(row, self.probability).tolist()
            if self.long:
                args[0::2] = [label] * n
                args[1::2] = zeroed
                yield self.template % tuple(args)
            else:
                yield self.template % (label, *zeroed)


def _json_list_template(n: int, indent: int) -> str:
    """``json.dumps(indent=2)`` layout of an n-float list at ``indent`` spaces, as ``%r`` slots."""
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

def spectrum_to_csv(s: Spectrum) -> Rows:
    """The ``index,eigenvalue`` CSV: the header, then one row per eigenvalue."""
    return Rows("index,eigenvalue\n", "%s,%.17g\n", _node_labels(s.order),
                s.eigenvalues[:, np.newaxis], probability=False)


def spectrum_to_json(s: Spectrum) -> Rows:
    """``{"order", "eigenvalues": [...]}``, one row per eigenvalue.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every eigenvalue printed as it reads back from ``format_float``.
    """
    return Rows(f'{{\n  "order": {s.order},\n  "eigenvalues": [\n', "%s    %r",
                _separated([""] * s.order), s.eigenvalues[:, np.newaxis], probability=False,
                tail="\n  ]\n}\n")


def eigenvectors_to_csv(s: Spectrum) -> Rows:
    """The ``node,q_1,...,q_N`` CSV: the header, then one row per node."""
    n = s.order
    header = "node," + ",".join(f"q_{m}" for m in range(1, n + 1)) + "\n"
    return Rows(header, "%s" + ",%.17g" * n + "\n", _node_labels(n), s.eigenvectors,
                probability=False)


# -- probability series ------------------------------------------------------

def _series_values(snapshots: list[TransitionSnapshot]) -> list[np.ndarray]:
    """The snapshots' values, one row per snapshot, without a copy.

    An empty series is refused here, when a writer is called, and not when its
    chunks are first read, so a bad call raises before any output is opened.
    """
    if not snapshots:
        raise ValueError("cannot serialize an empty series")
    return [snap.values for snap in snapshots]


def series_to_csv(
    snapshots: list[TransitionSnapshot], wide: bool = False
) -> Rows:
    """The series CSV: the header, then one row per snapshot.

    Wide layout: one line ``t,p_1,...,p_N`` per snapshot. Long layout: one
    line ``t,k,p_k`` per entry, snapshot-major.
    """
    values = _series_values(snapshots)
    n = len(values[0])
    labels = [format_float(snap.time) for snap in snapshots]
    if wide:
        header = "t," + ",".join(f"p_{k}" for k in range(1, n + 1)) + "\n"
        return Rows(header, "%s" + ",%.17g" * n + "\n", labels, values, probability=True)
    template = "".join(f"%s,{k},%.17g\n" for k in range(1, n + 1))
    return Rows("t,k,probability\n", template, labels, values, probability=True, long=True)


def series_to_json(snapshots: list[TransitionSnapshot]) -> Rows:
    """``{"source", "kind", "snapshots": [{"t", "p"}, ...]}``, one row per snapshot.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every value printed as it reads back from ``format_float`` (times) or
    ``format_probability`` (probabilities).
    """
    values = _series_values(snapshots)
    first = snapshots[0]
    head = (f'{{\n  "source": {first.source},\n  "kind": {json.dumps(first.kind)},\n'
            '  "snapshots": [\n')
    times = _zeroed([snap.time for snap in snapshots], probability=False).tolist()
    labels = _separated([f'    {{\n      "t": {t!r}' for t in times])
    template = '%s,\n      "p": ' + _json_list_template(len(values[0]), 6) + "\n    }"
    return Rows(head, template, labels, values, probability=True, tail="\n  ]\n}\n")


# -- limiting matrix ---------------------------------------------------------

def limiting_matrix_to_csv(chi: LimitingMatrix) -> Rows:
    """The ``j,k,chi`` CSV: the header, then one row of N lines per source j."""
    # Source-major: the row for source j is column j of the matrix.
    template = "".join(f"%s,{k},%.17g\n" for k in range(1, chi.order + 1))
    return Rows("j,k,chi\n", template, _node_labels(chi.order), chi.entries.T,
                probability=True, long=True)


def limiting_matrix_to_json(chi: LimitingMatrix) -> Rows:
    """``{"order", "entries": [[...], ...]}``, one row per matrix row.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every entry printed as it reads back from ``format_probability``.
    """
    return Rows(f'{{\n  "order": {chi.order},\n  "entries": [\n',
                "%s    " + _json_list_template(chi.order, 4), _separated([""] * chi.order),
                chi.entries, probability=True, tail="\n  ]\n}\n")


# -- cluster / orbit reports --------------------------------------------------

def cluster_report_to_json(
    clustering: ChiClustering, consistency: OrbitConsistencyReport
) -> str:
    doc = {
        "source": clustering.source,
        "tol": CLUSTER_TOL,
        "clusters": [
            {"value": float(format_probability(value)), "nodes": list(nodes)}
            for value, nodes in zip(clustering.values, clustering.clusters)
        ],
        "unexplained_pairs": [list(p) for p in consistency.unexplained_pairs],
    }
    return json.dumps(doc, indent=2) + "\n"
