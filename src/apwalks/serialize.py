"""Text formats for networks, spectra, series, and cluster reports.

Identical inputs produce byte-identical text: floats are rendered with 17
significant digits and probability entries in [``dynamics.ENTRY_FLOOR``, 0),
the band a distribution may undershoot zero by, are clamped to 0 on output only.
No command reads this text back; ``np.loadtxt`` (CSV) and ``json.loads``
(JSON) read it exactly.

Every text of many rows, the spectrum, eigenvector, series and limiting-matrix
CSV and the spectrum, series and limiting-matrix JSON, comes back as one
``Rows`` row source. Iterating it yields str chunks: the head, the body, formatted
only as it is read, and the tail, so a caller can write each chunk as soon as
it is formatted; the text is ``"".join`` of the chunks. A body is a list of
parts, ``Rows.parts()``: the blocks of a series (``dynamics.Series.blocks``),
or an array of at most one series block of values (``dynamics._BLOCK_ENTRIES``)
as one part, and a larger one as format blocks of whole rows, one at least
(``_format_values``). ``Rows.rows(parts)`` yields the chunks of some of
them alone, so two processes can format disjoint parts of one text. A CSV body
comes in one chunk per format block, all formatted at once by an exact
vectorized ``%.17g`` kernel (``_format17``); a JSON body comes in one chunk
per row. Row labels (node numbers, times, JSON separators) are built for one
such block at a time, and a series' rows are propagated and checked one part
at a time as they are read, so a writer holds neither a series nor a label
per row, and a part that fails its check raises after the rows before it
were written. The network and cluster-report writers return the whole text.
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import dynamics
from .dynamics import ENTRY_FLOOR, LimitingMatrix, Series, _stripes
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


def _node_labels(rows: slice) -> list[str]:
    """The 1-based node numbers of ``rows``."""
    return [str(k) for k in range(rows.start + 1, rows.stop + 1)]


def _json_separators(rows: slice) -> list[str]:
    """The JSON ``",\\n"`` separator before each row of ``rows`` but row 0."""
    return [",\n" if k else "" for k in range(rows.start, rows.stop)]


#: Values formatted at once by ``_format17`` for rows of up to 362 values:
#: bounds the byte matrix of a CSV chunk and the kernel's temporaries, about
#: 0.2 kB a value together. A wider row of w values takes w**2 // 256
#: (``_format_values``), so a block costs the same share of an N x N matrix at
#: every N. Blocks are whole rows, at least one. Measured on the G=7 chi CSV
#: (one process): 183 ns a value at one row a block, 159 at two rows, 139 at
#: four and 125 at eight, against 567 for one ``%`` per value; each block pays
#: a fixed cost of some 60 numpy calls. The G=6 chi CSV (367 values a row) must
#: stay within 0.25 N x N (``tests/test_memory.py``): two rows a block peak at
#: 0.15, and 0.23 on a first call, which builds the tables; one row, its
#: block here, peaks at 0.11, and 0.19. At G=7 a block is 4 rows (4,384
#: values), and the chi CSV peaks at 0.08 N x N.
_FORMAT_VALUES = 512


def _format_values(width: int) -> int:
    """Values per ``_format17`` block for rows of ``width`` values (``_FORMAT_VALUES``)."""
    return max(_FORMAT_VALUES, width**2 // 256)


#: Dekker's splitting constant, 2**27 + 1: ``_two_product`` cuts a double
#: into two halves of at most 26 significant bits, whose products are exact.
_SPLITTER = 134217729.0


def _two_product(x, y, y_hi, y_lo) -> tuple[np.ndarray, np.ndarray]:
    """``(p, e)`` with ``p = fl(x * y)`` and ``p + e == x * y`` exactly (Dekker).

    ``y_hi + y_lo`` is ``y`` split as ``x`` is split here; the in-place
    steps keep the order of ``((x_hi y_hi - p) + x_hi y_lo + x_lo y_hi) + x_lo y_lo``.
    """
    x_hi = x * _SPLITTER
    x_hi -= x_hi - x
    x_lo = x - x_hi
    p = x * y
    e = x_hi * y_hi
    e -= p
    x_hi *= y_lo
    e += x_hi
    x_hi = np.multiply(x_lo, y_hi, out=x_hi)
    e += x_hi
    x_lo *= y_lo
    e += x_lo
    return p, e


@lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, ...]:
    """The kernel's constants, built at first use: 0.08 MB that no other command needs.

    Powers 10**0..10**22 (all exact doubles) with their Dekker halves; 4-digit
    chunks as uint32 words, first in full, then with trailing zeros as NUL
    (the last chunk of a number); by exponent E + 28 for E = -28..0, the
    ``e-05``..``e-28`` word and the layout; and the 8-byte lead of a number
    by (layout, sign, first digit, bare): the sign, the ``0.`` and zeros of an
    exponent -1..-4, or the point after the first digit unless no nonzero
    digit follows it.
    """
    powers = np.array([float(10**k) for k in range(23)])
    hi = powers * _SPLITTER
    hi -= hi - powers
    chunks = np.arange(10_000, dtype=np.int16)
    digits = np.empty((2, 10_000, 4), dtype=np.uint8)
    for j in range(4):
        digits[:, :, j] = chunks // 10 ** (3 - j) % 10 + 48
        digits[1, :, j] *= chunks % 10 ** (4 - j) != 0  # a nonzero digit from here on
    exponents = range(-28, 1)
    suffixes = "".join(f"e-{-x:02d}" if x < -4 else "\0" * 4 for x in exponents)
    # Layouts: 0, exponent 0; 1-4, exponent -1..-4; 5, e-notation.
    layouts = np.array([min(max(-x, 0), 5) * 40 for x in exponents])
    leads = []
    for layout in range(6):
        for sign in ("", "-"):
            for digit in "0123456789":
                for bare in (False, True):
                    if 1 <= layout <= 4:
                        leads.append((sign + "0." + "0" * (layout - 1) + digit).rjust(8, "\0"))
                    else:
                        leads.append((sign + digit).rjust(7, "\0") + ("\0" if bare else "."))
    words = lambda text, dtype: np.frombuffer(text.encode(), dtype=dtype)
    return (powers, hi, powers - hi, digits.view(np.uint32).reshape(-1),
            words(suffixes, np.uint32), layouts, words("".join(leads), np.uint64))


def _rounded(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(n, w, inexact)``: ``a * 10**k == n + w``, ``n`` an int64 and |w| <= 1/2 + 2**-50.

    ``w`` is exact except at the indices ``inexact``, those with k > 22,
    where it is within 2**-52 of the exact remainder. The product is an
    exact sum of Dekker two-products: ``a * 10**k`` for k <= 22, where
    ``10**k`` is a double; else ``(a * 10**22) * 10**(k - 22)``, both
    terms scaled. Where ``a * 10**k`` is at least 2**53, the leading term is
    an even integer, so ``n + w`` rounds half to even as ``rint`` does.
    """
    powers, powers_hi, powers_lo = _tables()[:3]
    k1 = np.minimum(k, 22)
    p, e = _two_product(a, powers[k1], powers_hi[k1], powers_lo[k1])
    inexact = (k > 22).nonzero()[0]
    if inexact.size:
        k2 = k[inexact] - 22
        scale = powers[k2], powers_hi[k2], powers_lo[k2]
        p2, e2 = _two_product(p[inexact], *scale)
        p3, e3 = _two_product(e[inexact], *scale)
        s = e2 + p3  # two-sum: s + t == e2 + p3 exactly
        v = s - e2
        t = (e2 - (s - v)) + (p3 - v) + e3
        q = np.rint(s)
        deep = p2.astype(np.int64) + q.astype(np.int64), (s - q) + t
    q = np.rint(e)
    n = p.astype(np.int64)
    n += q.astype(np.int64)
    e -= q
    if inexact.size:
        n[inexact], e[inexact] = deep
    return n, e, inexact


def _format17(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``"%.17g" % v`` of each value of the 1-D float array ``x`` into a row of ``out``.

    ``out`` is a (len(x), 32) uint8 array, each row contiguous (a strided view
    will do): row i holds the text with NUL bytes in and around it, to be
    removed. The text is exact by construction, byte for byte. A value with
    10**-28 <= |v| < 10 gets one guess of its decimal exponent E, from
    ``log10``, and one rounding: |v| * 10**(16 - E), an exact sum of
    two-products (``_rounded``), rounds half to even to the 17-digit integer
    N, whose digits come from 4-digit chunks of a table, trailing zeros
    stripped. As ``%g`` does, the value is printed in e-notation if E < -4.
    Every other value has one exit, ``%`` itself: zero, values outside the
    range, non-finite ones, a guess that puts N outside [10**16, 10**17)
    (``log10`` one off, near a power of ten), a rounding that carries to
    10**17, and any rounding the inexact remainder cannot decide (within
    2**-40 of a tie or of 10**16 or 10**17).
    """
    digit_words, suffix_words, layouts, lead_words = _tables()[3:]
    a = np.abs(x)
    # fl(1e-28) is below 10**-28, so the range starts at the double after it.
    exact = (a > 1e-28) & (a < 10.0)
    a[~exact] = 1.0
    # A guess below -28 is one off, and so 10**44 the largest power used.
    e = np.maximum(np.floor(np.log10(a)), -28).astype(np.int64)
    n, w, inexact = _rounded(a, 16 - e)
    fallback = ~exact | ((n - 10**16) + w < 0) | ((n - 10**17) + w >= 0)
    if inexact.size:
        wi, ni = np.abs(w[inexact]), n[inexact]
        fallback[inexact] |= ((np.abs(wi - 0.5) < 2.0**-40)
                              | ((wi < 2.0**-40) & ((ni == 10**16) | (ni == 10**17))))
    n += w > 0.5
    n -= w < -0.5
    fallback |= n == 10**17  # 99999999999999999.5 and up round to 10**17
    lead = n // 10**16
    n -= lead * 10**16
    high8 = n // 10**8
    n -= high8 * 10**8
    c0, c2 = high8 // 10_000, n // 10_000
    chunks = (c0, high8 - c0 * 10_000, c2, n - c2 * 10_000)
    words = out.view(np.uint32)
    bare = np.ones(len(x), dtype=bool)  # no nonzero digit after this chunk
    for j in (3, 2, 1, 0):
        digit_words.take(chunks[j] + 10_000 * bare, out=words[:, 2 + j], mode="clip")
        bare &= chunks[j] == 0
    e += 28
    suffix_words.take(e, out=words[:, 6], mode="clip")
    words[:, 7] = 0
    key = layouts.take(e, mode="clip")
    key += np.signbit(x) * 20
    key += lead * 2
    key += bare
    lead_words.take(key, out=out.view(np.uint64)[:, 0], mode="clip")
    for i in fallback.nonzero()[0]:
        text = ("%.17g" % x[i]).encode()
        out[i] = 0
        out[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)


def _fields(texts: list[str]) -> np.ndarray:
    """``texts`` as the rows of a NUL-padded uint8 matrix as wide as the longest."""
    width = max(map(len, texts), default=0)
    padded = np.array([t.encode() for t in texts], dtype=f"S{max(width, 1)}")
    return padded.view(np.uint8).reshape(len(texts), -1)[:, :width]


class _Slots:
    """A template of ``%s`` and ``%.17g`` slots as byte fields around each value.

    Value i of a row is printed after ``head[i] + label + post[i]`` (the
    label only where the template's text before the value has a ``%s``), and
    the last value is followed by the template's ``tail``. Each field has one
    width, padded with NUL bytes, which ``format`` removes.
    """

    def __init__(self, template: str) -> None:
        *texts, tail = template.split("%.17g")
        parts = [text.split("%s") for text in texts]  # no text has two, nor the tail one
        self.head = _fields([p[0] for p in parts])
        self.post = _fields([p[1] if len(p) == 2 else "" for p in parts])
        labelled = np.array([len(p) == 2 for p in parts])
        self.labelled = slice(None) if labelled.all() else labelled.nonzero()[0]
        self.tail = _fields([tail])

    def format(self, labels: list[str], values: np.ndarray) -> str:
        """The text of ``values`` (rows x slots, zeroed) with row i labelled ``labels[i]``."""
        label = _fields(labels)
        head, post = self.head.shape[1], self.head.shape[1] + label.shape[1]
        value = post + self.post.shape[1]
        rows, slots = values.shape
        text = np.zeros((rows, slots, value + 32 + self.tail.shape[1]), dtype=np.uint8)
        text[:, :, :head] = self.head
        text[:, self.labelled, head:post] = label[:, np.newaxis]
        text[:, :, post:post + self.post.shape[1]] = self.post
        _format17(values.reshape(-1), text[:, :, value:value + 32].reshape(-1, 32))
        text[:, -1, value + 32:] = self.tail
        return text.tobytes().translate(None, b"\0").decode("ascii")


@dataclass(frozen=True)
class Rows:
    """A text as ``head``, the rows of ``values``, and ``tail``, formatted on demand.

    ``values`` is a 2-D array or a ``Series``; ``labels(rows)`` gives the
    labels of a slice of rows, one each. Row i is ``template`` with its label
    written into every ``%s`` slot, one (the wide layouts) or one before each
    value (the long ones), then ``% tuple(row)``, where
    ``row`` is ``values[i]`` with zero and, for ``probability`` values, the
    clamp band set to ``0.0``: ``"%.17g"`` prints a value exactly as
    ``format_float`` or ``format_probability`` would except that it keeps the
    sign of ``-0.0``, and ``%r`` prints it as ``json`` does when it is finite.
    A ``%.17g`` template (the CSV layouts) is formatted a block of rows at a
    time by ``_format17``, one chunk per block; a ``%r`` one (JSON) one chunk
    per row. Labels are node numbers, times and JSON separators built here
    for one such block of rows at a time, and hold no ``%`` and no NUL.
    """

    head: str
    template: str
    labels: Callable[[slice], list[str]]
    values: np.ndarray | Series
    probability: bool
    tail: str = ""

    def __iter__(self) -> Iterator[str]:
        yield self.head
        yield from self.rows(self.parts())
        yield self.tail

    def parts(self) -> list[slice]:
        """The body's parts in order: a series' blocks, or an array's format blocks
        (``_format_values``), one part if it holds at most one series block of values."""
        if isinstance(self.values, Series):
            return self.values.blocks()
        size, width = self.values.size, self.values.shape[1]
        return _stripes(len(self.values), width,
                        size if size <= dynamics._BLOCK_ENTRIES else _format_values(width))

    def rows(self, parts: list[slice]) -> Iterator[str]:
        """The chunks of the rows of ``parts`` (of ``parts()``), without the head or the tail."""
        slots = None if "%r" in self.template else _Slots(self.template)
        for part in parts:
            block = (self.values.block(part) if isinstance(self.values, Series)
                     else self.values[part])
            for rows in _stripes(len(block), block.shape[1], _format_values(block.shape[1])):
                labels = self.labels(slice(part.start + rows.start, part.start + rows.stop))
                values = _zeroed(block[rows], self.probability)
                if slots is None:
                    yield from (self.template.replace("%s", label) % tuple(row)
                                for label, row in zip(labels, values.tolist()))
                else:
                    yield slots.format(labels, values)
            del block  # freed before the next series block is propagated


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
    return Rows("index,eigenvalue\n", "%s,%.17g\n", _node_labels,
                s.eigenvalues[:, np.newaxis], probability=False)


def spectrum_to_json(s: Spectrum) -> Rows:
    """``{"order", "eigenvalues": [...]}``, one row per eigenvalue.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every eigenvalue printed as it reads back from ``format_float``.
    """
    return Rows(f'{{\n  "order": {s.order},\n  "eigenvalues": [\n', "%s    %r",
                _json_separators, s.eigenvalues[:, np.newaxis], probability=False,
                tail="\n  ]\n}\n")


def eigenvectors_to_csv(s: Spectrum) -> Rows:
    """The ``node,q_1,...,q_N`` CSV: the header, then one row per node."""
    n = s.order
    header = "node," + ",".join(f"q_{m}" for m in range(1, n + 1)) + "\n"
    return Rows(header, "%s" + ",%.17g" * n + "\n", _node_labels, s.eigenvectors,
                probability=False)


# -- probability series ------------------------------------------------------

def series_to_csv(series: Series, wide: bool = False) -> Rows:
    """The series CSV: the header, then one row per time.

    Wide layout: one line ``t,p_1,...,p_N`` per time. Long layout: one line
    ``t,k,p_k`` per entry, time-major.
    """
    n = series.shape[1]
    labels = lambda rows: [format_float(t) for t in series.times[rows].tolist()]
    if wide:
        header = "t," + ",".join(f"p_{k}" for k in range(1, n + 1)) + "\n"
        return Rows(header, "%s" + ",%.17g" * n + "\n", labels, series, probability=True)
    template = "".join(f"%s,{k},%.17g\n" for k in range(1, n + 1))
    return Rows("t,k,probability\n", template, labels, series, probability=True)


def series_to_json(series: Series) -> Rows:
    """``{"source", "kind", "snapshots": [{"t", "p"}, ...]}``, one row per time.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every value printed as it reads back from ``format_float`` (times) or
    ``format_probability`` (probabilities).
    """
    head = (f'{{\n  "source": {series.source},\n  "kind": {json.dumps(series.kind)},\n'
            '  "snapshots": [\n')

    def labels(rows: slice) -> list[str]:
        times = _zeroed(series.times[rows], probability=False).tolist()
        return [sep + f'    {{\n      "t": {t!r}' for sep, t in zip(_json_separators(rows), times)]

    template = '%s,\n      "p": ' + _json_list_template(series.shape[1], 6) + "\n    }"
    return Rows(head, template, labels, series, probability=True, tail="\n  ]\n}\n")


# -- limiting matrix ---------------------------------------------------------

def limiting_matrix_to_csv(chi: LimitingMatrix) -> Rows:
    """The ``j,k,chi`` CSV: the header, then one row of N lines per source j."""
    # Source-major: the row for source j is column j of the matrix.
    template = "".join(f"%s,{k},%.17g\n" for k in range(1, chi.order + 1))
    return Rows("j,k,chi\n", template, _node_labels, chi.entries.T,
                probability=True)


def limiting_matrix_to_json(chi: LimitingMatrix) -> Rows:
    """``{"order", "entries": [[...], ...]}``, one row per matrix row.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\\n"`` with
    every entry printed as it reads back from ``format_probability``.
    """
    return Rows(f'{{\n  "order": {chi.order},\n  "entries": [\n',
                "%s    " + _json_list_template(chi.order, 4), _json_separators,
                chi.entries, probability=True, tail="\n  ]\n}\n")


# -- cluster / orbit reports --------------------------------------------------

def cluster_report_to_json(
    clustering: ChiClustering, consistency: OrbitConsistencyReport
) -> str:
    doc = {
        "source": clustering.source,
        "tol": CLUSTER_TOL,
        "clusters": [
            {"value": value, "nodes": list(nodes)}
            for value, nodes in zip(clustering.values, clustering.clusters)
        ],
        "unexplained_pairs": [list(p) for p in consistency.unexplained_pairs],
    }
    return json.dumps(doc, indent=2) + "\n"
