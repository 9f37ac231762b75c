"""Text formats for networks, spectra, series, and cluster reports.

Every writer has a matching parser, and identical inputs produce
byte-identical text: floats are rendered with 17 significant digits and
probability entries in [-1e-12, 0) are clamped to 0 on output only.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import LimitingMatrix, TransitionSnapshot
from .network import Network, NodeInfo, generate_apollonian
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


def _format_rows(
    labels: list[str], values: np.ndarray, *, long: bool, probability: bool
) -> str:
    """CSV body for a 2-D array, one ``"%"`` operation per row.

    Wide layout: one line ``label,v_1,...,v_n`` per row. Long layout: one line
    ``label,k,v_k`` per entry, row-major. Every value prints exactly as
    ``format_probability`` (``probability=True``) or ``format_float`` would
    print it: ``"%.17g"`` matches them except that it keeps the sign of
    ``-0.0``, so zero and, for probabilities, the clamp band become ``0.0``
    before formatting.
    """
    values = np.asarray(values, dtype=float)
    zero = (values >= -1e-12) & (values <= 0.0) if probability else values == 0.0
    values = np.where(zero, 0.0, values)
    n = values.shape[1]
    lines = []
    if long:
        template = "\n".join(f"%s,{k},%.17g" for k in range(1, n + 1))
        args: list = [None] * (2 * n)
        for label, row in zip(labels, values):
            args[0::2] = [label] * n
            args[1::2] = row.tolist()
            lines.append(template % tuple(args))
    else:
        template = "%s" + ",%.17g" * n
        for label, row in zip(labels, values):
            lines.append(template % (label, *row.tolist()))
    return "\n".join(lines)


def _node_labels(n: int) -> list[str]:
    return [str(k) for k in range(1, n + 1)]


# -- network ---------------------------------------------------------------

def network_to_edge_list(net: Network) -> str:
    lines = [f"apollonian g={net.generation} n={net.node_count}"]
    lines.extend(f"{i} {j}" for i, j in net.edges)
    return "\n".join(lines) + "\n"


def network_from_edge_list(text: str) -> Network:
    """Rebuild a network from its edge-list text.

    The header's generation regenerates the canonical network, which must
    match the listed edges exactly.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("apollonian "):
        raise ValueError("missing 'apollonian g=<G> n=<N>' header")
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:])
    try:
        generation, n = int(fields["g"]), int(fields["n"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"malformed edge-list header: {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        i, j = ln.split()
        edges.append((int(i), int(j)))
    net = generate_apollonian(generation)
    if net.node_count != n or net.edges != tuple(edges):
        raise ValueError("edge list does not match the canonical network")
    return net


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


def network_from_json(text: str) -> Network:
    doc = json.loads(text)
    net = Network(
        generation=doc["generation"],
        node_count=len(doc["nodes"]),
        edges=tuple(tuple(e) for e in doc["edges"]),
        node_meta=tuple(
            NodeInfo(n["gen"], tuple(n["parent"]) if n["parent"] else None)
            for n in doc["nodes"]
        ),
        central_node=4 if doc["generation"] >= 1 else None,
    )
    reference = generate_apollonian(net.generation)
    if net != reference:
        raise ValueError("JSON document does not match the canonical network")
    return net


# -- spectrum ----------------------------------------------------------------

def spectrum_to_csv(s: Spectrum) -> str:
    lines = ["index,eigenvalue"]
    lines.extend(
        f"{i},{format_float(v)}" for i, v in enumerate(s.eigenvalues, start=1)
    )
    return "\n".join(lines) + "\n"


def eigenvalues_from_csv(text: str) -> np.ndarray:
    lines = text.splitlines()
    if not lines or lines[0] != "index,eigenvalue":
        raise ValueError("missing 'index,eigenvalue' header")
    return np.array([float(ln.split(",")[1]) for ln in lines[1:] if ln])


def eigenvectors_to_csv(s: Spectrum) -> str:
    n = s.order
    header = "node," + ",".join(f"q_{m}" for m in range(1, n + 1))
    body = _format_rows(_node_labels(n), s.eigenvectors, long=False, probability=False)
    return f"{header}\n{body}\n"


def eigenvectors_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or not lines[0].startswith("node,"):
        raise ValueError("missing eigenvector header")
    return np.array(
        [[float(v) for v in ln.split(",")[1:]] for ln in lines[1:]]
    )


# -- probability series ------------------------------------------------------

def series_to_csv(snapshots: list[TransitionSnapshot], wide: bool = False) -> str:
    if not snapshots:
        raise ValueError("cannot serialize an empty series")
    n = len(snapshots[0].values)
    if wide:
        header = "t," + ",".join(f"p_{k}" for k in range(1, n + 1))
    else:
        header = "t,k,probability"
    labels = [format_float(snap.time) for snap in snapshots]
    values = np.array([snap.values for snap in snapshots])
    body = _format_rows(labels, values, long=not wide, probability=True)
    return f"{header}\n{body}\n"


def series_from_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse either series layout into (times, probabilities[t, node])."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty series file")
    header = lines[0]
    if header.startswith("t,p_1"):
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        data = np.array(rows)
        return data[:, 0], data[:, 1:]
    if header == "t,k,probability":
        times: list[float] = []
        probs: list[list[float]] = []
        for ln in lines[1:]:
            t_s, k_s, p_s = ln.split(",")
            t, k, p = float(t_s), int(k_s), float(p_s)
            if k == 1:
                times.append(t)
                probs.append([])
            probs[-1].append(p)
        return np.array(times), np.array(probs)
    raise ValueError(f"unrecognized series header: {header!r}")


def series_to_json(snapshots: list[TransitionSnapshot]) -> str:
    if not snapshots:
        raise ValueError("cannot serialize an empty series")
    doc = {
        "source": snapshots[0].source,
        "kind": snapshots[0].kind,
        "snapshots": [
            {
                "t": float(format_float(s.time)),
                "p": [float(format_probability(v)) for v in s.values],
            }
            for s in snapshots
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def series_from_json(text: str) -> tuple[int, str, np.ndarray, np.ndarray]:
    doc = json.loads(text)
    times = np.array([s["t"] for s in doc["snapshots"]])
    probs = np.array([s["p"] for s in doc["snapshots"]])
    return doc["source"], doc["kind"], times, probs


# -- limiting matrix ---------------------------------------------------------

def limiting_matrix_to_csv(chi: LimitingMatrix) -> str:
    # Source-major: the row for source j is column j of the matrix.
    body = _format_rows(
        _node_labels(chi.order), chi.entries.T, long=True, probability=True
    )
    return f"j,k,chi\n{body}\n"


def limiting_matrix_from_csv(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != "j,k,chi":
        raise ValueError("missing 'j,k,chi' header")
    triples = [ln.split(",") for ln in lines[1:]]
    n = max(int(j) for j, _, _ in triples)
    chi = np.zeros((n, n))
    for j_s, k_s, v_s in triples:
        chi[int(k_s) - 1, int(j_s) - 1] = float(v_s)
    return chi


def limiting_matrix_to_json(chi: LimitingMatrix) -> str:
    doc = {
        "order": chi.order,
        "entries": [
            [float(format_probability(v)) for v in row] for row in chi.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def limiting_matrix_from_json(text: str) -> np.ndarray:
    return np.array(json.loads(text)["entries"])


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


def cluster_report_from_json(text: str) -> dict:
    doc = json.loads(text)
    for key in ("source", "tol", "clusters", "unexplained_pairs"):
        if key not in doc:
            raise ValueError(f"cluster report is missing {key!r}")
    return doc
