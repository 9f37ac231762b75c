import json
from types import SimpleNamespace

import numpy as np
import pytest

from apwalks import serialize
from apwalks.dynamics import LimitingMatrix, TimeGrid, TransitionSnapshot, evolve_series
from apwalks.network import orbits
from apwalks.spectral import Spectrum
from apwalks.symmetry import cluster_equal_limits, orbit_consistency


def test_format_float_round_trips():
    rng = np.random.default_rng(5)
    for x in rng.uniform(-1.0, 1.0, size=200):
        assert float(serialize.format_float(float(x))) == float(x)


def test_format_probability_clamps_tiny_negatives():
    assert serialize.format_probability(-5e-13) == "0"
    assert serialize.format_probability(-0.0) == "0"
    assert serialize.format_probability(0.0) == "0"
    # outside the clamp band values pass through untouched
    assert float(serialize.format_probability(-2e-12)) == -2e-12
    # the plain formatter never clamps magnitudes, only normalizes zero
    assert float(serialize.format_float(-5e-13)) == -5e-13
    assert serialize.format_float(0.0) == "0"


def test_edge_list_round_trip(pipe):
    net = pipe.net(3)
    text = serialize.network_to_edge_list(net)
    assert text.startswith("apollonian g=3 n=16\n")
    assert text.count("\n") == 1 + 42
    assert [tuple(map(int, ln.split())) for ln in text.splitlines()[1:]] == list(net.edges)


def test_network_json_round_trip(pipe):
    net = pipe.net(2)
    doc = json.loads(serialize.network_to_json(net))
    assert doc["generation"] == 2
    assert doc["edges"] == [list(e) for e in net.edges]
    assert [(n["id"], n["gen"], n["parent"]) for n in doc["nodes"]] == [
        (1, 0, None), (2, 0, None), (3, 0, None), (4, 1, [1, 2, 3]),
        (5, 2, [1, 2, 4]), (6, 2, [1, 3, 4]), (7, 2, [2, 3, 4]),
    ]


def test_spectrum_csv_round_trip(pipe):
    s = pipe.spectrum(2)
    text = "".join(serialize.spectrum_to_csv(s))
    assert text.splitlines()[0] == "index,eigenvalue"
    parsed = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], np.arange(1, 8))
    assert np.array_equal(parsed[:, 1], s.eigenvalues)


def test_eigenvector_csv_round_trip(pipe):
    s = pipe.spectrum(2)
    text = "".join(serialize.eigenvectors_to_csv(s))
    parsed = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 0], np.arange(1, 8))
    assert np.array_equal(parsed[:, 1:], s.eigenvectors)


def test_series_csv_round_trip_long_and_wide(pipe):
    series = evolve_series(pipe.spectrum(2), 4, "quantum", TimeGrid(0.0, 5.0, 7))
    long_text = "".join(serialize.series_to_csv(series, wide=False))
    wide_text = "".join(serialize.series_to_csv(series, wide=True))
    # Long rows are (t, k, p), one block of 7 nodes per time.
    long = np.loadtxt(long_text.splitlines(), delimiter=",", skiprows=1).reshape(7, 7, 3)
    wide = np.loadtxt(wide_text.splitlines(), delimiter=",", skiprows=1)
    assert np.array_equal(long[:, :, 1], np.tile(np.arange(1, 8), (7, 1)))
    assert np.array_equal(long[:, 0, 0], wide[:, 0])
    assert np.array_equal(long[:, :, 2], wide[:, 1:])
    expected = np.array([snap.values for snap in series])
    assert np.array_equal(wide[:, 1:], expected)


def test_series_json_round_trip(pipe):
    series = evolve_series(pipe.spectrum(1), 2, "classical", TimeGrid(0.0, 2.0, 5))
    doc = json.loads("".join(serialize.series_to_json(series)))
    assert doc["source"] == 2 and doc["kind"] == "classical"
    probs = np.array([snap["p"] for snap in doc["snapshots"]])
    times = np.array([snap["t"] for snap in doc["snapshots"]])
    assert np.array_equal(probs, np.array([s.values for s in series]))
    assert np.array_equal(times, np.array([s.time for s in series]))


def test_series_csv_rejects_empty_series_when_called():
    # Before any chunk is read, so a bad call never opens an output file.
    with pytest.raises(ValueError):
        serialize.series_to_csv([])


def test_limiting_matrix_csv_round_trip(pipe):
    chi = pipe.chi(2)
    text = "".join(serialize.limiting_matrix_to_csv(chi))
    assert text.splitlines()[0] == "j,k,chi"
    # Rows are (j, k, chi[k, j]), source-major.
    parsed = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)[:, 2].reshape(7, 7).T
    assert np.array_equal(parsed, chi.entries)


def test_limiting_matrix_json_round_trip(pipe):
    chi = pipe.chi(1)
    doc = json.loads("".join(serialize.limiting_matrix_to_json(chi)))
    assert np.array_equal(np.array(doc["entries"]), chi.entries)


def test_cluster_report_schema(pipe):
    net = pipe.net(3)
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 4)
    partition = orbits(net, fixed_source=4)
    consistency = orbit_consistency(clustering, partition)
    doc = json.loads(serialize.cluster_report_to_json(clustering, consistency))
    assert doc["source"] == 4
    assert doc["tol"] == 1e-9
    assert sorted(len(c["nodes"]) for c in doc["clusters"]) == [1, 3, 3, 3, 6]
    assert doc["unexplained_pairs"] == []
    values = [c["value"] for c in doc["clusters"]]
    assert values == sorted(values)


def test_writers_are_deterministic(pipe):
    net = pipe.net(3)
    s = pipe.spectrum(3)
    chi = pipe.chi(3)
    series = evolve_series(s, 4, "quantum", TimeGrid(0.01, 10.0, 20, "logarithmic"))
    assert serialize.network_to_edge_list(net) == serialize.network_to_edge_list(net)
    assert "".join(serialize.spectrum_to_csv(s)) == "".join(serialize.spectrum_to_csv(s))
    assert "".join(serialize.series_to_csv(series)) == "".join(serialize.series_to_csv(series))
    assert "".join(serialize.limiting_matrix_to_csv(chi)) == "".join(serialize.limiting_matrix_to_csv(chi))


# -- row formatter against the per-value formatters -----------------------------

ADVERSARIAL = [0.0, -0.0, -1e-12, -5e-13, 5e-324, 2.2250738585072014e-308,
               1.0 - 2.0**-53, 1.0 / 3.0]


def reference_series_csv(snapshots, wide):
    """Per-value writer: one format_probability call per entry."""
    n = len(snapshots[0].values)
    lines = []
    if wide:
        lines.append("t," + ",".join(f"p_{k}" for k in range(1, n + 1)))
        for snap in snapshots:
            row = ",".join(serialize.format_probability(v) for v in snap.values)
            lines.append(f"{serialize.format_float(snap.time)},{row}")
    else:
        lines.append("t,k,probability")
        for snap in snapshots:
            t = serialize.format_float(snap.time)
            for k in range(1, n + 1):
                lines.append(f"{t},{k},{serialize.format_probability(snap.values[k - 1])}")
    return "\n".join(lines) + "\n"


def reference_chi_csv(chi):
    lines = ["j,k,chi"]
    for j in range(1, chi.order + 1):
        for k in range(1, chi.order + 1):
            lines.append(f"{j},{k},{serialize.format_probability(chi.value(k, j))}")
    return "\n".join(lines) + "\n"


def reference_eigenvectors_csv(s):
    lines = ["node," + ",".join(f"q_{m}" for m in range(1, s.order + 1))]
    for k in range(s.order):
        row = ",".join(serialize.format_float(v) for v in s.eigenvectors[k, :])
        lines.append(f"{k + 1},{row}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("probability", [False, True])
@pytest.mark.parametrize("long", [False, True])
def test_row_formatter_matches_per_value_formatters(long, probability):
    rng = np.random.default_rng(11)
    extra = [-2e-12, -1.0 / 3.0, 1e300, -1e-300, np.nan, np.inf, -np.inf]
    values = np.concatenate([
        ADVERSARIAL, extra, rng.uniform(-1.0, 1.0, 25),
        rng.uniform(0.0, 1.0, 25) * 10.0 ** rng.integers(-300, 300, 25),
    ]).reshape(5, -1)
    labels = ["0", "1e-300", "a", "17", "0.33333333333333331"]
    n = values.shape[1]
    template = ("".join(f"%s,{k},%.17g\n" for k in range(1, n + 1)) if long
                else "%s" + ",%.17g" * n + "\n")
    text = "".join(serialize.Rows("", template, labels, values, probability, long=long))
    fmt = serialize.format_probability if probability else serialize.format_float
    if long:
        expected = [f"{lab},{k},{fmt(v)}" for lab, row in zip(labels, values)
                    for k, v in enumerate(row, start=1)]
    else:
        expected = [",".join([lab, *(fmt(v) for v in row)])
                    for lab, row in zip(labels, values)]
    assert text == "".join(f"{line}\n" for line in expected)


@pytest.mark.parametrize("wide", [False, True])
def test_series_csv_matches_per_value_writer(wide):
    rng = np.random.default_rng(12)
    random_row = rng.dirichlet(np.ones(len(ADVERSARIAL)))
    rows = [
        np.array(ADVERSARIAL[:-1] + [0.0]),  # sums to 1 - 2**-53 - 1.5e-12
        np.array([1.0 / 3.0] * 3 + [0.0] * (len(ADVERSARIAL) - 3)),
        random_row,
    ]
    snapshots = [
        TransitionSnapshot(source=1, time=t, kind="quantum", values=row)
        for t, row in zip((0.0, 1.0 / 3.0, 5e-324), rows)
    ]
    assert "".join(serialize.series_to_csv(snapshots, wide=wide)) == reference_series_csv(snapshots, wide)


def test_chi_csv_matches_per_value_writer(pipe):
    entries = np.zeros((6, 6))
    entries[:3, :3] = 1.0 / 3.0
    entries[3:5, 3:5] = [[1.0 - 2.0**-53, 2.0**-53], [2.0**-53, 1.0 - 2.0**-53]]
    entries[5, 5] = 1.0
    for (a, b), v in {(0, 3): -0.0, (0, 5): 5e-324, (1, 4): 2.2250738585072014e-308}.items():
        entries[a, b] = entries[b, a] = v
    for chi in (LimitingMatrix(entries=entries), pipe.chi(3)):
        assert "".join(serialize.limiting_matrix_to_csv(chi)) == reference_chi_csv(chi)


def test_eigenvector_csv_matches_per_value_writer(pipe):
    rng = np.random.default_rng(13)
    q = np.concatenate([ADVERSARIAL, [-2e-12, -1.0], rng.normal(size=90)]).reshape(10, 10)
    for s in (Spectrum(eigenvalues=np.arange(10.0), eigenvectors=q), pipe.spectrum(3)):
        assert "".join(serialize.eigenvectors_to_csv(s)) == reference_eigenvectors_csv(s)


# -- streamed JSON writers against json.dumps ----------------------------------

def reference_series_json(snapshots):
    doc = {
        "source": snapshots[0].source,
        "kind": snapshots[0].kind,
        "snapshots": [
            {
                "t": float(serialize.format_float(s.time)),
                "p": [float(serialize.format_probability(v)) for v in s.values],
            }
            for s in snapshots
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_chi_json(chi):
    doc = {
        "order": chi.order,
        "entries": [
            [float(serialize.format_probability(v)) for v in row] for row in chi.entries
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_series_json_matches_json_dumps(pipe):
    series = evolve_series(pipe.spectrum(4), 4, "quantum", TimeGrid(0.5, 5.0, 6))
    snapshots = []
    for snap, t in zip(series, (-0.0, 0.0, 1e-300, 1.0 / 3.0, 2.0, 5.0)):
        values = snap.values.copy()
        for k, v in ((0, -0.0), (1, -1e-12), (2, -5e-13), (3, 5e-324)):
            values[41] += values[k] - v
            values[k] = v
        snapshots.append(TransitionSnapshot(source=4, time=t, kind="quantum", values=values))
    chunks = list(serialize.series_to_json(snapshots))
    assert len(chunks) == len(snapshots) + 2
    assert "".join(chunks) == reference_series_json(snapshots)


def test_chi_json_matches_json_dumps(pipe):
    entries = pipe.chi(4).entries.copy()
    for a, b in ((0, 5), (7, 30), (12, 41)):
        # Move the pair's weight onto the diagonal: symmetric, same column sums.
        entries[a, a] += entries[b, a]
        entries[b, b] += entries[a, b]
        entries[a, b] = entries[b, a] = -0.0
    chi = LimitingMatrix(entries=entries)
    banded = entries.copy()
    banded[1, 2] = banded[2, 1] = -1e-12
    banded[3, 4] = -5e-13
    # LimitingMatrix rejects negative entries; the writer reads only these two fields.
    for matrix in (chi, pipe.chi(4), SimpleNamespace(order=43, entries=banded)):
        chunks = list(serialize.limiting_matrix_to_json(matrix))
        assert len(chunks) == matrix.order + 2
        assert "".join(chunks) == reference_chi_json(matrix)


def reference_spectrum_json(s):
    doc = {"order": s.order,
           "eigenvalues": [float(serialize.format_float(v)) for v in s.eigenvalues]}
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("g", range(0, 5))
def test_spectrum_json_matches_json_dumps(pipe, g):
    s = pipe.spectrum(g)
    edges = np.array([-0.0, -1e-15, 5e-324, 1.0 / 3.0, *s.eigenvalues[4:]])
    for spectrum in (s, Spectrum(eigenvalues=edges, eigenvectors=np.eye(len(edges)))):
        chunks = list(serialize.spectrum_to_json(spectrum))
        assert len(chunks) == spectrum.order + 2
        assert "".join(chunks) == reference_spectrum_json(spectrum)
