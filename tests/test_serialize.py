import json
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from apwalks import dynamics, serialize
from apwalks.dynamics import LimitingMatrix, Series, SourceProjections, TimeGrid, evolve_series
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
    series = evolve_series(pipe.projections(2, 4), "quantum", TimeGrid(0.0, 5.0, 7))
    long_text = "".join(serialize.series_to_csv(series, wide=False))
    wide_text = "".join(serialize.series_to_csv(series, wide=True))
    # Long rows are (t, k, p), one block of 7 nodes per time.
    long = np.loadtxt(long_text.splitlines(), delimiter=",", skiprows=1).reshape(7, 7, 3)
    wide = np.loadtxt(wide_text.splitlines(), delimiter=",", skiprows=1)
    assert np.array_equal(long[:, :, 1], np.tile(np.arange(1, 8), (7, 1)))
    assert np.array_equal(long[:, 0, 0], wide[:, 0])
    assert np.array_equal(long[:, :, 2], wide[:, 1:])
    assert np.array_equal(wide[:, 1:], np.array(list(series)))


def test_series_json_round_trip(pipe):
    series = evolve_series(pipe.projections(1, 2), "classical", TimeGrid(0.0, 2.0, 5))
    doc = json.loads("".join(serialize.series_to_json(series)))
    assert doc["source"] == 2 and doc["kind"] == "classical"
    probs = np.array([snap["p"] for snap in doc["snapshots"]])
    times = np.array([snap["t"] for snap in doc["snapshots"]])
    assert np.array_equal(probs, np.array(list(series)))
    assert np.array_equal(times, series.times)


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
    series = evolve_series(pipe.projections(3, 4), "quantum",
                           TimeGrid(0.01, 10.0, 20, "logarithmic"))
    assert serialize.network_to_edge_list(net) == serialize.network_to_edge_list(net)
    assert "".join(serialize.spectrum_to_csv(s)) == "".join(serialize.spectrum_to_csv(s))
    assert "".join(serialize.series_to_csv(series)) == "".join(serialize.series_to_csv(series))
    assert "".join(serialize.limiting_matrix_to_csv(chi)) == "".join(serialize.limiting_matrix_to_csv(chi))


# -- row formatter against the per-value formatters -----------------------------

ADVERSARIAL = [0.0, -0.0, -1e-12, -5e-13, 5e-324, 2.2250738585072014e-308,
               1.0 - 2.0**-53, 1.0 / 3.0]


@dataclass(frozen=True)
class GivenSeries(Series):
    """A series whose rows are the given ``values``, not propagated ones.

    They come in blocks of ``block_rows`` rows, or in one block.
    """

    values: np.ndarray | None = None
    block_rows: int = 0

    @property
    def shape(self):
        return self.values.shape

    def blocks(self):
        step = self.block_rows or len(self.values)
        return [slice(lo, lo + step) for lo in range(0, len(self.values), step)]

    def block(self, rows):
        return self.values[rows]


def given_series(source, times, values, block_rows=0):
    """A ``GivenSeries`` of quantum rows from ``source``; it reads no W_j."""
    return GivenSeries(SourceProjections(source, None, None), "quantum", times, values, block_rows)


def reference_series_csv(series, wide):
    """Per-value writer: one format_probability call per entry."""
    n = series.shape[1]
    lines = []
    if wide:
        lines.append("t," + ",".join(f"p_{k}" for k in range(1, n + 1)))
        for time, values in zip(series.times, series.values):
            row = ",".join(serialize.format_probability(v) for v in values)
            lines.append(f"{serialize.format_float(float(time))},{row}")
    else:
        lines.append("t,k,probability")
        for time, values in zip(series.times, series.values):
            t = serialize.format_float(float(time))
            for k in range(1, n + 1):
                lines.append(f"{t},{k},{serialize.format_probability(values[k - 1])}")
    return "\n".join(lines) + "\n"


def reference_chi_csv(chi):
    lines = ["j,k,chi"]
    for j in range(1, chi.order + 1):
        for k in range(1, chi.order + 1):
            lines.append(f"{j},{k},{serialize.format_probability(chi.entries[k - 1, j - 1])}")
    return "\n".join(lines) + "\n"


def reference_spectrum_csv(s):
    lines = ["index,eigenvalue"]
    lines += [f"{k},{serialize.format_float(v)}" for k, v in enumerate(s.eigenvalues, start=1)]
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
    text = "".join(serialize.Rows("", template, labels.__getitem__, values, probability))
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
    series = given_series(1, np.array([0.0, 1.0 / 3.0, 5e-324]), np.array(rows))
    assert "".join(serialize.series_to_csv(series, wide=wide)) == reference_series_csv(series, wide)


def test_chi_csv_matches_per_value_writer(pipe):
    entries = np.zeros((6, 6))
    entries[:3, :3] = 1.0 / 3.0
    entries[3:5, 3:5] = [[1.0 - 2.0**-53, 2.0**-53], [2.0**-53, 1.0 - 2.0**-53]]
    entries[5, 5] = 1.0
    for (a, b), v in {(0, 3): -0.0, (0, 5): 5e-324, (1, 4): 2.2250738585072014e-308}.items():
        entries[a, b] = entries[b, a] = v
    # At G=5 the 124 rows are 31 blocks of 4.
    for chi in (LimitingMatrix(entries=entries), pipe.chi(3), pipe.chi(5)):
        assert "".join(serialize.limiting_matrix_to_csv(chi)) == reference_chi_csv(chi)


def test_eigenvector_csv_matches_per_value_writer(pipe):
    rng = np.random.default_rng(13)
    q = np.concatenate([ADVERSARIAL, [-2e-12, -1.0], rng.normal(size=90)]).reshape(10, 10)
    for s in (Spectrum(eigenvalues=np.arange(10.0), eigenvectors=q), pipe.spectrum(3),
              pipe.spectrum(5)):
        assert "".join(serialize.eigenvectors_to_csv(s)) == reference_eigenvectors_csv(s)


#: Values the kernel leaves to ``%`` and the clamp band, for the first and
#: last value of each row: next to a block edge when a block holds a row.
EDGES = [(np.nan, np.inf), (1e300, -5e-13), (5e-324, 1e-300), (-1e-12, 0.0),
         (-0.0, -np.inf), (2.2250738585072014e-308, 1e17)]


@pytest.mark.parametrize("budget", [1, 13, 20, 512])
@pytest.mark.parametrize("writer", ["spectrum", "eigenvectors", "long", "wide", "chi"])
def test_csv_writers_match_per_value_writers_across_block_edges(monkeypatch, writer, budget):
    # Six values a row: a budget of 1 is one row a block, 13 two rows, 20 three.
    monkeypatch.setattr(serialize, "_FORMAT_VALUES", budget)
    values = np.random.default_rng(15).uniform(0.0, 1.0, (6, 6))
    values[:, [0, -1]] = EDGES
    if writer == "spectrum":
        s = Spectrum(eigenvalues=values.ravel(), eigenvectors=np.eye(36))
        assert "".join(serialize.spectrum_to_csv(s)) == reference_spectrum_csv(s)
    elif writer == "eigenvectors":
        s = Spectrum(eigenvalues=np.arange(6.0), eigenvectors=values)
        assert "".join(serialize.eigenvectors_to_csv(s)) == reference_eigenvectors_csv(s)
    elif writer == "chi":
        chi = SimpleNamespace(order=6, entries=values)
        assert "".join(serialize.limiting_matrix_to_csv(chi)) == reference_chi_csv(chi)
    else:
        # Series blocks of four rows, each formatted in blocks of the budget.
        times = np.array([0.0, 1.0 / 3.0, 5e-324, 1e-300, 2.0, 1e300])
        series = given_series(1, times, values, block_rows=4)
        wide = writer == "wide"
        assert "".join(serialize.series_to_csv(series, wide=wide)) == reference_series_csv(series, wide)


# -- the %.17g kernel against CPython ----------------------------------------------

def kernel_texts(values):
    """``serialize._format17``'s text of each value, NUL bytes removed."""
    values = np.array(values, dtype=float)
    out = np.zeros((len(values), 32), dtype=np.uint8)
    serialize._format17(values, out)
    return [bytes(row).replace(b"\0", b"").decode() for row in out]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_kernel_matches_percent_on_floats(values):
    assert kernel_texts(values) == ["%.17g" % v for v in values]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_kernel_matches_percent_on_bit_patterns(patterns):
    values = np.array(patterns, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)].tolist()
    assert kernel_texts(values) == ["%.17g" % v for v in values]


KERNEL_CASES = [
    # Exact ties of the 17-digit rounding, to even either way.
    (10001 * 2.0**-20, "0.0095376968383789062"),
    (10003 * 2.0**-20, "0.0095396041870117188"),
    (3 * 2.0**-24, "1.7881393432617188e-07"),  # a tie in the two-stage product (E < -6)
    # Within 2**-54 of a tie, but not ties: printed by % itself.
    (4.974148370910348e-09, "4.9741483709103481e-09"),
    (4.95286445202696e-09, "4.9528644520269601e-09"),
    (4.974148370910348e-10, "4.9741483709103481e-10"),
    (9.9999999999999995e-5, "9.9999999999999991e-05"),
    (9.999999999999999e-5, "9.9999999999999991e-05"),
    # %g's switches to e-notation below 1e-4 and from 1e17 on.
    (1e-4, "0.0001"),
    (0.00010000000000000002, "0.00010000000000000002"),
    (1e-5, "1.0000000000000001e-05"),
    (1e16, "10000000000000000"),
    (1e16 - 2.0, "9999999999999998"),
    (1e17, "1e+17"),
    (1.0 - 2.0**-53, "0.99999999999999989"),
    (1.0 / 3.0, "0.33333333333333331"),
    (-1.0 / 3.0, "-0.33333333333333331"),
    (1.0, "1"),
    (100.0, "100"),
    (123.5, "123.5"),
    # Printed by % itself: subnormal, smallest normal, huge, zeros, non-finite.
    (5e-324, "4.9406564584124654e-324"),
    (2.2250738585072014e-308, "2.2250738585072014e-308"),
    (1e300, "1.0000000000000001e+300"),
    (0.0, "0"),
    (-0.0, "-0"),
    (float("nan"), "nan"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    # The probability clamp band [ENTRY_FLOOR, 0): the kernel prints the value.
    (-1e-12, "-9.9999999999999998e-13"),
    (-5e-13, "-4.9999999999999999e-13"),
]


def test_kernel_named_cases():
    values, expected = zip(*KERNEL_CASES)
    assert ["%.17g" % v for v in values] == list(expected)
    assert kernel_texts(values) == list(expected)


def test_kernel_matches_percent_near_powers_of_ten():
    # Beside a power of ten, log10's guess of the exponent may be one off.
    powers = 10.0 ** np.arange(-30, 19)
    below, above = np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)
    values = np.concatenate([powers, below, np.nextafter(below, 0.0),
                             above, np.nextafter(above, np.inf)]).tolist()
    assert kernel_texts(values) == ["%.17g" % v for v in values]


def test_clamp_band_prints_zero_in_probability_rows():
    values = np.array([[-1e-12, -5e-13, -0.0, -2e-12]])
    text = "".join(serialize.Rows("", "%s" + ",%.17g" * 4 + "\n", ["t"].__getitem__, values, True))
    assert text == f"t,0,0,0,{-2e-12:.17g}\n"


# -- streamed JSON writers against json.dumps ----------------------------------

def reference_series_json(series):
    doc = {
        "source": series.source,
        "kind": series.kind,
        "snapshots": [
            {
                "t": float(serialize.format_float(float(t))),
                "p": [float(serialize.format_probability(v)) for v in values],
            }
            for t, values in zip(series.times, series.values)
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
    values = np.array(list(evolve_series(pipe.projections(4, 4), "quantum",
                                         TimeGrid(0.5, 5.0, 6))))
    for k, v in ((0, -0.0), (1, -1e-12), (2, -5e-13), (3, 5e-324)):
        values[:, 41] += values[:, k] - v
        values[:, k] = v
    times = np.array([-0.0, 0.0, 1e-300, 1.0 / 3.0, 2.0, 5.0])
    series = given_series(4, times, values)
    chunks = list(serialize.series_to_json(series))
    assert len(chunks) == len(series) + 2
    assert "".join(chunks) == reference_series_json(series)


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


#: ``EDGES`` with the values JSON cannot hold, NaN and the infinities, made finite.
JSON_EDGES = [(1.0 / 3.0, 1e17), (1e300, -5e-13), (5e-324, 1e-300), (-1e-12, 0.0),
              (-0.0, -1e-300), (2.2250738585072014e-308, 1e17)]


@pytest.mark.parametrize("budget", [1, 13, 20])
@pytest.mark.parametrize("writer", ["spectrum-json", "series-json", "chi-json"])
def test_json_writers_match_json_dumps_across_part_edges(monkeypatch, writer, budget):
    # Arrays above one series block of values are parts of the budget: six
    # values a row, so 1 is one row a part, 13 two rows, 20 three; a column
    # of 36 eigenvalues is 36, 3 or 2 parts. Series parts are blocks of four rows.
    monkeypatch.setattr(dynamics, "_BLOCK_ENTRIES", 1)
    monkeypatch.setattr(serialize, "_FORMAT_VALUES", budget)
    values = np.random.default_rng(16).uniform(0.0, 1.0, (6, 6))
    values[:, [0, -1]] = JSON_EDGES
    if writer == "spectrum-json":
        s = Spectrum(eigenvalues=values.ravel(), eigenvectors=np.eye(36))
        rows, expected = serialize.spectrum_to_json(s), reference_spectrum_json(s)
    elif writer == "chi-json":
        chi = SimpleNamespace(order=6, entries=values)
        rows, expected = serialize.limiting_matrix_to_json(chi), reference_chi_json(chi)
    else:
        times = np.array([0.0, 1.0 / 3.0, 5e-324, 1e-300, 2.0, 1e300])
        series = given_series(1, times, values, block_rows=4)
        rows, expected = serialize.series_to_json(series), reference_series_json(series)
    assert "".join(rows) == expected
    # The parts from any one on, as a forked child formats its share, start
    # with the row separator unless they start at row 0.
    parts = rows.parts()
    assert len(parts) > 1
    for k in range(len(parts)):
        assert "".join(rows.rows(parts[k:])).startswith(",\n") == (k > 0)
