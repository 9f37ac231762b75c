import numpy as np
import pytest

from apwalks import serialize
from apwalks.dynamics import LimitingMatrix, TimeGrid, TransitionSnapshot, evolve_series
from apwalks.network import corner_group, orbits
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
    assert serialize.network_from_edge_list(text) == net


def test_edge_list_rejects_corruption(pipe):
    text = serialize.network_to_edge_list(pipe.net(2))
    with pytest.raises(ValueError):
        serialize.network_from_edge_list(text.replace("1 2\n", "1 7\n", 1))
    with pytest.raises(ValueError):
        serialize.network_from_edge_list("not a header\n1 2\n")


def test_network_json_round_trip(pipe):
    net = pipe.net(2)
    text = serialize.network_to_json(net)
    assert serialize.network_from_json(text) == net


def test_network_json_rejects_mismatch(pipe):
    text = serialize.network_to_json(pipe.net(2))
    with pytest.raises(ValueError):
        serialize.network_from_json(text.replace('"gen": 1', '"gen": 2'))


def test_spectrum_csv_round_trip(pipe):
    s = pipe.spectrum(2)
    text = serialize.spectrum_to_csv(s)
    assert text.splitlines()[0] == "index,eigenvalue"
    parsed = serialize.eigenvalues_from_csv(text)
    assert np.array_equal(parsed, s.eigenvalues)


def test_eigenvector_csv_round_trip(pipe):
    s = pipe.spectrum(2)
    text = serialize.eigenvectors_to_csv(s)
    parsed = serialize.eigenvectors_from_csv(text)
    assert np.array_equal(parsed, s.eigenvectors)


def test_series_csv_round_trip_long_and_wide(pipe):
    series = evolve_series(pipe.spectrum(2), 4, "quantum", TimeGrid(0.0, 5.0, 7))
    long_text = serialize.series_to_csv(series, wide=False)
    wide_text = serialize.series_to_csv(series, wide=True)
    t_long, p_long = serialize.series_from_csv(long_text)
    t_wide, p_wide = serialize.series_from_csv(wide_text)
    assert np.array_equal(t_long, t_wide)
    assert np.array_equal(p_long, p_wide)
    expected = np.array([snap.values for snap in series])
    assert np.array_equal(p_long, expected)


def test_series_json_round_trip(pipe):
    series = evolve_series(pipe.spectrum(1), 2, "classical", TimeGrid(0.0, 2.0, 5))
    source, kind, times, probs = serialize.series_from_json(
        serialize.series_to_json(series)
    )
    assert source == 2 and kind == "classical"
    assert np.array_equal(probs, np.array([s.values for s in series]))
    assert np.array_equal(times, np.array([s.time for s in series]))


def test_series_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        serialize.series_from_csv("time,node,p\n0,1,1\n")


def test_limiting_matrix_csv_round_trip(pipe):
    chi = pipe.chi(2)
    text = serialize.limiting_matrix_to_csv(chi)
    assert text.splitlines()[0] == "j,k,chi"
    parsed = serialize.limiting_matrix_from_csv(text)
    assert np.array_equal(parsed, chi.entries)


def test_limiting_matrix_json_round_trip(pipe):
    chi = pipe.chi(1)
    parsed = serialize.limiting_matrix_from_json(serialize.limiting_matrix_to_json(chi))
    assert np.array_equal(parsed, chi.entries)


def test_cluster_report_schema(pipe):
    net = pipe.net(3)
    clustering = cluster_equal_limits(pipe.chi(3).column(4), 1e-9, source=4)
    partition = orbits(net, corner_group(net), fixed_source=4)
    consistency = orbit_consistency(clustering, partition)
    doc = serialize.cluster_report_from_json(
        serialize.cluster_report_to_json(clustering, consistency)
    )
    assert doc["source"] == 4
    assert doc["tol"] == 1e-9
    assert sorted(len(c["nodes"]) for c in doc["clusters"]) == [1, 3, 3, 3, 6]
    assert doc["unexplained_pairs"] == []
    values = [c["value"] for c in doc["clusters"]]
    assert values == sorted(values)


def test_cluster_report_requires_keys():
    with pytest.raises(ValueError):
        serialize.cluster_report_from_json('{"source": 1}')


def test_writers_are_deterministic(pipe):
    net = pipe.net(3)
    s = pipe.spectrum(3)
    chi = pipe.chi(3)
    series = evolve_series(s, 4, "quantum", TimeGrid(0.01, 10.0, 20, "logarithmic"))
    assert serialize.network_to_edge_list(net) == serialize.network_to_edge_list(net)
    assert serialize.spectrum_to_csv(s) == serialize.spectrum_to_csv(s)
    assert serialize.series_to_csv(series) == serialize.series_to_csv(series)
    assert serialize.limiting_matrix_to_csv(chi) == serialize.limiting_matrix_to_csv(chi)


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
    text = serialize._format_rows(labels, values, long=long, probability=probability)
    fmt = serialize.format_probability if probability else serialize.format_float
    if long:
        expected = [f"{lab},{k},{fmt(v)}" for lab, row in zip(labels, values)
                    for k, v in enumerate(row, start=1)]
    else:
        expected = [",".join([lab, *(fmt(v) for v in row)])
                    for lab, row in zip(labels, values)]
    assert text == "\n".join(expected)


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
    assert serialize.series_to_csv(snapshots, wide=wide) == reference_series_csv(snapshots, wide)


def test_chi_csv_matches_per_value_writer(pipe):
    entries = np.zeros((6, 6))
    entries[:3, :3] = 1.0 / 3.0
    entries[3:5, 3:5] = [[1.0 - 2.0**-53, 2.0**-53], [2.0**-53, 1.0 - 2.0**-53]]
    entries[5, 5] = 1.0
    for (a, b), v in {(0, 3): -0.0, (0, 5): 5e-324, (1, 4): 2.2250738585072014e-308}.items():
        entries[a, b] = entries[b, a] = v
    for chi in (LimitingMatrix(entries=entries), pipe.chi(3)):
        assert serialize.limiting_matrix_to_csv(chi) == reference_chi_csv(chi)


def test_eigenvector_csv_matches_per_value_writer(pipe):
    rng = np.random.default_rng(13)
    q = np.concatenate([ADVERSARIAL, [-2e-12, -1.0], rng.normal(size=90)]).reshape(10, 10)
    for s in (Spectrum(eigenvalues=np.arange(10.0), eigenvectors=q), pipe.spectrum(3)):
        assert serialize.eigenvectors_to_csv(s) == reference_eigenvectors_csv(s)
