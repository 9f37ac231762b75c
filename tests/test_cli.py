import json

import numpy as np
import pytest

from apwalks import serialize
from apwalks.cli import main
from apwalks.dynamics import closed_form_g2


def run(*argv):
    return main(list(argv))


def test_generate_header(tmp_path):
    out = tmp_path / "net.txt"
    assert run("generate", "-g", "3", "-o", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "apollonian g=3 n=16"
    assert len(lines) == 1 + 42


def test_generate_g0_edge_list(capsys):
    assert run("generate", "-g", "0") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["apollonian g=0 n=3", "1 2", "1 3", "2 3"]


def test_generate_json_round_trips(tmp_path, pipe):
    out = tmp_path / "net.json"
    assert run("generate", "-g", "2", "--format", "json", "-o", str(out)) == 0
    assert serialize.network_from_json(out.read_text()) == pipe.net(2)


def test_generate_beyond_cap_exits_3(capsys):
    assert run("generate", "-g", "99") == 3
    assert "cap" in capsys.readouterr().err


def test_missing_generation_is_usage_error(capsys):
    assert run("generate") == 2


def test_negative_generation_is_usage_error():
    assert run("generate", "-g", "-2") == 2


def test_unknown_flag_is_usage_error(capsys):
    assert run("generate", "--bogus") == 2


def test_help_exits_zero(capsys):
    assert run("--help") == 0


def test_env_override_for_generation(monkeypatch, capsys):
    monkeypatch.setenv("APWALKS_GENERATION", "1")
    assert run("generate") == 0
    assert capsys.readouterr().out.splitlines()[0] == "apollonian g=1 n=4"


def test_env_override_loses_to_flag(monkeypatch, capsys):
    monkeypatch.setenv("APWALKS_GENERATION", "1")
    assert run("generate", "-g", "0") == 0
    assert capsys.readouterr().out.splitlines()[0] == "apollonian g=0 n=3"


def test_malformed_env_value_is_usage_error(monkeypatch):
    monkeypatch.setenv("APWALKS_GENERATION", "three")
    assert run("generate") == 2


def test_spectrum_csv(tmp_path, pipe):
    out = tmp_path / "spec.csv"
    vecs = tmp_path / "vecs.csv"
    assert run("spectrum", "-g", "2", "-o", str(out), "--eigenvectors", str(vecs)) == 0
    values = serialize.eigenvalues_from_csv(out.read_text())
    assert np.array_equal(values, pipe.spectrum(2).eigenvalues)
    q = serialize.eigenvectors_from_csv(vecs.read_text())
    assert np.array_equal(q, pipe.spectrum(2).eigenvectors)


def test_evolve_matches_g2_closed_form(tmp_path):
    out = tmp_path / "series.csv"
    assert run(
        "evolve", "-g", "2", "-s", "4", "--kind", "quantum",
        "--t-min", "0.01", "--t-max", "12", "--t-steps", "400",
        "--t-scale", "log", "-o", str(out),
    ) == 0
    times, probs = serialize.series_from_csv(out.read_text())
    for t, row in zip(times, probs):
        for k in range(1, 8):
            assert abs(row[k - 1] - closed_form_g2(k, t)) <= 1e-10


def test_evolve_classical_reaches_equipartition(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "3", "-s", "4", "--kind", "classical",
               "-o", str(out)) == 0
    times, probs = serialize.series_from_csv(out.read_text())
    assert times[-1] == pytest.approx(100.0)
    assert np.abs(probs[-1] - 1.0 / 16.0).max() <= 1e-6


def test_evolve_default_grid_is_log_2000(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "1", "-o", str(out)) == 0
    times, probs = serialize.series_from_csv(out.read_text())
    assert len(times) == 2000
    assert times[0] == pytest.approx(0.01)
    ratios = times[1:] / times[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-6)  # geometric spacing


def test_evolve_wide_layout(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "1", "--wide", "--t-steps", "5", "-o", str(out)) == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,p_1,p_2,p_3,p_4"


def test_evolve_both_kinds_writes_two_files(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "1", "--kind", "both", "--t-steps", "5",
               "-o", str(out)) == 0
    assert (tmp_path / "series.classical.csv").exists()
    assert (tmp_path / "series.quantum.csv").exists()


def test_evolve_both_requires_output():
    assert run("evolve", "-g", "1", "--kind", "both") == 2


def test_evolve_source_zero_is_usage_error(capsys):
    assert run("evolve", "-g", "2", "--source", "0") == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("evolve", "-g", "2", "--tol-cluster", "1e-3"),
    ("evolve", "-g", "2", "--tol-degeneracy", "1e-3"),
    ("generate", "-g", "2", "-s", "1"),
    ("spectrum", "-g", "2", "--source", "1"),
    ("orbits", "-g", "2", "--tol-cluster", "1e-3"),
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys):
    assert run(*argv) == 2


@pytest.mark.parametrize("grid", [
    ("--t-max", "inf", "--t-steps", "5", "--t-scale", "lin"),
    ("--t-min", "nan", "--t-steps", "1"),
])
def test_evolve_non_finite_grid_is_usage_error(tmp_path, grid, capsys):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "2", *grid, "-o", str(out)) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_json(tmp_path):
    out = tmp_path / "series.json"
    assert run("evolve", "-g", "1", "--format", "json", "--t-steps", "4",
               "-o", str(out)) == 0
    source, kind, times, probs = serialize.series_from_json(out.read_text())
    assert source == 4 and kind == "quantum"
    assert probs.shape == (4, 4)


def test_limit_g1_matrix(tmp_path):
    chi_path = tmp_path / "chi.csv"
    report_path = tmp_path / "report.json"
    assert run("limit", "-g", "1", "-o", str(chi_path),
               "--report", str(report_path)) == 0
    chi = serialize.limiting_matrix_from_csv(chi_path.read_text())
    expected = np.full((4, 4), 1.0 / 8.0)
    np.fill_diagonal(expected, 5.0 / 8.0)
    assert np.abs(chi - expected).max() <= 1e-12


def test_limit_g2_center_value(tmp_path):
    report_path = tmp_path / "report.json"
    assert run("limit", "-g", "2", "-s", "4", "--report", str(report_path)) == 0
    doc = json.loads(report_path.read_text())
    center = [c for c in doc["clusters"] if c["nodes"] == [4]]
    assert len(center) == 1
    assert center[0]["value"] == pytest.approx(37.0 / 49.0, abs=1e-12)


def test_limit_g3_five_clusters(capsys):
    assert run("limit", "-g", "3", "-s", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert sorted(len(c["nodes"]) for c in doc["clusters"]) == [1, 3, 3, 3, 6]
    assert doc["unexplained_pairs"] == []


def test_orbits_command(capsys):
    assert run("orbits", "-g", "3", "-s", "4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["fixed_source"] == 4
    assert sorted(len(c) for c in doc["classes"]) == [1, 3, 3, 3, 6]


def test_verify_passes_at_g2(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    assert run("verify", "--max-generation", "2", "-o", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert "closed_form_g1_reproduction" in names
    assert "closed_form_g2_reproduction" in names
    assert all(c["passed"] for c in doc["checks"])


def test_verify_negative_max_generation_is_usage_error():
    assert run("verify", "--max-generation", "-1") == 2


def test_outputs_are_byte_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["evolve", "-g", "2", "--t-steps", "50", "--t-min", "0.05",
            "--t-max", "20", "--t-scale", "lin"]
    assert run(*argv, "-o", str(first)) == 0
    assert run(*argv, "-o", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()

    net_a = tmp_path / "na.json"
    net_b = tmp_path / "nb.json"
    assert run("generate", "-g", "4", "--format", "json", "-o", str(net_a)) == 0
    assert run("generate", "-g", "4", "--format", "json", "-o", str(net_b)) == 0
    assert net_a.read_bytes() == net_b.read_bytes()


def test_every_output_round_trips(tmp_path, pipe):
    edge_path = tmp_path / "net.txt"
    run("generate", "-g", "3", "-o", str(edge_path))
    assert serialize.network_from_edge_list(edge_path.read_text()) == pipe.net(3)

    series_path = tmp_path / "series.csv"
    run("evolve", "-g", "2", "--t-steps", "10", "-o", str(series_path))
    times, probs = serialize.series_from_csv(series_path.read_text())
    assert probs.shape == (10, 7)

    chi_path = tmp_path / "chi.csv"
    run("limit", "-g", "2", "-o", str(chi_path), "--report", str(tmp_path / "r.json"))
    chi = serialize.limiting_matrix_from_csv(chi_path.read_text())
    assert np.abs(chi - pipe.chi(2).entries).max() <= 1e-16

    report = serialize.cluster_report_from_json((tmp_path / "r.json").read_text())
    assert report["source"] == 4
