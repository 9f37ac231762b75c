import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from apwalks import cli, serialize, verify
from apwalks.cli import main
from apwalks.dynamics import TimeGrid, closed_form_g2, evolve_series
from apwalks.network import GENERATION_CAP
from apwalks.spectral import NumericError


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


@pytest.mark.parametrize("flag", ["--tol-cluster", "--tol-degeneracy"])
def test_limit_infinite_tolerance_is_usage_error(tmp_path, flag, capsys):
    report = tmp_path / "report.json"
    assert run("limit", "-g", "2", flag, "inf", "--report", str(report)) == 2
    assert "finite" in capsys.readouterr().err
    assert not report.exists()


def test_limit_infinite_env_tolerance_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("APWALKS_TOL_CLUSTER", "inf")
    assert run("limit", "-g", "2") == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("output", [False, True])
def test_limit_bad_format_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, output):
    chi_path = tmp_path / "chi.xml"
    monkeypatch.setenv("APWALKS_FORMAT", "xml")
    monkeypatch.setattr(cli, "eigendecompose", lambda h: pytest.fail("spectrum computed"))
    argv = ("limit", "-g", "2", *(("-o", str(chi_path)) if output else ()))
    assert run(*argv) == 2
    assert "xml" in capsys.readouterr().err
    assert not chi_path.exists()


@pytest.mark.parametrize("argv,variable", [
    (("spectrum", "-g", "2"), "APWALKS_FORMAT"),
    (("evolve", "-g", "2", "-o", "s.csv"), "APWALKS_KIND"),
])
def test_bad_env_value_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv, variable):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(variable, "xml")
    monkeypatch.setattr(cli, "eigendecompose", lambda h: pytest.fail("spectrum computed"))
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "xml" in err and len(err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_generate_bad_format_is_usage_error_before_any_work(monkeypatch, capsys):
    monkeypatch.setenv("APWALKS_FORMAT", "xml")
    monkeypatch.setattr(cli, "generate_apollonian", lambda g: pytest.fail("network built"))
    assert run("generate", "-g", "2") == 2
    assert "xml" in capsys.readouterr().err


@pytest.fixture
def no_work(monkeypatch):
    """Fail the test if any command builds a network or a spectrum."""
    for module in (cli, verify):
        monkeypatch.setattr(module, "generate_apollonian", lambda g: pytest.fail("network built"))
        monkeypatch.setattr(module, "eigendecompose", lambda h: pytest.fail("spectrum computed"))


@pytest.mark.parametrize("argv", [
    ("limit", "-g", "2", "-o", "{missing}/chi.csv"),
    ("spectrum", "-g", "2", "--eigenvectors", "{missing}/vecs.csv"),
    ("evolve", "-g", "2", "--kind", "both", "-o", "{missing}/s.csv"),
    ("verify", "--max-generation", "0", "-o", "{missing}/verdict.json"),
    ("limit", "-g", "2", "--report", "{missing}/report.json"),
    ("spectrum", "-g", "2", "-o", "{missing}/spectrum.csv"),
    ("evolve", "-g", "2", "-o", "{missing}/s.csv"),
    ("generate", "-g", "2", "-o", "{missing}/net.txt"),
    ("orbits", "-g", "2", "-o", "{missing}/orbits.json"),
])
def test_output_that_cannot_be_opened_is_usage_error(tmp_path, capsys, no_work, argv):
    missing = tmp_path / "missing"
    assert run(*(arg.format(missing=missing) for arg in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("apwalks: usage error: cannot write ")
    assert str(missing) in err and len(err.splitlines()) == 1
    assert not missing.exists()


@pytest.mark.parametrize("argv, bad, reason", [
    (("limit", "-g", "2", "-o", "file/chi.csv"), "file/chi.csv", "Not a directory"),
    (("spectrum", "-g", "2", "--eigenvectors", "file/v.csv"), "file/v.csv", "Not a directory"),
    (("verify", "--max-generation", "0", "-o", "file/v.json"), "file/v.json", "Not a directory"),
    (("limit", "-g", "2", "--report", "dir"), "dir", "Is a directory"),
    (("generate", "-g", "2", "-o", "dir"), "dir", "Is a directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "s.csv"), "s.quantum.csv", "Is a directory"),
])
def test_output_path_is_checked_before_any_work(tmp_path, monkeypatch, capsys, no_work,
                                                argv, bad, reason):
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    Path("dir").mkdir()
    Path("s.quantum.csv").mkdir()
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"apwalks: usage error: cannot write {bad}: {reason}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file", "s.quantum.csv"]


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


def test_verify_beyond_the_cap_exits_3_before_any_check(monkeypatch, capsys):
    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, lambda *args: pytest.fail("a check ran"))
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or pytest.fail("forked"))
    assert run("verify", "--max-generation", str(GENERATION_CAP + 1)) == 3
    assert "cap" in capsys.readouterr().err
    assert forks == []


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


def test_chi_csv_is_written_row_by_row(tmp_path, pipe):
    chi = pipe.chi(6)
    out = tmp_path / "chi.csv"
    tracemalloc.start()
    try:
        cli._write(serialize.limiting_matrix_to_csv(chi), str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The whole text held at once would be one file size or more.
    assert peak < out.stat().st_size / 2


@pytest.mark.parametrize("layout", [(), ("--wide",)])
def test_evolve_file_stdout_and_writer_agree(tmp_path, capsys, pipe, layout):
    argv = ("evolve", "-g", "3", "-s", "2", "--t-steps", "9", *layout)
    grid = TimeGrid(0.01, 100.0, 9, "logarithmic")
    assert run(*argv, "--kind", "both", "-o", str(tmp_path / "both.csv")) == 0
    for kind in ("classical", "quantum"):
        series = evolve_series(pipe.spectrum(3), 2, kind, grid)
        expected = "".join(serialize.series_to_csv(series, wide=bool(layout)))
        out = tmp_path / f"{kind}.csv"
        assert run(*argv, "--kind", kind, "-o", str(out)) == 0
        capsys.readouterr()
        assert run(*argv, "--kind", kind) == 0
        assert capsys.readouterr().out == expected
        assert out.read_bytes() == expected.encode()
        assert (tmp_path / f"both.{kind}.csv").read_bytes() == expected.encode()


def test_limit_file_stdout_and_writer_agree(tmp_path, capsys, pipe):
    chi_path = tmp_path / "chi.csv"
    report_path = tmp_path / "report.json"
    assert run("limit", "-g", "3", "-s", "2", "-o", str(chi_path),
               "--report", str(report_path)) == 0
    expected = "".join(serialize.limiting_matrix_to_csv(pipe.chi(3)))
    assert chi_path.read_bytes() == expected.encode()
    capsys.readouterr()
    assert run("limit", "-g", "3", "-s", "2") == 0
    assert capsys.readouterr().out.encode() == report_path.read_bytes()


def test_chi_json_is_written_row_by_row(tmp_path, pipe):
    chi = pipe.chi(5)
    out = tmp_path / "chi.json"
    tracemalloc.start()
    try:
        cli._write(serialize.limiting_matrix_to_json(chi), str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 2


# -- CSV bodies formatted by two processes ---------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Split every CSV body, as on two CPUs, and count the forks."""
    calls = []
    real_fork = os.fork

    def fork():
        calls.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return calls


def split_writers(pipe):
    s = pipe.spectrum(4)
    series = evolve_series(s, 5, "quantum", TimeGrid(0.01, 100.0, 9, "logarithmic"))
    return {
        "chi": serialize.limiting_matrix_to_csv(pipe.chi(4)),
        "long": serialize.series_to_csv(series),
        "wide": serialize.series_to_csv(series, wide=True),
        "eigenvectors": serialize.eigenvectors_to_csv(s),
    }


@pytest.mark.parametrize("name", ["chi", "long", "wide", "eigenvectors"])
def test_split_file_bytes_match_one_process(tmp_path, pipe, forks, name):
    rows = split_writers(pipe)[name]
    out = tmp_path / f"{name}.csv"
    cli._write(rows, str(out))
    assert len(forks) == 1
    assert out.read_bytes() == "".join(rows).encode()


@pytest.mark.parametrize("capture", ["capsys", "capfd"])
@pytest.mark.parametrize("name", ["chi", "long", "wide", "eigenvectors"])
def test_split_stdout_bytes_match_one_process(request, pipe, forks, name, capture):
    # capsys's stdout has no file descriptor, capfd's is a real file; both
    # take the child's bytes through their buffer.
    cap = request.getfixturevalue(capture)
    rows = split_writers(pipe)[name]
    print("before", end="")
    cli._write(rows, None)
    print("after", end="")
    assert len(forks) == 1
    assert cap.readouterr().out == "before" + "".join(rows) + "after"


@pytest.mark.parametrize("name", ["chi", "long", "wide", "eigenvectors"])
def test_no_split_to_a_text_only_stdout(pipe, forks, name):
    # io.StringIO has no byte buffer for the child's rows: format them here.
    rows = split_writers(pipe)[name]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(rows, None)
    assert forks == []
    assert out.getvalue() == "".join(rows)


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_split_failure_raises_and_reaps_the_child(tmp_path, pipe, forks, failing):
    class FailingRows(serialize.CsvRows):
        def rows(self, start, stop):
            if (start > 0) == (failing == "child"):
                raise OSError(f"{failing} failed")
            return super().rows(start, stop)

    good = serialize.limiting_matrix_to_csv(pipe.chi(4))
    rows = FailingRows(good.header, good.labels, good.values, good.long, good.probability)
    expected = "exited with 1" if failing == "child" else "parent failed"
    with pytest.raises((RuntimeError, OSError), match=expected):
        cli._write(rows, str(tmp_path / "chi.csv"))
    assert len(forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus, threshold", [({0}, 0), ({0, 1}, 1850)])
def test_no_split_on_one_cpu_or_small_body(tmp_path, pipe, forks, monkeypatch, cpus, threshold):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", threshold)
    rows = serialize.limiting_matrix_to_csv(pipe.chi(4))  # 1849 values
    out = tmp_path / "chi.csv"
    cli._write(rows, str(out))
    assert forks == []
    assert out.read_bytes() == "".join(rows).encode()


def test_split_child_runs_no_atexit_handler(tmp_path, pipe):
    out = tmp_path / "chi.csv"
    script = """
import atexit, os, sys
from apwalks import cli, serialize
from apwalks.verify import Pipeline
forks = []
real_fork = os.fork
os.fork = lambda: forks.append(1) or real_fork()
os.sched_getaffinity = lambda pid: {0, 1}
cli._SPLIT_MIN_VALUES = 0
atexit.register(lambda: print("atexit", len(forks)))
cli._write(serialize.limiting_matrix_to_csv(Pipeline().chi(3)), sys.argv[1])
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "atexit 1\n"
    assert out.read_bytes() == "".join(serialize.limiting_matrix_to_csv(pipe.chi(3))).encode()


# -- verify on two processes ------------------------------------------------------

@pytest.mark.parametrize("g", [3, 4, 5])
def test_split_verification_matches_one_process(forks, monkeypatch, g):
    forked = verify.run_verification(g).to_dict()
    assert len(forks) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = verify.run_verification(g).to_dict()
    assert len(forks) == 1
    assert forked == alone
    assert json.dumps(forked, indent=2) == json.dumps(alone, indent=2)


@pytest.mark.parametrize("check", ["check_time_average", "check_reconstruction"])
def test_split_verification_numeric_failure_exits_4_and_reaps_the_child(
        forks, monkeypatch, capsys, check):
    def fail(*args):
        raise NumericError(f"{check} injected")

    monkeypatch.setattr(verify, check, fail)
    assert run("verify", "--max-generation", "3") == 4
    assert len(forks) == 1
    forked = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run("verify", "--max-generation", "3") == 4
    assert len(forks) == 1
    assert forked == capsys.readouterr()
    assert forked.out == "" and forked.err == f"apwalks: numeric failure: {check} injected\n"
