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
from apwalks.network import GENERATION_CAP, SERIES_VALUE_CAP, node_count_for_generation
from apwalks.spectral import NumericError, Spectrum


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
    assert out.read_text() == serialize.network_to_json(pipe.net(2))


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


def test_environment_sets_nothing(monkeypatch, capsys):
    # Every setting is a flag: variables named like the flags change no output.
    argvs = [("generate", "-g", "2"), ("evolve", "-g", "2", "--t-steps", "5"),
             ("limit", "-g", "3", "-s", "4"), ("verify", "--max-generation", "2")]
    clean = []
    for argv in argvs:
        assert run(*argv) == 0
        clean.append(capsys.readouterr().out)
    for name, value in [("GENERATION", "three"), ("FORMAT", "xml"), ("KIND", "xml"),
                        ("TOL_CLUSTER", "inf"), ("OUTPUT", "/nonexistent/x")]:
        monkeypatch.setenv("APWALKS_" + name, value)
    for argv, out in zip(argvs, clean):
        assert run(*argv) == 0
        assert capsys.readouterr().out == out
    assert run("generate") == 2
    assert "required: -g/--generation" in capsys.readouterr().err


def test_spectrum_csv(tmp_path, pipe):
    out = tmp_path / "spec.csv"
    vecs = tmp_path / "vecs.csv"
    assert run("spectrum", "-g", "2", "-o", str(out), "--eigenvectors", str(vecs)) == 0
    values = np.loadtxt(out, delimiter=",", skiprows=1)[:, 1]
    assert np.array_equal(values, pipe.spectrum(2).eigenvalues)
    q = np.loadtxt(vecs, delimiter=",", skiprows=1)[:, 1:]
    assert np.array_equal(q, pipe.spectrum(2).eigenvectors)


def test_evolve_matches_g2_closed_form(tmp_path):
    out = tmp_path / "series.csv"
    assert run(
        "evolve", "-g", "2", "-s", "4", "--kind", "quantum",
        "--t-min", "0.01", "--t-max", "12", "--t-steps", "400",
        "--t-scale", "log", "-o", str(out),
    ) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    assert len(rows) == 400 * 7
    for t, k, p in rows:
        assert abs(p - closed_form_g2(int(k), t)) <= 1e-10


def test_evolve_classical_reaches_equipartition(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "3", "-s", "4", "--kind", "classical",
               "-o", str(out)) == 0
    last = np.loadtxt(out, delimiter=",", skiprows=1)[-16:]
    assert np.array_equal(last[:, 1], np.arange(1, 17))
    assert last[0, 0] == pytest.approx(100.0)
    assert np.abs(last[:, 2] - 1.0 / 16.0).max() <= 1e-6


def test_evolve_default_grid_is_log_2000(tmp_path):
    out = tmp_path / "series.csv"
    assert run("evolve", "-g", "1", "-o", str(out)) == 0
    times = np.loadtxt(out, delimiter=",", skiprows=1)[::4, 0]  # N = 4 rows per time
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
    ("evolve", "-g", "2", "--format", "json", "--wide"),
    ("limit", "-g", "2", "--tol-cluster", "1e-3"),
    ("limit", "-g", "2", "--tol-degeneracy", "1e-3"),
])
def test_flags_a_command_does_not_read_are_usage_errors(argv, capsys, no_work):
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
    doc = json.loads(out.read_text())
    assert doc["source"] == 4 and doc["kind"] == "quantum"
    assert np.array([snap["p"] for snap in doc["snapshots"]]).shape == (4, 4)


def test_limit_g1_matrix(tmp_path):
    chi_path = tmp_path / "chi.csv"
    report_path = tmp_path / "report.json"
    assert run("limit", "-g", "1", "-o", str(chi_path),
               "--report", str(report_path)) == 0
    chi = np.loadtxt(chi_path, delimiter=",", skiprows=1)[:, 2].reshape(4, 4).T
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


def test_limit_on_eigenvalues_too_close_to_group_exits_4(tmp_path, monkeypatch, capsys):
    # The narrowest gap above the rounding floor is 100 floors, not the 1e3 needed.
    floor = 3 * np.finfo(float).eps
    values = np.array([0.0, 1.0 - 100 * floor, 1.0])
    monkeypatch.setattr(cli, "eigendecompose", lambda h: Spectrum(values, np.eye(3)))
    chi_path, report = tmp_path / "chi.csv", tmp_path / "report.json"
    assert run("limit", "-g", "2", "-o", str(chi_path), "--report", str(report)) == 4
    err = capsys.readouterr().err
    assert err.startswith("apwalks: numeric failure: ") and err.count("\n") == 1
    assert not chi_path.exists() and not report.exists()


@pytest.mark.parametrize("output", [False, True])
def test_limit_bad_format_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, output):
    chi_path = tmp_path / "chi.xml"
    monkeypatch.setattr(cli, "eigendecompose", lambda h: pytest.fail("spectrum computed"))
    argv = ("limit", "-g", "2", "--format", "xml", *(("-o", str(chi_path)) if output else ()))
    assert run(*argv) == 2
    assert "xml" in capsys.readouterr().err
    assert not chi_path.exists()


@pytest.mark.parametrize("argv", [
    ("spectrum", "-g", "2", "--format", "xml"),
    ("evolve", "-g", "2", "--kind", "xml", "-o", "s.csv"),
])
def test_bad_choice_is_usage_error_before_any_work(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "eigendecompose", lambda h: pytest.fail("spectrum computed"))
    assert run(*argv) == 2
    assert "xml" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_generate_bad_format_is_usage_error_before_any_work(monkeypatch, capsys):
    monkeypatch.setattr(cli, "generate_apollonian", lambda g: pytest.fail("network built"))
    assert run("generate", "-g", "2", "--format", "xml") == 2
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


# The CLI in a subprocess of its own session, splitting large bodies as on two CPUs.
_CLI_ON_TWO_CPUS = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
                    "from apwalks import cli; sys.exit(cli.main(sys.argv[1:]))")


def _spawn_cli(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", _CLI_ON_TWO_CPUS, *argv], env=env,
                            stdout=stdout, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)


def _assert_failed_write(proc, err, path, reason):
    assert proc.wait(timeout=60) == 2
    assert err.splitlines() == [f"apwalks: usage error: cannot write {path}: {reason}"]
    with pytest.raises(ProcessLookupError):  # no forked child outlives the command
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, path", [
    (("limit", "-g", "3", "-o", "/dev/full"), "/dev/full"),
    (("verify", "-o", "/dev/full"), "/dev/full"),
    (("evolve", "-g", "3", "--t-steps", "5"), "stdout"),
])
def test_write_to_a_full_device_is_usage_error(argv, path):
    with open("/dev/full", "w") as full:
        proc = _spawn_cli(argv, full if path == "stdout" else subprocess.DEVNULL)
        _, err = proc.communicate(timeout=60)
    _assert_failed_write(proc, err, path, "No space left on device")


def test_write_to_a_closed_pipe_is_usage_error():
    # 200 times at G=6 exceed the split threshold: the parent's write fails
    # while a forked child formats the second half of the rows.
    assert 200 * node_count_for_generation(6) >= cli._SPLIT_MIN_VALUES
    proc = _spawn_cli(["evolve", "-g", "6", "--t-steps", "200"], subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    _assert_failed_write(proc, err, "stdout", "Broken pipe")


@pytest.mark.parametrize("argv, bad, reason", [
    (("limit", "-g", "2", "-o", "file/chi.csv"), "file/chi.csv", "Not a directory"),
    (("spectrum", "-g", "2", "--eigenvectors", "file/v.csv"), "file/v.csv", "Not a directory"),
    (("verify", "--max-generation", "0", "-o", "file/v.json"), "file/v.json", "Not a directory"),
    (("limit", "-g", "2", "--report", "dir"), "dir", "Is a directory"),
    (("generate", "-g", "2", "-o", "dir"), "dir", "Is a directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "s.csv"), "s.quantum.csv", "Is a directory"),
    (("limit", "-g", "2", "-o", ""), "", "No such file or directory"),
    (("spectrum", "-g", "2", "--eigenvectors", ""), "", "No such file or directory"),
    (("verify", "--max-generation", "0", "-o", ""), "", "No such file or directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", ""), "", "No such file or directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "."), ".", "Is a directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "/"), "/", "Is a directory"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "dir/"), "dir/", "Is a directory"),
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


@pytest.mark.parametrize("argv, first, second", [
    (("limit", "-g", "2", "-o", "same.csv", "--report", "same.csv"), "same.csv", "same.csv"),
    (("spectrum", "-g", "2", "-o", "v.csv", "--eigenvectors", "./v.csv"), "v.csv", "./v.csv"),
    (("limit", "-g", "2", "-o", "link.csv", "--report", "chi.csv"), "link.csv", "chi.csv"),
    (("evolve", "-g", "2", "--kind", "both", "-o", "s.csv"), "s.classical.csv", "s.quantum.csv"),
], ids=["same-name", "same-path", "symlink", "evolve-both-symlink"])
def test_two_outputs_naming_one_file_are_usage_error(tmp_path, monkeypatch, capsys, no_work,
                                                     argv, first, second):
    # The second write would replace the first with exit 0.
    monkeypatch.chdir(tmp_path)
    os.symlink("chi.csv", "link.csv")
    os.symlink("s.classical.csv", "s.quantum.csv")
    assert run(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"apwalks: usage error: cannot write {second}: "
                   f"another output, {first}, is the same file\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "s.quantum.csv"]


@pytest.mark.parametrize("argv", [
    ("limit", "-g", "2", "-o", os.devnull, "--report", os.devnull),
    ("spectrum", "-g", "2", "-o", os.devnull, "--eigenvectors", os.devnull),
])
def test_two_outputs_may_name_one_device(argv, capsys):
    assert run(*argv) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("generation, steps", [
    (1, 10**12),
    (GENERATION_CAP, SERIES_VALUE_CAP // node_count_for_generation(GENERATION_CAP) + 1),
])
def test_evolve_series_beyond_the_value_cap_exits_3_before_any_work(tmp_path, capsys, no_work,
                                                                   generation, steps):
    out = tmp_path / "s.csv"
    assert run("evolve", "-g", str(generation), "--t-steps", str(steps), "-o", str(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("apwalks: capacity error: ") and len(err.splitlines()) == 1
    assert not out.exists()


def test_evolve_series_at_the_value_cap_is_built(no_work):
    steps = SERIES_VALUE_CAP // node_count_for_generation(GENERATION_CAP)
    with pytest.raises(pytest.fail.Exception, match="network built"):
        run("evolve", "-g", str(GENERATION_CAP), "--t-steps", str(steps))


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
    assert edge_path.read_text() == serialize.network_to_edge_list(pipe.net(3))

    series_path = tmp_path / "series.csv"
    run("evolve", "-g", "2", "--t-steps", "10", "-o", str(series_path))
    assert np.loadtxt(series_path, delimiter=",", skiprows=1).shape == (10 * 7, 3)

    chi_path = tmp_path / "chi.csv"
    run("limit", "-g", "2", "-o", str(chi_path), "--report", str(tmp_path / "r.json"))
    chi = np.loadtxt(chi_path, delimiter=",", skiprows=1)[:, 2].reshape(7, 7).T
    assert np.abs(chi - pipe.chi(2).entries).max() <= 1e-16

    report = json.loads((tmp_path / "r.json").read_text())
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


# -- text bodies formatted by two processes --------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """Split every row-source body, as on two CPUs, and count the forks."""
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
        "chi-json": serialize.limiting_matrix_to_json(pipe.chi(4)),
        "series-json": serialize.series_to_json(series),
    }


SPLIT_WRITERS = ["chi", "long", "wide", "eigenvectors", "chi-json", "series-json"]


@pytest.mark.parametrize("name", SPLIT_WRITERS)
def test_split_file_bytes_match_one_process(tmp_path, pipe, forks, name):
    rows = split_writers(pipe)[name]
    out = tmp_path / f"{name}.csv"
    cli._write(rows, str(out))
    assert len(forks) == 1
    assert out.read_bytes() == "".join(rows).encode()


@pytest.mark.parametrize("capture", ["capsys", "capfd"])
@pytest.mark.parametrize("name", SPLIT_WRITERS)
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


@pytest.mark.parametrize("name", SPLIT_WRITERS)
def test_no_split_to_a_text_only_stdout(pipe, forks, name):
    # io.StringIO has no byte buffer for the child's rows: format them here.
    rows = split_writers(pipe)[name]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._write(rows, None)
    assert forks == []
    assert out.getvalue() == "".join(rows)


@pytest.mark.parametrize("failing, to_stdout", [("child", False), ("parent", False), ("child", True)],
                         ids=["child", "parent", "child-stdout"])
def test_split_failure_raises_and_reaps_the_child(tmp_path, pipe, forks, monkeypatch, capfd,
                                                  failing, to_stdout):
    class FailingRows(serialize.Rows):
        def rows(self, start, stop):
            if (start > 0) == (failing == "child"):
                raise OSError(f"{failing} failed")
            return super().rows(start, stop)

    rows = FailingRows(**vars(serialize.limiting_matrix_to_csv(pipe.chi(4))))
    dups = []
    monkeypatch.setattr(os, "dup2", lambda *fds: dups.append(fds))
    # A failed write here names the path; the child wrote only its own
    # temporary file, so its failure names no path and leaves stdout open.
    if failing == "child":
        error, message = ChildProcessError, "^the forked child [0-9]+ exited with 1$"
    else:
        error, message = ValueError, "cannot write .*chi.csv: parent failed"
    with pytest.raises(error, match=message):
        cli._write(rows, None if to_stdout else str(tmp_path / "chi.csv"))
    assert len(forks) == 1
    assert dups == []
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


@pytest.mark.parametrize("argv", [
    ("limit", "-g", "3", "-o", os.devnull, "--report", os.devnull),
    ("verify", "--max-generation", "3"),
], ids=["limit", "verify"])
@pytest.mark.parametrize("cpus, code", [({0, 1}, 2), ({0}, 0)], ids=["two-cpus", "one-cpu"])
def test_a_forked_child_that_cannot_write_is_a_usage_error(tmp_path, argv, cpus, code):
    # Only the forked child writes a regular file: its unlinked temporary
    # file, held here to 1 kB. Python ignores SIGXFSZ, so the write fails
    # with EFBIG; on one CPU no such file exists and the command succeeds.
    script = """
import os, resource, sys
from apwalks import cli
os.sched_getaffinity = lambda pid: set(map(int, sys.argv[1].split(",")))
cli._SPLIT_MIN_VALUES = 0
resource.setrlimit(resource.RLIMIT_FSIZE, (1024, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[2:]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, "-c", script, ",".join(map(str, cpus)), *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if code:
        assert "File too large" in proc.stderr  # the child's own traceback
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("apwalks: usage error: "), proc.stderr
        assert "the forked child" in last and last.endswith("exited with 1")
        # The outputs took every byte they were given; only the child's
        # temporary file failed.
        assert os.devnull not in last and "cannot write" not in last
    else:
        assert proc.stderr == ""


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
