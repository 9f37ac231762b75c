"""Tests of the benchmark harness itself, at small generations.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SMALL_GENERATION = 2


def _load_harness():
    spec = importlib.util.spec_from_file_location("apwalks_bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


bench = _load_harness()
sys.path.insert(0, str(ROOT / "src"))  # as bench/run.py's main does, for the expm reference


def _run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--generation", str(SMALL_GENERATION)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert set(names[:len(SPEC["workloads"])]) == set(bench.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_workload_reports_exactly_the_declared_metrics(workload, trace):
    proc = _run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, details = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    expected_source = None if workload == "verify-g7" else bench.choose_source(3, SMALL_GENERATION)
    assert details["source"] == expected_source
    if expected_source is not None:
        assert details["argv"][details["argv"].index("-s") + 1] == str(expected_source)
    assert {"python", "numpy", "scipy", "blas", "blas_threads", "nproc", "cpu_model"} <= set(
        details["environment"])
    if trace:
        assert result["metrics"]["spectral.eigendecompose_calls"]["value"] >= 1
    else:
        assert result["metrics"]["wall_s"]["value"] > 0


def test_seed_fixes_the_source():
    sources = {bench.choose_source(seed, 7) for seed in range(50)}
    assert sources <= set(range(1, 1097)) and len(sources) > 40
    assert bench.choose_source(139, 7) == 4
    assert bench.choose_source(5, 7) == bench.choose_source(5, 7)


@pytest.fixture
def produced(tmp_path):
    """Run one workload's command at a small generation and return (ctx, out, stdout)."""

    def produce(workload: str):
        ctx = bench.Context(workload, 7, SMALL_GENERATION, ROOT, tmp_path)
        if bench.WORKLOADS[workload].takes_source:
            ctx.source = bench.choose_source(7, SMALL_GENERATION)
        if bench.WORKLOADS[workload].prepare:
            bench.WORKLOADS[workload].prepare(ctx)
        out = bench.fresh_dir(ctx, "out")
        sample = bench.spawn([sys.executable, "-m", "apwalks.cli", *bench.WORKLOADS[workload].argv(ctx, out)],
                             ctx, out)
        assert sample.exit_code == 0
        stdout = (out / "stdout").read_text()
        bench.WORKLOADS[workload].check(ctx, out, stdout)  # the untouched output passes
        return ctx, out, stdout

    return produce


def _set_probability(path: Path, row: int, text: str | None = None) -> None:
    """Replace the last field of one data row by ``text``, or else by a different valid probability."""
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[row].rstrip("\n").split(",")
    fields[-1] = text if text is not None else repr(float(fields[-1]) * 0.5 + 0.01)
    lines[row] = ",".join(fields) + "\n"
    path.write_text("".join(lines))


@pytest.mark.parametrize("kind", ["classical", "quantum"])
def test_evolve_check_rejects_one_altered_probability(produced, kind):
    ctx, out, stdout = produced("evolve-g7")
    _set_probability(out / f"s.{kind}.csv", row=5)
    with pytest.raises(bench.CheckFailed):
        bench.check_evolve(ctx, out, stdout)


@pytest.mark.parametrize("workload, name, text", [
    ("evolve-g7", "s.quantum.csv", "nan"), ("evolve-g7", "s.classical.csv", "inf"),
    ("limit-g7", "chi.csv", "nan"), ("limit-g7", "chi.csv", "0.1,oops"),
])
def test_check_rejects_a_non_finite_or_unreadable_value(produced, workload, name, text):
    ctx, out, stdout = produced(workload)
    _set_probability(out / name, 3, text)
    with pytest.raises(bench.CheckFailed):
        bench.WORKLOADS[workload].check(ctx, out, stdout)


@pytest.mark.parametrize("workload, name", [("evolve-g7", "s.quantum.csv"), ("limit-g7", "chi.csv"),
                                            ("limit-g7", "rep.json")])
def test_a_missing_output_is_a_counted_failure(produced, monkeypatch, workload, name):
    ctx, out, stdout = produced(workload)
    spawn = bench.spawn

    def spawn_then_delete(cmd, ctx, out):
        sample = spawn(cmd, ctx, out)
        (out / name).unlink()
        return sample

    monkeypatch.setattr(bench, "spawn", spawn_then_delete)
    sample = bench.run_workload(ctx)
    assert sample.exit_code == 0 and sample.error and sample.digest


def test_peak_rss_is_the_command_s_own(produced):
    ctx, out, stdout = produced("verify-g7")
    ballast = bench.np.ones(25_000_000)  # 200 MB resident in this process, the spawner
    sample = bench.run_workload(ctx)
    del ballast
    assert sample.error is None
    assert 10 < sample.peak_rss_mb < 150


def test_wrapper_cost_is_small_and_positive():
    sys.path.insert(0, str(ROOT / "bench"))
    import traced

    cost = traced.wrap_cost(calls=2000, rounds=3)
    assert 0 < cost < 1e-3


def test_limit_check_rejects_one_altered_chi_entry(produced):
    ctx, out, stdout = produced("limit-g7")
    _set_probability(out / "chi.csv", row=2)
    with pytest.raises(bench.CheckFailed):
        bench.check_limit(ctx, out, stdout)


def test_limit_check_rejects_a_report_missing_a_node(produced):
    ctx, out, stdout = produced("limit-g7")
    report = json.loads((out / "rep.json").read_text())
    report["clusters"][0]["nodes"] = report["clusters"][0]["nodes"][1:] or [1, 1]
    (out / "rep.json").write_text(json.dumps(report))
    with pytest.raises(bench.CheckFailed):
        bench.check_limit(ctx, out, stdout)


def test_verify_check_rejects_a_failed_verdict(produced):
    ctx, out, stdout = produced("verify-g7")
    verdict = json.loads(stdout)
    verdict["passed"] = False
    with pytest.raises(bench.CheckFailed):
        bench.check_verify(ctx, out, json.dumps(verdict))


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("limit-g7", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
