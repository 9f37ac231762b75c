"""Benchmark of the ``apwalks`` CLI: end-to-end and per-layer timings.

Run from the repository root::

    python3 bench/run.py --workload evolve-g7 --seed 1 --seconds 36 --trace 0

Workloads (why each was chosen: ``bench/README.md``):

* ``evolve-g7``  ``apwalks evolve -g 7 -s SRC --kind both --t-steps 250 -o s.csv``
* ``limit-g7``   ``apwalks limit -g 7 -s SRC -o chi.csv --report rep.json``
* ``verify-g7``  ``apwalks verify --max-generation 7``

The seed picks the source node SRC; the program receives it only as ``-s``.
Every command runs from ``src`` as a subprocess, one at a time, with BLAS
pinned to one thread, through ``bench/peak.py``, which records its peak
resident set. Each output is checked (``check_*`` below); a run
that exits nonzero or fails its check counts as failed.

With ``--trace 0`` the run repeats the workload while another repetition
fits in ``--seconds``; between repetitions it times ``apwalks spectrum -g 7``
(the set-up prefix every workload pays) for a fixed share of the elapsed
time, and it reports the end-to-end metrics. With ``--trace 1`` it repeats
a traced run (``bench/traced.py``) instead and reports the per-layer metrics.

The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the run's details: seed, source, argv, samples,
check results, output digests and the environment. Exit code 2 means the
benchmark could not run at all (for example, no ``src/apwalks`` here).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: BLAS threads for the measured commands and for this process. One thread
#: keeps a 2-core machine steady and shows work moved onto extra threads in
#: ``cpu_s``; pinning this process too stops idle BLAS workers from spinning
#: beside a measured command.
BLAS_THREADS = "1"
PINNED_ENV = {name: BLAS_THREADS for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402  (after pinning BLAS threads)

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_GENERATION = 7
T_STEPS = 250
#: The CLI's default evolve grid: 0.01 .. 100, logarithmic.
T_MIN, T_MAX = 0.01, 100.0
#: Share of a run's elapsed time spent timing the set-up command, spread
#: between workload repetitions so that set-up and workload see the same host.
SETUP_SHARE = 0.2
#: Fewest set-up timings and import probes per run; medians are reported.
SETUP_MIN_SAMPLES = 5
IMPORT_REPEATS = 5
#: Row sums and chi column sums must hit 1 this closely (the program's own SUM_TOL).
SUM_TOL = 1e-10
#: chi must be symmetric to this (the program's LimitingMatrix check).
SYMMETRY_TOL = 1e-12
#: Allowed gap between an output probability and the same entry from
#: scipy.linalg.expm. Scaling and squaring loses about eps * t * ||H|| per
#: entry, ~2e-13 measured at t = 100, G = 7; the tolerance leaves > 1000x.
EXPM_TOL = 1e-9

VERIFY_CHECKS = (
    "eq_g1", "eq_g2", "perfect_revivals", "partial_revival_g3", "equipartition",
    "localization", "cluster_structure_g3", "unexplained_pairs", "return_growth",
    "unitarity_stochasticity", "pair_symmetry", "equivariance", "reconstruction",
    "time_average", "taylor_oracle",
)


class CheckFailed(Exception):
    """A command's output is wrong."""


class BenchError(Exception):
    """The benchmark cannot run here."""


# -- inputs --------------------------------------------------------------------

def node_count(generation: int) -> int:
    return 3 + (3**generation - 1) // 2


def choose_source(seed: int, generation: int) -> int:
    """The source node for a seed: uniform over 1..N, fixed by the seed."""
    return random.Random(seed).randrange(1, node_count(generation) + 1)


@dataclass
class Context:
    """Everything one benchmark run derives from its arguments."""

    workload: str
    seed: int
    generation: int
    root: Path
    tmp: Path
    source: int | None = None
    reference: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return node_count(self.generation)

    def env(self) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("APWALKS_")}
        env.update(PINNED_ENV)
        env["PYTHONPATH"] = str(self.root / "src")
        return env


def evolve_argv(ctx: Context, out: Path) -> list[str]:
    return ["evolve", "-g", str(ctx.generation), "-s", str(ctx.source), "--kind", "both",
            "--t-steps", str(T_STEPS), "-o", str(out / "s.csv")]


def limit_argv(ctx: Context, out: Path) -> list[str]:
    return ["limit", "-g", str(ctx.generation), "-s", str(ctx.source),
            "-o", str(out / "chi.csv"), "--report", str(out / "rep.json")]


def verify_argv(ctx: Context, out: Path) -> list[str]:
    return ["verify", "--max-generation", str(ctx.generation)]


# -- correctness checks ----------------------------------------------------------

def _read_table(path: Path, header: str, rows: int) -> np.ndarray:
    """A CSV output as numbers; a missing, malformed or non-finite table fails the check."""
    try:
        first, _, body = path.read_bytes().partition(b"\n")
        if first.decode() != header:
            raise CheckFailed(f"{path.name}: header {first[:40]!r}, expected {header!r}")
        data = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: cannot be read: {exc!r}") from exc
    if data.shape != (rows, 3):
        raise CheckFailed(f"{path.name}: shape {data.shape}, expected {(rows, 3)}")
    if not np.isfinite(data).all():
        raise CheckFailed(f"{path.name}: a value is not finite")
    return data


def prepare_evolve(ctx: Context) -> None:
    """Reference columns from an independent route: scipy.linalg.expm of -tH, -itH."""
    from scipy.linalg import expm

    from apwalks.network import generate_apollonian

    n, j = ctx.n, ctx.source - 1
    h = np.zeros((n, n))
    for a, b in generate_apollonian(ctx.generation).edges:
        h[a - 1, b - 1] = h[b - 1, a - 1] = -1.0
    h[np.diag_indices(n)] = -h.sum(axis=1)
    times = np.geomspace(T_MIN, T_MAX, T_STEPS)
    index = random.Random(ctx.seed).randrange(T_STEPS)
    t = float(times[index])
    ctx.reference = {
        "times": times,
        "index": index,
        "classical": expm(-t * h)[:, j],
        "quantum": np.abs(expm(-1j * t * h)[:, j]) ** 2,
    }


def check_evolve(ctx: Context, out: Path, stdout: str) -> dict:
    """Both series: layout, rows sum to 1, entries in [0, 1], expm agreement."""
    ref, n = ctx.reference, ctx.n
    info = {"reference_time": float(ref["times"][ref["index"]])}
    for kind in ("classical", "quantum"):
        data = _read_table(out / f"s.{kind}.csv", "t,k,probability", n * T_STEPS)
        t, k, p = (data[:, c].reshape(T_STEPS, n) for c in range(3))
        if not (k == np.arange(1, n + 1)).all():
            raise CheckFailed(f"{kind}: node column is not 1..{n} per time")
        if not ((t == t[:, :1]).all() and np.allclose(t[:, 0], ref["times"], rtol=1e-12, atol=0)):
            raise CheckFailed(f"{kind}: time column does not match the grid")
        if p.min() < 0.0 or p.max() > 1.0:
            raise CheckFailed(f"{kind}: entry outside [0, 1] ({p.min()!r}, {p.max()!r})")
        sum_error = float(np.abs(p.sum(axis=1) - 1.0).max())
        if sum_error > SUM_TOL:
            raise CheckFailed(f"{kind}: a row sums to 1 only within {sum_error:.3e}")
        deviation = float(np.abs(p[ref["index"]] - ref[kind]).max())
        if deviation > EXPM_TOL:
            raise CheckFailed(f"{kind}: differs from expm by {deviation:.3e} at t={info['reference_time']}")
        info[f"{kind}_sum_error"] = sum_error
        info[f"{kind}_expm_deviation"] = deviation
    return info


def check_limit(ctx: Context, out: Path, stdout: str) -> dict:
    """chi is symmetric, nonnegative, columns sum to 1; the report parses.

    The cluster count is recorded, never required: the clustering tolerance
    is known to merge unequal values and its fix will change the count.
    """
    n = ctx.n
    data = _read_table(out / "chi.csv", "j,k,chi", n * n)
    nodes = np.arange(1, n + 1)
    if not ((data[:, 0] == np.repeat(nodes, n)).all() and (data[:, 1] == np.tile(nodes, n)).all()):
        raise CheckFailed("chi.csv: (j, k) columns are not in row-major order")
    chi = data[:, 2].reshape(n, n).T  # chi[k-1, j-1]
    asymmetry = float(np.abs(chi - chi.T).max())
    if asymmetry > SYMMETRY_TOL:
        raise CheckFailed(f"chi is not symmetric (max |chi - chi^T| = {asymmetry:.3e})")
    if chi.min() < 0.0:
        raise CheckFailed("chi has a negative entry")
    column_error = float(np.abs(chi.sum(axis=0) - 1.0).max())
    if column_error > SUM_TOL:
        raise CheckFailed(f"chi columns sum to 1 only within {column_error:.3e}")
    try:
        report = json.loads((out / "rep.json").read_text())
        clusters = [c["nodes"] for c in report["clusters"]]
        pairs = report["unexplained_pairs"]
        source = report["source"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"cluster report does not parse: {exc!r}") from exc
    if source != ctx.source:
        raise CheckFailed(f"report is for source {source}, expected {ctx.source}")
    if sorted(node for c in clusters for node in c) != list(range(1, n + 1)):
        raise CheckFailed("report clusters do not cover every node exactly once")
    return {"chi_asymmetry": asymmetry, "chi_column_error": column_error,
            "clusters": len(clusters), "unexplained_pairs": len(pairs)}


def check_verify(ctx: Context, out: Path, stdout: str) -> dict:
    """The verdict parses and says passed."""
    try:
        verdict = json.loads(stdout)
        passed, checks = verdict["passed"], verdict["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"verify output does not parse: {exc!r}") from exc
    if passed is not True:
        failing = [c.get("name") for c in checks if not c.get("passed")]
        raise CheckFailed(f"verify did not pass: {failing}")
    return {"checks": len(checks)}


@dataclass(frozen=True)
class Workload:
    argv: Callable[[Context, Path], list[str]]
    check: Callable[[Context, Path, str], dict]
    outputs: tuple[str, ...]  # files hashed for the record
    prepare: Callable[[Context], None] | None = None
    takes_source: bool = True


WORKLOADS = {
    "evolve-g7": Workload(evolve_argv, check_evolve, ("s.classical.csv", "s.quantum.csv"),
                          prepare=prepare_evolve),
    "limit-g7": Workload(limit_argv, check_limit, ("chi.csv", "rep.json")),
    "verify-g7": Workload(verify_argv, check_verify, ("stdout",), takes_source=False),
}


# -- measurement -------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    error: str | None = None
    info: dict | None = None
    digest: str | None = None


def spawn(cmd: list[str], ctx: Context, out: Path) -> Sample:
    """Run one command to completion; wall time from spawn to exit, rusage via wait4.

    ``peak_rss_mb`` here is ``ru_maxrss``, which includes this process's own
    resident set; ``run_workload`` replaces it by the command's own peak.
    """
    with open(out / "stdout", "wb") as stdout, open(out / "stderr", "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=ctx.env(), cwd=ctx.root)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def fresh_dir(ctx: Context, name: str) -> Path:
    path = ctx.tmp / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_workload(ctx: Context, traced_spans: Path | None = None) -> Sample:
    """One run of the workload's command, checked; traced through bench/traced.py if asked."""
    workload = WORKLOADS[ctx.workload]
    out = fresh_dir(ctx, "out")
    argv = workload.argv(ctx, out)
    if traced_spans is None:
        cmd = [sys.executable, str(BENCH_DIR / "peak.py"), str(out / "peak_kb"), "--", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced.py"), str(traced_spans), "--", *argv]
    sample = spawn(cmd, ctx, out)
    stdout = (out / "stdout").read_text(errors="replace")
    if sample.exit_code != 0:
        stderr = (out / "stderr").read_text(errors="replace").strip()
        sample.error = f"exit code {sample.exit_code}: {stderr[-300:]}"
        return sample
    if traced_spans is None:
        try:
            sample.peak_rss_mb = int((out / "peak_kb").read_text()) / 1024.0
        except (OSError, ValueError) as exc:
            sample.error = f"no peak RSS record: {exc!r}"
            return sample
    try:
        sample.info = workload.check(ctx, out, stdout)
    except CheckFailed as exc:
        sample.error = str(exc)
    digest = hashlib.sha256()
    for name in workload.outputs:
        if (out / name).is_file():
            digest.update((out / name).read_bytes())
    sample.digest = digest.hexdigest()
    return sample


def setup_once(ctx: Context) -> float:
    """Wall time of ``apwalks spectrum -g G``: interpreter, import, generate, Laplacian, eigh."""
    out = fresh_dir(ctx, "setup")
    sample = spawn([sys.executable, "-m", "apwalks.cli", "spectrum", "-g", str(ctx.generation),
                    "-o", str(out / "spectrum.csv")], ctx, out)
    if sample.exit_code != 0:
        raise BenchError(f"set-up command failed with exit code {sample.exit_code}")
    lines = (out / "spectrum.csv").read_text().splitlines()
    if not lines or lines[0] != "index,eigenvalue" or len(lines) != ctx.n + 1:
        raise BenchError("set-up command wrote a malformed spectrum")
    return sample.wall_s


def import_samples(ctx: Context) -> list[float]:
    out = fresh_dir(ctx, "import")
    walls = []
    for _ in range(IMPORT_REPEATS):
        sample = spawn([sys.executable, "-c", "import apwalks"], ctx, out)
        if sample.exit_code != 0:
            raise BenchError("`import apwalks` failed")
        walls.append(sample.wall_s)
    return walls


def repeat_for(seconds: float, step) -> None:
    """Call ``step`` once, then again while another call should end within ``seconds``."""
    start = time.perf_counter()
    step()
    longest = time.perf_counter() - start
    while True:
        now = time.perf_counter()
        if now + longest > start + seconds:
            return
        step()
        longest = max(longest, time.perf_counter() - now)


# -- per-layer metrics from spans ----------------------------------------------------

def layer_metrics(doc: dict) -> dict:
    """Per-layer metrics of one traced command, from bench/traced.py's span file."""
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    observed: dict[str, list] = {}
    top_level = 0.0
    for name, parent, start, end, seen in doc["spans"]:
        totals[name] = totals.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        observed.setdefault(name, []).append(seen)
        if parent is None:
            top_level += end - start

    def seconds(*names: str) -> float:
        return sum(totals.get(n, 0.0) for n in names)

    def count(*names: str) -> int:
        return sum(calls.get(n, 0) for n in names)

    groupings = observed.get("spectral.group_degenerate", [])
    order, distinct, largest = max(groupings) if groupings else (0, 0, 0)
    point = ("dynamics.quantum_probability", "dynamics.classical_probability")
    serialize_names = [n for n in totals if n.startswith("serialize.")]
    bytes_out = sum(sum(v for v in observed[n] if v) for n in serialize_names)
    serialize_s = seconds(*serialize_names)
    checks = [v for n in totals if n.startswith("verify.check.") for v in observed[n]]
    metrics = {
        "network.generate_s": seconds("network.generate_apollonian"),
        "network.laplacian_s": seconds("network.laplacian"),
        "network.orbits_s": seconds("network.corner_group", "network.orbits"),
        "spectral.eigendecompose_s": seconds("spectral.eigendecompose"),
        "spectral.eigendecompose_calls": count("spectral.eigendecompose"),
        "spectral.group_s": seconds("spectral.group_degenerate", "spectral.default_degeneracy_tolerance"),
        "spectral.distinct_eigenvalues": distinct,
        "spectral.largest_eigenspace": largest,
        "dynamics.evolve_series.quantum_s": seconds("dynamics.evolve_series.quantum"),
        "dynamics.evolve_series.classical_s": seconds("dynamics.evolve_series.classical"),
        "dynamics.snapshots": sum(sum(observed.get(f"dynamics.evolve_series.{k}", []))
                                  for k in ("quantum", "classical")),
        "dynamics.limiting_matrix_s": seconds("dynamics.limiting_matrix"),
        "dynamics.point_calls": count(*point),
        "dynamics.point_call_us": 1e6 * seconds(*point) / count(*point) if count(*point) else 0.0,
        "dynamics.revival_scan_s": seconds("dynamics.max_return_probability"),
        "dynamics.time_average_s": seconds("dynamics.finite_time_average"),
        "symmetry.cluster_s": seconds("symmetry.cluster_equal_limits"),
        "symmetry.consistency_s": seconds("symmetry.orbit_consistency"),
        # For limit these are the seed's source; for verify, its last call.
        "symmetry.clusters": (observed.get("symmetry.cluster_equal_limits") or [0])[-1],
        "symmetry.unexplained_pairs": (observed.get("symmetry.orbit_consistency") or [0])[-1],
        "serialize.series_to_csv_s": seconds("serialize.series_to_csv"),
        "serialize.limiting_matrix_to_csv_s": seconds("serialize.limiting_matrix_to_csv"),
        "serialize.report_s": seconds("serialize.cluster_report_to_json"),
        "serialize.bytes_out": bytes_out,
        "serialize.mb_per_s": bytes_out / serialize_s / 1e6 if serialize_s else 0.0,
        "cli.unaccounted_s": doc["total_s"] - top_level,
        "trace.overhead_s": doc["wrap_cost_s"] * len(doc["spans"]),
        "verify.checks_run": len(checks),
        "verify.checks_passed": sum(1 for passed in checks if passed),
    }
    for check in VERIFY_CHECKS:
        metrics[f"verify.check.{check}_s"] = seconds(f"verify.check.{check}")
    return metrics


# -- environment and output ----------------------------------------------------------

def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                             cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(samples: list[Sample], values: dict, trace: bool) -> dict:
    units = declared_metrics(trace)
    if set(units) != set(values):
        raise BenchError(f"metrics {sorted(set(units) ^ set(values))} disagree with BENCHMARK.json")
    failed = sum(1 for s in samples if s.error)
    return {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _median(values: list) -> float | int:
    """Median of a metric's samples; counts take an actual sample so they stay whole."""
    if not values:
        return 0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def measure_end_to_end(ctx: Context, seconds: float, samples: list[Sample], details: dict) -> dict:
    setup: list[float] = []
    start = time.perf_counter()

    def step() -> None:
        samples.append(run_workload(ctx))
        while sum(setup) < SETUP_SHARE * (time.perf_counter() - start):
            setup.append(setup_once(ctx))

    repeat_for(seconds, step)
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(setup_once(ctx))
    details["setup_s_samples"] = setup
    return {
        "wall_s": _median([s.wall_s for s in samples]),
        "cpu_s": _median([s.cpu_s for s in samples]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in samples]),
        "setup_s": _median(setup),
        "pass_ratio": sum(1 for s in samples if not s.error) / len(samples),
    }


def measure_layers(ctx: Context, seconds: float, samples: list[Sample], details: dict) -> dict:
    imports = import_samples(ctx)
    spans = ctx.tmp / "spans.json"
    layers: list[dict] = []

    def step() -> None:
        sample = run_workload(ctx, traced_spans=spans)
        samples.append(sample)
        if sample.exit_code != 0:
            return
        try:
            layers.append(layer_metrics(json.loads(spans.read_text())))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            sample.error = sample.error or f"span file does not parse: {exc!r}"

    repeat_for(seconds, step)
    names = layer_metrics({"spans": [], "total_s": 0.0, "wrap_cost_s": 0.0})
    values = {name: _median([m[name] for m in layers]) for name in names}
    values["cli.import_s"] = _median(imports)
    details["cli.import_s_samples"] = imports
    return values


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generation", type=int, default=DEFAULT_GENERATION,
                        help="network generation of every command (smaller only to test the harness)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "apwalks" / "cli.py").is_file():
        print("bench: no src/apwalks here; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    ctx = Context(args.workload, args.seed, args.generation, root,
                  root / ".bench_tmp" / f"{args.workload}-{os.getpid()}")
    if workload.takes_source:
        ctx.source = choose_source(args.seed, args.generation)
    samples: list[Sample] = []
    details: dict = {"workload": args.workload, "seed": args.seed, "source": ctx.source,
                     "argv": workload.argv(ctx, Path("<tmp>")), "trace": args.trace,
                     "seconds": args.seconds}
    try:
        if workload.prepare is not None:
            workload.prepare(ctx)
        measure = measure_layers if args.trace else measure_end_to_end
        values = measure(ctx, args.seconds, samples, details)
        result = result_line(samples, values, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(ctx.tmp, ignore_errors=True)
        try:
            ctx.tmp.parent.rmdir()
        except OSError:
            pass  # another run's files are still there
    details.update(
        fail_ratio=result["failed"] / result["attempted"],
        wall_s_samples=[s.wall_s for s in samples],
        failures=[s.error for s in samples if s.error],
        checks=[s.info for s in samples],
        output_sha256=sorted({s.digest for s in samples if s.digest}),
        environment=environment(),
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} fail_ratio = {details['fail_ratio']!r} ratio "
          f"({result['failed']} of {result['attempted']} runs failed; times are medians over them)")
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
