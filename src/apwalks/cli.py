"""Command-line front end: generation -> spectrum -> dynamics -> analysis.

Subcommands: generate, spectrum, evolve, limit, orbits, verify. Any flag's
default can be overridden by an APWALKS_* environment variable (for example
APWALKS_GENERATION=3); explicit flags always win. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 capacity exceeded, 4 numeric failure.

Two commands use a second CPU when this process may run on two or more
(``fork.two_cpus``). Large CSV outputs (the limiting matrix, series and
eigenvectors) are formatted by two processes: this one writes the first half
of the rows while one forked child formats the rest. ``verify`` runs every
check but the eigendecomposition reconstruction in one forked child while
this process diagonalizes the largest generation and runs that check (see
``verify.run_verification``). Output bytes, and the verdict's check order,
are the same as from one process, and on one CPU everything runs in this
process. There is no flag for it. The CPU count is the affinity mask only;
the split assumes the second CPU is idle, and a cgroup CPU quota or a busy
second CPU leaves it with no gain and the cost of the fork.

Output bytes are reproducible for a fixed BLAS thread count only: the
eigensolver's last bits depend on it, and every value is printed with 17
significant digits, so the limiting-matrix CSV of ``limit -g 6`` differs
between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import shutil
import stat
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO, TextIO

from . import fork, serialize
from .dynamics import TimeGrid, evolve_series, limiting_matrix
from .network import (
    CapacityError,
    corner_group,
    generate_apollonian,
    laplacian,
    orbits,
)
from .spectral import (
    NumericError,
    default_degeneracy_tolerance,
    eigendecompose,
    group_degenerate,
)
from .serialize import CsvRows
from .symmetry import cluster_equal_limits, orbit_consistency
from .verify import run_verification

ENV_PREFIX = "APWALKS_"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NUMERIC = 4


class UsageError(ValueError):
    """Bad flag values or combinations."""


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _setting(cli_value, env_name: str, cast, fallback):
    """Resolve one option: explicit flag > environment variable > default."""
    if cli_value is not None:
        return cli_value
    raw = _env(env_name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise UsageError(f"invalid {ENV_PREFIX}{env_name}={raw!r}") from exc


#: Fewest values in a CSV body for which ``_write`` has a forked child format
#: the second half of the rows. Forking, waiting and appending cost about 4 ms
#: against about 1 us per value formatted, so with two idle CPUs the split
#: breaks even near 10,000 values; measured (one BLAS thread): 24,800 values
#: 26 -> 18 ms, 134,689 (chi at G=6) 118 -> 68 ms. When the second CPU is busy
#: the split gains nothing and costs the fixed 4 ms, hence the margin.
_SPLIT_MIN_VALUES = 25_000


def _write(chunks: str | Iterable[str], output: str | None) -> None:
    """Write text, or each chunk as it is produced, to ``output`` or stdout.

    Raises:
        UsageError: if ``output`` cannot be opened for writing.
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    if output is None:
        _write_to(sys.stdout, chunks)
        return
    try:
        fh = open(output, "w")
    except OSError as exc:
        raise UsageError(f"cannot write {output}: {exc.strerror or exc}") from exc
    with fh:
        _write_to(fh, chunks)


def _split_row(fh: TextIO, chunks: Iterable[str]) -> int:
    """The first row a forked child should format, or 0 to format every row here.

    Splitting needs two CPUs (``fork.two_cpus``), a target that takes bytes
    (``fh.buffer``, which ``io.StringIO`` lacks) and a ``CsvRows`` body of at
    least ``_SPLIT_MIN_VALUES`` values.
    """
    if not (isinstance(chunks, CsvRows) and chunks.values.size >= _SPLIT_MIN_VALUES
            and hasattr(fh, "buffer") and fork.two_cpus()):
        return 0
    return len(chunks) // 2


def _write_to(fh: TextIO, chunks: Iterable[str]) -> None:
    """Write the chunks to ``fh``; a large ``CsvRows`` body on two processes.

    This process writes the header and rows ``[0, mid)`` while a forked child
    formats rows ``[mid, n)`` into an unlinked temporary file, which is then
    copied to ``fh.buffer`` as bytes.
    """
    mid = _split_row(fh, chunks)
    if not mid:
        fh.writelines(chunks)
        return
    fh.write(chunks.header)
    with fork.child(lambda part: _write_rows(chunks, mid, part)) as join:
        fh.writelines(chunks.rows(0, mid))
        part = join()
        fh.flush()
        shutil.copyfileobj(part, fh.buffer)


def _write_rows(chunks: CsvRows, start: int, part: BinaryIO) -> None:
    """Write rows ``start..`` of ``chunks`` to ``part`` as text (in the forked child)."""
    with open(part.fileno(), "w", closefd=False) as fh:
        fh.writelines(chunks.rows(start, len(chunks)))


def _add_common(parser: argparse.ArgumentParser, *, source: bool = True) -> None:
    parser.add_argument("-g", "--generation", type=int, default=None,
                        help="network generation (required unless APWALKS_GENERATION is set)")
    if source:
        parser.add_argument("-s", "--source", type=int, default=None,
                            help="source node, 1-based (default: central node)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default: stdout)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apwalks",
        description="Coherent and classical continuous-time transport on Apollonian networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit the network as an edge list or JSON")
    _add_common(p, source=False)
    p.add_argument("--format", choices=("edgelist", "json"), default=None)

    p = sub.add_parser("spectrum", help="emit eigenvalues (and optionally eigenvectors)")
    _add_common(p, source=False)
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--eigenvectors", default=None, metavar="PATH",
                   help="also write the eigenvector matrix to PATH")

    p = sub.add_parser("evolve", help="emit a transition-probability time series")
    _add_common(p)
    p.add_argument("--t-min", type=float, default=None, help="first sample time (default 0.01)")
    p.add_argument("--t-max", type=float, default=None, help="last sample time (default 100)")
    p.add_argument("--t-steps", type=int, default=None, help="number of sample times (default 2000)")
    p.add_argument("--t-scale", choices=("lin", "log"), default=None,
                   help="sample spacing (default log)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--kind", choices=("classical", "quantum", "both"), default=None)
    p.add_argument("--wide", action="store_true",
                   help="CSV layout t,p_1..p_N instead of t,k,probability")

    p = sub.add_parser("limit", help="long-time limiting probabilities and value clusters")
    _add_common(p)
    p.add_argument("--tol-degeneracy", type=float, default=None,
                   help="eigenvalue gap below which eigenvalues are degenerate")
    p.add_argument("--tol-cluster", type=float, default=None,
                   help="gap below which limiting probabilities are equal (default 1e-9)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the cluster report JSON to PATH (default: stdout)")

    p = sub.add_parser("orbits", help="corner-automorphism orbit partition")
    _add_common(p)

    p = sub.add_parser("verify", help="run the built-in verification checks")
    p.add_argument("--max-generation", type=int, default=None,
                   help="largest generation the checks may build (default 3)")
    p.add_argument("-o", "--output", default=None, help="also write the JSON verdict to PATH")
    return parser


def _resolve_generation(args) -> int:
    generation = _setting(args.generation, "GENERATION", int, None)
    if generation is None:
        raise UsageError("--generation is required (or set APWALKS_GENERATION)")
    if generation < 0:
        raise UsageError(f"--generation must be non-negative, got {generation}")
    return generation


def _resolve_source(args, net) -> int:
    default = net.central_node if net.central_node is not None else 1
    source = _setting(args.source, "SOURCE", int, default)
    if not 1 <= source <= net.node_count:
        raise UsageError(
            f"--source must be in 1..{net.node_count}, got {source}"
        )
    return source


def _resolve_output(args) -> str | None:
    return _writable(_setting(args.output, "OUTPUT", str, None))


def _writable(path: str | None) -> str | None:
    """Return ``path`` once it is known that ``open(path, "w")`` can create it.

    Called before any work, so that a mistyped path costs nothing: a missing
    parent directory, a parent that is not a directory and a path that is a
    directory are usage errors here. ``_write`` still reports any other
    failure to open.
    """
    if path is None:
        return None
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            code = errno.ENOTDIR
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            return path
    except OSError as exc:
        code = exc.errno
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _tolerance(cli_value, env_name: str, fallback: float, flag: str) -> float:
    """Resolve a tolerance option; it must be finite and positive."""
    tol = _setting(cli_value, env_name, float, fallback)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"{flag} must be finite and positive, got {tol}")
    return tol


def _spectrum_for(net, args):
    s = eigendecompose(laplacian(net))
    tol = _tolerance(args.tol_degeneracy, "TOL_DEGENERACY",
                     default_degeneracy_tolerance(s), "--tol-degeneracy")
    return s, group_degenerate(s, tol)


def _resolve_format(args, choices: tuple[str, ...], command: str) -> str:
    """Resolve ``--format`` (default ``choices[0]``); an unknown one is a usage error."""
    fmt = _setting(args.format, "FORMAT", str, choices[0])
    if fmt not in choices:
        raise UsageError(f"unsupported format {fmt!r} for {command}")
    return fmt


def _cmd_generate(args) -> int:
    generation = _resolve_generation(args)
    fmt = _resolve_format(args, ("edgelist", "json"), "generate")
    output = _resolve_output(args)
    net = generate_apollonian(generation)
    if fmt == "json":
        text = serialize.network_to_json(net)
    else:
        text = serialize.network_to_edge_list(net)
    _write(text, output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    generation = _resolve_generation(args)
    fmt = _resolve_format(args, ("csv", "json"), "spectrum")
    output = _resolve_output(args)
    eigenvectors = _writable(args.eigenvectors)
    net = generate_apollonian(generation)
    s = eigendecompose(laplacian(net))
    if fmt == "json":
        doc = {"order": s.order,
               "eigenvalues": [float(serialize.format_float(v)) for v in s.eigenvalues]}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = serialize.spectrum_to_csv(s)
    _write(text, output)
    if eigenvectors is not None:
        _write(serialize.eigenvectors_to_csv(s), eigenvectors)
    return EXIT_OK


def _time_grid(args) -> TimeGrid:
    t_min = _setting(args.t_min, "T_MIN", float, 0.01)
    t_max = _setting(args.t_max, "T_MAX", float, 100.0)
    t_steps = _setting(args.t_steps, "T_STEPS", int, 2000)
    t_scale = _setting(args.t_scale, "T_SCALE", str, "log")
    if t_scale not in ("lin", "log"):
        raise UsageError(f"--t-scale must be lin or log, got {t_scale!r}")
    spacing = "logarithmic" if t_scale == "log" else "linear"
    try:
        return TimeGrid(start=t_min, end=t_max, steps=t_steps, spacing=spacing)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_evolve(args) -> int:
    generation = _resolve_generation(args)
    grid = _time_grid(args)
    kind = _setting(args.kind, "KIND", str, "quantum")
    if kind not in ("classical", "quantum", "both"):
        raise UsageError(f"--kind must be classical, quantum or both, got {kind!r}")
    fmt = _resolve_format(args, ("csv", "json"), "evolve")
    output = _setting(args.output, "OUTPUT", str, None)
    if kind != "both":
        outputs = {kind: _writable(output)}
    elif output is None:
        raise UsageError("--kind both requires --output (one file per kind)")
    else:
        path = Path(output)
        outputs = {one_kind: _writable(str(path.with_name(f"{path.stem}.{one_kind}{path.suffix}")))
                   for one_kind in ("classical", "quantum")}
    net = generate_apollonian(generation)
    source = _resolve_source(args, net)
    s = eigendecompose(laplacian(net))
    for one_kind, target in outputs.items():
        series = evolve_series(s, source, one_kind, grid)
        chunks = (serialize.series_to_json(series) if fmt == "json"
                  else serialize.series_to_csv(series, wide=args.wide))
        _write(chunks, target)
    return EXIT_OK


def _cmd_limit(args) -> int:
    generation = _resolve_generation(args)
    tol_cluster = _tolerance(args.tol_cluster, "TOL_CLUSTER", 1e-9, "--tol-cluster")
    fmt = _resolve_format(args, ("csv", "json"), "limit")
    output = _resolve_output(args)
    report_path = _writable(args.report)
    net = generate_apollonian(generation)
    source = _resolve_source(args, net)
    s, grouping = _spectrum_for(net, args)
    chi = limiting_matrix(s, grouping)
    clustering = cluster_equal_limits(chi.column(source), tol_cluster, source=source)
    partition = orbits(net, corner_group(net), fixed_source=source)
    consistency = orbit_consistency(clustering, partition)
    report = serialize.cluster_report_to_json(clustering, consistency)

    if output is not None:
        _write(serialize.limiting_matrix_to_json(chi) if fmt == "json"
               else serialize.limiting_matrix_to_csv(chi), output)
    _write(report, report_path)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    generation = _resolve_generation(args)
    output = _resolve_output(args)
    net = generate_apollonian(generation)
    fixed = None
    if args.source is not None or _env("SOURCE") is not None:
        fixed = _resolve_source(args, net)
    partition = orbits(net, corner_group(net), fixed_source=fixed)
    doc = {
        "generation": net.generation,
        "fixed_source": fixed,
        "group": partition.group_used,
        "classes": [list(c) for c in partition.classes],
    }
    _write(json.dumps(doc, indent=2) + "\n", output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    max_generation = _setting(args.max_generation, "MAX_GENERATION", int, 3)
    if max_generation < 0:
        raise UsageError(
            f"--max-generation must be non-negative, got {max_generation}"
        )
    output = _resolve_output(args)
    report = run_verification(max_generation)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    _write(text, None)
    if output is not None:
        _write(text, output)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "generate": _cmd_generate,
    "spectrum": _cmd_spectrum,
    "evolve": _cmd_evolve,
    "limit": _cmd_limit,
    "orbits": _cmd_orbits,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except CapacityError as exc:
        print(f"apwalks: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except UsageError as exc:
        print(f"apwalks: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"apwalks: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"apwalks: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
