"""Command-line front end: generation -> spectrum -> dynamics -> analysis.

Subcommands: generate, spectrum, evolve, limit, orbits, verify. Each builds
its network, spectrum and limiting matrix through ``verify.Pipeline``. Every
setting is a flag, with its default in the parser. ``main`` is the one place
that maps a failure to an exit code, one exception type per code:

- 0: success.
- 1: ``verify`` ran and one of its checks failed.
- 2 (``ValueError`` or ``OSError``): usage error. A bad flag value or
  combination, or an output path or stdout that cannot be opened, written or
  closed (such as a full device or a closed pipe).
- 3 (``network.CapacityError``): a generation above ``GENERATION_CAP``, or
  an ``evolve`` grid whose output would exceed ``SERIES_VALUE_CAP`` values
  (about 3 GB of CSV), refused before any work.
- 4 (``spectral.NumericError``): numeric failure, also eigenvalues too close
  to group (``spectral.default_degeneracy_tolerance``, reached through
  ``verify.Pipeline.grouping``). ``limit``, ``evolve`` and ``verify`` group
  the spectrum they read at every G: ``evolve`` propagates over the source's
  eigenspaces (``dynamics.source_projections``). ``spectrum`` reaches the
  same rule at G >= 6, whose spectrum is built from G-1's grouping
  (``spectral.spectrum_from_copies``, which also refuses a G-1 spectrum off
  its structure). ``evolve`` propagates its rows a block of times at a time
  as it writes them, so its output may hold the rows of the blocks before
  the failing one.

Four commands use a second CPU when this process may run on two or more,
through ``fork.split``. ``spectrum --eigenvectors``, ``evolve`` and ``limit``
split every CSV or JSON body of two parts or more (``serialize.Rows.parts``):
a series of two blocks or more, and the eigenvectors and limiting matrix
from G=6 on, which exceed one block of values. This process writes the parts
before the edge nearest the middle row while one forked child formats the
rest, so no series block is propagated twice. ``verify`` splits its checks:
it runs every check but the eigendecomposition reconstruction in one forked
child while this process runs that check, largest generation first (see
``verify.run_verification``). Output bytes, and the verdict's check order,
are the same as from one process, and on one CPU everything runs in this
process. If the child fails, for any reason, this process runs the child's
share itself, so exit codes and messages are those of one CPU too. There is
no flag for it. The CPU count is the affinity mask only; the split assumes
the second CPU is idle and adds throughput. A cgroup CPU quota, a busy second
CPU, or an idle one that adds no throughput (a host may give two CPUs of one
core's speed) leaves it with no gain and the cost of the fork.

Output bytes are reproducible for a fixed BLAS thread count only: the
eigensolver's last bits depend on it, and every value is printed with 17
significant digits, so the limiting-matrix CSV of ``limit -g 6`` differs
between one and two OpenBLAS threads.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import stat
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import BinaryIO, TextIO

from . import fork, serialize
from .dynamics import TimeGrid, evolve_series
from .network import (
    GENERATION_CAP,
    SERIES_VALUE_CAP,
    CapacityError,
    node_count_for_generation,
    orbits,
)
from .spectral import NumericError
from .serialize import Rows
from .symmetry import cluster_equal_limits, orbit_consistency
from .verify import Pipeline, run_verification

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_NUMERIC = 4


def _write(chunks: str | Iterable[str], output: str | None) -> None:
    """Write text, or each chunk as it is produced, to ``output`` or stdout.

    Raises:
        ValueError: if ``output`` cannot be opened, written or closed, or
            stdout cannot be written (``stdout`` names it in the message).
    """
    if isinstance(chunks, str):
        chunks = (chunks,)
    try:
        if output is None:
            _write_to(sys.stdout, chunks)
            sys.stdout.flush()
        else:
            with open(output, "w") as fh:
                _write_to(fh, chunks)
    except OSError as exc:
        if output is None:
            # Python's shutdown flush of stdout would fail again and print more.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise ValueError(
            f"cannot write {output or 'stdout'}: {exc.strerror or exc}"
        ) from exc


def _write_to(fh: TextIO, chunks: Iterable[str]) -> None:
    """Write the chunks to ``fh``; a ``Rows`` body of two parts or more on two processes.

    Splitting needs a target that takes bytes (``fh.buffer``, which
    ``io.StringIO`` lacks) and a ``Rows`` body of two parts or more
    (``Rows.parts``), which is all the split reads of the body. Then the body
    splits at the part edge nearest its middle row: through ``fork.split``,
    this process writes the head and the first parts while a forked child
    formats the others into an unlinked temporary file, which is then copied
    to ``fh.buffer`` as bytes, followed by the tail. Rows are ASCII, so the
    child encodes them itself. On one CPU, or if the child fails, this
    process formats the other parts itself.
    """
    parts = chunks.parts() if isinstance(chunks, Rows) and hasattr(fh, "buffer") else []
    if len(parts) < 2:
        fh.writelines(chunks)
        return
    mid = min(range(1, len(parts)), key=lambda i: abs(2 * parts[i].start - parts[-1].stop))
    first, second = parts[:mid], parts[mid:]

    def copy(part: BinaryIO) -> None:
        fh.flush()
        shutil.copyfileobj(part, fh.buffer)

    fh.write(chunks.head)
    fork.split(lambda: fh.writelines(chunks.rows(first)),
               lambda part: part.writelines(row.encode() for row in chunks.rows(second)),
               copy, lambda: fh.writelines(chunks.rows(second)))
    fh.write(chunks.tail)


def _add_common(parser: argparse.ArgumentParser, *, source: bool = True) -> None:
    parser.add_argument("-g", "--generation", type=int, required=True,
                        help="network generation")
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
    p.add_argument("--format", choices=("edgelist", "json"), default="edgelist",
                   help="output format (default %(default)s)")

    p = sub.add_parser("spectrum", help="emit eigenvalues (and optionally eigenvectors)")
    _add_common(p, source=False)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--eigenvectors", default=None, metavar="PATH",
                   help="also write the eigenvector matrix to PATH")

    p = sub.add_parser("evolve", help="emit a transition-probability time series")
    _add_common(p)
    p.add_argument("--t-min", type=float, default=0.01,
                   help="first sample time (default %(default)s)")
    p.add_argument("--t-max", type=float, default=100.0,
                   help="last sample time (default %(default)s)")
    p.add_argument("--t-steps", type=int, default=2000,
                   help="number of sample times (default %(default)s)")
    p.add_argument("--t-scale", choices=("lin", "log"), default="log",
                   help="sample spacing (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="output format (default %(default)s)")
    p.add_argument("--kind", choices=("classical", "quantum", "both"), default="quantum",
                   help="walk to propagate (default %(default)s)")
    p.add_argument("--wide", action="store_true",
                   help="CSV layout t,p_1..p_N instead of t,k,probability")

    p = sub.add_parser("limit", help="long-time limiting probabilities and value clusters")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="format of the -o limiting-matrix file; the report is always "
                        "JSON (default %(default)s)")
    p.add_argument("--report", default=None, metavar="PATH",
                   help="write the cluster report JSON to PATH (default: stdout)")

    p = sub.add_parser("orbits", help="corner-automorphism orbit partition")
    _add_common(p)

    p = sub.add_parser("verify", help="run the built-in verification checks")
    p.add_argument("--max-generation", type=int, default=3,
                   help="largest generation the checks may build (default %(default)s)")
    p.add_argument("-o", "--output", default=None, help="also write the JSON verdict to PATH")
    return parser


def _source(args, net) -> int:
    """``--source``, or the central node (node 1 at G=0) when it is not given."""
    if args.source is None:
        return net.central_node if net.central_node is not None else 1
    if not 1 <= args.source <= net.node_count:
        raise ValueError(f"--source must be in 1..{net.node_count}, got {args.source}")
    return args.source


def _writable(path: str | None) -> str | None:
    """Return ``path`` once it is known that ``open(path, "w")`` can create it.

    Called before any work, so that a mistyped path costs nothing: an empty
    path, a missing parent directory, a parent that is not a directory and a
    path that is a directory are usage errors here. ``_write`` still reports
    any other failure to open.
    """
    if path is None:
        return None
    try:
        if not path:  # as open("") fails; dirname("") below would stand for "."
            code = errno.ENOENT
        elif not stat.S_ISDIR(os.stat(os.path.dirname(path) or ".").st_mode):
            code = errno.ENOTDIR
        elif os.path.isdir(path):
            code = errno.EISDIR
        else:
            return path
    except OSError as exc:
        code = exc.errno
    raise ValueError(f"cannot write {path}: {os.strerror(code)}")


def _distinct(first: str | None, second: str | None) -> None:
    """Refuse two outputs that are one regular file, hard links too; ``/dev/null`` may repeat."""
    if first is None or second is None:
        return
    if (os.path.isfile(second) and os.path.exists(first) and os.path.samefile(first, second)
            or not os.path.exists(second) and os.path.realpath(first) == os.path.realpath(second)):
        raise ValueError(f"cannot write {second}: another output, {first}, is the same file")


def _cmd_generate(args) -> int:
    output = _writable(args.output)
    net = Pipeline().net(args.generation)
    if args.format == "json":
        text = serialize.network_to_json(net)
    else:
        text = serialize.network_to_edge_list(net)
    _write(text, output)
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    output = _writable(args.output)
    eigenvectors = _writable(args.eigenvectors)
    _distinct(output, eigenvectors)
    s = Pipeline().spectrum(args.generation)
    _write(serialize.spectrum_to_json(s) if args.format == "json"
           else serialize.spectrum_to_csv(s), output)
    if eigenvectors is not None:
        _write(serialize.eigenvectors_to_csv(s), eigenvectors)
    return EXIT_OK


def _cmd_evolve(args) -> int:
    grid = TimeGrid(start=args.t_min, end=args.t_max, steps=args.t_steps,
                    spacing="logarithmic" if args.t_scale == "log" else "linear")
    # A generation above its cap is refused when the network is built.
    if args.generation <= GENERATION_CAP:
        n = node_count_for_generation(args.generation)
        if grid.steps * n > SERIES_VALUE_CAP:
            raise CapacityError(
                f"a series of {grid.steps} times on N = {n} nodes exceeds the cap "
                f"of {SERIES_VALUE_CAP} values"
            )
    if args.format == "json" and args.wide:
        raise ValueError("--wide applies to CSV output only")
    output = _writable(args.output)
    if args.kind != "both":
        outputs = {args.kind: output}
    elif output is None:
        raise ValueError("--kind both requires --output (one file per kind)")
    else:
        path = Path(output)
        outputs = {one_kind: _writable(str(path.with_name(f"{path.stem}.{one_kind}{path.suffix}")))
                   for one_kind in ("classical", "quantum")}
        _distinct(*outputs.values())
    pipe = Pipeline()
    projections = pipe.projections(args.generation, _source(args, pipe.net(args.generation)))
    del pipe  # and its spectra: the series read W_j alone
    for one_kind, target in outputs.items():
        # By keyword: bench/traced.py names the span after the kind.
        series = evolve_series(projections, kind=one_kind, grid=grid)
        _write(serialize.series_to_json(series) if args.format == "json"
               else serialize.series_to_csv(series, wide=args.wide), target)
    return EXIT_OK


def _cmd_limit(args) -> int:
    output = _writable(args.output)
    report_path = _writable(args.report)
    _distinct(output, report_path)
    pipe = Pipeline()
    net = pipe.net(args.generation)
    source = _source(args, net)
    chi = pipe.chi(args.generation)
    del pipe  # and its spectra: the rest reads chi and the network alone
    clustering = cluster_equal_limits(chi.column(source), source)
    partition = orbits(net, fixed_source=source)
    consistency = orbit_consistency(clustering, partition)
    report = serialize.cluster_report_to_json(clustering, consistency)

    if output is not None:
        _write(serialize.limiting_matrix_to_json(chi) if args.format == "json"
               else serialize.limiting_matrix_to_csv(chi), output)
    _write(report, report_path)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    output = _writable(args.output)
    net = Pipeline().net(args.generation)
    fixed = None if args.source is None else _source(args, net)
    partition = orbits(net, fixed_source=fixed)
    doc = {
        "generation": net.generation,
        "fixed_source": fixed,
        "group": partition.group_used,
        "classes": [list(c) for c in partition.classes],
    }
    _write(json.dumps(doc, indent=2) + "\n", output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    output = _writable(args.output)
    verdict = run_verification(args.max_generation)
    text = json.dumps(verdict, indent=2) + "\n"
    _write(text, None)
    if output is not None:
        _write(text, output)
    return EXIT_OK if verdict["passed"] else EXIT_VERIFY_FAILED


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
    except CapacityError as exc:  # before ValueError, its base class
        print(f"apwalks: capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except NumericError as exc:
        print(f"apwalks: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"apwalks: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
