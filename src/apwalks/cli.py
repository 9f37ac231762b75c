"""Command-line front end: generation -> spectrum -> dynamics -> analysis.

Subcommands: generate, spectrum, evolve, limit, orbits, verify. Any flag's
default can be overridden by an APWALKS_* environment variable (for example
APWALKS_GENERATION=3); explicit flags always win. Exit codes: 0 success,
1 verification failure, 2 usage error, 3 capacity exceeded, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import serialize
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


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


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
    return _setting(args.output, "OUTPUT", str, None)


def _spectrum_for(net, args):
    s = eigendecompose(laplacian(net))
    tol = _setting(args.tol_degeneracy, "TOL_DEGENERACY", float,
                   default_degeneracy_tolerance(s))
    if not tol > 0:
        raise UsageError(f"--tol-degeneracy must be positive, got {tol}")
    return s, group_degenerate(s, tol)


def _cmd_generate(args) -> int:
    net = generate_apollonian(_resolve_generation(args))
    fmt = _setting(args.format, "FORMAT", str, "edgelist")
    if fmt == "json":
        text = serialize.network_to_json(net)
    elif fmt == "edgelist":
        text = serialize.network_to_edge_list(net)
    else:
        raise UsageError(f"unsupported format {fmt!r} for generate")
    _write(text, _resolve_output(args))
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    net = generate_apollonian(_resolve_generation(args))
    s = eigendecompose(laplacian(net))
    fmt = _setting(args.format, "FORMAT", str, "csv")
    if fmt == "json":
        doc = {"order": s.order,
               "eigenvalues": [float(serialize.format_float(v)) for v in s.eigenvalues]}
        text = json.dumps(doc, indent=2) + "\n"
    elif fmt == "csv":
        text = serialize.spectrum_to_csv(s)
    else:
        raise UsageError(f"unsupported format {fmt!r} for spectrum")
    _write(text, _resolve_output(args))
    if args.eigenvectors is not None:
        Path(args.eigenvectors).write_text(serialize.eigenvectors_to_csv(s))
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
    net = generate_apollonian(_resolve_generation(args))
    source = _resolve_source(args, net)
    grid = _time_grid(args)
    kind = _setting(args.kind, "KIND", str, "quantum")
    fmt = _setting(args.format, "FORMAT", str, "csv")
    if fmt not in ("csv", "json"):
        raise UsageError(f"unsupported format {fmt!r} for evolve")
    output = _resolve_output(args)
    kinds = ("classical", "quantum") if kind == "both" else (kind,)
    if kind == "both" and output is None:
        raise UsageError("--kind both requires --output (one file per kind)")
    s = eigendecompose(laplacian(net))
    for one_kind in kinds:
        series = evolve_series(s, source, one_kind, grid)
        text = (serialize.series_to_json(series) if fmt == "json"
                else serialize.series_to_csv(series, wide=args.wide))
        if kind == "both":
            path = Path(output)
            _write(text, str(path.with_name(f"{path.stem}.{one_kind}{path.suffix}")))
        else:
            _write(text, output)
    return EXIT_OK


def _cmd_limit(args) -> int:
    net = generate_apollonian(_resolve_generation(args))
    source = _resolve_source(args, net)
    s, grouping = _spectrum_for(net, args)
    chi = limiting_matrix(s, grouping)
    tol_cluster = _setting(args.tol_cluster, "TOL_CLUSTER", float, 1e-9)
    if not tol_cluster > 0:
        raise UsageError(f"--tol-cluster must be positive, got {tol_cluster}")
    clustering = cluster_equal_limits(chi.column(source), tol_cluster, source=source)
    partition = orbits(net, corner_group(net), fixed_source=source)
    consistency = orbit_consistency(clustering, partition)
    report = serialize.cluster_report_to_json(clustering, consistency)

    output = _resolve_output(args)
    if output is not None:
        fmt = _setting(args.format, "FORMAT", str, "csv")
        if fmt == "json":
            _write(serialize.limiting_matrix_to_json(chi), output)
        elif fmt == "csv":
            _write(serialize.limiting_matrix_to_csv(chi), output)
        else:
            raise UsageError(f"unsupported format {fmt!r} for limit")
    _write(report, args.report)
    return EXIT_OK


def _cmd_orbits(args) -> int:
    net = generate_apollonian(_resolve_generation(args))
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
    _write(json.dumps(doc, indent=2) + "\n", _resolve_output(args))
    return EXIT_OK


def _cmd_verify(args) -> int:
    max_generation = _setting(args.max_generation, "MAX_GENERATION", int, 3)
    if max_generation < 0:
        raise UsageError(
            f"--max-generation must be non-negative, got {max_generation}"
        )
    report = run_verification(max_generation)
    text = json.dumps(report.to_dict(), indent=2) + "\n"
    sys.stdout.write(text)
    output = _resolve_output(args)
    if output is not None:
        Path(output).write_text(text)
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
