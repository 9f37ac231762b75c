"""Run one ``apwalks`` CLI command in-process with timing spans at layer calls.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 bench/traced.py SPANS.json -- evolve -g 7 -s 4 ...

The program itself is not edited. Before ``apwalks.cli.main`` runs, every
public function that ``apwalks.cli`` and ``apwalks.verify`` import from the
layer modules (network, spectral, dynamics, symmetry, serialize) is replaced
in those two namespaces by a wrapper that records a span, and so is every
``verify.check_*`` function. Calls a layer makes to its own module stay
unwrapped, so the spans sit exactly at the boundaries the CLI crosses.

Spans are kept in memory and written to SPANS.json when the command ends, as
``{"exit_code", "total_s", "wrap_cost_s", "spans": [[name, parent, start, end, observed]]}``
with times in seconds from the start of ``main``. ``observed`` is a small
size taken from the call's result (see ``OBSERVERS``) or null.
``wrap_cost_s`` is what one wrapped call adds to a plain one, measured on a
no-op after the command ends; times the span count, it is the tracing cost.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types

LAYER_MODULES = ("network", "spectral", "dynamics", "symmetry", "serialize")


def _grouping_sizes(grouping) -> list[int]:
    return [grouping.groups[-1][1], len(grouping.groups), max(grouping.sizes)]


#: Sizes recorded from a call's result, by span name prefix.
OBSERVERS = {
    "spectral.group_degenerate": _grouping_sizes,
    "dynamics.evolve_series": len,
    "symmetry.cluster_equal_limits": lambda c: len(c.clusters),
    "symmetry.orbit_consistency": lambda r: len(r.unexplained_pairs),
    "serialize.": lambda text: len(text) if isinstance(text, str) else None,
    "verify.check.": lambda result: bool(result.passed),
}


def _observer(name: str):
    for prefix, observe in OBSERVERS.items():
        if name.startswith(prefix):
            return observe
    return None


class Tracer:
    """In-memory span recorder; one per traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.origin = time.perf_counter()

    def wrap(self, name: str, fn):
        observe = _observer(name)
        by_kind = fn.__name__ == "evolve_series"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name
            if by_kind:
                span_name += "." + str(kwargs.get("kind", args[2] if len(args) > 2 else "?"))
            parent = self._open[-1] if self._open else None
            span = [span_name, parent, time.perf_counter() - self.origin, None, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter() - self.origin
                self._open.pop()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced


def wrap_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds a ``Tracer.wrap`` wrapper adds to one call: best of ``rounds`` on a no-op."""

    def noop() -> None:
        return None

    wrapped = Tracer().wrap("probe", noop)
    best = {noop: float("inf"), wrapped: float("inf")}
    for _ in range(rounds):
        for fn in best:
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            best[fn] = min(best[fn], time.perf_counter() - start)
    return max(best[wrapped] - best[noop], 0.0) / calls


def _layer_of(fn) -> str | None:
    package, _, module = fn.__module__.rpartition(".")
    return module if package == "apwalks" and module in LAYER_MODULES else None


def install(tracer: Tracer) -> None:
    """Replace the layer functions seen by ``apwalks.cli`` and ``apwalks.verify``."""
    from apwalks import cli, serialize, verify

    for namespace in (cli, verify):
        for attr, obj in list(vars(namespace).items()):
            if inspect.isfunction(obj) and _layer_of(obj):
                setattr(namespace, attr, tracer.wrap(f"{_layer_of(obj)}.{obj.__name__}", obj))
    for attr, obj in list(vars(verify).items()):
        if attr.startswith("check_") and inspect.isfunction(obj):
            setattr(verify, attr, tracer.wrap("verify.check." + attr[len("check_"):], obj))
    # The CLI reaches serialize through the module object; hand it a proxy so
    # that serialize's calls to its own helpers stay unwrapped.
    cli.serialize = types.SimpleNamespace(**{
        attr: tracer.wrap(f"serialize.{attr}", obj)
        for attr, obj in vars(serialize).items()
        if inspect.isfunction(obj) and not attr.startswith("_") and _layer_of(obj) == "serialize"
    })


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py SPANS.json -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_argv = argv[0], argv[2:]
    from apwalks import cli

    tracer = Tracer()
    install(tracer)
    tracer.origin = time.perf_counter()
    exit_code = cli.main(cli_argv)
    total = time.perf_counter() - tracer.origin
    doc = {"exit_code": exit_code, "total_s": total, "wrap_cost_s": wrap_cost(), "spans": tracer.spans}
    with open(spans_path, "w") as fh:
        json.dump(doc, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
