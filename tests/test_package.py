import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import apwalks
from apwalks import cli, verify
from apwalks.network import node_count_for_generation


def test_cli_import_leaves_signal_and_traceback_unloaded():
    # fork imports signal only to kill a failed child and prints a child's
    # traceback through sys.excepthook; neither may load at import time.
    script = "import sys, apwalks.cli; print(sorted({'signal', 'traceback'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(apwalks.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_binds_no_public_name():
    # Every public name is declared once, in its module; the package
    # namespace holds only the submodules that have been imported.
    public = [name for name, value in vars(apwalks).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public == []


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_every_imported_name_is_read():
    root = Path(__file__).parents[1]
    modules = sorted([*(root / "src" / "apwalks").glob("*.py"), *(root / "tests").glob("*.py")])
    assert len(modules) > 10
    assert [entry for path in modules for entry in _unread_imports(path)] == []


#: A double-backticked dotted name, maybe called: ``dynamics._BLOCK_ENTRIES``, ``Rows.parts()``.
_CITED_NAME = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\([^`]*\))?``")


def _resolves(obj, attrs: list[str]) -> bool:
    """Whether ``obj.attrs[0].attrs[1]...`` exists; a dataclass field counts."""
    for attr in attrs:
        if attr in getattr(obj, "__dataclass_fields__", {}):
            return True
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_every_name_cited_in_src_resolves():
    # A docstring or comment that cites a name of the package, as
    # ``module.name`` or by a name of its own module, goes stale silently
    # when that name is deleted or renamed.
    src = Path(apwalks.__file__).parent
    modules = {path.stem: importlib.import_module(f"apwalks.{path.stem}")
               for path in sorted(src.glob("*.py")) if path.stem != "__init__"}
    stale, checked = [], 0
    for name, module in modules.items():
        for cited in _CITED_NAME.findall((src / f"{name}.py").read_text()):
            first, *rest = cited.split(".")
            if first in modules:
                obj, attrs = modules[first], rest
            elif first in vars(module):
                obj, attrs = module, [first, *rest]
            else:
                continue
            checked += 1
            if not _resolves(obj, attrs):
                stale.append(f"{name}.py: {cited}")
    assert checked > 50
    assert stale == []


def test_every_node_count_cited_for_a_generation_is_its_node_count():
    # A comment that says "G=g (N=n)" sizes a budget or an index by n.
    root = Path(__file__).parents[1]
    cited = [(path.name, int(g), int(n))
             for path in sorted([*(root / "src" / "apwalks").glob("*.py"),
                                 *(root / "tests").glob("*.py")])
             for g, n in re.findall(r"G=(\d+) \(N=(\d+)\)", path.read_text())]
    assert len(cited) >= 6
    assert [c for c in cited if c[2] != node_count_for_generation(c[1])] == []


def test_every_cli_option_is_read():
    # A flag that no handler reads is a setting with no effect.
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    dests = {action.dest for p in (parser, *commands.choices.values()) for action in p._actions
             if not isinstance(action, argparse._HelpAction)}
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    assert "command" in dests and "t_scale" in dests
    assert sorted(dests - read) == []


def _unread_dataclass_fields(modules: list[Path]) -> list[str]:
    """Fields declared on a ``@dataclass`` in ``modules`` that none reads as ``x.field``."""
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in modules]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields = []
    for path, tree in zip(modules, trees):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                fields += [(path, cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
    assert len(fields) > 10
    return [f"{path.name}: {cls}.{name}" for path, cls, name in fields if name not in read]


def test_every_dataclass_field_is_read():
    # A field that nothing reads is state with no effect.
    modules = sorted((Path(__file__).parents[1] / "src" / "apwalks").glob("*.py"))
    assert _unread_dataclass_fields(modules) == []


def _unpassed_defaults(modules: list[Path]) -> list[str]:
    """Defaulted parameters of functions in ``modules`` that no call there passes.

    A call passes a parameter by its keyword, or by position: the call's
    positional arguments reach past its index (a method's ``self`` or ``cls``
    is not counted), or a ``*`` or ``**`` argument may. Calls are matched by the
    called name only, ``f(...)`` or ``x.f(...)``.
    """
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in modules]
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for path, tree in zip(modules, trees):
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            positional = [*fn.args.posonlyargs, *fn.args.args]
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            defaulted = [(index - skip, arg.arg) for index, arg in enumerate(positional)
                         if index >= len(positional) - len(fn.args.defaults)]
            defaulted += [(None, arg.arg) for arg, default in
                          zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
            for index, name in defaulted:
                if not any(
                        any(k.arg in (name, None) for k in call.keywords)
                        or index is not None and (
                            len(call.args) > index
                            or any(isinstance(a, ast.Starred) for a in call.args))
                        for call in calls.get(fn.name, [])):
                    unpassed.append(f"{path.name}: {fn.name}({name})")
    return unpassed


def test_every_defaulted_parameter_is_passed():
    # A default that no call overrides is a parameter with one value in use.
    # cli.main's argv is the entry point's: the console script passes none.
    modules = sorted((Path(__file__).parents[1] / "src" / "apwalks").glob("*.py"))
    assert len(modules) > 5
    assert _unpassed_defaults(modules) == ["cli.py: main(argv)"]


def _environment_reads(path: Path) -> list[str]:
    """Where ``path`` reads the process environment through ``os``."""
    names = {"environ", "environb", "getenv"}
    tree = ast.parse(path.read_text(), filename=str(path))
    reads = [node for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             and isinstance(node.value, ast.Name) and node.value.id == "os"]
    reads += [node for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "os"
              and any(alias.name in names for alias in node.names)]
    return [f"{path.name}:{node.lineno}" for node in reads]


def test_no_module_reads_the_environment():
    # Every setting is a flag or a parameter; none comes from the environment.
    modules = sorted((Path(__file__).parents[1] / "src" / "apwalks").glob("*.py"))
    assert len(modules) > 5
    assert [entry for path in modules for entry in _environment_reads(path)] == []


def _solver_uses(path: Path) -> list[str]:
    """Where ``path`` calls a ``linalg`` eigensolver or imports ``ctypes``."""
    solvers = {"eigh", "eigvalsh", "eig"}
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Attribute):
            used = (node.attr in solvers and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "linalg")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            used = (module.partition(".")[0] == "ctypes"
                    or module.endswith("linalg") and any(a.name in solvers for a in node.names))
        elif isinstance(node, ast.Import):
            used = any(a.name.partition(".")[0] == "ctypes" for a in node.names)
        else:
            used = False
        if used:
            uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_only_spectral_diagonalizes():
    # spectral is the one place the matrix is diagonalized, with the solver
    # that holds the fewest N x N arrays.
    modules = sorted((Path(__file__).parents[1] / "src" / "apwalks").glob("*.py"))
    assert len(modules) > 5
    found = {path.name: _solver_uses(path) for path in modules}
    assert found.pop("spectral.py")
    assert [entry for entries in found.values() for entry in entries] == []


def _stepped_ranges(path: Path) -> list[str]:
    """``file:function`` of every three-argument ``range`` call in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    where = {}
    # ast.walk is breadth first, so a nested function overrides its enclosing one.
    for scope in ast.walk(tree):
        if scope is tree or isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "range" and len(node.args) == 3):
                    where[id(node)] = f"{path.name}:{getattr(scope, 'name', '<module>')}"
    return list(where.values())


def test_only_stripes_cuts_an_axis_into_chunks():
    # dynamics._stripes is the one chunk helper; a stepped range elsewhere
    # repeats its arithmetic.
    modules = sorted((Path(__file__).parents[1] / "src" / "apwalks").glob("*.py"))
    assert len(modules) > 5
    found = [entry for path in modules for entry in _stepped_ranges(path)]
    assert found == ["dynamics.py:_stripes"]


BUILDERS = {"generate_apollonian", "laplacian", "eigendecompose", "copy_map",
            "spectrum_from_copies", "group_degenerate", "default_degeneracy_tolerance",
            "limiting_matrix", "source_projections"}


def test_cli_builds_only_through_the_verify_pipeline():
    # verify.Pipeline is the one place a generation becomes a network, a
    # spectrum, a grouping, chi and W_j; a builder the CLI binds would be a second.
    assert BUILDERS <= set(vars(verify))
    assert BUILDERS & set(vars(cli)) == set()


def test_verify_names_the_builders_only_inside_pipeline_methods():
    # Inside verify, too, only Pipeline's methods build, and their bodies name
    # each builder where it is called: the bench wraps the builders in
    # verify's namespace after import, so a builder bound when the class is
    # defined (a default argument, a class attribute) would go untimed.
    # check_taylor_oracle's own Laplacian is the one exception: the oracle must
    # not share the cached route it checks.
    found = set()
    for top in ast.parse(Path(verify.__file__).read_text()).body:
        outer = top.name if isinstance(top, ast.ClassDef) else "<module>"
        for stmt in top.body if isinstance(top, ast.ClassDef) else [top]:
            parts = [(outer, [stmt])]
            if isinstance(stmt, ast.FunctionDef):
                body = f"{outer}.{stmt.name}" if isinstance(top, ast.ClassDef) else stmt.name
                parts = [(body, stmt.body), (outer, [stmt.args, *stmt.decorator_list])]
            found |= {(scope, node.id) for scope, roots in parts for root in roots
                      for node in ast.walk(root)
                      if isinstance(node, ast.Name) and node.id in BUILDERS}
    assert found == {
        ("Pipeline.net", "generate_apollonian"),
        ("Pipeline.spectrum", "eigendecompose"),
        ("Pipeline.spectrum", "laplacian"),
        ("Pipeline.spectrum", "copy_map"),
        ("Pipeline.spectrum", "spectrum_from_copies"),
        ("Pipeline.grouping", "group_degenerate"),
        ("Pipeline.grouping", "default_degeneracy_tolerance"),
        ("Pipeline.chi", "limiting_matrix"),
        ("Pipeline.projections", "source_projections"),
        ("check_taylor_oracle", "laplacian"),
    }


BENCH_RUN = Path(__file__).parents[1] / "bench" / "run.py"
LAYERS = ("network", "spectral", "dynamics", "symmetry", "serialize")


def _bench_span_functions(tree: ast.AST) -> set[tuple[str, str]]:
    """``(layer, function)`` of every ``"layer.function..."`` span name the bench reads.

    Metric names are the keys of its dict literals; every other string that
    starts with a layer name, a dot and a name is a span name or its prefix.
    """
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys}
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in keys:
            layer, _, rest = node.value.partition(".")
            function = rest.partition(".")[0]
            if layer in LAYERS and function:
                found.add((layer, function))
    return found


def test_bench_span_names_are_functions_the_cli_or_verify_binds():
    # The bench wraps the layer functions bound in apwalks.cli and
    # apwalks.verify (every public function, for serialize); a span name that
    # no longer matches one reads 0 instead of failing. Parsed, not imported:
    # importing bench/run.py pins BLAS variables in os.environ.
    found = _bench_span_functions(ast.parse(BENCH_RUN.read_text()))
    assert ("network", "orbits") in found and len(found) > 10
    for layer, function in sorted(found):
        fn = getattr(importlib.import_module(f"apwalks.{layer}"), function, None)
        assert inspect.isfunction(fn), f"{layer}.{function}"
        if layer == "serialize":
            assert not function.startswith("_"), f"{layer}.{function}"
        else:
            assert fn in (vars(cli).get(function), vars(verify).get(function)), \
                f"{layer}.{function}"


@pytest.mark.parametrize("argv, chi_spans, observed", [
    (("limit", "-g", "3", "-s", "9"),
     {"spectral.group_degenerate", "spectral.default_degeneracy_tolerance",
      "dynamics.limiting_matrix"}, {}),
    # bench's dynamics.snapshots sums the series lengths the evolve spans observe.
    (("evolve", "-g", "3", "--t-steps", "5"), set(), {"dynamics.evolve_series.quantum": 5}),
    (("spectrum", "-g", "3"), set(), {}),
], ids=["limit", "evolve", "spectrum"])
def test_bench_traces_every_build_a_command_makes(tmp_path, argv, chi_spans, observed):
    # The binding test above cannot see a call path that goes around the
    # names the bench wraps; the spans of a traced run can.
    root = Path(__file__).parents[1]
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, str(BENCH_RUN.with_name("traced.py")), str(spans_path),
                           "--", *argv], env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans_path.read_text())
    assert doc["exit_code"] == 0
    spans = {"network.generate_apollonian", "network.laplacian", "spectral.eigendecompose"}
    assert spans | chi_spans <= {span[0] for span in doc["spans"]}
    assert {name: seen for name, _, _, _, seen in doc["spans"] if name in observed} == observed


def test_bench_verify_checks_are_check_functions():
    tree = ast.parse(BENCH_RUN.read_text())
    checks = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS"
                          for t in node.targets))
    assert len(checks) > 10
    for name in checks:
        assert inspect.isfunction(getattr(verify, f"check_{name}", None)), name
