import argparse
import ast
import importlib
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import apwalks
from apwalks import cli, verify


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


def test_bench_verify_checks_are_check_functions():
    tree = ast.parse(BENCH_RUN.read_text())
    checks = next(ast.literal_eval(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Assign)
                  and any(isinstance(t, ast.Name) and t.id == "VERIFY_CHECKS"
                          for t in node.targets))
    assert len(checks) > 10
    for name in checks:
        assert inspect.isfunction(getattr(verify, f"check_{name}", None)), name
