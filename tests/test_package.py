"""The package's public surface: exports resolve, errors share one base, the docstring names
every module and no other, no import is unread, no private module-level function, class or
variable is left unread."""

import ast
import re
from pathlib import Path

import dagam
from dagam import errors
from dagam.errors import DagamError


def test_every_export_resolves():
    for name in dagam.__all__:
        assert hasattr(dagam, name), name


def test_every_exported_exception_is_a_dagam_error():
    exported = [getattr(dagam, name) for name in dagam.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert DagamError in errors
    for cls in errors:
        assert issubclass(cls, DagamError), cls


def test_every_error_class_is_exported():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, DagamError)
    }
    assert defined <= set(dagam.__all__)


def test_docstring_names_exactly_the_modules():
    src = Path(__file__).resolve().parents[1] / "src" / "dagam"
    modules = {path.stem for path in src.glob("*.py")} - {"__init__"}
    assert modules
    assert set(re.findall(r"`(\w+)`", dagam.__doc__)) == modules


def _dead_code_scan_files() -> list[Path]:
    """The package's sources, and the test oracle that reads the package's internals."""
    root = Path(__file__).resolve().parents[1]
    return [*sorted((root / "src").rglob("*.py")), root / "tests" / "gradcheck.py"]


def _unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [f"{path}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_imported_name_is_unread():
    root = Path(__file__).resolve().parents[1]
    files = sorted(
        [*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py"), *(root / "bench").glob("*.py")]
    )
    assert files
    assert [hit for path in files for hit in _unread_imports(path)] == []


def _module_level_names(tree: ast.Module):
    """Names a module defines at its top level: functions, classes and assigned variables."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_every_private_function_is_referenced():
    # Classes and variables too: a private name that no scanned code reads is dead.
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in _dead_code_scan_files()]
    assert trees
    private = {
        name
        for tree in trees
        for name in _module_level_names(tree)
        if name.startswith("_") and not name.startswith("__")
    }
    read = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    assert sorted(private - read) == []


def _unread_parameters(path: Path) -> list[str]:
    """Parameters of a function or lambda that its body never reads; protocol dunders are exempt."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Lambda):
            name, body = "lambda", [node.body]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name, body = node.name, node.body
            if name.startswith("__") and name.endswith("__"):
                continue
        else:
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        hits += [f"{path}:{node.lineno} {name}({p.arg})" for p in params if p and p.arg not in read]
    return hits


def test_no_parameter_is_unread():
    files = _dead_code_scan_files()
    assert files
    assert [hit for path in files for hit in _unread_parameters(path)] == []
