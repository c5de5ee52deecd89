"""The package's public surface, read from the source with ``ast``: each
module's ``__all__`` names what the module defines, ``rotsurf4/__init__.py``
re-exports exactly the union of those lists, and no module imports a name
that it never reads, so a deleted name leaves no stale export or import
behind."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import rotsurf4

MODULES = [importlib.import_module(f"rotsurf4.{m.name}")
           for m in pkgutil.iter_modules(rotsurf4.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]
SOURCES = sorted(Path(rotsurf4.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(Path(path).read_text(), filename=str(path))


def _defined(tree):
    """Names bound at module level by a def, a class or an assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_every_name_in_all_exists(module):
    # defined in the module itself, not imported into it, and listed once
    assert len(module.__all__) == len(set(module.__all__))
    assert sorted(set(module.__all__) - _defined(_tree(module.__file__))) == []


def test_package_imports_only_exported_names():
    # a star import takes exactly the module's __all__, so it needs one
    stale = []
    for node in ast.walk(_tree(rotsurf4.__file__)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"rotsurf4.{node.module}")
            exported = getattr(module, "__all__", None)
            stale += [f"{node.module}.{a.name}" for a in node.names
                      if exported is None or a.name not in (*exported, "*")]
    assert stale == []


def test_the_root_re_exports_each_modules_all():
    root = {name for name, value in vars(rotsurf4).items()
            if not name.startswith("_") and not isinstance(value, ModuleType)}
    exported = set()
    for module in EXPORTING:
        assert all(getattr(rotsurf4, n) is getattr(module, n) for n in module.__all__)
        exported.update(module.__all__)
    assert (sorted(root - exported), sorted(exported - root)) == ([], [])


def _is_type_checking(node):
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
            and node.test.id == "TYPE_CHECKING")


def _imports(tree):
    """(bound name, under TYPE_CHECKING) of every import except ``__future__`` and ``*``."""
    found = []

    def visit(body, guarded):
        for node in body:
            if isinstance(node, ast.Import):
                found.extend(((a.asname or a.name).split(".")[0], guarded) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                found.extend((a.asname or a.name, guarded) for a in node.names if a.name != "*")
            elif isinstance(node, (ast.If, ast.Try)):
                visit(node.body, guarded or _is_type_checking(node))
                visit(node.orelse, guarded)

    visit(tree.body, False)
    return found


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(node):
    """Names that ``node`` reads, with string annotations parsed as expressions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _names_in(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    # a name imported under TYPE_CHECKING may be read by annotations alone
    tree = _tree(path)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    annotated = set().union(*map(_names_in, _annotations(tree)))
    unread = [name for name, guarded in _imports(tree)
              if name not in read and not (guarded and name in annotated)]
    assert unread == []


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # records are plain classes, so a cold start loads none of these; ``-S``
    # because ``site`` may load other modules (typing, enum) itself
    src = str(Path(rotsurf4.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import rotsurf4.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'}"
            " & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "\n"
