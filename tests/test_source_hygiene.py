"""Source hygiene of the package, checked with the standard library's ast.

No linter ships with the test dependencies, so two of a linter's checks
live here: every import in a module is used there, and every module-level
private function, class or constant is referenced somewhere in the package.
A deletion that leaves a dead helper or an orphaned import behind fails.
A third keeps the package to what its commands and its public API run:
every module-level public function or class is referenced in the package
outside its own definition, or exported in ``kerrcav.__all__``.  Helpers
that only tests call live in ``tests/oracles.py``.  Every parameter of a
function or lambda is read in its body, so no argument is silently
ignored.  Last, every binding that ``bench/tracer.py`` patches by name
exists in the package, so a renamed layer cannot vanish from the trace.
"""
import ast
import importlib
import pathlib

import pytest

import kerrcav

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kerrcav"
MODULES = sorted(SRC.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in MODULES}


def _loaded_names(tree) -> set:
    """Every name read in ``tree``, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree) -> dict:
    """Each name a module-level import binds, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _private_definitions(tree) -> dict:
    """Module-level ``_private`` functions, classes and constants."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    return defined


@pytest.mark.parametrize("module", [name for name in TREES
                                    if name != "__init__.py"])
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _loaded_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_definition_is_referenced(module):
    used = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    dead = {name: line
            for name, line in _private_definitions(TREES[module]).items()
            if name not in used}
    assert not dead, f"{module}: unreferenced private definitions {dead}"


# the names each module-level statement of the package reads
STATEMENT_NAMES = [(stmt, _loaded_names(stmt)) for tree in TREES.values()
                   for stmt in tree.body]


@pytest.mark.parametrize("module", list(TREES))
def test_every_public_definition_is_used_or_exported(module):
    dead = {}
    for node in TREES[module].body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) or node.name.startswith("_"):
            continue
        used = set().union(*(names for stmt, names in STATEMENT_NAMES
                             if stmt is not node))
        if node.name not in used and node.name not in kerrcav.__all__:
            dead[node.name] = node.lineno
    assert not dead, (f"{module}: public definitions neither used in the "
                      f"package nor exported {dead}")


def _unread_parameters(tree) -> dict:
    """Each function or lambda parameter its body never reads, with the
    line of its definition; ``self``, ``cls`` and ``_`` names are exempt."""
    unread = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args,
                                  *args.kwonlyargs, args.vararg, args.kwarg)
                  if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name)
                and isinstance(name.ctx, ast.Load)}
        for param in params:
            if (param not in read and param not in ("self", "cls")
                    and not param.startswith("_")):
                where = getattr(node, "name", "<lambda>")
                unread[f"{where}({param})"] = node.lineno
    return unread


@pytest.mark.parametrize("module", list(TREES))
def test_every_parameter_is_read(module):
    unread = _unread_parameters(TREES[module])
    assert not unread, f"{module}: parameters never read {unread}"


TRACER = ROOT / "bench" / "tracer.py"
# bindings bench/tracer.py still patches though the package dropped them
GONE_FROM_TRACE = {"models.build_for_spec", "evolve.compose",
                   "pulses.u_physical"}


def _traced_bindings() -> set:
    """``owner.attr`` for the first owner of every ``_patch`` call in the
    tracer's ``install``, with the loops over constant names unrolled."""
    tree = ast.parse(TRACER.read_text(), str(TRACER))
    [install] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "install"]
    bindings = set()

    def visit(statements, names):
        for node in statements:
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
                    and isinstance(node.target, ast.Name)):
                for elt in node.iter.elts:
                    visit(node.body, {**names, node.target.id: elt.value})
            elif (isinstance(node, ast.Expr)
                  and isinstance(node.value, ast.Call)
                  and getattr(node.value.func, "id", None) == "_patch"):
                owners, attr = node.value.args[2:4]
                name = (attr.value if isinstance(attr, ast.Constant)
                        else names[attr.id])
                bindings.add(f"{ast.unparse(owners.elts[0])}.{name}")

    visit(install.body, {})
    return bindings


def _exists(binding: str) -> bool:
    module, *path, attr = binding.split(".")
    owner = importlib.import_module(f"kerrcav.{module}")
    for part in path:
        owner = getattr(owner, part)
    return hasattr(owner, attr)


def test_every_traced_binding_exists():
    # the tracer skips a binding that is gone without a word, and the
    # layers it fed then read zero
    bindings = _traced_bindings()
    assert {"experiments._best_rate", "experiments.write_outputs",
            "experiments.sweep", "experiments.run_fig3a",
            "experiments.run_fig3b"} <= bindings
    missing = {b for b in bindings if not _exists(b)}
    assert missing == GONE_FROM_TRACE, (
        f"traced but not in kerrcav: {sorted(missing - GONE_FROM_TRACE)}; "
        f"back in kerrcav: {sorted(GONE_FROM_TRACE - missing)}")
