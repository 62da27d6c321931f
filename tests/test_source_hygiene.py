"""Source hygiene of the package: nothing in src/kricci is imported,
assigned or stored that nothing reads.

Three scans, with the standard library's ast only:
- a module-level import that the module never references and does not
  list in ``__all__``;
- a name assigned inside a function and never loaded there or in a
  function nested in it (``_`` is the one name that may be thrown away);
- a dataclass field whose name is never loaded as an attribute anywhere in
  src/, tests/ or bench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "kricci").glob("*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _loaded_names(tree: ast.AST) -> set:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _own_stores(scope) -> list:
    """Names stored in the body of ``scope``, not in the scopes nested in it."""
    out, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.append(node)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def test_every_module_level_import_is_used():
    unused = []
    for path in PACKAGE:
        tree = _parse(path)
        used = _loaded_names(tree) | _exported(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"imports nothing references: {unused}"


def test_every_local_assignment_is_read():
    unread = []
    for path in PACKAGE:
        for scope in ast.walk(_parse(path)):
            if not isinstance(scope, SCOPES):
                continue
            declared = {name for node in ast.walk(scope)
                        if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            loaded = _loaded_names(scope)
            unread += [f"{path.name}:{node.lineno} {node.id}" for node in _own_stores(scope)
                       if node.id != "_" and node.id not in loaded | declared]
    assert not unread, f"local names assigned and never read: {sorted(unread)}"


def test_every_dataclass_field_is_read():
    sources = [p for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    read = {node.attr for path in sources for node in ast.walk(_parse(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path in PACKAGE:
        for cls in ast.walk(_parse(path)):
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                unread += [f"{path.name}:{node.lineno} {cls.name}.{node.target.id}"
                           for node in cls.body
                           if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                           and node.target.id not in read]
    assert not unread, f"dataclass fields nothing reads: {unread}"
