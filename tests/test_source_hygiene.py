"""Source hygiene of the package: nothing in src/kricci is imported,
assigned, stored or defined that nothing reads.

Four scans, with the standard library's ast only:
- a module-level import that the module never references and does not
  list in ``__all__``;
- a name assigned inside a function and never loaded there or in a
  function nested in it (``_`` is the one name that may be thrown away);
- a dataclass field whose name is never loaded as an attribute anywhere in
  src/, tests/ or bench/;
- a top-level definition that no command, acceptance criterion or export
  of the package reaches.
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


def _definitions(node) -> list:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name) and t.id != "__all__"]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _reference_graph():
    """Every top-level definition of src/kricci as (module, name) with its
    line, the (module, name) pairs each one references, and those that
    module-level code outside any definition references (it runs on import).
    A name imported from another kricci module refers to that module's
    definition, and so does an attribute of an imported kricci module."""
    lines, edges, on_import = {}, {}, set()
    for path in PACKAGE:
        mod, tree = path.stem, _parse(path)
        imported = {}   # local name -> (module, name), or (module, None) for a module
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("kricci"):
                source = node.module.partition(".")[2]
                for alias in node.names:
                    local = alias.asname or alias.name
                    imported[local] = (source, alias.name) if source else (alias.name, None)
                    if source:
                        edges[(mod, local)] = {(source, alias.name)}

        def references(sub):
            out = set()
            for node in ast.walk(sub):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.add(imported.get(node.id, (mod, node.id)))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                    source, name = imported.get(node.value.id, (None, ""))
                    if source and name is None:
                        out.add((source, node.attr))
            return out

        for node in tree.body:
            names = _definitions(node)
            for name in names:
                lines[(mod, name)] = f"{path.name}:{node.lineno}"
                edges[(mod, name)] = references(node)
            if not names and not isinstance(node, (ast.Import, ast.ImportFrom)):
                on_import |= references(node)
    return lines, edges, on_import


def test_every_top_level_definition_is_reached():
    """The roots: cli.main and cli.console_main (the console script in
    pyproject.toml), every cli.cmd_* (main dispatches through globals(), so
    no call names them; test_cli checks that the parser offers exactly
    these), acceptance.ALL_CRITERIA, and the names in kricci.__all__."""
    lines, edges, on_import = _reference_graph()
    roots = on_import | {("cli", "main"), ("cli", "console_main"), ("acceptance", "ALL_CRITERIA")}
    roots |= {key for key in lines if key[0] == "cli" and key[1].startswith("cmd_")}
    roots |= {("__init__", name) for name in _exported(_parse(ROOT / "src" / "kricci" / "__init__.py"))}
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(edges.get(key, ()))
    unreached = sorted(f"{where} {key[0]}.{key[1]}" for key, where in lines.items()
                       if key not in reached)
    assert not unreached, f"top-level definitions no command, criterion or export reaches: {unreached}"
