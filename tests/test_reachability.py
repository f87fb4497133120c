"""Every function, method and module-level name in src/exbt is reached:
some other code in src/ names it, the benchmark's tracer wraps it, or the
allowlist below says why it stays without a reader, and every allowlist
entry names a def that exists. Every dataclass and NamedTuple field in
src/exbt is read by some code of the project. No module in src/exbt
imports an underscore name from another module."""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACER = ROOT / "perfbench" / "tracer.py"
# where a field of a record in src/ may be read
READERS = ("src", "tests", "perfbench", "microbench")

# (module, qualified name): why it stays although nothing in src/ names it
ALLOWED = {
    ("exbt.guardexpr", "evaluate_guard"): "acceptance oracle for guards",
    ("exbt.instrument", "Rewrite.restore"): "README: originals restore byte-for-byte",
    ("exbt.jmodel.model", "RepoContext.callees"): "README: library call graph",
    ("exbt.jmodel.stmts", "stmts_at_line"): "the line lookup's statements without their "
    "chains; test_operand_reader checks the descent through it against a two-pass walk",
}

# (module, Class.field): why a record keeps a field that no code reads
ALLOWED_FIELDS: dict[tuple[str, str], str] = {}


def _wrapped() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, attr) for module_name, attr, _ in module.WRAPPED}


def _defs(tree: ast.Module):
    """(qualified name, node) of every def, methods included."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((child, f"{prefix}{node.name}.") for child in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node
            stack.extend((child, f"{prefix}{node.name}.") for child in node.body)


def _names(node: ast.AST) -> Counter:
    """How often each identifier is read as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _bindings(tree: ast.Module):
    """(name, statement) of every name a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    yield n.id, node


def _imported(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every `from module import name` in src/."""
    return {
        (node.module, alias.name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _trees() -> dict[str, ast.Module]:
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts): ast.parse(path.read_text())
        for path in sorted(SRC.rglob("*.py"))
    }


def unread_bindings() -> list[str]:
    """Module-level names that their module reads nowhere outside their own
    binding, that no other module imports and that no code reads as an
    attribute. Module-level names are counted per module, as a common name
    such as `logger` may be read in one module and not in another."""
    trees = _trees()
    attrs = Counter(
        n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    )
    imported = _imported(trees)
    kept = _wrapped() | set(ALLOWED)
    found = []
    for module, tree in trees.items():
        here = _names(tree)
        for name, node in _bindings(tree):
            if (name.startswith("__") and name.endswith("__")) or (module, name) in kept:
                continue
            if here[name] == _names(node)[name] and not attrs[name] \
                    and (module, name) not in imported:
                found.append(f"{module}.{name}")
    return sorted(found)


def unreached() -> list[str]:
    trees = _trees()
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    kept = _wrapped() | set(ALLOWED)
    found = []
    for module, tree in trees.items():
        for qualname, node in _defs(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in kept:
                continue
            if everywhere[name] == _names(node)[name]:  # named only inside itself
                found.append(f"{module}.{qualname}")
    return sorted(found)


def _is_record(cls: ast.ClassDef) -> bool:
    """A `@dataclass` (called or not) or a `NamedTuple` subclass."""
    for deco in cls.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "id", None) == "dataclass" or getattr(func, "attr", None) == "dataclass":
            return True
    return any(getattr(base, "id", None) == "NamedTuple" for base in cls.bases)


def _record_fields(tree: ast.Module):
    """(Class.field, field) of every annotated field of every record."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and _is_record(cls):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield f"{cls.name}.{node.target.id}", node.target.id


def _getattr_strings(tree: ast.Module) -> set[str]:
    """Names read through `getattr`: a literal name, or, for a name argument
    that is a loop variable over a module-level tuple or list, its strings."""
    tables = {name: node.value for name, node in _bindings(tree)
              if isinstance(node.value, (ast.Tuple, ast.List))}
    loops = {
        node.target.id: tables[node.iter.id]
        for node in ast.walk(tree)
        if isinstance(node, (ast.For, ast.comprehension)) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Name) and node.iter.id in tables
    }
    found = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "getattr" \
                and len(call.args) > 1:
            arg = call.args[1]
            if isinstance(arg, ast.Constant):
                found.add(arg.value)
            elif isinstance(arg, ast.Name) and arg.id in loops:
                found.update(e.value for e in loops[arg.id].elts if isinstance(e, ast.Constant))
    return found


def unread_fields() -> list[str]:
    """Record fields in src/ that no code in READERS reads as an attribute
    or through `getattr`. Fields are matched by name, not by class."""
    read: set[str] = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            read.update(n.attr for n in ast.walk(tree)
                        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))
            read |= _getattr_strings(tree)
    return sorted(
        f"{module}.{qualname}"
        for module, tree in _trees().items()
        for qualname, name in _record_fields(tree)
        if name not in read and (module, qualname) not in ALLOWED_FIELDS
    )


def private_imports() -> list[str]:
    """`module: name` for every underscore name that a module of src/
    imports from another module."""
    return sorted(
        f"{module}: {node.module}.{alias.name}"
        for module, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def test_no_module_imports_a_private_name():
    assert private_imports() == []


def test_every_def_in_src_is_reached():
    assert unreached() == []


def test_every_allowed_entry_names_a_def():
    """An entry whose def was deleted or renamed would keep nothing."""
    defs = {(module, qualname) for module, tree in _trees().items() for qualname, _ in _defs(tree)}
    assert sorted(set(ALLOWED) - defs) == []


def test_every_module_level_name_in_src_is_read():
    assert unread_bindings() == []


def test_every_dataclass_field_is_read():
    fields = {qualname for tree in _trees().values() for qualname, _ in _record_fields(tree)}
    assert {"CandidateScore.xmatch", "ThrowSite.line", "TracePoolEntry.trace"} <= fields
    snippet = ast.parse('F = ("a", "b")\nx = [getattr(o, f) for f in F]\ny = getattr(o, "c")\n')
    assert _getattr_strings(snippet) == {"a", "b", "c"}
    assert unread_fields() == []
