"""Every function, method and module-level name in src/exbt is reached:
some other code in src/ names it, the benchmark's tracer wraps it, or the
allowlist below says why it stays without a reader."""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# (module, qualified name): why it stays although nothing in src/ names it
ALLOWED = {
    ("exbt.guardexpr", "evaluate_guard"): "acceptance oracle for guards",
    ("exbt.guardexpr", "merge"): "acceptance oracle for guard merging",
    ("exbt.stacktrace", "render_stack_trace"): "round-trip oracle of parse_stack_trace",
    ("exbt.instrument", "Rewrite.restore"): "README: originals restore byte-for-byte",
    ("exbt.instrument", "Rewrite.to_original_line"): "README: instrument line mapping",
    ("exbt.jmodel.model", "RepoContext.callees"): "README: library call graph",
}


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


def test_every_def_in_src_is_reached():
    assert unreached() == []


def test_every_module_level_name_in_src_is_read():
    assert unread_bindings() == []
