"""Every function, method and module-level name in src/exbt is reached:
some other code in src/ names it (a module-level function only through its
own module), the benchmark's tracer wraps it, or the allowlist below says
why it stays without a reader, and every allowlist entry names a def that
exists. Every dataclass and NamedTuple field in src/exbt is read by some
code of the project, and every attribute that another class of src/exbt
stores on `self` is read in src/exbt. No module in src/exbt imports an
underscore name from another module. The functions of src/exbt that call
themselves, directly or through other functions of their module, are an
explicit list that can only shrink."""

from __future__ import annotations

import ast
import importlib.util
import re
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
}

# (module, Class.field): why a class keeps a field or attribute that no code reads
ALLOWED_FIELDS = {
    ("exbt.errors", "BackendTimeout.elapsed"):
        "the error's detail for library callers; test_genbackend reads it",
}

# (module, Class.field): why a field whose name another record also declares
# counts as read by name alone; each is read only through a receiver that
# `_typed_reads` does not type
NAME_ONLY = {
    ("exbt.stacktrace", "Frame.mid"):
        "read through `trace.frames[…]` and loops over it, an attribute of a trace",
    ("exbt.corpus", "SkippedExample.reason"):
        "the sweep's report and test_corpus read it through the skipped list"
        " `collect_training_corpus` returns",
}

# the functions of src/ that call themselves, one Python frame per level of
# their input: each group calls itself through the others of its module
RECURSIVE_GROUPS = {
    ("exbt.jmodel.exprs._Parser._parse_args", "exbt.jmodel.exprs._Parser._parse_new",
     "exbt.jmodel.exprs._Parser.parse_binary", "exbt.jmodel.exprs._Parser.parse_operand"),
    ("exbt.jmodel.exprs._child", "exbt.jmodel.exprs.render"),
    ("exbt.jmodel.exprs.evaluate",),
    ("exbt.jmodel.exprs.substitute",),
    ("exbt.jmodel.stmts.BodyParser._parse_headed", "exbt.jmodel.stmts.BodyParser._parse_if",
     "exbt.jmodel.stmts.BodyParser._parse_stmt", "exbt.jmodel.stmts.BodyParser._parse_switch",
     "exbt.jmodel.stmts.BodyParser._parse_try"),
}


# a key that only one record's dict holds, and the `to_record` that builds it
RECORD_OWNERS = {
    "param_arity": "exbt.jmodel.model.MethodId.to_record",
    "statement": "exbt.jmodel.model.ThrowSite.to_record",
    "unresolved_names": "exbt.guardexpr.GuardExpression.to_record",
    "instruction": "exbt.prompting.PromptBundle.to_record",
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


def _module_attrs(trees: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every `alias.name` read in src/ where the alias is
    bound to a module of src/ (`from exbt.jmodel import exprs as E` makes
    `E.free_names` a read of `exbt.jmodel.exprs.free_names`)."""
    found = set()
    for tree in trees.values():
        bound = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                bound.update((a.asname or a.name, f"{node.module}.{a.name}") for a in node.names
                             if f"{node.module}.{a.name}" in trees)
            elif isinstance(node, ast.Import):
                bound.update((a.asname, a.name) for a in node.names if a.asname and a.name in trees)
        found.update((bound[n.value.id], n.attr) for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) in bound)
    return found


def _bare_reads(node: ast.AST) -> Counter:
    return Counter(n.id for n in ast.walk(node)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def unreached() -> list[str]:
    """Defs that nothing reaches. A module-level function is reached by a
    bare-name read in its own module outside itself, by an import from its
    module, or by an attribute read on a name bound to its module; any other
    def by a read of its name, as a name or an attribute, anywhere in src/
    outside itself."""
    trees = _trees()
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    through_module = _imported(trees) | _module_attrs(trees)
    kept = _wrapped() | set(ALLOWED)
    found = []
    for module, tree in trees.items():
        here = _bare_reads(tree)
        top = {id(node) for node in tree.body}
        for qualname, node in _defs(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or (module, qualname) in kept:
                continue
            if id(node) in top:
                reached = here[name] > _bare_reads(node)[name] or (module, name) in through_module
            else:
                reached = everywhere[name] > _names(node)[name]  # named outside itself
            if not reached:
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


def _in_classes(tree: ast.Module):
    """(innermost class around the node or None, node) of every node."""
    stack: list[tuple[ast.AST, ast.ClassDef | None]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        yield cls, node
        inner = node if isinstance(node, ast.ClassDef) else cls
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _on_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"


def _stored(tree: ast.Module):
    """(class, name) of each `self.name = …` in the body of that class."""
    for cls, n in _in_classes(tree):
        if cls is not None and _on_self(n) and isinstance(n.ctx, ast.Store):
            yield cls, n.attr


def _reads(tree: ast.Module) -> tuple[set[str], set[tuple[str, str]]]:
    """The attributes the tree reads: the names it reads through a receiver
    other than `self` or through `getattr`, and (class, name) of each
    `self.name` it reads in the body of that class."""
    other, own = _getattr_strings(tree), set()
    for cls, n in _in_classes(tree):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            if cls is not None and _on_self(n):
                own.add((cls.name, n.attr))
            else:
                other.add(n.attr)
    return other, own


_ITERATING = ("reversed", "sorted", "list", "tuple")


def _receiver(node: ast.AST) -> str | None:
    """The name that `x`, `x[…]` or `reversed(x)` (or `sorted`, `list`,
    `tuple`) reads; None for any other receiver."""
    while isinstance(node, ast.Subscript) or isinstance(node, ast.Call) and node.args \
            and getattr(node.func, "id", None) in _ITERATING:
        node = node.value if isinstance(node, ast.Subscript) else node.args[0]
    return node.id if isinstance(node, ast.Name) else None


def _typed_reads(tree: ast.Module, classes: set[str]) -> set[tuple[str, str]]:
    """(class, name) of each `x.name` that a def of the tree reads where `x`
    is typed as one of `classes`: a parameter or a name whose annotation
    names the class, a name that an `isinstance` call tests against it, or
    a loop variable over such a name (see `_receiver`)."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        types: dict[str | None, set[str]] = {}
        nodes = list(ast.walk(fn))
        named = [(a.arg, a.annotation) for a in _params(fn)]
        for n in nodes:
            if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name):
                named.append((n.target.id, n.annotation))
            elif isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance" \
                    and isinstance(n.args[0], ast.Name):
                named.append((n.args[0].id, n.args[1]))
        for name, annotation in named:
            types.setdefault(name, set()).update(c for c in classes if _typed(annotation, c))
        for n in nodes:  # an outer loop comes before the loops inside it
            if isinstance(n, (ast.For, ast.comprehension)) and isinstance(n.target, ast.Name):
                types.setdefault(n.target.id, set()).update(types.get(_receiver(n.iter), ()))
        found.update((c, n.attr) for n in nodes
                     if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
                     for c in types.get(_receiver(n.value), ()))
    return found


def _shared_names(trees: dict[str, ast.Module]) -> set[str]:
    """The field names that two or more records of src/ declare."""
    counts = Counter(name for tree in trees.values() for _, name in _record_fields(tree))
    return {name for name, n in counts.items() if n > 1}


def unread_fields(name_only=NAME_ONLY) -> list[str]:
    """Record fields in src/ that no code in READERS reads, and attributes
    that a non-record class of src/ stores as `self.f = …` and src/ never
    reads. A `self.f` read counts only for the class whose body holds it.
    A read through another receiver or through `getattr` is matched by the
    attribute's name alone, except for a name that two or more records
    declare: such a field is read only through `self` in its class, through
    a receiver `_typed_reads` types as its class, through `getattr`, or as
    `name_only` lists it."""
    trees = _trees()
    records = {qualname.split(".")[0] for tree in trees.values()
               for qualname, _ in _record_fields(tree)}
    shared = _shared_names(trees)
    readers: set[str] = set()
    typed: set[tuple[str, str]] = set()
    for folder in READERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text())
            other = _reads(tree)[0]
            readers |= {name for name in other if name not in shared} | _getattr_strings(tree)
            typed |= _typed_reads(tree, records)
    reads = {module: _reads(tree) for module, tree in trees.items()}
    in_src = set().union(*(other for other, _ in reads.values()))
    found = set()
    for module, tree in trees.items():
        own = reads[module][1]
        for qualname, name in _record_fields(tree):
            owner = (qualname.split(".")[0], name)
            if name not in readers and owner not in own and owner not in typed \
                    and (module, qualname) not in name_only:
                found.add((module, qualname))
        for cls, name in _stored(tree):
            if not _is_record(cls) and name not in in_src and (cls.name, name) not in own:
                found.add((module, f"{cls.name}.{name}"))
    return sorted(f"{module}.{qualname}" for module, qualname in found - set(ALLOWED_FIELDS))


def _callees(qualname: str, node: ast.AST, defs: dict[str, ast.AST]) -> set[str]:
    """The defs of the same module that `node` calls: a bare name as Python
    resolves it, from the innermost function around the call out to the
    module, and `self.<name>` as a method of the innermost class."""
    parts = qualname.split(".")
    prefixes = [".".join(parts[:depth]) for depth in range(len(parts), 0, -1)]
    functions = [p + "." for p in prefixes if p in defs] + [""]
    classes = [p + "." for p in prefixes if p not in defs]
    found = set()
    for n in ast.walk(node):
        if not isinstance(n, ast.Call):
            continue
        if isinstance(n.func, ast.Name):
            targets = [scope + n.func.id for scope in functions]
        elif _on_self(n.func):
            targets = [scope + n.func.attr for scope in classes[:1]]
        else:
            continue
        found.update([t for t in targets if t in defs][:1])
    return found


def recursive_groups() -> list[tuple[str, ...]]:
    """Each set of defs of one module of src/ that reach one another by
    calls within that module (a def that calls itself is a set of one), as
    a sorted tuple of `module.qualname`s."""
    groups = set()
    for module, tree in _trees().items():
        defs = dict(_defs(tree))
        calls = {q: _callees(q, node, defs) for q, node in defs.items()}
        reach = {}
        for start in defs:
            seen, stack = set(), list(calls[start])
            while stack:
                q = stack.pop()
                if q not in seen:
                    seen.add(q)
                    stack.extend(calls[q])
            reach[start] = seen
        groups.update(
            tuple(sorted(f"{module}.{q}" for q in reach[start] if start in reach[q]))
            for start in defs if start in reach[start])
    return sorted(groups)


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


def _where(match) -> list[str]:
    """`module.qualname` of the innermost def around each node of src/ that
    `match` accepts; `module` alone for a node outside every def."""
    found = set()
    for module, tree in _trees().items():
        owner = {}
        for qualname, node in _defs(tree):  # a def comes before the defs inside it
            owner.update((id(n), qualname) for n in ast.walk(node))
        found.update(
            f"{module}.{owner[id(n)]}" if id(n) in owner else module
            for n in ast.walk(tree) if match(n)
        )
    return sorted(found)


def test_frames_are_resolved_in_one_place():
    """`resolve_trace` is the one reader of `resolve_frame` and of
    `exclude_test_and_util_frames`, and only `resolve_frame` decides that a
    frame is out of its method's span."""
    def reads(name: str):
        return lambda n: getattr(n, "id", None) == name \
            or isinstance(n, ast.Attribute) and n.attr == name

    for name in ("resolve_frame", "exclude_test_and_util_frames"):
        assert _where(reads(name)) == ["exbt.stacktrace.resolve_trace"], name
    assert _where(lambda n: isinstance(n, ast.Raise) and "FrameOutOfSpan" in _names(n)) \
        == ["exbt.jmodel.model.RepoContext.resolve_frame"]


def test_json_is_encoded_only_in_manifest():
    """`manifest.json_line` and `json_document` encode every JSON line and
    document src/ writes or prints, so keys are sorted in one place."""
    assert _where(lambda n: isinstance(n, ast.Attribute) and n.attr == "dumps") \
        == ["exbt.manifest.json_document", "exbt.manifest.json_line"]


def test_each_fact_has_one_record_form():
    """Only `MethodId.to_record` builds a dict holding a method's
    `param_arity`, only `ThrowSite.to_record` one holding a site's
    `statement`, only `GuardExpression.to_record` one holding a guard's
    `unresolved_names` and only `PromptBundle.to_record` one holding a
    bundle's `instruction`: every row of `out/` composes these records."""
    def builds(key: str):
        return lambda n: isinstance(n, ast.Dict) and key in {
            k.value for k in n.keys if isinstance(k, ast.Constant)}

    assert {key: _where(builds(key)) for key in RECORD_OWNERS} == {
        key: [owner] for key, owner in RECORD_OWNERS.items()}


def _params(fn: ast.FunctionDef) -> list[ast.arg]:
    a = fn.args
    return [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]


def _typed(annotation: ast.AST | None, name: str) -> bool:
    """Whether an annotation names the type `name`."""
    return annotation is not None \
        and re.search(rf"\b{name}\b", ast.unparse(annotation)) is not None


def test_one_sweep_index_per_command():
    """The pool, ranking, the prompt builder and the corpus read the
    non-EBTs and the repository only through one `SweepIndex`, which each
    command that needs it builds once: no function takes the non-EBTs
    or a `RepoContext` beside an index, so no index built over one
    repository meets another."""
    defs = {f"{module}.{qualname}": node
            for module, tree in _trees().items() for qualname, node in _defs(tree)}
    assert "exbt.prompting.SweepIndex.of" not in defs
    assert [q for q, fn in defs.items()
            if any(_typed(a.annotation, "SweepIndex") for a in _params(fn))
            and any(_typed(a.annotation, "RepoContext") for a in _params(fn))] == []
    assert [q for q, fn in defs.items() if any(a.arg == "nonebts" for a in _params(fn))] \
        == ["exbt.prompting.SweepIndex.__init__"]

    def builds_index(n: ast.AST) -> bool:
        return isinstance(n, ast.Call) and (getattr(n.func, "id", None) == "SweepIndex"
                                            or getattr(n.func, "attr", None) == "SweepIndex")

    assert _where(builds_index) == ["exbt.cli.cmd_pool", "exbt.cli.cmd_prompt", "exbt.cli.cmd_sweep"]


def test_no_module_imports_a_private_name():
    assert private_imports() == []


def test_every_def_in_src_is_reached():
    assert ("exbt.jmodel.exprs", "free_names") in _module_attrs(_trees())
    assert unreached() == []


def test_the_prompt_builders_do_not_import_the_instrumenter():
    """The pool and the corpus read trace logs as `stacktrace.TraceLog`."""
    trees = _trees()
    for module in ("exbt.prompting", "exbt.corpus"):
        assert not [n for n in ast.walk(trees[module])
                    if isinstance(n, ast.ImportFrom) and n.module == "exbt.instrument"
                    or isinstance(n, ast.Import) and any(a.name == "exbt.instrument" for a in n.names)]


def test_a_scoring_text_is_parsed_only_by_sides_member():
    """Extraction hands its candidates to `Sides.member`, which lexes and
    parses them once for scoring too; it does not parse them itself."""
    tree = _trees()["exbt.genbackend"]
    assert not [a for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names
                if a.name == "parse_member"]
    assert "parse_member" not in _names(tree)


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
    snippet = ast.parse("class A:\n    def g(self):\n        return self.f\n"
                        "class B:\n    def g(self, a):\n        return a.h + self.k\n")
    assert _reads(snippet) == ({"h"}, {("A", "f"), ("B", "k")})
    snippet = ast.parse("def f(a: A, xs: list[B], e, y):\n    if isinstance(e, C):\n        e.k\n"
                        "    return a.f, [x.g for x in reversed(xs)], xs[0].h, y.i\n")
    assert _typed_reads(snippet, {"A", "B", "C"}) \
        == {("A", "f"), ("B", "g"), ("B", "h"), ("C", "k")}
    assert {"line", "kind", "name", "text", "trace", "prompt", "seed"} <= _shared_names(_trees())
    assert unread_fields() == []


def test_each_name_only_field_is_needed_and_read_by_name():
    """Without `NAME_ONLY` exactly its fields are flagged, and each is read
    somewhere by its name: an entry whose field gained a typed read or lost
    its last read fails here."""
    assert unread_fields(name_only={}) == sorted(f"{m}.{q}" for m, q in NAME_ONLY)
    names = set().union(*(_reads(ast.parse(path.read_text()))[0] for folder in READERS
                          for path in sorted((ROOT / folder).rglob("*.py"))))
    assert {qualname.split(".")[1] for _, qualname in NAME_ONLY} <= names


def test_every_allowed_field_names_a_field():
    """An entry whose field was deleted or renamed would keep nothing."""
    stored = {(module, f"{cls.name}.{name}") for module, tree in _trees().items()
              for cls, name in _stored(tree)}
    fields = {(module, qualname) for module, tree in _trees().items()
              for qualname, _ in _record_fields(tree)}
    assert sorted(set(ALLOWED_FIELDS) - stored - fields) == []


def test_the_functions_that_call_themselves_only_shrink():
    """Each listed group of functions recurses once per level of its input
    (ROADMAP item 4), directly or through the others of its group; a new
    one fails here, and a mended one leaves the list."""
    assert recursive_groups() == sorted(RECURSIVE_GROUPS)


def test_the_microbenchmarks_import():
    """Tier-1 collects only tests/, so importing the micro-benchmark module
    here makes a deleted or renamed name it uses fail Tier-1 too."""
    spec = importlib.util.spec_from_file_location(
        "microbench_kernels", ROOT / "microbench" / "test_kernels.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
