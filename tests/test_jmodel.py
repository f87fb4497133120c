from __future__ import annotations

import builtins
import io
import json
import os
from collections import Counter
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES, REPO_A
from exbt import cli
from exbt.errors import ExbtError, IoError, JavaParseError, NoJavaSources, UnknownMethod
from exbt.jmodel import (
    RepoContext,
    call_name,
    find_throw_sites,
    load_repo,
    parse_member,
    parse_unit,
    reachable_throws,
)
from exbt.jmodel.stmts import BodyParser, chains_at_line
from exbt.manifest import files_digest
from member_wrap import LINES_BEFORE, TOKENS_BEFORE, parse_member_wrapped

TEMPLATE = Path(__file__).resolve().parents[1] / "perfbench" / "repoA_template"
FIXTURE_SOURCES = [p.read_text() for p in sorted(FIXTURES.rglob("*.java"))]


def test_load_repo_counts_units(repo_a):
    assert len(repo_a.units) == 7
    assert repo_a.warnings == []
    assert set(repo_a.main_files) == {
        "src/main/java/com/fix/Account.java",
        "src/main/java/com/fix/Corner.java",
        "src/main/java/com/fix/Ledger.java",
        "src/main/java/com/fix/Orphan.java",
    }
    assert not set(repo_a.main_files) & set(repo_a.test_files)


def test_load_repo_broken_file_is_warning(tmp_path):
    src = tmp_path / "src/main/java"
    src.mkdir(parents=True)
    (src / "Good.java").write_text("class Good { void ok() { } }")
    (src / "Bad.java").write_text('class Bad { String s = "unterminated; }')
    ctx = load_repo(tmp_path)
    assert len(ctx.warnings) == 1
    assert "Bad.java" in ctx.warnings[0]
    assert [u.path for u in ctx.units] == ["src/main/java/Good.java"]


def test_load_repo_unterminated_package_is_warning(tmp_path):
    src = tmp_path / "src/main/java"
    src.mkdir(parents=True)
    (src / "A.java").write_text("package a")
    (src / "B.java").write_text(
        "class B { void f(int x) { if (x < 0) throw new IllegalStateException(); } }"
    )
    ctx = load_repo(tmp_path)
    assert len(ctx.warnings) == 1 and ctx.warnings[0].startswith("src/main/java/A.java:")
    assert [s.exception_type for s in find_throw_sites(ctx)] == ["IllegalStateException"]


def test_load_repo_undecodable_file_is_warning(tmp_path):
    src = tmp_path / "src/main/java"
    src.mkdir(parents=True)
    (src / "A.java").write_bytes(b"class A { String s = \"\xff\"; }")
    (src / "B.java").write_text("class B { }")
    ctx = load_repo(tmp_path)
    assert len(ctx.warnings) == 1
    assert ctx.warnings[0].startswith("src/main/java/A.java: undecodable (")
    assert [u.path for u in ctx.units] == ["src/main/java/B.java"]


@pytest.mark.parametrize("source", ["class", "class A", "record R", "package a", "import b"])
def test_truncated_declaration_is_a_parse_error(source):
    with pytest.raises(JavaParseError):
        parse_unit(source, "A.java")


@st.composite
def mutated_sources(draw):
    source = draw(st.sampled_from(FIXTURE_SOURCES))
    at = draw(st.integers(0, len(source)))
    if draw(st.booleans()):
        return source[:at]
    return source[:at] + source[at + draw(st.integers(1, 8)) :]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_sources())
@example("class A { void f() { try { g(); } catch (E e) } }")
def test_malformed_source_raises_only_typed_errors(source):
    """Truncated or cut fixture sources parse, or fail with an ExbtError.
    Every statement parsed holds at least one token of the unit, even one
    that the cut leaves empty, as the body of `catch (E e) }` in the example."""
    try:
        unit = parse_unit(source, "M.java")
        for _, m in unit.all_methods():
            if m.tok_open is not None:
                for s in BodyParser(unit.tokens).parse_block(m.tok_open).iter_tree():
                    assert s.tok_start < s.tok_end <= len(unit.tokens)
    except ExbtError:
        pass


TEST_STARTS = [source[at:]
               for source in [*FIXTURE_SOURCES, *(p.read_text() for p in sorted(TEMPLATE.rglob("*.java")))]
               for at in range(len(source)) if source.startswith("@Test", at)]


@st.composite
def cut_test_methods(draw):
    """The text from an `@Test` of a fixture or template source on,
    truncated, with 1 to 8 characters cut, or with a bracket or quote put in."""
    source = draw(st.sampled_from(TEST_STARTS))
    at = draw(st.integers(0, len(source)))
    how = draw(st.sampled_from(["truncate", "cut", "insert"]))
    if how == "truncate":
        return source[:at]
    if how == "cut":
        return source[:at] + source[at + draw(st.integers(1, 8)) :]
    return source[:at] + draw(st.sampled_from(list("{}()[]<>\"'"))) + source[at:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(cut_test_methods())
def test_a_cut_test_method_raises_only_typed_errors(source):
    """What extraction and scoring hand to `parse_member` parses, or fails
    with an ExbtError: they catch that error alone."""
    try:
        parse_member(source)
    except ExbtError:
        pass


_EVERY_KIND = """class K {
    void all(int x) {
        outer: for (int i = 0; i < x; i++) { if (i > 2) continue outer; else break; }
        do { x--; } while (x > 0);
        synchronized (this) { x = 1; }
        try { f(); } catch (IllegalStateException e) { g(); } finally { h(); }
        switch (x) { case 1: f(); break; default: g(); }
        while (x < 3) x++;
        { int y = x; }
    }
}"""
_BODY_ROLE = {"while": "body", "dowhile": "body", "for": "body", "synchronized": "body",
              "catch": "body", "switch": "group"}


def _implied_roles(node) -> list[str]:
    """The role each child of node has by node's kind, in order."""
    kids = node.children
    if node.kind == "if":
        return ["then", "else"][: len(kids)]
    if node.kind == "try":
        return ["body"] + ["catch" if c.kind == "catch" else "finally" for c in kids[1:]]
    return [_BODY_ROLE.get(node.kind, "plain")] * len(kids)


def test_every_body_node_chains_to_the_root_with_its_role():
    """Every leaf is found on each line it spans, with a chain that ends
    at the root and whose every link is a child of the next one."""
    sources = [p.read_text() for p in sorted(FIXTURES.rglob("*.java"))]
    sources += [p.read_text() for p in sorted(TEMPLATE.rglob("*.java"))] + [_EVERY_KIND]
    kinds = set()
    for source in sources:
        unit = parse_unit(source, "M.java")
        for _, m in unit.all_methods():
            if m.tok_open is None:
                continue
            root = BodyParser(unit.tokens).parse_block(m.tok_open)
            assert (root.kind, root.role) == ("block", "plain")
            found = set()
            lines = unit.tokens[root.tok_start].line, unit.tokens[root.tok_end - 1].line
            for line in range(lines[0], lines[1] + 1):
                for chain in chains_at_line(root, unit.tokens, line):
                    assert chain[-1] is root
                    assert all(any(c is below for c in above.children)
                               for below, above in zip(chain, chain[1:]))
                    found.add(id(chain[0]))
            for node in root.iter_tree():
                assert node.children or id(node) in found
                assert [c.role for c in node.children] == _implied_roles(node)
                kinds.add(node.kind)
    assert kinds >= {"if", "while", "dowhile", "for", "synchronized", "labeled", "switch",
                     "case", "try", "catch", "block"}


_BOUNDED = """class G {
    <K extends List<Set<K>>> void bound(K k) {}
    int later(int x) {
        if (x < 0) throw new IllegalArgumentException();
        return x;
    }
}"""


def _observe(what: str, source: str):
    unit = parse_unit(source, "G.java")
    if what == "methods":
        return [(m.name, m.arity) for _, m in unit.all_methods()]
    if what == "params":
        return [m.params for _, m in unit.all_methods()]
    if what == "fields":
        return unit.types[0].field_names
    if what == "types":
        return [(t.fqn, [m.name for m in t.methods], t.field_names) for t in unit.types]
    if what == "annotations":
        return [["".join(t.text for t in a) for a in m.annotation_tokens]
                for _, m in unit.all_methods()]
    if what == "throws":
        ctx = RepoContext(Path("."), [unit], ["G.java"], [], [], {})
        return [(s.method.name, s.line, s.exception_type) for s in find_throw_sites(ctx, "all")]
    # "locals": every assignment in the first method's body, rhs as text
    m = next(m for _, m in unit.all_methods())
    body = BodyParser(unit.tokens).parse_block(m.tok_open)
    return [
        (name, unit.text(lo, hi))
        for st in body.iter_tree()
        for name, (lo, hi), _ in st.assignments
    ]


@pytest.mark.parametrize(
    "what, source, expected",
    [
        pytest.param("methods", _BOUNDED, [("bound", 1), ("later", 1)], id="bound-keeps-members"),
        pytest.param(
            "throws", _BOUNDED, [("later", 4, "IllegalArgumentException")],
            id="bound-keeps-throws",
        ),
        pytest.param(
            "methods", "class G { <K extends List<Set<K>>> @A K f(K k) {} void g() {} }",
            [("f", 1), ("g", 0)], id="bound-then-annotation",
        ),
        pytest.param(
            "params", "class G { void f(Map<A, List<Set<B>>> m, int x) {} }", [["m", "x"]],
            id="triple-closer-arity",
        ),
        pytest.param(
            "fields", "class G { Map<A, List<Set<B>>> deep; int after; }", ["deep", "after"],
            id="triple-closer-field",
        ),
        pytest.param(
            "locals", "class G { void f() { Map<A, List<Set<B>>> m = g(); } }", [("m", "g()")],
            id="triple-closer-local",
        ),
        pytest.param(
            "methods", "record G<L, V>(L left, Map<L, List<V>> right) { G { } }", [("<init>", 2)],
            id="generic-record",
        ),
        pytest.param("fields", "class G { int a = b, c; }", ["a", "c"], id="init-name-not-field"),
        pytest.param(
            "fields", "class G { List<String> a, b = x; }", ["a", "b"], id="generic-init-not-field"
        ),
        pytest.param(
            "fields", "class G { int a = x < y ? p : q, d; }", ["a", "d"], id="less-than-in-init"
        ),
        pytest.param(
            "fields", "class G { Function<K, V> f = k -> null; }", ["f"], id="lambda-init"
        ),
        pytest.param(
            "locals",
            "class G { void f() { Map<A, B> m = new HashMap<A, B>(), n; } }",
            [("m", "new HashMap<A, B>()")],
            id="type-arguments-in-init",
        ),
        pytest.param(
            "fields", "class G { int x[] = {1}, y; }", ["x", "y"], id="c-style-field-dims"
        ),
        pytest.param(
            "locals", "class G { void f() { int a[] = {1}; } }", [("a", "{1}")],
            id="c-style-local-dims",
        ),
        pytest.param(
            "types",
            "sealed class G permits G.A { non-sealed class A extends G { void f() {} } int x; "
            "void g() {} }",
            [("G", ["g"], ["x"]), ("G$A", ["f"], [])], id="nested-non-sealed-type",
        ),
    ],
)
def test_type_reader_regressions(what, source, expected):
    assert _observe(what, source) == expected


@pytest.mark.parametrize(
    "what, source, expected",
    [
        pytest.param(
            "methods", "class G { void record(int x) {} void g() {} }", [("record", 1), ("g", 0)],
            id="contextual-keyword-name",
        ),
        pytest.param(
            "throws", "class G { void g() { throw new com.x.record.Err(); } }",
            [("g", 1, "com.x.record.Err")], id="contextual-keyword-segment",
        ),
        pytest.param(
            "methods", "class G { java.util.@A List<T> f() { return null; } void g() {} }",
            [("f", 0), ("g", 0)], id="type-use-annotation-segment",
        ),
        pytest.param(
            "methods", "class G { String @A [] f() { return null; } void g() {} }",
            [("f", 0), ("g", 0)], id="type-use-annotation-dims",
        ),
        pytest.param(
            "methods", "class G { int @A(2) [] f() { return null; } void g() {} }",
            [("A", 0), ("g", 0)], id="unreadable-head-keeps-later-members",
        ),
        pytest.param(
            "annotations", "class G { @Test <T> void f() {} }", [["@Test"]],
            id="annotation-before-type-parameters",
        ),
        pytest.param(
            "methods", "class G { int a; (int x) { throw new E(); } void g() {} }", [("g", 0)],
            id="nameless-head-declares-no-method",
        ),
    ],
)
def test_member_heads_read_as_before(what, source, expected):
    """Heads that a plain scan to the first '(' already read right."""
    assert _observe(what, source) == expected


# annotation arguments with a class literal, a nested annotation, an
# element-value array or a string that holds a type keyword
_ANNOTATION_ARGS = [
    "", "()", "(JUnit4.class)", "({A.class, B.class})", "(classes = App.class)",
    "(@Nested(Inner.class))", "(value = {@A, @B(int[].class)})", '("class X {")',
    '(name = "interface", type = java.util.List.class)', "(Outer.Inner.class)",
]


@st.composite
def top_level_prefixes(draw):
    """Annotations and modifiers, `non-sealed` among them, before a type."""
    words = st.one_of(
        st.tuples(st.sampled_from(["A", "RunWith", "org.junit.ExtendWith"]),
                  st.sampled_from(_ANNOTATION_ARGS)).map(lambda a: "@" + "".join(a)),
        st.sampled_from(["public", "abstract", "final", "strictfp", "sealed", "non-sealed"]),
    )
    return " ".join(draw(st.lists(words, max_size=5)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(top_level_prefixes(),
       st.sampled_from(["class", "interface", "enum", "record", "@interface"]),
       st.sampled_from([" ", "\n"]))
def test_a_top_level_prefix_is_read_whole(prefix, kind, gap):
    """A class literal or a string in a top-level annotation names no type:
    the unit holds the one type declared after the prefix."""
    header = "Name(int x)" if kind == "record" else "Name"
    unit = parse_unit(f"package p;\n{prefix}{gap}{kind} {header} {{ }}\n", "p/Name.java")
    assert [(t.name, t.fqn) for t in unit.types] == [("Name", "p.Name")]


@cache
def _method_texts() -> list[str]:
    """The text of every method with a body in the fixtures and the
    benchmark's repoA template, annotations included."""
    texts = []
    for path in sorted([*FIXTURES.rglob("*.java"), *TEMPLATE.rglob("*.java")]):
        try:
            unit = parse_unit(path.read_text(), path.name)
        except ExbtError:
            continue
        texts += [unit.text(m.tok_start, m.tok_close + 1)
                  for _, m in unit.all_methods() if m.tok_close is not None]
    return texts


# what a mutation inserts: stray brackets, a nameless head, a type that
# swallows the rest, a stray '}' then a type, unterminated literals and
# comments
_INSERTS = ["{", "}", "(", "(int x)", "class X {", "} class Y { void q() {} }",
            '"', "'", '"""', "/*", "//"]


@st.composite
def mutated_methods(draw):
    text = draw(st.sampled_from(_method_texts()))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + draw(st.sampled_from(_INSERTS)) + text[at:]
        else:
            text = text[:at] + text[at + draw(st.integers(1, 8)):]
    return text


def _first_method(parse, text: str, tokens_before: int = 0, lines_before: int = 0):
    """The exception class `parse` raises on text, or what its first
    method is, token indexes and lines shifted down by the given counts."""
    try:
        _, m = parse(text)
    except Exception as exc:
        return type(exc)
    if m is None:
        return None
    index = lambda k: None if k is None else k - tokens_before
    return (
        m.name, m.params, m.is_ctor, m.compact,
        [[t.text for t in a] for a in m.annotation_tokens],
        index(m.tok_start), index(m.tok_open), index(m.tok_close),
        index(m.tok_last), m.decl_line - lines_before,
    )


@settings(max_examples=400, deadline=None, derandomize=True)
@given(mutated_methods())
def test_member_parses_in_its_own_coordinates_as_the_wrapper_did(text):
    """`parse_member` reads a text as the body of an unnamed class and finds
    the first method that wrapping it in `class __Member {` … `}` finds, or
    raises the same exception class: a stray '}' ends the body, and what
    follows it is read as top-level declarations."""
    assert _first_method(parse_member, text) == _first_method(
        parse_member_wrapped, text, TOKENS_BEFORE, LINES_BEFORE
    )


@st.composite
def generic_types(draw, depth):
    """A type whose type arguments nest exactly `depth` deep."""
    name = draw(st.sampled_from(["A", "B", "java.util.List", "Map.Entry"]))
    if depth > 0:
        args = draw(st.lists(generic_types(depth - 1), min_size=1, max_size=3))
        name += f"<{', '.join(args)}>"
    return name + draw(st.sampled_from(["", "[]"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.lists(
        st.integers(1, 4).flatmap(lambda depth: generic_types(depth)), min_size=1, max_size=5
    )
)
def test_nested_generic_parameters_keep_arity_and_names(types):
    params = ", ".join(f"{t} p{i}" for i, t in enumerate(types))
    unit = parse_unit(f"class G {{ void f({params}) {{}} }}", "G.java")
    (m,) = [m for _, m in unit.all_methods()]
    assert m.arity == len(types)
    assert m.params == [f"p{i}" for i in range(len(types))]


def test_load_repo_empty_dir_raises(tmp_path):
    with pytest.raises(NoJavaSources):
        load_repo(tmp_path)


def test_load_repo_missing_root_raises(tmp_path):
    with pytest.raises(IoError):
        load_repo(tmp_path / "nope")


def _write_awkward_tree(root: Path) -> bool:
    """A repository that exercises listing, ordering and decoding; True when
    it holds a symlinked directory and a symlinked file."""
    files = {
        "src/main/java/p/q/Deep.java": b"package p.q;\nclass Deep { void f() { g(); } void g() { } }\n",
        "a/Y.java": b"package a;\nclass Y { }\n",
        "a-b/X.java": b"class X { void x() { new Y(); } }\n",  # after a/, by path parts
        ".Hidden.java": b"class Hidden { }\n",
        ".dot/Z.java": b"class Z { }\n",
        ".gitignore": b"out/\n",
        "logs/run.log": b"at p.q.Deep.f(Deep.java:2)\n\xff\n",
        "canned/data.json": b'{"k": [1, 2]}\n',
        "notes.txt": b"free text\r\n",
        "src/test/java/p/Crlf.java":
            b"package p;\r\nclass Crlf {\r\n  void t() {\r\n    int x = 1;\r\n  }\r\n}\r\n",
        "src/test/java/p/LoneCr.java": b"package p;\rclass LoneCr {\r  void t() { }\r}\r\n",
        "src/main/java/p/Bad.java": b'class Bad { String s = "\xff"; }\n',
        "src/main/java/p/Broken.java": b"package p\n",
        "tests/T.java": b"class T { }\n",
    }
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)
    try:
        os.symlink("a", root / "linked", target_is_directory=True)
        os.symlink("a/Y.java", root / "Alias.java")
    except (OSError, NotImplementedError):
        return False
    return True


def tree_digest(root: Path) -> str:
    """Digest of a directory tree: sorted relative paths and contents, each
    file listed by `glob` and read on its own; `RepoContext.tree_digest`
    must give the same value from the bytes that loading read."""
    return files_digest(
        (p.relative_to(root).as_posix(), p.read_bytes())
        for p in sorted(root.glob("**/*")) if p.is_file()
    )


def test_load_repo_reads_the_tree_as_the_manifest_and_read_text_do(tmp_path):
    """One listing and one read per file give what `tree_digest` and
    `read_text` give: files by path parts, no symlinked directory, symlinked
    files included, universal newlines. The lists were taken at the rglob
    and read_text implementation."""
    linked = _write_awkward_tree(tmp_path)
    ctx = load_repo(tmp_path)
    assert ctx.tree_digest() == tree_digest(tmp_path)
    for unit in ctx.units:
        assert unit.source == (tmp_path / unit.path).read_text(encoding="utf-8"), unit.path
    assert "\r" not in "".join(u.source for u in ctx.units)
    alias = ["Alias.java"] if linked else []
    assert ctx.main_files == [
        ".Hidden.java", ".dot/Z.java", *alias, "a/Y.java", "a-b/X.java",
        "src/main/java/p/Bad.java", "src/main/java/p/Broken.java", "src/main/java/p/q/Deep.java",
    ]
    assert ctx.test_files == [
        "src/test/java/p/Crlf.java", "src/test/java/p/LoneCr.java", "tests/T.java",
    ]
    assert ctx.warnings == [
        "src/main/java/p/Bad.java: undecodable ('utf-8' codec can't decode byte 0xff in "
        "position 24: invalid start byte)",
        "src/main/java/p/Broken.java: parse failed (missing ';' after line 1)",
    ]


def test_find_throws_lists_a_tree_1000_directories_deep(tmp_path, capsys):
    """Listing keeps the directories still to list on its own stack, not on
    Python's, and orders the files by path parts."""
    deep = str(tmp_path)
    for _ in range(1000):  # os.makedirs and shutil.rmtree recurse once per level
        deep = os.path.join(deep, "d")
        os.mkdir(deep)
    try:
        with open(os.path.join(deep, "E.java"), "w") as f:
            f.write("class E { void f() { throw new IllegalStateException(); } }\n")
        (tmp_path / "d-x.java").write_text("class X { }\n")  # '-' sorts before '/'
        assert cli.main(["find-throws", str(tmp_path)]) == 0
        (row,) = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert row["target"] == "d/" * 1000 + "E.java:1"
        assert load_repo(tmp_path).main_files == ["d/" * 1000 + "E.java", "d-x.java"]
    finally:
        os.remove(os.path.join(deep, "E.java"))
        while deep != str(tmp_path):
            os.rmdir(deep)
            deep = os.path.dirname(deep)


def test_a_sweep_opens_each_java_file_once(tmp_path, monkeypatch):
    opened = Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)):
            opened[Path(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    argv = ["sweep", str(REPO_A), "--seed", "1", "--backend", "stub",
            "--runner", "recorded", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    java = sorted(REPO_A.rglob("*.java"))
    assert len(java) == 7
    assert {p: opened[p] for p in java} == {p: 1 for p in java}


def test_load_repo_purity():
    a = load_repo(REPO_A)
    b = load_repo(REPO_A)
    assert [u.path for u in a.units] == [u.path for u in b.units]
    assert a.calls == b.calls
    assert a.callees == b.callees
    assert find_throw_sites(a, "all") == find_throw_sites(b, "all")


def test_source_roots_override(tmp_path):
    (tmp_path / "code").mkdir()
    (tmp_path / "checks").mkdir()
    (tmp_path / "code/A.java").write_text("class A { }")
    (tmp_path / "checks/B.java").write_text("class B { }")
    ctx = load_repo(tmp_path, test_roots=["checks"])
    assert ctx.main_files == ["code/A.java"]
    assert ctx.test_files == ["checks/B.java"]


def test_two_throws_one_method_share_method_id():
    unit = parse_unit(
        """class C {
    void f(int x) {
        if (x == 1) { throw new A(); }
        if (x == 2) { throw new B(); }
    }
}""",
        "C.java",
    )
    from exbt.jmodel import RepoContext
    from pathlib import Path

    ctx = RepoContext(Path("."), [unit], ["C.java"], [], [], {})
    sites = find_throw_sites(ctx, "all")
    assert len(sites) == 2
    assert sites[0].method == sites[1].method
    assert [s.exception_type for s in sites] == ["A", "B"]


def test_throw_in_lambda_attributed_to_enclosing_method():
    unit = parse_unit(
        """class C {
    void f(java.util.List<Integer> xs) {
        xs.forEach(x -> {
            if (x > 0) { throw new IllegalStateException(); }
        });
    }
}""",
        "C.java",
    )
    from exbt.jmodel import RepoContext
    from pathlib import Path

    ctx = RepoContext(Path("."), [unit], ["C.java"], [], [], {})
    sites = find_throw_sites(ctx, "all")
    assert len(sites) == 1
    assert sites[0].method.name == "f"


def test_no_throws_empty_list(tmp_path):
    (tmp_path / "Quiet.java").write_text("class Quiet { int id(int x) { return x; } }")
    ctx = load_repo(tmp_path)
    assert find_throw_sites(ctx, "all") == []


def test_an_escaped_delimiter_does_not_end_a_text_block(tmp_path):
    r'''javac compiles this class: in a text block `\"""` is text and
    `\\"""` closes it. Ending the block at the first `\"""` made the whole
    file a parse warning with no throw sites.'''
    (tmp_path / "Doc.java").write_text(
        "class Doc {\n"
        "    String usage() {\n"
        '        return """\n'
        '            use \\""" to quote\n'
        '            a backslash ends it: \\\\""";\n'
        "    }\n"
        "    void check(int n) {\n"
        '        if (n < 0) throw new IllegalArgumentException("n");\n'
        "    }\n"
        "}\n"
    )
    ctx = load_repo(tmp_path)
    assert ctx.warnings == []
    assert [(s.method.name, s.line) for s in ctx.throw_sites] == [("check", 8)]


def test_find_throw_sites_ordering_and_scope(repo_a):
    main_sites = find_throw_sites(repo_a, "main")
    all_sites = find_throw_sites(repo_a, "all")
    keys = [(s.method.decl_file, s.line) for s in main_sites]
    assert keys == sorted(keys)
    assert set(main_sites) <= set(all_sites)
    # the test-file helper throw only appears in 'all'
    extra = set(all_sites) - set(main_sites)
    assert {s.method.name for s in extra} == {"explode"}


def test_statement_text_starts_with_throw(repo_a):
    for site in find_throw_sites(repo_a, "all"):
        assert site.statement_text.strip().startswith("throw")
        u, _, m = repo_a.resolve_method_id(site.method)
        assert u.tokens[m.tok_start].line <= site.line <= u.tokens[m.tok_last].line


def test_reachable_direct_call_chain(tmp_path):
    (tmp_path / "H.java").write_text(
        """class H {
    void h(int a) { check(a + 1); }
    void check(int v) { if (v == 0) { throw new E(); } }
}"""
    )
    ctx = load_repo(tmp_path)
    mut = next(m for m in ctx.all_method_ids() if m.name == "h")
    results = reachable_throws(ctx, mut)
    assert len(results) == 1
    site, path = results[0]
    assert site.exception_type == "E"
    assert [p.name for p in path] == ["h", "check"]


def test_reachable_own_body_is_path_of_one(repo_a):
    mut = next(m for m in repo_a.all_method_ids() if m.name == "withdraw")
    results = reachable_throws(repo_a, mut, max_depth=1)
    assert any(len(path) == 1 and path[0] == mut for _, path in results)


def test_reachable_recursive_pair_terminates(tmp_path):
    (tmp_path / "R.java").write_text(
        """class R {
    void ping(int n) { pong(n - 1); }
    void pong(int n) { ping(n - 1); }
}"""
    )
    ctx = load_repo(tmp_path)
    mut = next(m for m in ctx.all_method_ids() if m.name == "ping")
    assert reachable_throws(ctx, mut, max_depth=5) == []


def test_reachable_unknown_method(repo_a):
    from exbt.jmodel import MethodId

    ghost = MethodId("com.fix.Ghost", "spook", 0, "Ghost.java", 1)
    with pytest.raises(UnknownMethod):
        reachable_throws(repo_a, ghost)


def test_reachable_monotone_in_depth(tmp_path):
    (tmp_path / "Chain.java").write_text(
        """class Chain {
    void a() { b(); }
    void b() { c(); }
    void c() { d(); }
    void d() { throw new Deep(); }
    void b2() { if (true) { throw new Shallow(); } }
}"""
    )
    ctx = load_repo(tmp_path)
    mut = next(m for m in ctx.all_method_ids() if m.name == "a")
    previous: set = set()
    for depth in range(1, 6):
        now = {site for site, _ in reachable_throws(ctx, mut, depth)}
        assert previous <= now
        previous = now
    assert {s.exception_type for s in previous} == {"Deep"}


def test_call_edges_resolve_or_flag_external(repo_a):
    declared = {
        (call_name(m.fqn, m.name), m.param_arity, m.name == "<init>")
        for m in repo_a.all_method_ids()
    }
    for caller, sites in repo_a.calls.items():
        for callee in repo_a.callees[caller]:
            repo_a.resolve_method_id(callee)  # must not raise
        resolved = {(call_name(c.fqn, c.name), c.param_arity) for c in repo_a.callees[caller]}
        for name, arity, _, new in sites:
            # resolved in-repo exactly when declared in-repo, else external
            assert ((name, arity) in resolved) == ((name, arity, new) in declared)


def test_equal_arity_overloads_edge_to_all_candidates(tmp_path):
    (tmp_path / "O.java").write_text(
        """class O {
    void go(java.util.List<String> v) { handle(v); }
    void handle(String s) { }
    void handle(java.util.List<String> v) { }
}"""
    )
    ctx = load_repo(tmp_path)
    (go,) = [m for m in ctx.all_method_ids() if m.name == "go"]
    targets = {c.decl_line for c in ctx.callees[go] if c.name == "handle"}
    assert len(targets) == 2


def test_initializer_block_pseudo_method(tmp_path):
    (tmp_path / "I.java").write_text(
        """class I {
    static int K;
    static {
        if (K < 0) { throw new ExceptionInInitializerError(); }
        K = 1;
    }
}"""
    )
    ctx = load_repo(tmp_path)
    sites = find_throw_sites(ctx, "all")
    assert len(sites) == 1
    assert sites[0].method.name == "<clinit>"
