"""The statement reader against the recursive descent it replaced.

`RefBodyParser` is the earlier `BodyParser`, kept as the reference: one
Python call per statement, so it stops at about 400 to 1,000 levels of
nesting. It shares the leaf readers (local variables, assignments and the
end of a simple statement), which did not change. On every input the two
give the same tree or raise the same class of error.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import write_guard_deep_repo, write_replicated_repo_a
from exbt.errors import ExbtError
from exbt.jmodel import parse_unit
from exbt.jmodel.lexer import (
    find_top_level,
    index_of,
    match_brace,
    match_paren,
    split_top_level,
    tokenize,
)
from exbt.jmodel.stmts import BodyParser, Stmt, _adopt

ROOT = Path(__file__).resolve().parents[1]


class RefBodyParser(BodyParser):
    def parse_block(self, open_index: int) -> Stmt:
        return self._parse_stmt(open_index, len(self.toks))[0]

    def _parse_stmt(self, pos: int, limit: int) -> tuple[Stmt, int]:
        t = self.toks[pos]
        text = t.text
        if text == ";":
            return self._stmt("empty", pos, pos + 1), pos + 1
        if text == "{":
            close = match_brace(self.toks, pos)
            block = self._stmt("block", pos, close + 1)
            p = pos + 1
            while p < close:
                child, p = self._parse_stmt(p, close)
                _adopt(block, child)
            return block, close + 1
        if text == "if":
            return self._parse_if(pos, limit)
        if text in ("while", "for", "synchronized"):
            return self._parse_headed(text, pos, limit)
        if text == "do":
            body, p = self._parse_stmt(pos + 1, limit)
            open_p = index_of(self.toks, p, "(")
            close_p = match_paren(self.toks, open_p)
            end = self._stmt_end(close_p + 1, limit)
            st = self._stmt("dowhile", pos, end)
            st.cond_range = (open_p + 1, close_p)
            _adopt(st, body, "body")
            return st, end
        if text == "switch":
            return self._parse_switch(pos, limit)
        if text == "try":
            return self._parse_try(pos, limit)
        if text in ("throw", "return", "break", "continue", "assert", "yield"):
            end = self._stmt_end(pos, limit)
            return self._stmt(text if text in ("throw", "return") else "other", pos, end), end
        if (
            t.kind == "ident"
            and pos + 1 < limit
            and self.toks[pos + 1].text == ":"
            and (pos + 2 >= limit or self.toks[pos + 2].text != ":")
        ):
            inner, end = self._parse_stmt(pos + 2, limit)
            st = self._stmt("labeled", pos, end)
            _adopt(st, inner)
            return st, end
        end = self._stmt_end(pos, limit)
        decl = self._try_local_var(pos, end)
        if decl is not None:
            return decl, end
        st = self._stmt("expr", pos, end)
        self._extract_assignment(st, pos, end)
        return st, end

    def _parse_if(self, pos: int, limit: int) -> tuple[Stmt, int]:
        open_p = index_of(self.toks, pos, "(")
        close_p = match_paren(self.toks, open_p)
        then_stmt, p = self._parse_stmt(close_p + 1, limit)
        else_stmt = None
        if p < limit and self.toks[p].text == "else":
            else_stmt, p = self._parse_stmt(p + 1, limit)
        st = self._stmt("if", pos, p)
        st.cond_range = (open_p + 1, close_p)
        _adopt(st, then_stmt, "then")
        if else_stmt is not None:
            _adopt(st, else_stmt, "else")
        return st, p

    def _parse_headed(self, kind: str, pos: int, limit: int) -> tuple[Stmt, int]:
        open_p = index_of(self.toks, pos, "(")
        close_p = match_paren(self.toks, open_p)
        body, end = self._parse_stmt(close_p + 1, limit)
        st = self._stmt(kind, pos, end)
        if kind == "while":
            st.cond_range = (open_p + 1, close_p)
        elif kind == "for":
            header = split_top_level(self.toks, open_p + 1, close_p, ";")
            if len(header) == 3 and header[1][1] > header[1][0]:
                st.cond_range = header[1]
        _adopt(st, body, "body")
        return st, end

    def _parse_switch(self, pos: int, limit: int) -> tuple[Stmt, int]:
        open_p = index_of(self.toks, pos, "(")
        close_p = match_paren(self.toks, open_p)
        open_b = index_of(self.toks, close_p, "{")
        close_b = match_brace(self.toks, open_b)
        st = self._stmt("switch", pos, close_b + 1)
        st.selector_range = (open_p + 1, close_p)
        p = open_b + 1
        group: Stmt | None = None
        while p < close_b:
            word = self.toks[p].text
            if word in ("case", "default"):
                group_start = p
                labels: list[tuple[int, int] | None] = []
                while p < close_b and self.toks[p].text in ("case", "default"):
                    end = find_top_level(self.toks, p + 1, close_b, (":", "->"))
                    if self.toks[p].text == "default":
                        labels.append(None)
                    else:
                        pieces = split_top_level(self.toks, p + 1, end, ",")
                        if pieces[-1][1] == pieces[-1][0]:
                            pieces.pop()
                        labels.extend(pieces)
                    p = end + 1
                group = self._stmt("case", group_start, p)
                group.labels = labels
                _adopt(st, group, "group")
                continue
            child, p = self._parse_stmt(p, close_b)
            if group is None:
                group = self._stmt("case", child.tok_start, child.tok_end)
                group.labels = []
                _adopt(st, group, "group")
            _adopt(group, child)
            group.tok_end = child.tok_end
        return st, close_b + 1

    def _parse_try(self, pos: int, limit: int) -> tuple[Stmt, int]:
        p = pos + 1
        if p < limit and self.toks[p].text == "(":
            p = match_paren(self.toks, p) + 1
        body, p = self._parse_stmt(p, limit)
        st = self._stmt("try", pos, p)
        _adopt(st, body, "body")
        while p < limit and self.toks[p].text == "catch":
            open_p = index_of(self.toks, p, "(")
            close_p = match_paren(self.toks, open_p)
            cbody, p = self._parse_stmt(close_p + 1, limit)
            catch = self._stmt("catch", open_p, p)
            _adopt(catch, cbody, "body")
            _adopt(st, catch, "catch")
        if p < limit and self.toks[p].text == "finally":
            fbody, p = self._parse_stmt(p + 1, limit)
            _adopt(st, fbody, "finally")
        st.tok_end = p
        return st, p


def _facts(root: Stmt) -> list[tuple]:
    """Every statement of the tree in pre-order, each with its number of
    children, which fixes the tree's shape without a nested value."""
    return [(s.kind, s.tok_start, s.tok_end, s.role, s.cond_range, s.selector_range,
             s.labels, s.assignments, len(s.children)) for s in root.iter_tree()]


def _outcome(parser: type, tokens, open_index: int):
    try:
        return _facts(parser(tokens).parse_block(open_index))
    except (ExbtError, IndexError, AssertionError) as e:
        return type(e).__name__


def assert_same_outcomes(tokens) -> int:
    """Both parsers from every '{' of the tokens; the number of cases."""
    cases = 0
    for k, t in enumerate(tokens):
        if t.text == "{":
            assert _outcome(BodyParser, tokens, k) == _outcome(RefBodyParser, tokens, k)
            cases += 1
    return cases


# --- nested statements ---

_SIMPLE = [";", "x = 1;", "int y = x + 2, z;", "f();", "throw new E();", "return x;",
           "break;", "continue L;", "x++;", "--x;", "yield 3;", "assert x > 0;", "s += t;"]
_LABELS = ["case 1:", "case 2, 3:", "default:", "case A ->", "default ->"]


@st.composite
def statements(draw, depth: int = 4) -> str:
    """A statement nesting up to depth levels of compound statements."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(st.sampled_from(_SIMPLE))

    def inner() -> str:
        return draw(statements(depth - 1))

    def block() -> str:
        return "{ " + " ".join(inner() for _ in range(draw(st.integers(0, 3)))) + " }"

    kind = draw(st.sampled_from(["block", "if", "else", "while", "for", "forever", "do",
                                 "label", "synchronized", "switch", "try"]))
    if kind == "switch":
        groups = [draw(st.sampled_from(_LABELS)) + " " + " ".join(
            inner() for _ in range(draw(st.integers(0, 2)))) for _ in range(draw(st.integers(0, 3)))]
        return "switch (x) { " + " ".join(groups) + " }"
    if kind == "try":
        head = draw(st.sampled_from(["try", "try (R r = open())"]))
        catches = "".join(f" catch (E{i} e) {block()}" for i in range(draw(st.integers(0, 2))))
        return f"{head} {block()}{catches}" + (f" finally {block()}" if draw(st.booleans()) else "")
    return {
        "block": block, "if": lambda: f"if (x > 0) {inner()}",
        "else": lambda: f"if (a) {inner()} else {inner()}",
        "while": lambda: f"while (i < n) {inner()}",
        "for": lambda: f"for (int i = 0; i < n; i++) {inner()}",
        "forever": lambda: f"for (;;) {inner()}", "do": lambda: f"do {inner()} while (x > 0);",
        "label": lambda: f"L: {inner()}", "synchronized": lambda: f"synchronized (this) {inner()}",
    }[kind]()


_EDITS = ["{", "}", "(", ")", ";", "else", "catch", "finally", "case", ":", "->", "if", "do"]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(statements(), min_size=1, max_size=4), st.data())
@example(["try { f(); } catch (E e) }"], None)
@example(["do x++; while"], None)
def test_nested_statements_read_as_the_reference_reads_them(body, data):
    """Nested statements, whole or with a token dropped or put in: the same
    tree or the same class of error from every '{'."""
    tokens = tokenize("{ " + " ".join(body) + " }")
    assert assert_same_outcomes(tokens) >= 1
    if data is None:
        return
    at = data.draw(st.integers(0, len(tokens)))
    if data.draw(st.booleans()):
        tokens = tokens[:at] + tokens[at + 1:]
    else:
        tokens = tokens[:at] + tokenize(data.draw(st.sampled_from(_EDITS))) + tokens[at:]
    assert_same_outcomes(tokens)


# --- the method bodies of the repository's Java and of generated repositories ---

def _java_sources(tmp: Path) -> list[str]:
    write_replicated_repo_a(tmp / "sweep-large", 2, seed=1)
    write_guard_deep_repo(tmp / "guard-deep", 4, 16, seed=1)
    paths = [*(ROOT / "tests").rglob("*.java"), *(ROOT / "perfbench").rglob("*.java"),
             *tmp.rglob("*.java")]
    return [p.read_text() for p in sorted(paths)]


@pytest.fixture(scope="module")
def java_sources(tmp_path_factory) -> list[str]:
    return _java_sources(tmp_path_factory.mktemp("generated"))


def test_every_method_body_reads_as_the_reference_reads_it(java_sources):
    cases = 0
    for source in java_sources:
        unit = parse_unit(source, "M.java")
        cases += assert_same_outcomes(unit.tokens)
    assert cases >= 400


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_cuts_of_method_bodies_read_as_the_reference_reads_them(java_sources, data):
    """A slice of a source, lexed when it lexes, parsed from each '{'."""
    source = data.draw(st.sampled_from(java_sources))
    lo = data.draw(st.one_of(st.just(0), st.integers(0, len(source))))
    hi = data.draw(st.one_of(st.just(len(source)), st.integers(lo, len(source))))
    try:
        tokens = tokenize(source[lo:hi])
    except ExbtError:
        return
    assert_same_outcomes(tokens)


def test_the_reference_reads_what_the_loop_reads_at_a_depth_it_reaches():
    for head, tail in (("if (x > 0) ", ""), ("{ ", "} "), ("while (i < n) ", ""),
                       ("try { ", "} finally { f(); } "), ("L: do ", "while (x > 0); ")):
        depth = 120
        tokens = tokenize("{ " + head * depth + "f(); " + tail * depth + "}")
        assert assert_same_outcomes(tokens) >= 1


def test_statements_nest_5000_deep():
    """The loop reads nesting far past the reference's reach."""
    depth = 5000
    for head, tail, kind in (("if (x > 0) { ", "} ", "if"),
                             ("switch (x) { case 1: ", "} ", "switch"),
                             ("try { ", "} catch (E e) { } ", "try"),
                             ("L: do ", "while (x > 0); ", "dowhile")):
        tokens = tokenize("{ " + head * depth + "f(); " + tail * depth + "}")
        kinds = Counter(s.kind for s in BodyParser(tokens).parse_block(0).iter_tree())
        assert (kinds[kind], kinds["expr"]) == (depth, 1)
