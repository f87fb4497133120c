"""The operand reader and the type-dispatched renderer against the parser
and renderer they replaced.

`_RefParser` is the earlier `exprs._Parser`, kept as the reference: every
operand went through `parse_unary`, `parse_postfix` and `parse_primary`,
and it read each precedence level in a method of its own. It takes
`instanceof` at relational precedence, as the parser does and Java does.
`ref_render` is the earlier `isinstance` ladder. Each input must give
equal trees, or the same error, from both parsers, and equal text from
both renderers. `ref_stmts_at_line` is the earlier two-pass line lookup,
the statements that `stmts.chains_at_line` starts its chains with.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES, write_call_chain, write_guard_deep_repo
from exbt.errors import JavaParseError
from exbt.jmodel import parse_unit
from exbt.jmodel.exprs import (
    _PRIMARY_PREC,
    _UNARY_PREC,
    Binary,
    Call,
    Cast,
    Expr,
    Field,
    Grouped,
    Index,
    InstanceOf,
    Lit,
    Name,
    New,
    Opaque,
    Ternary,
    Unary,
    free_names,
    parse_expr_tokens,
    render,
)
from exbt.jmodel.lexer import ASSIGN_OPS, PRIMITIVES, Token, call_sites, match_paren, skip_type, tokenize
from exbt.jmodel.stmts import BodyParser, chains_at_line
from test_expr_properties import NAMES, any_exprs, bool_exprs, int_exprs


# --- the parser, renderer and line lookup before the operand reader ---

# the precedence levels the reference parser and renderer read, copied from
# the parser they came from; `instanceof` binds at 9, the relational level
_BIN_PREC = {
    "||": 3,
    "&&": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10, ">>>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}
_TERNARY_PREC = 2
_ASSIGN_PREC = 1


class _RefParser:
    def __init__(self, tokens: list[Token], source: str):
        self.toks = tokens
        self.src = source
        self.pos = 0
        self.arg_lists = 0  # call argument lists open around self.pos

    def peek(self, ahead: int = 0) -> Token | None:
        k = self.pos + ahead
        return self.toks[k] if k < len(self.toks) else None

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        t = self.peek()
        return t is not None and t.text == text

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            got = "end of input" if t is None else repr(t.text)
            raise JavaParseError(f"expected {text!r}, got {got}")
        return self.next()

    def slice_text(self, start: int, end: int) -> str:
        if start >= end:
            return ""
        return self.src[self.toks[start].offset : self.toks[end - 1].end]

    # --- grammar ---

    def parse(self) -> Expr:
        e = self.parse_assign()
        if self.pos != len(self.toks):
            raise JavaParseError(
                f"trailing tokens in expression near {self.peek().text!r}"
            )
        return e

    def parse_assign(self) -> Expr:
        left = self.parse_ternary()
        t = self.peek()
        if t is not None and t.text in ASSIGN_OPS:
            self.next()
            right = self.parse_assign()
            return Binary(t.text, left, right)
        return left

    def parse_ternary(self) -> Expr:
        cond = self.parse_binary(0)
        if self.at("?"):
            self.next()
            then = self.parse_assign()
            self.expect(":")
            other = self.parse_ternary()
            return Ternary(cond, then, other)
        return cond

    def parse_binary(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t is None:
                return left
            if t.text == "instanceof" and min_prec <= 9:
                self.next()
                left = InstanceOf(left, self._parse_type_text())
                continue
            prec = _BIN_PREC.get(t.text)
            if prec is None or prec < min_prec:
                return left
            self.next()
            right = self.parse_binary(prec + 1)
            left = Binary(t.text, left, right)

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t is None:
            raise JavaParseError("expression ended unexpectedly")
        if t.text in ("!", "~", "+", "-", "++", "--"):
            self.next()
            return Unary(t.text, self.parse_unary())
        if t.text == "(" and self._looks_like_cast():
            self.next()
            close = match_paren(self.toks, self.pos - 1)
            type_text = self.slice_text(self.pos, close)
            self.pos = close + 1
            return Cast(type_text, self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        start = self.toks[self.pos].offset if self.pos < len(self.toks) else 0
        e = self.parse_primary()
        while True:
            t = self.peek()
            if t is None:
                return e
            if t.text == ".":
                nxt = self.peek(1)
                if nxt is None or nxt.kind not in ("ident", "keyword"):
                    raise JavaParseError("dangling '.' in expression")
                self.next()
                name_tok = self.next()
                if self.at("("):
                    args = self._parse_args()
                    e = Call(e, name_tok.text, args)
                else:
                    e = Field(e, name_tok.text)
            elif t.text == "[":
                self.next()
                idx = self.parse_assign()
                self.expect("]")
                e = Index(e, idx)
            elif t.text in ("++", "--"):
                self.next()
                e = Unary(t.text, e, postfix=True)
            elif t.text == "::":
                # method reference: keep the whole chain verbatim
                if self.peek(1) is None:
                    raise JavaParseError("dangling '::' in expression")
                self.next()
                ref = self.next()
                return Opaque(self.src[start : ref.end])
            else:
                return e

    def parse_primary(self) -> Expr:
        t = self.peek()
        if t is None:
            raise JavaParseError("expression ended unexpectedly")
        if t.kind in ("number", "string", "char"):
            self.next()
            return Lit(t.text)
        if t.text in ("true", "false", "null"):
            self.next()
            return Lit(t.text)
        if t.text in ("this", "super"):
            self.next()
            return Name(t.text)
        if t.text == "new":
            return self._parse_new()
        if t.text == "(":
            # parenthesized lambda: (a, b) -> ...
            close = match_paren(self.toks, self.pos)
            after = self.toks[close + 1] if close + 1 < len(self.toks) else None
            if after is not None and after.text == "->":
                return self._lambda(t.offset)
            self.next()
            inner = self.parse_assign()
            self.expect(")")
            return inner
        if t.kind == "ident" or (t.kind == "keyword" and t.text in PRIMITIVES):
            nxt = self.peek(1)
            if nxt is not None and nxt.text == "->":
                return self._lambda(t.offset)
            self.next()
            if self.at("("):
                args = self._parse_args()
                return Call(None, t.text, args)
            return Name(t.text)
        raise JavaParseError(f"unexpected token {t.text!r} in expression")

    # --- helpers ---

    def _parse_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        args: list[Expr] = []
        if self.at(")"):
            self.next()
            return tuple(args)
        self.arg_lists += 1
        while True:
            args.append(self.parse_assign())
            if not self.at(","):
                break
            self.next()
        self.arg_lists -= 1
        self.expect(")")
        return tuple(args)

    def _parse_new(self) -> Expr:
        start = self.next()  # 'new'
        type_start = self.pos
        self.pos = skip_type(self.toks, type_start, len(self.toks))
        if self.peek() is None:
            raise JavaParseError("incomplete new expression")
        type_text = "".join(t.text for t in self.toks[type_start : self.pos])
        if self.at("("):
            args = self._parse_args()
            if self.at("{"):  # anonymous class body: keep whole thing verbatim
                return self._opaque_to_end(start.offset)
            return New(type_text, args)
        # array creation and friends: verbatim
        return self._opaque_to_end(start.offset)

    def _lambda(self, start_offset: int) -> Opaque:
        """A lambda, verbatim. As a call argument it ends with the argument:
        at the first ',' at its own bracket depth or at the closer that
        leaves that depth. Anywhere else it runs to the end of the input."""
        if not self.arg_lists:
            return self._opaque_to_end(start_offset)
        depth = 0
        while self.pos < len(self.toks):
            text = self.toks[self.pos].text
            if depth == 0 and text in (",", ")", "]", "}"):
                break
            depth += (text in ("(", "[", "{")) - (text in (")", "]", "}"))
            self.pos += 1
        return Opaque(self.src[start_offset : self.toks[self.pos - 1].end])

    def _opaque_to_end(self, start_offset: int) -> Opaque:
        last = self.toks[-1]
        self.pos = len(self.toks)
        return Opaque(self.src[start_offset : last.end])

    def _parse_type_text(self) -> str:
        start = self.pos
        self.pos = skip_type(self.toks, start, len(self.toks))
        if self.pos == start:
            raise JavaParseError("instanceof without a type")
        return self.slice_text(start, self.pos)

    def _looks_like_cast(self) -> bool:
        close = match_paren(self.toks, self.pos)
        if close == self.pos + 1 or skip_type(self.toks, self.pos + 1, close) != close:
            return False
        after = self.toks[close + 1] if close + 1 < len(self.toks) else None
        if after is None:
            return False
        if after.kind in ("ident", "number", "string", "char"):
            return True
        if after.text in ("(", "!", "~", "new", "this", "super"):
            return True
        # (int) -1 is a cast, (a) - b is a subtraction
        if after.text in ("+", "-"):
            return self.toks[self.pos + 1].text in PRIMITIVES
        return False


def _ref_prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _ASSIGN_PREC if e.op in ASSIGN_OPS else _BIN_PREC[e.op]
    if isinstance(e, (Unary, Cast)):
        return _UNARY_PREC
    if isinstance(e, (Ternary,)):
        return _TERNARY_PREC
    if isinstance(e, InstanceOf):
        return 9
    return _PRIMARY_PREC


def ref_render(e: Expr, names: dict[str, str] | None = None) -> str:
    if isinstance(e, Name):
        return names.get(e.id, e.id) if names else e.id
    if isinstance(e, Lit):
        return e.text
    if isinstance(e, Opaque):
        return e.text
    if isinstance(e, Grouped):
        return f"({ref_render(e.inner, names)})"
    if isinstance(e, Field):
        return f"{_ref_child(e.recv, _PRIMARY_PREC, names)}.{e.name}"
    if isinstance(e, Call):
        args = ", ".join(ref_render(a, names) for a in e.args)
        if e.recv is None:
            return f"{e.name}({args})"
        return f"{_ref_child(e.recv, _PRIMARY_PREC, names)}.{e.name}({args})"
    if isinstance(e, Index):
        return f"{_ref_child(e.arr, _PRIMARY_PREC, names)}[{ref_render(e.idx, names)}]"
    if isinstance(e, New):
        args = ", ".join(ref_render(a, names) for a in e.args)
        return f"new {e.type_text}({args})"
    if isinstance(e, Unary):
        if e.postfix:
            return f"{_ref_child(e.operand, _UNARY_PREC, names)}{e.op}"
        operand = _ref_child(e.operand, _UNARY_PREC, names)
        # keep '-(-x)' from gluing into the '--' operator
        if e.op in ("+", "-") and operand.startswith(e.op[0]):
            operand = f"({operand})"
        return f"{e.op}{operand}"
    if isinstance(e, Cast):
        return f"({e.type_text}) {_ref_child(e.operand, _UNARY_PREC, names)}"
    if isinstance(e, InstanceOf):
        return f"{_ref_child(e.operand, 9, names)} instanceof {e.type_text}"
    if isinstance(e, Binary):
        p = _ref_prec(e)
        if e.op in ASSIGN_OPS:  # right-associative: `a = b = c` needs no group
            left, right = _ref_child(e.left, p + 1, names), _ref_child(e.right, p, names)
        else:
            left, right = _ref_child(e.left, p, names), _ref_child(e.right, p + 1, names)
        return f"{left} {e.op} {right}"
    if isinstance(e, Ternary):
        cond = _ref_child(e.cond, _TERNARY_PREC + 1, names)
        then = ref_render(e.then, names)
        return f"{cond} ? {then} : {_ref_child(e.other, _TERNARY_PREC, names)}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _ref_child(e: Expr, min_prec: int, names: dict[str, str] | None) -> str:
    text = ref_render(e, names)
    if _ref_prec(e) < min_prec:
        return f"({text})"
    return text


def ref_stmts_at_line(root, tokens: list[Token], line: int) -> list:
    def holds(s) -> bool:
        return tokens[s.tok_start].line <= line <= tokens[s.tok_end - 1].line

    hits = [s for s in root.iter_tree() if holds(s)]
    return [s for s in hits if not any(holds(c) for c in s.children)]


def ref_parse_expr_tokens(tokens: list[Token], source: str) -> Expr:
    if not tokens:
        raise JavaParseError("empty expression")
    return _RefParser(list(tokens), source).parse()


def _outcome(parse, tokens: list[Token], source: str):
    """The tree, or the type and message of the error raised."""
    try:
        return parse(tokens, source)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _disagreements(tokens: list[Token], source: str) -> list:
    got = _outcome(parse_expr_tokens, tokens, source)
    want = _outcome(ref_parse_expr_tokens, tokens, source)
    return [] if got == want else [(source[tokens[0].offset:tokens[-1].end], got, want)]


# --- every expression range of the fixtures and of a deep call chain ---


@pytest.fixture(scope="module")
def bodies(tmp_path_factory):
    """(unit, body tree) of every method of every fixture Java file, of a
    depth-16 `write_call_chain` repository and of a guard-deep repository."""
    chain = tmp_path_factory.mktemp("chain")
    write_call_chain(chain, 16)
    guard = tmp_path_factory.mktemp("guard")
    write_guard_deep_repo(guard, 4, 16, 1)
    found = []
    paths = [*FIXTURES.rglob("*.java"), *chain.rglob("*.java"), *guard.rglob("*.java")]
    for path in sorted(paths):
        unit = parse_unit(path.read_text(encoding="utf-8"), Path(path).name)
        parser = BodyParser(unit.tokens)
        found += [(unit, parser.parse_block(m.tok_open))
                  for _, m in unit.all_methods() if m.tok_open is not None]
    return found


def _ranges(unit, tree) -> list[tuple[int, int]]:
    """The condition, selector, switch-label, assignment and call-argument
    token ranges of one body."""
    found = []
    for s in tree.iter_tree():
        found += [r for r in (s.cond_range, s.selector_range) if r is not None]
        found += [r for r in s.labels or [] if r is not None]
        found += [r for _, r, _ in s.assignments]
    for _, _, args, _ in call_sites(unit.tokens, tree.tok_start, tree.tok_end):
        found += args
    return found


def test_every_fixture_range_parses_as_before(bodies):
    ranges = [(unit, r) for unit, tree in bodies for r in _ranges(unit, tree)]
    trees = 0
    bad = []
    for unit, (lo, hi) in ranges:
        tokens = unit.tokens[lo:hi]
        if tokens:
            bad += _disagreements(tokens, unit.source)
        trees += isinstance(_outcome(parse_expr_tokens, tokens, unit.source), Expr)
    assert bad == []
    assert len(ranges) > 500 and trees > 450


METHOD_REFS = """class Refs {
    void check(java.util.List<String> names, Object o) {
        if (names.stream().anyMatch(String::isEmpty)) throw new IllegalStateException();
        while (java.util.Objects.equals(o, names) && test(Object::toString)) o = null;
    }
}
"""


def test_every_prefix_of_a_fixture_condition_parses_or_is_a_parse_error(bodies):
    """A condition cut after any of its tokens gives a tree or a
    JavaParseError, never another exception. The fixtures hold no method
    reference, so two conditions with one are added."""
    refs = parse_unit(METHOD_REFS, "Refs.java")
    [(_, check)] = refs.all_methods()
    bodies = [*bodies, (refs, BodyParser(refs.tokens).parse_block(check.tok_open))]
    conditions = [(unit, s.cond_range) for unit, tree in bodies
                  for s in tree.iter_tree() if s.cond_range is not None]
    prefixes = errors = 0
    for unit, (lo, hi) in conditions:
        for end in range(lo + 1, hi + 1):
            prefixes += 1
            try:
                parse_expr_tokens(unit.tokens[lo:end], unit.source)
            except JavaParseError:
                errors += 1
    assert len(conditions) > 100 and 0 < errors < prefixes


def test_chains_at_line_start_with_the_two_pass_walks_statements(bodies):
    for unit, tree in bodies:
        first, last = unit.tokens[tree.tok_start].line, unit.tokens[tree.tok_end - 1].line
        for line in range(first - 1, last + 2):
            assert [id(chain[0]) for chain in chains_at_line(tree, unit.tokens, line)] == \
                [id(s) for s in ref_stmts_at_line(tree, unit.tokens, line)]


def test_every_statement_holds_a_token(bodies):
    """`chains_at_line` reads the lines of each statement's first and last
    tokens, so both are tokens of the unit."""
    for unit, tree in bodies:
        for s in tree.iter_tree():
            assert s.tok_start < s.tok_end <= len(unit.tokens)


# --- generated inputs ---

PIECES = (
    "a", "b", "x", "size", "0", "1", "2.5", '"s"', "'c'", "true", "false", "null",
    "this", "super", "int", "new", "new Box(", "new int[", "(int)", "(String)", "(a)",
    "(java.util.List<T>)", ".", ".c", "a.b(", "[", "]", "(", ")", ",", "{", "}",
    "++", "--", "+", "-", "*", "%", "<", ">=", "==", "&&", "||", "!", "~", "?", ":",
    "=", "+=", "instanceof", "->", "x ->", "(a, b) ->", "::", "String::valueOf",
)


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=12).map(" ".join))
@example("u >= -29")
@example("(int) -x + (a) - b")
@example("f(x -> x + 1, y)[i]++ . size ( )")
@example("a ::")
@example("-!~(String) (true) . b [ 0 ] --")
def test_token_strings_parse_as_before(text):
    assert _disagreements(tokenize(text), text) == []


def test_a_dangling_method_reference_is_a_parse_error():
    """Neither parser reads past the last token."""
    for text in ("a ::", "x < 0 || f(y) ::"):
        assert _outcome(parse_expr_tokens, tokenize(text), text) == (
            "JavaParseError", "dangling '::' in expression")


@settings(max_examples=500, deadline=None)
@given(st.one_of(any_exprs(), int_exprs(), bool_exprs()))
def test_rendered_trees_parse_as_before(e):
    text = render(e)
    assert _disagreements(tokenize(text), text) == []


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(any_exprs(), int_exprs(), bool_exprs()),
    st.dictionaries(st.sampled_from(NAMES + ("x", "y", "size")),
                    st.sampled_from(["k", "(a + 1)", "f(b)", "-1"]), max_size=3),
)
def test_render_equals_the_isinstance_ladder(e, names):
    used: set[str] = set()
    assert render(e, names, used) == ref_render(e, names)
    assert render(e) == ref_render(e)
    assert used == free_names(e)
