"""Java expression trees for guard conditions.

Covers the subset that matters for guard extraction: names, literals,
arithmetic/comparison/logic operators, calls, field/array access, ternaries,
casts and `new`. Anything else (lambdas, method references) is kept as an
opaque verbatim chunk so conditions survive round-trips untouched.

Substitution works on the tree, never on text: replacing a name with a
compound expression inserts an explicit group so the rendered condition can
never change meaning through operator precedence.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from exbt.errors import JavaParseError, UnboundName, UnsupportedConstruct
from exbt.jmodel.lexer import ASSIGN_OPS, PRIMITIVES, Token, match_paren, skip_type, tokenize


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Name(Expr):
    id: str


@dataclass(frozen=True)
class Lit(Expr):
    text: str


@dataclass(frozen=True)
class Field(Expr):
    recv: Expr
    name: str


@dataclass(frozen=True)
class Call(Expr):
    recv: Expr | None
    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Index(Expr):
    arr: Expr
    idx: Expr


@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    postfix: bool = False


@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class InstanceOf(Expr):
    operand: Expr
    type_text: str


@dataclass(frozen=True)
class Cast(Expr):
    type_text: str
    operand: Expr


@dataclass(frozen=True)
class New(Expr):
    type_text: str
    args: tuple[Expr, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class Grouped(Expr):
    """Explicit parentheses inserted by substitution."""

    inner: Expr


@dataclass(frozen=True)
class Opaque(Expr):
    """Verbatim source for constructs outside the supported grammar."""

    text: str


# The one statement of expression shape: each node type's sub-expression
# fields, in source order. A field holds an Expr, None (a call without a
# receiver) or a tuple of Exprs.
SUBEXPRS: dict[type, tuple[str, ...]] = {
    Name: (), Lit: (), Opaque: (),
    Grouped: ("inner",),
    Field: ("recv",),
    Call: ("recv", "args"),
    Index: ("arr", "idx"),
    New: ("args",),
    Unary: ("operand",),
    Cast: ("operand",),
    InstanceOf: ("operand",),
    Binary: ("left", "right"),
    Ternary: ("cond", "then", "other"),
}
# each node type's constructor fields, flagged when they hold sub-expressions
_LAYOUT = {
    cls: tuple((f.name, f.name in subs) for f in fields(cls)) for cls, subs in SUBEXPRS.items()
}


def children(e: Expr) -> list[Expr]:
    """The sub-expressions of e, in source order."""
    kids: list[Expr] = []
    for f in SUBEXPRS[type(e)]:
        v = getattr(e, f)
        if type(v) is tuple:
            kids += v
        elif v is not None:
            kids.append(v)
    return kids


# operator precedence, higher binds tighter
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
_UNARY_PREC = 14
_TERNARY_PREC = 2
_ASSIGN_PREC = 1
_PRIMARY_PREC = 15


class _Parser:
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
            if t.text == "instanceof":
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


def parse_expr(source: str) -> Expr:
    """Parse a standalone Java expression string."""
    tokens = tokenize(source)
    if not tokens:
        raise JavaParseError("empty expression")
    return _Parser(tokens, source).parse()


def parse_expr_tokens(tokens: list[Token], source: str) -> Expr:
    """Parse an expression from a token slice of a larger source."""
    if not tokens:
        raise JavaParseError("empty expression")
    return _Parser(list(tokens), source).parse()


# --- rendering ---


def _prec(e: Expr) -> int:
    if isinstance(e, Binary):
        return _ASSIGN_PREC if e.op in ASSIGN_OPS else _BIN_PREC[e.op]
    if isinstance(e, (Unary, Cast)):
        return _UNARY_PREC
    if isinstance(e, (Ternary,)):
        return _TERNARY_PREC
    if isinstance(e, InstanceOf):
        return 9
    return _PRIMARY_PREC


def render(e: Expr, names: dict[str, str] | None = None) -> str:
    """Render with minimal parenthesization; explicit groups always show.

    A Name found in `names` renders as its text there, which must have
    primary precedence, as a bare name does."""
    if isinstance(e, Name):
        return names.get(e.id, e.id) if names else e.id
    if isinstance(e, Lit):
        return e.text
    if isinstance(e, Opaque):
        return e.text
    if isinstance(e, Grouped):
        return f"({render(e.inner, names)})"
    if isinstance(e, Field):
        return f"{_child(e.recv, _PRIMARY_PREC, names)}.{e.name}"
    if isinstance(e, Call):
        args = ", ".join(render(a, names) for a in e.args)
        if e.recv is None:
            return f"{e.name}({args})"
        return f"{_child(e.recv, _PRIMARY_PREC, names)}.{e.name}({args})"
    if isinstance(e, Index):
        return f"{_child(e.arr, _PRIMARY_PREC, names)}[{render(e.idx, names)}]"
    if isinstance(e, New):
        args = ", ".join(render(a, names) for a in e.args)
        return f"new {e.type_text}({args})"
    if isinstance(e, Unary):
        if e.postfix:
            return f"{_child(e.operand, _UNARY_PREC, names)}{e.op}"
        operand = _child(e.operand, _UNARY_PREC, names)
        # keep '-(-x)' from gluing into the '--' operator
        if e.op in ("+", "-") and operand.startswith(e.op[0]):
            operand = f"({operand})"
        return f"{e.op}{operand}"
    if isinstance(e, Cast):
        return f"({e.type_text}) {_child(e.operand, _UNARY_PREC, names)}"
    if isinstance(e, InstanceOf):
        return f"{_child(e.operand, 9, names)} instanceof {e.type_text}"
    if isinstance(e, Binary):
        p = _prec(e)
        left = _child(e.left, p, names)
        right = _child(e.right, p + 1, names)
        return f"{left} {e.op} {right}"
    if isinstance(e, Ternary):
        cond = _child(e.cond, _TERNARY_PREC + 1, names)
        then = render(e.then, names)
        return f"{cond} ? {then} : {_child(e.other, _TERNARY_PREC, names)}"
    raise TypeError(f"cannot render {type(e).__name__}")


def _child(e: Expr, min_prec: int, names: dict[str, str] | None) -> str:
    text = render(e, names)
    if _prec(e) < min_prec:
        return f"({text})"
    return text


# --- substitution ---


def grouped(e: Expr) -> Expr:
    """e as the replacement of a name: a primary stays bare, anything that
    binds looser goes in an explicit group."""
    return e if _prec(e) == _PRIMARY_PREC else Grouped(e)


def substitute(e: Expr, mapping: dict[str, Expr]) -> Expr:
    """Replace free names with mapped expressions, on the tree.

    Method names and field member names are never touched; substituted
    compound expressions are wrapped in an explicit group.
    """
    cls = type(e)
    if cls is Name:
        repl = mapping.get(e.id)
        return e if repl is None else grouped(repl)
    if not SUBEXPRS[cls]:
        return e
    values = []
    for f, sub in _LAYOUT[cls]:
        v = getattr(e, f)
        if sub and v is not None:
            v = tuple([substitute(a, mapping) for a in v]) if type(v) is tuple else substitute(v, mapping)
        values.append(v)
    return cls(*values)


def free_names(e: Expr) -> set[str]:
    """Names used as values (method and field member names excluded)."""
    names: set[str] = set()
    stack = [e]
    while stack:
        e = stack.pop()
        if type(e) is Name:
            names.add(e.id)
        else:
            stack += children(e)
    return names


# --- evaluation ---


def _java_div(a: int, b: int) -> int:
    q = a // b
    if (a % b != 0) and ((a < 0) != (b < 0)):
        q += 1
    return q


def _java_rem(a: int, b: int) -> int:
    return a - _java_div(a, b) * b


def evaluate(e: Expr, env: dict[str, int | bool]):
    """Evaluate over ints/booleans with Java division and short circuits."""
    if isinstance(e, Lit):
        t = e.text
        if t == "true":
            return True
        if t == "false":
            return False
        if len(t) >= 2 and t[0] == "'" and t[-1] == "'":
            body = t[1:-1]
            if body.startswith("\\"):
                escapes = {"n": "\n", "t": "\t", "r": "\r", "0": "\0",
                           "'": "'", '"': '"', "\\": "\\"}
                body = escapes.get(body[1:], body[1:])
            return ord(body)
        try:
            return int(t.replace("_", ""), 0)
        except ValueError:
            raise UnsupportedConstruct(f"literal {t!r} is not an int/bool")
    if isinstance(e, Name):
        if e.id not in env:
            raise UnboundName(e.id)
        return env[e.id]
    if isinstance(e, Grouped):
        return evaluate(e.inner, env)
    if isinstance(e, Unary):
        if e.postfix or e.op in ("++", "--", "~"):
            raise UnsupportedConstruct(f"operator {e.op!r}")
        v = evaluate(e.operand, env)
        if e.op == "!":
            return not v
        if e.op == "-":
            return -v
        return +v
    if isinstance(e, Binary):
        op = e.op
        if op == "&&":
            return bool(evaluate(e.left, env)) and bool(evaluate(e.right, env))
        if op == "||":
            return bool(evaluate(e.left, env)) or bool(evaluate(e.right, env))
        lv = evaluate(e.left, env)
        rv = evaluate(e.right, env)
        if op == "+":
            return lv + rv
        if op == "-":
            return lv - rv
        if op == "*":
            return lv * rv
        if op == "/":
            return _java_div(lv, rv)
        if op == "%":
            return _java_rem(lv, rv)
        if op == "==":
            return lv == rv
        if op == "!=":
            return lv != rv
        if op == "<":
            return lv < rv
        if op == ">":
            return lv > rv
        if op == "<=":
            return lv <= rv
        if op == ">=":
            return lv >= rv
        raise UnsupportedConstruct(f"operator {op!r}")
    if isinstance(e, Ternary):
        return evaluate(e.then, env) if evaluate(e.cond, env) else evaluate(e.other, env)
    raise UnsupportedConstruct(type(e).__name__)
