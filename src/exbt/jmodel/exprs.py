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

from dataclasses import MISSING, dataclass, fields

from exbt.errors import JavaParseError, UnboundName, UnsupportedConstruct
from exbt.jmodel.lexer import ASSIGN_OPS, PRIMITIVES, Token, match_paren, skip_type, tokenize


class Expr:
    __slots__ = ()


def _dict_init(cls: type) -> type:
    """Give a frozen dataclass an __init__ that stores each field straight
    into the instance dict. The one dataclasses writes for a frozen class
    calls object.__setattr__ once per field, which doubles the cost of
    building a small node; eq, hash, repr and the ban on assignment stay
    the frozen dataclass's own."""
    params = ", ".join(
        f.name if f.default is MISSING else f"{f.name}={f.default!r}" for f in fields(cls)
    )
    stores = "".join(f"\n    d[{f.name!r}] = {f.name}" for f in fields(cls))
    namespace: dict = {}
    exec(f"def __init__(self, {params}):\n    d = self.__dict__{stores}", namespace)
    cls.__init__ = namespace["__init__"]
    return cls


@_dict_init
@dataclass(frozen=True)
class Name(Expr):
    id: str


@_dict_init
@dataclass(frozen=True)
class Lit(Expr):
    text: str


@_dict_init
@dataclass(frozen=True)
class Field(Expr):
    recv: Expr
    name: str


@_dict_init
@dataclass(frozen=True)
class Call(Expr):
    recv: Expr | None
    name: str
    args: tuple[Expr, ...]


@_dict_init
@dataclass(frozen=True)
class Index(Expr):
    arr: Expr
    idx: Expr


@_dict_init
@dataclass(frozen=True)
class Unary(Expr):
    op: str
    operand: Expr
    postfix: bool = False


@_dict_init
@dataclass(frozen=True)
class Binary(Expr):
    op: str
    left: Expr
    right: Expr


@_dict_init
@dataclass(frozen=True)
class Ternary(Expr):
    cond: Expr
    then: Expr
    other: Expr


@_dict_init
@dataclass(frozen=True)
class InstanceOf(Expr):
    operand: Expr
    type_text: str


@_dict_init
@dataclass(frozen=True)
class Cast(Expr):
    type_text: str
    operand: Expr


@_dict_init
@dataclass(frozen=True)
class New(Expr):
    type_text: str
    args: tuple[Expr, ...] = ()


@_dict_init
@dataclass(frozen=True)
class Grouped(Expr):
    """Explicit parentheses inserted by substitution."""

    inner: Expr


@_dict_init
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


# operator precedence, higher binds tighter: the one table that the
# parser's climbing loop and the renderer read
_BIN_PREC = {
    **dict.fromkeys(ASSIGN_OPS, 1),
    "?": 2,
    "||": 3,
    "&&": 4,
    "|": 5,
    "^": 6,
    "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9, "instanceof": 9,
    "<<": 10, ">>": 10, ">>>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}
_UNARY_PREC = 14
_PRIMARY_PREC = 15


# an identifier or literal operand ends at once unless one of these follows
_FOLLOWERS = frozenset((".", "[", "(", "++", "--", "::", "->"))
_LEAF_KINDS = frozenset(("ident", "number", "string", "char"))
_LITERAL_KINDS = frozenset(("number", "string", "char"))
_CONSTANTS = frozenset(("true", "false", "null"))  # lexed as identifiers
_PREFIX_OPS = frozenset(("!", "~", "+", "-", "++", "--"))


class _Parser:
    def __init__(self, tokens: list[Token], source: str):
        self.toks = tokens
        self.src = source
        self.pos = 0
        self.arg_lists = 0  # call argument lists open around self.pos

    def peek(self) -> Token | None:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.pos < len(self.toks) and self.toks[self.pos].text == text

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t is None or t.text != text:
            got = "end of input" if t is None else repr(t.text)
            raise JavaParseError(f"expected {text!r}, got {got}")
        self.pos += 1
        return t

    def slice_text(self, start: int, end: int) -> str:
        if start >= end:
            return ""
        return self.src[self.toks[start].offset : self.toks[end - 1].end]

    # --- grammar ---

    def parse(self) -> Expr:
        e = self.parse_binary(0)
        if self.pos != len(self.toks):
            raise JavaParseError(
                f"trailing tokens in expression near {self.toks[self.pos].text!r}"
            )
        return e

    def parse_binary(self, min_prec: int) -> Expr:
        """An operand and every operator after it that binds at least as
        tightly as min_prec, climbing `_BIN_PREC`."""
        left = self.parse_operand()
        toks = self.toks
        while self.pos < len(toks):
            op = toks[self.pos].text
            prec = _BIN_PREC.get(op)
            if prec is None or prec < min_prec:
                break
            self.pos += 1
            if op == "instanceof":
                left = InstanceOf(left, self._parse_type_text())
            elif op == "?":
                then = self.parse_binary(0)
                self.expect(":")
                left = Ternary(left, then, self.parse_binary(prec))
            else:  # an assignment is right-associative
                right = self.parse_binary(prec if op in ASSIGN_OPS else prec + 1)
                left = Binary(op, left, right)
        return left

    def parse_operand(self) -> Expr:
        """Prefix operators and casts, a primary, then its postfix chain."""
        toks = self.toks
        n = len(toks)
        pos = self.pos
        prefixes: list[tuple[type, str]] = []  # (Unary, operator) or (Cast, type text)
        while True:
            if pos >= n:
                raise JavaParseError("expression ended unexpectedly")
            t = toks[pos]
            kind, text = t.kind, t.text
            if kind in _LEAF_KINDS and (pos + 1 == n or toks[pos + 1].text not in _FOLLOWERS):
                self.pos = pos + 1
                e = Name(text) if kind == "ident" and text not in _CONSTANTS else Lit(text)
                return _prefixed(e, prefixes) if prefixes else e
            if text in _PREFIX_OPS:
                prefixes.append((Unary, text))
                pos += 1
            elif text == "(" and self._looks_like_cast(pos):
                close = match_paren(toks, pos)
                prefixes.append((Cast, self.slice_text(pos + 1, close)))
                pos = close + 1
            else:
                break
        self.pos = pos
        # the primary
        if kind in _LITERAL_KINDS or text in _CONSTANTS:
            self.pos += 1
            e = Lit(text)
        elif text in ("this", "super"):
            self.pos += 1
            e = Name(text)
        elif text == "new":
            e = self._parse_new()
        elif text == "(":
            # parenthesized lambda: (a, b) -> ...
            close = match_paren(toks, pos)
            if close + 1 < n and toks[close + 1].text == "->":
                e = self._lambda(t.offset)
            else:
                self.pos += 1
                e = self.parse_binary(0)
                self.expect(")")
        elif kind == "ident" or (kind == "keyword" and text in PRIMITIVES):
            if pos + 1 < n and toks[pos + 1].text == "->":
                e = self._lambda(t.offset)
            else:
                self.pos += 1
                e = Call(None, text, self._parse_args()) if self.at("(") else Name(text)
        else:
            raise JavaParseError(f"unexpected token {text!r} in expression")
        # the postfix chain
        while self.pos < n:
            text = toks[self.pos].text
            if text == ".":
                name = toks[self.pos + 1] if self.pos + 1 < n else None
                if name is None or name.kind not in ("ident", "keyword"):
                    raise JavaParseError("dangling '.' in expression")
                self.pos += 2
                e = Call(e, name.text, self._parse_args()) if self.at("(") else Field(e, name.text)
            elif text == "[":
                self.pos += 1
                idx = self.parse_binary(0)
                self.expect("]")
                e = Index(e, idx)
            elif text in ("++", "--"):
                self.pos += 1
                e = Unary(text, e, True)
            elif text == "::":
                # method reference: keep the whole chain verbatim
                if self.pos + 1 == n:
                    raise JavaParseError("dangling '::' in expression")
                ref = toks[self.pos + 1]
                self.pos += 2
                e = Opaque(self.src[t.offset : ref.end])
                break
            else:
                break
        return _prefixed(e, prefixes) if prefixes else e

    # --- helpers ---

    def _parse_args(self) -> tuple[Expr, ...]:
        self.expect("(")
        args: list[Expr] = []
        if self.at(")"):
            self.next()
            return tuple(args)
        self.arg_lists += 1
        while True:
            args.append(self.parse_binary(0))
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

    def _looks_like_cast(self, k: int) -> bool:
        """Whether the '(' at k opens a cast."""
        close = match_paren(self.toks, k)
        if close == k + 1 or skip_type(self.toks, k + 1, close) != close:
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
            return self.toks[k + 1].text in PRIMITIVES
        return False


def _prefixed(e: Expr, prefixes: list[tuple[type, str]]) -> Expr:
    """e under its prefix operators and casts, the innermost applied first."""
    for cls, text in reversed(prefixes):
        e = cls(text, e)
    return e


def parse_expr(source: str) -> Expr:
    """Parse a standalone Java expression string."""
    return parse_expr_tokens(tokenize(source), source)


def parse_expr_tokens(tokens: list[Token], source: str) -> Expr:
    """Parse an expression from a token slice of a larger source."""
    if not tokens:
        raise JavaParseError("empty expression")
    return _Parser(tokens, source).parse()


# --- rendering ---


# each node type's precedence; a Binary's is its operator's, any other
# node type's is _PRIMARY_PREC
_PREC = {Unary: _UNARY_PREC, Cast: _UNARY_PREC,
         Ternary: _BIN_PREC["?"], InstanceOf: _BIN_PREC["instanceof"]}


def _prec(e: Expr) -> int:
    cls = type(e)
    return _BIN_PREC[e.op] if cls is Binary else _PREC.get(cls, _PRIMARY_PREC)


def render(e: Expr, names: dict[str, str] | None = None, used: set[str] | None = None) -> str:
    """Render with minimal parenthesization; explicit groups always show.

    A Name found in `names` renders as its text there, which must have
    primary precedence, as a bare name does. When `used` is given, the id
    of every Name rendered is added to it: that is `free_names(e)`."""
    cls = type(e)
    if cls is Name:
        if used is not None:
            used.add(e.id)
        return names.get(e.id, e.id) if names else e.id
    if cls is Lit or cls is Opaque:
        return e.text
    if cls is Binary:  # an assignment is right-associative: `a = b = c` needs no group
        p = _BIN_PREC[e.op]
        lp, rp = (p + 1, p) if e.op in ASSIGN_OPS else (p, p + 1)
        return f"{_child(e.left, lp, names, used)} {e.op} {_child(e.right, rp, names, used)}"
    if cls is Call:
        args = ", ".join([render(a, names, used) for a in e.args])
        if e.recv is None:
            return f"{e.name}({args})"
        return f"{_child(e.recv, _PRIMARY_PREC, names, used)}.{e.name}({args})"
    if cls is Unary:
        operand = _child(e.operand, _UNARY_PREC, names, used)
        if e.postfix:
            return f"{operand}{e.op}"
        # keep '-(-x)' from gluing into the '--' operator
        if e.op in ("+", "-") and operand.startswith(e.op[0]):
            operand = f"({operand})"
        return f"{e.op}{operand}"
    if cls is Grouped:
        return f"({render(e.inner, names, used)})"
    if cls is Field:
        return f"{_child(e.recv, _PRIMARY_PREC, names, used)}.{e.name}"
    if cls is Index:
        return f"{_child(e.arr, _PRIMARY_PREC, names, used)}[{render(e.idx, names, used)}]"
    if cls is Ternary:
        cond = _child(e.cond, _PREC[Ternary] + 1, names, used)
        then = render(e.then, names, used)
        return f"{cond} ? {then} : {_child(e.other, _PREC[Ternary], names, used)}"
    if cls is Cast:
        return f"({e.type_text}) {_child(e.operand, _UNARY_PREC, names, used)}"
    if cls is InstanceOf:
        return f"{_child(e.operand, _PREC[InstanceOf], names, used)} instanceof {e.type_text}"
    if cls is New:
        args = ", ".join([render(a, names, used) for a in e.args])
        return f"new {e.type_text}({args})"
    raise TypeError(f"cannot render {cls.__name__}")


def _child(e: Expr, min_prec: int, names: dict[str, str] | None, used: set[str] | None) -> str:
    text = render(e, names, used)
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
