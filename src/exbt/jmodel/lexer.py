"""Tolerant Java tokenizer.

Comments are skipped, string/char/text-block literals are kept as single
tokens, and every token records its 1-based line so downstream lookups can
map stack-trace lines back onto source constructs.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from exbt.errors import JavaParseError

KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while var record yield
    sealed permits""".split()
)

OPERATORS = (
    ">>>=", "<<=", ">>=", ">>>", "...", "->", "::", "==", "!=", "<=", ">=",
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "<<", ">>", "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|",
    "^", "?", ":", "@",
)
# the operators by first character, longest first so that ">>>=" wins over
# ">>"; every list but '.' ends with its one-character operator
_OPERATORS_BY_FIRST = {
    c: tuple(sorted((op for op in OPERATORS if op[0] == c), key=len, reverse=True))
    for c in {op[0] for op in OPERATORS}
}

PUNCT = frozenset("(){}[];,.")

PRIMITIVES = frozenset("boolean byte char short int long float double".split())
ASSIGN_OPS = frozenset("= += -= *= /= %= &= |= ^= <<= >>= >>>=".split())
# keywords that elsewhere name things: `void record(Event e)`, `com.x.record.Err`
CONTEXTUAL_KEYWORDS = frozenset("var record yield sealed permits".split())


class Token(NamedTuple):
    kind: str  # ident | keyword | number | string | char | op | punct
    text: str
    line: int
    offset: int  # absolute character offset into the source

    @property
    def end(self) -> int:
        return self.offset + len(self.text)


# `\s` and `\w` are exactly `str.isspace` and `str.isalnum` plus '_'
_space_run = re.compile(r"\s+").match
_word_run = re.compile(r"\w*").match
_ident_tail = re.compile(r"[\w$]*").match
# a quoted literal ends at its first unescaped quote, and no line break may
# come before it unescaped
_LITERALS = {
    '"': ("string", re.compile(r'"(?:[^"\\\n]|\\[\s\S])*"').match),
    "'": ("char", re.compile(r"'(?:[^'\\\n]|\\[\s\S])*'").match),
}
# a text block ends at its first three unescaped quotes, so `\"""` is text
_text_block = re.compile(r'"""(?:[^"\\]|\\[\s\S]|"(?!""))*"""').match


def _char_class(c: str) -> str | None:
    """What a token or gap that starts with c is; None when nothing starts
    with it."""
    if c.isspace():
        return "space"
    if c.isdigit():
        return "number"
    if c.isalpha() or c in "_$":
        return "word"
    if c == ".":
        return "dot"
    if c in PUNCT:
        return "punct"
    if c in "\"'":
        return "quote"
    if c == "/":
        return "slash"
    if c in _OPERATORS_BY_FIRST:
        return "op"
    return None


_ASCII_CLASSES = {c: k for c in map(chr, range(128)) if (k := _char_class(c))}


def _number_end(source: str, i: int) -> int:
    """End of the number literal at i, which is a digit or a '.' before
    one: a hex or binary literal runs over word characters; a decimal one
    also takes a '.' before a digit and a sign after an exponent's 'e'."""
    if source.startswith(("0x", "0X", "0b", "0B"), i):
        return _word_run(source, i + 2).end()
    n = len(source)
    j = i
    while True:
        j = _word_run(source, j).end()
        if j + 1 < n and source[j] == "." and source[j + 1].isdigit():
            j += 1
        elif j < n and source[j] in "+-" and source[j - 1] in "eE":
            j += 1
        else:
            return j


def tokenize(source: str) -> list[Token]:
    """Tokenize Java source. Raises JavaParseError, with the offset of the
    construct it stopped at, on an unterminated literal or comment and on a
    character no token starts with."""
    tokens: list[Token] = []
    append = tokens.append
    new = tuple.__new__  # a Token without NamedTuple's Python-level __new__
    classes = _ASCII_CLASSES
    i = 0
    line = 1
    n = len(source)
    while i < n:
        c = source[i]
        try:
            kind = classes[c]
        except KeyError:
            kind = _char_class(c)
        if kind == "word":
            j = _ident_tail(source, i + 1).end()
            text = source[i:j]
            append(new(Token, ("keyword" if text in KEYWORDS else "ident", text, line, i)))
            # the space that most often follows a word, stepped over here
            i = j + 1 if j < n and source[j] == " " else j
        elif kind == "space":
            if c == " " and i + 1 < n and not source[i + 1].isspace():
                i += 1  # a lone plain space: no line break to count
            else:
                j = _space_run(source, i).end()
                line += source.count("\n", i, j)
                i = j
        elif kind == "punct":
            append(new(Token, ("punct", c, line, i)))
            i += 1
        elif kind == "dot" and not (i + 1 < n and source[i + 1].isdigit()):
            text = "..." if source.startswith("...", i) else "."
            append(new(Token, ("op" if text == "..." else "punct", text, line, i)))
            i += len(text)
        elif kind == "number" or kind == "dot":
            j = _number_end(source, i)
            append(new(Token, ("number", source[i:j], line, i)))
            i = j
        elif kind == "quote":
            if source.startswith('"""', i):
                m = _text_block(source, i)
                if m is None:
                    raise JavaParseError(f"unterminated text block at line {line}", i)
                text = m.group()
                append(new(Token, ("string", text, line, i)))
                line += text.count("\n")
            else:
                literal_kind, literal = _LITERALS[c]
                m = literal(source, i)
                if m is None:
                    raise JavaParseError(f"unterminated literal at line {line}", i)
                append(new(Token, (literal_kind, m.group(), line, i)))
            i = m.end()
        elif kind == "slash" and source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
        elif kind == "slash" and source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise JavaParseError(f"unterminated comment at line {line}", i)
            line += source.count("\n", i, j)
            i = j + 2
        elif kind is None:
            raise JavaParseError(f"unexpected character {c!r} at line {line}", i)
        else:
            for op in _OPERATORS_BY_FIRST[c]:
                if source.startswith(op, i):
                    break
            append(new(Token, ("op", op, line, i)))
            i += len(op)
    return tokens


_OPENERS = frozenset("([{")
_CLOSERS = frozenset(")]}")


def find_top_level(tokens: list[Token], lo: int, hi: int, stops: tuple[str, ...]) -> int:
    """First index in [lo, hi) at bracket depth 0 whose text is in stops,
    or hi when there is none.

    Depth counts '(', '[' and '{' against ')', ']' and '}' from lo. A stray
    closer takes it below 0, and nothing matches until an opener brings it
    back; brackets themselves are never stops."""
    depth = 0
    for k in range(lo, hi):
        t = tokens[k].text
        if t in _OPENERS:
            depth += 1
        elif t in _CLOSERS:
            depth -= 1
        elif depth == 0 and t in stops:
            return k
    return hi


_ANGLE_CLOSERS = {">": 1, ">>": 2, ">>>": 3}


def match_angle(tokens: list[Token], open_index: int, hi: int) -> int:
    """Index in [open_index, hi) of the token that closes the type-argument
    list opened by the '<' at open_index, or hi when none closes it.

    The lexer reads `>>` and `>>>` as one token, so they close two and
    three nested lists."""
    depth = 0
    for k in range(open_index, hi):
        t = tokens[k].text
        if t == "<":
            depth += 1
        elif t in _ANGLE_CLOSERS:
            depth -= _ANGLE_CLOSERS[t]
            if depth <= 0:
                return k
    return hi


def is_name(tok: Token) -> bool:
    return tok.kind == "ident" or tok.text in CONTEXTUAL_KEYWORDS


def skip_name(tokens: list[Token], k: int, hi: int) -> int:
    """Index just past the dotted name that starts at k, or k when none does."""
    if k < hi and is_name(tokens[k]):
        k += 1
        while k + 1 < hi and tokens[k].text == "." and is_name(tokens[k + 1]):
            k += 2
    return k


def _skip_type_annotations(tokens: list[Token], k: int, hi: int) -> int:
    """Index past the `@Name` markers from k, as in `java.util.@A List`."""
    while k + 1 < hi and tokens[k].text == "@" and is_name(tokens[k + 1]):
        k = skip_name(tokens, k + 1, hi)
    return k


def skip_type(tokens: list[Token], k: int, hi: int) -> int:
    """Index just past the type that starts at k: a dotted name or a
    primitive, type arguments on any part, then `[]` dimensions. Type-use
    annotations after a '.' or before a `[]` are part of it. It is k when
    no type starts there, and hi when a type-argument list does not close
    before hi."""
    if k < hi and (tokens[k].kind == "ident" or tokens[k].text in PRIMITIVES):
        k += 1
        while True:
            if k < hi and tokens[k].text == "<":
                k = min(match_angle(tokens, k, hi) + 1, hi)
            nxt = _skip_type_annotations(tokens, k + 1, hi)
            if not (k < hi and tokens[k].text == "." and nxt < hi and is_name(tokens[nxt])):
                break
            k = nxt + 1
    dim = _skip_type_annotations(tokens, k, hi)
    while dim + 1 < hi and tokens[dim].text == "[" and tokens[dim + 1].text == "]":
        k = dim + 2
        dim = _skip_type_annotations(tokens, k, hi)
    return k


def call_sites(tokens: list[Token], lo: int, hi: int):
    """Each call in [lo, hi) in source order, nested calls included, as
    (name index, whether it follows `new`, argument ranges, index of ')').

    A call is a name followed by '(', or `new`, a type (type arguments
    included) and '('; a `new` call is named by the last part of the dotted
    name. A name is an identifier or a contextual keyword, but `yield` only
    after '.': `yield (x);` is a statement; an explicit constructor call is
    named `this` or `super`. `()` has no argument ranges.
    Raises JavaParseError at the first call whose '(' does not close before
    hi, after the calls that come before it."""
    k = lo
    while k < hi:
        name, paren, new = k, k + 1, tokens[k].text == "new"
        if new:
            name, paren = skip_name(tokens, k + 1, hi) - 1, skip_type(tokens, k + 1, hi)
        word = tokens[name]
        if (
            name < paren < hi and tokens[paren].text == "("
            and (is_name(word) or word.text in ("this", "super"))
            and (word.text != "yield" or name > 0 and tokens[name - 1].text == ".")
        ):
            close = match_paren(tokens, paren, hi)
            args = [] if close == paren + 1 else split_top_level(tokens, paren + 1, close, ",")
            yield name, new, args, close
            k = paren
        k += 1


def expression_end(tokens: list[Token], lo: int, hi: int, stops: tuple[str, ...]) -> int:
    """`find_top_level` over expressions: a stop in the type arguments of
    `new T<A, B>` or `x.<A, B>m()` ends nothing; any other '<' is a
    comparison."""
    more = stops + ("new", "<")
    k = find_top_level(tokens, lo, hi, more)
    while k < hi and tokens[k].text in ("new", "<"):
        if tokens[k].text == "new":
            k = skip_type(tokens, k + 1, hi)
        elif tokens[k - 1].text == ".":
            k = match_angle(tokens, k, hi) + 1
        else:
            k += 1
        k = find_top_level(tokens, k, hi, more)
    return k


def split_top_level(tokens: list[Token], lo: int, hi: int, sep: str) -> list[tuple[int, int]]:
    """[lo, hi) cut at every `sep` that ends an expression at bracket depth
    0, as (start, end) ranges. Empty pieces are kept, so there is always at
    least one."""
    pieces: list[tuple[int, int]] = []
    stops = (sep,)
    while True:
        end = expression_end(tokens, lo, hi, stops)
        pieces.append((lo, end))
        if end == hi:
            return pieces
        lo = end + 1


def index_of(tokens: list[Token], lo: int, text: str) -> int:
    """Index of the first token at or after lo whose text is `text`."""
    for k in range(lo, len(tokens)):
        if tokens[k].text == text:
            return k
    line = tokens[min(lo, len(tokens) - 1)].line if tokens else 1
    raise JavaParseError(f"missing {text!r} after line {line}")


def _match(tokens: list[Token], open_index: int, closer: str, what: str, hi: int) -> int:
    opener = tokens[open_index].text
    depth = 0
    for k in range(open_index, hi):
        t = tokens[k].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return k
    raise JavaParseError(f"unbalanced {what} from line {tokens[open_index].line}")


def match_brace(tokens: list[Token], open_index: int) -> int:
    """Index of the '}' matching the '{' at open_index. Raises if unbalanced."""
    assert tokens[open_index].text == "{"
    return _match(tokens, open_index, "}", "braces", len(tokens))


def match_paren(tokens: list[Token], open_index: int, hi: int | None = None) -> int:
    """Index of the ')' matching the '(' at open_index. Raises if none does
    before hi (default: the end)."""
    assert tokens[open_index].text == "("
    return _match(tokens, open_index, ")", "parentheses", hi or len(tokens))


def brace_pairs(tokens: list[Token], lo: int) -> dict[int, int]:
    """`match_brace` of each '{' from lo up to the '}' that closes the one
    at lo, found in one pass."""
    pairs: dict[int, int] = {}
    opened: list[int] = []
    for k in range(lo, len(tokens)):
        text = tokens[k].text
        if text == "{":
            opened.append(k)
        elif text == "}" and opened:
            pairs[opened.pop()] = k
            if not opened:
                break
    return pairs
