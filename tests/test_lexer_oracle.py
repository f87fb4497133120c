r'''The lexer against the character-at-a-time scanner it replaced.

`_oracle_tokenize` is the earlier `tokenize`, kept as the reference. Its
one change is the text-block fix: it skips `\x` pairs while looking for
the closing delimiter, so `\"""` no longer ends a block.
'''

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import FIXTURES
from exbt.errors import JavaParseError
from exbt.jmodel import load_repo
from exbt.jmodel.lexer import KEYWORDS, OPERATORS, PUNCT, Token, tokenize
from exbt.metrics import Sides, _split_tokens

_ORACLE_OPERATORS = sorted(OPERATORS, key=len, reverse=True)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c in "_$"


def _is_ident_part(c: str) -> bool:
    return c.isalnum() or c in "_$"


def _oracle_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        c = source[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c.isspace():
            i += 1
            continue
        if source.startswith("//", i):
            j = source.find("\n", i)
            i = n if j < 0 else j
            continue
        if source.startswith("/*", i):
            j = source.find("*/", i + 2)
            if j < 0:
                raise JavaParseError(f"unterminated comment at line {line}")
            line += source.count("\n", i, j)
            i = j + 2
            continue
        if source.startswith('"""', i):
            j = i + 3
            while j < n and not source.startswith('"""', j):
                j += 2 if source[j] == "\\" else 1
            if j >= n:
                raise JavaParseError(f"unterminated text block at line {line}")
            text = source[i : j + 3]
            tokens.append(Token("string", text, line, i))
            line += text.count("\n")
            i = j + 3
            continue
        if c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n:
                if source[j] == "\\":
                    j += 2
                    continue
                if source[j] == quote:
                    break
                if source[j] == "\n":
                    raise JavaParseError(f"unterminated literal at line {line}")
                j += 1
            if j >= n:
                raise JavaParseError(f"unterminated literal at line {line}")
            kind = "string" if quote == '"' else "char"
            tokens.append(Token(kind, source[i : j + 1], line, i))
            i = j + 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and source[i + 1].isdigit()):
            j = i
            if source.startswith(("0x", "0X", "0b", "0B"), i):
                j = i + 2
                while j < n and (source[j].isalnum() or source[j] == "_"):
                    j += 1
            else:
                while j < n and (source[j].isalnum() or source[j] in "._"):
                    # stop before '.' that starts a method call on a literal
                    if source[j] == "." and not (j + 1 < n and source[j + 1].isdigit()):
                        break
                    # exponent sign
                    if source[j] in "eE" and j + 1 < n and source[j + 1] in "+-":
                        j += 2
                        continue
                    j += 1
            tokens.append(Token("number", source[i:j], line, i))
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < n and _is_ident_part(source[j]):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, line, i))
            i = j
            continue
        if c == "." and source.startswith("...", i):
            tokens.append(Token("op", "...", line, i))
            i += 3
            continue
        if c in PUNCT:
            tokens.append(Token("punct", c, line, i))
            i += 1
            continue
        for op in _ORACLE_OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, line, i))
                i += len(op)
                break
        else:
            raise JavaParseError(f"unexpected character {c!r} at line {line}")
    return tokens


def _outcome(lex, source: str):
    """The tokens, or the message of the JavaParseError raised."""
    try:
        return lex(source)
    except JavaParseError as exc:
        return str(exc)


def _assert_same_as_oracle(source: str) -> None:
    got = _outcome(tokenize, source)
    assert got == _outcome(_oracle_tokenize, source)
    if isinstance(got, list):
        assert all(type(t) is Token for t in got)
    # a side's tokens are the lexer's token texts, or the regex split of a
    # text the lexer rejects
    code = [t.text for t in got] if isinstance(got, list) else _split_tokens(source)
    assert Sides().side(source).tokens == code


# Java-ish characters and the runs that change how a scan goes on, plus
# letters, digits and spaces outside ASCII: superscript two and Arabic-Indic
# three are digits, NBSP and U+2028 are spaces. The characters that stop a
# scan with an error come up less often, so that most texts lex some way.
FRAGMENTS = (
    list("aeEzAZ_$09xXbBfL \t\r\n/*+-=<>!&|^%~?:@.,;(){}[]") * 3
    + ["²", "é", "五", "٣", "\u00a0", "\u2028"] * 3
    + ['"""', '\\"""', '"', "'", "//", "/*", "*/", "0x", "0b", "1e+", "2E-", "1.5",
       "...", ">>>=", "->", "::", "class", "int", "record", "non-sealed"] * 3
    # no token starts with these: one half is numeric but no digit
    + ["\\", "#", "`", "½"]
)

FIXTURE_SOURCES = {
    str(p.relative_to(FIXTURES)): p.read_text(encoding="utf-8")
    for p in sorted(FIXTURES.rglob("*.java"))
}
FIXTURE_METHODS = [
    ctx.method_source(mid)
    for ctx in (load_repo(FIXTURES / "repoA"), load_repo(FIXTURES / "repoG"))
    for mid in ctx.all_method_ids()
]


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join))
@example('x = """\n  use \\""" to quote\n  \\\\"""; y')
@example('s = "a\nb" + c')
@example("c = '\n' + d")
@example("f(.²) + 1.٣e+5 - 0x五 .. ...")
@example("a\u00a0b\u2028\nc\r\nd")
def test_tokenize_equals_the_oracle_on_java_ish_text(source):
    _assert_same_as_oracle(source)


def test_every_fixture_lexes_as_the_oracle_lexes_it():
    assert len(FIXTURE_SOURCES) >= 16
    for source in FIXTURE_SOURCES.values():
        _assert_same_as_oracle(source)


@pytest.mark.parametrize("name", sorted(FIXTURE_SOURCES))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_tokenize_equals_the_oracle_on_fixture_cuts(name, data):
    source = FIXTURE_SOURCES[name]
    lo = data.draw(st.integers(0, len(source)))
    hi = data.draw(st.integers(lo, len(source)))
    _assert_same_as_oracle(source[:hi])
    _assert_same_as_oracle(source[lo:hi])


@settings(max_examples=600, deadline=None, derandomize=True)
@given(data=st.data())
def test_side_tokens_are_code_tokens_on_method_cuts(data):
    """Cuts of the fixture repositories' methods, most of which parse."""
    source = data.draw(st.sampled_from(FIXTURE_METHODS))
    lo = data.draw(st.one_of(st.just(0), st.integers(0, len(source))))
    hi = data.draw(st.one_of(st.just(len(source)), st.integers(lo, len(source))))
    _assert_same_as_oracle(source[lo:hi])

