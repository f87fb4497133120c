"""Reference computations the output checks compare against.

They share no code with exbt: guards are parsed and evaluated by a small
parser of their own, and edit distance uses the bit-parallel algorithm of
Myers (1999) in Hyyro's (2003) formulation rather than a dynamic program.
"""

from __future__ import annotations

import re

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z_$][\w$]*|&&|\|\||==|!=|<=|>=|[-+*()<>!])")
_BINARY = {
    "||": 1, "&&": 2, "==": 3, "!=": 3,
    "<": 4, ">": 4, "<=": 4, ">=": 4, "+": 5, "-": 5, "*": 6,
}


def eval_java_int_expr(text: str, env: dict[str, int]):
    """Value of a Java int/boolean expression over env (no overflow)."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize guard at {text[pos:pos + 20]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    value, rest = _binary(tokens, 0, 1, env)
    if rest != len(tokens):
        raise ValueError(f"trailing tokens in guard: {tokens[rest:]}")
    return value


def _binary(toks, i, min_prec, env):
    left, i = _unary(toks, i, env)
    while i < len(toks) and _BINARY.get(toks[i], 0) >= min_prec:
        op = toks[i]
        right, i = _binary(toks, i + 1, _BINARY[op] + 1, env)
        left = _apply(op, left, right)
    return left, i


def _apply(op, a, b):
    if op in ("&&", "||"):
        if not (isinstance(a, bool) and isinstance(b, bool)):
            raise ValueError(f"{op} on non-booleans")
        return (a and b) if op == "&&" else (a or b)
    if isinstance(a, bool) or isinstance(b, bool):
        if op in ("==", "!="):
            return (a == b) if op == "==" else (a != b)
        raise ValueError(f"{op} on booleans")
    return {
        "==": lambda: a == b, "!=": lambda: a != b, "<": lambda: a < b,
        ">": lambda: a > b, "<=": lambda: a <= b, ">=": lambda: a >= b,
        "+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b,
    }[op]()


def _unary(toks, i, env):
    tok = toks[i]
    if tok == "!":
        value, i = _unary(toks, i + 1, env)
        if not isinstance(value, bool):
            raise ValueError("! on a non-boolean")
        return not value, i
    if tok == "-":
        value, i = _unary(toks, i + 1, env)
        return -value, i
    if tok == "(":
        value, i = _binary(toks, i + 1, 1, env)
        if i >= len(toks) or toks[i] != ")":
            raise ValueError("unbalanced parentheses in guard")
        return value, i + 1
    if tok.isdigit():
        return int(tok), i + 1
    if tok in ("true", "false"):
        return tok == "true", i + 1
    if tok not in env:
        raise ValueError(f"unbound name {tok!r} in guard")
    return env[tok], i + 1


def levenshtein(a: str, b: str) -> int:
    """Edit distance by bit-parallel column updates (Myers/Hyyro)."""
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    full = (1 << m) - 1
    high = 1 << (m - 1)
    pv, mv, score = full, 0, m
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & full)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & full
        mh = (mh << 1) & full
        pv = mh | (~(xv | ph) & full)
        mv = ph & xv
    return score


def edit_similarity(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 1.0 - levenshtein(a, b) / max(len(a), len(b))
