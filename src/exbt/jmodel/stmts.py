"""Statement trees for Java method bodies.

The parser is deliberately shallow: it recovers the control-flow shape
(blocks, branches, loops, switches, try/catch, throws, assignments) plus
token spans and each child's role, which is exactly what the trace walk
needs. Anything it cannot interpret becomes an opaque statement with a
span.

A tree links parents to children only, so it holds no reference cycle and
is freed by reference counting alone. A statement's ancestors come from
the descent that finds it: `chains_at_line` returns each statement with
the chain of statements above it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from exbt.jmodel.lexer import (
    ASSIGN_OPS,
    Token,
    brace_pairs,
    expression_end,
    find_top_level,
    index_of,
    match_brace,
    match_paren,
    skip_type,
    split_top_level,
)


@dataclass(eq=False, slots=True)  # a tree node: equal only to itself
class Stmt:
    kind: str
    tok_start: int  # its lines are those of its first and last tokens
    tok_end: int  # exclusive
    children: list["Stmt"] = field(default_factory=list)
    # role of this node relative to its parent: then | else | body | group | plain
    role: str = "plain"
    # kind-specific payloads (token index ranges into the unit token list)
    cond_range: tuple[int, int] | None = None
    selector_range: tuple[int, int] | None = None
    labels: list[tuple[int, int] | None] | None = None  # None label == default
    assignments: list[tuple[str, tuple[int, int], str]] = field(default_factory=list)
    # each assignment: (lhs name, rhs token range, operator text)

    def iter_tree(self):
        """This statement and every one below it, in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack += reversed(node.children)


class BodyParser:
    """Parses one method body token range into a Stmt tree."""

    def __init__(self, tokens: list[Token]):
        self.toks = tokens

    def parse_block(self, open_index: int) -> Stmt:
        """Parse the block whose '{' sits at open_index. One loop reads the
        statements: a compound one waits on `self.open` for its children, and
        a finished one goes to the statement on top, which may finish too."""
        self.closers = brace_pairs(self.toks, open_index)
        self.open = opened = []  # [statement, children's limit, next catch's '(']
        pos, limit = open_index, len(self.toks)
        while True:
            st, p = self._read(pos, limit)
            while st is not None:  # st, which ends before p, is finished
                if not opened:
                    return st
                st, p = self._resume(opened[-1], st, p)
            pos, limit = p, opened[-1][1]

    def _read(self, pos: int, limit: int) -> tuple[Stmt | None, int]:
        """The statement at pos and the index past it; or None and where its
        first child starts, with the compound statement put on `self.open`."""
        toks = self.toks
        t = toks[pos]
        text = t.text
        if text == ";":
            return self._stmt("empty", pos, pos + 1), pos + 1
        if text == "{":
            close = self.closers.get(pos) or match_brace(toks, pos)
            block = self._stmt("block", pos, close + 1)
            return (block, close + 1) if pos + 1 >= close else self._open(block, close, pos + 1)
        if text in ("if", "while", "for", "synchronized"):
            open_p = index_of(toks, pos, "(")
            close_p = match_paren(toks, open_p)
            st = self._stmt(text, pos, close_p + 1)
            if text in ("if", "while"):
                st.cond_range = (open_p + 1, close_p)
            elif text == "for":
                header = split_top_level(toks, open_p + 1, close_p, ";")
                if len(header) == 3 and header[1][1] > header[1][0]:
                    st.cond_range = header[1]
            return self._open(st, limit, close_p + 1)
        if text == "do":
            return self._open(self._stmt("dowhile", pos, pos + 1), limit, pos + 1)
        if text == "switch":
            open_p = index_of(toks, pos, "(")
            close_p = match_paren(toks, open_p)
            open_b = index_of(toks, close_p, "{")
            close_b = self.closers.get(open_b) or match_brace(toks, open_b)
            st = self._stmt("switch", pos, close_b + 1)
            st.selector_range = (open_p + 1, close_p)
            p = self._labels(st, open_b + 1, close_b)
            return (st, close_b + 1) if p >= close_b else self._open(st, close_b, p)
        if text == "try":
            p = pos + 1
            if p < limit and toks[p].text == "(":
                p = match_paren(toks, p) + 1
            return self._open(self._stmt("try", pos, p), limit, p)
        if text in ("throw", "return", "break", "continue", "assert", "yield"):
            end = self._stmt_end(pos, limit)
            return self._stmt(text if text in ("throw", "return") else "other", pos, end), end
        if (
            t.kind == "ident"
            and pos + 1 < limit
            and toks[pos + 1].text == ":"
            and (pos + 2 >= limit or toks[pos + 2].text != ":")
        ):
            return self._open(self._stmt("labeled", pos, pos + 2), limit, pos + 2)
        # local variable declaration or expression statement
        end = self._stmt_end(pos, limit)
        decl = self._try_local_var(pos, end)
        if decl is not None:
            return decl, end
        st = self._stmt("expr", pos, end)
        self._extract_assignment(st, pos, end)
        return st, end

    def _open(self, st: Stmt, limit: int, child: int) -> tuple[None, int]:
        """Put st on `self.open`; its first child starts at child."""
        self.open.append([st, limit, None])
        return None, child

    def _resume(self, top: list, child: Stmt, p: int) -> tuple[Stmt | None, int]:
        """Give `top` its child, which ends before p: None and where the next
        child starts, or `top`'s statement, finished, and the index past it."""
        st, limit, catch = top
        kind, toks = st.kind, self.toks
        after = toks[p].text if p < limit else None
        if kind == "block":
            st.children.append(child)
            if after is not None:
                return None, p
            p = limit + 1
        elif kind == "if":
            _adopt(st, child, "else" if st.children else "then")
            if after == "else" and len(st.children) == 1:
                return None, p + 1
        elif kind == "switch":
            group = st.children[-1] if st.children else None
            if group is None:
                group = self._stmt("case", child.tok_start, child.tok_end)
                group.labels = []
                _adopt(st, group, "group")
            _adopt(group, child)
            group.tok_end = child.tok_end
            p = self._labels(st, p, limit)
            if p < limit:
                return None, p
            p = limit + 1
        elif kind == "try":
            if not st.children:
                _adopt(st, child, "body")
            elif catch is not None:
                clause = self._stmt("catch", catch, p)
                _adopt(clause, child, "body")
                _adopt(st, clause, "catch")
            else:
                _adopt(st, child, "finally")
                after = None
            if after == "catch":
                top[2] = index_of(toks, p, "(")
                return None, match_paren(toks, top[2]) + 1
            if after == "finally":
                top[2] = None
                return None, p + 1
        elif kind == "dowhile":  # 'while (cond) ;' follows the body
            open_p = index_of(toks, p, "(")
            close_p = match_paren(toks, open_p)
            p = self._stmt_end(close_p + 1, limit)
            st.cond_range = (open_p + 1, close_p)
            _adopt(st, child, "body")
        else:  # a loop, `synchronized` or a label, with its one child
            _adopt(st, child, None if kind == "labeled" else "body")
        self.open.pop()
        # on malformed input a `try` keeps an end before its start; others hold a token
        st.tok_end = p if kind == "try" else max(p, st.tok_start + 1)
        return st, p

    def _labels(self, switch: Stmt, p: int, close_b: int) -> int:
        """Read the `case` and `default` labels at p, if any, into a new
        group of switch; return the index past them."""
        if p >= close_b or self.toks[p].text not in ("case", "default"):
            return p
        group_start = p
        labels: list[tuple[int, int] | None] = []
        while p < close_b and self.toks[p].text in ("case", "default"):
            end = find_top_level(self.toks, p + 1, close_b, (":", "->"))
            if self.toks[p].text == "default":
                labels.append(None)
            else:
                # an empty piece counts only before a comma
                pieces = split_top_level(self.toks, p + 1, end, ",")
                if pieces[-1][1] == pieces[-1][0]:
                    pieces.pop()
                labels.extend(pieces)
            p = end + 1  # skip ':' or '->'
        group = self._stmt("case", group_start, p)
        group.labels = labels
        _adopt(switch, group, "group")
        return p

    # --- local variables and assignments ---

    def _try_local_var(self, pos: int, end: int) -> Stmt | None:
        """Recognize 'Type name (= init)? (, name (= init)?)* ;'."""
        p = pos + 1 if self.toks[pos].text == "final" else pos
        p = p + 1 if self.toks[p].text == "var" else skip_type(self.toks, p, end)
        found = declarators(self.toks, p, end)
        if not found or found[0][2] < end and self.toks[found[0][2]].text not in (",", ";"):
            return None
        st = self._stmt("localvar", pos, end)
        st.assignments = [
            (self.toks[name].text, (lo, hi), "=") for name, lo, hi in found if lo is not None
        ]
        return st

    def _extract_assignment(self, st: Stmt, pos: int, end: int) -> None:
        """Record 'name op= rhs' / 'name++' forms for the guard walk."""
        hi = end - 1 if self.toks[end - 1].text == ";" else end
        if hi - pos >= 2 and self.toks[pos].kind == "ident":
            op = self.toks[pos + 1].text
            if op in ASSIGN_OPS:
                st.assignments.append((self.toks[pos].text, (pos + 2, hi), op))
                return
            if op in ("++", "--") and hi == pos + 2:
                st.assignments.append((self.toks[pos].text, (pos, pos), op))
                return
        if hi - pos == 2 and self.toks[pos].text in ("++", "--"):
            if self.toks[pos + 1].kind == "ident":
                st.assignments.append(
                    (self.toks[pos + 1].text, (pos, pos), self.toks[pos].text)
                )

    # --- small helpers ---

    @staticmethod
    def _stmt(kind: str, start: int, end: int) -> Stmt:
        # a statement that malformed input cuts to nothing, as the body of
        # `catch (E e) }`, still holds the token where it would start
        return Stmt(kind, start, max(end, start + 1))

    def _stmt_end(self, pos: int, limit: int) -> int:
        """Index just past the ';' terminating a simple statement."""
        return min(find_top_level(self.toks, pos, limit, (";",)) + 1, limit)


def _adopt(parent: Stmt, child: Stmt, role: str | None = None) -> None:
    """Append child to parent's children, given its role."""
    if role is not None:
        child.role = role
    parent.children.append(child)


def declarators(tokens: list[Token], k: int, end: int) -> list[tuple[int, int | None, int]]:
    """The declarators of `a = x, b[], c` from the name at k up to end: (name
    index, initializer start or None, initializer end), in order."""
    found: list[tuple[int, int | None, int]] = []
    while k < end and tokens[k].kind == "ident":
        name = k
        k += 1
        while k + 1 < end and tokens[k].text == "[" and tokens[k + 1].text == "]":
            k += 2
        lo = None
        if k < end and tokens[k].text == "=":
            lo = k + 1
            k = expression_end(tokens, lo, end, (",", ";"))
        found.append((name, lo, k))
        if k >= end or tokens[k].text != ",":
            break
        k += 1
    return found


def chains_at_line(root: Stmt, tokens: list[Token], line: int) -> list[tuple[Stmt, ...]]:
    """Leaf-most statements whose lines contain the line, in source order,
    each as its chain of ancestors: (statement, its parent, ..., root).

    A statement's lines run from its first token's to its last token's, and
    hold its children's, so the walk enters only the statements whose lines
    contain the line."""

    def holds(s: Stmt) -> bool:
        return tokens[s.tok_start].line <= line <= tokens[s.tok_end - 1].line

    found: list[tuple[Stmt, ...]] = []
    stack = [(root,)] if holds(root) else []
    while stack:
        chain = stack.pop()
        inner = [c for c in chain[0].children if holds(c)]
        if inner:
            stack += [(c,) + chain for c in reversed(inner)]
        else:
            found.append(chain)
    return found
