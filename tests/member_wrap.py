"""`parse_member_wrapped`, the reference of `parse_member`: it wraps the
text in a throwaway `class __Member {` … `}` and parses that unit. The
wrapper puts three tokens and one line before the text, so its token
indexes are 3 higher and its lines 1 higher than `parse_member`'s."""

from __future__ import annotations

from exbt.jmodel import parse_unit

HEAD = "class __Member {\n"
TOKENS_BEFORE = 3  # `class`, `__Member` and `{`
LINES_BEFORE = 1


def parse_member_wrapped(source: str):
    """The wrapped unit and its first method, or None when it has none."""
    unit = parse_unit(HEAD + source + "\n}", "<member>")
    return unit, next((m for _, m in unit.all_methods()), None)
