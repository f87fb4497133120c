"""`merge`, the acceptance oracle for guard merging: substitute mapped names
inside conditions, on parse trees. The guard fold (`guardexpr._fold`) never
builds substituted trees; these tests check the substitution it stands for."""

from __future__ import annotations

from exbt.jmodel import exprs


def merge(conditions, mapping):
    """Substitute mapped names inside each condition.

    Accepts rendered strings or expression trees (and string or tree
    replacement values); returns the same shape. Matching respects
    identifier boundaries because it runs on parse trees.
    """
    as_text = bool(conditions) and isinstance(conditions[0], str)
    parsed = [
        exprs.parse_expr(c) if isinstance(c, str) else c for c in conditions
    ]
    mapped = {
        k: (exprs.parse_expr(v) if isinstance(v, str) else v)
        for k, v in mapping.items()
    }
    out = [exprs.substitute(e, mapped) for e in parsed]
    if as_text:
        return [exprs.render(e) for e in out]
    return out
