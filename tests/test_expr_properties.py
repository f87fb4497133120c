"""Property tests for the expression layer.

These pin the two facts the guard pipeline leans on: rendering is
precedence-faithful (parsing a rendered tree gives the same rendering
back), and tree substitution is semantically the same as binding the
replaced name in the environment. A third pins the walks that read the
node table (`substitute`, `free_names`, CodeBLEU's AST signatures) to the
per-type ladders they replaced, over trees of every node type.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from exbt.jmodel import exprs as E
from exbt.jmodel.exprs import (
    Binary,
    Call,
    Cast,
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
    evaluate,
    free_names,
    grouped,
    parse_expr,
    render,
    substitute,
)
from exbt.metrics import _expr_signatures
from guard_merge import merge

INT_NAMES = ("x", "y")


def int_exprs(names=INT_NAMES):
    leaves = st.one_of(
        st.integers(min_value=0, max_value=9).map(lambda v: Lit(str(v))),
        st.sampled_from([Name(n) for n in names]),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*"), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            children.map(lambda e: Unary("-", e)),
            st.tuples(bool_exprs_from(children), children, children).map(
                lambda t: Ternary(t[0], t[1], t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=8)


def bool_exprs_from(ints):
    comparisons = st.tuples(
        st.sampled_from(["<", ">", "<=", ">=", "==", "!="]), ints, ints
    ).map(lambda t: Binary(t[0], t[1], t[2]))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(["&&", "||"]), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
            children.map(lambda e: Unary("!", e)),
        )

    return st.recursive(comparisons, extend, max_leaves=6)


def bool_exprs(names=INT_NAMES):
    return bool_exprs_from(int_exprs(names))


def assignments(names=INT_NAMES):
    """Right-nested assignment chains over int expressions: `x = y += e`."""
    return st.recursive(int_exprs(), lambda rhs: st.builds(
        Binary, st.sampled_from(["=", "+="]), st.sampled_from(names).map(Name), rhs),
        max_leaves=4)


ENVS = st.fixed_dictionaries(
    {"x": st.integers(min_value=-9, max_value=9),
     "y": st.integers(min_value=-9, max_value=9)}
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(int_exprs(), bool_exprs()), ENVS)
def test_render_parse_render_fixpoint(expr, env):
    text = render(expr)
    reparsed = parse_expr(text)
    assert render(reparsed) == text
    assert evaluate(reparsed, env) == evaluate(expr, env)


@settings(max_examples=300, deadline=None)
@given(assignments(), int_exprs())
def test_nested_assignments_render_parse_round_trip(chain, bound):
    """An assignment chain reads back as the same tree, alone and as a
    comparison's operand, and its right side never gets a group."""
    for e in (chain, Binary(">", chain, bound)):
        assert parse_expr(render(e)) == e
    while isinstance(chain, Binary) and chain.op in ("=", "+="):
        assert render(chain) == f"{chain.left.id} {chain.op} {render(chain.right)}"
        chain = chain.right


@settings(max_examples=300, deadline=None)
@given(bool_exprs(), int_exprs(names=("y",)), ENVS)
def test_substitution_matches_environment_binding(cond, replacement, env):
    substituted = substitute(cond, {"x": replacement})
    assert "x" not in free_names(substituted)
    bound_env = {"y": env["y"], "x": evaluate(replacement, {"y": env["y"]})}
    assert evaluate(substituted, {"y": env["y"]}) == evaluate(cond, bound_env)


@settings(max_examples=200, deadline=None)
@given(bool_exprs(), int_exprs(names=("y",)))
def test_merge_noop_for_absent_names(cond, replacement):
    rendered = render(cond)
    assert merge([rendered], {"zebra": render(replacement)}) == [rendered]


@settings(max_examples=200, deadline=None)
@given(bool_exprs(), int_exprs(names=("y",)), ENVS)
def test_merge_preserves_semantics_via_text(cond, replacement, env):
    # merge over rendered text and substitution over trees agree
    out_text = merge([render(cond)], {"x": render(replacement)})[0]
    out_tree = substitute(cond, {"x": parse_expr(render(replacement))})
    assert out_text == render(out_tree)


# --- the per-type ladders the node table replaced, kept as the reference ---

_ATOMIC = (Name, Lit, Grouped, Call, Field, Index, New, Opaque)


def ref_substitute(e, mapping):
    if isinstance(e, Name):
        repl = mapping.get(e.id)
        if repl is None:
            return e
        if isinstance(repl, _ATOMIC):
            return repl
        return Grouped(repl)
    if isinstance(e, (Lit, Opaque)):
        return e
    if isinstance(e, Grouped):
        return Grouped(ref_substitute(e.inner, mapping))
    if isinstance(e, Field):
        return Field(ref_substitute(e.recv, mapping), e.name)
    if isinstance(e, Call):
        recv = ref_substitute(e.recv, mapping) if e.recv is not None else None
        return Call(recv, e.name, tuple(ref_substitute(a, mapping) for a in e.args))
    if isinstance(e, Index):
        return Index(ref_substitute(e.arr, mapping), ref_substitute(e.idx, mapping))
    if isinstance(e, New):
        return New(e.type_text, tuple(ref_substitute(a, mapping) for a in e.args))
    if isinstance(e, Unary):
        return Unary(e.op, ref_substitute(e.operand, mapping), e.postfix)
    if isinstance(e, Cast):
        return Cast(e.type_text, ref_substitute(e.operand, mapping))
    if isinstance(e, InstanceOf):
        return InstanceOf(ref_substitute(e.operand, mapping), e.type_text)
    if isinstance(e, Binary):
        return Binary(e.op, ref_substitute(e.left, mapping), ref_substitute(e.right, mapping))
    if isinstance(e, Ternary):
        return Ternary(
            ref_substitute(e.cond, mapping),
            ref_substitute(e.then, mapping),
            ref_substitute(e.other, mapping),
        )
    raise TypeError(f"cannot substitute into {type(e).__name__}")


def ref_free_names(e):
    out = set()
    _collect_names(e, out)
    return out


def _collect_names(e, out):
    if isinstance(e, Name):
        out.add(e.id)
    elif isinstance(e, Grouped):
        _collect_names(e.inner, out)
    elif isinstance(e, Field):
        _collect_names(e.recv, out)
    elif isinstance(e, Call):
        if e.recv is not None:
            _collect_names(e.recv, out)
        for a in e.args:
            _collect_names(a, out)
    elif isinstance(e, Index):
        _collect_names(e.arr, out)
        _collect_names(e.idx, out)
    elif isinstance(e, New):
        for a in e.args:
            _collect_names(a, out)
    elif isinstance(e, (Unary, Cast)):
        _collect_names(e.operand, out)
    elif isinstance(e, InstanceOf):
        _collect_names(e.operand, out)
    elif isinstance(e, Binary):
        _collect_names(e.left, out)
        _collect_names(e.right, out)
    elif isinstance(e, Ternary):
        _collect_names(e.cond, out)
        _collect_names(e.then, out)
        _collect_names(e.other, out)


def ref_expr_signatures(expr, out):
    kids = []
    if isinstance(expr, E.Binary):
        kind = f"bin:{expr.op}"
        kids = [expr.left, expr.right]
    elif isinstance(expr, E.Unary):
        kind = f"un:{expr.op}"
        kids = [expr.operand]
    elif isinstance(expr, E.Call):
        kind = "call"
        kids = ([expr.recv] if expr.recv else []) + list(expr.args)
    elif isinstance(expr, E.Field):
        kind = "field"
        kids = [expr.recv]
    elif isinstance(expr, E.Index):
        kind = "index"
        kids = [expr.arr, expr.idx]
    elif isinstance(expr, E.Ternary):
        kind = "ternary"
        kids = [expr.cond, expr.then, expr.other]
    elif isinstance(expr, E.Grouped):
        return ref_expr_signatures(expr.inner, out)
    elif isinstance(expr, E.New):
        kind = f"new:{expr.type_text}"
        kids = list(expr.args)
    elif isinstance(expr, E.Cast):
        kind = "cast"
        kids = [expr.operand]
    elif isinstance(expr, E.InstanceOf):
        kind = "instanceof"
        kids = [expr.operand]
    elif isinstance(expr, E.Lit):
        return "lit"
    elif isinstance(expr, E.Name):
        return "name"
    else:
        return "opaque"
    sig = kind + "(" + ",".join(ref_expr_signatures(k, out) for k in kids) + ")"
    out[sig] += 1
    return sig


NAMES = ("a", "b", "c", "this")
TYPES = st.sampled_from(["int", "String", "java.util.List<T>", "Box<>"])
MEMBERS = st.sampled_from(["a", "size", "get", "b"])


def any_exprs():
    """Trees over all 13 node types, calls with and without a receiver."""
    leaves = st.one_of(
        st.sampled_from(["0", "1", '"s"', "'c'", "null", "true"]).map(Lit),
        st.sampled_from(NAMES).map(Name),
        st.sampled_from(["x -> x", "String::valueOf"]).map(Opaque),
    )

    def extend(kids):
        args = st.lists(kids, max_size=3).map(tuple)
        return st.one_of(
            st.builds(Binary, st.sampled_from(["+", "*", "<", "==", "&&", "=", "+="]), kids, kids),
            st.builds(Unary, st.sampled_from(["-", "!", "++"]), kids, st.booleans()),
            st.builds(Ternary, kids, kids, kids),
            st.builds(Call, st.one_of(st.none(), kids), MEMBERS, args),
            st.builds(Field, kids, MEMBERS),
            st.builds(Index, kids, kids),
            st.builds(New, TYPES, args),
            st.builds(Cast, TYPES, kids),
            st.builds(InstanceOf, kids, TYPES),
            st.builds(Grouped, kids),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(any_exprs(), st.dictionaries(st.sampled_from(NAMES + ("size",)), any_exprs(), max_size=3))
def test_table_walks_equal_the_per_type_ladders(e, mapping):
    assert substitute(e, mapping) == ref_substitute(e, mapping)
    assert free_names(e) == ref_free_names(e)
    got, want = Counter(), Counter()
    assert _expr_signatures(e, got) == ref_expr_signatures(e, want)
    assert got == want
    assert grouped(e) == (e if isinstance(e, _ATOMIC) else Grouped(e))


def test_substitute_equals_the_ladder_on_deep_chains():
    """A left-nested chain as deep as the recursive ladder reads, and one of
    5,000 terms, which it cannot: the names replaced, each in its place."""
    for depth in (200, 5000):
        e = E.Name("x0")
        for i in range(1, depth):
            e = E.Binary("+", e, E.Name(f"x{i % 7}"))
        mapping = {"x3": E.parse_expr("a - b"), "x5": E.Name("k")}
        if depth == 200:  # dataclass equality recurses too
            assert E.substitute(e, mapping) == ref_substitute(e, mapping)
        assert E.render(E.substitute(e, mapping)) == E.render(e, {"x3": "(a - b)", "x5": "k"})
