from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, guard_trace, parse_env_key, write_call_chain, write_two_throw_repo
from exbt import guardexpr
from exbt.errors import FrameOutOfSpan, JavaParseError, UnboundName, UnsupportedConstruct
from exbt.guardexpr import (
    ASSIGNMENT,
    CONDITION,
    METHOD_CALL,
    METHOD_DECL,
    NEGATED,
    START,
    CollectedNode,
    _fold,
    _negate,
    collect_nodes,
    compute_guard_expression,
    evaluate_guard,
)
from exbt.jmodel import exprs, load_repo
from exbt.jmodel.exprs import Binary, Call, Expr, Field, Grouped, Lit, Name, Ternary, Unary
from exbt.stacktrace import Frame, StackTrace, resolve_trace
from guard_merge import merge


# --- node collection (trace walk) ---


def test_collect_starts_with_innermost_statement(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["ifPositive"])
    nodes = collect_nodes(trace, repo_g)
    assert nodes[0].tag == "StartStatement"
    assert nodes[0].text.startswith("throw")
    tags = [n.tag for n in nodes]
    assert tags == ["StartStatement", "Condition"]
    assert nodes[1].text == "x > 0"


def test_collect_else_branch_negates(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["elseOnly"])
    nodes = collect_nodes(trace, repo_g)
    assert [n.tag for n in nodes] == ["StartStatement", "NegatedCondition"]
    assert nodes[1].text == "x > 0"


def test_collect_two_frames_orders_decl_call_pair(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["caller"])
    nodes = collect_nodes(trace, repo_g)
    tags = [n.tag for n in nodes]
    # callee's nodes first, then the decl/call pair, then the caller's nodes
    assert tags == [
        "StartStatement",
        "Condition",
        "MethodDecl",
        "MethodCall",
        "StartStatement",
    ]
    decl = nodes[tags.index("MethodDecl")]
    call = nodes[tags.index("MethodCall")]
    assert decl.text == "callee(v)"
    assert call.params == ("v",)
    assert len(call.args) == 1
    assert call.text == "callee(a + 1)"


def test_decl_call_pairs_always_adjacent(repo_g, guards_oracle):
    for entry in guards_oracle.values():
        trace, _ = guard_trace(repo_g, entry)
        nodes = collect_nodes(trace, repo_g)
        for i, n in enumerate(nodes):
            if n.tag == "MethodDecl":
                assert nodes[i + 1].tag == "MethodCall"


def test_collect_frame_out_of_span(repo_g):
    """A frame outside its method never reaches the walk: it does not resolve."""
    trace = StackTrace((Frame("gx.Guards", "ifPositive", "Guards.java", 9999),))
    with pytest.raises(FrameOutOfSpan):
        resolve_trace(trace, repo_g)


def test_a_guard_through_an_explicit_constructor_call_binds_its_parameters(tmp_path):
    """`this(4)` in `Box()` calls `Box(int n)`, whose throw needs `n < 0`;
    `super(m - 1)` in a subclass calls its superclass's constructor."""
    ctx = load_repo(FIXTURES / "gate")
    box = [Frame("com.gate.Box", "<init>", "Box.java", line) for line in (6, 11)]
    guard = compute_guard_expression(resolve_trace(StackTrace(tuple(box)), ctx), ctx)
    assert (guard.conditions, guard.source_texts, guard.unresolved_names) \
        == (("4 < 0",), ("n < 0",), ())
    (tmp_path / "A.java").write_text(
        "class A {\n    A(int n) {\n        if (n < 0) throw new IllegalStateException();\n"
        "    }\n}\nclass B extends A {\n    B(int m) {\n        super(m - 1);\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    sub = StackTrace((Frame("B", "<init>", "A.java", 8), Frame("A", "<init>", "A.java", 3)))
    guard = compute_guard_expression(resolve_trace(sub, ctx), ctx)
    assert (guard.rendered, guard.unresolved_names) == ("(m - 1) < 0", ())


# --- merge ---


def test_merge_single_substitution():
    assert merge(["v == 0"], {"v": "a + 1"}) == ["(a + 1) == 0"]


def test_merge_empty_map_identity():
    assert merge(["x > 0"], {}) == ["x > 0"]


def test_merge_identifier_boundary():
    assert merge(["val > value"], {"val": "k"}) == ["k > value"]


def test_merge_untouched_conditions_pass_through():
    out = merge(["x > 0", "y < 2"], {"z": "9"})
    assert out == ["x > 0", "y < 2"]


def test_merge_substitutes_inside_call_arguments():
    assert merge(["check(v) > 0"], {"v": "a + 1"}) == ["check((a + 1)) > 0"]


# --- guard computation against the committed oracle ---


def oracle_items(guards_oracle):
    return sorted(guards_oracle.items())


def test_oracle_suite_renders_match(repo_g, guards_oracle):
    assert len(guards_oracle) >= 10
    for name, entry in oracle_items(guards_oracle):
        trace, _ = guard_trace(repo_g, entry)
        guard = compute_guard_expression(trace, repo_g)
        got = " ".join(guard.rendered.split())
        want = " ".join(entry["rendered"].split())
        assert got == want, f"{name}: {guard.rendered!r} != {entry['rendered']!r}"


def test_oracle_suite_evaluation_tables(repo_g, guards_oracle):
    evaluable = 0
    for name, entry in oracle_items(guards_oracle):
        if not entry["evaluable"]:
            continue
        evaluable += 1
        trace, _ = guard_trace(repo_g, entry)
        guard = compute_guard_expression(trace, repo_g)
        assert len(entry["table"]) <= 100
        for key, reachable in entry["table"].items():
            env = parse_env_key(key)
            assert evaluate_guard(guard, env) == reachable, (name, key)
    assert evaluable >= 10


def test_guard_determinism(repo_g, guards_oracle):
    for _, entry in oracle_items(guards_oracle):
        trace, _ = guard_trace(repo_g, entry)
        a = compute_guard_expression(trace, repo_g)
        b = compute_guard_expression(trace, repo_g)
        assert a.rendered == b.rendered
        assert a.conditions == b.conditions


def test_loop_local_is_flagged_unresolved(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["forLoop"])
    guard = compute_guard_expression(trace, repo_g)
    assert guard.unresolved_names == ("i",)


def test_params_and_fields_are_not_unresolved(repo_g, guards_oracle):
    for name in ("ifPositive", "whileLoop", "nested"):
        trace, _ = guard_trace(repo_g, guards_oracle[name])
        guard = compute_guard_expression(trace, repo_g)
        assert guard.unresolved_names == (), name


def test_double_negation_never_rendered(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["negated"])
    guard = compute_guard_expression(trace, repo_g)
    assert guard.rendered == "x == 2"
    assert "!!" not in guard.rendered


def test_original_texts_recorded(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["assignBeforeThrow"])
    guard = compute_guard_expression(trace, repo_g)
    assert guard.source_texts == ("t > 10",)
    assert guard.conditions == ("(a * 2) > 10",)


def test_empty_guard_is_vacuously_true(tmp_path):
    (tmp_path / "Always.java").write_text(
        """class Always {
    void die() {
        throw new IllegalStateException("always");
    }
}"""
    )
    from exbt.jmodel import load_repo, find_throw_sites

    ctx = load_repo(tmp_path)
    site = find_throw_sites(ctx, "all")[0]
    trace = resolve_trace(StackTrace((Frame("Always", "die", "Always.java", site.line),)), ctx)
    guard = compute_guard_expression(trace, ctx)
    assert guard.rendered == ""
    assert evaluate_guard(guard, {}) is True


def test_evaluate_guard_unbound(repo_g, guards_oracle):
    trace, _ = guard_trace(repo_g, guards_oracle["ifPositive"])
    guard = compute_guard_expression(trace, repo_g)
    with pytest.raises(UnboundName):
        evaluate_guard(guard, {})


def test_evaluate_guard_on_a_condition_that_does_not_parse(tmp_path):
    """An opaque lambda condition is unsupported, as it was as a tree."""
    (tmp_path / "G.java").write_text(
        "class G {\n    void f(int x) {\n"
        "        if (((Predicate<Integer>) v -> v > 0).test(x)) {\n"
        "            throw new IllegalStateException();\n        }\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    guard = compute_guard_expression(
        resolve_trace(StackTrace((Frame("G", "f", "G.java", 4),)), ctx), ctx)
    assert guard.conditions == ("((Predicate<Integer>) v -> v > 0).test(x)",)
    with pytest.raises(JavaParseError):
        exprs.parse_expr(guard.conditions[0])
    with pytest.raises(UnsupportedConstruct):
        evaluate_guard(guard, {"x": 1})


# --- the right-to-left fold against the left-to-right one ---


def _left_to_right_fold(nodes):
    """The fold as it was before the environment walk: every assignment and
    call substituted into every condition gathered so far. Kept verbatim as
    the reference the environment fold must equal."""
    conds: list[Expr] = []
    texts: list[str] = []
    for node in nodes:
        if node.tag == CONDITION and node.expr is not None:
            conds.append(node.expr)
            texts.append(node.text)
        elif node.tag == NEGATED and node.expr is not None:
            conds.append(_negate(node.expr))
            texts.append(node.text)
        elif node.tag == ASSIGNMENT and node.name is not None and node.rhs is not None:
            conds = [exprs.substitute(e, {node.name: node.rhs}) for e in conds]
        elif node.tag == METHOD_CALL:
            argmap = dict(zip(node.params, node.args))
            conds = [exprs.substitute(e, argmap) for e in conds]
    return conds, texts


_NAMES = st.sampled_from("abxy")
_LEAVES = st.one_of(_NAMES.map(Name), st.sampled_from(["0", "1", "7"]).map(Lit))


def _compound(children):
    return st.one_of(
        st.builds(Binary, st.sampled_from(["+", "-", "*", ">", "==", "&&", "||"]),
                  children, children),
        st.builds(Unary, st.sampled_from(["!", "-"]), children),
        st.builds(Grouped, children),
        st.builds(lambda a, b: Call(None, "f", (a, b)), children, children),
        st.builds(lambda r: Field(r, "n"), children),
        st.builds(Ternary, children, children, children),
    )


_EXPRS = st.recursive(_LEAVES, _compound, max_leaves=6)


def _condition(tag):
    return _EXPRS.map(lambda e: [CollectedNode(tag, exprs.render(e), expr=e)])


def _assignment(name, op, e):
    if op == "++":
        rhs = Binary("+", Name(name), Lit("1"))
    elif op == "+=":
        rhs = Binary("+", Name(name), e if isinstance(e, (Name, Lit, Grouped)) else Grouped(e))
    else:
        rhs = e
    return [CollectedNode(ASSIGNMENT, f"{name} {op}", name=name, rhs=rhs)]


def _decl_call(params, data):
    args = tuple(data.draw(_EXPRS) for _ in params)
    return [
        CollectedNode(METHOD_DECL, "m(..)"),
        CollectedNode(METHOD_CALL, "m(..)", params=tuple(params), args=args),
    ]


_NODE_GROUPS = st.one_of(
    _condition(CONDITION),
    _condition(NEGATED),
    st.builds(_assignment, _NAMES, st.sampled_from(["=", "+=", "++"]), _EXPRS),
    st.builds(_decl_call, st.lists(_NAMES, unique=True, max_size=3), st.data()),
    st.just([CollectedNode(START, "throw ..;")]),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(_NODE_GROUPS, max_size=12))
def test_environment_fold_equals_left_to_right_fold(groups):
    nodes = [n for g in groups for n in g]
    want_conds, want_texts = _left_to_right_fold(nodes)
    got_conds, got_texts, got_free = _fold(nodes)
    assert got_conds == [exprs.render(e) for e in want_conds]
    assert got_texts == want_texts
    assert got_free == set().union(*map(exprs.free_names, want_conds))


def test_a_name_bound_to_a_literal_is_not_free(tmp_path):
    (tmp_path / "G.java").write_text(
        "class G {\n    void f(int q) {\n        int t = 5;\n"
        "        if (t > q) throw new IllegalStateException();\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    trace = resolve_trace(StackTrace((Frame("G", "f", "G.java", 4),)), ctx)
    assert _fold(collect_nodes(trace, ctx)) == (["5 > q"], ["t > q"], {"q"})
    assert compute_guard_expression(trace, ctx).unresolved_names == ()


def test_overloads_on_one_line_each_get_the_guard_of_their_own_body(tmp_path):
    """Bodies are cached by their '{', so two methods of one name declared
    on one line never share a body tree."""
    (tmp_path / "G.java").write_text(
        "class G {\n    int b;\n"
        "    void f(int a) { if (a > 0) throw new IllegalStateException(); }"
        " void f() { if (b < 0) throw new IllegalStateException(); }\n}\n"
    )
    ctx = load_repo(tmp_path)
    guards = {
        mid.param_arity: compute_guard_expression(
            StackTrace((Frame("G", "f", "G.java", 3, mid),)), ctx).rendered
        for mid in sorted(ctx.all_method_ids(), key=lambda m: -m.param_arity)
    }
    assert guards == {1: "a > 0", 0: "b < 0"}


def test_a_call_after_another_statement_on_its_frame_line_is_found(tmp_path):
    """The caller's frame line holds `a();` before the call on the trace;
    the walk passes over the first statement to the one holding the call."""
    (tmp_path / "G.java").write_text(
        "class G {\n    void m(int y) { a(); b(y + 1); }\n    void a() { }\n"
        "    void b(int x) {\n        if (x > 3) throw new IllegalStateException();\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    frames = (Frame("G", "m", "G.java", 2), Frame("G", "b", "G.java", 5))
    trace = resolve_trace(StackTrace(frames), ctx)
    guard = compute_guard_expression(trace, ctx)
    assert (guard.rendered, guard.unresolved_names) == ("(y + 1) > 3", ())
    assert [n.text for n in collect_nodes(trace, ctx) if n.tag == METHOD_CALL] == ["b(y + 1)"]


def test_fold_substitutions_grow_linearly_with_depth(tmp_path, monkeypatch):
    calls = 0
    render = exprs.render

    def counting(*args):
        nonlocal calls
        calls += 1
        return render(*args)

    monkeypatch.setattr(exprs, "render", counting)
    made = {}
    for depth in (16, 32, 64):
        trace = write_call_chain(tmp_path / str(depth), depth)
        ctx = load_repo(tmp_path / str(depth))
        trace = resolve_trace(trace, ctx)
        calls = 0
        guard = compute_guard_expression(trace, ctx)
        assert len(guard.conditions) == depth
        made[depth] = calls
    # rendering substituted trees made 813, 3,165 and 12,477 on these chains
    assert made[32] <= 2.5 * made[16], made
    assert made[64] <= 2.5 * made[32], made


# --- one guard per context, trace and site ---


def _one_branch_repo(root, cond: str):
    root.mkdir(parents=True)
    (root / "G.java").write_text(
        "class G {\n    void f(int x) {\n"
        f"        if ({cond}) throw new IllegalStateException();\n    }}\n}}\n"
    )
    return load_repo(root)


def test_guard_memo_is_scoped_to_its_context(tmp_path, monkeypatch):
    trace = StackTrace((Frame("G", "f", "G.java", 3),))
    first = _one_branch_repo(tmp_path / "one", "x > 0")
    second = _one_branch_repo(tmp_path / "two", "x < 5")
    guard = compute_guard_expression(resolve_trace(trace, first), first)
    assert guard.rendered == "x > 0"
    assert compute_guard_expression(resolve_trace(trace, second), second).rendered == "x < 5"
    collected = []
    monkeypatch.setattr(
        guardexpr, "collect_nodes", lambda *a: collected.append(a) or []
    )
    assert compute_guard_expression(resolve_trace(trace, first), first) is guard
    assert collected == []


def test_guard_starts_at_the_sites_own_throw(tmp_path):
    write_two_throw_repo(tmp_path)
    ctx = load_repo(tmp_path)
    a, b = ctx.throw_sites
    trace = resolve_trace(StackTrace((Frame("p.Range", "check", "Range.java", 5),)), ctx)
    assert compute_guard_expression(trace, ctx, a).rendered == "x < 0"
    assert compute_guard_expression(trace, ctx, b).rendered == "x > 9 && !(x < 0)"
    assert compute_guard_expression(trace, ctx).rendered == "x < 0"


def test_a_call_replacement_takes_the_one_grouping_rule(tmp_path):
    """A compound assignment's right side and a switch selector are grouped
    by `exprs.grouped`: a call stays bare, a looser expression is grouped."""
    (tmp_path / "G.java").write_text(
        "class G {\n"
        "    void g(int y) {\n        int x = 0;\n        x += f(y);\n"
        "        if (x > 3) throw new IllegalStateException();\n    }\n"
        "    void h(int y) {\n        switch (f(y)) {\n"
        "            case 1:\n                throw new IllegalStateException();\n"
        "            default:\n                break;\n        }\n    }\n"
        "    void k(int y) {\n        int x = 0;\n        x += y - 1;\n"
        "        if (x > 3) throw new IllegalStateException();\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    rendered = [
        compute_guard_expression(
            resolve_trace(StackTrace((Frame("G", s.method.name, "G.java", s.line),)), ctx), ctx, s
        ).rendered
        for s in ctx.throw_sites
    ]
    assert rendered == ["(0 + f(y)) > 3", "f(y) == 1", "(0 + (y - 1)) > 3"]


def test_only_if_while_and_for_put_their_condition_on_the_path(tmp_path):
    """A `do … while`, a `for (;;)`, a `synchronized` block, a `try …
    finally` and a label add no condition; a labeled `while` adds its own."""
    (tmp_path / "G.java").write_text(
        "class G {\n    Object lock;\n"
        "    void d(int x) {\n        int y = x + 1;\n        do {\n"
        "            if (y > 3) throw new IllegalStateException();\n"
        "        } while (y > 0);\n    }\n"
        "    void f(int x) {\n        for (;;) {\n"
        "            if (x > 3) throw new IllegalStateException();\n        }\n    }\n"
        "    void s(int x) {\n        synchronized (lock) {\n"
        "            if (x > 3) throw new IllegalStateException();\n        }\n    }\n"
        "    void t(int x) {\n        try {\n"
        "            if (x > 3) throw new IllegalStateException();\n"
        "        } finally {\n            lock = null;\n        }\n    }\n"
        "    void w(int x) {\n        outer: while (x > 1) {\n"
        "            if (x > 3) throw new IllegalStateException();\n        }\n    }\n}\n"
    )
    ctx = load_repo(tmp_path)
    guards = {
        s.method.name: compute_guard_expression(
            resolve_trace(StackTrace((Frame("G", s.method.name, "G.java", s.line),)), ctx), ctx, s
        ).rendered
        for s in ctx.throw_sites
    }
    assert guards == {"d": "(x + 1) > 3", "f": "x > 3", "s": "x > 3", "t": "x > 3",
                      "w": "x > 3 && x > 1"}
