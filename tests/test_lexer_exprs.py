from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from exbt.errors import JavaParseError, UnboundName, UnsupportedConstruct
from exbt.jmodel.exprs import (
    MAX_NESTING,
    Binary,
    Call,
    New,
    Grouped,
    InstanceOf,
    Lit,
    Name,
    Opaque,
    Unary,
    children,
    evaluate,
    free_names,
    parse_expr,
    render,
    substitute,
)
from exbt.jmodel.lexer import (
    Token,
    call_sites,
    find_top_level,
    index_of,
    match_angle,
    skip_type,
    split_top_level,
    tokenize,
)


def test_tokenize_basics():
    toks = tokenize('int x = foo("a;b", 0x1F) + 2; // tail comment')
    texts = [t.text for t in toks]
    assert texts == ["int", "x", "=", "foo", "(", '"a;b"', ",", "0x1F", ")", "+", "2", ";"]


def test_token_is_an_immutable_value_with_an_end():
    tok = tokenize("int  count;")[1]
    assert tok == Token("ident", "count", 1, 5) and tok.end == 10
    assert hash(tok) == hash(Token("ident", "count", 1, 5))
    assert tok != Token("ident", "count", 1, 6)
    with pytest.raises(AttributeError):
        tok.text = "other"


def test_tokenize_tracks_lines():
    toks = tokenize("a\n  b\n\nc")
    assert [(t.text, t.line) for t in toks] == [("a", 1), ("b", 2), ("c", 4)]


def test_tokenize_block_comment_spans_lines():
    toks = tokenize("a /* x\n y */ b")
    assert [(t.text, t.line) for t in toks] == [("a", 1), ("b", 2)]


def test_find_top_level_skips_nested_brackets():
    toks = tokenize("f(a, b[c, d], {e, f}), g;")
    assert find_top_level(toks, 0, len(toks), (",", ";")) == 17
    # inside the call's parentheses the first top-level comma is after 'a'
    assert find_top_level(toks, 2, 16, (",",)) == 3
    assert find_top_level(toks, 4, 16, (",",)) == 10


def test_find_top_level_empty_range_and_no_stop():
    toks = tokenize("x ; y")
    assert find_top_level(toks, 1, 1, (";",)) == 1
    assert find_top_level(toks, 2, 3, (";",)) == 3


def test_find_top_level_stray_closer_hides_later_stops():
    toks = tokenize("a ) , b ; c")
    assert find_top_level(toks, 0, len(toks), (",", ";")) == len(toks)
    assert split_top_level(toks, 0, len(toks), ",") == [(0, len(toks))]


def test_split_top_level_pieces():
    toks = tokenize("f(a, b[c, d], {e, f}), g;")
    assert split_top_level(toks, 2, 16, ",") == [(2, 3), (4, 10), (11, 16)]
    assert split_top_level(toks, 5, 5, ",") == [(5, 5)]


def test_split_top_level_keeps_empty_and_trailing_pieces():
    toks = tokenize("a, b,")
    assert split_top_level(toks, 0, len(toks), ",") == [(0, 1), (2, 3), (4, 4)]
    assert split_top_level(toks, 1, 2, ",") == [(1, 1), (2, 2)]


@pytest.mark.parametrize(
    "source, open_index, closer",
    [
        ("List<A> x", 1, 3),
        ("Map<A, List<B>> x", 1, 7),
        ("Map<A, List<Set<B>>> x", 1, 9),
        ("Map<A, List<Set<B>>> x", 5, 9),  # '>>>' closes the list it is inside too
        ("F<G<H<I<J>>>> x", 1, 10),
        ("List<A, (B)> x", 1, 7),
    ],
)
def test_match_angle_closes_one_two_or_three_lists(source, open_index, closer):
    toks = tokenize(source)
    assert match_angle(toks, open_index, len(toks)) == closer


def test_match_angle_returns_hi_when_nothing_closes():
    toks = tokenize("List<Set<A> x;")
    assert match_angle(toks, 1, len(toks)) == len(toks)
    # the closer lies past hi
    toks = tokenize("List<A> x")
    assert match_angle(toks, 1, 3) == 3


@pytest.mark.parametrize(
    "source, end",
    [
        ("int x", 1),
        ("int[][] x", 5),
        ("java.util.List<? extends A> x", 10),
        ("Map<A, List<Set<B>>>[] x", 12),
        ("Outer<A>.Inner<B> x", 9),
        ("a.b.c = 1", 5),
        ("a[0] = 1", 1),
        ("a. this", 1),
        ("this.x", 0),
        ("(int) x", 0),
        ("com.x.record.Err()", 7),
        ("record x", 0),
        ("java.util.@A List<T> x", 10),
        ("String @A [] x", 5),
        ("String @A x", 1),
    ],
)
def test_skip_type_reads_name_arguments_and_dimensions(source, end):
    toks = tokenize(source)
    assert skip_type(toks, 0, len(toks)) == end


def test_skip_type_stops_at_hi():
    toks = tokenize("List<Set<A> x;")
    assert skip_type(toks, 0, len(toks)) == len(toks)
    toks = tokenize("int[] x")
    assert skip_type(toks, 0, 2) == 1


def _calls(source: str, hi: int | None = None):
    """call_sites over the whole source as (name, new, argument texts, ')' index)."""
    toks = tokenize(source)
    return [
        (toks[k].text, new, ["".join(t.text for t in toks[a:b]) for a, b in args], close)
        for k, new, args, close in call_sites(toks, 0, len(toks) if hi is None else hi)
    ]


@pytest.mark.parametrize(
    "source, calls",
    [
        ("f()", [("f", False, [], 2)]),
        ("f(g(a, b), h())", [("f", False, ["g(a,b)", "h()"], 12), ("g", False, ["a", "b"], 7),
                             ("h", False, [], 11)]),
        ("new a.b.C<>(x)", [("C", True, ["x"], 10)]),
        ("new Box<String>(s).get()", [("Box", True, ["s"], 7), ("get", False, [], 11)]),
        ("f(new HashMap<K, V>(), x.<A, B>g(), a < b, c > d)",
         [("f", False, ["newHashMap<K,V>()", "x.<A,B>g()", "a<b", "c>d"], 30),
          ("HashMap", True, [], 10), ("g", False, [], 21)]),
        ("x.<T>m(y)", [("m", False, ["y"], 8)]),
        ("new int[3]", []),
        ("if (a) return this(b);", [("this", False, ["b"], 8)]),
        ("new R(1) { void run() { g(); } }", [("R", True, ["1"], 4), ("run", False, [], 9),
                                                ("g", False, [], 13)]),
        ("super(n); super.f(x)", [("super", False, ["n"], 3), ("f", False, ["x"], 10)]),
    ],
)
def test_call_sites_reads_calls_in_source_order(source, calls):
    assert _calls(source) == calls


def test_call_sites_raises_at_the_first_unclosed_call_after_earlier_ones():
    toks = tokenize("a(); b(c(1); d()")
    sites = call_sites(toks, 0, len(toks))
    assert toks[next(sites)[0]].text == "a"
    with pytest.raises(JavaParseError):
        next(sites)
    # a '(' that closes only past hi is unclosed too
    assert _calls("f(x) + g(y)", 5) == [("f", False, ["x"], 3)]
    with pytest.raises(JavaParseError):
        _calls("f(x) + g(y)", 8)


_ARG_ATOMS = st.sampled_from(["x", "1", '"s,t"', "a[i]", "(y)", "p -> p"])


@st.composite
def _call_exprs(draw, depth=1):
    """(Java call expression, expected (name, new, arity) per call, in order)."""
    name = draw(st.sampled_from(["f", "get", "Box"]))
    form = draw(st.sampled_from(["plain", "receiver", "new", "new-generic"]))
    head = {
        "plain": name,
        "receiver": draw(st.sampled_from(["r.", "this.", "a.b.", "r.<T>"])) + name,
        "new": f"new {name}",
        "new-generic": f"new a.b.{name}<{draw(st.sampled_from(['', 'String', 'Map<K, List<V>>']))}>",
    }[form]
    args, nested = [], []
    for _ in range(draw(st.integers(0, 3))):
        if depth < 3 and draw(st.booleans()):
            text, inner = draw(_call_exprs(depth + 1))
            args.append(text)
            nested += inner
        else:
            args.append(draw(_ARG_ATOMS))
    return f"{head}({', '.join(args)})", [(name, form.startswith("new"), len(args))] + nested


@settings(max_examples=300, deadline=None)
@given(_call_exprs())
def test_call_sites_finds_every_generated_call(case):
    source, expected = case
    assert [(name, new, len(args)) for name, new, args, _ in _calls(source)] == expected


def test_index_of_is_bounded():
    toks = tokenize("switch ) { }")
    assert index_of(toks, 0, "{") == 2
    with pytest.raises(JavaParseError):
        index_of(toks, 0, "(")
    with pytest.raises(JavaParseError):
        index_of(toks, len(toks) + 3, "{")
    with pytest.raises(JavaParseError):
        index_of([], 0, ";")


def test_tokenize_rejects_unterminated_string():
    with pytest.raises(JavaParseError):
        tokenize('String s = "open')


@pytest.mark.parametrize(
    "source",
    [
        "x > 0",
        "a + 1 == 0",
        "x / 2 == -3",
        "!(x > 0)",
        "x > 0 && x < 10",
        "a * (b + c)",
        "obj.field > limit",
        "list.get(i) == null",
        "(x > 0 ? x : -x) > 5",
        "flags[k] != 0",
        "x instanceof java.util.List<? extends A> && n > 0",
        "(Map<K, List<V>>) o != null",
        "x > 0 && x.y::z",
        "list.stream().map(Foo::bar).count() > 0",
        "f(x -> g(x, y), m[k -> k]) != null",
        "f(s -> { return s; }, n)",
    ],
)
def test_parse_render_round_trip_is_stable(source):
    once = render(parse_expr(source))
    again = render(parse_expr(once))
    assert once == again


def test_precedence_shapes():
    e = parse_expr("a + b * c")
    assert isinstance(e, Binary) and e.op == "+"
    assert isinstance(e.right, Binary) and e.right.op == "*"
    assert render(e) == "a + b * c"
    assert parse_expr("a == b instanceof C") == Binary("==", Name("a"), InstanceOf(Name("b"), "C"))


@pytest.mark.parametrize(
    "op", ["<", ">", "<=", ">=", "<<", ">>", ">>>", "+", "-", "*", "/", "%"]
)
def test_instanceof_binds_at_relational_precedence(op):
    """`"" + s instanceof String` tests `"" + s`, as in Java: an operator
    that binds at least as tightly as `<` takes its operand first."""
    e = InstanceOf(Binary(op, Name("a"), Name("b")), "C")
    assert parse_expr(render(e)) == e


def test_a_right_nested_assignment_renders_without_parentheses():
    """An assignment reads its right side at its own precedence, so a
    right-nested one needs no group; an assignment as an operand still does."""
    assert render(parse_expr("a = b = c")) == "a = b = c"
    assert render(parse_expr("(x = y = 3) > 0")) == "(x = y = 3) > 0"
    assert render(Binary("=", Binary("=", Name("a"), Name("b")), Name("c"))) == "(a = b) = c"


def test_source_parens_drop_when_redundant():
    assert render(parse_expr("(a + b) * c")) == "(a + b) * c"
    assert render(parse_expr("(a) + b")) == "a + b"


def test_substitute_wraps_compound_replacements():
    cond = parse_expr("v == 0")
    out = substitute(cond, {"v": parse_expr("a + 1")})
    assert isinstance(out.left, Grouped)
    assert render(out) == "(a + 1) == 0"


def test_substitute_atomic_replacement_stays_bare():
    out = substitute(parse_expr("val > value"), {"val": Name("k")})
    assert render(out) == "k > value"


def test_substitute_never_touches_call_or_field_names():
    out = substitute(parse_expr("f(x) + o.x"), {"x": Lit("1"), "f": Lit("2"), "o": Name("p")})
    assert render(out) == "f(1) + p.x"


def test_free_names_skips_member_names():
    names = free_names(parse_expr("obj.size() > limit && f(a).b == c"))
    assert names == {"obj", "limit", "a", "c"}


def test_evaluate_java_division_truncates_toward_zero():
    assert evaluate(parse_expr("-7 / 2"), {}) == -3
    assert evaluate(parse_expr("7 / -2"), {}) == -3
    assert evaluate(parse_expr("-7 % 3"), {}) == -1
    assert evaluate(parse_expr("7 % -3"), {}) == 1


def test_evaluate_short_circuit():
    # the right operand would raise if evaluated
    assert evaluate(parse_expr("false && missing > 0"), {}) is False
    assert evaluate(parse_expr("true || missing > 0"), {}) is True


def test_evaluate_unbound_name():
    with pytest.raises(UnboundName):
        evaluate(parse_expr("x > 0"), {})


def test_evaluate_rejects_calls_and_fields():
    with pytest.raises(UnsupportedConstruct):
        evaluate(parse_expr("f(1) > 0"), {})
    with pytest.raises(UnsupportedConstruct):
        evaluate(parse_expr("o.x > 0"), {"o": 1})


def test_evaluate_ternary_and_char():
    assert evaluate(parse_expr("x > 0 ? x : -x"), {"x": -4}) == 4
    assert evaluate(parse_expr("c == 'a'"), {"c": ord("a")}) is True


def test_double_negation_parse():
    e = parse_expr("!!flag")
    assert isinstance(e, Unary) and isinstance(e.operand, Unary)
    assert render(e) == "!!flag"


def test_new_with_type_arguments_is_parsed_not_opaque():
    e = parse_expr("new Box<>(n) == null")
    assert isinstance(e, Binary) and isinstance(e.left, New)
    assert free_names(e) == {"n"}
    assert render(substitute(e, {"n": Name("s")})) == "new Box<>(s) == null"
    assert render(parse_expr("new a.b.Box<String>(n)")) == "new a.b.Box<String>(n)"


def test_a_lambda_argument_ends_with_its_argument():
    e = parse_expr("a.anyMatch(s -> s == null) && n > 0")
    assert isinstance(e, Binary) and e.op == "&&"
    assert e.left.args == (Opaque("s -> s == null"),)
    assert "n" in free_names(e)
    assert render(substitute(e, {"n": Lit("3")})) == "a.anyMatch(s -> s == null) && 3 > 0"
    assert parse_expr(render(e)) == e
    e = parse_expr("f((a, b) -> a + b, n) > 0")
    assert isinstance(e.left, Call) and len(e.left.args) == 2
    assert e.left.args == (Opaque("(a, b) -> a + b"), Name("n"))
    assert parse_expr(render(e)) == e
    # outside call arguments a lambda still runs to the end of the input
    assert parse_expr("x -> x + 1") == Opaque("x -> x + 1")


@pytest.mark.parametrize(
    "source, reference",
    [
        ("x > 0 && x.y::z", "x.y::z"),
        ("f(a) == g(a.b::c)", "a.b::c"),
        ("(x)::y != null", "(x)::y"),
    ],
)
def test_a_method_reference_starts_at_its_own_receiver(source, reference):
    e = parse_expr(source)
    assert render(e) == source
    opaque = [n for n in _walk(e) if isinstance(n, Opaque)]
    assert [n.text for n in opaque] == [reference]


def _walk(e):
    yield e
    for c in children(e):
        yield from _walk(c)


@pytest.mark.parametrize("wrap", ["({})", "f({})", "-({})", "x = {}", "a ? b : {}", "new X({})",
                                  "a[{}]", "(int) ({})"])
def test_an_expression_nested_past_max_nesting_is_a_parse_error(wrap):
    """MAX_NESTING levels parse; one more is a JavaParseError, never a
    RecursionError, and a guard keeps that condition as its source text."""
    text = "x"
    for _ in range(MAX_NESTING - 1):
        text = wrap.format(text)
    assert render(parse_expr(text)).count("x") >= 1
    with pytest.raises(JavaParseError, match="nests deeper than 150 levels"):
        parse_expr(wrap.format(text))
