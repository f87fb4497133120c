from __future__ import annotations

import math
from collections import Counter
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

import exbt.classifier
import exbt.jmodel.model
import exbt.metrics
from conftest import REPO_A, REPO_G
from exbt.genbackend import extract_candidate
from exbt.jmodel import load_repo
from exbt.jmodel.lexer import KEYWORDS, tokenize
from exbt.jmodel.stmts import BodyParser
from exbt.metrics import (
    CandidateScore,
    FunctionalResult,
    Sides,
    aggregate,
    bleu,
    code_bleu_components,
    edit_similarity,
    matched_exception,
    report_table,
    score_candidate,
    xmatch,
    xmatch_strict,
)
from test_cli import _count_calls

# frozen by hand from the n-gram counts of ("a b c d", "a b c e"):
# p1=4/5, p2=3/4, p3=2/3, p4=1/2 under add-one smoothing; BP=1. BLEU is the
# keyword-weighted BLEU with unit weights, whose float sums of integer counts
# are exact, so the value must match to the last bit.
BLEU_ORACLE = 0.668740304976422

METHOD = """@Test
public void testWithdraw() {
    Account acct = new Account(100);
    acct.withdraw(5);
    assertEquals(95, acct.balance());
}"""


def _fixture_methods(n=50):
    out = []
    for i in range(n):
        out.append(
            f"""@Test
public void testCase{i}() {{
    Holder h{i} = new Holder({i});
    h{i}.update({i} + 1);
    assertEquals({i + 1}, h{i}.value());
}}"""
        )
    return out


# --- exact match ---


def test_xmatch_identical():
    assert xmatch(METHOD, METHOD) is True
    assert xmatch_strict(METHOD, METHOD) is True


def test_xmatch_differs_by_identifier():
    assert xmatch(METHOD, METHOD.replace("acct", "account")) is False


def test_xmatch_ignores_indentation_and_comments():
    reindented = "\n".join(l.strip() for l in METHOD.splitlines())
    commented = METHOD.replace("acct.withdraw(5);", "acct.withdraw(5); // boom")
    assert xmatch(METHOD, reindented) is True
    assert xmatch(METHOD, commented) is True
    assert xmatch_strict(METHOD, reindented) is False


# --- BLEU ---


def test_bleu_identical_is_one():
    assert bleu(METHOD, METHOD) == pytest.approx(1.0)


def test_bleu_disjoint_below_threshold():
    cand = " ".join(["alpha", "beta", "gamma", "delta", "epsilon"] * 6)
    ref = " ".join(["one", "two", "three", "four", "five"] * 6)
    assert bleu(cand, ref) < 0.05


def test_bleu_hand_computed_oracle():
    assert bleu("a b c d", "a b c e") == BLEU_ORACLE


def test_bleu_invariant_under_comment_removal():
    with_comments = METHOD.replace("{", "{ // opening", 1)
    assert bleu(with_comments, METHOD) == pytest.approx(1.0)
    assert code_bleu_components(with_comments, METHOD)["code_bleu"] == pytest.approx(1.0)


# Reference: BLEU as it was computed before n-gram counts were kept on a
# side, recounting both token lists for every pair and every weighting.
def _ref_ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _ref_weighted_unigram_precision(cand, ref, keyword_weight) -> float:
    cand_counts = Counter(cand)
    ref_counts = Counter(ref)
    matched = 0.0
    total = 0.0
    for tok, c in cand_counts.items():
        w = keyword_weight if tok in KEYWORDS else 1.0
        matched += w * min(c, ref_counts[tok])
        total += w * c
    return (matched + 1) / (total + 1)


def _ref_weighted_bleu(cand, ref, keyword_weight=5.0, max_n=4) -> float:
    if not cand or not ref:
        return 1.0 if cand == ref else 0.0
    log_sum = math.log(_ref_weighted_unigram_precision(cand, ref, keyword_weight))
    for n in range(2, max_n + 1):
        cand_ngrams = _ref_ngrams(cand, n)
        ref_ngrams = _ref_ngrams(ref, n)
        total = sum(cand_ngrams.values())
        matched = sum(min(c, ref_ngrams[g]) for g, c in cand_ngrams.items())
        log_sum += math.log((matched + 1) / (total + 1))
    geo = math.exp(log_sum / max_n)
    bp = 1.0 if len(cand) >= len(ref) else math.exp(1 - len(ref) / len(cand))
    return bp * geo


# few words, so that n-grams repeat within and across lists; keywords weigh
# more in the weighted BLEU; every word lexes as one token between spaces
_BLEU_WORDS = ["if", "return", "new", "int", "x", "y", "(", ")", ";", "=", "."]
_BLEU_TOKENS = st.one_of(
    st.lists(st.sampled_from(_BLEU_WORDS), max_size=4),
    st.lists(st.sampled_from(_BLEU_WORDS), max_size=40),
)


def _token_side(tokens: list[str], parsed: bool) -> exbt.metrics._Side:
    trees = Counter({"block()": 1}) if parsed else None
    return exbt.metrics._Side(tokens, exbt.metrics._ngram_counts(tokens), trees, trees)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_BLEU_TOKENS, _BLEU_TOKENS)
@example([], [])
@example([], ["x"])
@example(["x", "y"], ["x", "y", "x"])
@example(["if", "(", "x", ")", "return"] * 4, ["if", "(", "x", ")", "return", ";"] * 3)
def test_bleu_and_code_bleu_equal_the_per_pair_counts_bit_for_bit(cand, ref):
    plain = _ref_weighted_bleu(cand, ref, 1.0)
    assert [t.text for t in tokenize(" ".join(cand))] == cand
    assert bleu(" ".join(cand), " ".join(ref)) == plain
    comp = code_bleu_components(_token_side(cand, True), _token_side(ref, True))
    assert comp["ngram"] == plain
    assert comp["weighted_ngram"] == _ref_weighted_bleu(cand, ref)
    degraded = code_bleu_components(_token_side(cand, False), _token_side(ref, True))
    assert degraded["code_bleu"] == degraded["weighted_ngram"] == plain
    # a side scored against itself skips the clipping and gives what an
    # equal side computed in full does
    for parsed in (True, False):
        side = _token_side(cand, parsed)
        assert code_bleu_components(side, side) == code_bleu_components(
            side, _token_side(cand, parsed))


# --- CodeBLEU ---


def test_code_bleu_identical_is_one():
    assert code_bleu_components(METHOD, METHOD)["code_bleu"] == pytest.approx(1.0)


def test_code_bleu_renamed_locals_between_components():
    renamed = METHOD.replace("acct", "a2")
    comp = code_bleu_components(renamed, METHOD)
    assert comp["degraded"] is False
    assert comp["ast_match"] == pytest.approx(1.0)
    assert comp["dataflow_match"] == pytest.approx(1.0)
    assert comp["ngram"] < 1.0
    assert comp["ngram"] < comp["code_bleu"] < 1.0


def test_code_bleu_unparseable_degrades_to_bleu():
    garbage = "this is not java at all ((("
    comp = code_bleu_components(garbage, METHOD)
    assert comp["degraded"] is True
    assert comp["code_bleu"] == pytest.approx(bleu(garbage, METHOD))


def test_similarity_identity_on_fifty_methods():
    for m in _fixture_methods(50):
        assert bleu(m, m) == pytest.approx(1.0)
        assert code_bleu_components(m, m)["code_bleu"] == pytest.approx(1.0)
        assert edit_similarity(m, m) == pytest.approx(1.0)


def test_similarity_bounds():
    methods = _fixture_methods(10)
    for cand in methods[:3]:
        for ref in methods[:3]:
            for metric in (bleu, lambda a, b: code_bleu_components(a, b)["code_bleu"],
                           edit_similarity):
                value = metric(cand, ref)
                assert 0.0 <= value <= 1.0


# --- edit similarity ---


def test_edit_similarity_examples():
    assert edit_similarity("ab", "abc") == pytest.approx(2 / 3, abs=1e-4)
    assert edit_similarity("", "x") == 0.0
    assert edit_similarity("", "") == 1.0


def _dp_edit_similarity(a: str, b: str) -> float:
    """Reference: the textbook O(n*m) Levenshtein dynamic program."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return 1.0 - previous[-1] / max(len(a), len(b))


# a small alphabet makes matches frequent; lengths up to 200 make the bit
# vectors span several 64-bit words
_EDIT_TEXT = st.text(alphabet="ab;{ \né中\U0001F600", max_size=200)


@settings(max_examples=300, deadline=None)
@given(_EDIT_TEXT, _EDIT_TEXT)
@example("ab;{" * 50, "b;{ \n" * 40)
@example("é中\U0001F600" * 66, "a\U0001F600" * 100)
@example("", "x" * 200)
def test_edit_similarity_equals_dynamic_program(a, b):
    assert edit_similarity(a, b) == _dp_edit_similarity(a, b)


# two texts sharing a long prefix and suffix around short differing middles;
# either end may be empty, and so may either middle, which makes one text
# a prefix or a suffix of the other, or both texts the same
_SHARED_END = st.one_of(st.just(""), st.text(alphabet="ab;{ \né", max_size=120))
_MIDDLE = st.one_of(st.just(""), st.text(alphabet="ab;{ \né\U0001F600", max_size=16))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_SHARED_END, _MIDDLE, _MIDDLE, _SHARED_END)
@example("", "aaa", "aa", "")  # the shared prefix and suffix overlap
@example("", "abab", "ab", "")
@example("x", "aXa", "a", "x")
@example("ab;" * 40, "", "", "{é" * 30)  # identical
@example("ab;" * 40, "", "é", "")  # a prefix of the other
@example("", "é", "", "{é" * 30)  # a suffix of the other
def test_edit_similarity_equals_dynamic_program_around_shared_ends(prefix, x, y, suffix):
    a, b = prefix + x + suffix, prefix + y + suffix
    assert edit_similarity(a, b) == _dp_edit_similarity(a, b)
    assert edit_similarity(b, a) == _dp_edit_similarity(a, b)


def test_shared_ends_never_overlap():
    assert exbt.metrics._shared_ends("aaa", "aa") == (2, 0)
    assert exbt.metrics._shared_ends("abcab", "ab") == (2, 0)
    assert exbt.metrics._shared_ends("xab", "ab") == (0, 2)
    assert exbt.metrics._shared_ends("same", "same") == (4, 0)


# --- matched exception ---


def test_matched_exception_same_type():
    cand = "@Test(expected = IllegalStateException.class) public void t() { f(); }"
    assert matched_exception(cand, "IllegalStateException") is True


def test_matched_exception_qualified_reduces_to_simple():
    cand = "@Test(expected = java.io.IOException.class) public void t() { f(); }"
    assert matched_exception(cand, "IOException") is True
    cand2 = "@Test(expected = IOException.class) public void t() { f(); }"
    assert matched_exception(cand2, "java.io.IOException") is True


def test_matched_exception_nonebt_false():
    assert matched_exception("@Test public void t() { f(); }", "IOException") is False
    assert matched_exception("not even a method", "IOException") is False


@pytest.mark.parametrize("candidate", [
    "@Test(expected = IOException.class) public void t() { f(); }",
    "@Test(expected = IOException.class) public void t() { switch ) { case 1: } }",
    "@Test(expected = IOException.class) public abstract void t();",
    "@Test public void t() { assertThrows(IOException.class, () -> f()); }",
    "@Test public void t() { f(); }",
    "public void helper() { }",
    "int x = 1;",
    "not even a method",
])
def test_score_candidate_matched_e_agrees_with_matched_exception(candidate):
    reference = "@Test(expected = IOException.class) public void r() { g(); }"
    for ref in (reference, None):
        s = score_candidate(candidate, ref, "IOException", "t1")
        assert s.matched_e is matched_exception(candidate, "IOException")


# --- functional checks ---


def test_functional_normalization_cascades():
    assert FunctionalResult(False, None, None).normalized() == FunctionalResult(False, None, None)
    assert FunctionalResult(False, True, True).normalized() == FunctionalResult(False, False, False)
    assert FunctionalResult(None, None, True).normalized() == FunctionalResult(True, True, True)
    r = FunctionalResult(True, False, True).normalized()
    assert (r.runnable, r.covers_target) == (False, False)


def test_per_candidate_implications_hold():
    for r in (
        FunctionalResult(True, True, True),
        FunctionalResult(True, False, None),
        FunctionalResult(False, None, None),
        FunctionalResult(None, None, None),
    ):
        n = r.normalized()
        if n.runnable:
            assert n.compilable
        if n.covers_target:
            assert n.runnable


# --- aggregation ---


def _score(target, covers, **kw):
    return CandidateScore(
        target=target,
        bleu=kw.get("bleu", 0.5),
        code_bleu=0.5,
        edit_sim=0.5,
        xmatch=False,
        matched_e=kw.get("matched_e", True),
        compilable=True,
        runnable=covers,
        covers_target=covers,
    )


def test_aggregate_throw_cov_over_targets():
    targets = ["t1", "t2", "t3"]
    scores = [_score("t1", True), _score("t2", True), _score("t3", False)]
    agg = aggregate(scores, targets)
    assert agg["throw_cov"] == pytest.approx(2 / 3)
    assert agg["targets"] == 3


def test_aggregate_empty_candidates():
    agg = aggregate([], ["t1", "t2"])
    assert agg["throw_cov"] == 0.0
    assert agg["bleu"] == 0.0
    assert agg["xmatch_pct"] == 0.0


def test_aggregate_duplicate_candidates_count_once():
    targets = ["t1", "t2"]
    scores = [_score("t1", True), _score("t1", True), _score("t1", True)]
    agg = aggregate(scores, targets)
    assert agg["throw_cov"] == pytest.approx(1 / 2)


def test_report_table_column_order():
    agg = aggregate([_score("t1", True)], ["t1"])
    table = report_table(agg)
    header = table.splitlines()[0]
    for left, right in zip(
        ["BLEU", "CodeBLEU", "EditSim", "xMatch", "Compilable%", "Matched-E%", "Runnable%"],
        ["CodeBLEU", "EditSim", "xMatch", "Compilable%", "Matched-E%", "Runnable%", "ThrowCov%"],
    ):
        assert header.index(left) < header.index(right)


# a method whose braces do not balance: it lexes, but does not parse
UNPARSED = "@Test public void t() { f(); "


def test_score_candidate_lexes_and_parses_each_side_once(monkeypatch):
    calls = {"tokenize": 0, "parse_member": 0, "parse_block": 0, "classify_parse": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    unparsed_tokens = [t.text for t in tokenize(UNPARSED)]
    # every module that lexes a side: `Sides.member` and `parse_member`
    for module in (exbt.metrics, exbt.jmodel.model):
        monkeypatch.setattr(module, "tokenize", counting("tokenize", module.tokenize))
    monkeypatch.setattr(
        exbt.metrics, "parse_member", counting("parse_member", exbt.metrics.parse_member)
    )
    monkeypatch.setattr(
        BodyParser, "parse_block", counting("parse_block", BodyParser.parse_block)
    )
    # classification reuses the candidate's parse instead of parsing it again
    monkeypatch.setattr(
        exbt.classifier, "parse_member",
        counting("classify_parse", exbt.classifier.parse_member),
    )
    s = score_candidate(METHOD.replace("acct", "a2"), METHOD, "IOException", "t1")
    assert s.code_bleu_degraded is False
    assert calls == {"tokenize": 2, "parse_member": 2, "parse_block": 2, "classify_parse": 0}

    # a candidate that lexes but does not parse takes its side's tokens from
    # the lex made for its parse, so it is lexed once too
    calls.update(dict.fromkeys(calls, 0))
    sides = Sides()
    s = score_candidate(UNPARSED, METHOD, "IOException", "t1", sides=sides)
    assert s.code_bleu_degraded is True
    assert calls == {"tokenize": 2, "parse_member": 2, "parse_block": 1, "classify_parse": 0}
    assert sides.side(UNPARSED).tokens == unparsed_tokens


def test_a_text_the_lexer_rejects_is_lexed_once(monkeypatch):
    """Its side keeps the regex split made when `Sides.member` failed to lex
    it. When the member was lexed wrapped in a class, the text was lexed a
    second time for its code tokens."""
    text = "@Test public void t() { f(); } /*"
    split = exbt.metrics._split_tokens(text)
    lexed = []
    for module in (exbt.metrics, exbt.jmodel.model):
        tokenize = module.tokenize
        monkeypatch.setattr(module, "tokenize", lambda t, f=tokenize: lexed.append(t) or f(t))
    assert Sides().side(text).tokens == split
    assert lexed == [text]


def test_scoring_counts_each_texts_ngrams_once_and_each_pairs_matches_once(monkeypatch):
    """Six candidates of one reference through one `Sides`: the `// boom`
    variant shares the reference's side, so six sides are counted, and each
    other pair's 2- to 4-gram matches are clipped once for both plain and
    keyword-weighted BLEU; a side scored against itself clips none. When a
    side was built per text, this counted seven and clipped six."""
    calls = {"_ngram_counts": 0, "_clipped_logs": 0}

    def counting(name):
        fn = getattr(exbt.metrics, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(exbt.metrics, name, wrapper)

    counting("_ngram_counts")
    counting("_clipped_logs")
    candidates = [
        METHOD.replace("(5);", "(5); // boom"),
        METHOD.replace("acct", "a2"),
        METHOD.replace("100", "7"),
        METHOD.replace("    acct.withdraw(5);\n", ""),
        METHOD.replace("@Test", "@Test(expected = IOException.class)"),
        UNPARSED,
    ]
    sides = Sides()
    scores = [score_candidate(c, METHOD, "IOException", "t1", sides=sides) for c in candidates]
    assert [s.code_bleu_degraded for s in scores] == [False] * 5 + [True]
    assert calls == {"_ngram_counts": 6, "_clipped_logs": 5}


def test_score_candidate_degrades_on_a_malformed_switch():
    reference = "@Test public void w() { switch (x) { case 1: break; } }"
    s = score_candidate(reference.replace("(x)", ")"), reference, "E", "t1")
    assert s.code_bleu_degraded is True
    assert s.code_bleu == s.bleu


def test_a_completion_nesting_300_blocks_scores():
    """The statement-shape walk of CodeBLEU takes no Python frame per
    nesting level."""
    deep = "@Test public void t() { " + "if (x > 0) { " * 300 + "f(); " + "} " * 300 + "}"
    s = score_candidate(deep, deep, "E", "t1")
    assert (s.code_bleu_degraded, s.code_bleu) == (False, pytest.approx(1.0))


def test_a_completion_with_a_1200_term_chain_scores():
    """The expression-shape walk of CodeBLEU takes no Python frame per level
    of an expression: each prefix of the left-nested chain is one shape."""
    terms = 1200
    deep = "@Test public void t() { int y = " + " + ".join(["x"] * terms) + "; }"
    shapes = [sig for sig in Sides().side(deep).ast_sigs if sig.startswith("bin:")]
    assert len(shapes) == terms - 1
    assert max(shapes, key=len) == "bin:+(" * (terms - 1) + "name" + ",name)" * (terms - 1)
    s = score_candidate(deep, deep.replace("x + x;", "x;"), "E", "t1")
    assert s.code_bleu_degraded is False


def test_score_candidate_without_reference_keeps_similarity_absent():
    s = score_candidate("@Test public void t() { f(); }", None, "IOException", "t1")
    assert s.bleu is None and s.xmatch is None
    assert s.matched_e is False


def test_sides_scores_each_pair_and_classifies_each_text_once(monkeypatch):
    """One candidate scored against one reference for three targets, then
    without a reference: one CodeBLEU, one edit similarity and one
    classification, while `target` and `matched_e` follow each call. When
    every call scored afresh, this made three, three and four."""
    counted = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (exbt.metrics, "code_bleu_components"), (exbt.metrics, "edit_similarity"),
        (exbt.classifier, "classify_member"),
    )}
    candidate = METHOD.replace("@Test", "@Test(expected = IOException.class)")
    calls = [(METHOD, "IOException", "t1"), (METHOD, "java.io.IOException", "t2"),
             (METHOD, "IllegalStateException", "t3"), (None, "IOException", "t4")]
    sides = Sides()
    scores = [score_candidate(candidate, ref, e, t, sides=sides) for ref, e, t in calls]
    assert {name: len(c) for name, c in counted.items()} == {
        "code_bleu_components": 1, "edit_similarity": 1, "classify_member": 1,
    }
    assert [(s.target, s.matched_e) for s in scores] == [
        ("t1", True), ("t2", True), ("t3", False), ("t4", True),
    ]
    assert scores == [score_candidate(candidate, ref, e, t) for ref, e, t in calls]
    assert scores[3].bleu is None and scores[3].edit_sim is None


# --- shared sides ---


def _fresh_score(candidate: str, reference: str, exception: str) -> CandidateScore:
    """What `score_candidate` gives when every text is made a side by its
    own `Sides`, so no two texts share a side and every pair is computed
    in full."""
    comp = code_bleu_components(candidate, reference)
    return CandidateScore(
        "t", xmatch=xmatch(candidate, reference),
        xmatch_strict=xmatch_strict(candidate, reference), bleu=comp["ngram"],
        code_bleu=comp["code_bleu"], code_bleu_degraded=comp["degraded"],
        edit_sim=edit_similarity(candidate, reference),
        matched_e=matched_exception(candidate, exception),
    )


def _bits(score: CandidateScore) -> dict:
    return {k: v.hex() if isinstance(v, float) else v for k, v in vars(score).items()}


@cache
def _repo_methods() -> list[tuple[str, list[int], list[int]]]:
    """Each method of repoA and repoG that has a body: its source, from its
    first annotation to its closing brace; the offsets in it where one
    token ends and the gap before the next begins; and the offsets where
    an identifier ends."""
    out = []
    for repo in (REPO_A, REPO_G):
        for unit in load_repo(repo).units:
            for _, m in unit.all_methods():
                if m.tok_close is not None:
                    toks = unit.tokens[m.tok_start : m.tok_close + 1]
                    base = toks[0].offset
                    text = unit.source[base : toks[-1].end]
                    ends = [t.end - base for t in toks[:-1]]
                    idents = [t.end - base for t in toks if t.kind == "ident"]
                    out.append((text, ends, idents))
    return out


# what goes into a gap between two tokens: it adds no code token
_NOISE = st.sampled_from(["// note\n", "//\n", "/* c */", "/* a\n b */", "  ", "\n\t\n", "\n"])


def _insert(text: str, inserts: list[tuple[int, str]]) -> str:
    for at, inserted in sorted(inserts, reverse=True):
        text = text[:at] + inserted + text[at:]
    return text


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_shared_sides_score_every_field_as_a_side_per_text_does(data):
    """Two fixture methods, each with two comment and whitespace variants
    and a one-token edit, every pair scored through one `Sides`: each
    `CandidateScore` field equals, bit for bit, the one computed from a
    side per text, and the variants of a method share its side."""
    methods = _repo_methods()
    groups = []
    for _ in range(2):
        text, ends, idents = data.draw(st.sampled_from(methods))
        inserts = st.lists(st.tuples(st.sampled_from(ends), _NOISE), min_size=1, max_size=6)
        edit = _insert(text, [(data.draw(st.sampled_from(idents)), "9")])
        groups.append(([text] + [_insert(text, data.draw(inserts)) for _ in range(2)], edit))
    texts = [t for variants, edit in groups for t in variants + [edit]]
    sides = Sides()
    for cand in texts:
        for ref in texts:
            shared = score_candidate(cand, ref, "IllegalArgumentException", "t", sides=sides)
            assert _bits(shared) == _bits(_fresh_score(cand, ref, "IllegalArgumentException"))
    for variants, edit in groups:
        assert all(sides.side(t) is sides.side(variants[0]) for t in variants)
        assert sides.side(edit) is not sides.side(variants[0])


def test_a_rejected_text_shares_no_side_with_a_parsed_text_of_its_tokens():
    """An open `/*` makes the lexer reject a text whose regex split equals
    the tokens of the same text with `/ *`, which parses and has a body
    tree. A side per code-token sequence alone would give one of them the
    other's tree, or take it away."""
    parsed = "@Test public void t() { f(); } / *"
    rejected = "@Test public void t() { f(); } /*"
    pairs = [(rejected, parsed), (parsed, rejected), (rejected, rejected), (rejected, METHOD),
             (parsed, METHOD)]
    for first in (parsed, rejected):
        sides = Sides()
        sides.side(first)
        assert sides.member(rejected) is None and sides.member(parsed)[1] is not None
        assert sides.side(rejected).tokens == sides.side(parsed).tokens
        assert sides.side(rejected) is not sides.side(parsed)
        scores = [score_candidate(c, r, "E", "t", sides=sides) for c, r in pairs]
        assert [_bits(s) for s in scores] == [_bits(_fresh_score(c, r, "E")) for c, r in pairs]
        assert [s.code_bleu_degraded for s in scores] == [True, True, True, True, False]
        assert scores[0].xmatch is True


# what a completion holds before the method it is scored by: prose, or an
# earlier `@Test` that does not parse as a test method
_BEFORE = st.sampled_from([
    "", "Here is the test:\n", "Sure, {see} below.\n\n", "@Test public void t( { f(); }\n",
    "@Test (( void t() { }\n", "@Test int x = { 1 };\n",
])
_AFTER = st.sampled_from(["", "\n", "\nIt's done.\n", "\nThat covers it { twice.\n", " /* open"])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_extraction_through_shared_sides_scores_as_fresh_sides_do(data):
    """A completion built from a fixture method, fenced or bare, with prose
    around it and sometimes an earlier `@Test` that does not parse or a cut
    method: extracting through one `Sides` and scoring through it gives,
    bit for bit, the score of fresh `Sides` where extraction was given none,
    against another fixture method and against the candidate itself."""
    methods = _repo_methods()
    text = data.draw(st.sampled_from([m for m in methods if m[0].startswith("@Test")]))[0]
    before = data.draw(st.one_of(_BEFORE, st.sampled_from(methods).flatmap(
        lambda m: st.integers(0, len(m[0])).map(lambda k: m[0][:k] + "\n"))))
    body = before + text + data.draw(_AFTER)
    if data.draw(st.booleans()):
        body = f"{data.draw(_BEFORE)}```java\n{body}\n```\n{data.draw(_AFTER)}"
    reference = data.draw(st.sampled_from(methods))[0]
    exception = data.draw(st.sampled_from(["IllegalArgumentException", "IllegalStateException"]))
    sides = Sides()
    candidate = extract_candidate(body, sides)
    assert candidate == extract_candidate(body)
    if candidate is None:
        return
    for ref in (reference, candidate):
        shared = score_candidate(candidate, ref, exception, "t", sides=sides)
        assert _bits(shared) == _bits(score_candidate(candidate, ref, exception, "t"))
