from __future__ import annotations

import inspect
import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import REPO_A, write_two_throw_repo
from exbt.classifier import TestMethod as Method, split_test_suite
from exbt.guardexpr import compute_guard_expression
from exbt.instrument import TraceLog, parse_trace_log
from exbt.jmodel import MethodId, find_throw_sites, load_repo
from exbt.prompting import (
    NONEBT_TOKEN_BUDGET,
    NoMatch,
    PromptBundle,
    SweepIndex,
    assemble_prompt,
    build_dest_skeleton,
    collect_stacktrace_set,
    directly_invokes,
    rank_relevant_nonebts,
    render_instruction,
    select_dest_with_reason,
    sweep_targets,
    test_method_label as label_of,
)
from exbt.stacktrace import StackTrace


@pytest.fixture(scope="module")
def trace_log():
    return parse_trace_log((REPO_A / "logs/nonebt-traces.log").read_text())


@pytest.fixture(scope="module")
def pool(repo_a_index, trace_log):
    return collect_stacktrace_set(repo_a_index, trace_log)


def _site(ctx, name):
    return next(s for s in find_throw_sites(ctx, "main") if s.method.name == name)


# --- pool building ---


def test_pool_one_entry_per_trace_and_site(pool):
    labels = sorted((e.throw_site.method.name, e.source_test.name) for e in pool)
    assert labels == [
        ("deposit", "testDepositOk"),
        ("deposit", "testWithdrawOk"),
        ("post", "testPostOk"),
        ("withdraw", "testWithdrawOk"),
    ]


def test_pool_two_tests_same_site_distinct_entries(pool):
    deposit_entries = [e for e in pool if e.throw_site.method.name == "deposit"]
    assert len(deposit_entries) == 2
    assert len({e.source_test for e in deposit_entries}) == 2


def test_pool_entries_exclude_test_frames(pool):
    for e in pool:
        for f in e.trace.frames:
            assert "Test" not in f.class_fqn


def test_pool_site_reachable_from_last_frame(repo_a, pool):
    for e in pool:
        last = e.trace.frames[-1]
        u, _, decl = repo_a.resolve_method_id(last.mid)
        assert u.tokens[decl.tok_start].line <= e.throw_site.line <= u.tokens[decl.tok_last].line


@pytest.fixture(scope="module")
def own_repo_a():
    """repoA in a context of its own, so generated guards fill no shared cache."""
    ctx = load_repo(REPO_A)
    return SweepIndex(ctx, split_test_suite(ctx)[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_trace_the_pool_keeps_never_fails_in_the_guard_walk(own_repo_a, trace_log, data):
    """With every frame line of repoA's non-EBT log redrawn, each pool entry
    gives a guard, for its own trace and retargeted at its throw as a
    sweep asks: the pool and the guard walk resolve frames by one rule."""
    ctx = own_repo_a.ctx
    lines = st.integers(min_value=1, max_value=60)
    redrawn = TraceLog([
        (StackTrace(tuple(replace(f, line=data.draw(lines)) for f in trace.frames)), test)
        for trace, test in trace_log
    ])
    for entry in collect_stacktrace_set(own_repo_a, redrawn):
        site = entry.throw_site
        compute_guard_expression(entry.trace, ctx, site)
        compute_guard_expression(entry.trace.with_last_line(site.line), ctx, site)


def test_empty_pool_when_no_nonebts_reach_throws(repo_a, trace_log):
    assert collect_stacktrace_set(SweepIndex(repo_a, []), trace_log) == []


def test_a_trace_only_through_test_classes_is_skipped_silently(repo_a_index, caplog):
    """A non-EBT trace whose frames all lie in test classes leaves no frame
    after exclusion: it gives no entry and no warning."""
    log = parse_trace_log("test: com.fix.AccountTest#testWithdrawOk\n"
                          "at com.fix.AccountTest.testWithdrawOk(AccountTest.java:16)\n---\n")
    assert len(log) == 1
    assert collect_stacktrace_set(repo_a_index, log) == []
    assert caplog.records == []


def test_a_block_logged_twice_gives_one_entry(repo_a_index, pool):
    text = (REPO_A / "logs/nonebt-traces.log").read_text()
    twice = parse_trace_log(text + text)
    assert len(twice) == 8
    assert collect_stacktrace_set(repo_a_index, twice) == pool


# --- prompt assembly ---


def test_assemble_deterministic_for_seed(repo_a, repo_a_index, pool):
    site = _site(repo_a, "deposit")
    picks = {
        assemble_prompt(site.method, site, "src/test/java/com/fix/AccountTest.java",
                        pool, repo_a_index, seed=42).rendered_instruction
        for _ in range(5)
    }
    assert len(picks) == 1


def test_assemble_no_match_when_mut_absent(repo_a, repo_a_index, pool):
    site = _site(repo_a, "close")
    out = assemble_prompt(site.method, site, "src/test/java/com/fix/AccountTest.java",
                          pool, repo_a_index, seed=42)
    assert isinstance(out, NoMatch)
    assert out.reason == "no-matching-trace"


def test_assemble_retargets_trace_to_throw_line(repo_a, repo_a_index, pool):
    site = _site(repo_a, "withdraw")
    bundle = assemble_prompt(site.method, site, "src/test/java/com/fix/AccountTest.java",
                             pool, repo_a_index, seed=42)
    assert bundle.trace.frames[-1].line == site.line
    assert bundle.guard.rendered == "amount < 0"


def test_assemble_includes_invoking_test_in_nonebts(repo_a, repo_a_index, pool):
    site = _site(repo_a, "withdraw")
    bundle = assemble_prompt(site.method, site, "src/test/java/com/fix/AccountTest.java",
                             pool, repo_a_index, seed=42)
    assert any("testWithdrawOk" in s for s in bundle.nonebts)


def test_same_named_test_elsewhere_is_not_same_mut(tmp_path):
    """A test named like the MUT, with its arity, does not call it."""
    from exbt.classifier import split_test_suite
    from exbt.corpus import CorpusExample, link_relevant_nonebts
    from exbt.jmodel import load_repo

    files = {
        "src/main/java/p/Gate.java": (
            "package p;\npublic class Gate {\n"
            "    public void check() {\n"
            "        throw new IllegalStateException();\n    }\n}\n"
        ),
        "src/test/java/p/GateTest.java": (
            "package p;\nimport org.junit.Test;\npublic class GateTest {\n"
            "    @Test\n    public void testOpen() {\n        new Gate();\n    }\n}\n"
        ),
        "src/test/java/p/OtherTest.java": (
            "package p;\nimport org.junit.Test;\npublic class OtherTest {\n"
            "    @Test\n    public void check() {\n        int x = 1;\n    }\n}\n"
        ),
    }
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    ctx = load_repo(tmp_path)
    index = SweepIndex(ctx, split_test_suite(ctx)[1])
    site = _site(ctx, "check")
    log = parse_trace_log(
        "test: p.GateTest#testOpen\n"
        "at p.Gate.check(Gate.java:4)\n"
        "at p.GateTest.testOpen(GateTest.java:6)\n"
    )
    pool = collect_stacktrace_set(index, log)
    dest = "src/test/java/p/GateTest.java"
    bundle = assemble_prompt(site.method, site, dest, pool, index, seed=42)
    assert len(bundle.nonebts) == 1 and "testOpen" in bundle.nonebts[0]
    linked = link_relevant_nonebts(CorpusExample("x", bundle, ""), index)
    assert linked.prompt.nonebts == bundle.nonebts


# --- one ranking rule for the sweep and the corpus ---
# The rules below are the sweep's (inline in assemble_prompt, given the
# pool's tests) and the corpus's (link_relevant_nonebts) from before both
# went through rank_relevant_nonebts, copied with the token count inlined.
# The sweep's copy matches the pool's tests by MethodId: matching them by
# `fqn#name` label kept only the last of two tests sharing a label.


def _old_rank(same_mut, same_file, budget):
    order = lambda t: (t.id.decl_file, t.id.decl_line)
    ranked = sorted(same_mut, key=order)
    seen = {label_of(t.id) for t in ranked}
    for t in sorted(same_file, key=order):
        if label_of(t.id) not in seen:
            ranked.append(t)
            seen.add(label_of(t.id))
    selected = []
    used = 0
    for t in ranked:
        cost = len(t.body_text.split())
        if selected and used + cost > budget:
            break
        if not selected and cost > budget:
            break
        selected.append(t)
        used += cost
    return selected


def _old_sweep_rule(mut, dest, nonebts, ctx, same_mut_tests, budget):
    same_mut = [t for t in nonebts if t.id in same_mut_tests or directly_invokes(t, mut, ctx)]
    same_file = [t for t in nonebts if t.id.decl_file == dest]
    return _old_rank(same_mut, same_file, budget)


def _old_corpus_rule(mut, dest, nonebts, ctx, budget):
    same_mut = [t for t in nonebts if directly_invokes(t, mut, ctx)]
    same_file = [t for t in nonebts if t.id.decl_file == dest]
    return _old_rank(same_mut, same_file, budget)


_GEN_FILE = "src/test/java/com/fix/GenTest.java"


@st.composite
def _ranking_inputs(draw, ctx, real):
    """Non-EBTs (a subset of repoA's plus generated tests that share a label
    or a whole id with another test), a MUT, a destination, the pool's test
    ids and a budget that is tight, the default or just below the first
    test's cost."""
    tests = [real[k] for k in sorted(draw(st.sets(st.integers(0, len(real) - 1))))]
    for _ in range(draw(st.integers(0, 6))):
        like = draw(st.sampled_from(real))
        shape = draw(st.sampled_from(["same-id", "overload", "new-label"]))
        if shape == "same-id":
            mid = like.id
        elif shape == "overload":  # same fqn#name, another declaration
            line = draw(st.sampled_from(sorted({t.id.decl_line for t in real})))
            mid = replace(like.id, param_arity=draw(st.integers(0, 2)), decl_line=line)
        else:  # a new label, declared where another test is, so that positions tie
            where = (like.id.decl_file, like.id.decl_line)
            if draw(st.booleans()):
                where = (_GEN_FILE, draw(st.integers(1, 2)))
            mid = MethodId(like.id.fqn, draw(st.sampled_from(["testA", "testZ"])), 0, *where)
        body = " ".join(["tok"] * draw(st.integers(1, 40)))
        tests.append(Method(mid, body, None, None))
    nonebts = draw(st.permutations(tests))
    mut = draw(st.sampled_from([s.method for s in ctx.throw_sites]))
    dest = draw(st.sampled_from(sorted({t.id.decl_file for t in real}) + [_GEN_FILE]))
    nowhere = MethodId("com.fix.Nowhere", "t", 0, _GEN_FILE, 3)
    position = lambda m: (m.decl_file, m.decl_line, m.label())
    ids = sorted({t.id for t in tests} | {nowhere}, key=position)
    pool_ids = draw(st.sets(st.sampled_from(ids)))
    budget = draw(st.one_of(st.integers(0, 80), st.just(NONEBT_TOKEN_BUDGET)))
    first = _old_sweep_rule(mut, dest, nonebts, ctx, pool_ids, 10**9)[:1]
    if first and draw(st.booleans()):
        budget = len(first[0].body_text.split()) - 1
    return nonebts, mut, dest, pool_ids, budget


def _ids(tests):
    return [id(t) for t in tests]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_one_ranking_rule_equals_both_old_copies(repo_a, repo_a_suite, data):
    _, real = repo_a_suite
    nonebts, mut, dest, pool_ids, budget = data.draw(_ranking_inputs(repo_a, real))
    index = SweepIndex(repo_a, nonebts)
    sweep = rank_relevant_nonebts(mut, dest, index, pool_ids, budget)
    assert _ids(sweep) == _ids(_old_sweep_rule(mut, dest, nonebts, repo_a, pool_ids, budget))
    corpus = rank_relevant_nonebts(mut, dest, index, budget=budget)
    assert _ids(corpus) == _ids(_old_corpus_rule(mut, dest, nonebts, repo_a, budget))


def test_two_tests_sharing_a_label_rank_alike_in_the_sweep_and_the_corpus(tmp_path):
    """repoA with a second `AccountTest#testWithdrawOk` that also calls the
    MUT: the trace log names the label once, and both rules rank both."""
    from exbt.classifier import split_test_suite
    from exbt.corpus import CorpusExample, link_relevant_nonebts
    from exbt.jmodel import load_repo

    shutil.copytree(REPO_A, tmp_path / "repo")
    test_file = tmp_path / "repo/src/test/java/com/fix/AccountTest.java"
    source = test_file.read_text()
    overload = (
        "    @Test\n    public void testWithdrawOk(int amount) {\n"
        "        Account acct = open();\n        acct.withdraw(amount);\n    }\n\n"
    )
    anchor = "    @Test\n    public void testDepositOk()"
    test_file.write_text(source.replace(anchor, overload + anchor))
    ctx = load_repo(tmp_path / "repo")
    _, nonebts = split_test_suite(ctx)
    same_label = [t for t in nonebts if t.id.name == "testWithdrawOk"]
    assert len(same_label) == 2 and len({label_of(t.id) for t in same_label}) == 1
    log = parse_trace_log((REPO_A / "logs/nonebt-traces.log").read_text())
    index = SweepIndex(ctx, nonebts)
    pool = collect_stacktrace_set(index, log)
    site = _site(ctx, "withdraw")
    dest = "src/test/java/com/fix/AccountTest.java"
    bundle = assemble_prompt(site.method, site, dest, pool, index, seed=42)
    linked = link_relevant_nonebts(CorpusExample("x", bundle, ""), index)
    assert bundle.nonebts == linked.prompt.nonebts
    assert sum("testWithdrawOk" in s for s in bundle.nonebts) == 2


# --- destination selection ---


def test_dest_suffix_naming(repo_a):
    mut = _site(repo_a, "withdraw").method
    assert select_dest_with_reason(mut, repo_a) == "src/test/java/com/fix/AccountTest.java"


def test_dest_prefix_naming(repo_a):
    mut = _site(repo_a, "post").method
    assert select_dest_with_reason(mut, repo_a) == "src/test/java/com/fix/TestLedger.java"


def test_dest_none_without_match_or_index(repo_a):
    mut = _site(repo_a, "boom").method
    assert select_dest_with_reason(mut, repo_a) is None


# --- instruction rendering ---


def _bundle(index, pool, name="withdraw", **kw):
    site = _site(index.ctx, name)
    return assemble_prompt(site.method, site, "src/test/java/com/fix/AccountTest.java",
                           pool, index, seed=42, **kw)


def test_render_section_order(repo_a_index, pool):
    text = _bundle(repo_a_index, pool).rendered_instruction
    anchors = [
        "### Task",
        "### Method under test",
        "### Target throw statement",
        "### Stack trace",
        "### Guard expression",
        "### Relevant tests",
        "### Destination test file",
    ]
    positions = [text.index(a) for a in anchors]
    assert positions == sorted(positions)
    for a in anchors:
        assert text.count(a) == 1


def test_render_empty_sections_omitted_with_headers(repo_a):
    from exbt.guardexpr import GuardExpression
    from exbt.stacktrace import Frame, StackTrace

    site = _site(repo_a, "withdraw")
    bundle = PromptBundle(
        mut=site.method,
        mut_source="void withdraw(int amount) { }",
        throw_site=site,
        dest_path="X.java",
        dest_skeleton="",
        trace=StackTrace((Frame("com.fix.Account", "withdraw", "Account.java", 14),)),
        guard=GuardExpression((), ()),
        nonebts=(),
        test_name=None,
    )
    text = render_instruction(bundle)
    assert "### Relevant tests" not in text
    assert "### Guard expression" not in text
    assert "### Destination test file" not in text


def test_with_name_vs_no_name_differ_only_in_name_section(repo_a_index, pool):
    no_name = _bundle(repo_a_index, pool)
    with_name = replace(no_name, test_name="testWithdrawRejects")
    a = no_name.rendered_instruction
    b = with_name.rendered_instruction
    assert b.startswith(a.rstrip("\n"))
    extra = b[len(a.rstrip("\n")):]
    assert extra.strip() == "### Test name\ntestWithdrawRejects"


def test_the_variant_follows_from_the_test_name(repo_a_index, pool):
    no_name = _bundle(repo_a_index, pool)
    assert no_name.variant == "no-name"
    assert replace(no_name, test_name="testWithdrawRejects").variant == "with-name"


def test_a_bundle_and_a_guard_store_no_value_another_field_decides():
    from dataclasses import fields

    from exbt.guardexpr import GuardExpression

    assert {"variant", "template_id"}.isdisjoint(f.name for f in fields(PromptBundle))
    assert "rendered" not in {f.name for f in fields(GuardExpression)}
    assert [f.name for f in fields(PromptBundle) if not f.init] == ["rendered_instruction"]
    assert "rendered_instruction" not in inspect.signature(PromptBundle).parameters
    assert "kind" not in {f.name for f in fields(Method)}


def test_a_bundle_made_by_replace_renders_its_own_instruction(repo_a_index, pool):
    renamed = replace(_bundle(repo_a_index, pool), test_name="t")
    assert renamed.rendered_instruction == render_instruction(renamed)
    assert renamed.rendered_instruction.endswith("### Test name\nt\n")


def test_no_record_keeps_the_fields_that_nothing_read():
    """`unread_fields` in test_reachability matches fields by name, and
    other records have read fields named `line`, `kind` and `path`."""
    from dataclasses import fields

    from exbt.guardexpr import CollectedNode
    from exbt.instrument import Rewrite
    from exbt.jmodel.model import TypeDecl

    assert "line" not in CollectedNode._fields
    assert "kind" not in {f.name for f in fields(TypeDecl)}
    assert "path" not in {f.name for f in fields(Rewrite)}


def test_skeleton_used_in_dest_section(repo_a, repo_a_index, pool):
    text = _bundle(repo_a_index, pool).rendered_instruction
    assert "class AccountTest" in text
    assert "testWithdrawOk" in text  # as a relevant test ...
    skeleton = build_dest_skeleton(repo_a, "src/test/java/com/fix/AccountTest.java")
    assert "testWithdrawOk" not in skeleton  # ... but not in the skeleton


def test_skeleton_drops_a_test_whose_annotation_holds_a_comment(tmp_path):
    path = "src/test/java/p/FooTest.java"
    (tmp_path / path).parent.mkdir(parents=True)
    (tmp_path / path).write_text(
        "package p;\n"
        "class FooTest {\n"
        "    @Test /* why */ (expected = IllegalStateException.class)\n"
        "    public void commented() { f(); }\n"
        "    @org.junit. // which\n"
        "    Test public void qualified() { f(); }\n"
        "    private void helper() { }\n"
        "}\n"
    )
    skeleton = build_dest_skeleton(load_repo(tmp_path), path)
    assert "helper" in skeleton
    assert "commented" not in skeleton and "qualified" not in skeleton


@pytest.mark.parametrize("source, want", [
    ("class ATest {\n    void helper() {}\n    @Test public void t() { f(); } }\n",
     "class ATest {\n    void helper() {}\n }\n"),
    ("public class ATest { @Test public void t() { f(); } }\n", "public class ATest {  }\n"),
])
def test_skeleton_keeps_the_class_braces_on_a_test_method_line(tmp_path, source, want):
    """The skeleton cuts a test method's tokens, not its lines, so a class
    brace that shares a line with the method stays."""
    path = "src/test/java/p/ATest.java"
    (tmp_path / path).parent.mkdir(parents=True)
    (tmp_path / path).write_text(source)
    assert build_dest_skeleton(load_repo(tmp_path), path) == want


# --- machine-oriented sweep ---


def test_sweep_partitions_targets(repo_a, repo_a_index, pool):
    results = sweep_targets(pool, repo_a_index, seed=42)
    sites = find_throw_sites(repo_a, "main")
    assert [s.label() for s, _ in results] == [s.label() for s in sites]
    reasons = {}
    bundles = 0
    for _, outcome in results:
        if isinstance(outcome, NoMatch):
            reasons.setdefault(outcome.reason, 0)
            reasons[outcome.reason] += 1
        else:
            bundles += 1
    assert bundles == 3
    assert reasons == {"no-dest-file": 1, "no-matching-trace": 2}
    assert set(reasons) <= {"no-dest-file", "no-matching-trace"}


def test_golden_instruction_for_fixture_bundle(repo_a_index, pool):
    golden = (REPO_A / "golden-instruction.txt").read_text()
    text = _bundle(repo_a_index, pool).rendered_instruction
    assert text == golden
