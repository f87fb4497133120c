"""Micro-benchmarks of the hot kernels on the test fixtures.

    PYTHONPATH=src python -m pytest microbench --benchmark-only

Tier-1 collects only `tests/`, so these never time a Tier-1 run.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from conftest import (  # noqa: E402
    REPO_A,
    REPO_G,
    guard_trace,
    write_call_chain,
    write_guard_deep_repo,
    write_replicated_repo_a,
)
from exbt import cli  # noqa: E402
from exbt.classifier import split_test_suite  # noqa: E402
from exbt.config import load_config  # noqa: E402
from exbt.genbackend import extract_candidate  # noqa: E402
from exbt.guardexpr import collect_nodes, compute_guard_expression  # noqa: E402
from exbt.instrument import parse_trace_log  # noqa: E402
from exbt.jmodel import RepoContext, load_repo, parse_unit  # noqa: E402
from exbt.jmodel.exprs import (  # noqa: E402
    children,
    free_names,
    parse_expr,
    parse_expr_tokens,
    substitute,
)
from exbt.jmodel.lexer import tokenize  # noqa: E402
from exbt.jmodel.stmts import BodyParser  # noqa: E402
from exbt.manifest import Manifest  # noqa: E402
from exbt.metrics import (  # noqa: E402
    Sides,
    code_bleu_components,
    edit_similarity,
    score_candidate,
)
from exbt.prompting import SweepIndex  # noqa: E402
from exbt.stacktrace import resolve_trace  # noqa: E402

GUARDS = REPO_G / "src/main/java/gx/Guards.java"


@pytest.fixture(scope="module")
def guards_source():
    return GUARDS.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def test_pair():
    """Two of repoA's test methods: a candidate and a reference."""
    ebts, nonebts = split_test_suite(load_repo(REPO_A))
    return ebts[0].body_text, nonebts[0].body_text


def test_tokenize(benchmark, guards_source):
    assert benchmark(tokenize, guards_source)


@pytest.fixture(scope="module")
def sweep_sources(tmp_path_factory):
    """Every `.java` file of a K=4 sweep repository: repoA in four packages."""
    repo = tmp_path_factory.mktemp("sweep-k4")
    write_replicated_repo_a(repo, 4)
    return [p.read_text(encoding="utf-8") for p in sorted(repo.rglob("*.java"))]


def test_tokenize_sweep_files(benchmark, sweep_sources):
    assert len(benchmark(lambda: [tokenize(s) for s in sweep_sources])) == 28


COMMENTED_COMPLETION = """Here is the test:

```java
@Test(expected = IllegalArgumentException.class)
public void testWithdrawNegative() {
    // it's negative, so withdraw throws }
    Account account = new Account(100); /* { */
    account.withdraw(-1);
}
```

That's it: it's the negative-amount case.
"""


def test_extract_candidate(benchmark):
    """Lex the fenced method, match its braces and parse it from the same
    tokens; a fresh `Sides` each round, as every sweep target has."""
    method = benchmark(lambda: extract_candidate(COMMENTED_COMPLETION, Sides()))
    assert method.endswith("account.withdraw(-1);\n}")


def test_parse_unit(benchmark, guards_source):
    assert benchmark(parse_unit, guards_source, "Guards.java").types


def _generic_source(members: int = 40, params: int = 8) -> str:
    """A class whose methods take long lists of nested generic parameters
    under nested bounds, and whose fields have nested generic types. No
    type closes with `>>>`, which older parsers could not read."""
    lines = ["class Generic<K extends Comparable<K>, V> {"]
    for i in range(members):
        ps = ", ".join(f"Function<Map<K, V>, Map<String, V>> p{j}" for j in range(params))
        lines.append(f"  <T extends Map<K, List<V>>, U> T m{i}({ps}) {{ return null; }}")
        lines.append(f"  Map<String, Map<K, V>> f{i} = new HashMap<>(), g{i};")
    return "\n".join(lines + ["}"])


def test_parse_unit_generics(benchmark):
    unit = benchmark(parse_unit, _generic_source(), "Generic.java")
    (decl,) = unit.types
    assert len(decl.methods) == 40 and {m.arity for m in decl.methods} == {8}
    assert len(decl.field_names) == 80


def test_parse_block(benchmark, guards_source):
    unit = parse_unit(guards_source, "Guards.java")
    opens = [m.tok_open for _, m in unit.all_methods() if m.tok_open is not None]

    def parse_every_body():
        parser = BodyParser(unit.tokens)
        return [parser.parse_block(k) for k in opens]

    assert len(benchmark(parse_every_body)) == len(opens)


def test_calls_scan(benchmark):
    """Scan every caller's call sites, on a fresh context each round."""
    fresh = lambda: ((load_repo(REPO_G),), {})
    assert benchmark.pedantic(RepoContext.calls.func, setup=fresh, rounds=50)


def test_invert_callees_over_non_ebts(benchmark, tmp_path):
    """Resolve the calls of repoA x 16's non-EBTs and invert them, as the
    first ranking of a sweep does, on a fresh context each round."""
    write_replicated_repo_a(tmp_path, 16)

    def fresh():
        ctx = load_repo(tmp_path)
        return (SweepIndex(ctx, split_test_suite(ctx)[1]),), {}

    assert benchmark.pedantic(lambda index: index.callers, setup=fresh, rounds=30)


def test_load_repo_and_tree_digest(benchmark, tmp_path):
    """Load repoA x 16 and digest its tree from the bytes the load read."""
    write_replicated_repo_a(tmp_path, 16)
    assert benchmark(lambda: load_repo(tmp_path).tree_digest())


def _guard_traces(ctx):
    oracle = json.loads((REPO_G / "guards-oracle.json").read_text())
    return [guard_trace(ctx, entry) for entry in oracle.values()]


def _size(e) -> int:
    return 1 + sum(_size(c) for c in children(e))


@pytest.fixture(scope="module")
def largest_conditions():
    """The ten largest condition trees of repoG's guards."""
    ctx = load_repo(REPO_G)
    trees = [
        parse_expr(text) for trace, site in _guard_traces(ctx)
        for text in compute_guard_expression(trace, ctx, site).conditions
    ]
    return sorted(trees, key=_size, reverse=True)[:10]


def test_free_names(benchmark, largest_conditions):
    assert all(benchmark(lambda: [free_names(e) for e in largest_conditions]))


def test_substitute(benchmark, largest_conditions):
    """Every free name replaced by a compound, so each tree is rebuilt whole."""
    mapping = {n: parse_expr(f"{n} + 1") for e in largest_conditions for n in free_names(e)}
    out = benchmark(lambda: [substitute(e, mapping) for e in largest_conditions])
    assert [_size(e) for e in out] != [_size(e) for e in largest_conditions]


def test_guard(benchmark):
    ctx = load_repo(REPO_G)
    traces = _guard_traces(ctx)

    def every_guard():
        ctx.guard_cache.clear()  # time the computation, not the memo
        return [compute_guard_expression(trace, ctx, site) for trace, site in traces]

    assert len(benchmark(every_guard)) == len(traces)


def test_parse_trace_log(benchmark, tmp_path):
    """The two trace logs of a guard-deep repository (16 chains of depth
    16, seed 1): one block per chain each, every frame line read once."""
    write_guard_deep_repo(tmp_path, 16, 16, 1)
    texts = [(tmp_path / "logs" / name).read_text()
             for name in ("nonebt-traces.log", "ebt-traces.log")]
    logs = benchmark(lambda: [parse_trace_log(text) for text in texts])
    assert [(len(log), log.skipped_blocks) for log in logs] == [(16, 0), (16, 0)]


def test_guard_deep_chain(benchmark, tmp_path):
    """One guard on a call chain of depth 64, the shape guard-deep stresses."""
    trace = write_call_chain(tmp_path, 64)
    ctx = load_repo(tmp_path)
    trace = resolve_trace(trace, ctx)

    def one_guard():
        ctx.guard_cache.clear()  # time the computation, not the memo
        return compute_guard_expression(trace, ctx)

    assert len(benchmark(one_guard).conditions) == 64


def test_collect_nodes_deep_chain(benchmark, tmp_path):
    """The collection pass of one guard on a call chain of depth 64: the
    nodes of 64 frames, each condition, assignment and argument parsed."""
    trace = write_call_chain(tmp_path, 64)
    ctx = load_repo(tmp_path)
    trace = resolve_trace(trace, ctx)
    assert len(benchmark(collect_nodes, trace, ctx)) == 64 * 5 - 3


def test_parse_guard_ranges(benchmark, tmp_path):
    """Every condition and assignment range of a depth-16 call chain, each
    parsed from its token slice."""
    write_call_chain(tmp_path, 16)
    unit = parse_unit((tmp_path / "src/main/java/Chain.java").read_text(), "Chain.java")
    parser = BodyParser(unit.tokens)
    ranges = [
        r
        for _, m in unit.all_methods()
        for s in parser.parse_block(m.tok_open).iter_tree()
        for r in ([s.cond_range] if s.cond_range else []) + [a[1] for a in s.assignments]
    ]
    tokens, source = unit.tokens, unit.source

    def parse_all():
        return [parse_expr_tokens(tokens[lo:hi], source) for lo, hi in ranges]

    assert len(benchmark(parse_all)) == 2 * 16 - 1


def test_edit_similarity(benchmark, test_pair):
    assert 0.0 < benchmark(edit_similarity, *test_pair) < 1.0


def test_code_bleu_components(benchmark, test_pair):
    assert benchmark(code_bleu_components, *test_pair)


def test_score_candidate(benchmark, test_pair):
    """One candidate against its reference, both lexed and parsed afresh."""
    score = benchmark(score_candidate, *test_pair, "IllegalArgumentException", "t")
    assert score.code_bleu is not None


def _seeded_edits(reference: str, count: int, seed: int = 7) -> list[str]:
    """count edits of reference: each replaces, drops or doubles one line."""
    rng = random.Random(seed)
    lines = reference.splitlines()
    out = []
    for _ in range(count):
        edited = list(lines)
        k = rng.randrange(1, len(edited) - 1)
        edit = rng.choice(("replace", "drop", "double"))
        if edit == "replace":
            edited[k] = edited[k].replace("(", f"(v{rng.randrange(100)} + ", 1)
        elif edit == "drop":
            del edited[k]
        else:
            edited.insert(k, edited[k])
        out.append("\n".join(edited))
    return out


def test_score_many_against_one_reference(benchmark, test_pair):
    """What eval does per target: a dozen candidates against one reference
    through one `Sides`, so the reference is lexed, parsed and counted once."""
    reference = test_pair[1]
    candidates = _seeded_edits(reference, 12)

    def score_all():
        sides = Sides()
        return [
            score_candidate(c, reference, "IllegalArgumentException", "t", sides=sides)
            for c in candidates
        ]

    assert all(s.code_bleu is not None for s in benchmark(score_all))


@pytest.fixture(scope="module")
def eval_rows():
    """eval-long's shape on repoA's gold EBTs: each scored against itself,
    against a variant that adds only comments and whitespace, and against
    a one-token edit that renames the method."""
    ebts, _ = split_test_suite(load_repo(REPO_A))
    rows = []
    for t in ebts:
        ref = t.body_text
        noise = "/* generated */\n" + ref.replace("{", "{ // note\n\n", 1)
        for cand in (ref, noise, ref.replace("() {", "2() {", 1)):
            rows.append((cand, ref, t.expected_exception))
    return rows


def test_eval_scoring(benchmark, eval_rows):
    """What eval does with those rows: every candidate scored through one
    `Sides`, fresh each round."""

    def score_all():
        sides = Sides()
        return [score_candidate(c, r, e, "t", sides=sides) for c, r, e in eval_rows]

    scores = benchmark(score_all)
    assert [s.xmatch for s in scores] == [True, True, False] * (len(scores) // 3)
    assert [s.code_bleu for s in scores[:2]] == [1.0, 1.0]


def test_generate_score_stage(benchmark, tmp_path):
    """The sweep's generation, extraction and scoring over a K=4 sweep
    repository's bundles: the stub answers 12 targets with 3 completions,
    and 8 of them are scored against 2 distinct references."""
    write_replicated_repo_a(tmp_path, 4)
    args = cli.build_parser().parse_args(
        ["sweep", str(tmp_path), "--seed", "1", "--backend", "stub", "--runner", "recorded"])
    cfg, ctx = load_config(None), load_repo(tmp_path)
    manifest = Manifest("sweep", seed=1, backend_kind="stub")
    ebts, nonebts = cli._classify_stage(ctx, manifest)
    index = SweepIndex(ctx, nonebts)
    corpus, _ = cli._corpus_stage(args, ebts, index, manifest)
    targets = cli._prompts_stage(args, cli._pool_stage(args, index, manifest), index)

    def stage():
        outcomes = [cli.TargetOutcome(o.site, o.prompt) for o in targets]
        cli._generate_score_stage(args, cfg, ctx, outcomes, corpus,
                                  Manifest("sweep", seed=1, backend_kind="stub"))
        return outcomes

    outcomes = benchmark(stage)
    assert [o.status for o in outcomes].count("generated") == 12
