"""Training-corpus assembly: one example per traced exceptional test.

Every exceptional test with a resolvable trace becomes a (prompt, gold
test) pair: the destination file is the test's own file (with all test
methods stripped from the skeleton), the trace names the method under test
and the target throw, the guard is computed from the trace and relevant
non-exceptional tests are attached. Tests without usable traces are
skipped with a recorded reason.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from exbt.classifier import TestMethod
from exbt.errors import ExbtError
from exbt.guardexpr import compute_guard_expression
from exbt.manifest import json_line
from exbt.prompting import (
    NONEBT_TOKEN_BUDGET,
    PromptBundle,
    SweepIndex,
    make_bundle,
    test_method_label,
)
from exbt.stacktrace import StackTrace, TraceLog, endpoints, resolve_trace


@dataclass(frozen=True)
class CorpusExample:
    example_id: str  # `<repository>:<fqn>#<test>`, or the label alone
    prompt: PromptBundle
    gold_ebt: str  # verbatim source of the developer-written test


@dataclass(frozen=True)
class SkippedExample:
    test: str
    reason: str


def link_relevant_nonebts(
    example: CorpusExample,
    index: SweepIndex,
    budget: int = NONEBT_TOKEN_BUDGET,
) -> CorpusExample:
    """The example with its non-EBTs ranked afresh by the prompt builder."""
    p = example.prompt
    bundle = make_bundle(
        p.mut, p.throw_site, p.dest_path, p.trace, p.guard, index,
        test_name=p.test_name, seed=p.seed, budget=budget,
    )
    return replace(example, prompt=bundle)


def collect_training_corpus(
    ebts: list[TestMethod],
    index: SweepIndex,
    trace_log: TraceLog,
    repo_name: str = "",
) -> tuple[list[CorpusExample], list[SkippedExample]]:
    """One example per exceptional test whose trace resolves end to end;
    each prompt is the with-name variant, named after its gold test."""
    ctx = index.ctx
    traces_by_test: dict[str, StackTrace] = {}
    for trace, test_id in trace_log:
        traces_by_test.setdefault(test_id, trace)  # first trace per test wins
    examples: list[CorpusExample] = []
    skipped: list[SkippedExample] = []
    for ebt in sorted(ebts, key=lambda t: (t.id.decl_file, t.id.decl_line)):
        label = test_method_label(ebt.id)
        raw = traces_by_test.get(label)
        if raw is None:
            skipped.append(SkippedExample(label, "no-trace"))
            continue
        try:
            trace = resolve_trace(raw, ctx)
            mut, site = endpoints(trace, ctx, ebt.expected_exception)
            guard = compute_guard_expression(trace, ctx, site)
        except ExbtError as exc:
            skipped.append(SkippedExample(label, type(exc).__name__))
            continue
        bundle = make_bundle(
            mut, site, ebt.id.decl_file, trace, guard, index, test_name=ebt.id.name)
        example = CorpusExample(
            example_id=f"{repo_name}:{label}" if repo_name else label,
            prompt=bundle,
            gold_ebt=ebt.body_text,
        )
        if example.gold_ebt.strip() and example.gold_ebt in example.prompt.rendered_instruction:
            # leakage guard: the skeleton already strips test methods, so
            # hitting this means the fixture layout is broken
            skipped.append(SkippedExample(label, "gold-leaked-into-prompt"))
            continue
        examples.append(example)
    return examples, skipped


# --- JSONL serialization ---


def example_to_record(e: CorpusExample) -> dict:
    """The corpus.jsonl row of one example: its id and target, its prompt's
    record, then what only an example carries: the gold test, the method
    source and the destination skeleton."""
    p = e.prompt
    return {"id": e.example_id, "target": p.throw_site.label(), **p.to_record(),
            "gold_ebt": e.gold_ebt, "mut_source": p.mut_source,
            "dest_skeleton": p.dest_skeleton}


def write_corpus(examples: list[CorpusExample], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for e in examples:
            f.write(json_line(example_to_record(e)))

