from __future__ import annotations

import json

import pytest

from conftest import REPO_A
from exbt.corpus import (
    collect_training_corpus,
    example_to_record,
    link_relevant_nonebts,
    write_corpus,
)
from exbt.instrument import parse_trace_log


@pytest.fixture(scope="module")
def corpus(repo_a_index, repo_a_suite):
    log = parse_trace_log((REPO_A / "logs/ebt-traces.log").read_text())
    return collect_training_corpus(repo_a_suite[0], repo_a_index, log, repo_name="repoA")


def test_one_example_per_traced_ebt(corpus):
    examples, skipped = corpus
    assert len(examples) == 3
    golds = {e.prompt.mut.name for e in examples}
    assert golds == {"withdraw", "deposit", "spin"}


def test_trace_empty_after_exclusion_skipped(corpus):
    _, skipped = corpus
    assert [(s.test.split("#")[1], s.reason) for s in skipped] == [
        ("testLocalFailure", "EmptyAfterExclusion")
    ]


def test_example_without_relevant_nonebts_has_empty_slot(corpus):
    examples, _ = corpus
    spin = next(e for e in examples if e.prompt.mut.name == "spin")
    assert spin.prompt.nonebts == ()
    assert "### Relevant tests" not in spin.prompt.rendered_instruction


def test_dest_is_the_ebt_file_and_skeleton_strips_tests(corpus):
    examples, _ = corpus
    withdraw = next(e for e in examples if e.prompt.mut.name == "withdraw")
    assert withdraw.prompt.dest_path == "src/test/java/com/fix/AccountTest.java"
    skeleton = withdraw.prompt.dest_skeleton
    assert "class AccountTest" in skeleton
    assert "private Account open()" in skeleton  # helper kept
    for test_name in ("testWithdrawOk", "testDepositOk", "testWithdrawNegative"):
        assert test_name not in skeleton


def test_gold_never_leaks_into_prompt(corpus):
    examples, _ = corpus
    for e in examples:
        assert e.gold_ebt.strip()
        assert e.gold_ebt not in e.prompt.rendered_instruction


def test_gold_unique_and_bounded(corpus, repo_a_suite):
    examples, _ = corpus
    ebts, _nonebts = repo_a_suite
    golds = [e.gold_ebt for e in examples]
    assert len(set(golds)) == len(golds)
    assert len(examples) <= len(ebts)


def test_guard_and_trace_attached(corpus):
    examples, _ = corpus
    withdraw = next(e for e in examples if e.prompt.mut.name == "withdraw")
    assert withdraw.prompt.guard.rendered == "amount < 0"
    assert withdraw.prompt.trace.frames[-1].line == 14


def test_link_ranks_same_mut_before_same_file(corpus, repo_a_index):
    examples, _ = corpus
    withdraw = next(e for e in examples if e.prompt.mut.name == "withdraw")
    linked = link_relevant_nonebts(withdraw, repo_a_index)
    sources = linked.prompt.nonebts
    assert len(sources) == 2
    assert "testWithdrawOk" in sources[0]  # invokes the MUT directly
    assert "testDepositOk" in sources[1]  # same destination file only


def test_link_budget_truncates(corpus, repo_a_index, repo_a_suite):
    examples, _ = corpus
    _, nonebts = repo_a_suite
    withdraw = next(e for e in examples if e.prompt.mut.name == "withdraw")
    tight = link_relevant_nonebts(withdraw, repo_a_index, budget=len(nonebts[0].body_text.split()))
    assert len(tight.prompt.nonebts) == 1
    assert "testWithdrawOk" in tight.prompt.nonebts[0]


def test_link_dedupes_double_qualifiers(corpus, repo_a_index):
    examples, _ = corpus
    withdraw = next(e for e in examples if e.prompt.mut.name == "withdraw")
    linked = link_relevant_nonebts(withdraw, repo_a_index)
    # testWithdrawOk qualifies via same-MUT and same-file; appears once
    assert sum("testWithdrawOk" in s for s in linked.prompt.nonebts) == 1


def test_records_have_contract_fields(corpus):
    examples, _ = corpus
    rec = example_to_record(examples[0])
    for field in ("id", "target", "mut", "throw", "dest", "trace", "guard",
                  "nonebts", "gold_ebt", "variant", "mut_source", "dest_skeleton"):
        assert field in rec
    assert set(rec["throw"]) == {"file", "line", "statement", "exception_type"}
    assert rec["dest"] == examples[0].prompt.dest_path
    assert rec["mut"] == examples[0].prompt.mut.to_record()
    assert json.dumps(rec)  # JSON-serializable
