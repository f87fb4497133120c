"""Acceptance suite: one test per acceptance criterion.

Each test prints a PASS line on success so a full run reads as a
criterion-by-criterion checklist. Tolerances are pinned here, not
computed."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings

from conftest import FIXTURES, REPO_A, guard_trace, parse_env_key
from exbt.cli import main as cli_main
from exbt.guardexpr import compute_guard_expression, evaluate_guard
from exbt.jmodel import MethodId, parse_unit
from exbt.metrics import bleu, code_bleu_components, edit_similarity
from exbt.runners import JavacRunner, jvm_available
from exbt.stacktrace import (
    StackTrace,
    exclude_test_and_util_frames,
    parse_stack_trace,
)
from guard_merge import merge
from stack_render import render_stack_trace
from test_stacktrace import exclusion_traces, traces

# committed constants (see the fixture files they describe)
BLEU_ORACLE = 0.668740304976422  # bleu("a b c d", "a b c e"), hand n-gram count
SWEEP_THROW_COV = 2 / 6  # repoA: 6 main targets, 2 covered by canned runs
EDIT_SIM_ORACLE = 0.6667  # 1 - lev("ab","abc")/3


def _ok(name: str) -> None:
    print(f"PASS {name}")


def test_criterion_classifier_fixture_suite():
    """>=20 labeled methods, all four patterns, >=6 negatives, 100%
    agreement, under one second."""
    from exbt.classifier import _classify_decl, has_test_annotation

    labels = {r["method"]: r for r in json.loads(
        (FIXTURES / "classifier/labels.json").read_text())}
    source = (FIXTURES / "classifier/PatternsTest.java").read_text()
    started = time.perf_counter()
    unit = parse_unit(source, "PatternsTest.java")
    checked = 0
    patterns = set()
    for tdecl in unit.types:
        for m in tdecl.methods:
            if not has_test_annotation(m):
                continue
            got = _classify_decl(
                unit, m,
                MethodId(tdecl.fqn, m.name, m.arity, "PatternsTest.java", m.decl_line),
            )
            want = labels[m.name]
            assert (got.kind, got.pattern, got.expected_exception) == (
                want["kind"], want["pattern"], want["expected_exception"]), m.name
            checked += 1
            if got.pattern:
                patterns.add(got.pattern)
    elapsed = time.perf_counter() - started
    assert checked >= 20
    assert sum(1 for r in labels.values() if r["kind"] == "NonEBT") >= 6
    assert patterns == {"AnnotationExpected", "AssertThrows",
                        "ExpectedExceptionRule", "TryFailCatch"}
    assert elapsed < 1.0, f"classifier suite took {elapsed:.2f}s"
    _ok(f"classifier fixture suite: {checked} methods, 100% agreement, {elapsed:.3f}s")


def test_criterion_guard_oracle_suite(repo_g, guards_oracle):
    """>=10 fixtures; rendered guards equal the committed oracle modulo
    whitespace; evaluation agrees with hand-traced reachability on every
    input of every evaluable fixture; under five seconds."""
    started = time.perf_counter()
    assert len(guards_oracle) >= 10
    evaluable = 0
    inputs_checked = 0
    for name, entry in sorted(guards_oracle.items()):
        trace, _ = guard_trace(repo_g, entry)
        guard = compute_guard_expression(trace, repo_g)
        assert " ".join(guard.rendered.split()) == " ".join(entry["rendered"].split()), name
        if not entry["evaluable"]:
            continue
        evaluable += 1
        assert len(entry["table"]) <= 100
        for key, reachable in entry["table"].items():
            assert evaluate_guard(guard, parse_env_key(key)) == reachable, (name, key)
            inputs_checked += 1
    elapsed = time.perf_counter() - started
    assert evaluable >= 10
    assert elapsed < 5.0, f"guard suite took {elapsed:.2f}s"
    _ok(
        f"guard oracle suite: {len(guards_oracle)} fixtures, "
        f"{inputs_checked} oracle inputs agree, {elapsed:.3f}s"
    )


def test_criterion_merge_substitution():
    """Empty-map identity, identifier-boundary safety, and the pinned
    substitution fixture."""
    assert merge(["x > 0"], {}) == ["x > 0"]
    assert merge(["val > value"], {"val": "k"}) == ["k > value"]
    assert merge(["v == 0"], {"v": "a + 1"}) == ["(a + 1) == 0"]
    _ok("merge substitution: identity, boundary safety, (a + 1) == 0")


@settings(max_examples=1000, deadline=None)
@given(traces())
def test_criterion_round_trip_property(trace):
    assert parse_stack_trace(render_stack_trace(trace)) == trace


@settings(max_examples=200, deadline=None)
@given(exclusion_traces())
def test_criterion_exclusion_idempotence(repo_a, trace):
    from exbt.errors import EmptyAfterExclusion

    try:
        once = exclude_test_and_util_frames(trace, repo_a)
    except EmptyAfterExclusion:
        return
    assert exclude_test_and_util_frames(once, repo_a) == once


def test_criterion_round_trip_summary():
    _ok("stack-trace round-trip over 1000 generated traces + exclusion idempotence")


def test_criterion_metric_identities():
    """Identity on 50 fixture methods; pinned oracle constants."""
    from test_metrics import _fixture_methods

    for m in _fixture_methods(50):
        assert bleu(m, m) == pytest.approx(1.0)
        assert code_bleu_components(m, m)["code_bleu"] == pytest.approx(1.0)
        assert edit_similarity(m, m) == pytest.approx(1.0)
    assert edit_similarity("ab", "abc") == pytest.approx(EDIT_SIM_ORACLE, abs=1e-4)
    assert bleu("a b c d", "a b c e") == pytest.approx(BLEU_ORACLE, abs=1e-6)
    _ok("metric identities on 50 methods + frozen BLEU/edit-sim oracles")


def _run_sweep(out_dir: Path) -> None:
    code = cli_main([
        "sweep", str(REPO_A), "--seed", "42", "--backend", "stub",
        "--out", str(out_dir),
    ])
    assert code == 0


def test_criterion_hermetic_sweep_byte_identical(tmp_path, capsys):
    """Fixture repo + recorded logs + stub backend, seed 42: byte-identical
    artifacts across three runs and the committed coverage value."""
    blobs = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        _run_sweep(out)
        names = sorted(p.name for p in out.iterdir())
        blobs.append((tuple(names), b"".join((out / n).read_bytes() for n in names)))
    capsys.readouterr()  # swallow sweep tables
    assert blobs[0] == blobs[1] == blobs[2]
    report = json.loads((tmp_path / "run0/report.json").read_text())
    assert report["aggregate"]["throw_cov"] == pytest.approx(SWEEP_THROW_COV)
    _ok(
        "hermetic sweep: 3 byte-identical reruns, "
        f"throw_cov == {SWEEP_THROW_COV:.4f} (committed)"
    )


def test_criterion_algorithm_stage_counters(tmp_path, capsys):
    """One hermetic sweep demonstrably executes the corpus build, the
    guard computation, the pool + prompt assembly and the destination
    heuristics, witnessed by manifest counters."""
    out = tmp_path / "run"
    _run_sweep(out)
    capsys.readouterr()
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    for counter in (
        "corpus_examples_built",   # training-corpus collection
        "guards_computed",         # node collection + guard computation
        "pool_builds",             # trace-pool preparation
        "prompts_assembled",       # prompt assembly
        "dest_name-match",         # destination-test-file heuristics
    ):
        assert counters.get(counter, 0) >= 1, counter
    _ok(f"algorithm coverage via stage counters: {counters}")


@pytest.mark.skipif(not jvm_available(), reason="no local JVM: skipped, not failed")
def test_criterion_integration_functional_check(repo_a):
    """With a JVM present, a known-good fixture candidate compiles, runs
    and covers its target throw site."""
    from exbt.jmodel import find_throw_sites

    site = next(s for s in find_throw_sites(repo_a, "main") if s.method.name == "withdraw")
    candidate = (
        "@Test(expected = IllegalArgumentException.class)\n"
        "public void testWithdrawRejectsNegativeAmount() {\n"
        "    Account acct = new Account(100);\n"
        "    acct.withdraw(-1);\n"
        "}"
    )
    result = JavacRunner(repo_a).check(candidate, site).normalized()
    assert (result.compilable, result.runnable, result.covers_target) == (True, True, True)
    _ok("integration functional check: (compilable, runnable, covers_target) == (T, T, T)")
