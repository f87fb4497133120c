from __future__ import annotations

import logging
import subprocess

import pytest

from conftest import REPO_A, write_two_throw_repo
from exbt import runners
from exbt.jmodel import MethodId, ThrowSite, find_throw_sites, load_repo, parse_unit
from exbt.metrics import FunctionalResult
from exbt.runners import (
    JavacRunner,
    RecordedRunner,
    _inject_candidate,
    _mark_throw,
    jvm_available,
)


@pytest.fixture(scope="module")
def withdraw_site(repo_a):
    return next(s for s in find_throw_sites(repo_a, "main") if s.method.name == "withdraw")


GOOD_CANDIDATE = """@Test(expected = IllegalArgumentException.class)
public void testWithdrawRejectsNegativeAmount() {
    Account acct = new Account(100);
    acct.withdraw(-1);
}"""


def test_recorded_runner_matches_target_and_substring(withdraw_site):
    runner = RecordedRunner.from_file(REPO_A / "canned/runner-results.json")
    result = runner.check(GOOD_CANDIDATE, withdraw_site)
    assert result == FunctionalResult(True, True, True)


def test_recorded_runner_unknown_candidate_absent(withdraw_site):
    runner = RecordedRunner.from_file(REPO_A / "canned/runner-results.json")
    result = runner.check("@Test public void other() { }", withdraw_site)
    assert result == FunctionalResult(None, None, None)


def test_recorded_runner_row_with_a_statement_picks_one_of_two_throws(tmp_path):
    write_two_throw_repo(tmp_path)
    first, second = find_throw_sites(load_repo(tmp_path), "main")
    runner = RecordedRunner([
        {"target": first.label(), "statement": "throw new B();", "covers_target": False},
        {"target": first.label(), "covers_target": True},
    ])
    assert runner.check(GOOD_CANDIDATE, first) == FunctionalResult(covers_target=True)
    assert runner.check(GOOD_CANDIDATE, second) == FunctionalResult(covers_target=False)


@pytest.mark.skipif(not jvm_available(), reason="javac/java not on PATH")
def test_javac_runner_known_good_candidate(repo_a, withdraw_site):
    runner = JavacRunner(repo_a)
    result = runner.check(GOOD_CANDIDATE, withdraw_site).normalized()
    assert (result.compilable, result.runnable, result.covers_target) == (True, True, True)


@pytest.mark.skipif(not jvm_available(), reason="javac/java not on PATH")
def test_javac_runner_non_compiling_candidate(repo_a, withdraw_site):
    runner = JavacRunner(repo_a)
    result = runner.check(
        "@Test public void broken() { undefinedSymbol(); }", withdraw_site
    ).normalized()
    assert result.compilable is False
    assert result.runnable in (None, False)


def test_javac_runner_timeouts_are_results(repo_a, withdraw_site, monkeypatch, caplog):
    monkeypatch.setattr(runners, "jvm_available", lambda: True)
    runner = JavacRunner(repo_a, timeout=0.5)

    def timeout_on(tool):
        def fake_run(cmd, **kwargs):
            if cmd[0] == tool:
                raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
            return subprocess.CompletedProcess(cmd, 0, "", "")

        return fake_run

    monkeypatch.setattr(subprocess, "run", timeout_on("javac"))
    with caplog.at_level(logging.WARNING, logger="exbt.runners"):
        assert runner.check(GOOD_CANDIDATE, withdraw_site) == FunctionalResult()
    assert "timed out" in caplog.text
    monkeypatch.setattr(subprocess, "run", timeout_on("java"))
    result = runner.check(GOOD_CANDIDATE, withdraw_site)
    assert (result.compilable, result.runnable) == (True, False)


def test_javac_runner_setup_errors(repo_a, withdraw_site, monkeypatch, caplog):
    """A workspace that cannot be set up for a typed reason is an empty
    result; any other error is a bug and raises."""
    monkeypatch.setattr(runners, "jvm_available", lambda: True)
    runner = JavacRunner(repo_a)

    def prepare_raising(error):
        def prepare(*args):
            raise error

        return prepare

    monkeypatch.setattr(runner, "_prepare", prepare_raising(runners.RunnerUnavailable("no dest")))
    with caplog.at_level(logging.WARNING, logger="exbt.runners"):
        assert runner.check(GOOD_CANDIDATE, withdraw_site) == FunctionalResult()
    assert "setup failed: no dest" in caplog.text
    monkeypatch.setattr(runner, "_prepare", prepare_raising(ValueError("bug")))
    with pytest.raises(ValueError, match="bug"):
        runner.check(GOOD_CANDIDATE, withdraw_site)


MARK_SOURCE = """package p;

class Guard {
    void check(int a) {
        if (a < 0) throw new IllegalArgumentException("neg;" + a); else a = 1;
        throw new IllegalStateException("multi;"
                + a);
    }
}
"""


def test_mark_throw_closes_at_the_statements_semicolon():
    unit = parse_unit(MARK_SOURCE, "p/Guard.java")
    mid = MethodId("p.Guard", "check", 1, "p/Guard.java", 4)
    first, second = (k for k, t in enumerate(unit.tokens) if t.text == "throw")
    inline = ThrowSite(mid, 5, "IllegalArgumentException",
                       'throw new IllegalArgumentException("neg;" + a);', first)
    spanning = ThrowSite(mid, 6, "IllegalStateException",
                         'throw new IllegalStateException("multi;"\n                + a);', second)
    mark = 'exbtruntime.ExbtTraceLog.mark("covered: p/Guard.java:{}"); '
    assert _mark_throw(unit, inline) == MARK_SOURCE.replace(
        'throw new IllegalArgumentException("neg;" + a);',
        '{ ' + mark.format(5) + 'throw new IllegalArgumentException("neg;" + a); }',
    )
    assert _mark_throw(unit, spanning) == MARK_SOURCE.replace(
        'throw new IllegalStateException("multi;"\n                + a);',
        '{ ' + mark.format(6) + 'throw new IllegalStateException("multi;"\n                + a); }',
    )


def test_mark_throw_marks_its_own_of_two_identical_throws(tmp_path):
    write_two_throw_repo(tmp_path, second="A")
    ctx = load_repo(tmp_path)
    first, second = find_throw_sites(ctx, "main")
    unit = ctx.unit_for(first.method.decl_file)
    line = "        if (x < 0) throw new A(); else if (x > 9) throw new A();\n"
    mark = '{ exbtruntime.ExbtTraceLog.mark("covered: src/main/java/p/Range.java:5"); '
    assert _mark_throw(unit, first) == unit.source.replace(
        line, line.replace("throw new A(); else", mark + "throw new A(); } else"))
    assert _mark_throw(unit, second) == unit.source.replace(
        line, line.replace("9) throw new A();", "9) " + mark + "throw new A(); }"))


def test_inject_candidate_goes_before_the_last_brace_token():
    """A '}' in a comment after the class is not where the class ends."""
    skeleton = "package p;\n\npublic class AccountTest {\n    void helper() { }\n} // note }\n"
    dest = _inject_candidate(skeleton, GOOD_CANDIDATE)
    [cls] = parse_unit(dest, "p/AccountTest.java").types
    assert [m.name for m in cls.methods] == ["helper", "testWithdrawRejectsNegativeAmount"]
    assert dest.endswith("\n} // note }\n")
