from __future__ import annotations

import shutil
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, GEN_SWEEP
from exbt.classifier import split_test_suite
from exbt.errors import ExbtError, NotEBT
from exbt.instrument import (
    HELPER_FILE,
    TRACE_MARKER,
    _rewrite_trace_dumps,
    instrument_print_exception,
    instrument_print_trace,
    parse_trace_log,
)
from exbt.jmodel import load_repo, parse_unit
from exbt.jmodel.lexer import tokenize

INSTR = FIXTURES / "instrument"
GATE = FIXTURES / "gate"
REPO_A_TEMPLATE = GEN_SWEEP.parent / "repoA_template"


@pytest.fixture()
def main_repo(tmp_path):
    src = tmp_path / "src/main/java/com/fix"
    src.mkdir(parents=True)
    shutil.copyfile(INSTR / "Simple.java", src / "Simple.java")
    shutil.copyfile(INSTR / "Iface.java", src / "Iface.java")
    return load_repo(tmp_path)


@pytest.fixture()
def ebt_repo(tmp_path):
    main = tmp_path / "src/main/java/com/fix"
    test = tmp_path / "src/test/java/com/fix"
    main.mkdir(parents=True)
    test.mkdir(parents=True)
    (main / "Widget.java").write_text(
        "package com.fix;\npublic class Widget {\n"
        "    public void install(Object o) { }\n"
        "    public void resize(int n) { }\n}\n"
    )
    for name in ("TryFailEbt.java", "AssertThrowsEbt.java", "AnnotationEbt.java"):
        shutil.copyfile(INSTR / name, test / name)
    return load_repo(tmp_path)


def _trace_rewrites(ctx):
    return {k: v for k, v in instrument_print_trace(ctx).items() if k != HELPER_FILE}


def test_trace_dump_matches_golden(main_repo):
    rewrites = _trace_rewrites(main_repo)
    for rel, rw in rewrites.items():
        golden = (INSTR / rel.split("/")[-1].replace(".java", ".instrumented.java")).read_text()
        assert rw.rewritten == golden


def test_throwless_method_untouched(main_repo):
    rw = _trace_rewrites(main_repo)["src/main/java/com/fix/Simple.java"]
    original_read = "    public int read() {\n        return state;\n    }"
    assert original_read in rw.rewritten
    assert rw.rewritten.count(TRACE_MARKER) == 1


def test_exactly_one_dump_per_throw_bearing_method(main_repo):
    for rw in _trace_rewrites(main_repo).values():
        assert rw.rewritten.count(TRACE_MARKER) == len(rw.inserts) == 1


def test_trace_rewrite_idempotent(main_repo, tmp_path):
    rewrites = _trace_rewrites(main_repo)
    round2root = tmp_path / "round2/src/main/java/com/fix"
    round2root.mkdir(parents=True)
    for rel, rw in rewrites.items():
        (round2root / rel.split("/")[-1]).write_text(rw.rewritten)
    ctx2 = load_repo(tmp_path / "round2")
    again = _trace_rewrites(ctx2)
    assert again == {}  # nothing left to change


def test_restore_is_byte_identical(main_repo):
    for rw in _trace_rewrites(main_repo).values():
        assert rw.restore() == rw.original


def test_rewrite_keeps_every_line(main_repo):
    """The dump goes on the line of the body's '{', so every line of the
    original keeps its number and a logged line is an original line."""
    rw = _trace_rewrites(main_repo)["src/main/java/com/fix/Simple.java"]
    [(offset, text)] = rw.inserts
    original_lines = rw.original.split("\n")
    rewritten_lines = rw.rewritten.split("\n")
    assert len(rewritten_lines) == len(original_lines)
    dump_line = rw.original.count("\n", 0, offset)
    assert original_lines[dump_line] == "    public void guarded(int v) {"
    assert rewritten_lines[dump_line] == original_lines[dump_line] + text
    del rewritten_lines[dump_line], original_lines[dump_line]
    assert rewritten_lines == original_lines


def test_helper_class_emitted(main_repo):
    out = instrument_print_trace(main_repo)
    assert HELPER_FILE in out
    assert "getStackTrace" in out[HELPER_FILE]


def test_abstract_member_skipped_and_one_liner_dumped(tmp_path):
    (tmp_path / "Edge.java").write_text(
        """abstract class Edge {
    abstract void noBody();

    void oneLiner(int x) { if (x > 0) { throw new IllegalStateException(); } }
}"""
    )
    ctx = load_repo(tmp_path)
    rewrites = {k: v for k, v in instrument_print_trace(ctx).items() if k != HELPER_FILE}
    rw = rewrites["Edge.java"]
    assert rw.rewritten.split("\n")[3] == (
        "    void oneLiner(int x) { exbtruntime.ExbtTraceLog.dump(); /* exbt:trace */"
        " if (x > 0) { throw new IllegalStateException(); } }"
    )
    assert rw.skipped == []
    assert rw.restore() == rw.original


def test_constructor_dump_follows_its_this_or_super_call():
    """Java requires a this(...) or super(...) call to stay a constructor's
    first statement, so the dump goes right after its ';'."""
    ctx = load_repo(GATE)
    rw = _trace_rewrites(ctx)["src/main/java/com/gate/Box.java"]
    lines = rw.rewritten.split("\n")
    assert lines[5] == (
        "    public Box() { this(4); exbtruntime.ExbtTraceLog.dump(); /* exbt:trace */"
        " if (size > 8) { throw new IllegalStateException(\"default too big\"); } }"
    )
    assert lines[8] == "        super(); exbtruntime.ExbtTraceLog.dump(); /* exbt:trace */"
    assert rw.restore() == rw.original


def _members() -> list[tuple[str, tuple]]:
    """(text as written, tokens) of every member with a body declared in a
    fixture or in the benchmark's repoA template."""
    found = {}
    for path in sorted([*FIXTURES.rglob("*.java"), *REPO_A_TEMPLATE.rglob("*.java")]):
        try:
            unit = parse_unit(path.read_text(), path.name)
        except ExbtError:
            continue
        for _, m in unit.all_methods():
            if m.tok_open is not None:
                text = unit.text(m.tok_start, m.tok_close)
                found.setdefault(text, tuple(unit.tokens[m.tok_start : m.tok_close + 1]))
    return sorted(found.items())


MEMBERS = _members()
LAYOUTS = ("as-written", "one-line", "k&r", "allman")


def _laid_out(member: tuple[str, tuple], layout: str) -> str:
    """The member as written, its tokens on one line, or its tokens broken
    after each '{' and ';' and before each '}' (K&R), and also before each
    '{' (Allman)."""
    text, tokens = member
    if layout == "as-written":
        return text
    if layout == "one-line":
        return " ".join(t.text for t in tokens)
    out = ""
    for t in tokens:
        if t.text == "}" or (t.text == "{" and layout == "allman"):
            out += "\n"
        out += t.text + ("\n" if t.text in ("{", ";") else " ")
    return out


def _keeps_lines_and_restores(rw, rewrite_again) -> None:
    """The rewrite moves no line and no original token off its line, cuts
    back out to the original, and is a fixed point of its own rewrite."""
    assert rw.rewritten.count("\n") == rw.original.count("\n")
    rewritten = iter([(t.text, t.line) for t in tokenize(rw.rewritten)])
    assert all(tok in rewritten for tok in ((t.text, t.line) for t in tokenize(rw.original)))
    assert rw.restore() == rw.original
    assert rewrite_again(rw.rewritten) == rw.rewritten


def _dump_every_body(source: str):
    unit = parse_unit(source, "Probe.java")
    return _rewrite_trace_dumps(unit, [m for _, m in unit.all_methods() if m.tok_open is not None])


def test_members_come_from_every_fixture():
    assert len(MEMBERS) > 70


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MEMBERS), st.sampled_from(LAYOUTS))
def test_every_rewrite_keeps_lines_restores_and_is_idempotent(repo_a_suite, member, layout):
    text = _laid_out(member, layout)
    rw = _dump_every_body(f"class Probe {{\n{text}\n}}\n")
    if rw is not None:

        def dump_again(source: str) -> str:
            again = _dump_every_body(source)
            return source if again is None else again.rewritten

        _keeps_lines_and_restores(rw, dump_again)
    ebt = repo_a_suite[0][0]
    for pattern in ("AnnotationExpected", "TryFailCatch", "AssertThrows"):
        probe = replace(ebt, body_text=text, pattern=pattern)
        _keeps_lines_and_restores(
            instrument_print_exception(probe),
            lambda source: instrument_print_exception(replace(probe, body_text=source)).rewritten,
        )


def _ebt(ctx, pattern):
    ebts, _ = split_test_suite(ctx)
    return next(t for t in ebts if t.pattern == pattern)


def test_tryfailcatch_rewrite_matches_golden(ebt_repo):
    rw = instrument_print_exception(_ebt(ebt_repo, "TryFailCatch"))
    assert rw.rewritten == (INSTR / "TryFailEbt.golden").read_text()
    assert rw.restore() == rw.original


def test_assertthrows_rewrite_matches_golden(ebt_repo):
    rw = instrument_print_exception(_ebt(ebt_repo, "AssertThrows"))
    assert rw.rewritten == (INSTR / "AssertThrowsEbt.golden").read_text()
    assert "exbtEx = assertThrows" in rw.rewritten
    assert rw.restore() == rw.original


def test_assertthrows_mid_line_is_bound_at_its_column(ebt_repo):
    """An assertThrows after other code on its line is bound where its
    statement starts, and the print goes right after its ';', before a
    trailing comment."""
    source = (
        "@Test\npublic void rejectsOversize() {\n"
        "    Widget w = new Widget(); assertThrows(IllegalStateException.class, "
        "() -> w.resize(9000)); // too big\n}"
    )
    rw = instrument_print_exception(replace(_ebt(ebt_repo, "AssertThrows"), body_text=source))
    assert rw.rewritten.split("\n")[2] == (
        "    Widget w = new Widget(); java.lang.Throwable exbtEx = assertThrows("
        "IllegalStateException.class, () -> w.resize(9000));"
        " exbtruntime.ExbtTraceLog.dumpException(exbtEx); /* exbt:exc */ // too big"
    )
    assert rw.skipped == []
    assert rw.restore() == source


def test_assertthrows_inside_another_call_is_skipped_with_a_reason(ebt_repo):
    source = (
        "@Test\npublic void rejectsOversize() {\n    Widget w = new Widget();\n"
        "    assertNotNull(assertThrows(IllegalStateException.class, () -> w.resize(9000)));\n}"
    )
    rw = instrument_print_exception(replace(_ebt(ebt_repo, "AssertThrows"), body_text=source))
    assert rw.rewritten == source
    assert rw.skipped == ["rejectsOversize: assertThrows does not start its statement, cannot bind it"]


def test_annotation_rewrite_matches_golden(ebt_repo):
    rw = instrument_print_exception(_ebt(ebt_repo, "AnnotationExpected"))
    assert rw.rewritten == (INSTR / "AnnotationEbt.golden").read_text()
    assert rw.restore() == rw.original


def test_exception_rewrite_idempotent(ebt_repo):
    first = instrument_print_exception(_ebt(ebt_repo, "TryFailCatch"))
    again = instrument_print_exception(
        replace(_ebt(ebt_repo, "TryFailCatch"), body_text=first.rewritten)
    )
    assert again.rewritten == first.rewritten


def test_nonebt_input_rejected(ebt_repo):
    _, nonebts = split_test_suite(ebt_repo)
    fake = replace(_ebt(ebt_repo, "TryFailCatch"), kind="NonEBT", pattern=None)
    with pytest.raises(NotEBT):
        instrument_print_exception(fake)


# --- trace-log parsing ---


def test_parse_log_two_blocks():
    text = (FIXTURES / "repoA/logs/ebt-traces.log").read_text()
    log = parse_trace_log(text)
    assert len(log) == 4
    assert log.skipped_blocks == 0
    tests = [test_id for _, test_id in log]
    assert tests[0] == "com.fix.AccountTest#testWithdrawNegative"


def test_parse_log_empty():
    log = parse_trace_log("")
    assert len(log) == 0 and log.skipped_blocks == 0


def test_parse_log_corrupted_block_skipped():
    text = (FIXTURES / "traces/corrupted.log").read_text()
    log = parse_trace_log(text)
    assert len(log) == 2
    assert log.skipped_blocks == 1
    assert [t for _, t in log] == [
        "com.fix.AccountTest#testWithdrawOk",
        "com.fix.TestLedger#testPostOk",
    ]
