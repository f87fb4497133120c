from __future__ import annotations

import shutil
from dataclasses import replace

import pytest

from conftest import FIXTURES
from exbt.classifier import split_test_suite
from exbt.errors import NotEBT
from exbt.instrument import (
    HELPER_FILE,
    TRACE_MARKER,
    instrument_print_exception,
    instrument_print_trace,
    parse_trace_log,
)
from exbt.jmodel import load_repo

INSTR = FIXTURES / "instrument"


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
        assert rw.rewritten.count(TRACE_MARKER) == len(rw.inserted_lines) == 1


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


def test_offset_map_normalizes_lines(main_repo):
    rw = _trace_rewrites(main_repo)["src/main/java/com/fix/Simple.java"]
    insert = rw.inserted_lines[0]
    # lines above the insertion keep their number, lines below shift by one
    assert rw.to_original_line(insert - 1) == insert - 1
    assert rw.to_original_line(insert + 1) == insert
    original_lines = rw.original.split("\n")
    rewritten_lines = rw.rewritten.split("\n")
    for rewritten_no in range(1, len(rewritten_lines) + 1):
        if rewritten_no == insert:
            continue
        assert (
            rewritten_lines[rewritten_no - 1]
            == original_lines[rw.to_original_line(rewritten_no) - 1]
        )


def test_helper_class_emitted(main_repo):
    out = instrument_print_trace(main_repo)
    assert HELPER_FILE in out
    assert "getStackTrace" in out[HELPER_FILE]


def test_abstract_and_single_line_members_skipped(tmp_path):
    (tmp_path / "Edge.java").write_text(
        """abstract class Edge {
    abstract void noBody();

    void oneLiner(int x) { if (x > 0) { throw new IllegalStateException(); } }
}"""
    )
    ctx = load_repo(tmp_path)
    rewrites = {k: v for k, v in instrument_print_trace(ctx).items() if k != HELPER_FILE}
    rw = rewrites["Edge.java"]
    assert rw.inserted_lines == []
    assert any("brace line" in s for s in rw.skipped)
    assert rw.rewritten == rw.original


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
