from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FIXTURES, write_two_throw_repo
from exbt.errors import EmptyAfterExclusion, MalformedTrace, NoThrowAtFrame
from exbt.stacktrace import (
    Frame,
    StackTrace,
    endpoints,
    exclude_test_and_util_frames,
    parse_stack_trace,
)
from stack_render import render_stack_trace


def test_parse_canonical_frame():
    t = parse_stack_trace("at com.foo.Bar.check(Bar.java:12)")
    assert t.frames == (Frame("com.foo.Bar", "check", "Bar.java", 12),)


def test_parse_reverses_to_mut_first():
    text = "\n".join(
        [
            "at com.foo.Bar.check(Bar.java:12)",  # innermost: the throw
            "at com.foo.Bar.h(Bar.java:3)",
        ]
    )
    t = parse_stack_trace(text)
    assert [f.method for f in t.frames] == ["h", "check"]
    assert t.frames[0].method == "h"
    assert t.frames[-1].method == "check"


def test_parse_drops_frames_without_line_numbers():
    text = (FIXTURES / "traces/unknown_source.txt").read_text()
    t = parse_stack_trace(text)
    assert [f.method for f in t.frames] == ["run", "check"]


def test_parse_drops_synthetic_frames():
    text = (FIXTURES / "traces/basic.txt").read_text()
    t = parse_stack_trace(text)
    assert [f.method for f in t.frames] == ["testWithdrawNegative", "withdraw"]


def test_parse_stops_at_caused_by():
    text = (FIXTURES / "traces/caused_by.txt").read_text()
    t = parse_stack_trace(text)
    assert {f.class_fqn for f in t.frames} == {"com.foo.Outer", "com.foo.Main"}


def test_parse_malformed_raises():
    with pytest.raises(MalformedTrace):
        parse_stack_trace("this is not a stack trace\nnor this")


# identifiers chosen so generated packages never collide with the
# synthetic-frame prefixes the parser intentionally drops
_IDENT = st.text(alphabet="abcdefgh", min_size=1, max_size=6).map(lambda s: "x" + s)
_CLASS = st.text(alphabet="ABCDEFGH", min_size=1, max_size=6)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    frames = []
    for _ in range(n):
        pkg = draw(st.lists(_IDENT, min_size=1, max_size=3))
        cls = draw(_CLASS)
        frames.append(
            Frame(
                ".".join(pkg + [cls]),
                draw(_IDENT),
                f"{cls}.java",
                draw(st.integers(min_value=1, max_value=9999)),
            )
        )
    return StackTrace(tuple(frames))


@settings(max_examples=1000, deadline=None)
@given(traces())
def test_round_trip_parse_render(trace):
    assert parse_stack_trace(render_stack_trace(trace)) == trace


def test_exclusion_removes_dest_and_test_files(repo_a):
    trace = StackTrace(
        (
            Frame("com.fix.AccountTest", "testWithdrawNegative", "AccountTest.java", 31),
            Frame("com.fix.Account", "withdraw", "Account.java", 14),
        )
    )
    out = exclude_test_and_util_frames(trace, "src/test/java/com/fix/AccountTest.java", repo_a)
    assert [f.method for f in out.frames] == ["withdraw"]


def test_exclusion_removes_helper_in_other_test_file(repo_a):
    trace = StackTrace(
        (
            Frame("com.fix.CornerTest", "explode", "CornerTest.java", 24),
            Frame("com.fix.Account", "withdraw", "Account.java", 14),
        )
    )
    out = exclude_test_and_util_frames(trace, "src/test/java/com/fix/AccountTest.java", repo_a)
    assert [f.method for f in out.frames] == ["withdraw"]


def test_exclusion_empty_raises(repo_a):
    trace = StackTrace(
        (Frame("com.fix.CornerTest", "explode", "CornerTest.java", 24),)
    )
    with pytest.raises(EmptyAfterExclusion):
        exclude_test_and_util_frames(trace, "src/test/java/com/fix/CornerTest.java", repo_a)


def test_exclusion_keeps_main_class_sharing_a_test_file_name(tmp_path):
    from exbt.jmodel import load_repo

    main = tmp_path / "src/main/java/a/Util.java"
    helper = tmp_path / "src/test/java/b/Util.java"
    main.parent.mkdir(parents=True)
    helper.parent.mkdir(parents=True)
    main.write_text(
        "package a;\npublic class Util {\n"
        "    static void check(int x) {\n"
        "        if (x < 0) throw new IllegalStateException();\n    }\n}\n"
    )
    helper.write_text(
        "package b;\npublic class Util {\n"
        "    static void call() {\n        a.Util.check(-1);\n    }\n}\n"
    )
    trace = StackTrace(
        (
            Frame("b.Util", "call", "Util.java", 4),
            Frame("a.Util", "check", "Util.java", 4),
        )
    )
    out = exclude_test_and_util_frames(trace, "src/test/java/b/UtilTest.java", load_repo(tmp_path))
    assert [f.class_fqn for f in out.frames] == ["a.Util"]


# frames of repoA's test and main classes, and of the launchers around a test
_KNOWN_FRAMES = st.sampled_from([
    Frame("com.fix.AccountTest", "testWithdrawOk", "AccountTest.java", 17),
    Frame("com.fix.CornerTest", "explode", "CornerTest.java", 24),
    Frame("com.fix.Account", "withdraw", "Account.java", 13),
    Frame("ExbtHarness", "main", "ExbtHarness.java", 18),
    Frame("com.intellij.rt.junit.JUnitStarter", "main", "JUnitStarter.java", 69),
])


@st.composite
def exclusion_traces(draw):
    """Generated frames shuffled among repoA's and the launchers' frames."""
    known = draw(st.lists(_KNOWN_FRAMES, max_size=4))
    return StackTrace(tuple(draw(st.permutations(draw(traces()).frames + tuple(known)))))


@settings(max_examples=200, deadline=None)
@given(exclusion_traces())
def test_exclusion_idempotent(repo_a, trace):
    try:
        once = exclude_test_and_util_frames(trace, "SomeTest.java", repo_a)
    except EmptyAfterExclusion:
        return
    twice = exclude_test_and_util_frames(once, "SomeTest.java", repo_a)
    assert once == twice


def test_exclusion_cuts_frames_outside_the_outermost_test_frame(repo_a):
    """Launchers and harnesses call the test; only what the test calls stays."""
    trace = StackTrace(
        (
            Frame("com.intellij.rt.junit.JUnitStarter", "main", "JUnitStarter.java", 69),
            Frame("ExbtHarness", "main", "ExbtHarness.java", 18),
            Frame("com.fix.AccountTest", "testWithdrawOk", "AccountTest.java", 17),
            Frame("com.google.common.base.Preconditions", "checkState", "Preconditions.java", 5),
            Frame("com.fix.Account", "withdraw", "Account.java", 13),
        )
    )
    out = exclude_test_and_util_frames(trace, "src/test/java/com/fix/AccountTest.java", repo_a)
    assert [f.method for f in out.frames] == ["checkState", "withdraw"]
    no_test = StackTrace(trace.frames[:2] + trace.frames[3:])
    assert exclude_test_and_util_frames(no_test, "AccountTest.java", repo_a) == no_test


def test_endpoints_resolve(repo_a):
    trace = StackTrace((Frame("com.fix.Account", "withdraw", "Account.java", 14),))
    mut, site = endpoints(trace, repo_a)
    assert mut.name == "withdraw"
    assert mut.name == trace.frames[0].method
    assert site.line == 14
    assert site.exception_type == "IllegalArgumentException"


def test_endpoints_two_frames(repo_a):
    trace = StackTrace(
        (
            Frame("com.fix.AccountTest", "open", "AccountTest.java", 10),
            Frame("com.fix.Account", "withdraw", "Account.java", 14),
        )
    )
    mut, site = endpoints(trace, repo_a)
    assert mut.name == "open"
    assert site.line == 14


def test_endpoints_pick_the_expected_exceptions_throw(tmp_path):
    from exbt.jmodel import load_repo

    write_two_throw_repo(tmp_path)
    ctx = load_repo(tmp_path)
    trace = StackTrace((Frame("p.Range", "check", "Range.java", 5),))
    picked = [endpoints(trace, ctx, e)[1] for e in ("B", "p.B", "A", None, "Other")]
    assert [s.exception_type for s in picked] == ["B", "B", "A", "A", "A"]
    assert picked[0].statement_text == "throw new B();"


def test_endpoints_no_throw_at_line(repo_a):
    trace = StackTrace((Frame("com.fix.Account", "withdraw", "Account.java", 13),))
    with pytest.raises(NoThrowAtFrame):
        endpoints(trace, repo_a)
