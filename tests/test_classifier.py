from __future__ import annotations

import json

import pytest

from conftest import FIXTURES
from exbt.classifier import (
    classify_test,
    split_test_suite,
)
from exbt.errors import NotATest
from exbt.jmodel import MethodId, load_repo


def test_annotation_expected():
    t = classify_test(
        """@Test(expected = IllegalStateException.class)
void t() {
    obj.flip();
}"""
    )
    assert (t.kind, t.pattern) == ("EBT", "AnnotationExpected")
    assert t.expected_exception == "IllegalStateException"


@pytest.mark.parametrize("source", [
    "@Test /* why */ (expected = IllegalStateException.class) public void t() { f(); }",
    "@Test // why\n(expected = IllegalStateException.class) public void t() { f(); }",
    "@org.junit. /* x */ Test(expected = IllegalStateException.class) void t() { f(); }",
], ids=["block-before-args", "line-before-args", "inside-the-name"])
def test_a_comment_in_the_test_annotation_hides_no_test(source):
    """The annotation is read through its tokens, not its source text."""
    t = classify_test(source)
    assert (t.kind, t.pattern) == ("EBT", "AnnotationExpected")
    assert t.expected_exception == "IllegalStateException"


@pytest.mark.parametrize("argument", [
    "expected = IllegalStateException /* x */ .class",
    "expected /* x */ = java.lang. /* y */ IllegalStateException.class",
])
def test_a_comment_in_the_expected_argument_hides_no_exception(argument):
    t = classify_test(f"@Test({argument}) public void t() {{ f(); }}")
    assert (t.kind, t.pattern) == ("EBT", "AnnotationExpected")
    assert t.expected_exception.endswith("IllegalStateException")


def test_assert_throws_body():
    t = classify_test(
        """@Test
void t() {
    assertThrows(IOException.class, () -> f());
}"""
    )
    assert (t.kind, t.pattern) == ("EBT", "AssertThrows")
    assert t.expected_exception == "IOException"


def test_plain_assertion_is_nonebt():
    t = classify_test(
        """@Test
void t() {
    assertEquals(1, f());
}"""
    )
    assert (t.kind, t.pattern, t.expected_exception) == ("NonEBT", None, None)


def test_no_test_annotation_raises():
    with pytest.raises(NotATest):
        classify_test("void helper() { assertThrows(E.class, () -> f()); }")


def test_detection_order_annotation_wins():
    t = classify_test(
        """@Test(expected = A.class)
void t() {
    assertThrows(B.class, () -> f());
}"""
    )
    assert t.pattern == "AnnotationExpected"
    assert t.expected_exception == "A"


def test_invariants_hold():
    sources = [
        "@Test(expected = A.class) void t() { f(); }",
        "@Test void t() { assertThrows(B.class, () -> f()); }",
        "@Test void t() { assertEquals(1, 1); }",
    ]
    for src in sources:
        t = classify_test(src)
        assert (t.kind == "EBT") == (t.pattern is not None)
        assert (t.expected_exception is not None) == (t.kind == "EBT")


def test_fixture_corpus_full_agreement():
    labels = {r["method"]: r for r in json.loads((FIXTURES / "classifier/labels.json").read_text())}
    source = (FIXTURES / "classifier/PatternsTest.java").read_text()
    from exbt.classifier import _classify_decl, has_test_annotation
    from exbt.jmodel import parse_unit

    unit = parse_unit(source, "PatternsTest.java")
    seen = 0
    patterns_seen = set()
    for tdecl in unit.types:
        for m in tdecl.methods:
            if not has_test_annotation(m):
                continue
            got = _classify_decl(
                unit, m, MethodId(tdecl.fqn, m.name, m.arity, "PatternsTest.java", m.decl_line)
            )
            want = labels[m.name]
            assert got.kind == want["kind"], m.name
            assert got.pattern == want["pattern"], m.name
            assert got.expected_exception == want["expected_exception"], m.name
            seen += 1
            if got.pattern:
                patterns_seen.add(got.pattern)
    assert seen == len(labels) >= 20
    negatives = sum(1 for r in labels.values() if r["kind"] == "NonEBT")
    assert negatives >= 6
    assert patterns_seen == {
        "AnnotationExpected",
        "AssertThrows",
        "ExpectedExceptionRule",
        "TryFailCatch",
    }


def test_split_suite_counts(repo_a_suite):
    ebts, nonebts = repo_a_suite
    assert len(ebts) == 4
    assert len(nonebts) == 3
    assert {t.pattern for t in ebts} == {"AnnotationExpected", "AssertThrows", "TryFailCatch"}


def test_try_fail_catch_without_catch_parameters_is_nonebt():
    t = classify_test("@Test void t() { try { f(); fail(); } catch X e) { } }")
    assert t.kind == "NonEBT"


@pytest.mark.parametrize(
    "parameter, expected",
    [
        ("IOException | IllegalStateException e", "IOException"),
        ("final IllegalStateException e", "IllegalStateException"),
        ('@SuppressWarnings("x") java.lang.IllegalStateException e',
         "java.lang.IllegalStateException"),
        ("final @A @B(1) IllegalStateException e", "IllegalStateException"),
    ],
)
def test_try_fail_catch_reads_the_caught_type(parameter, expected):
    t = classify_test(f"@Test void t() {{ try {{ f(); fail(); }} catch ({parameter}) {{ }} }}")
    assert (t.kind, t.pattern, t.expected_exception) == ("EBT", "TryFailCatch", expected)


def test_split_empty_test_dir(tmp_path):
    (tmp_path / "src/main/java").mkdir(parents=True)
    (tmp_path / "src/main/java/A.java").write_text("class A { }")
    ebts, nonebts = split_test_suite(load_repo(tmp_path))
    assert (ebts, nonebts) == ([], [])


def test_extract_expected_exception_variants():
    rule = classify_test(
        """@Test
void t() {
    thrown.expect(NullPointerException.class);
    f();
}"""
    )
    assert rule.expected_exception == "NullPointerException"
    tfc = classify_test(
        """@Test
void t() {
    try {
        f();
        fail();
    } catch (IllegalArgumentException e) {
    }
}"""
    )
    assert tfc.expected_exception == "IllegalArgumentException"


def test_extract_on_nonebt_raises():
    plain = classify_test("@Test void t() { assertTrue(f()); }")
    assert not plain.is_ebt and plain.expected_exception is None


def test_classification_is_deterministic():
    src = "@Test(expected = ParseException.class) void t() { parse(); }"
    assert classify_test(src) == classify_test(src)


def test_every_parsed_ebt_yields_exception(repo_a_suite):
    ebts, _ = repo_a_suite
    for t in ebts:
        assert t.expected_exception
