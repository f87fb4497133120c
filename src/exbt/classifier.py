"""Classify test methods into exceptional and non-exceptional tests.

A test method is exceptional when it matches one of four developer
patterns, probed in this order (first match wins):

  1. AnnotationExpected   @Test(expected = X.class)
  2. AssertThrows         assertThrows(X.class, () -> ...)
  3. ExpectedExceptionRule  rule.expect(X.class)
  4. TryFailCatch         try { ...; fail(); } catch (X e) { ... }

Detection is purely syntactic; both qualified and unqualified call forms
are accepted. Only methods annotated @Test are considered tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from exbt.errors import JavaParseError, NotATest
from exbt.jmodel import CompilationUnit, MethodDecl, MethodId, RepoContext, parse_member
from exbt.jmodel.lexer import call_sites, index_of, match_brace, match_paren, skip_name, skip_type


@dataclass(frozen=True)
class TestMethod:
    id: MethodId
    body_text: str  # verbatim method source, annotations included
    pattern: str | None  # the exceptional pattern it matches; None for a non-EBT
    expected_exception: str | None

    @property
    def is_ebt(self) -> bool:
        return self.pattern is not None

    @property
    def kind(self) -> str:
        return "EBT" if self.is_ebt else "NonEBT"


def _test_annotations(m: MethodDecl):
    """Each `@Test` annotation of m, as its tokens and the index past its
    dotted name. Reading tokens, a comment anywhere in it hides nothing."""
    for toks in m.annotation_tokens:
        end = skip_name(toks, 1, len(toks))
        if toks[end - 1].text == "Test":
            yield toks, end


def has_test_annotation(m: MethodDecl) -> bool:
    return any(_test_annotations(m))


def _annotation_expected(m: MethodDecl) -> tuple[str] | None:
    """(X,) of the first `expected = X.class` in m's `@Test` annotation."""
    for toks, end in _test_annotations(m):
        for k in range(end, len(toks) - 1):
            if toks[k].text == "expected" and toks[k + 1].text == "=":
                stop = skip_name(toks, k + 2, len(toks))
                if stop > k + 2 and [t.text for t in toks[stop : stop + 2]] == [".", "class"]:
                    return ("".join(t.text for t in toks[k + 2 : stop]),)
    return None


def class_literal_arg(
    unit: CompilationUnit, m: MethodDecl, name: str, on_receiver: bool = False
) -> tuple[str, int, int] | None:
    """(X, index of the call's name, index of its `)`) of the first call to
    `name` in the body whose first argument is `X.class`, as in
    `rule.expect(X.class)` when on_receiver."""
    if m.tok_open is None:
        return None
    toks = unit.tokens
    for k, _, args, close in call_sites(toks, m.tok_open + 1, m.tok_close):
        if toks[k].text != name or not args or (on_receiver and toks[k - 1].text != "."):
            continue
        lo, hi = args[0]
        if hi - lo >= 3 and toks[hi - 1].text == "class" and toks[hi - 2].text == ".":
            return "".join(t.text for t in toks[lo : hi - 2]), k, close
    return None


def try_fail_catch(unit: CompilationUnit, m: MethodDecl) -> tuple[str, int] | None:
    """(X, index of the `catch`) of the first `try { …; fail(…); … }
    catch (X e)` in the body."""
    if m.tok_open is None:
        return None
    toks = unit.tokens
    k = m.tok_open + 1
    while k < m.tok_close:
        if toks[k].text == "try":
            # span of the try block, after any resource list
            open_b = k + 1
            if toks[open_b].text == "(":
                open_b = match_paren(toks, open_b) + 1
            open_b = index_of(toks, open_b, "{")
            close_b = match_brace(toks, open_b)
            calls = call_sites(toks, open_b + 1, close_b)
            has_fail = any(toks[n].text == "fail" for n, *_ in calls)
            if (
                has_fail
                and close_b + 1 < m.tok_close
                and toks[close_b + 1].text == "catch"
                and toks[close_b + 2].text == "("
            ):
                close_p = match_paren(toks, close_b + 2)
                lo = close_b + 3  # the caught type follows `final` and annotations
                while toks[lo].text in ("final", "@"):
                    lo = lo + 1 if toks[lo].text == "final" else skip_name(toks, lo + 1, close_p)
                    if toks[lo].text == "(":
                        lo = match_paren(toks, lo, close_p) + 1
                hi = skip_type(toks, lo, close_p)  # a multi-catch's first alternative
                if lo < hi < close_p:
                    return "".join(t.text for t in toks[lo:hi]), close_b + 1
            k = close_b + 1
            continue
        k += 1
    return None


def _classify_decl(unit: CompilationUnit, m: MethodDecl, mid: MethodId) -> TestMethod:
    if not has_test_annotation(m):
        raise NotATest(f"{mid.label()} carries no @Test annotation")
    body_text = unit.text(m.tok_start, m.tok_last + 1)
    for pattern, probe in (
        ("AnnotationExpected", lambda: _annotation_expected(m)),
        ("AssertThrows", lambda: class_literal_arg(unit, m, "assertThrows")),
        ("ExpectedExceptionRule", lambda: class_literal_arg(unit, m, "expect", True)),
        ("TryFailCatch", lambda: try_fail_catch(unit, m)),
    ):
        found = probe()  # the expected type, then where it was found
        if found:
            return TestMethod(mid, body_text, pattern, found[0])
    return TestMethod(mid, body_text, None, None)


def classify_test(method_source: str) -> TestMethod:
    """Classify a standalone test method given its source text."""
    unit, m = parse_member(method_source)
    if m is None:
        raise NotATest("input does not contain a method declaration")
    return classify_member(unit, m)


def classify_member(unit: CompilationUnit, m: MethodDecl) -> TestMethod:
    """Classify a standalone test method already parsed by `parse_member`."""
    mid = MethodId("<anonymous>", m.name, m.arity, "<string>", m.decl_line)
    return _classify_decl(unit, m, mid)


def split_test_suite(ctx: RepoContext) -> tuple[list[TestMethod], list[TestMethod]]:
    """Classify every @Test method declared under a test source root. A
    test whose body cannot be read is skipped with a warning."""
    ebts: list[TestMethod] = []
    nonebts: list[TestMethod] = []
    test_paths = set(ctx.test_files)
    for unit in ctx.units:
        if unit.path not in test_paths:
            continue
        for _, m in unit.all_methods():
            if not has_test_annotation(m):
                continue
            try:
                t = _classify_decl(unit, m, m.mid)
            except JavaParseError as exc:
                ctx.warnings.append(f"{unit.path}: test {m.name} skipped ({exc})")
                continue
            (ebts if t.is_ebt else nonebts).append(t)
    return ebts, nonebts
