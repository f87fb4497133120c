"""Build runners behind the functional metrics.

A runner answers check(candidate_source, site) -> FunctionalResult, where
site is the target ThrowSite. Two implementations ship:

  RecordedRunner  replays results recorded for fixture candidates, which
                  keeps the full pipeline hermetic and reproducible.
  JavacRunner     integration mode: copies the repository, injects the
                  candidate into the skeleton of the destination test file
                  the sweep selects for the site's method, compiles with
                  javac against generated JUnit API stubs, executes a
                  reflective harness and checks the coverage mark of the
                  target throw statement. Needs javac/java on PATH.
"""

from __future__ import annotations

import logging
import shutil
import subprocess
import tempfile
from pathlib import Path

from exbt.errors import ExbtError, RunnerUnavailable, check_records, read_input
from exbt.genbackend import digest
from exbt.instrument import HELPER_FILE, HELPER_SOURCE
from exbt.jmodel import RepoContext, ThrowSite, parse_member, parse_unit
from exbt.jmodel.lexer import tokenize
from exbt.metrics import FunctionalResult
from exbt.prompting import build_dest_skeleton, select_dest_with_reason

logger = logging.getLogger(__name__)


class RecordedRunner:
    """Replay functional results from a fixture recording.

    Records are a JSON list of rows:
      {"target": "path:line", "candidate_contains": "...",
       "compilable": true, "runnable": true, "covers_target": true}
    A row may match by candidate digest instead of substring; rows without
    a matcher match any candidate for their target. A row with a
    "statement" field answers only for the throw on its line whose
    statement text equals it, so two throws on one line can each have
    their own row; a row without one answers for every throw on its line.
    """

    def __init__(self, rows: list[dict]):
        self._rows_by_target: dict[str, list[dict]] = {}
        for row in rows:
            self._rows_by_target.setdefault(row.get("target"), []).append(row)

    @classmethod
    def from_file(cls, path) -> "RecordedRunner":
        rows = read_input(path, as_json=True)
        return cls(check_records(path, rows, ("target", "candidate_contains")))

    def check(self, candidate: str, site: ThrowSite) -> FunctionalResult:
        target = site.label()
        cand_digest = digest(candidate)
        for row in self._rows_by_target.get(target, ()):
            if "statement" in row and row["statement"] != site.statement_text:
                continue
            if "candidate_digest" in row and row["candidate_digest"] != cand_digest:
                continue
            if "candidate_contains" in row and row["candidate_contains"] not in candidate:
                continue
            return FunctionalResult(
                row.get("compilable"), row.get("runnable"), row.get("covers_target")
            )
        return FunctionalResult()


JUNIT_STUBS: dict[str, str] = {
    "org/junit/Test.java": """\
package org.junit;

import java.lang.annotation.ElementType;
import java.lang.annotation.Retention;
import java.lang.annotation.RetentionPolicy;
import java.lang.annotation.Target;

@Retention(RetentionPolicy.RUNTIME)
@Target(ElementType.METHOD)
public @interface Test {
    Class<? extends Throwable> expected() default None.class;
    long timeout() default 0L;

    final class None extends Throwable {
        private None() { }
    }
}
""",
    "org/junit/Assert.java": """\
package org.junit;

public final class Assert {
    private Assert() { }

    public static void fail() { throw new AssertionError("fail()"); }

    public static void fail(String message) { throw new AssertionError(message); }

    public static void assertTrue(boolean condition) {
        if (!condition) { throw new AssertionError("expected true"); }
    }

    public static void assertFalse(boolean condition) {
        if (condition) { throw new AssertionError("expected false"); }
    }

    public static void assertEquals(Object expected, Object actual) {
        if (expected == null ? actual != null : !expected.equals(actual)) {
            throw new AssertionError("expected " + expected + " but was " + actual);
        }
    }

    public static void assertEquals(long expected, long actual) {
        if (expected != actual) {
            throw new AssertionError("expected " + expected + " but was " + actual);
        }
    }

    public static void assertNotNull(Object value) {
        if (value == null) { throw new AssertionError("expected non-null"); }
    }

    @SuppressWarnings("unchecked")
    public static <T extends Throwable> T assertThrows(
            Class<T> expected, ThrowingRunnable body) {
        try {
            body.run();
        } catch (Throwable t) {
            if (expected.isInstance(t)) { return (T) t; }
            throw new AssertionError("unexpected exception type: " + t.getClass());
        }
        throw new AssertionError("expected " + expected.getName() + " was not thrown");
    }

    public interface ThrowingRunnable {
        void run() throws Throwable;
    }
}
""",
}

HARNESS_SOURCE = """\
import java.lang.reflect.InvocationTargetException;
import java.lang.reflect.Method;

/** Invokes one test method, honoring @Test(expected=...). Exit 0 on pass. */
public final class ExbtHarness {
    public static void main(String[] args) throws Exception {
        Class<?> cls = Class.forName(args[0]);
        Method method = cls.getDeclaredMethod(args[1]);
        method.setAccessible(true);
        Class<? extends Throwable> expected = null;
        org.junit.Test ann = method.getAnnotation(org.junit.Test.class);
        if (ann != null && ann.expected() != org.junit.Test.None.class) {
            expected = ann.expected();
        }
        exbtruntime.ExbtTraceLog.CURRENT_TEST.set(args[0] + "#" + args[1]);
        Object receiver = cls.getDeclaredConstructor().newInstance();
        try {
            method.invoke(receiver);
            if (expected != null) {
                System.err.println("expected " + expected.getName() + " was not thrown");
                System.exit(1);
            }
        } catch (InvocationTargetException e) {
            Throwable cause = e.getCause();
            if (expected == null || !expected.isInstance(cause)) {
                System.err.println("unexpected exception: " + cause);
                System.exit(1);
            }
        }
        System.exit(0);
    }
}
"""


def jvm_available() -> bool:
    return shutil.which("javac") is not None and shutil.which("java") is not None


class JavacRunner:
    """Compile and execute a candidate against a copy of the repository."""

    def __init__(self, ctx: RepoContext, timeout: float = 60.0):
        if not jvm_available():
            raise RunnerUnavailable("javac/java not found on PATH")
        self.ctx = ctx
        self.timeout = timeout

    def check(self, candidate: str, site: ThrowSite) -> FunctionalResult:
        with tempfile.TemporaryDirectory(prefix="exbt-run-") as tmp:
            work = Path(tmp)
            src = work / "src"
            try:
                names = self._prepare(src, candidate, site)
            except (ExbtError, OSError) as exc:
                logger.warning("runner workspace setup failed: %s", exc)
                return FunctionalResult()
            java_files = [str(p) for p in sorted(src.rglob("*.java"))]
            classes = work / "classes"
            classes.mkdir()
            try:
                compile_proc = subprocess.run(
                    ["javac", "-d", str(classes)] + java_files,
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired:
                logger.warning("javac timed out after %s s", self.timeout)
                return FunctionalResult()
            if compile_proc.returncode != 0:
                logger.info("candidate does not compile:\n%s", compile_proc.stderr[-2000:])
                return FunctionalResult(compilable=False)
            log_file = work / "exbt-run.log"
            try:
                run_proc = subprocess.run(
                    [
                        "java",
                        "-cp",
                        str(classes),
                        f"-Dexbt.log={log_file}",
                        "ExbtHarness",
                        names["test_class"],
                        names["test_method"],
                    ],
                    capture_output=True,
                    text=True,
                    timeout=self.timeout,
                )
            except subprocess.TimeoutExpired:
                logger.info("candidate run timed out after %s s", self.timeout)
                return FunctionalResult(True, False, False)
            runnable = run_proc.returncode == 0
            covers = False
            if log_file.exists():
                covers = f"covered: {site.label()}" in log_file.read_text()
            return FunctionalResult(True, runnable, runnable and covers)

    def _prepare(self, src: Path, candidate: str, site: ThrowSite) -> dict:
        """Write each source at its repository path under src: javac
        compiles the files it is given wherever they sit."""
        # main sources, with a coverage mark wrapped around the target throw
        for rel in self.ctx.main_files:
            unit = self.ctx.unit_for(rel)
            if unit is None:
                continue
            text = _mark_throw(unit, site) if rel == site.method.decl_file else unit.source
            _write(src / rel, text)
        for rel, source in {HELPER_FILE: HELPER_SOURCE, **JUNIT_STUBS,
                            "ExbtHarness.java": HARNESS_SOURCE}.items():
            _write(src / rel, source)
        # destination test file: skeleton plus the candidate
        dest = select_dest_with_reason(site.method, self.ctx)
        if dest is None:
            raise RunnerUnavailable(f"no destination test file for {site.method.label()}")
        dest_text = _inject_candidate(build_dest_skeleton(self.ctx, dest), candidate)
        _write(src / dest, dest_text)
        dest_unit = parse_unit(dest_text, dest)
        test_class = dest_unit.types[0].fqn
        _, test_method = parse_member(candidate)
        return {"test_class": test_class, "test_method": test_method.name}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _mark_throw(unit, site) -> str:
    """Wrap the target throw statement in '{ mark(...); throw ...; }'.

    The statement is the site's own token span, from its `throw` token to
    its terminating ';' token, so a ';' inside a literal, a statement that
    spans lines and code after it on the same line stay where they were."""
    source = unit.source
    start = unit.tokens[site.tok].offset
    end = start + len(site.statement_text)
    mark = '{ exbtruntime.ExbtTraceLog.mark("' + f"covered: {site.label()}" + '"); '
    return source[:start] + mark + source[start:end] + " }" + source[end:]


def _inject_candidate(skeleton: str, candidate: str) -> str:
    """Insert the candidate method before the skeleton's last '}' token."""
    idx = next((t.offset for t in reversed(tokenize(skeleton)) if t.text == "}"), None)
    if idx is None:
        return skeleton + "\n" + candidate + "\n"
    indented = "\n".join(
        ("    " + l if l.strip() else l) for l in candidate.split("\n")
    )
    return skeleton[:idx] + "\n" + indented + "\n" + skeleton[idx:]
