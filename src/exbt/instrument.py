"""Source rewriting that makes fixture repositories emit trace logs.

Two rewrites exist. The inference-path rewrite adds a one-line stack dump
at the top of every method that contains a throw statement. The
training-path rewrite makes an exceptional test print the caught
exception's trace at the point it is observed. Every edit inserts text
at a token of the original, on that token's own line, so no line moves:
a logged line number is a line of the original, and the original is
restored byte-for-byte by cutting the recorded inserts out again.

Running the instrumented code needs a JVM and is delegated to an external
build runner; the hermetic pipeline consumes pre-recorded logs in the
block format defined here: frame lines in JVM order, one optional
'test: <id>' tag line first, blocks separated by a '---' line.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

from exbt.classifier import TestMethod, class_literal_arg, try_fail_catch
from exbt.errors import MalformedTrace, NotEBT
from exbt.jmodel import CompilationUnit, MethodDecl, RepoContext, parse_member
from exbt.jmodel.lexer import find_top_level, match_paren
from exbt.stacktrace import FRAME_RE, TraceLog, trace_of

logger = logging.getLogger(__name__)

TRACE_MARKER = "/* exbt:trace */"
EXC_MARKER = "/* exbt:exc */"
HELPER_PACKAGE = "exbtruntime"
HELPER_FILE = "exbtruntime/ExbtTraceLog.java"

HELPER_SOURCE = """\
package exbtruntime;

/** Generated trace logger; writes canonical frame blocks to the log file. */
public final class ExbtTraceLog {
    public static final InheritableThreadLocal<String> CURRENT_TEST =
        new InheritableThreadLocal<String>();

    private ExbtTraceLog() { }

    public static void dump() {
        StringBuilder sb = new StringBuilder();
        String test = CURRENT_TEST.get();
        if (test != null) { sb.append("test: ").append(test).append('\\n'); }
        StackTraceElement[] frames = Thread.currentThread().getStackTrace();
        for (int i = 2; i < frames.length; i++) {
            appendFrame(sb, frames[i]);
        }
        sb.append("---\\n");
        write(sb.toString());
    }

    public static void dumpException(Throwable t) {
        StringBuilder sb = new StringBuilder();
        String test = CURRENT_TEST.get();
        if (test != null) { sb.append("test: ").append(test).append('\\n'); }
        for (StackTraceElement frame : t.getStackTrace()) {
            appendFrame(sb, frame);
        }
        sb.append("---\\n");
        write(sb.toString());
    }

    public static void mark(String tag) {
        write(tag + "\\n---\\n");
    }

    private static void appendFrame(StringBuilder sb, StackTraceElement f) {
        sb.append("at ").append(f.getClassName()).append('.')
          .append(f.getMethodName()).append('(')
          .append(f.getFileName()).append(':')
          .append(f.getLineNumber()).append(")\\n");
    }

    private static void write(String block) {
        String path = System.getProperty("exbt.log", "exbt-trace.log");
        try (java.io.FileWriter w = new java.io.FileWriter(path, true)) {
            w.write(block);
        } catch (java.io.IOException e) {
            // logging must never break the run
        }
    }
}
"""


@dataclass
class Rewrite:
    """One rewritten source file plus everything needed to undo it."""

    original: str
    rewritten: str
    # (offset in the original, text), in source order
    inserts: list[tuple[int, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def restore(self) -> str:
        """Byte-identical original: `rewritten` with every insert cut out."""
        parts, at, shift = [], 0, 0
        for offset, text in self.inserts:
            parts.append(self.rewritten[at : offset + shift])
            shift += len(text)
            at = offset + shift
        parts.append(self.rewritten[at:])
        return "".join(parts)


def _apply(rw: Rewrite, where: str) -> Rewrite:
    """Warn of each skipped edit, naming `where` the source came from; put
    the inserts in source order (two at one offset keep the order they were
    made in) and set `rewritten` to the original with each made."""
    for reason in rw.skipped:
        logger.warning("%s: %s", where, reason)
    rw.inserts.sort(key=lambda e: e[0])
    parts, at = [], 0
    for offset, text in rw.inserts:
        parts += [rw.original[at:offset], text]
        at = offset
    parts.append(rw.original[at:])
    rw.rewritten = "".join(parts)
    return rw


DUMP = f" {HELPER_PACKAGE}.ExbtTraceLog.dump(); {TRACE_MARKER}"


def instrument_print_trace(ctx: RepoContext) -> dict[str, Rewrite]:
    """Per-file rewrites adding an entry dump to every throw-bearing method.

    Returns {relative path: Rewrite}. Compact constructors and abstract
    members are skipped with a warning.
    """
    out: dict[str, Rewrite] = {}
    for unit in ctx.units:
        targets = [
            m for _, m in unit.all_methods()
            if m.mid in ctx.throw_sites_by_method
        ]
        if not targets:
            continue
        rw = _rewrite_trace_dumps(unit, targets)
        if rw is not None:
            out[unit.path] = rw
    return out


def _rewrite_trace_dumps(unit: CompilationUnit, targets: list[MethodDecl]) -> Rewrite | None:
    rw = Rewrite(original=unit.source, rewritten=unit.source)
    for m in targets:
        if m.tok_open is None:
            rw.skipped.append(f"{m.name}: no body to instrument")
            continue
        if m.compact:
            rw.skipped.append(f"{m.name}: compact constructor skipped")
            continue
        at = unit.tokens[_entry_token(unit.tokens, m)].end
        if not unit.source.startswith(DUMP, at):  # else already instrumented
            rw.inserts.append((at, DUMP))
    if not rw.inserts and not rw.skipped:
        return None
    return _apply(rw, unit.path)


def _entry_token(toks, m: MethodDecl) -> int:
    """The token the entry dump follows: the body's '{', or the ';' of a
    constructor's leading this(...) or super(...) call, which Java requires
    to stay the first statement."""
    k = m.tok_open
    if m.is_ctor and toks[k + 1].text in ("this", "super") and toks[k + 2].text == "(":
        return find_top_level(toks, k + 1, m.tok_close, (";",))
    return k


def instrument_print_exception(ebt: TestMethod) -> Rewrite:
    """Rewrite one exceptional test so the observed exception is printed.

    AnnotationExpected and ExpectedExceptionRule bodies are wrapped in a
    try/print/rethrow; TryFailCatch gains a print at the top of its catch
    block; AssertThrows binds the returned exception and prints it. The
    catch and the call are the ones the classifier matched.
    """
    if not ebt.is_ebt:
        raise NotEBT(f"{ebt.id.label()} is not an exceptional-behavior test")
    source = ebt.body_text
    rw = Rewrite(original=source, rewritten=source)
    if EXC_MARKER in source:
        return rw  # already instrumented
    unit, m = parse_member(source)
    if ebt.pattern in ("AnnotationExpected", "ExpectedExceptionRule"):
        _wrap_body(unit, m, rw)
    elif ebt.pattern == "TryFailCatch":
        _print_in_catch(unit, m, rw)
    elif ebt.pattern == "AssertThrows":
        _capture_assert_throws(unit, m, rw)
    return _apply(rw, ebt.id.decl_file)


def _wrap_body(unit: CompilationUnit, m: MethodDecl, rw: Rewrite) -> None:
    catch = (
        f"}} catch (Throwable exbtEx) {{ "
        f"{HELPER_PACKAGE}.ExbtTraceLog.dumpException(exbtEx); "
        "if (exbtEx instanceof RuntimeException) { throw (RuntimeException) exbtEx; } "
        "else if (exbtEx instanceof Error) { throw (Error) exbtEx; } "
        f"else {{ throw new RuntimeException(exbtEx); }} }} {EXC_MARKER} "
    )
    rw.inserts.append((unit.tokens[m.tok_open].end, f" try {{ {EXC_MARKER}"))
    rw.inserts.append((unit.tokens[m.tok_close].offset, catch))


def _print_in_catch(unit: CompilationUnit, m: MethodDecl, rw: Rewrite) -> None:
    found = try_fail_catch(unit, m)
    if found is None:
        return
    toks = unit.tokens
    _, k = found
    close_p = match_paren(toks, k + 1)
    var = toks[close_p - 1].text
    dump = f" {HELPER_PACKAGE}.ExbtTraceLog.dumpException({var}); {EXC_MARKER}"
    rw.inserts.append((toks[close_p + 1].end, dump))


def _capture_assert_throws(unit: CompilationUnit, m: MethodDecl, rw: Rewrite) -> None:
    """Print what the assertThrows call returns, right after the ';' of its
    statement. A call assigned to a name prints that name; a call that
    starts its statement is bound to `exbtEx` at its first token; any other
    call is skipped with a reason."""
    found = class_literal_arg(unit, m, "assertThrows")
    if found is None:
        return
    toks = unit.tokens
    _, k, close = found
    start = k  # a qualifier (Assertions.) starts the call
    while toks[start - 1].text == "." and start - 2 > m.tok_open:
        start -= 2
    semi = toks[find_top_level(toks, close + 1, m.tok_close, (";",))]
    if toks[start - 1].text == "=":
        bound = toks[start - 2].text
    elif toks[start - 1].text in ("{", ";", "}"):
        bound = "exbtEx"
        rw.inserts.append((toks[start].offset, "java.lang.Throwable exbtEx = "))
    else:
        rw.skipped.append(f"{m.name}: assertThrows does not start its statement, cannot bind it")
        return
    dump = f" {HELPER_PACKAGE}.ExbtTraceLog.dumpException({bound}); {EXC_MARKER}"
    rw.inserts.append((semi.end, dump))


_TEST_TAG_RE = re.compile(r"^test:\s*(\S.*)$")
# a byte that is not UTF-8, as a surrogateescape decode keeps it
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


def parse_trace_log(text: str) -> TraceLog:
    """Parse the block format: one trace per '---'-separated block.

    Malformed blocks (any line that is neither a tag nor a frame as
    `FRAME_RE` reads one, bytes that are not UTF-8, or no frame that
    `trace_of` keeps) are skipped with a warning and counted, never fatal.
    """
    log = TraceLog()
    for block in text.split("\n---"):
        lines = [l for l in block.strip().split("\n") if l.strip()]
        if not lines:
            continue
        if _UNDECODABLE_RE.search(block):
            logger.warning("skipping trace block with undecodable bytes")
            log.skipped_blocks += 1
            continue
        test_id = ""
        tag = _TEST_TAG_RE.match(lines[0].strip())
        if tag:
            test_id = tag.group(1).strip()
            lines = lines[1:]
        try:
            log.entries.append((trace_of(_frame_matches(lines)), test_id))
        except MalformedTrace as exc:
            logger.warning("skipping trace block: %s", exc)
            log.skipped_blocks += 1
    return log


def _frame_matches(lines: list[str]) -> list[re.Match]:
    """The `FRAME_RE` match of each line but a `---` one, each line matched
    once; `MalformedTrace` naming the first line that is neither."""
    matches = []
    for line in lines:
        m = FRAME_RE.match(line)
        if m:
            matches.append(m)
        elif line.strip() != "---":
            raise MalformedTrace(f"not a frame line: {line.strip()[:60]!r}")
    return matches
