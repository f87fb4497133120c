"""Source rewriting that makes fixture repositories emit trace logs.

Two rewrites exist. The inference-path rewrite adds a one-line stack dump
at the top of every method that contains a throw statement. The
training-path rewrite makes an exceptional test print the caught
exception's trace at the point it is observed. Both insert whole lines
and record every edit, so originals can be restored byte-for-byte and
logged line numbers can be normalized back to original coordinates.

Running the instrumented code needs a JVM and is delegated to an external
build runner; the hermetic pipeline consumes pre-recorded logs in the
block format defined here: frame lines in JVM order, one optional
'test: <id>' tag line first, blocks separated by a '---' line.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from exbt.classifier import TestMethod
from exbt.errors import NotEBT
from exbt.jmodel import CompilationUnit, MethodDecl, RepoContext, parse_member
from exbt.jmodel.lexer import call_sites, find_top_level, match_paren
from exbt.stacktrace import StackTrace, parse_stack_trace
from exbt.errors import MalformedTrace

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

    path: str
    original: str
    rewritten: str
    inserted_lines: list[int] = field(default_factory=list)  # 1-based, rewritten coords
    replaced_lines: list[tuple[int, str]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def restore(self) -> str:
        """Byte-identical original, reconstructed from the recorded edits."""
        lines = self.rewritten.split("\n")
        for lineno, original_text in self.replaced_lines:
            lines[lineno - 1] = original_text
        for lineno in sorted(self.inserted_lines, reverse=True):
            del lines[lineno - 1]
        return "\n".join(lines)

    def to_original_line(self, rewritten_line: int) -> int:
        shift = sum(1 for l in self.inserted_lines if l <= rewritten_line)
        return rewritten_line - shift

    def offsets_json(self) -> str:
        return json.dumps(
            {
                "path": self.path,
                "inserted": sorted(self.inserted_lines),
                "replaced": [[l, t] for l, t in self.replaced_lines],
            },
            indent=0,
        )


def _indent_of(line: str) -> str:
    return line[: len(line) - len(line.lstrip())]


def _insert_after(lines: list[str], index0: int, text: str, rw: Rewrite) -> None:
    lines.insert(index0 + 1, text)
    insert_line = index0 + 2  # 1-based line number of the inserted line
    rw.inserted_lines = [l + 1 if l >= insert_line else l for l in rw.inserted_lines]
    rw.replaced_lines = [
        (l + 1 if l >= insert_line else l, t) for l, t in rw.replaced_lines
    ]
    rw.inserted_lines.append(insert_line)


def instrument_print_trace(
    ctx: RepoContext, log_path: str = "exbt-trace.log"
) -> dict[str, Rewrite | str]:
    """Per-file rewrites adding an entry dump to every throw-bearing method.

    Returns {relative path: Rewrite} plus the generated helper class under
    its own key. Methods whose body starts on the brace line, compact
    constructors and abstract members are skipped with a warning.
    """
    out: dict[str, Rewrite | str] = {}
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
    out[HELPER_FILE] = HELPER_SOURCE.replace(
        '"exbt-trace.log"', json.dumps(log_path)
    )
    return out


def _rewrite_trace_dumps(unit: CompilationUnit, targets: list[MethodDecl]) -> Rewrite | None:
    lines = unit.source.split("\n")
    rw = Rewrite(path=unit.path, original=unit.source, rewritten=unit.source)
    # bottom-up keeps earlier insert positions valid
    for m in sorted(targets, key=lambda m: m.decl_line, reverse=True):
        if m.tok_open is None:
            rw.skipped.append(f"{m.name}: no body to instrument")
            continue
        if m.compact:
            rw.skipped.append(f"{m.name}: compact constructor skipped")
            continue
        open_tok = unit.tokens[m.tok_open]
        first_body_tok = unit.tokens[m.tok_open + 1]
        if first_body_tok.line == open_tok.line:
            rw.skipped.append(
                f"{m.name}: body starts on the brace line, cannot insert"
            )
            continue
        open_line0 = open_tok.line - 1
        if open_line0 + 1 < len(lines) and TRACE_MARKER in lines[open_line0 + 1]:
            continue  # already instrumented
        indent = _indent_of(lines[open_line0]) + "    "
        stmt = f"{indent}{HELPER_PACKAGE}.ExbtTraceLog.dump(); {TRACE_MARKER}"
        _insert_after(lines, open_line0, stmt, rw)
    for reason in rw.skipped:
        logger.warning("%s: %s", unit.path, reason)
    if not rw.inserted_lines and not rw.skipped:
        return None
    rw.rewritten = "\n".join(lines)
    return rw


def instrument_print_exception(ebt: TestMethod) -> Rewrite:
    """Rewrite one exceptional test so the observed exception is printed.

    AnnotationExpected and ExpectedExceptionRule bodies are wrapped in a
    try/print/rethrow; TryFailCatch gains a print at the top of its catch
    block; AssertThrows binds the returned exception and prints it.
    """
    if not ebt.is_ebt:
        raise NotEBT(f"{ebt.id.label()} is not an exceptional-behavior test")
    source = ebt.body_text
    rw = Rewrite(path=ebt.id.decl_file, original=source, rewritten=source)
    if EXC_MARKER in source:
        return rw  # already instrumented
    unit, m = parse_member(source)
    lines = source.split("\n")  # line L is lines[L - 1]
    if ebt.pattern in ("AnnotationExpected", "ExpectedExceptionRule"):
        _wrap_body(unit, m, lines, rw)
    elif ebt.pattern == "TryFailCatch":
        _print_in_catch(unit, m, lines, rw)
    elif ebt.pattern == "AssertThrows":
        _capture_assert_throws(unit, m, lines, rw)
    rw.rewritten = "\n".join(lines)
    return rw


def _wrap_body(unit: CompilationUnit, m: MethodDecl, lines: list[str], rw: Rewrite) -> None:
    open_line0 = unit.tokens[m.tok_open].line - 1
    close_line0 = unit.tokens[m.tok_close].line - 1
    if close_line0 <= open_line0:
        rw.skipped.append(f"{m.name}: single-line body, cannot wrap")
        return
    indent = _indent_of(lines[open_line0]) + "    "
    catch = (
        f"{indent}}} catch (Throwable exbtEx) {{ "
        f"{HELPER_PACKAGE}.ExbtTraceLog.dumpException(exbtEx); "
        "if (exbtEx instanceof RuntimeException) { throw (RuntimeException) exbtEx; } "
        "else if (exbtEx instanceof Error) { throw (Error) exbtEx; } "
        f"else {{ throw new RuntimeException(exbtEx); }} }} {EXC_MARKER}"
    )
    _insert_after(lines, close_line0 - 1, catch, rw)
    _insert_after(lines, open_line0, f"{indent}try {{ {EXC_MARKER}", rw)


def _print_in_catch(unit, m: MethodDecl, lines: list[str], rw: Rewrite) -> None:
    toks = unit.tokens
    k = m.tok_open + 1
    while k < m.tok_close:
        if toks[k].text == "catch":
            open_p = k + 1
            close_p = match_paren(toks, open_p)
            var_tok = toks[close_p - 1]
            open_b = close_p + 1
            if toks[open_b].text != "{":
                k += 1
                continue
            if toks[open_b + 1].line == toks[open_b].line:
                rw.skipped.append("catch body starts on the brace line, cannot insert")
                return
            line0 = toks[open_b].line - 1
            indent = _indent_of(lines[line0]) + "    "
            stmt = (
                f"{indent}{HELPER_PACKAGE}.ExbtTraceLog.dumpException({var_tok.text});"
                f" {EXC_MARKER}"
            )
            _insert_after(lines, line0, stmt, rw)
            return
        k += 1


def _capture_assert_throws(unit, m: MethodDecl, lines: list[str], rw: Rewrite) -> None:
    """Print what the first assertThrows call returns, right after the ';'
    of its statement. A call assigned to a name prints that name; a call
    that starts its statement is bound to `exbtEx` at its first token; any
    other call is skipped with a reason."""
    toks = unit.tokens
    for k, _, _, close in call_sites(toks, m.tok_open + 1, m.tok_close):
        if toks[k].text == "assertThrows":
            break
    else:
        return
    start = k  # a qualifier (Assertions.) starts the call
    while toks[start - 1].text == "." and start - 2 > m.tok_open:
        start -= 2
    semi = toks[find_top_level(toks, close + 1, m.tok_close, (";",))]
    edits = []  # (line, offset, text to insert there), in source order
    if toks[start - 1].text == "=":
        bound = toks[start - 2].text
    elif toks[start - 1].text in ("{", ";", "}"):
        bound = "exbtEx"
        edits.append((toks[start].line, toks[start].offset, "java.lang.Throwable exbtEx = "))
    else:
        rw.skipped.append(f"{m.name}: assertThrows does not start its statement, cannot bind it")
        return
    dump = f" {HELPER_PACKAGE}.ExbtTraceLog.dumpException({bound}); {EXC_MARKER}"
    edits.append((semi.line, semi.end, dump))
    for line in dict.fromkeys(e[0] for e in edits):
        rw.replaced_lines.append((line, lines[line - 1]))
    for line, offset, text in reversed(edits):  # the later one first: columns hold
        col = offset - unit.source.rfind("\n", 0, offset) - 1
        lines[line - 1] = lines[line - 1][:col] + text + lines[line - 1][col:]


@dataclass
class TraceLog:
    """Parsed trace-log file: (trace, originating test id) entries."""

    entries: list[tuple[StackTrace, str]] = field(default_factory=list)
    skipped_blocks: int = 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


_TEST_TAG_RE = re.compile(r"^test:\s*(\S.*)$")
# a byte that is not UTF-8, as a surrogateescape decode keeps it
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


def parse_trace_log(text: str) -> TraceLog:
    """Parse the block format: one trace per '---'-separated block.

    Malformed blocks (any line that is neither a tag nor a frame, or bytes
    that are not UTF-8) are skipped and counted, never fatal.
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
        frame_lines = lines
        if tag:
            test_id = tag.group(1).strip()
            frame_lines = lines[1:]
        if not frame_lines:
            log.skipped_blocks += 1
            continue
        ok = all(
            l.strip().startswith("at ") or l.strip() == "---" for l in frame_lines
        )
        if not ok:
            logger.warning("skipping malformed trace block: %r", lines[0][:60])
            log.skipped_blocks += 1
            continue
        try:
            trace = parse_stack_trace("\n".join(frame_lines))
        except MalformedTrace:
            log.skipped_blocks += 1
            continue
        log.entries.append((trace, test_id))
    return log
