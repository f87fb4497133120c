"""JVM stack-trace parsing and frame exclusion.

Traces are stored MUT-first: frames[0] is the method under test and the
last frame holds the target throw statement. The JVM prints the opposite
(innermost first), so the parser reverses it.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass

from exbt.errors import (
    EmptyAfterExclusion,
    MalformedTrace,
    NoThrowAtFrame,
)
from exbt.jmodel import RepoContext, MethodId, ThrowSite

logger = logging.getLogger(__name__)

# canonical frame: at com.foo.Bar.check(Bar.java:12)
FRAME_RE = re.compile(
    r"^\s*at\s+([\w.$]+)\.([\w$]+|<init>|<clinit>)\(([^():]+\.java):(\d+)\)\s*$"
)
# frames the JVM emits around user code but never useful for AST lookup
NO_LINE_RE = re.compile(
    r"^\s*at\s+([\w.$]+)\.([\w$<>]+)\((?:Unknown Source|Native Method)\)\s*$"
)

SYNTHETIC_PREFIXES = (
    "java.",
    "javax.",
    "jdk.",
    "sun.",
    "com.sun.",
    "org.junit.",
    "junit.",
    "org.testng.",
    "org.gradle.",
    "org.apache.maven.",
    "org.mockito.",
    "worker.org.gradle.",
)


@dataclass(frozen=True)
class Frame:
    class_fqn: str
    method: str
    file: str  # file name only, e.g. Bar.java, or <unknown>
    line: int

    def render(self) -> str:
        return f"at {self.class_fqn}.{self.method}({self.file}:{self.line})"


@dataclass(frozen=True)
class StackTrace:
    frames: tuple[Frame, ...]  # MUT-first; last frame holds the throw

    def to_rows(self) -> list[list]:
        """The JSON form of a trace: [class_fqn, method, file, line] per frame."""
        return [[f.class_fqn, f.method, f.file, f.line] for f in self.frames]

    def __len__(self) -> int:
        return len(self.frames)

    def with_last_line(self, line: int) -> "StackTrace":
        """Same trace with the throw frame retargeted to another line."""
        last = self.frames[-1]
        retargeted = Frame(last.class_fqn, last.method, last.file, line)
        return StackTrace(self.frames[:-1] + (retargeted,))


def _is_synthetic(class_fqn: str) -> bool:
    return class_fqn.startswith(SYNTHETIC_PREFIXES)


def parse_stack_trace(text: str) -> StackTrace:
    """Parse raw JVM trace text into a MUT-first StackTrace.

    Only the first cause segment is read; synthetic frames (reflection,
    runners) and frames without a usable line number are dropped.
    """
    jvm_order: list[Frame] = []
    saw_frame_line = False
    for raw in text.splitlines():
        if raw.strip().startswith("Caused by:"):
            break
        m = FRAME_RE.match(raw)
        if m:
            saw_frame_line = True
            fqn, method, file_name, line = m.groups()
            if _is_synthetic(fqn):
                continue
            jvm_order.append(Frame(fqn, method, file_name, int(line)))
            continue
        if NO_LINE_RE.match(raw):
            saw_frame_line = True
            logger.warning("dropping frame without line number: %s", raw.strip())
            continue
    if not saw_frame_line:
        raise MalformedTrace("no line matches the canonical frame syntax")
    if not jvm_order:
        raise MalformedTrace("all frames were synthetic or lacked line numbers")
    return StackTrace(tuple(reversed(jvm_order)))


def exclude_test_and_util_frames(
    trace: StackTrace, dest: str, ctx: RepoContext
) -> StackTrace:
    """Cut the trace at the test, then drop test and util frames.

    Every frame before the outermost one whose class is declared in a test
    file goes: launchers, runners, build tools and harnesses. Of the rest,
    a frame of a known class goes when that class is declared in a test
    file, any other frame when its file name is the destination's or a
    test file's.
    """
    dest_name = dest.rsplit("/", 1)[-1]
    tests = ctx.test_class_fqns
    cut = next((k for k, f in enumerate(trace.frames) if f.class_fqn in tests), 0)

    def keep(f: Frame) -> bool:
        if ctx.declares_type(f.class_fqn):
            return f.class_fqn not in tests
        return (f.file, None) not in ctx.test_files_by_name and f.file != dest_name

    kept = tuple(f for f in trace.frames[cut:] if keep(f))
    if not kept:
        raise EmptyAfterExclusion(
            f"no frames left after excluding test/util methods against {dest_name}"
        )
    return StackTrace(kept)


def endpoints(
    trace: StackTrace, ctx: RepoContext, expected_exception: str | None = None
) -> tuple[MethodId, ThrowSite]:
    """(method under test, target throw site) for a normalized trace. Of two
    throws on the throw frame's line, the one whose exception type has the
    simple name of `expected_exception` wins, else the first."""
    first = trace.frames[0]
    _, _, decl = ctx.resolve_frame(first.class_fqn, first.method, first.line)
    mut = decl.mid
    last = trace.frames[-1]
    _, _, decl2 = ctx.resolve_frame(last.class_fqn, last.method, last.line)
    sites = ctx.throw_sites_by_method.get(decl2.mid, ())
    on_line = [site for site in sites if site.line == last.line]
    if not on_line:
        raise NoThrowAtFrame(f"{last.file}:{last.line} holds no throw statement in {decl2.name}")
    want = (expected_exception or "").rsplit(".", 1)[-1]
    named = [site for site in on_line if site.exception_type.rsplit(".", 1)[-1] == want]
    return mut, (named or on_line)[0]
