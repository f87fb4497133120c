"""JVM stack-trace parsing and frame exclusion.

Traces are stored MUT-first: frames[0] is the method under test and the
last frame holds the target throw statement. The JVM prints the opposite
(innermost first), so the parser reverses it.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass, field, replace

from exbt.errors import (
    EmptyAfterExclusion,
    MalformedTrace,
    NoThrowAtFrame,
)
from exbt.jmodel import RepoContext, MethodId, ThrowSite

logger = logging.getLogger(__name__)

# a frame: at com.foo.Bar.check(Bar.java:12); the JVM may print the class
# after its class loader and module (`java.base/`, `app//`), and the file
# without a line, a negative line, `Unknown Source` or `Native Method`
FRAME_RE = re.compile(
    r"^\s*at\s+(?:[^\s/()]*/)*([\w.$]+)\.([\w$]+|<init>|<clinit>)\(([^():]*)(?::(-?\d+))?\)\s*$"
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
    file: str  # file name only, e.g. Bar.java
    line: int
    # the method the frame names, set by `resolve_trace`; None before
    mid: MethodId | None = field(default=None, repr=False)

    def render(self) -> str:
        return f"at {self.class_fqn}.{self.method}({self.file}:{self.line})"


@dataclass(frozen=True)
class StackTrace:
    frames: tuple[Frame, ...]  # MUT-first; last frame holds the throw

    def to_rows(self) -> list[list]:
        """The JSON form of a trace: [class_fqn, method, file, line] per frame."""
        return [[f.class_fqn, f.method, f.file, f.line] for f in self.frames]

    def with_last_line(self, line: int) -> "StackTrace":
        """Same trace with the throw frame retargeted to another line."""
        return StackTrace(self.frames[:-1] + (replace(self.frames[-1], line=line),))


@dataclass
class TraceLog:
    """Parsed trace-log file: (trace, originating test id) entries."""

    entries: list[tuple[StackTrace, str]] = field(default_factory=list)
    skipped_blocks: int = 0

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


def trace_of(matches: Iterable[re.Match]) -> StackTrace:
    """The MUT-first StackTrace of `FRAME_RE` matches given in JVM order.

    Synthetic frames (reflection, runners) are dropped; so is any other
    frame without a usable line (no line, a negative one, `Unknown Source`,
    `Native Method`), with a warning. `MalformedTrace` when no frame is left.
    """
    jvm_order: list[Frame] = []
    for m in matches:
        fqn, method, file_name, line = m.groups()
        if fqn.startswith(SYNTHETIC_PREFIXES):
            continue
        if line is None or line.startswith("-") or not file_name.endswith(".java"):
            logger.warning("dropping frame without line number: %s", m.string.strip())
            continue
        jvm_order.append(Frame(fqn, method, file_name, int(line)))
    if not jvm_order:
        raise MalformedTrace("no frame with a line number outside the synthetic packages")
    return StackTrace(tuple(reversed(jvm_order)))


def parse_stack_trace(text: str) -> StackTrace:
    """Parse raw JVM trace text into a MUT-first StackTrace (see `trace_of`).

    Only the first cause segment is read; lines that are not frames are
    passed over.
    """
    matches = []
    for raw in text.splitlines():
        if raw.strip().startswith("Caused by:"):
            break
        m = FRAME_RE.match(raw)
        if m:
            matches.append(m)
    return trace_of(matches)


def exclude_test_and_util_frames(trace: StackTrace, ctx: RepoContext) -> StackTrace:
    """Cut the trace at the test, then drop test and util frames.

    Every frame before the outermost one whose class is declared in a test
    file goes: launchers, runners, build tools and harnesses. Of the rest,
    a frame of a known class goes when that class is declared in a test
    file, any other frame when its file name is a test file's. Only the
    repository is read.
    """
    tests = ctx.test_class_fqns
    cut = next((k for k, f in enumerate(trace.frames) if f.class_fqn in tests), 0)

    def keep(f: Frame) -> bool:
        if ctx.declares_type(f.class_fqn):
            return f.class_fqn not in tests
        return (f.file, None) not in ctx.test_files_by_name

    kept = tuple(f for f in trace.frames[cut:] if keep(f))
    if not kept:
        raise EmptyAfterExclusion("no frames left after excluding test/util methods")
    return StackTrace(kept)


def resolve_trace(trace: StackTrace, ctx: RepoContext) -> StackTrace:
    """The trace cut at the test, with test and util frames excluded (see
    `exclude_test_and_util_frames`) and each frame's method set:
    `UnknownMethod` for a frame that names no method of the repository,
    `FrameOutOfSpan` for one whose line no body of that name holds. The
    one place frames are resolved."""
    frames = []
    for f in exclude_test_and_util_frames(trace, ctx).frames:
        _, _, decl = ctx.resolve_frame(f.class_fqn, f.method, f.line)
        frames.append(replace(f, mid=decl.mid))
    return StackTrace(tuple(frames))


def endpoints(
    trace: StackTrace, ctx: RepoContext, expected_exception: str | None = None
) -> tuple[MethodId, ThrowSite]:
    """(method under test, target throw site) for a resolved trace. Of two
    throws on the throw frame's line, the one whose exception type has the
    simple name of `expected_exception` wins, else the first."""
    last = trace.frames[-1]
    on_line = [site for site in ctx.throw_sites_by_method.get(last.mid, ())
               if site.line == last.line]
    if not on_line:
        raise NoThrowAtFrame(f"{last.file}:{last.line} holds no throw statement in {last.method}")
    want = (expected_exception or "").rsplit(".", 1)[-1]
    named = [site for site in on_line if site.exception_type.rsplit(".", 1)[-1] == want]
    return trace.frames[0].mid, (named or on_line)[0]
