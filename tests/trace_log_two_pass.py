"""The two-pass trace-log reader that `instrument.parse_trace_log` replaced,
kept as its equivalence oracle: it checks every frame line of a block with
`FRAME_RE`, joins the lines, and `parse_stack_trace` splits and matches
them again."""

from __future__ import annotations

import logging
import re

from exbt.errors import MalformedTrace
from exbt.stacktrace import FRAME_RE, SYNTHETIC_PREFIXES, Frame, StackTrace, TraceLog

logger = logging.getLogger(__name__)


def _is_synthetic(class_fqn: str) -> bool:
    return class_fqn.startswith(SYNTHETIC_PREFIXES)


def parse_stack_trace(text: str) -> StackTrace:
    """Parse raw JVM trace text into a MUT-first StackTrace.

    Only the first cause segment is read. Synthetic frames (reflection,
    runners) are dropped; so is any other frame without a usable line (no
    line, a negative one, `Unknown Source`, `Native Method`), with a warning.
    """
    jvm_order: list[Frame] = []
    saw_frame_line = False
    for raw in text.splitlines():
        if raw.strip().startswith("Caused by:"):
            break
        m = FRAME_RE.match(raw)
        if not m:
            continue
        saw_frame_line = True
        fqn, method, file_name, line = m.groups()
        if _is_synthetic(fqn):
            continue
        if line is None or line.startswith("-") or not file_name.endswith(".java"):
            logger.warning("dropping frame without line number: %s", raw.strip())
            continue
        jvm_order.append(Frame(fqn, method, file_name, int(line)))
    if not saw_frame_line:
        raise MalformedTrace("no line matches the canonical frame syntax")
    if not jvm_order:
        raise MalformedTrace("all frames were synthetic or lacked line numbers")
    return StackTrace(tuple(reversed(jvm_order)))


_TEST_TAG_RE = re.compile(r"^test:\s*(\S.*)$")
# a byte that is not UTF-8, as a surrogateescape decode keeps it
_UNDECODABLE_RE = re.compile("[\udc80-\udcff]")


def parse_trace_log(text: str) -> TraceLog:
    """Parse the block format: one trace per '---'-separated block.

    Malformed blocks (any line that is neither a tag nor a frame as
    `FRAME_RE` reads one, or bytes that are not UTF-8) are skipped and
    counted, never fatal.
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
        if not all(FRAME_RE.match(l) or l.strip() == "---" for l in frame_lines):
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
