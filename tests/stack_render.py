"""`render_stack_trace`, the round-trip oracle of `parse_stack_trace`: it
prints a MUT-first trace back in JVM order, one frame per line."""

from __future__ import annotations

from exbt.stacktrace import StackTrace


def render_stack_trace(trace: StackTrace) -> str:
    """Inverse of parse_stack_trace: JVM order, one frame per line."""
    return "\n".join(f.render() for f in reversed(trace.frames))
