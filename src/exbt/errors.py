"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class ExbtError(Exception):
    """Base class for all pipeline errors."""


# --- repository model ---

class IoError(ExbtError):
    """Filesystem problem while reading a repository or artifact."""


class NoJavaSources(ExbtError):
    """The repository root contains no .java files."""


class JavaParseError(ExbtError):
    """A source file could not be tokenized or structurally parsed."""


class UnknownMethod(ExbtError):
    """A method id does not resolve to any declaration in the repository."""


# --- command-line input ---

class BadInput(ExbtError):
    """A command-line argument or an input row is malformed."""


# --- test classification ---

class NotATest(ExbtError):
    """Method source carries no recognized test annotation."""


class NotEBT(ExbtError):
    """Operation requires an exceptional-behavior test."""


# --- stack traces ---

class MalformedTrace(ExbtError):
    """No line of the input matches the canonical frame syntax."""


class EmptyAfterExclusion(ExbtError):
    """All frames were removed by test/util exclusion."""


class NoThrowAtFrame(ExbtError):
    """The last frame's line does not hold a throw statement."""


class FrameOutOfSpan(ExbtError):
    """A frame's line is not inside the resolved method declaration."""


# --- guard expressions ---

class UnboundName(ExbtError):
    """Guard evaluation hit a free name missing from the environment."""


class UnsupportedConstruct(ExbtError):
    """Guard evaluation hit a construct outside the int/bool subset."""


# --- generation backend ---

class BackendUnavailable(ExbtError):
    """The text-generation backend is not configured or not reachable."""


class BackendTimeout(ExbtError):
    """The backend did not answer within the configured deadline."""

    def __init__(self, message: str, elapsed: float | None = None):
        super().__init__(message)
        self.elapsed = elapsed


class MalformedResponse(ExbtError):
    """The backend answered with a payload the adapter cannot interpret."""


# --- functional metrics ---

class RunnerUnavailable(ExbtError):
    """No build runner is configured for functional checks."""
