"""Exception hierarchy shared across the pipeline, `read_input`, the one
reader of input files, and `check_records`, which checks the shape of the
JSON records a file holds; both name a malformed file in a BadInput."""

from __future__ import annotations

import json
from pathlib import Path


class ExbtError(Exception):
    """Base class for all pipeline errors."""


# --- repository model ---

class IoError(ExbtError):
    """Filesystem problem while reading a repository or artifact."""


class NoJavaSources(ExbtError):
    """The repository root contains no .java files."""


class JavaParseError(ExbtError):
    """A source file could not be tokenized or structurally parsed.
    `offset`, set when tokenizing failed, is where the lexer stopped: the
    text before it lexes."""

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class UnknownMethod(ExbtError):
    """A method id does not resolve to any declaration in the repository."""


# --- command-line input ---

class BadInput(ExbtError):
    """A command-line argument or an input row is malformed."""


def read_input(path, as_json: bool = False):
    """An input file's UTF-8 text, or the JSON value it holds; BadInput,
    naming the file, when it is not UTF-8 or not JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        return json.loads(text) if as_json else text
    except UnicodeDecodeError as exc:
        raise BadInput(f"{path}: not UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise BadInput(f"{path}: not JSON ({exc})") from exc


def check_records(path, data, strings: tuple[str, ...], required: tuple[str, ...] = ()):
    """data, when it is a list of objects in which each field of `strings`
    is a string where present and each of `required` is present; else
    BadInput naming the file."""
    if not isinstance(data, list):
        raise BadInput(f"{path}: not a JSON list of objects")
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            raise BadInput(f"{path}: entry {i} is not an object")
        for key in strings:
            if (key in row or key in required) and not isinstance(row.get(key), str):
                raise BadInput(f"{path}: entry {i} has no string {key!r}")
    return data


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
    """A frame's line is not inside the body of any declaration of that name."""


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
