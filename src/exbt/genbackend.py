"""Pluggable text-generation backend and candidate extraction.

The wire contract is one POST of {prompt, max_tokens, temperature, seed,
stop[]} answered with {"text": ...}. A stub backend replays canned
completions (matched by instruction digest or by substring) so the whole
pipeline runs hermetically and byte-reproducibly. A `RequestLog` records
every request with the digest of its answer, or its error, for replay.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from exbt.classifier import has_test_annotation
from exbt.errors import (
    BackendTimeout,
    BackendUnavailable,
    ExbtError,
    JavaParseError,
    MalformedResponse,
    check_records,
    read_input,
)
from exbt.jmodel.lexer import index_of, match_brace, tokenize
from exbt.manifest import json_line
from exbt.metrics import Sides


@dataclass(frozen=True)
class GenerationParams:
    max_new_tokens: int = 512
    temperature: float = 0.0
    seed: int = 0
    stop: tuple[str, ...] = ()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def answer_fields(answer: str | ExbtError) -> dict:
    """A completion's digest, or the name of the error its request raised."""
    if isinstance(answer, ExbtError):
        return {"error": type(answer).__name__}
    return {"completion_digest": digest(answer)}


@dataclass
class RequestLog:
    entries: list[dict] = field(default_factory=list)

    def record(self, instruction: str, params: GenerationParams, answer: str | ExbtError,
               backend: str):
        """One request, with `answer_fields` of its answer."""
        self.entries.append(
            {
                "n": len(self.entries),
                "backend": backend,
                "instruction_digest": digest(instruction),
                "params": dict(vars(params)),
                **answer_fields(answer),
            }
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for e in self.entries:
                f.write(json_line(e))


class StubBackend:
    """Deterministic canned backend for hermetic runs.

    Canned entries match by exact instruction digest ('digest') or by
    substring ('contains'); first match wins, in file order. A 'default'
    entry (no matcher) answers anything else.
    """

    kind = "stub"

    def __init__(self, canned: list[dict] | None = None):
        self.canned = canned or []

    @classmethod
    def from_file(cls, path) -> "StubBackend":
        data = read_input(path, as_json=True)
        if isinstance(data, dict):
            data = data.get("completions", [])
        return cls(check_records(path, data, ("completion", "contains"), ("completion",)))

    def generate(self, instruction: str, params: GenerationParams) -> str:
        inst_digest = digest(instruction)
        completion = None
        for entry in self.canned:
            if "digest" in entry and entry["digest"] == inst_digest:
                completion = entry["completion"]
                break
            if "contains" in entry and entry["contains"] in instruction:
                completion = entry["completion"]
                break
            if "digest" not in entry and "contains" not in entry:
                completion = entry["completion"]
                break
        if completion is None:
            raise BackendUnavailable(
                f"stub has no completion for instruction {inst_digest[:12]}"
            )
        return completion


class HttpBackend:
    """Minimal HTTP adapter for hosted or local generation servers.

    Every request goes through one `requests.Session`, which the worker
    threads of `generate_many` share, so a sweep's requests reuse their
    connections to the server."""

    kind = "http"

    def __init__(self, url: str, auth_token: str | None = None, timeout: float = 60.0):
        if not url:
            raise BackendUnavailable("BACKEND_URL is not configured")
        import requests

        self.url = url
        self.auth_token = auth_token
        self.timeout = timeout
        self.session = requests.Session()

    def generate(self, instruction: str, params: GenerationParams) -> str:
        import requests

        headers = {"Content-Type": "application/json"}
        if self.auth_token:
            headers["Authorization"] = f"Bearer {self.auth_token}"
        payload = {
            "prompt": instruction,
            "max_tokens": params.max_new_tokens,
            "temperature": params.temperature,
            "seed": params.seed,
            "stop": list(params.stop),
        }
        try:
            resp = self.session.post(
                self.url, json=payload, headers=headers, timeout=self.timeout
            )
        except requests.Timeout as exc:
            raise BackendTimeout(
                f"no answer within {self.timeout}s", elapsed=self.timeout
            ) from exc
        except requests.RequestException as exc:
            raise BackendUnavailable(str(exc)) from exc
        try:
            data = resp.json()
        except ValueError as exc:
            raise MalformedResponse(
                f"non-JSON response (status {resp.status_code})"
            ) from exc
        text = _extract_text_field(data)
        if text is None:
            raise MalformedResponse(f"no text field in response keys {sorted(data)}")
        return text


def _extract_text_field(data) -> str | None:
    """Map common provider response shapes onto the plain text contract."""
    if not isinstance(data, dict):
        return None
    if isinstance(data.get("text"), str):
        return data["text"]
    choices = data.get("choices")
    if isinstance(choices, list) and choices:
        first = choices[0]
        if isinstance(first, dict):
            if isinstance(first.get("text"), str):
                return first["text"]
            msg = first.get("message")
            if isinstance(msg, dict) and isinstance(msg.get("content"), str):
                return msg["content"]
    if isinstance(data.get("completion"), str):
        return data["completion"]
    return None


def generate_many(
    backend,
    instructions: list[str],
    params: GenerationParams,
    max_in_flight: int = 4,
) -> list[str | ExbtError]:
    """Run many generations; only `HttpBackend` requests run concurrently,
    at most `max_in_flight` at a time.

    Each instruction's completion, or the `ExbtError` its request raised,
    comes back in input order; any other exception propagates. Any other
    backend does no I/O that threads could overlap, so it answers inline,
    one instruction after another.
    """
    if not isinstance(backend, HttpBackend):
        return [_answer(backend, inst, params) for inst in instructions]
    workers = max(1, min(max_in_flight, len(instructions)))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(backend.generate, inst, params) for inst in instructions]
        return [e if isinstance(e := f.exception(), ExbtError) else f.result() for f in futures]


def _answer(backend, instruction: str, params: GenerationParams) -> str | ExbtError:
    """The backend's completion, or the `ExbtError` its request raised."""
    try:
        return backend.generate(instruction, params)
    except ExbtError as exc:
        return exc


def make_backend(
    kind: str | None = None,
    url: str | None = None,
    stub_file=None,
    auth_token: str | None = None,
):
    """The backend of `kind` (default "stub"); callers resolve kind, url
    and token, environment included, through `Config.get`."""
    kind = kind or "stub"
    if kind == "stub":
        if stub_file:
            return StubBackend.from_file(stub_file)
        return StubBackend([])
    if kind == "http":
        return HttpBackend(url or "", auth_token=auth_token)
    raise BackendUnavailable(f"unknown backend kind {kind!r}")


# --- candidate extraction ---

_FENCE = "```"


def _fenced_blocks(completion: str) -> list[str]:
    blocks = []
    parts = completion.split(_FENCE)
    # odd indexes are inside fences
    for k in range(1, len(parts), 2):
        body = parts[k]
        # drop a language tag on the first line
        if "\n" in body:
            first, rest = body.split("\n", 1)
            if first.strip().isalpha() or first.strip() == "":
                body = rest
        blocks.append(body)
    return blocks


def _test_method_at(chunk: str, at: int, sides: Sides) -> str | None:
    """The method whose annotation starts at chunk[at], when its braces
    balance under the lexer and it parses as a test method; else None.

    The text from `at` is lexed; when the prose after the method does not
    lex, the text before the point where the lexer stopped is lexed
    instead. The candidate ends at the '}' that closes its first '{', and
    `sides` parses it from those same tokens, so it is lexed once."""
    text = chunk[at:]
    try:
        tokens = tokenize(text)
    except JavaParseError as exc:
        tokens = tokenize(text[: exc.offset])
    try:
        close = match_brace(tokens, index_of(tokens, 0, "{"))
    except JavaParseError:
        return None
    candidate = text[: tokens[close].end]
    _, m = sides.member(candidate, tokens[: close + 1]) or (None, None)
    return candidate if m and m.tok_open is not None and has_test_annotation(m) else None


def extract_candidate(completion: str, sides: Sides | None = None) -> str | None:
    """First complete test-annotated method in a completion, or None.

    The fenced code blocks are searched in order, or the whole completion
    when it has none; in each, every `@Test` in turn starts a candidate,
    and the first whose braces balance under the lexer and that parses as
    a test method wins. Each candidate is lexed and parsed through `sides`,
    so one `Sides` shared with scoring lexes and parses each text of a
    command once.
    """
    sides = Sides() if sides is None else sides
    for chunk in _fenced_blocks(completion) or [completion]:
        at = chunk.find("@Test")
        while at >= 0:
            candidate = _test_method_at(chunk, at, sides)
            if candidate is not None:
                return candidate
            at = chunk.find("@Test", at + 1)
    return None
