from __future__ import annotations

import contextlib
import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import pytest

from conftest import REPO_A
from exbt import genbackend, metrics
from exbt.cli import main
from exbt.config import Config
from exbt.errors import BackendTimeout, BackendUnavailable, MalformedResponse
from exbt.genbackend import (
    GenerationParams,
    HttpBackend,
    RequestLog,
    StubBackend,
    digest,
    extract_candidate,
    generate_many,
    make_backend,
)
from exbt.jmodel import lexer
from exbt.metrics import Sides, score_candidate
from test_cli import _count_calls, _left_to_collector

PARAMS = GenerationParams(max_new_tokens=64, temperature=0.0, seed=7)


# --- stub backend ---


def test_stub_digest_match():
    instruction = "write a test"
    stub = StubBackend([{"digest": digest(instruction), "completion": "ok"}])
    assert stub.generate(instruction, PARAMS) == "ok"


def test_stub_contains_match_first_wins():
    stub = StubBackend(
        [
            {"contains": "Account.java:14", "completion": "withdraw test"},
            {"contains": "Account", "completion": "generic"},
        ]
    )
    assert stub.generate("target Account.java:14 please", PARAMS) == "withdraw test"
    assert stub.generate("target Account.java:22 please", PARAMS) == "generic"


def test_stub_no_match_is_unavailable():
    with pytest.raises(BackendUnavailable):
        StubBackend([]).generate("anything", PARAMS)


def test_stub_replay_determinism(tmp_path):
    log = RequestLog()
    stub = StubBackend([{"contains": "x", "completion": "fixed body"}])
    first, second = generate_many(stub, ["x marks the spot"] * 2, PARAMS)
    for completion in (first, second):
        log.record("x marks the spot", PARAMS, completion, stub.kind)
    assert first == second
    log.write(tmp_path / "requests.jsonl")
    entries = [json.loads(l) for l in (tmp_path / "requests.jsonl").read_text().splitlines()]
    assert len(entries) == 2
    assert entries[0]["completion_digest"] == entries[1]["completion_digest"]
    assert entries[0]["instruction_digest"] == digest("x marks the spot")


class _SecondTimesOut:
    kind = "fake"

    def generate(self, instruction, params):
        if instruction == "two":
            raise BackendTimeout("no answer", elapsed=1.0)
        if instruction == "bug":
            raise TypeError("not a backend error")
        return instruction.upper()


def test_generate_many_keeps_each_error_in_its_place():
    one, two, three = generate_many(_SecondTimesOut(), ["one", "two", "three"], PARAMS,
                                    max_in_flight=3)
    assert (one, three) == ("ONE", "THREE")
    assert isinstance(two, BackendTimeout)
    with pytest.raises(TypeError):
        generate_many(_SecondTimesOut(), ["one", "bug", "three"], PARAMS, max_in_flight=3)


def _no_threads(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an in-process backend started a thread pool")

    monkeypatch.setattr(genbackend, "ThreadPoolExecutor", fail)


def test_generate_many_answers_a_stub_inline(monkeypatch):
    """The stub does no I/O, so it answers in the caller's thread, in
    input order, with each error in its place."""
    _no_threads(monkeypatch)
    stub = StubBackend([{"contains": "one", "completion": "ONE"},
                        {"contains": "three", "completion": "THREE"}])
    one, two, three = generate_many(stub, ["one", "two", "three"], PARAMS, max_in_flight=3)
    assert (one, three) == ("ONE", "THREE")
    assert isinstance(two, BackendUnavailable)
    assert generate_many(stub, [], PARAMS) == []


def test_stub_sweep_starts_no_thread(capsys, tmp_path, monkeypatch):
    _no_threads(monkeypatch)
    code = main(["sweep", str(REPO_A), "--seed", "42", "--backend", "stub",
                 "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 0


# --- http backend against a real local server ---

CANNED = json.loads((REPO_A / "canned/completions.json").read_text())["completions"]


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        if self.path == "/ok":
            payload = json.dumps({"text": "echo: " + body["prompt"][:10]})
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload.encode())
        elif self.path == "/choices":
            payload = json.dumps({"choices": [{"message": {"content": "chatty"}}]})
            self.send_response(200)
            self.end_headers()
            self.wfile.write(payload.encode())
        elif self.path == "/canned":  # repoA's completions; non-JSON for Ledger.java:8
            if "Ledger.java:8" in body["prompt"]:
                payload = "<html>oops</html>"
            else:
                payload = json.dumps({"text": next(
                    c["completion"] for c in CANNED if c["contains"] in body["prompt"])})
            self.send_response(200)
            self.end_headers()
            self.wfile.write(payload.encode())
        elif self.path == "/notjson":
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"<html>oops</html>")
        elif self.path == "/slow":
            import time

            time.sleep(2)
            self.send_response(200)
            self.end_headers()
            self.wfile.write(b"{}")
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_port}"
    httpd.shutdown()
    httpd.server_close()


def test_http_plain_text_contract(server):
    backend = HttpBackend(server + "/ok")
    assert backend.generate("hello world", PARAMS) == "echo: hello worl"[:16]


def test_http_choices_shape_adapts(server):
    assert HttpBackend(server + "/choices").generate("x", PARAMS) == "chatty"


def test_http_non_json_is_malformed(server):
    with pytest.raises(MalformedResponse):
        HttpBackend(server + "/notjson").generate("x", PARAMS)


def test_http_missing_text_is_malformed(server):
    with pytest.raises(MalformedResponse):
        HttpBackend(server + "/slow", timeout=10).generate("x", PARAMS)


def test_http_deadline(server):
    with pytest.raises(BackendTimeout) as err:
        HttpBackend(server + "/slow", timeout=0.2).generate("x", PARAMS)
    assert err.value.elapsed == 0.2


def test_sweep_over_http_ends_only_the_malformed_target(server, tmp_path, monkeypatch, capsys):
    for name in ("EXBT_BACKEND_KIND", "BACKEND_KIND", "BACKEND_URL"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("EXBT_BACKEND_URL", server + "/canned")
    out = tmp_path / "out"
    code = main(["sweep", str(REPO_A), "--seed", "42", "--backend", "http",
                 "--max-in-flight", "4", "--out", str(out)])
    assert code == 0
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    assert {r["target"].rsplit("/", 1)[1]: (r["status"], r.get("error")) for r in rows} == {
        "Account.java:14": ("generated", None),
        "Account.java:22": ("generated", None),
        "Ledger.java:8": ("backend-error", "MalformedResponse"),
    }
    requests = [json.loads(l) for l in (out / "requests.jsonl").read_text().splitlines()]
    assert [(e["backend"], e.get("error")) for e in requests] == [
        ("http", None), ("http", None), ("http", "MalformedResponse")]
    assert json.loads((out / "manifest.json").read_text())["counters"]["backend_errors"] == 1


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """Answers every POST over HTTP/1.1 with a Content-Length, so a client
    may send its next request on the same connection, and records the
    client port of each request."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.ports.append(self.client_address[1])
        payload = json.dumps({"text": "re: " + body["prompt"]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@contextlib.contextmanager
def _keep_alive_server():
    """(url, client ports of the requests served) of a threading HTTP/1.1
    server, shut down on exit."""
    httpd = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    httpd.ports = []
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_port}/", httpd.ports
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def test_http_requests_share_one_connection():
    with _keep_alive_server() as (url, ports):
        backend = HttpBackend(url)
        try:
            assert [backend.generate(p, PARAMS) for p in "abc"] == ["re: a", "re: b", "re: c"]
        finally:
            backend.session.close()
    assert len(ports) == 3 and len(set(ports)) == 1


def test_generate_many_threads_share_one_session():
    """Eight workers on two cores post through one session, with thread
    switches forced often: each answer stays with its own prompt, and no
    more connections open than there are workers."""
    prompts = [f"p{k}" for k in range(40)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _keep_alive_server() as (url, ports):
            backend = HttpBackend(url, timeout=10)
            try:
                answers = generate_many(backend, prompts, PARAMS, max_in_flight=8)
            finally:
                backend.session.close()
    finally:
        sys.setswitchinterval(interval)
    assert answers == [f"re: {p}" for p in prompts]
    assert len(ports) == 40 and len(set(ports)) <= 8


def _unreachable_after_requests(url: str, n: int) -> int:
    backend = HttpBackend(url, timeout=10)
    try:
        prompts = [f"p{k}" for k in range(n)]
        answers, garbage = _left_to_collector(
            lambda: generate_many(backend, prompts, PARAMS, max_in_flight=4))
    finally:
        backend.session.close()
    assert answers == [f"re: {p}" for p in prompts]
    return len(garbage)


def test_http_requests_leave_no_cycles_that_grow_with_their_number():
    with _keep_alive_server() as (url, _):
        assert _unreachable_after_requests(url, 10) == _unreachable_after_requests(url, 50)


def test_http_unreachable_is_unavailable():
    with pytest.raises(BackendUnavailable):
        HttpBackend("http://127.0.0.1:1/none", timeout=0.5).generate("x", PARAMS)


def test_make_backend_env(monkeypatch):
    # the backend's environment variables are read by Config.get alone
    monkeypatch.setenv("BACKEND_KIND", "http")
    monkeypatch.setenv("BACKEND_URL", "http://127.0.0.1:9/x")
    monkeypatch.setenv("BACKEND_AUTH_TOKEN", "t0k")
    assert isinstance(make_backend(), StubBackend)
    cfg = Config()
    backend = make_backend(
        cfg.get("backend_kind"), url=cfg.get("backend_url"), auth_token=cfg.get("auth_token")
    )
    assert isinstance(backend, HttpBackend)
    assert (backend.url, backend.auth_token) == ("http://127.0.0.1:9/x", "t0k")
    monkeypatch.setenv("BACKEND_KIND", "stub")
    assert cfg.get("backend_kind", "http") == "stub"
    with pytest.raises(BackendUnavailable):
        make_backend("nonsense")


# --- candidate extraction ---

FENCED = """Sure! Here's a test:

```java
@Test(expected = IllegalArgumentException.class)
public void testNegative() {
    new Account(10).withdraw(-1);
}
```

Let me know if you need more.
"""


def test_extract_fenced_method():
    method = extract_candidate(FENCED)
    assert method is not None
    assert method.startswith("@Test")
    assert method.endswith("}")
    assert "```" not in method


def test_extract_prose_only_is_none():
    assert extract_candidate("I cannot write that test, sorry.") is None


def test_extract_first_of_two_methods():
    completion = (
        "@Test public void first() { a(); }\n"
        "@Test public void second() { b(); }\n"
    )
    method = extract_candidate(completion)
    assert "first" in method and "second" not in method


def test_extract_unbalanced_braces_is_none():
    assert extract_candidate("@Test public void broken() { if (x) {") is None


def test_extract_lets_an_error_that_is_not_a_parse_error_through(monkeypatch):
    """Only an `ExbtError` marks a candidate as unparsed; a bug raises."""
    def broken(*args):
        raise RuntimeError("bug in the parser")

    monkeypatch.setattr(metrics, "parse_member", broken)
    with pytest.raises(RuntimeError, match="bug in the parser"):
        extract_candidate("@Test public void first() { a(); }")


def test_extract_requires_test_annotation():
    assert extract_candidate("public void helper() { a(); }") is None


def test_extracted_candidate_reparses():
    from exbt.classifier import classify_test

    method = extract_candidate(FENCED)
    assert classify_test(method).is_ebt


def test_extract_handles_string_braces():
    completion = '@Test public void s() { log("{unbalanced"); }'
    method = extract_candidate(completion)
    assert method == completion


COMMENTED = """@Test(expected = IllegalArgumentException.class)
public void testNegative() {
    // it's negative, so withdraw throws }
    /* a { opens nothing here */
    new Account(10).withdraw(-1); // '}'
}"""


@pytest.mark.parametrize("completion", [
    COMMENTED,
    f"Here it is:\n```java\n{COMMENTED}\n```\nThat's all: it's the negative case.\n",
    f"{COMMENTED}\nThat's all \u2014 it's the negative case.\n",
], ids=["comments", "fenced-then-prose", "prose-after"])
def test_extract_reads_comments_and_trailing_prose_through_the_lexer(completion):
    """Braces and apostrophes in comments count for nothing, and prose
    after the method that does not lex is cut where the lexer stops."""
    assert extract_candidate(completion) == COMMENTED


def test_extract_reads_the_test_annotation_through_a_comment():
    """A comment inside `@Test(...)` neither hides the method from
    extraction nor its expected exception from scoring."""
    method = "@Test /* why */ (expected = IllegalStateException.class)\npublic void t() { f(); }"
    assert extract_candidate(f"```java\n{method}\n```\n") == method
    score = score_candidate(method, None, "IllegalStateException", "t")
    assert score.matched_e is True


def test_extract_then_score_lexes_a_fenced_candidate_once(monkeypatch):
    """Extraction parses the candidate from the tokens it found it with,
    and scoring takes that parse from the shared `Sides`."""
    lexed = _count_calls(monkeypatch, lexer, "tokenize")
    sides = Sides()
    completion = f"Here it is:\n```java\n{COMMENTED}\n```\nIt's done.\n"
    candidate = extract_candidate(completion, sides)
    score = score_candidate(candidate, None, "IllegalArgumentException", "t", sides=sides)
    assert (candidate, score.matched_e) == (COMMENTED, True)
    assert len(lexed) == 1
