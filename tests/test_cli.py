from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import sys
from collections import Counter

import pytest

from conftest import FIXTURES, REPO_A, write_replicated_repo_a, write_two_throw_repo
from exbt.cli import main
from exbt.errors import BadInput
from exbt.genbackend import HttpBackend


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_emits_jsonl(capsys):
    code, out, err = run(capsys, "classify", REPO_A)
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines() if l.strip()]
    assert len(rows) == 7
    for row in rows:
        assert set(row) == {"file", "method", "kind", "pattern", "expected_exception"}
    kinds = {r["method"]: r["kind"] for r in rows}
    assert kinds["testWithdrawNegative"] == "EBT"
    assert kinds["testWithdrawOk"] == "NonEBT"
    assert "4 EBTs, 3 non-EBTs" in err


def test_classify_skips_a_test_it_cannot_read_with_a_warning(capsys, tmp_path):
    test_dir = tmp_path / "src/test/java"
    test_dir.mkdir(parents=True)
    (test_dir / "CTest.java").write_text(
        "public class CTest {\n"
        "    @Test\n    public void good() { new C().h(1); }\n"
        "    @Test\n    public void broken() {\n"
        "        assertThrows(IllegalArgumentException.class, () -> new C().h(-1);\n    }\n"
        "}\n"
    )
    code, out, err = run(capsys, "classify", tmp_path)
    assert code == 0
    assert [json.loads(l)["method"] for l in out.splitlines()] == ["good"]
    assert "0 EBTs, 1 non-EBTs, 1 warnings" in err


def test_find_throws_lists_sites(capsys):
    code, out, _ = run(capsys, "find-throws", REPO_A, "--scope", "main")
    rows = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert len(rows) == 6
    assert rows[0]["target"].endswith("Account.java:14")


def test_find_throws_reachable(capsys):
    code, out, _ = run(
        capsys, "find-throws", REPO_A, "--from-method", "com.fix.Account#withdraw/1"
    )
    rows = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert any(r["target"].endswith(":14") and len(r["path"]) == 1 for r in rows)


def test_guard_command(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("at gx.Guards.ifPositive(Guards.java:6)\n")
    code, out, _ = run(capsys, "guard", "--trace", trace, "--repo", FIXTURES / "repoG")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x > 0"
    payload = json.loads(lines[1])
    assert payload == {"conditions": ["x > 0"], "rendered": "x > 0", "unresolved_names": []}


def test_guard_command_rejects_a_non_utf8_trace(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(b"at gx.Guards.ifPositive(Guards.java:6)\xff\n")
    code, _, err = run(capsys, "guard", "--trace", trace, "--repo", FIXTURES / "repoG")
    assert code == 1
    assert json.loads(err)["error"] == "MalformedTrace"


def test_guard_command_keeps_a_condition_ending_in_a_method_reference(capsys, tmp_path):
    """A condition that ends after `::` is a parse error, so it stays
    verbatim, as every condition the parser rejects does, and the command
    ends without a traceback."""
    main = tmp_path / "src/main/java/p"
    main.mkdir(parents=True)
    (main / "G.java").write_text(
        "package p;\n\npublic class G {\n    public void go(int x) {\n"
        "        if (x ::) throw new IllegalStateException();\n    }\n}\n"
    )
    trace = tmp_path / "trace.txt"
    trace.write_text("at p.G.go(G.java:5)\n")
    code, out, err = run(capsys, "guard", "--trace", trace, "--repo", tmp_path)
    assert (code, err) == (0, "")
    assert json.loads(out.splitlines()[1])["conditions"] == ["x ::"]


def test_prompt_developer_oriented(capsys):
    code, out, _ = run(
        capsys,
        "prompt",
        "--repo", REPO_A,
        "--mut", "com.fix.Account#withdraw/1",
        "--throw", "src/main/java/com/fix/Account.java:14",
        "--name", "testNegativeWithdrawal",
        "--seed", "42",
    )
    assert code == 0
    assert "### Test name\ntestNegativeWithdrawal" in out
    assert "### Guard expression\namount < 0" in out


def test_instrument_writes_tree_in_original_lines(capsys, tmp_path):
    out_dir = tmp_path / "instrumented"
    code, _, err = run(capsys, "instrument", REPO_A, "--out", out_dir)
    assert code == 0
    original = (REPO_A / "src/main/java/com/fix/Account.java").read_text()
    rewritten = (out_dir / "src/main/java/com/fix/Account.java").read_text()
    assert rewritten.count("/* exbt:trace */") == 3
    assert rewritten.count("\n") == original.count("\n")
    assert not list(out_dir.rglob("*.offsets"))
    assert (out_dir / "exbtruntime/ExbtTraceLog.java").exists()
    counters = json.loads((out_dir / "manifest.json").read_text())["counters"]
    assert counters == {"methods_instrumented": 7}


def test_pool_command(capsys):
    code, out, err = run(capsys, "pool", REPO_A)
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert "# 4 pool entries" in err


def test_pool_skips_a_non_utf8_trace_block(capsys, tmp_path):
    repo = tmp_path / "repoA"
    shutil.copytree(REPO_A, repo)
    log = repo / "logs/nonebt-traces.log"
    log.write_bytes(log.read_bytes() + b"\n---\ntest: x#y\nat a.B.c(B.java:1)\xff\n")
    _, clean, _ = run(capsys, "pool", REPO_A)
    code, out, err = run(capsys, "pool", repo)
    assert code == 0
    assert json.loads(out) == json.loads(clean)
    assert "1 malformed blocks" in err


def test_pool_follows_source_roots(capsys):
    """The pool is built from the test roots of each run: with only
    AccountTest.java as a test root, TestLedger's trace has no non-EBT."""
    _, out, _ = run(capsys, "pool", REPO_A)
    assert len(json.loads(out)) == 4
    code, out, err = run(capsys, "pool", REPO_A,
                         "--source-roots", "src/test/java/com/fix/AccountTest.java")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert {r["source_test"] for r in rows} == {
        "com.fix.AccountTest#testWithdrawOk", "com.fix.AccountTest#testDepositOk"}
    assert "# 3 pool entries" in err


JUNIT_STARTER = "at com.intellij.rt.junit.JUnitStarter.main(JUnitStarter.java:69)\n"
HARNESS_MAIN = "at ExbtHarness.main(ExbtHarness.java:18)\n"
WITHDRAW = "at com.fix.Account.withdraw(Account.java:13)\n"
CHECK_STATE = "at com.google.common.base.Preconditions.checkState(Preconditions.java:5)\n"
# edits of repoA's non-EBT log, one trace block at a time
LOG_EDITS = {
    "intellij-launcher": lambda block: block + JUNIT_STARTER if WITHDRAW in block else block,
    "harness-launcher": lambda block: block + HARNESS_MAIN if block else block,
    "library-frame": lambda block: block.replace(WITHDRAW, WITHDRAW + CHECK_STATE),
}


def _sweep_bundles(capsys, tmp_path, edit=None) -> list[dict]:
    """repoA's bundles, from its committed log or from that log edited."""
    out = tmp_path / (edit or "committed")
    argv = ["sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out]
    if edit:
        blocks = (REPO_A / "logs/nonebt-traces.log").read_text().split("---\n")
        log = tmp_path / f"{edit}.log"
        log.write_text("---\n".join(map(LOG_EDITS[edit], blocks)))
        argv += ["--trace-log", log]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    return [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("edit", ["intellij-launcher", "harness-launcher"])
def test_launcher_frames_that_call_the_test_are_cut(capsys, tmp_path, edit):
    assert _sweep_bundles(capsys, tmp_path, edit) == _sweep_bundles(capsys, tmp_path)


def test_a_trace_with_a_frame_that_does_not_resolve_is_skipped(capsys, tmp_path, caplog):
    """A library frame between the test and the throw leaves its trace out
    of the pool; the sweep goes on without it."""
    edited = _sweep_bundles(capsys, tmp_path, "library-frame")
    assert "Preconditions.checkState" in caplog.text
    committed = _sweep_bundles(capsys, tmp_path)
    withdraw = "src/main/java/com/fix/Account.java:14"
    assert [b for b in edited if b["target"] == withdraw] == [{
        "target": withdraw, "exception_type": "IllegalArgumentException",
        "statement": 'throw new IllegalArgumentException("negative amount");',
        "status": "no-match", "reason": "no-matching-trace",
    }]
    assert [b for b in edited if b["target"] != withdraw] \
        == [b for b in committed if b["target"] != withdraw]


def test_sweep_reruns_are_byte_identical(capsys, tmp_path):
    digests = []
    for i in range(3):
        out_dir = tmp_path / f"run{i}"
        code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42",
                         "--backend", "stub", "--out", out_dir)
        assert code == 0
        listing = sorted(p.name for p in out_dir.iterdir())
        blob = b"".join((out_dir / n).read_bytes() for n in listing)
        digests.append((tuple(listing), blob))
    assert digests[0] == digests[1] == digests[2]


def test_sweep_report_committed_values(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42",
                     "--backend", "stub", "--out", tmp_path / "out")
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["aggregate"]["targets"] == 6
    assert report["aggregate"]["throw_cov"] == pytest.approx(2 / 6)
    assert report["no_match_reasons"] == {"no-dest-file": 1, "no-matching-trace": 2}


# sha256 of the files `exbt sweep --seed 42 --backend stub` writes for repoA.
# A change to any prompt, request, candidate or score shows up here.
REPO_A_SWEEP_SHA256 = {
    "bundles.jsonl": "9c4c22ef7fda3f0091708655ee0993b107fb197a93fbd0769720bca337207fb6",
    "candidates.jsonl": "f57c0ad75c3c0e4dc08c6ae45bd380868764fa14ad9409e38bd26b6cc34fdc76",
    "corpus.jsonl": "eac3526d07e6d6b831dfc1062ba3789af57244e9f445f22dacb0956f662c0462",
    "report.json": "9a6e94ec09ad1a0a66241c84fb67310e30f4a58ac3afa13da664045de2b8f2ba",
    "report.txt": "cd9ca67b26d85e95a02bb23dc4a1bfbc894681d1ff025d486bf85a22e328c854",
    "requests.jsonl": "e458a842d6c1d249e737c2e30a720fd3927d93e91e6c4c2e411baae4a6ece7b4",
}


def test_sweep_outputs_match_pinned_digests(capsys, tmp_path):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    got = {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in REPO_A_SWEEP_SHA256}
    assert got == REPO_A_SWEEP_SHA256


def test_each_sweep_target_ends_exactly_once(capsys, tmp_path):
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    bundles = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    statuses = Counter(r["status"] for r in rows)
    assert statuses == {"generated": 3}
    assert sum(statuses.values()) + sum(report["no_match_reasons"].values()) \
        == len(report["targets"]) == len(set(report["targets"])) == 6
    unmatched = [b["target"] for b in bundles if b["status"] == "no-match"]
    ended = [r["target"] for r in rows] + unmatched
    assert sorted(ended) == sorted(report["targets"])


def test_sweep_with_a_partial_stub_ends_only_the_unanswered_target(capsys, tmp_path):
    canned = json.loads((REPO_A / "canned/completions.json").read_text())
    canned["completions"] = [c for c in canned["completions"] if c["contains"] != "Ledger.java:8"]
    stub = tmp_path / "partial.json"
    stub.write_text(json.dumps(canned))
    full, partial = tmp_path / "full", tmp_path / "partial"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", full)
    assert code == 0
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub",
                     "--stub-file", stub, "--out", partial)
    assert code == 0
    *full_accounts, full_ledger = (full / "candidates.jsonl").read_text().splitlines()
    *accounts, ledger = (partial / "candidates.jsonl").read_text().splitlines()
    assert accounts == full_accounts
    assert all("Account.java" in json.loads(l)["target"] for l in accounts)
    asked = json.loads(full_ledger)["instruction_digest"]
    assert json.loads(ledger) == {
        "target": "src/main/java/com/fix/Ledger.java:8", "status": "backend-error",
        "error": "BackendUnavailable", "instruction_digest": asked,
    }
    *_, request = [json.loads(l) for l in (partial / "requests.jsonl").read_text().splitlines()]
    assert (request["instruction_digest"], request["error"]) == (asked, "BackendUnavailable")
    assert "completion_digest" not in request
    counters = json.loads((partial / "manifest.json").read_text())["counters"]
    assert (counters["backend_errors"], counters["generations"],
            counters["candidates_extracted"]) == (1, 2, 2)
    code, _, _ = run(capsys, "verify-manifest", partial / "manifest.json")
    assert code == 0


def test_a_sweep_that_fails_before_its_write_stage_leaves_no_out(capsys, tmp_path, monkeypatch):
    for name in ("EXBT_BACKEND_KIND", "BACKEND_KIND", "EXBT_BACKEND_URL", "BACKEND_URL"):
        monkeypatch.delenv(name, raising=False)
    code, _, err = run(capsys, "sweep", REPO_A, "--backend", "http", "--out", tmp_path / "out")
    assert code == 1
    assert _error_of(err) == "BackendUnavailable"
    assert not (tmp_path / "out").exists()


def test_eval_with_recorded_runner_matches_pinned_digest(capsys, tmp_path):
    """eval looks each candidate's label up as a throw site for the runner;
    the digest was computed before the runner took the site."""
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    report = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "eval", "--candidates", out / "candidates.jsonl", "--repo", REPO_A,
        "--runner-results", REPO_A / "canned/runner-results.json", "--out", report,
    )
    assert code == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "0f55c5a87a3fd2fd196a75df599f380ede4a9b94ba3c184df244db75da40a192"
    )


def _count_calls(monkeypatch, module, name: str) -> list:
    """The first argument of every call to module.name, counted in every
    exbt module that holds the function."""
    original = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("exbt") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_sweep_renders_each_prompt_once(capsys, tmp_path, monkeypatch):
    """One render per corpus example plus one per sweep bundle, counted in
    every exbt module that holds the renderer."""
    from exbt import prompting

    calls = _count_calls(monkeypatch, prompting, "render_instruction")
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    examples = len((out / "corpus.jsonl").read_text().splitlines())
    bundles = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    bundles = sum(b["status"] == "bundle" for b in bundles)
    assert (examples, bundles) == (3, 3)
    assert len(calls) == examples + bundles


def _count_lexes_and_parses(monkeypatch):
    from exbt.jmodel import lexer, model

    lexed = _count_calls(monkeypatch, lexer, "tokenize")
    return lexed, _count_calls(monkeypatch, model, "parse_member")


def test_sweep_lexes_each_file_and_each_scored_text_once(capsys, tmp_path, monkeypatch):
    """Extraction's parse of a candidate is the one scoring uses, and a
    scored text is lexed only by that parse. When extraction and scoring
    each parsed, and scoring lexed each side again, the sweep made 19 lexes
    and 8 member parses."""
    lexed, parsed = _count_lexes_and_parses(monkeypatch)
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    golds = {
        f"{e['throw']['file']}:{e['throw']['line']}": e["gold_ebt"]
        for e in map(json.loads, (out / "corpus.jsonl").read_text().splitlines())
    }
    texts = {r["candidate"] for r in rows if "candidate" in r}
    texts |= {golds[r["target"]] for r in rows if "candidate" in r and r["target"] in golds}
    files = len(list(REPO_A.rglob("*.java")))
    assert (files, len(texts)) == (7, 5)
    assert sorted(parsed) == sorted(texts)
    assert len(lexed) == len(set(lexed)) == files + len(texts)


def test_eval_lexes_each_file_and_each_distinct_text_once(capsys, tmp_path, monkeypatch):
    """Three candidates per reference, one of them the reference itself:
    each distinct text is lexed and parsed once. When each scored pair
    lexed and parsed both its sides, this eval made 43 lexes and 18 member
    parses."""
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub", "--out", out)
    assert code == 0
    refs, cands = [], []
    for e in map(json.loads, (out / "corpus.jsonl").read_text().splitlines()):
        target, gold = f"{e['throw']['file']}:{e['throw']['line']}", e["gold_ebt"]
        refs.append({"target": target, "reference": gold,
                     "exception_type": e["throw"]["exception_type"]})
        for cand in (gold, gold.replace("() {", "2() {"), gold.replace("{", "{ // x\n", 1)):
            cands.append({"target": target, "candidate": cand})
    (tmp_path / "refs.jsonl").write_text("".join(json.dumps(r) + "\n" for r in refs))
    (tmp_path / "cands.jsonl").write_text("".join(json.dumps(c) + "\n" for c in cands))
    lexed, parsed = _count_lexes_and_parses(monkeypatch)
    code, _, _ = run(
        capsys, "eval", "--candidates", tmp_path / "cands.jsonl", "--refs",
        tmp_path / "refs.jsonl", "--repo", REPO_A,
    )
    assert code == 0
    texts = {c["candidate"] for c in cands} | {r["reference"] for r in refs}
    assert (len(cands), len(texts)) == (9, 9)
    assert sorted(parsed) == sorted(texts)
    assert len(lexed) == len(set(lexed)) == 7 + len(texts)


def test_sweep_extracts_each_distinct_completion_once(capsys, tmp_path, monkeypatch):
    """One completion answers both `Account.java` targets: three answers,
    two distinct completions, two extractions. When every answer was
    extracted, this sweep made three."""
    from exbt import genbackend

    withdraw, _, post = json.loads((REPO_A / "canned/completions.json").read_text())["completions"]
    withdraw["contains"], post["contains"] = "Account.java", "Ledger.java"
    stub = tmp_path / "stub.json"
    stub.write_text(json.dumps({"completions": [withdraw, post]}))
    calls = _count_calls(monkeypatch, genbackend, "extract_candidate")
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub",
                     "--stub-file", stub, "--out", out)
    assert code == 0
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    assert [r["status"] for r in rows] == ["generated"] * 3
    assert len({r["completion_digest"] for r in rows}) == len(calls) == len(set(calls)) == 2
    by_digest = {r["completion_digest"]: r["candidate"] for r in rows}
    assert [r["candidate"] for r in rows] == [by_digest[r["completion_digest"]] for r in rows]


# candidates.jsonl of a repoA x 2 sweep at seed 1, written before scoring
# reused any pair's score or any text's classification
REPLICATED_CANDIDATES_SHA256 = "4b0053f0d78879ea1951d74aca73d52b83a00068f3171a27f220c26f89d74db5"


def test_sweep_scores_each_distinct_pair_and_classifies_each_text_once(
        capsys, tmp_path, monkeypatch):
    """repoA in two packages answers six targets with three completions,
    and four of the six are scored against two distinct references. When
    every target was scored afresh, this sweep made four CodeBLEU and edit
    similarity calls and six classifications."""
    from exbt import classifier, metrics

    repo, out = tmp_path / "repo", tmp_path / "out"
    write_replicated_repo_a(repo, 2)
    counted = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (metrics, "code_bleu_components"), (metrics, "edit_similarity"),
        (classifier, "classify_member"),
    )}
    code, _, _ = run(capsys, "sweep", repo, "--seed", "1", "--backend", "stub",
                     "--runner", "recorded", "--out", out)
    assert code == 0
    assert hashlib.sha256((out / "candidates.jsonl").read_bytes()).hexdigest() \
        == REPLICATED_CANDIDATES_SHA256
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    golds = {
        f"{e['throw']['file']}:{e['throw']['line']}": e["gold_ebt"]
        for e in map(json.loads, (out / "corpus.jsonl").read_text().splitlines())
    }
    pairs = [(r["candidate"], golds[r["target"]]) for r in rows if r["target"] in golds]
    texts = {r["candidate"] for r in rows}
    assert (len(rows), len(texts), len(pairs), len(set(pairs))) == (6, 3, 4, 2)
    assert {name: len(calls) for name, calls in counted.items()} == {
        "code_bleu_components": 2, "edit_similarity": 2, "classify_member": 3,
    }
    assert sorted(counted["edit_similarity"]) == sorted(c for c, _ in set(pairs))


def test_prompt_with_a_throw_that_names_two_statements_is_bad_input(capsys, tmp_path):
    write_two_throw_repo(tmp_path)
    code, out, err = run(capsys, "prompt", "--repo", tmp_path, "--mut", "p.Range#check/1",
                         "--throw", "src/main/java/p/Range.java:5")
    assert (code, out) == (1, "")
    assert _error_of(err) == "BadInput"
    message = json.loads(err.strip().splitlines()[-1])["message"]
    assert "throw new A();" in message and "throw new B();" in message


def test_prompt_with_a_throw_that_names_two_files_is_bad_input(capsys, tmp_path):
    """A path suffix shared by two packages names both; a full path names one."""
    write_replicated_repo_a(tmp_path, 2)
    paths = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("Account.java"))
    pkg = paths[0].removeprefix("src/main/java/").removesuffix("/Account.java")
    mut = pkg.replace("/", ".") + ".Account#withdraw/1"
    code, _, err = run(capsys, "prompt", "--repo", tmp_path, "--mut", mut,
                       "--throw", "Account.java:14")
    assert code == 1
    assert _error_of(err) == "BadInput"
    message = json.loads(err.strip().splitlines()[-1])["message"]
    assert all(f"{p}:14" in message for p in paths) and len(paths) == 2
    code, out, _ = run(capsys, "prompt", "--repo", tmp_path, "--mut", mut,
                       "--throw", f"{paths[0]}:14")
    assert code == 0 and out


def test_eval_with_a_label_that_names_two_throws_is_bad_input(capsys, tmp_path):
    repo = tmp_path / "repo"
    write_two_throw_repo(repo)
    label = "src/main/java/p/Range.java:5"
    cands = tmp_path / "cands.jsonl"
    cands.write_text(json.dumps({"target": label, "candidate": "@Test void t() { }",
                                 "exception_type": "A"}) + "\n")
    results = tmp_path / "rr.json"
    results.write_text(json.dumps([{"target": label, "compilable": True}]))
    code, _, err = run(capsys, "eval", "--candidates", cands, "--repo", repo,
                       "--runner-results", results)
    assert code == 1
    assert _error_of(err) == "BadInput"
    assert "throw new A();" in err and "throw new B();" in err


def _two_throw_sweep(capsys, tmp_path, extra_files=None, second="B"):
    repo = tmp_path / "repo"
    write_two_throw_repo(repo, second)
    (repo / "canned").mkdir()
    for rel, text in (extra_files or {}).items():
        (repo / rel).write_text(text)
    (repo / "canned/completions.json").write_text(json.dumps({"completions": [
        {"contains": f"(exception: {e})",
         "completion": f"```java\n@Test(expected = {e}.class)\n"
                       f"public void t{e}() {{ Range.check(0); }}\n```\n"}
        for e in ("A", "B")
    ]}))
    out = tmp_path / "out"
    code, _, _ = run(capsys, "sweep", repo, "--seed", "1", "--backend", "stub", "--out", out)
    assert code == 0
    return out


def test_sweep_pairs_completions_with_two_throws_on_one_line(capsys, tmp_path):
    out = _two_throw_sweep(capsys, tmp_path)
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    assert [r["target"] for r in rows] == ["src/main/java/p/Range.java:5"] * 2
    assert [r["matched_e"] for r in rows] == [True, True]


def test_sweep_counts_two_throws_on_one_line_as_two_covered_targets(capsys, tmp_path):
    label = "src/main/java/p/Range.java:5"
    out = _two_throw_sweep(capsys, tmp_path, {
        "canned/runner-results.json": json.dumps([{
            "target": label, "compilable": True, "runnable": True, "covers_target": True,
        }]),
    })
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    assert [r["covers_target"] for r in rows] == [True, True]
    report = json.loads((out / "report.json").read_text())
    assert report["targets"] == [label, label]
    assert report["aggregate"]["targets"] == 2
    assert report["aggregate"]["throw_cov"] == 1.0


def test_recorded_rows_with_a_statement_answer_for_their_own_throw(capsys, tmp_path):
    """Each throw on `Range.java:5` has its own row, picked by statement."""
    label = "src/main/java/p/Range.java:5"
    out = _two_throw_sweep(capsys, tmp_path, {
        "canned/runner-results.json": json.dumps([
            {"target": label, "statement": "throw new A();", "compilable": True,
             "runnable": True, "covers_target": True},
            {"target": label, "statement": "throw new B();", "compilable": True,
             "runnable": False, "covers_target": False},
        ]),
    })
    rows = [json.loads(l) for l in (out / "candidates.jsonl").read_text().splitlines()]
    assert [(r["runnable"], r["covers_target"]) for r in rows] == [(True, True), (False, False)]
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["throw_cov"] == 0.5


def test_sweep_guards_each_of_two_throws_on_one_line(capsys, tmp_path):
    out = _two_throw_sweep(capsys, tmp_path)
    rows = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    assert [r["guard"]["rendered"] for r in rows] == ["x < 0", "x > 9 && !(x < 0)"]


def test_sweep_keeps_two_identical_throws_on_one_line_apart(capsys, tmp_path):
    """`throw new A();` twice on one line: two targets, each with its own
    guard, both covered, though the recorded row's `file:line` names both."""
    label = "src/main/java/p/Range.java:5"
    out = _two_throw_sweep(capsys, tmp_path, {
        "canned/runner-results.json": json.dumps([{
            "target": label, "compilable": True, "runnable": True, "covers_target": True,
        }]),
    }, second="A")
    bundles = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    assert [b["statement"] for b in bundles] == ["throw new A();"] * 2
    assert [b["guard"]["rendered"] for b in bundles] == ["x < 0", "x > 9 && !(x < 0)"]
    report = json.loads((out / "report.json").read_text())
    assert report["targets"] == [label, label]
    assert report["aggregate"]["targets"] == 2
    assert report["aggregate"]["throw_cov"] == 1.0


def test_corpus_files_an_ebt_under_its_expected_exceptions_throw(capsys, tmp_path):
    out = _two_throw_sweep(capsys, tmp_path, {
        "src/test/java/p/RangeEbtTest.java": (
            "package p;\n\npublic class RangeEbtTest {\n    @Test(expected = B.class)\n"
            "    public void testCheckTooBig() {\n        Range.check(10);\n    }\n}\n"
        ),
        "logs/ebt-traces.log": (
            "test: p.RangeEbtTest#testCheckTooBig\nat p.Range.check(Range.java:5)\n"
            "at p.RangeEbtTest.testCheckTooBig(RangeEbtTest.java:6)\n---\n"
        ),
    })
    [example] = [json.loads(l) for l in (out / "corpus.jsonl").read_text().splitlines()]
    assert example["throw"]["statement"] == "throw new B();"
    assert example["throw"]["exception_type"] == "B"
    assert example["guard"]["rendered"] == "x > 9 && !(x < 0)"


def test_sweep_zero_matchable_targets(capsys, tmp_path):
    repo = tmp_path / "repo"
    (repo / "src/main/java").mkdir(parents=True)
    (repo / "src/test/java").mkdir(parents=True)
    (repo / "src/main/java/Lonely.java").write_text(
        "public class Lonely {\n"
        "    public void go(int x) {\n"
        "        if (x > 0) {\n"
        "            throw new IllegalStateException();\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    (repo / "src/test/java/LonelyTest.java").write_text(
        "import org.junit.Test;\n"
        "public class LonelyTest {\n"
        "    @Test\n"
        "    public void quiet() {\n"
        "    }\n"
        "}\n"
    )
    log = tmp_path / "empty.log"
    log.write_text("")
    code, out, _ = run(capsys, "sweep", repo, "--seed", "42", "--backend", "stub",
                       "--trace-log", log, "--out", tmp_path / "out")
    assert code == 0
    report = json.loads((tmp_path / "out/report.json").read_text())
    assert report["aggregate"]["candidates"] == 0
    assert report["no_match_reasons"] == {"no-matching-trace": 1}


def test_generate_with_stub(capsys, tmp_path):
    instruction = tmp_path / "inst.txt"
    instruction.write_text("please target Account.java:14 now")
    code, out, _ = run(
        capsys, "generate", "--instruction", instruction,
        "--backend", "stub", "--stub-file", REPO_A / "canned/completions.json",
        "--extract",
    )
    assert code == 0
    assert out.strip().startswith("@Test(expected = IllegalArgumentException.class)")


def test_eval_command(capsys, tmp_path):
    cands = tmp_path / "cands.jsonl"
    refs = tmp_path / "refs.jsonl"
    cand = "@Test(expected = E.class) public void t() { f(); }"
    cands.write_text(json.dumps({"target": "T.java:1", "candidate": cand}) + "\n")
    refs.write_text(
        json.dumps({"target": "T.java:1", "reference": cand, "exception_type": "E"}) + "\n"
    )
    code, out, _ = run(capsys, "eval", "--candidates", cands, "--refs", refs)
    assert code == 0
    assert "ThrowCov%" in out
    payload = json.loads(out[: out.index("BLEU")])
    assert payload["aggregate"]["xmatch_pct"] == 100.0
    assert payload["aggregate"]["matched_e_pct"] == 100.0


def test_eval_degrades_code_bleu_on_a_malformed_switch(capsys, tmp_path):
    cands = tmp_path / "cands.jsonl"
    refs = tmp_path / "refs.jsonl"
    reference = "@Test public void w() { switch (x) { case 1: break; } }"
    cand = "@Test public void w() { switch ) { case 1: break; } }"
    cands.write_text(json.dumps({"target": "T.java:1", "candidate": cand}) + "\n")
    refs.write_text(json.dumps({"target": "T.java:1", "reference": reference}) + "\n")
    code, out, _ = run(capsys, "eval", "--candidates", cands, "--refs", refs)
    assert code == 0
    agg = json.loads(out[: out.index("BLEU")])["aggregate"]
    assert agg["candidates"] == 1
    # degraded CodeBLEU is plain BLEU
    assert agg["code_bleu"] == agg["bleu"] < 1.0


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", str(REPO_A), "--bogus-flag"])
    assert err.value.code == 2


def test_pipeline_error_exits_1_with_json(capsys, tmp_path):
    code, _, err = run(capsys, "classify", tmp_path / "missing-repo")
    assert code == 1
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "IoError"


def _error_of(err: str) -> str:
    return json.loads(err.strip().splitlines()[-1])["error"]


_WITHDRAW = "com.fix.Account#withdraw/1"


@pytest.mark.parametrize("argv", [
    ("find-throws", REPO_A, "--from-method", "com.fix.Account#withdraw/x"),
    ("prompt", "--repo", REPO_A, "--mut", "com.fix.Account#withdraw/x",
     "--throw", "Account.java:14"),
    ("prompt", "--repo", REPO_A, "--mut", _WITHDRAW, "--throw", "Account.java"),
    ("prompt", "--repo", REPO_A, "--mut", _WITHDRAW, "--throw", "Account.java:x"),
    ("find-throws", REPO_A, "--from-method", _WITHDRAW, "--max-depth", "0"),
], ids=["from-method-arity", "mut-arity", "throw-no-line", "throw-bad-line", "max-depth-0"])
def test_hostile_arguments_give_a_typed_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert _error_of(err) == "BadInput"


@pytest.mark.parametrize("command", ["eval", "guard", "sweep", "verify-manifest"])
def test_a_missing_input_file_gives_an_io_error(capsys, tmp_path, command):
    missing = tmp_path / "missing"
    argv = {
        "eval": ("eval", "--candidates", missing),
        "guard": ("guard", "--trace", missing, "--repo", REPO_A),
        "sweep": ("sweep", REPO_A, "--backend", "stub", "--stub-file", missing,
                  "--out", tmp_path / "out"),
        "verify-manifest": ("verify-manifest", missing),
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert _error_of(err) == "IoError"


@pytest.mark.parametrize("row", ["{not json", json.dumps({"candidate": "x"}), "[1]"],
                         ids=["not-json", "no-target", "not-an-object"])
def test_a_malformed_eval_row_gives_a_typed_error(capsys, tmp_path, row):
    cands = tmp_path / "cands.jsonl"
    cands.write_text(json.dumps({"target": "T.java:1", "candidate": "x"}) + "\n" + row + "\n")
    code, _, err = run(capsys, "eval", "--candidates", cands)
    assert code == 1
    assert _error_of(err) == "BadInput"
    assert f"{cands}:2" in err


def test_manifest_artifacts_verify(capsys, tmp_path):
    run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub",
        "--out", tmp_path / "out")
    code, _, _ = run(capsys, "verify-manifest", tmp_path / "out/manifest.json")
    assert code == 0
    # tamper and expect failure
    (tmp_path / "out/report.txt").write_text("tampered")
    code, _, err = run(capsys, "verify-manifest", tmp_path / "out/manifest.json")
    assert code == 1
    assert "digest mismatch" in err


@pytest.mark.parametrize("text", ['{"artifacts": ', "[1, 2]"], ids=["not-json", "not-an-object"])
def test_a_malformed_manifest_gives_a_typed_error(capsys, tmp_path, text):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(text)
    code, _, err = run(capsys, "verify-manifest", manifest)
    assert code == 1
    assert _error_of(err) == "BadInput"
    assert str(manifest) in err


_MALFORMED_INPUTS = {
    "sweep-config": ("cfg", b"backend_kind=stub\n\xff\n", ("sweep", REPO_A, "--config")),
    "sweep-stub-file": ("stub.json", b'{"completions": [', ("sweep", REPO_A, "--stub-file")),
    "sweep-runner-results": ("rr.json", b'[{"target": ', ("sweep", REPO_A, "--runner-results")),
    "generate-instruction": ("inst.txt", b"x\xff\n", ("generate", "--instruction")),
    "eval-candidates": ("c.jsonl", b'{"target": "T.java:1", "candidate": "\xff"}\n',
                        ("eval", "--candidates")),
    "eval-refs": ("r.jsonl", b'{"target": "T.java:1", "reference": "\xff"}\n',
                  ("eval", "--candidates", os.devnull, "--refs")),
    "eval-candidate-not-text": ("c.jsonl", b'{"target": "a:1", "candidate": 5}\n',
                                ("eval", "--candidates")),
    "eval-reference-not-text": ("r.jsonl", b'{"target": "a:1", "reference": 7}\n',
                                ("eval", "--candidates", os.devnull, "--refs")),
    "eval-exception-type-not-text": ("c.jsonl", b'{"target": "a:1", "exception_type": 1}\n',
                                     ("eval", "--candidates")),
    "eval-target-not-text": ("c.jsonl", b'{"target": ["a"], "candidate": "x"}\n',
                             ("eval", "--candidates")),
    "eval-runner-results-not-a-list": ("rr.json", b'{"a": 1}',
                                       ("eval", "--candidates", os.devnull, "--runner-results")),
    "sweep-runner-results-target-not-text": ("rr.json", b'[{"target": ["a"]}]',
                                             ("sweep", REPO_A, "--runner-results")),
    "generate-stub-entry-not-an-object": ("s.json", b'["x"]',
                                          ("generate", "--instruction", os.devnull, "--stub-file")),
    "generate-stub-entry-without-completion": (
        "s.json", b'{"completions": [{"contains": ""}]}',
        ("generate", "--instruction", os.devnull, "--stub-file"),
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_INPUTS))
def test_a_malformed_input_file_gives_a_typed_error(capsys, tmp_path, case):
    """A file that is not UTF-8, not JSON where JSON is read, or JSON
    records of the wrong shape, is a BadInput line on stderr that names the
    file, never a traceback."""
    name, data, argv = _MALFORMED_INPUTS[case]
    (tmp_path / name).write_bytes(data)
    code, _, err = run(capsys, *argv, tmp_path / name, *(
        ("--out", tmp_path / "out") if argv[0] == "sweep" else ()))
    assert code == 1
    assert "Traceback" not in err
    [line] = err.strip().splitlines()
    error = json.loads(line)
    assert error["error"] == "BadInput"
    assert error["message"].startswith(f"{tmp_path / name}:"), error["message"]


def test_main_reuses_one_parser_and_no_flag_leaks_into_the_next_call(monkeypatch):
    from exbt import cli

    seen = []
    for command in ("sweep", "classify"):
        monkeypatch.setitem(cli._HANDLERS, command, lambda args: seen.append(vars(args)) or 0)
    assert main(["sweep", "r", "--seed", "7", "--variant", "with-name", "--json",
                 "--backend", "http", "--max-in-flight", "1", "--source-roots", "a,b"]) == 0
    assert main(["classify", "r"]) == 0
    assert main(["sweep", "r"]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert (seen[0]["seed"], seen[0]["variant"], seen[0]["json"]) == (7, "with-name", True)
    assert seen[1] == {"command": "classify", "repo": "r", "seed": 42, "config": None,
                       "json": False, "source_roots": None}
    fresh = cli.build_parser.__wrapped__()  # a parser no call has used
    assert seen[2] == vars(fresh.parse_args(["sweep", "r"]))
    assert (seen[2]["seed"], seen[2]["variant"], seen[2]["backend"]) == (42, "no-name", None)


def _left_to_collector(call):
    """call()'s result and every object the cyclic collector finds
    unreachable after it, with the collector paused from before the call,
    as `main` pauses it for a command."""
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if collecting:
            gc.enable()


def _unreachable_after(argv) -> tuple[int, list]:
    from exbt import cli

    cli.build_parser()  # built once per process, its own garbage with it
    return _left_to_collector(lambda: main([str(a) for a in argv]))


def _exbt_objects(objects) -> list[str]:
    """The names of the objects an exbt module defines: its functions and
    the instances of its classes."""
    return sorted({
        f"{o.__module__}.{getattr(o, '__qualname__', type(o).__qualname__)}"
        for o in objects if str(getattr(o, "__module__", "")).startswith("exbt")
    })


def test_a_command_leaves_the_cyclic_collector_no_exbt_object(tmp_path, capsys):
    """main pauses the collector, so what a command builds must be freed by
    reference counting alone: no exbt object (a Stmt, CollectedNode or
    Token) is left in a cycle, and what is left (json's indented encoder,
    for one) is per command, the same for repoA x 4 as for repoA x 1."""
    left = {}
    for k in (1, 4):
        repo = tmp_path / f"k{k}"
        write_replicated_repo_a(repo, k)
        code, garbage = _unreachable_after(
            ["sweep", repo, "--seed", 1, "--backend", "stub", "--runner", "recorded",
             "--out", tmp_path / f"out{k}"])
        assert code == 0
        assert _exbt_objects(garbage) == []
        left[k] = len(garbage)
    assert left[4] == left[1]
    trace = tmp_path / "trace.txt"
    trace.write_text("at gx.Guards.ifPositive(Guards.java:6)\n")
    code, garbage = _unreachable_after(["guard", "--trace", trace, "--repo", FIXTURES / "repoG"])
    assert code == 0
    assert _exbt_objects(garbage) == []
    code, garbage = _unreachable_after(
        ["eval", "--candidates", tmp_path / "out1/candidates.jsonl", "--repo", tmp_path / "k1",
         "--runner-results", REPO_A / "canned/runner-results.json",
         "--out", tmp_path / "report.json"])
    assert code == 0
    assert _exbt_objects(garbage) == []


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("ending", ["exit 0", "ExbtError", "exception"])
def test_main_gives_the_caller_back_its_collector_state(monkeypatch, capsys, collecting, ending):
    from exbt import cli

    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        if ending == "ExbtError":
            raise BadInput("bad")
        if ending == "exception":
            raise RuntimeError("crash")
        return 0

    monkeypatch.setitem(cli._HANDLERS, "classify", handler)
    before = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if ending == "exception":
            with pytest.raises(RuntimeError):
                main(["classify", "r"])
        else:
            assert main(["classify", "r"]) == (0 if ending == "exit 0" else 1)
        assert (seen, gc.isenabled()) == ([False], collecting)
    finally:
        (gc.enable if before else gc.disable)()


REPO_A_SWEEP_COUNTERS = {
    "candidates_extracted": 3, "corpus_examples_built": 3, "corpus_examples_skipped": 1,
    "dest_name-match": 5, "dest_none": 1, "generations": 3, "guards_computed": 6,
    "nomatch_no_matching_trace": 2, "pool_builds": 1, "pool_entries": 4,
    "prompts_assembled": 3, "tests_classified": 7,
}


def test_sweep_manifest_counters_are_pinned(capsys, tmp_path):
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub",
                     "--out", tmp_path / "out")
    assert code == 0
    counters = json.loads((tmp_path / "out/manifest.json").read_text())["counters"]
    assert counters == REPO_A_SWEEP_COUNTERS


def test_sweep_without_an_ebt_log_writes_no_corpus_counters(capsys, tmp_path):
    """No EBT trace log: no corpus_* key at all; a second main throw without
    a test file is one more dest_none."""
    repo = tmp_path / "repo"
    shutil.copytree(REPO_A, repo)
    (repo / "logs/ebt-traces.log").unlink()
    (repo / "src/main/java/com/fix/Lonely.java").write_text(
        "package com.fix;\n\npublic class Lonely {\n    public void go(int x) {\n"
        "        if (x < 0) throw new IllegalStateException(\"neg\");\n    }\n}\n"
    )
    code, _, _ = run(capsys, "sweep", repo, "--seed", "42", "--backend", "stub",
                     "--out", tmp_path / "out")
    assert code == 0
    counters = json.loads((tmp_path / "out/manifest.json").read_text())["counters"]
    assert counters == {
        "candidates_extracted": 3, "dest_name-match": 5, "dest_none": 2, "generations": 3,
        "guards_computed": 3, "nomatch_no_matching_trace": 2, "pool_builds": 1,
        "pool_entries": 4, "prompts_assembled": 3, "tests_classified": 7,
    }
    assert not (tmp_path / "out/corpus.jsonl").exists()


def test_config_layering(capsys, tmp_path, monkeypatch):
    # file value loses to the flag, which loses to the environment
    cfg = tmp_path / "exbt.cfg"
    cfg.write_text("backend_kind=http\n")
    instruction = tmp_path / "inst.txt"
    instruction.write_text("target Account.java:14")
    stub = REPO_A / "canned/completions.json"
    # flag overrides file: stub wins over the configured http
    code, out, _ = run(capsys, "generate", "--instruction", instruction,
                       "--config", cfg, "--backend", "stub", "--stub-file", stub)
    assert code == 0 and "withdraw" in out
    # environment overrides everything: force stub even when flag says http
    monkeypatch.setenv("EXBT_BACKEND_KIND", "stub")
    code, out, _ = run(capsys, "generate", "--instruction", instruction,
                       "--config", cfg, "--backend", "http", "--stub-file", stub)
    assert code == 0 and "withdraw" in out


def test_config_url_and_token_reach_the_http_backend(capsys, tmp_path, monkeypatch):
    for name in ("EXBT_BACKEND_KIND", "BACKEND_KIND", "EXBT_BACKEND_URL", "BACKEND_URL",
                 "BACKEND_AUTH_TOKEN"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("EXBT_AUTH_TOKEN", "s3cret")
    cfg = tmp_path / "exbt.cfg"
    cfg.write_text("backend_kind=http\nbackend_url=http://127.0.0.1:9/generate\n")
    seen = set()

    def fake_generate(self, instruction, params):
        seen.add((self.url, self.auth_token))
        return "no test here"

    monkeypatch.setattr(HttpBackend, "generate", fake_generate)
    instruction = tmp_path / "inst.txt"
    instruction.write_text("target Account.java:14")
    code, out, _ = run(capsys, "generate", "--instruction", instruction, "--config", cfg)
    assert code == 0 and out.strip() == "no test here"
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--config", cfg,
                     "--out", tmp_path / "out")
    assert code == 0
    assert seen == {("http://127.0.0.1:9/generate", "s3cret")}


def test_stage_composition_matches_sweep(capsys, tmp_path):
    # guard and pool run as standalone stages agree with the sweep artifacts
    code, _, _ = run(capsys, "sweep", REPO_A, "--seed", "42", "--backend", "stub",
                     "--out", tmp_path / "out")
    assert code == 0
    bundles = [json.loads(l) for l in (tmp_path / "out/bundles.jsonl").read_text().splitlines()]
    withdraw = next(b for b in bundles if b["status"] == "bundle"
                    and b["target"].endswith("Account.java:14"))
    trace = tmp_path / "trace.txt"
    trace.write_text("at com.fix.Account.withdraw(Account.java:14)\n")
    code, out, _ = run(capsys, "guard", "--trace", trace, "--repo", REPO_A)
    assert code == 0
    assert out.strip().splitlines()[0] == withdraw["guard"]["rendered"]
    code, out, _ = run(capsys, "pool", REPO_A)
    rows = json.loads(out)
    manifest = json.loads((tmp_path / "out/manifest.json").read_text())
    assert len(rows) == manifest["counters"]["pool_entries"]
