"""Instrumented trees run on a real JVM, and the sweep reads the logs they write.

Per repository: `exbt instrument`, one `javac` call over the instrumented
tree, the JUnit stubs and the harness, one `ExbtHarness` run per non-EBT,
then `exbt sweep` on the log those runs wrote. No frame of the log is
filtered here: the sweep cuts the harness and reflection frames itself.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from conftest import FIXTURES, REPO_A
from exbt.classifier import split_test_suite
from exbt.cli import main
from exbt.instrument import parse_trace_log
from exbt.jmodel import load_repo
from exbt.runners import HARNESS_SOURCE, JUNIT_STUBS, jvm_available

pytestmark = pytest.mark.skipif(not jvm_available(), reason="javac/java not on PATH")

GATE = FIXTURES / "gate"


def _jvm_log(repo, work):
    """The trace log that the non-EBTs of `repo` write when its
    instrumented tree runs."""
    tree, classes, log = work / "tree", work / "classes", work / "nonebt-traces.log"
    assert main(["instrument", str(repo), "--out", str(tree)]) == 0
    for rel, source in {**JUNIT_STUBS, "ExbtHarness.java": HARNESS_SOURCE}.items():
        (tree / rel).parent.mkdir(parents=True, exist_ok=True)
        (tree / rel).write_text(source, encoding="utf-8")
    sources = [str(p) for p in sorted(tree.rglob("*.java"))]
    javac = subprocess.run(["javac", "-d", str(classes), *sources],
                           capture_output=True, text=True, timeout=120)
    assert javac.returncode == 0, javac.stderr
    _, nonebts = split_test_suite(load_repo(repo))
    for test in nonebts:
        subprocess.run(["java", "-cp", str(classes), f"-Dexbt.log={log}", "ExbtHarness",
                        test.id.fqn, test.id.name], check=True, capture_output=True, timeout=60)
    return log


def _sweep_bundles(repo, out, trace_log=None) -> str:
    argv = ["sweep", str(repo), "--seed", "42", "--backend", "stub", "--out", str(out)]
    if trace_log is not None:
        argv += ["--trace-log", str(trace_log)]
    assert main(argv) == 0
    return (out / "bundles.jsonl").read_text()


@pytest.fixture(scope="module")
def repo_a_log(tmp_path_factory):
    return _jvm_log(REPO_A, tmp_path_factory.mktemp("repoA"))


@pytest.fixture(scope="module")
def gate_log(tmp_path_factory):
    return _jvm_log(GATE, tmp_path_factory.mktemp("gate"))


def test_repo_a_jvm_log_gives_the_committed_logs_bundles(repo_a_log, tmp_path):
    assert "ExbtHarness.main" in repo_a_log.read_text()  # nothing cut by hand
    jvm = _sweep_bundles(REPO_A, tmp_path / "jvm", repo_a_log)
    assert jvm == _sweep_bundles(REPO_A, tmp_path / "committed")


def test_dumps_log_original_lines(gate_log):
    """Each dump reports the line of its body's '{', or of a constructor's
    leading super(...) call, in the uninstrumented source; a constructor
    with such a call compiles."""
    innermost = {trace.frames[-1].render() for trace, _ in parse_trace_log(gate_log.read_text())}
    assert innermost == {
        "at com.gate.Gate.open(Gate.java:4)",
        "at com.gate.Gate.check(Gate.java:12)",
        "at com.gate.Box.<init>(Box.java:6)",
        "at com.gate.Box.<init>(Box.java:9)",
    }


def test_caller_above_its_callee_keeps_its_call_line_and_guard(gate_log, tmp_path):
    bundles = [json.loads(l) for l in _sweep_bundles(GATE, tmp_path / "out", gate_log).splitlines()]
    check = next(b for b in bundles if b["target"] == "src/main/java/com/gate/Gate.java:14")
    assert check["trace"] == [
        ["com.gate.Gate", "open", "Gate.java", 9],
        ["com.gate.Gate", "check", "Gate.java", 14],
    ]
    assert check["guard"]["rendered"] == "(x * 2) > 10"
