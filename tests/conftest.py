from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from exbt.classifier import split_test_suite
from exbt.jmodel import find_throw_sites, load_repo
from exbt.prompting import SweepIndex
from exbt.stacktrace import Frame, StackTrace, resolve_trace

FIXTURES = Path(__file__).parent / "fixtures"
REPO_A = FIXTURES / "repoA"
REPO_G = FIXTURES / "repoG"
GEN_SWEEP = Path(__file__).resolve().parents[1] / "perfbench" / "gen_sweep.py"


@pytest.fixture(scope="session")
def repo_a():
    return load_repo(REPO_A)


@pytest.fixture(scope="session")
def repo_g():
    return load_repo(REPO_G)


@pytest.fixture(scope="session")
def repo_a_suite(repo_a):
    return split_test_suite(repo_a)


@pytest.fixture(scope="session")
def repo_a_index(repo_a, repo_a_suite):
    """repoA's non-EBTs indexed as a command indexes them."""
    return SweepIndex(repo_a, repo_a_suite[1])


@pytest.fixture(scope="session")
def guards_oracle():
    with open(REPO_G / "guards-oracle.json") as f:
        return json.load(f)


def sites_by_method(ctx, scope="main"):
    out: dict[str, list] = {}
    for s in find_throw_sites(ctx, scope):
        out.setdefault(s.method.name, []).append(s)
    return out


def guard_trace(ctx, oracle_entry) -> StackTrace:
    """Build the MUT-first trace a fixture describes, resolved against ctx.

    Frame lines are derived from the parsed model (throw line for the
    innermost frame, the call line for each caller) so the committed
    oracle stays stable under reformatting.
    """
    frames_spec = oracle_entry["frames"]
    site_method = oracle_entry["site_method"]
    site = next(
        s
        for s in find_throw_sites(ctx, "main")
        if s.method.name == site_method
        and s.exception_type == oracle_entry["site_exception"]
    )
    file_name = Path(site.method.decl_file).name
    frames = []
    for caller, callee in zip(frames_spec, frames_spec[1:]):
        line = next(
            line
            for mid, sites in ctx.calls.items()
            if mid.name == caller
            for name, arity, line, _ in sites
            if name == callee
            and any((c.name, c.param_arity) == (name, arity) for c in ctx.callees[mid])
        )
        fqn = next(m.fqn for m in ctx.all_method_ids() if m.name == caller)
        frames.append(Frame(fqn, caller, file_name, line))
    frames.append(Frame(site.method.fqn, site_method, file_name, site.line))
    return resolve_trace(StackTrace(tuple(frames)), ctx), site


def write_two_throw_repo(repo: Path, second: str = "B") -> None:
    """A repository whose only main method has two throws on one line
    (`Range.java:5`), of A and of `second`, one non-EBT reaching it and its
    trace log."""
    for rel, text in {
        "src/main/java/p/Range.java": (
            "package p;\n\npublic class Range {\n"
            "    public static void check(int x) {\n"
            f"        if (x < 0) throw new A(); else if (x > 9) throw new {second}();\n"
            "    }\n}\n"
        ),
        "src/test/java/p/RangeTest.java": (
            "package p;\n\npublic class RangeTest {\n    @Test\n"
            "    public void testCheckOk() {\n        Range.check(5);\n    }\n}\n"
        ),
        "logs/nonebt-traces.log": (
            "test: p.RangeTest#testCheckOk\nat p.Range.check(Range.java:5)\n"
            "at p.RangeTest.testCheckOk(RangeTest.java:6)\n---\n"
        ),
    }.items():
        (repo / rel).parent.mkdir(parents=True, exist_ok=True)
        (repo / rel).write_text(text)


def write_replicated_repo_a(repo: Path, k: int, seed: int = 1) -> None:
    """repoA copied into k packages, with its trace logs and canned files:
    the benchmark's sweep-large generator."""
    spec = importlib.util.spec_from_file_location("gen_sweep", GEN_SWEEP)
    gen_sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_sweep)
    gen_sweep.write_repo(repo, k, seed)


def write_guard_deep_repo(repo: Path, chains: int, depth: int, seed: int) -> None:
    """`chains` call chains of depth `depth`, with their trace logs: the
    benchmark's guard-deep generator."""
    spec = importlib.util.spec_from_file_location("gen_guard", GEN_SWEEP.with_name("gen_guard.py"))
    gen_guard = sys.modules["gen_guard"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_guard)
    gen_guard.write_repo(repo, chains, depth, seed)


def write_call_chain(repo: Path, depth: int) -> StackTrace:
    """A call chain `Chain.s0 -> ... -> s<depth-1>` and the MUT-first trace
    that reaches its throw, not yet resolved. Every level assigns a local
    from a parameter, branches on it and passes it down; only the innermost
    level throws."""
    lines = ["public class Chain {"]
    frames = []
    for j in range(depth - 1):
        lines += [
            f"    void s{j}(int p, int q) {{",
            f"        int t = p + {j};",
            "        if (t > q) {",
            f"            s{j + 1}(t - 1, q);",
        ]
        frames.append(Frame("Chain", f"s{j}", "Chain.java", len(lines)))
        lines += ["        }", "    }"]
    lines += [
        f"    void s{depth - 1}(int p, int q) {{",
        "        if (p > q) {",
        "            throw new IllegalStateException();",
    ]
    frames.append(Frame("Chain", f"s{depth - 1}", "Chain.java", len(lines)))
    lines += ["        }", "    }", "}"]
    path = repo / "src/main/java/Chain.java"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return StackTrace(tuple(frames))


def parse_env_key(key: str) -> dict[str, int]:
    env = {}
    for part in key.split(","):
        name, value = part.split("=")
        env[name] = int(value)
    return env
