"""The call index on RepoContext: `call_sites_of` records one caller's call
sites and `callees_of` resolves them on first use in the caller's nearest
scope; a sweep's `SweepIndex` inverts them over the non-EBTs only, and a
sweep's work grows linearly with the repository."""

from __future__ import annotations

import json

import pytest

from conftest import (
    REPO_A,
    REPO_G,
    write_call_chain,
    write_replicated_repo_a,
    write_two_throw_repo,
)
from exbt import cli
from exbt.classifier import TestMethod as Method, split_test_suite
from exbt.jmodel import MethodId, RepoContext, load_repo, reachable_throws
from exbt.jmodel.lexer import match_paren, split_top_level
from exbt.prompting import SweepIndex, directly_invokes, rank_relevant_nonebts


def _old_call_edges(ctx):
    """The eager call graph `load_repo` used to build, rule for rule: one
    (caller, callee or None, name, arity, line) edge per call site and
    same-named candidate."""
    methods_by_key: dict = {}
    ctors_by_key: dict = {}
    for u, t, m in ctx._methods:
        key = (m.name, m.arity)
        methods_by_key.setdefault(key, []).append((u, t, m))
        if m.is_ctor:
            ctors_by_key.setdefault((t.name, m.arity), []).append((u, t, m))
    edges = []
    for unit, _, m in ctx._methods:
        if m.tok_open is None:
            continue
        caller = m.mid
        toks = unit.tokens
        for k in range(m.tok_open + 1, m.tok_close):
            t = toks[k]
            if t.kind != "ident" or k + 1 >= m.tok_close or toks[k + 1].text != "(":
                continue
            prev = toks[k - 1].text if k > 0 else ""
            close = match_paren(toks, k + 1)
            arity = 0 if close == k + 2 else len(split_top_level(toks, k + 2, close, ","))
            if prev == "new":
                targets = ctors_by_key.get((t.text, arity), [])
            else:
                targets = methods_by_key.get((t.text, arity), [])
                targets = [(u2, t2, m2) for u2, t2, m2 in targets if not m2.is_ctor]
            if targets:
                for _, _, m2 in targets:
                    edges.append((caller, m2.mid, t.text, arity, t.line))
            else:
                edges.append((caller, None, t.text, arity, t.line))
    return edges


def _old_key(m):
    return (m.decl_file, m.decl_line, m.name)


def _old_reachable_throws(ctx, adjacency, mut, max_depth):
    """`reachable_throws`' old BFS over an adjacency regrouped from the edges."""
    results = []
    seen_sites = set()
    visited = {mut}
    frontier = [(mut, [mut])]
    depth = 0
    while frontier and depth <= max_depth:
        next_frontier = []
        for mid, path in frontier:
            for site in ctx.throw_sites_by_method.get(mid, ()):
                if site not in seen_sites:
                    seen_sites.add(site)
                    results.append((site, path))
            for callee in adjacency.get(mid, []):
                if callee not in visited:
                    visited.add(callee)
                    next_frontier.append((callee, path + [callee]))
        frontier = next_frontier
        depth += 1
    results.sort(key=lambda r: (len(r[1]), r[0].method.decl_file, r[0].line))
    return results


def _repo(name, tmp_path):
    if name == "repoA":
        return REPO_A
    if name == "repoG":
        return REPO_G
    if name == "ctor-names":
        # a method and a constructor share a call name; a nested type's
        # constructor is called by its simple name
        (tmp_path / "Box.java").write_text(
            "class Box {\n    Box() { }\n    Box(int v) { this(); }\n"
            "    void Item(int v) { }\n    class Inner { Inner(int v) { } }\n"
            "    void a() { Item(1); }\n    void b() { new Item(1); }\n"
            "    void c() { new Inner(2); }\n    void d() { Inner(2); }\n"
            "}\nclass Item { Item(int v) { new Box(v); } }\n"
        )
    elif name == "two-throw":
        write_two_throw_repo(tmp_path)
    else:
        write_call_chain(tmp_path, 8)
    return tmp_path


# single-package repositories, where the scoped rule and the old
# repository-wide one agree
@pytest.mark.parametrize("name", ["repoA", "repoG", "two-throw", "chain-8", "ctor-names"])
def test_call_index_matches_the_old_call_graph(tmp_path, name):
    ctx = load_repo(_repo(name, tmp_path))
    sites: dict = {}
    callees: dict = {}
    for caller, callee, name, arity, line in _old_call_edges(ctx):
        sites.setdefault(caller, set()).add((name, arity, line))
        if callee is not None:
            callees.setdefault(caller, set()).add(callee)
    adjacency = {c: sorted(v, key=_old_key) for c, v in callees.items()}
    assert sites, "the repository makes no calls"
    for mid in ctx.all_method_ids():
        assert {s[:3] for s in ctx.calls.get(mid, ())} == sites.get(mid, set()), mid
        resolved = ctx.callees.get(mid, ())
        assert set(resolved) == callees.get(mid, set()), mid
        assert [_old_key(c) for c in resolved] == sorted(_old_key(c) for c in resolved)
        for depth in (1, 2, 5):
            assert reachable_throws(ctx, mid, depth) == _old_reachable_throws(
                ctx, adjacency, mid, depth
            ), (mid, depth)


# repoA's callees, read off its sources by hand: `{p}` is the package, a
# class without a declared constructor has no callee for `new`, and calls
# into JUnit resolve to nothing
REPO_A_CALLEES = {
    "AccountTest#open": ["Account#<init>"],
    "AccountTest#testWithdrawOk": [
        "Account#withdraw", "Account#deposit", "Account#balance", "AccountTest#open",
    ],
    "AccountTest#testDepositOk": ["Account#deposit", "Account#balance", "AccountTest#open"],
    "AccountTest#testWithdrawNegative": ["Account#withdraw", "AccountTest#open"],
    "AccountTest#testDepositOverLimit": ["Account#deposit", "AccountTest#open"],
    "CornerTest#testSpinTooFast": ["Corner#spin"],
    "CornerTest#testLocalFailure": ["CornerTest#explode"],
    "TestLedger#testPostOk": ["Ledger#post", "Ledger#size"],
}


def test_each_replica_resolves_within_its_own_package(tmp_path):
    write_replicated_repo_a(tmp_path, 4)
    ctx = load_repo(tmp_path)
    label = lambda m: m.fqn.rsplit(".", 1)[-1] + "#" + m.name
    pkgs = sorted({m.fqn.rsplit(".", 1)[0] for m in ctx.all_method_ids()})
    assert len(pkgs) == 4
    for pkg in pkgs:
        got = {
            label(caller): [label(c) for c in found]
            for caller, found in ctx.callees.items()
            if found and caller.fqn.startswith(pkg + ".")
        }
        assert got == REPO_A_CALLEES, pkg
        assert all(c.fqn.startswith(pkg + ".") for caller, found in ctx.callees.items()
                   if caller.fqn.startswith(pkg + ".") for c in found)
    index = SweepIndex(ctx, split_test_suite(ctx)[1])
    for callee, callers in index.callers.items():
        assert callers and all(callee in ctx.callees_of(c) for c in callers)
    assert sum(map(len, index.callers.values())) == sum(
        len(ctx.callees_of(t)) for t in index.by_id)


_SCOPES = {
    "a/Util.java": (
        "package a;\npublic class Util {\n"
        "    public Util() { }\n"
        "    public void log(String s) { }\n"
        "    public void pong() { }\n}\n"
    ),
    "b/Util.java": (
        "package b;\npublic class Util {\n"
        "    public static int twice(int x) { return x + x; }\n"
        "    public void log(String s) { }\n}\n"
    ),
    "c/Tool.java": (
        "package c;\npublic class Tool {\n"
        "    public void run(int n) { }\n"
        "    public void log(String s) { }\n}\n"
    ),
    "d/Far.java": (
        "package d;\npublic class Far {\n"
        "    public void run(int n) { }\n"
        "    public void only(int n) { }\n"
        "    public static int twice(int x) { return 2 * x; }\n}\n"
    ),
    "p/Peer.java": (
        "package p;\npublic class Peer {\n"
        "    public Peer() { }\n"
        "    public void ping() { }\n"
        "    public void pong() { }\n}\n"
    ),
    "p/User.java": (
        "package p;\n\nimport a.Util;\nimport c.*;\nimport static b.Util.twice;\n\n"
        "public class User {\n"
        "    void ping() { }\n"
        "    class Inner {\n"
        "        Inner() { }\n"
        "        void ping() { }\n"
        "        void own() { ping(); }\n"
        "    }\n"
        "    class Other {\n"
        "        void outer() { ping(); new Inner(); }\n"
        "    }\n"
        "    void k(Util u, Tool t) {\n"
        "        ping();\n"
        "        new Peer().pong();\n"
        "        u.log(\"x\");\n"
        "        int n = twice(1);\n"
        "        t.run(n);\n"
        "        new d.Far().only(n);\n"
        "        new Util();\n"
        "    }\n"
        "}\n"
    ),
}


def test_callees_resolve_in_the_nearest_scope_that_declares_one(tmp_path):
    for rel, text in _SCOPES.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    ctx = load_repo(tmp_path)
    got = {
        f"{caller.fqn}#{caller.name}": sorted(f"{c.fqn}#{c.name}" for c in found)
        for caller, found in ctx.callees.items() if found
    }
    assert got == {
        # the innermost enclosing type that declares the method
        "p.User$Inner#own": ["p.User$Inner#ping"],
        # an outer type, and a member type's constructor
        "p.User$Other#outer": ["p.User#ping", "p.User$Inner#<init>"],
        "p.User#k": sorted([
            "p.User#ping",  # own type, not p.Peer's
            "p.Peer#<init>", "p.Peer#pong",  # same package, not a.Util's pong
            "a.Util#log",  # single-type import, not the on-demand c.Tool's
            "b.Util#twice",  # static import, not d.Far's
            "c.Tool#run",  # on-demand import, not d.Far's
            "d.Far#only",  # declared nowhere in scope: the whole repository
            "a.Util#<init>",
        ]),
    }
    peer_pong = next(m for m in ctx.all_method_ids() if m.fqn == "p.Peer" and m.name == "pong")
    callers = [m for m in ctx.all_method_ids() if peer_pong in ctx.callees_of(m)]
    assert [f"{c.fqn}#{c.name}" for c in callers] == ["p.User#k"]


# the same-MUT non-EBTs that ranking takes from the callers of each MUT,
# computed with the whole-repository inverse of `callees` that ranking used
# before: repoA's by `Class#name/arity@line`, and repoG's, with every
# method standing in as a non-EBT, by name
REPO_A_SAME_MUT = {
    "Account#balance/0@33": ["AccountTest#testWithdrawOk", "AccountTest#testDepositOk"],
    "Account#deposit/1@19": ["AccountTest#testWithdrawOk", "AccountTest#testDepositOk"],
    "Account#withdraw/1@12": ["AccountTest#testWithdrawOk"],
    "AccountTest#open/0@9": ["AccountTest#testWithdrawOk", "AccountTest#testDepositOk"],
    "Ledger#post/1@6": ["TestLedger#testPostOk"],
    "Ledger#size/0@13": ["TestLedger#testPostOk"],
}
REPO_G_SAME_MUT = {
    "callee": ["caller"], "inner": ["chainAssign"], "noop": ["elseOnly", "pickCase", "negated"],
}


def _same_mut(ctx, nonebts):
    """Each method's ranked non-EBTs when no destination file adds any."""
    index = SweepIndex(ctx, nonebts)
    ranked = {m: rank_relevant_nonebts(m, "", index) for m in ctx.all_method_ids()}
    return {m: [t.id for t in got] for m, got in ranked.items() if got}


@pytest.mark.parametrize("k", [None, 4])
def test_ranking_takes_the_non_ebts_that_call_the_mut(tmp_path, k):
    """repoA, and each package of repoA x 4, ranks the pinned tests."""
    if k:
        write_replicated_repo_a(tmp_path, k)
    ctx = load_repo(tmp_path if k else REPO_A)
    simple = lambda m: m.fqn.rsplit(".", 1)[-1] + "#" + m.name
    by_pkg: dict = {}
    for mut, tests in _same_mut(ctx, split_test_suite(ctx)[1]).items():
        label = f"{simple(mut)}/{mut.param_arity}@{mut.decl_line}"
        by_pkg.setdefault(mut.fqn.rsplit(".", 1)[0], {})[label] = [simple(t) for t in tests]
    assert len(by_pkg) == (k or 1)
    assert all(got == REPO_A_SAME_MUT for got in by_pkg.values())


def test_ranking_in_repo_g_takes_every_calling_method():
    ctx = load_repo(REPO_G)
    stand_ins = [Method(m, "", None, None) for m in ctx.all_method_ids()]
    got = _same_mut(ctx, stand_ins)
    assert {m.name: [t.name for t in tests] for m, tests in got.items()} == REPO_G_SAME_MUT


def test_a_sweep_resolves_the_calls_of_non_ebts_only(tmp_path, monkeypatch):
    """Ranking inverts `callees_of` over the non-EBTs: a sweep of repoA x 8
    scans the call sites of every non-EBT and of no other method, and never
    builds the whole-repository maps."""
    contexts, scanned = [], []
    original = RepoContext.call_sites_of

    def loading(*args, **kwargs):
        contexts.append(load_repo(*args, **kwargs))
        return contexts[-1]

    def call_sites_of(self, caller):
        scanned.append(caller)
        return original(self, caller)

    monkeypatch.setattr(cli, "load_repo", loading)
    monkeypatch.setattr(RepoContext, "call_sites_of", call_sites_of)
    write_replicated_repo_a(tmp_path / "repo", 8)
    argv = ["sweep", str(tmp_path / "repo"), "--seed", "1", "--backend", "stub",
            "--runner", "recorded", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    (ctx,) = contexts
    _, nonebts = split_test_suite(ctx)
    assert len(nonebts) == 8 * 3
    assert set(scanned) == {t.id for t in nonebts}
    assert not set(ctx.main_files) & {m.decl_file for m in scanned}
    assert len(scanned) == len(set(scanned))
    assert "calls" not in vars(ctx) and "callees" not in vars(ctx)


def _sweep_counts(tmp_path, monkeypatch, k):
    """One sweep of repoA x k: its context, its bundle rows and how often
    it called `unit_for`."""
    contexts = []
    unit_for_calls = []
    original = RepoContext.unit_for

    def loading(*args, **kwargs):
        contexts.append(load_repo(*args, **kwargs))
        return contexts[-1]

    def unit_for(self, path):
        unit_for_calls.append(path)
        return original(self, path)

    monkeypatch.setattr(cli, "load_repo", loading)
    monkeypatch.setattr(RepoContext, "unit_for", unit_for)
    repo, out = tmp_path / f"x{k}", tmp_path / f"out{k}"
    write_replicated_repo_a(repo, k)
    argv = ["sweep", str(repo), "--seed", "1", "--backend", "stub",
            "--runner", "recorded", "--out", str(out)]
    assert cli.main(argv) == 0
    rows = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    return contexts[-1], [r for r in rows if r["status"] == "bundle"], len(unit_for_calls)


def test_sweep_work_grows_linearly_with_the_replicas(tmp_path, monkeypatch):
    """Counts, not times, from K=4 to K=8: each may grow by at most 2.2x.
    The repository-wide rule grew resolved targets, ranked non-EBTs and
    destination lookups about 4x."""
    counts = {}
    for k in (4, 8):
        ctx, bundles, unit_for_calls = _sweep_counts(tmp_path, monkeypatch, k)
        per_bundle = sorted({len(b["nonebts"]) for b in bundles})
        counts[k] = {
            "resolved call targets": sum(map(len, ctx.callees.values())),
            "ranked non-EBTs": sum(len(b["nonebts"]) for b in bundles),
            "unit_for calls": unit_for_calls,
        }
        assert per_bundle == [1, 2], (k, per_bundle)
    for name in counts[4]:
        assert counts[8][name] <= 2.2 * counts[4][name], (name, counts)


def test_each_replica_bundles_like_a_lone_repo_a(tmp_path):
    """A K=4 sweep's bundles for each replica are K=1's with the package
    renamed: no replica's tests reach another replica's prompts."""
    rows = {}
    for k in (1, 4):
        repo, out = tmp_path / f"x{k}", tmp_path / f"out{k}"
        write_replicated_repo_a(repo, k)
        argv = ["sweep", str(repo), "--seed", "1", "--backend", "stub",
                "--runner", "recorded", "--out", str(out)]
        assert cli.main(argv) == 0
        rows[k] = [json.loads(l) for l in (out / "bundles.jsonl").read_text().splitlines()]
    (lone,) = {r["mut"]["fqn"].rsplit(".", 1)[0] for r in rows[1] if "mut" in r}
    pkgs = sorted({r["mut"]["fqn"].rsplit(".", 1)[0] for r in rows[4] if "mut" in r})
    assert len(pkgs) == 4 and lone in pkgs
    by_target = {r["target"]: r for r in rows[4]}
    for pkg in pkgs:
        for row in rows[1]:
            text = json.dumps(row, sort_keys=True)
            text = text.replace(lone, pkg).replace(lone.replace(".", "/"), pkg.replace(".", "/"))
            renamed = json.loads(text)
            assert by_target[renamed["target"]] == renamed, (pkg, renamed["target"])


def test_an_unbalanced_call_cuts_only_its_callers_sites(tmp_path, capsys):
    (tmp_path / "C.java").write_text(
        "class C {\n"
        "  void f() { a(); g(; }\n"
        "  void h() { throw new IllegalStateException(); }\n"
        "}\n"
    )
    (tmp_path / "D.java").write_text("class D {\n  void k() { new C().h(); }\n}\n")
    ctx = load_repo(tmp_path)
    sites = {mid.name: [s[0] for s in found] for mid, found in ctx.calls.items()}
    assert sites["f"] == ["a"] and sites["k"] == ["C", "h"]
    assert len(ctx.warnings) == 1 and "C.java" in ctx.warnings[0]
    assert cli.main(["find-throws", str(tmp_path), "--from-method", "D#k"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 and '"target": "C.java:3"' in rows[0]


def test_directly_invokes_tells_a_constructor_from_a_same_named_method(tmp_path):
    ctx = load_repo(_repo("ctor-names", tmp_path))
    ids = {(m.fqn, m.name): m for m in ctx.all_method_ids()}
    item_method, item_ctor = ids[("Box", "Item")], ids[("Item", "<init>")]
    inner_ctor = ids[("Box$Inner", "<init>")]

    def invokes(caller, mut):
        test = Method(ids[("Box", caller)], "", None, None)
        return directly_invokes(test, mut, ctx)

    assert invokes("a", item_method) and not invokes("a", item_ctor)
    assert invokes("b", item_ctor) and not invokes("b", item_method)
    assert invokes("c", inner_ctor) and not invokes("d", inner_ctor)


@pytest.mark.parametrize("creation", ["new Box<>(s)", "new Box<String>(s)", "new p.Box(s)"])
def test_a_generic_or_qualified_constructor_call_is_a_call(tmp_path, capsys, creation):
    pkg = tmp_path / "src/main/java/p"
    pkg.mkdir(parents=True)
    (pkg / "Box.java").write_text(
        "package p;\n\npublic class Box<T> {\n    public Box(T t) {\n"
        "        if (t == null) {\n            throw new IllegalArgumentException();\n"
        "        }\n    }\n}\n"
    )
    (pkg / "User.java").write_text(
        f"package p;\n\npublic class User {{\n    Object k(String s) {{\n"
        f"        return {creation};\n    }}\n}}\n"
    )
    ctx = load_repo(tmp_path)
    assert [sites for mid, sites in ctx.calls.items() if mid.name == "k"] == [[("Box", 1, 5, True)]]
    assert cli.main(["find-throws", str(tmp_path), "--from-method", "p.User#k"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 and '"path": ["p.User#k/1", "p.Box#<init>/1"]' in rows[0]
    trace = tmp_path / "trace.txt"
    trace.write_text(
        "java.lang.IllegalArgumentException\n\tat p.Box.<init>(Box.java:6)\n"
        "\tat p.User.k(User.java:5)\n"
    )
    assert cli.main(["guard", "--trace", str(trace), "--repo", str(tmp_path)]) == 0
    rendered, payload = capsys.readouterr().out.splitlines()
    assert rendered == "s == null" and '"unresolved_names": []' in payload


def test_a_method_named_by_a_contextual_keyword_is_called(tmp_path, capsys):
    (tmp_path / "C.java").write_text(
        "class C {\n"
        "  void record(int e) { throw new IllegalStateException(); }\n"
        "  void k() { record(1); }\n"
        "  void m() { this.record(2); }\n"
        "  int y(int x) { return switch (x) { default -> { yield (x); } }; }\n"
        "}\n"
    )
    ctx = load_repo(tmp_path)
    sites = {mid.name: [s[0] for s in found] for mid, found in ctx.calls.items()}
    assert sites["k"] == ["record"] and sites["m"] == ["record"] and sites["y"] == []
    for caller in ("k", "m"):
        assert cli.main(["find-throws", str(tmp_path), "--from-method", f"C#{caller}"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 1 and '"target": "C.java:2"' in rows[0], rows
