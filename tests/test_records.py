"""The rows of `bundles.jsonl` and `corpus.jsonl` are made of the same
records. A row has exactly the keys its table below lists; every method,
throw site and guard in it has its record's shape; and a corpus example
and the bundle of the same throw give that throw one and the same record.
A sweep of repoA and one of repoG, with a test class and trace logs
written for each of its guard-oracle cases, are checked."""

from __future__ import annotations

import json
import shutil

import pytest

from conftest import REPO_A, REPO_G, guard_trace
from exbt import cli
from exbt.jmodel import load_repo

# a bundle's record, which a bundle row and a corpus row both hold
BUNDLE = {"throw", "mut", "dest", "variant", "test_name", "seed", "template_id",
          "trace", "guard", "nonebts", "instruction"}
# each kind of row and its keys: a bundle row by its status
ROW_KEYS = {
    "bundle": {"target", "status", *BUNDLE},
    "no-match": {"target", "status", "throw", "reason"},
    "corpus": {"id", "target", *BUNDLE, "gold_ebt", "mut_source", "dest_skeleton"},
}
# each record's keys and the type of each value; a list holds strings
RECORD_SHAPES = {
    "throw": {"file": str, "line": int, "exception_type": str, "statement": str},
    "mut": {"fqn": str, "name": str, "param_arity": int, "decl_file": str, "decl_line": int},
    "guard": {"rendered": str, "conditions": list, "source_texts": list,
              "unresolved_names": list},
}


def write_traced_repo_g(repo) -> None:
    """repoG with a test class and both trace logs: for each guard-oracle
    case, a non-EBT and an EBT that call the case's first method, each
    traced from its test to the case's throw."""
    shutil.copytree(REPO_G / "src", repo / "src")
    ctx = load_repo(repo)
    oracle = json.loads((REPO_G / "guards-oracle.json").read_text())
    lines = ["package gx;", "", "import org.junit.Test;", "", "public class GuardsTest {"]
    logs: dict[str, list[str]] = {"nonebt": [], "ebt": []}
    for case, entry in sorted(oracle.items()):
        trace, site = guard_trace(ctx, entry)
        mut = trace.frames[0].mid
        args = ", ".join(["0"] * mut.param_arity)
        for kind, annotation in (("nonebt", "@Test"),
                                 ("ebt", f"@Test(expected = {site.exception_type}.class)")):
            name = f"{case}_{kind}"
            lines += ["", f"    {annotation}", f"    public void {name}() {{",
                      f"        new Guards().{mut.name}({args});", "    }"]
            logs[kind] += [f"test: gx.GuardsTest#{name}",
                           *(f.render() for f in reversed(trace.frames)),
                           f"at gx.GuardsTest.{name}(GuardsTest.java:{len(lines) - 1})", "---"]
    (repo / "src/test/java/gx").mkdir(parents=True)
    (repo / "src/test/java/gx/GuardsTest.java").write_text("\n".join([*lines, "}", ""]))
    (repo / "logs").mkdir()
    for kind, log in logs.items():
        (repo / f"logs/{kind}-traces.log").write_text("\n".join([*log, ""]))


@pytest.fixture(scope="module")
def swept(tmp_path_factory) -> dict[str, dict[str, list[dict]]]:
    """Each repository's bundle and corpus rows, from one seed-42 sweep."""
    base = tmp_path_factory.mktemp("records")
    write_traced_repo_g(base / "repoG")
    rows = {}
    for repo in (REPO_A, base / "repoG"):
        out = base / f"out-{repo.name}"
        argv = ["sweep", str(repo), "--seed", "42", "--backend", "stub", "--out", str(out)]
        assert cli.main(argv) == 0
        rows[repo.name] = {
            name: [json.loads(l) for l in (out / f"{name}.jsonl").read_text().splitlines()]
            for name in ("bundles", "corpus")}
    return rows


@pytest.fixture(params=["repoA", "repoG"])
def rows(request, swept) -> dict[str, list[dict]]:
    return swept[request.param]


def test_each_row_has_exactly_its_tables_keys(rows):
    assert rows["corpus"] and any(r["status"] == "bundle" for r in rows["bundles"])
    for row in rows["bundles"]:
        assert set(row) == ROW_KEYS[row["status"]], row["target"]
    for row in rows["corpus"]:
        assert set(row) == ROW_KEYS["corpus"], row["id"]


def test_each_method_throw_and_guard_has_its_records_shape(rows):
    for row in rows["bundles"] + rows["corpus"]:
        for key in RECORD_SHAPES.keys() & row.keys():
            record = row[key]
            assert {k: type(v) for k, v in record.items()} == RECORD_SHAPES[key], (key, record)
            assert all(isinstance(s, str) for v in record.values() if type(v) is list for s in v)
        assert f"{row['throw']['file']}:{row['throw']['line']}" == row["target"]


def test_a_corpus_example_and_its_bundle_give_the_throw_one_record(rows):
    bundles = {r["target"]: r for r in rows["bundles"]}
    shared = [e for e in rows["corpus"] if e["target"] in bundles]
    assert shared
    for example in shared:
        assert example["throw"] == bundles[example["target"]]["throw"], example["id"]
