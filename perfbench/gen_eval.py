"""Candidate/reference generator for the eval-long workload.

A small repository holds one throwing method per target. Each target has
a reference test whose length follows a fixed schedule from short to long,
and a fixed schedule of candidate kinds: a self-pair, a comment/whitespace
variant and one seeded edit that rotates over the targets (renames,
changed literals, inserted, reordered or deleted statements, truncation).
The seed picks names, literals and which statements an edit touches;
identifiers and literals have fixed widths, so every seed scores about the
same number of characters.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import string
from dataclasses import dataclass
from pathlib import Path

# statements in each target's reference test, short to long
REF_STATEMENTS = (2, 3, 5, 7, 9, 12)
# candidate kinds per target, in order; the last one rotates with the target
FIXED_KINDS = ("self", "noise")
ROTATING_KINDS = ("rename", "literal", "insert", "reorder", "delete", "truncated")
# recorded functional results (compilable, runnable, covers_target)
FUNCTIONAL = ((True, True, True), (True, True, False), (True, False, False),
              (False, False, False))


_LIT_RE = re.compile(r"(?<![\w.])\d{3}(?!\w)")


@dataclass(frozen=True)
class Row:
    target: str
    kind: str
    candidate: str
    reference: str
    functional: tuple[bool, bool, bool]


def _name(rng: random.Random) -> str:
    return rng.choice(string.ascii_lowercase) + "".join(
        rng.choice(string.ascii_lowercase + string.digits) for _ in range(5)
    )


def _lit(rng: random.Random) -> int:
    return rng.randint(100, 999)


def _statements(rng: random.Random, cls: str, n: int) -> list[str]:
    """n statements of a test body; the last triggers the target throw."""
    obj = _name(rng)
    body = [f"{cls} {obj} = new {cls}({_lit(rng)});"]
    for shape in (k % 4 for k in range(n - 2)):
        name = _name(rng)
        if shape == 0:
            body.append(f"{obj}.put(\"{_name(rng)}\", {_lit(rng)});")
        elif shape == 1:
            body.append(f"int {name} = {obj}.size() + {_lit(rng)};")
        elif shape == 2:
            body.append(f"assertEquals({_lit(rng)}, {obj}.size());")
        else:
            body.append(f"if ({obj}.size() > {_lit(rng)}) {{ {obj}.clear(); }}")
    body.append(f"{obj}.take(-{_lit(rng)});")
    return body


def _method(name: str, exc: str, body: list[str]) -> str:
    inner = "\n".join("    " + s for s in body)
    return f"@Test(expected = {exc}.class)\npublic void {name}() {{\n{inner}\n}}"


def _edit(rng: random.Random, kind: str, name: str, exc: str, body: list[str]) -> str:
    body = list(body)
    if kind == "self":
        return _method(name, exc, body)
    if kind == "noise":
        noisy = []
        for k, s in enumerate(body):
            noisy.append(s.replace(" = ", "  =  ", 1))
            if k % 3 == 0:
                noisy.append(f"// {_name(rng)} {_name(rng)}")
        text = _method(name, exc, noisy)
        return "/* generated */\n" + text.replace("\n", "\n\n", 2)
    if kind == "rename":
        old = body[0].split()[1]
        new = _name(rng)
        return _method(name, exc, [s.replace(old, new) for s in body])
    if kind == "reorder":
        i, j = rng.sample(range(1, len(body) - 1), 2)
        body[i], body[j] = body[j], body[i]
        return _method(name, exc, body)
    if kind == "insert":
        body.insert(rng.randrange(1, len(body)), f"int {_name(rng)} = {_lit(rng)};")
        return _method(name, exc, body)
    if kind == "delete":
        del body[rng.randrange(1, len(body) - 1)]
        return _method(name, exc, body)
    if kind == "literal":
        return _method(name, exc, _relit(rng, body))
    if kind == "truncated":
        text = _method(name, exc, body)
        return text[: len(text) * 2 // 3]  # unbalanced braces: does not parse
    raise ValueError(kind)


def _relit(rng: random.Random, body: list[str]) -> list[str]:
    """Change one literal, and each other one with probability 1/2."""
    stmts = [s.split(" ") for s in body]
    spots = [(i, j) for i, toks in enumerate(stmts) for j, tok in enumerate(toks)
             if _LIT_RE.search(tok)]
    must = rng.choice(spots)
    for i, j in spots:
        if (i, j) == must or rng.random() < 0.5:
            old = _LIT_RE.search(stmts[i][j]).group(0)
            new = str(_lit(rng))
            while new == old:
                new = str(_lit(rng))
            stmts[i][j] = stmts[i][j].replace(old, new, 1)
    return [" ".join(toks) for toks in stmts]


def _class_source(pkg: str, cls: str) -> tuple[str, int]:
    lines = [
        f"package {pkg};",
        "",
        "import java.util.HashMap;",
        "import java.util.Map;",
        "",
        f"public class {cls} {{",
        "    private final Map<String, Integer> items = new HashMap<>();",
        "    private final int cap;",
        "",
        f"    public {cls}(int cap) {{",
        "        this.cap = cap;",
        "    }",
        "",
        "    public void put(String key, int value) {",
        "        items.put(key, value);",
        "    }",
        "",
        "    public int size() {",
        "        return items.size();",
        "    }",
        "",
        "    public void clear() {",
        "        items.clear();",
        "    }",
        "",
        "    public void take(int amount) {",
        "        if (amount < 0) {",
        '            throw new IllegalStateException("negative take");',
    ]
    throw_line = len(lines)
    lines += ["        }", "    }", "}"]
    return "\n".join(lines) + "\n", throw_line


def write_inputs(dest: Path, seed: int) -> tuple[dict, list[Row]]:
    """Write repo/, candidates.jsonl, refs.jsonl and runner-results.json."""
    rng = random.Random(seed)
    pkg = "ev." + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
    pdir = pkg.replace(".", "/")
    exc = "IllegalStateException"
    rows: list[Row] = []
    refs, runner_rows = [], []
    for t, n_stmts in enumerate(REF_STATEMENTS):
        cls = f"Store{t}"
        source, throw_line = _class_source(pkg, cls)
        path = dest / "repo/src/main/java" / pdir / f"{cls}.java"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        target = f"src/main/java/{pdir}/{cls}.java:{throw_line}"
        test_name = f"test{cls}RejectsNegativeTake"
        body = _statements(rng, cls, n_stmts)
        reference = _method(test_name, exc, body)
        refs.append({"target": target, "reference": reference, "exception_type": exc})
        kinds = FIXED_KINDS + (ROTATING_KINDS[t % len(ROTATING_KINDS)],)
        fallback = FUNCTIONAL[t % len(FUNCTIONAL)]
        runner_rows.append({"target": target, "compilable": fallback[0],
                            "runnable": fallback[1], "covers_target": fallback[2]})
        for k, kind in enumerate(kinds):
            candidate = _edit(rng, kind, test_name, exc, body)
            if (candidate == reference) != (kind == "self"):
                raise AssertionError(f"{kind} candidate for {target} is not an edit")
            functional = fallback
            if k == len(kinds) - 1:  # recorded by candidate digest
                functional = FUNCTIONAL[(t + k) % len(FUNCTIONAL)]
                runner_rows.insert(len(runner_rows) - 1, {
                    "target": target,
                    "candidate_digest": hashlib.sha256(candidate.encode()).hexdigest(),
                    "compilable": functional[0], "runnable": functional[1],
                    "covers_target": functional[2],
                })
            rows.append(Row(target, kind, candidate, reference, functional))
    # a test file, so that the repository has both source roots
    test_path = dest / "repo/src/test/java" / pdir / "Store0Test.java"
    test_path.parent.mkdir(parents=True, exist_ok=True)
    test_path.write_text(
        f"package {pkg};\n\nimport org.junit.Test;\n\npublic class Store0Test {{\n\n"
        + "\n".join("    " + l for l in refs[0]["reference"].split("\n")) + "\n}\n",
        encoding="utf-8",
    )
    with open(dest / "candidates.jsonl", "w", encoding="utf-8") as f:
        for r in rows:
            f.write(json.dumps({"target": r.target, "candidate": r.candidate}) + "\n")
    with open(dest / "refs.jsonl", "w", encoding="utf-8") as f:
        for r in refs:
            f.write(json.dumps(r) + "\n")
    (dest / "runner-results.json").write_text(json.dumps(runner_rows, indent=2))
    paths = {
        "repo": dest / "repo",
        "candidates": dest / "candidates.jsonl",
        "refs": dest / "refs.jsonl",
        "runner_results": dest / "runner-results.json",
    }
    return paths, rows
