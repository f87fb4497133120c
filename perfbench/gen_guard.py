"""Deep call-chain generator for the guard-deep workload.

Each generated class is one call chain `c<i>Stage0 -> ... -> c<i>Stage<D-1>`.
Every level assigns a local from one parameter, branches on it and passes
arguments down; only the innermost level throws. Each argument expression
refers to one caller name, so a condition's rendered size grows linearly
with the depth at which it sits. Method names carry the chain index, so a
name+arity scan never links one chain's tests to another chain.

The shape of each level (which branch, which parameter, compound or not,
a second conjunct or not, argument order) is fixed per chain index; the
seed picks the constants, the witness inputs and the package name.
Alongside the Java sources the generator keeps each chain's level specs;
`reaches_throw` interprets them directly and serves as the ground-truth
reachability predicate over the first level's parameters `p` and `q`.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass
from pathlib import Path

CMPS = (">", "<", ">=", "<=")
LOCALS = ("u", "v", "w")


@dataclass(frozen=True)
class Level:
    src: str  # parameter the local is computed from: p | q
    add: int  # local = src + add
    compound: bool  # written as `int u = src; u += add;`
    cmp: str
    bound: int
    branch: str  # then: call inside the then-branch; else: inside else
    extra: int | None  # then-branch only: `&& <other> != extra`
    step: int  # the local is passed down as `local + step`
    swap: bool  # pass (other, local + step) instead of (local + step, other)


@dataclass(frozen=True)
class Chain:
    index: int
    levels: tuple[Level, ...]  # all but the innermost
    final_bound: int  # innermost: throw when p - q > final_bound
    ok_args: tuple[int, int]  # reaches the innermost level, does not throw
    throw_args: tuple[int, int]  # reaches the throw


def _cmp(a: int, op: str, b: int) -> bool:
    return {">": a > b, "<": a < b, ">=": a >= b, "<=": a <= b}[op]


def _walk(chain: Chain, p: int, q: int):
    """(p, q) at the innermost level, or None when a branch is not taken."""
    for lv in chain.levels:
        local = (p if lv.src == "p" else q) + lv.add
        other = q if lv.src == "p" else p
        taken = _cmp(local, lv.cmp, lv.bound)
        if lv.branch == "else":
            taken = not taken
        elif lv.extra is not None:
            taken = taken and other != lv.extra
        if not taken:
            return None
        moved = local + lv.step
        p, q = (other, moved) if lv.swap else (moved, other)
    return p, q


def reaches_throw(chain: Chain, p: int, q: int) -> bool:
    inner = _walk(chain, p, q)
    return inner is not None and inner[0] - inner[1] > chain.final_bound


def _level(shape: random.Random, const: random.Random) -> Level:
    """One level: its shape from `shape`, its constants from `const`."""
    branch = shape.choice(("then", "then", "else"))
    cmp = shape.choice(CMPS)
    src = shape.choice("pq")
    compound = shape.random() < 0.3
    has_extra = branch == "then" and shape.random() < 0.4
    swap = shape.random() < 0.5
    # bounds on the permissive side, so that most inputs pass the branch
    bound = const.randint(-40, -20) if cmp in (">", ">=") else const.randint(20, 40)
    if branch == "else":
        cmp = {">": "<=", ">=": "<", "<": ">=", "<=": ">"}[cmp]
    return Level(
        src=src,
        add=const.randint(-5, 5),
        compound=compound,
        cmp=cmp,
        bound=bound,
        branch=branch,
        extra=const.randint(50, 90) if has_extra else None,
        step=const.randint(-3, 3),
        swap=swap,
    )


def make_chains(n: int, depth: int, seed: int) -> list[Chain]:
    """n chains; their shapes are the same for every seed, their constants not.

    Fixed shapes make every seed fold guards of the same size, so the
    seed changes the inputs but not the amount of work.
    """
    const = random.Random(seed)
    chains = []
    points = [(p, q) for p in range(-30, 31) for q in range(-30, 31)]
    for index in range(n):
        while True:
            shape = random.Random(1000 + index)
            levels = tuple(_level(shape, const) for _ in range(depth - 1))
            final_bound = const.randint(1, 10)
            probe = Chain(index, levels, final_bound, (0, 0), (0, 0))
            ok = throw = None
            for p, q in const.sample(points, 600):
                inner = _walk(probe, p, q)
                if inner is None:
                    continue
                if inner[0] - inner[1] > final_bound:
                    throw = throw or (p, q)
                else:
                    ok = ok or (p, q)
                if ok and throw:
                    break
            if ok and throw:
                chains.append(Chain(index, levels, final_bound, ok, throw))
                break
    return chains


def _signed(x: int) -> str:
    return f"+ {x}" if x >= 0 else f"- {-x}"


def _chain_source(pkg: str, chain: Chain) -> tuple[str, list[int], int]:
    """(source, call line of each non-innermost level, throw line)."""
    i = chain.index
    lines = [f"package {pkg};", "", f"public class Chain{i} {{"]
    call_lines: list[int] = []
    for j, lv in enumerate(chain.levels):
        local = LOCALS[j % len(LOCALS)]
        other = "q" if lv.src == "p" else "p"
        lines.append("")
        lines.append(f"    public void c{i}Stage{j}(int p, int q) {{")
        if lv.compound:
            lines.append(f"        int {local} = {lv.src};")
            lines.append(f"        {local} {'+=' if lv.add >= 0 else '-='} {abs(lv.add)};")
        else:
            lines.append(f"        int {local} = {lv.src} {_signed(lv.add)};")
        moved = f"{local} {_signed(lv.step)}"
        args = f"{other}, {moved}" if lv.swap else f"{moved}, {other}"
        call = f"c{i}Stage{j + 1}({args});"
        if lv.branch == "then":
            cond = f"{local} {lv.cmp} {lv.bound}"
            if lv.extra is not None:
                cond += f" && {other} != {lv.extra}"
            lines.append(f"        if ({cond}) {{")
            lines.append(f"            {call}")
            call_lines.append(len(lines))
            lines.append("        }")
        else:
            lines.append(f"        if ({local} {lv.cmp} {lv.bound}) {{")
            lines.append("            return;")
            lines.append("        } else {")
            lines.append(f"            {call}")
            call_lines.append(len(lines))
            lines.append("        }")
        lines.append("    }")
    d = len(chain.levels)
    lines.append("")
    lines.append(f"    public void c{i}Stage{d}(int p, int q) {{")
    lines.append("        int s = p - q;")
    lines.append(f"        if (s > {chain.final_bound}) {{")
    lines.append(f'            throw new IllegalStateException("chain {i} at depth {d}");')
    throw_line = len(lines)
    lines.append("        }")
    lines.append("    }")
    lines.append("}")
    return "\n".join(lines) + "\n", call_lines, throw_line


def _test_source(pkg: str, chain: Chain) -> tuple[str, int, int]:
    """(source, line of the call in the non-EBT, line of the call in the EBT)."""
    i = chain.index
    (op, oq), (tp, tq) = chain.ok_args, chain.throw_args
    lines = [
        f"package {pkg};",
        "",
        "import org.junit.Test;",
        "",
        f"public class Chain{i}Test {{",
        "",
        "    @Test",
        f"    public void testChain{i}Runs() {{",
        f"        Chain{i} chain = new Chain{i}();",
        f"        chain.c{i}Stage0({op}, {oq});",
    ]
    ok_line = len(lines)
    lines += [
        "    }",
        "",
        "    @Test(expected = IllegalStateException.class)",
        f"    public void testChain{i}Throws() {{",
        f"        Chain{i} chain = new Chain{i}();",
        f"        chain.c{i}Stage0({tp}, {tq});",
    ]
    throw_line = len(lines)
    lines += ["    }", "}"]
    return "\n".join(lines) + "\n", ok_line, throw_line


def write_repo(dest: Path, n: int, depth: int, seed: int) -> tuple[str, list[Chain]]:
    """Write the chain repository under dest; return (package, chains)."""
    rng = random.Random(seed ^ 0xC4A1)
    pkg = "gd." + "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
    chains = make_chains(n, depth, seed)
    pdir = pkg.replace(".", "/")
    nonebt_blocks, ebt_blocks, runner_rows = [], [], []
    for chain in chains:
        i = chain.index
        main_src, call_lines, throw_line = _chain_source(pkg, chain)
        test_src, ok_line, ebt_line = _test_source(pkg, chain)
        main_path = dest / "src/main/java" / pdir / f"Chain{i}.java"
        test_path = dest / "src/test/java" / pdir / f"Chain{i}Test.java"
        for path, text in ((main_path, main_src), (test_path, test_src)):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        d = len(chain.levels)
        # JVM order: innermost first; the inference path logs the entry of
        # the throwing method, the training path the throw itself
        outer = [
            f"at {pkg}.Chain{i}.c{i}Stage{j}(Chain{i}.java:{call_lines[j]})"
            for j in reversed(range(d))
        ]
        entry = throw_line - 2  # `int s = p - q;`
        nonebt_blocks.append("\n".join(
            [f"test: {pkg}.Chain{i}Test#testChain{i}Runs",
             f"at {pkg}.Chain{i}.c{i}Stage{d}(Chain{i}.java:{entry})"]
            + outer
            + [f"at {pkg}.Chain{i}Test.testChain{i}Runs(Chain{i}Test.java:{ok_line})",
               "---"]
        ))
        ebt_blocks.append("\n".join(
            [f"test: {pkg}.Chain{i}Test#testChain{i}Throws",
             f"at {pkg}.Chain{i}.c{i}Stage{d}(Chain{i}.java:{throw_line})"]
            + outer
            + [f"at {pkg}.Chain{i}Test.testChain{i}Throws(Chain{i}Test.java:{ebt_line})",
               "---"]
        ))
        runner_rows.append({
            "target": f"src/main/java/{pdir}/Chain{i}.java:{throw_line}",
            "compilable": True,
            "runnable": i % 3 != 0,
            "covers_target": i % 3 == 1,
        })
    (dest / "logs").mkdir(parents=True, exist_ok=True)
    (dest / "logs/nonebt-traces.log").write_text("\n".join(nonebt_blocks) + "\n")
    (dest / "logs/ebt-traces.log").write_text("\n".join(ebt_blocks) + "\n")
    canned = {"completions": [
        {"contains": f"Chain{k}.java:", "completion": _completion(pkg, chains[k])}
        for k in range(min(2, len(chains)))
    ]}
    canned["completions"].append({"completion": _completion(pkg, None)})
    (dest / "canned").mkdir(parents=True, exist_ok=True)
    (dest / "canned/completions.json").write_text(json.dumps(canned, indent=2))
    (dest / "canned/runner-results.json").write_text(json.dumps(runner_rows, indent=2))
    return pkg, chains


def _completion(pkg: str, chain: Chain | None) -> str:
    if chain is None:
        body = "    new Object().hashCode();\n"
        name = "testSomethingThrows"
    else:
        i = chain.index
        tp, tq = chain.throw_args
        body = f"    new Chain{i}().c{i}Stage0({tp}, {tq});\n"
        name = f"testChain{i}Throws"
    return (
        "The guard is satisfied by the arguments below.\n\n```java\n"
        "@Test(expected = IllegalStateException.class)\n"
        f"public void {name}() {{\n{body}}}\n```\n"
    )
