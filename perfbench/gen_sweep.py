"""repoA x K replicator for the sweep-large workload.

The template is a frozen copy of the fixture repository `repoA` (kept
beside this file so that edits to the test fixtures never change the
benchmark's inputs). Each replica lives in its own package; every source
file, trace-log frame and runner-results target is rewritten to that
package. The seed picks the package names and the order of the trace-log
blocks, never the structure, so every seed does the same amount of work.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

TEMPLATE = Path(__file__).resolve().parent / "repoA_template"
TEMPLATE_PKG = "com.fix"

# Outcomes of one replica, derived by hand from the template sources:
# target file:line -> (status, reason or dest file, trace frames, guard).
# The package is substituted for {pkg}, its path for {dir}.
EXPECTED_BUNDLES = {
    "Account.java:14": (
        "bundle", "AccountTest.java",
        [["{pkg}.Account", "withdraw", "Account.java", 14]], "amount < 0",
    ),
    "Account.java:22": (
        "bundle", "AccountTest.java",
        [["{pkg}.Account", "deposit", "Account.java", 22]],
        "(balance + amount) > limit",
    ),
    "Account.java:29": ("no-match", "no-matching-trace", None, None),
    "Corner.java:6": ("no-match", "no-matching-trace", None, None),
    "Ledger.java:8": (
        "bundle", "TestLedger.java",
        [["{pkg}.Ledger", "post", "Ledger.java", 8]], "value == 0",
    ),
    "Orphan.java:6": ("no-match", "no-dest-file", None, None),
}
# candidate rows: target -> (matched_e, compilable, runnable, covers_target,
# scored against a gold test)
EXPECTED_CANDIDATES = {
    "Account.java:14": (True, True, True, True, True),
    "Account.java:22": (True, True, True, True, True),
    "Ledger.java:8": (False, True, False, False, False),
}
# corpus examples: EBT -> (throw file:line, guard)
EXPECTED_CORPUS = {
    "AccountTest#testWithdrawNegative": ("Account.java:14", "amount < 0"),
    "AccountTest#testDepositOverLimit": ("Account.java:22", "(balance + amount) > limit"),
    "CornerTest#testSpinTooFast": ("Corner.java:6", "speed > 100"),
}
CORPUS_SKIPPED_PER_REPLICA = 1  # CornerTest#testLocalFailure: test frames only

# One answer per bundle target plus a default; the `contains` keys match
# every replica, so the stub's list does not grow with K.
DEFAULT_COMPLETION = (
    "```java\n@Test(expected = IllegalStateException.class)\n"
    "public void testFallback() {\n    new Orphan().boom(4);\n}\n```\n"
)


def package_names(k: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    stem = "".join(rng.choice(string.ascii_lowercase) for _ in range(6))
    return [f"org.{stem}.r{i:03d}" for i in range(k)]


def write_repo(dest: Path, k: int, seed: int) -> list[str]:
    """Write the K-replica repository under dest; return the packages."""
    pkgs = package_names(k, seed)
    rng = random.Random(seed ^ 0x5EED)
    nonebt_blocks: list[str] = []
    ebt_blocks: list[str] = []
    runner_rows: list[dict] = []
    tpl_dir = TEMPLATE_PKG.replace(".", "/")
    nonebt_tpl = _blocks(TEMPLATE / "logs" / "nonebt-traces.log")
    ebt_tpl = _blocks(TEMPLATE / "logs" / "ebt-traces.log")
    runner_tpl = json.loads((TEMPLATE / "canned" / "runner-results.json").read_text())
    for pkg in pkgs:
        pdir = pkg.replace(".", "/")
        for src in sorted((TEMPLATE / "src").rglob("*.java")):
            rel = src.relative_to(TEMPLATE).as_posix().replace(tpl_dir, pdir)
            out = dest / rel
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(_rename(src.read_text(), pkg), encoding="utf-8")
        nonebt_blocks += [_rename(b, pkg) for b in nonebt_tpl]
        ebt_blocks += [_rename(b, pkg) for b in ebt_tpl]
        for row in runner_tpl:
            row = dict(row)
            row["target"] = row["target"].replace(tpl_dir, pdir)
            runner_rows.append(row)
    rng.shuffle(nonebt_blocks)
    rng.shuffle(ebt_blocks)
    (dest / "logs").mkdir(parents=True, exist_ok=True)
    (dest / "logs" / "nonebt-traces.log").write_text("".join(nonebt_blocks))
    (dest / "logs" / "ebt-traces.log").write_text("".join(ebt_blocks))
    canned = json.loads((TEMPLATE / "canned" / "completions.json").read_text())
    canned["completions"].append({"completion": DEFAULT_COMPLETION})
    (dest / "canned").mkdir(parents=True, exist_ok=True)
    (dest / "canned" / "completions.json").write_text(json.dumps(canned, indent=2))
    (dest / "canned" / "runner-results.json").write_text(json.dumps(runner_rows, indent=2))
    return pkgs


def _blocks(path: Path) -> list[str]:
    """Trace-log blocks, each ending with its '---' separator line."""
    text = path.read_text()
    return [b.lstrip("\n") + "\n---\n" for b in text.split("\n---") if b.strip()]


def _rename(text: str, pkg: str) -> str:
    return text.replace(TEMPLATE_PKG + ".", pkg + ".").replace(
        f"package {TEMPLATE_PKG};", f"package {pkg};"
    )
