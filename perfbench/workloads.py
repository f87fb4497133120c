"""The three benchmark workloads: inputs, command line and output checks.

Each workload writes its seeded inputs into a work directory, names the
`exbt` command line of one pass, counts the items a pass finished, and
checks a pass's outputs against expectations that do not come from exbt:
hand-derived outcomes (sweep-large), the generator's own reachability
predicate (guard-deep) and an independent edit distance (eval-long).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import gen_eval
import gen_guard
import gen_sweep
import oracles

SWEEP_REPLICAS = 16  # K: repoA copies, 112 Java files, 96 throw targets
GUARD_CHAINS = 16
GUARD_DEPTH = 16
MAX_IN_FLIGHT = max(1, min(4, os.cpu_count() or 1))


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class _Sweep:
    """Shared parts of the two `exbt sweep` workloads."""

    repo: Path

    def argv(self, out: Path) -> list[str]:
        return [
            "sweep", str(self.repo), "--seed", str(self.seed), "--backend", "stub",
            "--runner", "recorded", "--max-in-flight", str(MAX_IN_FLIGHT),
            "--out", str(out),
        ]

    def items(self, out: Path) -> int:
        return sum(
            1 for r in read_jsonl(out / "bundles.jsonl")
            if r["status"] in ("bundle", "no-match")
        )

    def checks(self, out: Path, run_cli):
        """run_cli(argv) runs one exbt command in-process and returns its rc."""
        manifest = str(out / "manifest.json")
        return self._checks(out) + [
            ("verify-manifest passes",
             lambda: expect(run_cli(["verify-manifest", manifest]) == 0, "digest mismatch")),
        ]


class SweepLarge(_Sweep):
    name = "sweep-large"

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.repo = work / "repo"
        self.pkgs = gen_sweep.write_repo(self.repo, SWEEP_REPLICAS, seed)

    def describe(self) -> str:
        return (f"repoA x {SWEEP_REPLICAS} packages: {7 * SWEEP_REPLICAS} Java files, "
                f"{6 * SWEEP_REPLICAS} throw targets")

    def _checks(self, out: Path):
        return [
            ("bundles match repoA outcomes", lambda: self._bundles(out)),
            ("candidates match repoA outcomes", lambda: self._candidates(out)),
            ("corpus matches repoA outcomes", lambda: self._corpus(out)),
            ("report counts match", lambda: self._report(out)),
        ]

    def _target(self, pkg: str, key: str) -> str:
        return f"src/main/java/{pkg.replace('.', '/')}/{key}"

    def _bundles(self, out: Path) -> None:
        rows = {r["target"]: r for r in read_jsonl(out / "bundles.jsonl")}
        expect(len(rows) == len(self.pkgs) * len(gen_sweep.EXPECTED_BUNDLES),
               f"{len(rows)} bundle rows")
        for pkg in self.pkgs:
            pdir = pkg.replace(".", "/")
            for key, (status, detail, frames, guard) in gen_sweep.EXPECTED_BUNDLES.items():
                target = self._target(pkg, key)
                row = rows.get(target)
                expect(row is not None, f"no row for {target}")
                expect(row["status"] == status, f"{target}: status {row['status']}")
                if status == "no-match":
                    expect(row["reason"] == detail, f"{target}: reason {row['reason']}")
                    continue
                expect(row["dest"] == f"src/test/java/{pdir}/{detail}",
                       f"{target}: dest {row['dest']}")
                want = [[f[0].format(pkg=pkg)] + f[1:] for f in frames]
                expect(row["trace"] == want, f"{target}: trace {row['trace']}")
                expect(row["guard"]["rendered"] == guard,
                       f"{target}: guard {row['guard']['rendered']!r}")
                expect(row["guard"]["unresolved_names"] == [], f"{target}: unresolved names")

    def _candidates(self, out: Path) -> None:
        rows = {r["target"]: r for r in read_jsonl(out / "candidates.jsonl")}
        expect(len(rows) == len(self.pkgs) * len(gen_sweep.EXPECTED_CANDIDATES),
               f"{len(rows)} candidate rows")
        for pkg in self.pkgs:
            for key, want in gen_sweep.EXPECTED_CANDIDATES.items():
                target = self._target(pkg, key)
                row = rows.get(target)
                expect(row is not None and row["status"] == "generated",
                       f"{target}: no generated candidate")
                matched_e, compilable, runnable, covers, scored = want
                got = (row["matched_e"], row["compilable"], row["runnable"],
                       row["covers_target"], row["edit_sim"] is not None)
                expect(got == want, f"{target}: candidate fields {got}")
                expect(row["xmatch"] is (False if scored else None), f"{target}: xmatch")

    def _corpus(self, out: Path) -> None:
        rows = {r["id"]: r for r in read_jsonl(out / "corpus.jsonl")}
        expect(len(rows) == len(self.pkgs) * len(gen_sweep.EXPECTED_CORPUS),
               f"{len(rows)} corpus examples")
        for pkg in self.pkgs:
            for test, (key, guard) in gen_sweep.EXPECTED_CORPUS.items():
                row = rows.get(f"{self.repo.name}:{pkg}.{test}")
                expect(row is not None, f"no corpus example for {pkg}.{test}")
                site = f"{row['throw']['file']}:{row['throw']['line']}"
                expect(site == self._target(pkg, key), f"{pkg}.{test}: throw {site}")
                expect(row["guard"]["rendered"] == guard, f"{pkg}.{test}: guard")
        manifest = json.loads((out / "manifest.json").read_text())
        skipped = manifest["counters"]["corpus_examples_skipped"]
        expect(skipped == len(self.pkgs) * gen_sweep.CORPUS_SKIPPED_PER_REPLICA,
               f"{skipped} corpus examples skipped")

    def _report(self, out: Path) -> None:
        report = json.loads((out / "report.json").read_text())
        k = len(self.pkgs)
        expect(report["no_match_reasons"] == {"no-matching-trace": 2 * k, "no-dest-file": k},
               f"no-match reasons {report['no_match_reasons']}")
        agg = report["aggregate"]
        expect(agg["targets"] == 6 * k and agg["candidates"] == 3 * k,
               f"{agg['targets']} targets, {agg['candidates']} candidates")
        expect(agg["throw_cov"] == (2 * k) / (6 * k), f"throw_cov {agg['throw_cov']}")


class GuardDeep(_Sweep):
    name = "guard-deep"

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.repo = work / "repo"
        self.pkg, self.chains = gen_guard.write_repo(
            self.repo, GUARD_CHAINS, GUARD_DEPTH, seed
        )

    def describe(self) -> str:
        return (f"{GUARD_CHAINS} call chains of depth {GUARD_DEPTH}, "
                f"one non-EBT and one EBT each")

    def _checks(self, out: Path):
        return [
            ("bundle guards agree with the chain predicates", lambda: self._bundles(out)),
            ("corpus guards agree with the chain predicates", lambda: self._corpus(out)),
        ]

    def _throw_target(self, chain) -> str:
        pdir = self.pkg.replace(".", "/")
        return f"src/main/java/{pdir}/Chain{chain.index}.java"

    def _agree(self, chain, guard: dict, where: str) -> None:
        expect(guard["unresolved_names"] == [],
               f"{where}: unresolved names {guard['unresolved_names']}")
        rng = random.Random(self.seed * 1000 + chain.index)
        envs = [chain.ok_args, chain.throw_args]
        envs += [(chain.throw_args[0] + rng.randint(-3, 3),
                  chain.throw_args[1] + rng.randint(-3, 3)) for _ in range(8)]
        envs += [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(40)]
        for p, q in envs:
            want = gen_guard.reaches_throw(chain, p, q)
            try:
                got = oracles.eval_java_int_expr(guard["rendered"], {"p": p, "q": q})
            except ValueError as exc:
                raise CheckFailed(f"{where}: guard does not evaluate: {exc}") from exc
            expect(got is want, f"{where}: guard is {got} at p={p}, q={q}")

    def _bundles(self, out: Path) -> None:
        rows = {r["target"].rsplit(":", 1)[0]: r for r in read_jsonl(out / "bundles.jsonl")}
        expect(len(rows) == len(self.chains), f"{len(rows)} bundle rows")
        for chain in self.chains:
            path = self._throw_target(chain)
            row = rows.get(path)
            expect(row is not None and row["status"] == "bundle", f"{path}: no bundle")
            expect(len(row["trace"]) == GUARD_DEPTH, f"{path}: {len(row['trace'])} frames")
            self._agree(chain, row["guard"], path)

    def _corpus(self, out: Path) -> None:
        rows = {r["throw"]["file"]: r for r in read_jsonl(out / "corpus.jsonl")}
        expect(len(rows) == len(self.chains), f"{len(rows)} corpus examples")
        for chain in self.chains:
            path = self._throw_target(chain)
            expect(path in rows, f"{path}: no corpus example")
            self._agree(chain, rows[path]["guard"], f"corpus {path}")


class EvalLong:
    name = "eval-long"

    def __init__(self, work: Path, seed: int):
        self.seed = seed
        self.work = work
        self.paths, self.rows = gen_eval.write_inputs(work, seed)
        self.repo = self.paths["repo"]

    def describe(self) -> str:
        refs = sorted({len(r.reference) for r in self.rows})
        return (f"{len(self.rows)} candidates for {len(gen_eval.REF_STATEMENTS)} targets, "
                f"references of {refs[0]}..{refs[-1]} characters")

    def argv(self, out: Path, candidates: Path | None = None) -> list[str]:
        return [
            "eval", "--candidates", str(candidates or self.paths["candidates"]),
            "--refs", str(self.paths["refs"]), "--repo", str(self.repo),
            "--runner-results", str(self.paths["runner_results"]),
            "--out", str(out / "report.json"),
        ]

    def items(self, out: Path) -> int:
        return json.loads((out / "report.json").read_text())["aggregate"]["candidates"]

    def checks(self, out: Path, run_cli):
        """run_cli(argv) runs one exbt command in-process and returns its rc."""
        per_row: list[dict] = []

        def row_scores() -> None:
            for k, row in enumerate(self.rows):
                one = self.work / f"row-{k}"
                one.mkdir(exist_ok=True)
                cand = one / "candidates.jsonl"
                cand.write_text(json.dumps({"target": row.target,
                                            "candidate": row.candidate}) + "\n")
                expect(run_cli(self.argv(one, cand)) == 0, f"row {k}: eval failed")
                per_row.append(json.loads((one / "report.json").read_text())["aggregate"])

        def edit_sim() -> None:
            for k, (row, agg) in enumerate(zip(self.rows, per_row)):
                want = oracles.edit_similarity(row.candidate, row.reference)
                expect(agg["edit_sim"] == want, f"row {k}: edit_sim {agg['edit_sim']} != {want}")

        def identities() -> None:
            for k, (row, agg) in enumerate(zip(self.rows, per_row)):
                if row.kind == "self":
                    got = (agg["bleu"], agg["code_bleu"], agg["edit_sim"])
                    expect(got == (1.0, 1.0, 1.0), f"row {k}: self-pair scores {got}")
                if row.kind == "noise":
                    expect(agg["xmatch_pct"] == 100.0, f"row {k}: noise breaks xmatch")
                if row.kind == "truncated":  # does not parse: CodeBLEU degrades to BLEU
                    expect(agg["code_bleu"] == agg["bleu"], f"row {k}: code_bleu not degraded")

        def functional() -> None:
            n_targets = len(gen_eval.REF_STATEMENTS)
            for k, (row, agg) in enumerate(zip(self.rows, per_row)):
                c, r, cov = row.functional
                got = (agg["compilable_pct"], agg["runnable_pct"], agg["throw_cov"])
                want = (100.0 * c, 100.0 * r, (1 / n_targets) if cov else 0.0)
                expect(got == want, f"row {k}: functional {got} != {want}")

        def means() -> None:
            agg = json.loads((out / "report.json").read_text())["aggregate"]
            expect(agg["candidates"] == len(self.rows), f"{agg['candidates']} candidates")
            for key in ("bleu", "code_bleu", "edit_sim"):
                mean = sum(a[key] for a in per_row) / len(per_row)
                expect(abs(agg[key] - mean) <= 1e-12, f"{key} mean {agg[key]} != {mean}")
            covered = {row.target for row in self.rows if row.functional[2]}
            want = len(covered) / len(gen_eval.REF_STATEMENTS)
            expect(agg["throw_cov"] == want, f"throw_cov {agg['throw_cov']} != {want}")

        return [
            ("per-row scores", row_scores),
            ("edit_sim equals an independent Levenshtein", edit_sim),
            ("self-pair, noise and degraded identities", identities),
            ("functional fields equal the recorded ones", functional),
            ("aggregate means equal per-row means", means),
        ]


WORKLOADS = {w.name: w for w in (SweepLarge, GuardDeep, EvalLong)}
