"""Inference-time context assembly.

Builds the pool of (trace, originating test, throw site) entries from
non-exceptional test executions, matches (method under test, target throw)
pairs against it, selects destination test files, and renders the final
instruction text. A target with no usable context yields a typed NoMatch,
never an exception.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from functools import cached_property

from exbt.classifier import TestMethod, has_test_annotation
from exbt.errors import EmptyAfterExclusion, UnknownMethod
from exbt.guardexpr import GuardExpression, compute_guard_expression
from exbt.instrument import TraceLog
from exbt.jmodel import MethodId, RepoContext, ThrowSite
from exbt.stacktrace import StackTrace, exclude_test_and_util_frames

logger = logging.getLogger(__name__)

TEMPLATE_ID = "exbt-inst-v1"
NONEBT_TOKEN_BUDGET = 2048  # whitespace tokens for the relevant-test slot


@dataclass(frozen=True)
class TracePoolEntry:
    trace: StackTrace  # MUT-first, test/util frames excluded
    source_test: MethodId
    throw_site: ThrowSite


@dataclass(frozen=True)
class NoMatch:
    reason: str  # no-matching-trace | no-dest-file


@dataclass(frozen=True)
class PromptBundle:
    mut: MethodId
    mut_source: str
    throw_site: ThrowSite
    dest_path: str
    dest_skeleton: str
    trace: StackTrace
    guard: GuardExpression
    nonebts: tuple[str, ...]  # relevant non-EBT sources, ranked
    variant: str  # with-name | no-name
    test_name: str | None
    template_id: str
    rendered_instruction: str
    seed: int | None = None


def test_method_label(mid: MethodId) -> str:
    """The `fqn#name` label a trace log gives a test: no arity, no position."""
    return f"{mid.fqn}#{mid.name}"


class SweepIndex:
    """The per-target lookups of one sweep, built once: the non-EBTs by
    MethodId, as (rank, test), and by declaring file, in position order
    (declaring file, line, then list order); on first use, the non-EBTs
    that call each method, and one destination skeleton per file. Every
    function that takes `nonebts` also takes a SweepIndex in its place."""

    def __init__(self, ctx: RepoContext, nonebts):
        self.ctx = ctx
        self.by_id: dict[MethodId, list[tuple[int, TestMethod]]] = {}
        self.by_file: dict[str, list[TestMethod]] = {}
        ordered = sorted(nonebts, key=lambda t: (t.id.decl_file, t.id.decl_line))  # stable
        for rank, t in enumerate(ordered):
            self.by_id.setdefault(t.id, []).append((rank, t))
            self.by_file.setdefault(t.id.decl_file, []).append(t)
        self._skeletons: dict[str, str] = {}

    @classmethod
    def of(cls, ctx: RepoContext, nonebts) -> "SweepIndex":
        return nonebts if isinstance(nonebts, cls) else cls(ctx, nonebts)

    @cached_property
    def callers(self) -> dict[MethodId, list[MethodId]]:
        """The non-EBTs calling each method: `callees_of` of each non-EBT,
        inverted. Only non-EBTs get their call sites resolved."""
        index: dict[MethodId, list[MethodId]] = {}
        for test in self.by_id:
            for callee in self.ctx.callees_of(test):
                index.setdefault(callee, []).append(test)
        return index

    def skeleton(self, dest: str) -> str:
        if dest not in self._skeletons:
            self._skeletons[dest] = build_dest_skeleton(self.ctx, dest)
        return self._skeletons[dest]


def collect_stacktrace_set(
    nonebts: list[TestMethod],
    ctx: RepoContext,
    trace_log: TraceLog,
) -> list[TracePoolEntry]:
    """Pool of throw-reaching traces from non-EBT executions.

    Each logged trace yields one entry per throw statement declared in its
    innermost method. A trace with a frame that names no method of the
    repository is skipped with a warning.
    """
    by_label = {test_method_label(t.id): t for t in nonebts}
    entries: list[TracePoolEntry] = []
    seen: set[tuple] = set()
    for trace, test_id in trace_log:
        test = by_label.get(test_id)
        if test is None:
            logger.warning("trace for unknown non-EBT %r skipped", test_id)
            continue
        try:
            excluded = exclude_test_and_util_frames(trace, test.id.decl_file, ctx)
        except EmptyAfterExclusion:
            continue
        try:
            for f in excluded.frames:  # the innermost frame's decl is left
                _, _, decl = ctx.resolve_frame(f.class_fqn, f.method, f.line)
        except UnknownMethod as exc:
            logger.warning("trace of %s skipped: frame %s does not resolve", test_id, exc)
            continue
        for site in ctx.throw_sites_by_method.get(decl.mid, ()):
            key = (excluded.frames, test.id, site)
            if key in seen:
                continue
            seen.add(key)
            entries.append(TracePoolEntry(excluded, test.id, site))
    entries.sort(
        key=lambda e: (
            e.throw_site.method.decl_file,
            e.throw_site.line,
            e.source_test.decl_file,
            e.source_test.decl_line,
        )
    )
    return entries


def _frame_matches(frame, mut: MethodId) -> bool:
    return frame.method == mut.name and (
        frame.class_fqn == mut.fqn or frame.class_fqn.endswith("." + mut.fqn)
    )


def rank_relevant_nonebts(
    mut: MethodId,
    dest: str,
    nonebts: list[TestMethod] | SweepIndex,
    ctx: RepoContext,
    also_same_mut: frozenset[MethodId] | set[MethodId] = frozenset(),
    budget: int = NONEBT_TOKEN_BUDGET,
) -> list[TestMethod]:
    """Same-MUT tests (the non-EBTs that call the MUT and the tests whose
    id is in `also_same_mut`), then same-destination-file tests whose label
    is not ranked yet, each group in position order, cut at `budget`
    tokens."""
    index = SweepIndex.of(ctx, nonebts)
    ids = set(also_same_mut).union(index.callers.get(mut, ()))
    same_mut = {rank: t for mid in ids for rank, t in index.by_id.get(mid, ())}
    ranked = [same_mut[rank] for rank in sorted(same_mut)]
    seen = {test_method_label(t.id) for t in ranked}
    for t in index.by_file.get(dest, ()):
        if test_method_label(t.id) not in seen:
            ranked.append(t)
            seen.add(test_method_label(t.id))
    used = 0  # whitespace tokens
    for k, t in enumerate(ranked):
        used += len(t.body_text.split())
        if used > budget:
            return ranked[:k]
    return ranked


def directly_invokes(test: TestMethod, mut: MethodId, ctx: RepoContext) -> bool:
    """Whether one of the test's call sites resolves to the method."""
    return mut in ctx.callees_of(test.id)


def select_dest_with_reason(mut: MethodId, ctx: RepoContext) -> tuple[str | None, str]:
    """(path, mechanism): <FNM>Test.java then Test<FNM>.java among test files,
    same package preferred, is a name-match; else (None, "none")."""
    stem = mut.decl_file.rsplit("/", 1)[-1].removesuffix(".java")
    mut_unit = ctx.unit_for(mut.decl_file)
    mut_pkg = mut_unit.package if mut_unit is not None else ""
    by_name = ctx.test_files_by_name
    for name in (f"{stem}Test.java", f"Test{stem}.java"):
        found = by_name.get((name, mut_pkg)) or by_name.get((name, None))
        if found:
            return found[0], "name-match"
    return None, "none"


# strip @Test methods, keep class structure and helpers
def build_dest_skeleton(ctx: RepoContext, dest_path: str) -> str:
    unit = ctx.unit_for(dest_path)
    if unit is None:
        return ""
    drop: list[tuple[int, int]] = []
    for _, m in unit.all_methods():
        if has_test_annotation(m):
            drop.append((m.start_line, m.end_line))
    lines = unit.source.split("\n")
    kept = [
        line
        for i, line in enumerate(lines, start=1)
        if not any(lo <= i <= hi for lo, hi in drop)
    ]
    out: list[str] = []
    for line in kept:  # collapse runs of blank lines left by removal
        if line.strip() == "" and out and out[-1].strip() == "":
            continue
        out.append(line)
    return "\n".join(out)


def _reindent(text: str) -> str:
    """Strip the declaration indent from an extracted member source."""
    lines = text.split("\n")
    if len(lines) < 2:
        return text
    tail = [l for l in lines[1:] if l.strip()]
    if not tail:
        return text
    indent = min(len(l) - len(l.lstrip()) for l in tail)
    last = lines[-1]
    base = len(last) - len(last.lstrip())
    cut = min(indent, base + 4)
    return "\n".join([lines[0]] + [l[cut:] if l.strip() else l for l in lines[1:]])


def render_instruction(bundle: PromptBundle) -> str:
    """Deterministic instruction text with stable section markers.

    Section order is fixed; empty sections are omitted together with their
    headers. The with-name variant adds exactly one extra section.
    """
    parts: list[str] = [f"// template: {bundle.template_id}"]
    parts.append(
        "### Task\n"
        "Write a JUnit test method that calls the method under test and "
        f"asserts that `{bundle.throw_site.exception_type}` is thrown by the "
        "target throw statement below. Reply with one complete test method."
    )
    if bundle.mut_source:
        parts.append("### Method under test\n" + _reindent(bundle.mut_source))
    site = bundle.throw_site
    parts.append(
        "### Target throw statement\n"
        f"// {site.method.decl_file}:{site.line} (exception: {site.exception_type})\n"
        + site.statement_text
    )
    if bundle.trace.frames:
        frames = "\n".join(f.render() for f in bundle.trace.frames)
        parts.append("### Stack trace (method under test first)\n" + frames)
    if bundle.guard.rendered:
        parts.append("### Guard expression\n" + bundle.guard.rendered)
    if bundle.nonebts:
        parts.append(
            "### Relevant tests\n"
            + "\n\n".join(_reindent(t) for t in bundle.nonebts)
        )
    if bundle.dest_skeleton:
        parts.append("### Destination test file\n" + bundle.dest_skeleton)
    if bundle.variant == "with-name" and bundle.test_name:
        parts.append("### Test name\n" + bundle.test_name)
    return "\n\n".join(parts) + "\n"


def make_bundle(
    mut: MethodId,
    site: ThrowSite,
    dest: str,
    trace: StackTrace,
    guard: GuardExpression,
    nonebts: list[TestMethod] | SweepIndex,
    ctx: RepoContext,
    also_same_mut: frozenset[MethodId] | set[MethodId] = frozenset(),
    variant: str = "no-name",
    test_name: str | None = None,
    seed: int | None = None,
    budget: int = NONEBT_TOKEN_BUDGET,
) -> PromptBundle:
    """The one prompt builder: rank the relevant non-EBTs, read the MUT
    source and the destination skeleton, and render the instruction once."""
    index = SweepIndex.of(ctx, nonebts)
    ranked = rank_relevant_nonebts(mut, dest, index, ctx, also_same_mut, budget)
    bundle = PromptBundle(
        mut=mut,
        mut_source=ctx.method_source(mut),
        throw_site=site,
        dest_path=dest,
        dest_skeleton=index.skeleton(dest),
        trace=trace,
        guard=guard,
        nonebts=tuple(t.body_text for t in ranked),
        variant=variant,
        test_name=test_name,
        template_id=TEMPLATE_ID,
        rendered_instruction="",
        seed=seed,
    )
    return replace(bundle, rendered_instruction=render_instruction(bundle))


def assemble_prompt(
    mut: MethodId,
    throw_site: ThrowSite,
    dest: str,
    pool: list[TracePoolEntry],
    nonebts: list[TestMethod] | SweepIndex,
    ctx: RepoContext,
    seed: int = 0,
    variant: str = "no-name",
    test_name: str | None = None,
) -> PromptBundle | NoMatch:
    """Match the pool, pick one trace with a seeded RNG, build the bundle.
    The pool may hold only the entries of `throw_site`, as a sweep passes it."""
    matching = [
        q
        for q in pool
        if q.throw_site == throw_site and any(_frame_matches(f, mut) for f in q.trace.frames)
    ]
    if not matching:
        return NoMatch("no-matching-trace")
    pool_same_mut = {q.source_test for q in matching if _frame_matches(q.trace.frames[0], mut)}
    pick = random.Random(seed).choice(matching)
    trace = pick.trace.with_last_line(throw_site.line)
    guard = compute_guard_expression(trace, ctx, throw_site)
    return make_bundle(
        mut, throw_site, dest, trace, guard, nonebts, ctx, pool_same_mut,
        variant=variant, test_name=test_name, seed=seed,
    )


def sweep_targets(
    ctx: RepoContext,
    pool: list[TracePoolEntry],
    nonebts: list[TestMethod] | SweepIndex,
    seed: int = 0,
    variant: str = "no-name",
) -> list[tuple[ThrowSite, PromptBundle | NoMatch]]:
    """Machine-oriented sweep: one (site, bundle-or-NoMatch) per main throw.

    The method under test is the method containing the throw; destination
    files come from the naming heuristics alone, so a target without a
    name-matched test file is `NoMatch("no-dest-file")`.
    """
    main = set(ctx.main_files)
    index = SweepIndex.of(ctx, nonebts)
    pool_by_site: dict[ThrowSite, list[TracePoolEntry]] = {}
    for entry in pool:
        pool_by_site.setdefault(entry.throw_site, []).append(entry)
    results = []
    for site in ctx.throw_sites:
        if site.method.decl_file not in main:
            continue
        mut = site.method
        dest, _ = select_dest_with_reason(mut, ctx)
        if dest is None:
            results.append((site, NoMatch("no-dest-file")))
            continue
        outcome = assemble_prompt(
            mut, site, dest, pool_by_site.get(site, []), index, ctx, seed=seed, variant=variant
        )
        results.append((site, outcome))
    return results


def bundle_to_record(outcome, site: ThrowSite) -> dict:
    """JSON-friendly record for one sweep target."""
    base = {
        "target": site.label(),
        "exception_type": site.exception_type,
        "statement": site.statement_text,
    }
    if isinstance(outcome, NoMatch):
        base.update({"status": "no-match", "reason": outcome.reason})
        return base
    b: PromptBundle = outcome
    base.update(
        {
            "status": "bundle",
            "mut": b.mut.label(),
            "dest": b.dest_path,
            "variant": b.variant,
            "test_name": b.test_name,
            "seed": b.seed,
            "template_id": b.template_id,
            "trace": b.trace.to_rows(),
            "guard": {
                "rendered": b.guard.rendered,
                "conditions": list(b.guard.conditions),
                "unresolved_names": list(b.guard.unresolved_names),
            },
            "nonebts": list(b.nonebts),
            "instruction": b.rendered_instruction,
        }
    )
    return base
