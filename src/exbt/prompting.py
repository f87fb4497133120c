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
from dataclasses import dataclass, field
from functools import cached_property

from exbt.classifier import TestMethod, has_test_annotation
from exbt.errors import EmptyAfterExclusion, FrameOutOfSpan, UnknownMethod
from exbt.guardexpr import GuardExpression, compute_guard_expression
from exbt.jmodel import MethodId, RepoContext, ThrowSite, find_throw_sites
from exbt.stacktrace import StackTrace, TraceLog, resolve_trace

logger = logging.getLogger(__name__)

TEMPLATE_ID = "exbt-inst-v1"
NONEBT_TOKEN_BUDGET = 2048  # whitespace tokens for the relevant-test slot


@dataclass(frozen=True)
class TracePoolEntry:
    trace: StackTrace  # MUT-first, test/util frames excluded, resolved
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
    test_name: str | None
    rendered_instruction: str = field(init=False)
    seed: int | None = None

    def __post_init__(self):
        """Render the instruction once, when the bundle (or a `replace`) is built."""
        object.__setattr__(self, "rendered_instruction", render_instruction(self))

    @property
    def variant(self) -> str:
        return "with-name" if self.test_name else "no-name"

    def to_record(self) -> dict:
        """The JSON form of a bundle: the records of its throw site, method,
        trace and guard, its destination path, its non-EBTs and the
        instruction they render to."""
        return {"throw": self.throw_site.to_record(), "mut": self.mut.to_record(),
                "dest": self.dest_path, "variant": self.variant, "test_name": self.test_name,
                "seed": self.seed, "template_id": TEMPLATE_ID, "trace": self.trace.to_rows(),
                "guard": self.guard.to_record(), "nonebts": list(self.nonebts),
                "instruction": self.rendered_instruction}


def test_method_label(mid: MethodId) -> str:
    """The `fqn#name` label a trace log gives a test: no arity, no position."""
    return f"{mid.fqn}#{mid.name}"


class SweepIndex:
    """The non-EBTs of one command and its per-target lookups, built once
    over one repository: the non-EBTs by MethodId, as (rank, test), by
    declaring file and by label, in position order (declaring file, line,
    then list order), so of two tests sharing a label the later one is
    kept; on first use, the non-EBTs that call each method, and one
    destination skeleton per file. The pool, ranking, the prompt builder
    and the corpus read the non-EBTs and the repository only through it."""

    def __init__(self, ctx: RepoContext, nonebts: list[TestMethod]):
        self.ctx = ctx
        self.by_id: dict[MethodId, list[tuple[int, TestMethod]]] = {}
        self.by_file: dict[str, list[TestMethod]] = {}
        self.by_label: dict[str, TestMethod] = {}
        ordered = sorted(nonebts, key=lambda t: (t.id.decl_file, t.id.decl_line))  # stable
        for rank, t in enumerate(ordered):
            self.by_id.setdefault(t.id, []).append((rank, t))
            self.by_file.setdefault(t.id.decl_file, []).append(t)
            self.by_label[test_method_label(t.id)] = t
        self._skeletons: dict[str, str] = {}

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


def collect_stacktrace_set(index: SweepIndex, trace_log: TraceLog) -> list[TracePoolEntry]:
    """Pool of throw-reaching traces from non-EBT executions.

    Each logged trace yields one entry per throw statement declared in its
    innermost method. A trace with a frame that does not resolve (see
    `resolve_trace`) is skipped with a warning.
    """
    ctx = index.ctx
    entries: list[TracePoolEntry] = []
    seen: set[tuple] = set()
    for trace, test_id in trace_log:
        test = index.by_label.get(test_id)
        if test is None:
            logger.warning("trace for unknown non-EBT %r skipped", test_id)
            continue
        try:
            resolved = resolve_trace(trace, ctx)
        except EmptyAfterExclusion:
            continue
        except (UnknownMethod, FrameOutOfSpan) as exc:
            logger.warning("trace of %s skipped: frame %s does not resolve", test_id, exc)
            continue
        for site in ctx.throw_sites_by_method.get(resolved.frames[-1].mid, ()):
            key = (resolved.frames, test.id, site)
            if key in seen:
                continue
            seen.add(key)
            entries.append(TracePoolEntry(resolved, test.id, site))
    entries.sort(
        key=lambda e: (
            e.throw_site.method.decl_file,
            e.throw_site.line,
            e.source_test.decl_file,
            e.source_test.decl_line,
        )
    )
    return entries


def rank_relevant_nonebts(
    mut: MethodId,
    dest: str,
    index: SweepIndex,
    also_same_mut: frozenset[MethodId] | set[MethodId] = frozenset(),
    budget: int = NONEBT_TOKEN_BUDGET,
) -> list[TestMethod]:
    """Same-MUT tests (the non-EBTs that call the MUT and the tests whose
    id is in `also_same_mut`), then same-destination-file tests whose label
    is not ranked yet, each group in position order, cut at `budget`
    tokens."""
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


def select_dest_with_reason(mut: MethodId, ctx: RepoContext) -> str | None:
    """The destination test file by name match: <FNM>Test.java then
    Test<FNM>.java among test files, same package preferred; else None."""
    stem = mut.decl_file.rsplit("/", 1)[-1].removesuffix(".java")
    mut_unit = ctx.unit_for(mut.decl_file)
    mut_pkg = mut_unit.package if mut_unit is not None else ""
    by_name = ctx.test_files_by_name
    for name in (f"{stem}Test.java", f"Test{stem}.java"):
        found = by_name.get((name, mut_pkg)) or by_name.get((name, None))
        if found:
            return found[0]
    return None


def build_dest_skeleton(ctx: RepoContext, dest_path: str) -> str:
    """The destination file without its @Test methods, keeping the class
    structure and helpers: each such method's token span is cut, with the
    indent before it and the line break after it when only whitespace
    shares its first or last line, and runs of blank lines collapse."""
    unit = ctx.unit_for(dest_path)
    if unit is None:
        return ""
    src, toks = unit.source, unit.tokens
    kept: list[str] = []
    pos = 0
    for first, last in sorted((m.tok_start, m.tok_last) for _, m in unit.all_methods()
                              if has_test_annotation(m)):
        lo, hi = toks[first].offset, toks[last].end
        line_start = src.rfind("\n", 0, lo) + 1
        if not src[line_start:lo].strip():
            lo = line_start
        line_end = src.find("\n", hi) + 1 or len(src)
        if not src[hi:line_end].strip():
            hi = line_end
        kept.append(src[pos:lo])
        pos = hi
    kept.append(src[pos:])
    out: list[str] = []
    for line in "".join(kept).split("\n"):  # collapse runs of blank lines left by removal
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
    parts: list[str] = [f"// template: {TEMPLATE_ID}"]
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
    if bundle.test_name:
        parts.append("### Test name\n" + bundle.test_name)
    return "\n\n".join(parts) + "\n"


def make_bundle(
    mut: MethodId,
    site: ThrowSite,
    dest: str,
    trace: StackTrace,
    guard: GuardExpression,
    index: SweepIndex,
    also_same_mut: frozenset[MethodId] | set[MethodId] = frozenset(),
    test_name: str | None = None,
    seed: int | None = None,
    budget: int = NONEBT_TOKEN_BUDGET,
) -> PromptBundle:
    """The one prompt builder: rank the relevant non-EBTs and read the MUT
    source and the destination skeleton; the bundle renders itself once."""
    ranked = rank_relevant_nonebts(mut, dest, index, also_same_mut, budget)
    return PromptBundle(
        mut=mut,
        mut_source=index.ctx.method_source(mut),
        throw_site=site,
        dest_path=dest,
        dest_skeleton=index.skeleton(dest),
        trace=trace,
        guard=guard,
        nonebts=tuple(t.body_text for t in ranked),
        test_name=test_name,
        seed=seed,
    )


def assemble_prompt(
    mut: MethodId,
    throw_site: ThrowSite,
    dest: str,
    pool: list[TracePoolEntry],
    index: SweepIndex,
    seed: int = 0,
    test_name: str | None = None,
) -> PromptBundle | NoMatch:
    """Match the pool, pick one trace with a seeded RNG, build the bundle.
    The pool may hold only the entries of `throw_site`, as a sweep passes it."""
    matching = [
        q
        for q in pool
        if q.throw_site == throw_site and any(f.mid == mut for f in q.trace.frames)
    ]
    if not matching:
        return NoMatch("no-matching-trace")
    pool_same_mut = {q.source_test for q in matching if q.trace.frames[0].mid == mut}
    pick = random.Random(seed).choice(matching)
    trace = pick.trace.with_last_line(throw_site.line)
    guard = compute_guard_expression(trace, index.ctx, throw_site)
    return make_bundle(
        mut, throw_site, dest, trace, guard, index, pool_same_mut,
        test_name=test_name, seed=seed,
    )


def sweep_targets(
    pool: list[TracePoolEntry],
    index: SweepIndex,
    seed: int = 0,
) -> list[tuple[ThrowSite, PromptBundle | NoMatch]]:
    """Machine-oriented sweep: one (site, bundle-or-NoMatch) per main throw.

    The method under test is the method containing the throw; destination
    files come from the naming heuristics alone, so a target without a
    name-matched test file is `NoMatch("no-dest-file")`.
    """
    ctx = index.ctx
    pool_by_site: dict[ThrowSite, list[TracePoolEntry]] = {}
    for entry in pool:
        pool_by_site.setdefault(entry.throw_site, []).append(entry)
    results = []
    for site in find_throw_sites(ctx, "main"):
        mut = site.method
        dest = select_dest_with_reason(mut, ctx)
        if dest is None:
            results.append((site, NoMatch("no-dest-file")))
            continue
        outcome = assemble_prompt(mut, site, dest, pool_by_site.get(site, []), index, seed=seed)
        results.append((site, outcome))
    return results


def bundle_to_record(outcome: PromptBundle | NoMatch, site: ThrowSite) -> dict:
    """The bundles.jsonl row of one sweep target: its label and status, then
    its bundle's record, or its site's record and why it has no bundle."""
    if isinstance(outcome, NoMatch):
        return {"target": site.label(), "status": "no-match", "throw": site.to_record(),
                "reason": outcome.reason}
    return {"target": site.label(), "status": "bundle", **outcome.to_record()}
