"""Command-line entry point wiring the whole pipeline.

Subcommands: classify, find-throws, instrument, pool, guard, prompt,
sweep, generate, eval. Every artifact-producing run writes a manifest
(input digests, seed, template id, backend kind, stage counters) so a
rerun with the stub backend reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import shutil
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from exbt import __version__
from exbt.classifier import split_test_suite
from exbt.config import load_config
from exbt.corpus import collect_training_corpus, write_corpus
from exbt.errors import BadInput, ExbtError, IoError, MalformedTrace, read_input
from exbt.genbackend import (
    GenerationParams,
    RequestLog,
    answer_fields,
    digest,
    extract_candidate,
    generate_many,
    make_backend,
)
from exbt.guardexpr import compute_guard_expression
from exbt.instrument import (
    HELPER_FILE,
    HELPER_SOURCE,
    instrument_print_exception,
    instrument_print_trace,
    parse_trace_log,
)
from exbt.jmodel import ThrowSite, find_throw_sites, load_repo, reachable_throws
from exbt.manifest import Manifest, json_document, json_line, verify_manifest
from exbt.metrics import (
    CandidateScore,
    Sides,
    aggregate,
    report_table,
    score_candidate,
)
from exbt.prompting import (
    NoMatch,
    PromptBundle,
    SweepIndex,
    TEMPLATE_ID,
    assemble_prompt,
    bundle_to_record,
    collect_stacktrace_set,
    select_dest_with_reason,
    sweep_targets,
    test_method_label,
)
from exbt.runners import JavacRunner, RecordedRunner
from exbt.stacktrace import TraceLog, parse_stack_trace, resolve_trace


# the flags several subcommands read; each subcommand takes only those it reads
_SHARED_FLAGS = {
    "--seed": dict(type=int, default=42),
    "--config": dict(default=None, help="KEY=VALUE config file"),
    "--source-roots": dict(
        default=None, help="comma-separated test-root prefixes overriding src/main vs src/test"),
}


def _add_shared(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_SHARED_FLAGS[flag])


def _load(repo: str, args) -> "RepoContext":
    roots = args.source_roots.split(",") if args.source_roots else None
    return load_repo(repo, test_roots=roots)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: each `parse_args` makes a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="exbt",
        description="context pipeline for exceptional-behavior test generation",
    )
    parser.add_argument("--version", action="version", version=f"exbt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify test methods into EBT/non-EBT")
    p.add_argument("repo")
    _add_shared(p, "--source-roots")

    p = sub.add_parser("find-throws", help="list throw sites, optionally reachable ones")
    p.add_argument("repo")
    p.add_argument("--scope", choices=["main", "all"], default="main")
    p.add_argument("--from-method", default=None,
                   help="fqn#name[/arity]: list throws reachable from this method")
    p.add_argument("--max-depth", type=int, default=5)
    _add_shared(p, "--source-roots")

    p = sub.add_parser("instrument", help="rewrite sources to emit trace logs")
    p.add_argument("repo")
    p.add_argument("--out", default=None, help="directory for the instrumented tree")
    p.add_argument("--ebt", default=None,
                   help="fqn#name: print the exception-print rewrite of one EBT instead")
    _add_shared(p, "--source-roots")

    p = sub.add_parser("pool", help="build the trace pool from a recorded log")
    p.add_argument("repo")
    p.add_argument("--trace-log", default=None)
    p.add_argument("--out", default=None)
    _add_shared(p, "--source-roots")

    p = sub.add_parser("guard", help="compute the guard expression for a trace")
    p.add_argument("--trace", required=True, help="file holding one raw JVM trace")
    p.add_argument("--repo", required=True)
    _add_shared(p, "--source-roots")

    p = sub.add_parser("prompt", help="assemble one developer-oriented prompt")
    p.add_argument("--repo", required=True)
    p.add_argument("--mut", required=True, help="fqn#name[/arity]")
    p.add_argument("--throw", required=True, dest="throw_at", help="file:line")
    p.add_argument("--dest", default=None)
    p.add_argument("--name", default=None, help="requested test method name")
    p.add_argument("--trace-log", default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    _add_shared(p, "--source-roots", "--seed")

    p = sub.add_parser("sweep", help="machine-oriented sweep over all main throws")
    p.add_argument("repo")
    p.add_argument("--backend", default=None, choices=["stub", "http"])
    p.add_argument("--stub-file", default=None)
    p.add_argument("--trace-log", default=None)
    p.add_argument("--ebt-trace-log", default=None)
    p.add_argument("--runner-results", default=None)
    p.add_argument("--runner", default=None, choices=["recorded", "javac"])
    p.add_argument("--max-in-flight", type=int, default=4,
                   help="bound on concurrent backend requests")
    p.add_argument("--out", default="exbt-out")
    _add_shared(p, "--source-roots", "--seed", "--config")

    p = sub.add_parser("generate", help="send one instruction to the backend")
    p.add_argument("--instruction", required=True, help="file with the instruction text")
    p.add_argument("--backend", default=None, choices=["stub", "http"])
    p.add_argument("--stub-file", default=None)
    p.add_argument("--extract", action="store_true", help="print the extracted candidate")
    _add_shared(p, "--seed", "--config")

    p = sub.add_parser("eval", help="score candidates against references")
    p.add_argument("--candidates", required=True, help="JSONL {target, candidate, ...}")
    p.add_argument("--refs", default=None, help="JSONL {target, reference, exception_type}")
    p.add_argument("--repo", default=None)
    p.add_argument("--runner-results", default=None)
    p.add_argument("--out", default=None)
    _add_shared(p, "--source-roots")

    p = sub.add_parser("verify-manifest", help="check artifact digests of a manifest")
    p.add_argument("manifest")
    return parser


def _default_path(repo: str, rel: str, explicit: str | None) -> str | None:
    if explicit:
        return explicit
    candidate = Path(repo) / rel
    return str(candidate) if candidate.exists() else None


def _read_trace_log(path: str) -> TraceLog:
    """Parse a trace-log file. Bytes that are not UTF-8 survive the decode as
    lone surrogates, so only the blocks holding them are skipped."""
    return parse_trace_log(Path(path).read_bytes().decode("utf-8", "surrogateescape"))


def _nonebt_pool(args, index: SweepIndex, required: bool):
    """(path, trace log, pool) of the non-EBT trace log; (None, None, []) without one."""
    log_path = _default_path(args.repo, "logs/nonebt-traces.log", args.trace_log)
    if log_path is None:
        if required:
            raise ExbtError("--trace-log is required (no default log found in repo)")
        return None, None, []
    trace_log = _read_trace_log(log_path)
    return log_path, trace_log, collect_stacktrace_set(index, trace_log)


def _backend_kind(args, cfg) -> str:
    return cfg.get("backend_kind", args.backend, "stub")


def _make_backend(args, cfg, stub_file: str | None):
    """The backend that the flags, the config file and the environment name."""
    return make_backend(
        _backend_kind(args, cfg), url=cfg.get("backend_url"), stub_file=stub_file,
        auth_token=cfg.get("auth_token"),
    )


def cmd_classify(args) -> int:
    ctx = _load(args.repo, args)
    ebts, nonebts = split_test_suite(ctx)
    for t in sorted(ebts + nonebts, key=lambda t: (t.id.decl_file, t.id.decl_line)):
        print(json_line({
            "file": t.id.decl_file,
            "method": t.id.name,
            "kind": t.kind,
            "pattern": t.pattern,
            "expected_exception": t.expected_exception,
        }), end="")
    print(
        f"# {len(ebts)} EBTs, {len(nonebts)} non-EBTs, "
        f"{len(ctx.warnings)} warnings",
        file=sys.stderr,
    )
    return 0


def _resolve_mut(ctx, ref: str):
    if "#" not in ref:
        raise ExbtError(f"--mut must look like fqn#name[/arity], got {ref!r}")
    fqn, rest = ref.split("#", 1)
    arity = None
    if "/" in rest:
        rest, arity_s = rest.split("/", 1)
        if not arity_s.isdecimal():
            raise BadInput(f"arity must be a number in {ref!r}")
        arity = int(arity_s)
    matches = [
        m
        for m in ctx.all_method_ids()
        if m.fqn == fqn and m.name == rest and (arity is None or m.param_arity == arity)
    ]
    if not matches:
        raise ExbtError(f"method {ref!r} not found in repository")
    if len(matches) > 1:
        labels = ", ".join(m.label() for m in matches)
        raise ExbtError(f"method {ref!r} is ambiguous: {labels}")
    return matches[0]


def _resolve_throw(ctx, ref: str):
    path, _, line_s = ref.rpartition(":")
    if not (path and line_s.isdecimal()):
        raise BadInput(f"--throw must look like file:line, got {ref!r}")
    line = int(line_s)
    matches = [s for s in ctx.throw_sites
               if s.line == line and ("/" + s.method.decl_file).endswith("/" + path)]
    if not matches:
        raise ExbtError(f"no throw statement at {ref!r}")
    return _only_site(ref, matches)


def _only_site(ref: str, sites) -> ThrowSite:
    """The one throw site that `ref` names; `BadInput` naming each of two or more."""
    if len(sites) > 1:
        named = "; ".join(f"{s.label()} {s.statement_text}" for s in sites)
        raise BadInput(f"{ref!r} names {len(sites)} throw statements: {named}")
    return sites[0]


def cmd_find_throws(args) -> int:
    ctx = _load(args.repo, args)
    if args.from_method:
        mut = _resolve_mut(ctx, args.from_method)
        rows = [{"target": site.label(), "throw": site.to_record(),
                 "path": [m.label() for m in path]}
                for site, path in reachable_throws(ctx, mut, args.max_depth)]
    else:
        rows = [{"target": site.label(), "throw": site.to_record(),
                 "method": site.method.to_record()}
                for site in find_throw_sites(ctx, args.scope)]
    for row in rows:
        print(json_line(row), end="")
    return 0


def cmd_instrument(args) -> int:
    if not (args.ebt or args.out):
        raise BadInput("instrument needs --out, or --ebt to print one rewrite")
    ctx = _load(args.repo, args)
    if args.ebt:
        ebts, _ = split_test_suite(ctx)
        wanted = [t for t in ebts if test_method_label(t.id) == args.ebt]
        if not wanted:
            raise ExbtError(f"EBT {args.ebt!r} not found")
        rewrite = instrument_print_exception(wanted[0])
        print(rewrite.rewritten)
        return 0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("instrument")
    manifest.add_input_tree("repo", ctx.tree_digest())
    overlay = {HELPER_FILE: HELPER_SOURCE}
    for rel, rewrite in instrument_print_trace(ctx).items():
        overlay[rel] = rewrite.rewritten
        manifest.bump("methods_instrumented", len(rewrite.inserts))
    # copy the tree, then overlay the rewrites and the helper
    for rel in ctx.main_files + ctx.test_files:
        src = Path(args.repo) / rel
        dst = out / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dst)
    for rel, text in overlay.items():
        dst = out / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        dst.write_text(text, encoding="utf-8")
        manifest.add_artifact(dst, out)
    manifest.write(out / "manifest.json")
    print(f"instrumented tree written to {out}", file=sys.stderr)
    return 0


def cmd_pool(args) -> int:
    ctx = _load(args.repo, args)
    index = SweepIndex(ctx, split_test_suite(ctx)[1])
    _, trace_log, pool = _nonebt_pool(args, index, required=True)
    rows = [
        {
            "trace": e.trace.to_rows(),
            "source_test": test_method_label(e.source_test),
            "throw_site": e.throw_site.label(),
        }
        for e in pool
    ]
    text = json_document(rows)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    print(
        f"# {len(pool)} pool entries, {trace_log.skipped_blocks} malformed blocks",
        file=sys.stderr,
    )
    return 0


def cmd_guard(args) -> int:
    ctx = _load(args.repo, args)
    try:
        text = Path(args.trace).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedTrace(f"{args.trace} is not UTF-8: {exc.reason}") from exc
    guard = compute_guard_expression(resolve_trace(parse_stack_trace(text), ctx), ctx)
    print(guard.rendered)
    print(json_line(guard.to_record()), end="")
    return 0


def cmd_prompt(args) -> int:
    ctx = _load(args.repo, args)
    mut = _resolve_mut(ctx, args.mut)
    site = _resolve_throw(ctx, args.throw_at)
    dest = args.dest or select_dest_with_reason(mut, ctx)
    if dest is None:
        raise ExbtError("no destination test file found; pass --dest")
    index = SweepIndex(ctx, split_test_suite(ctx)[1])
    _, _, pool = _nonebt_pool(args, index, required=False)
    outcome = assemble_prompt(mut, site, dest, pool, index, seed=args.seed, test_name=args.name)
    if args.json or isinstance(outcome, NoMatch):
        print(json_line(bundle_to_record(outcome, site)), end="")
    else:
        print(outcome.rendered_instruction)
    return 0


def _make_runner(args, ctx, manifest: Manifest):
    """The sweep's runner; a recorded runner's results file is a manifest input."""
    if args.runner == "javac":
        return JavacRunner(ctx)
    results_path = _default_path(args.repo, "canned/runner-results.json", args.runner_results)
    if args.runner == "recorded" and results_path is None:
        raise ExbtError("--runner recorded needs --runner-results")
    if results_path is not None:
        manifest.add_input("runner_results", results_path)
        return RecordedRunner.from_file(results_path)
    return None


# the CandidateScore fields a generated row of candidates.jsonl carries
_CANDIDATE_SCORE_FIELDS = (
    "xmatch", "xmatch_strict", "bleu", "code_bleu", "edit_sim", "matched_e",
    "compilable", "runnable", "covers_target",
)


@dataclass
class TargetOutcome:
    """One sweep target: its bundle or NoMatch, answer, candidate and score."""
    site: ThrowSite
    prompt: PromptBundle | NoMatch
    answer: str | ExbtError | None = None
    candidate: str | None = None
    score: CandidateScore | None = None

    @property
    def status(self) -> str:
        """How the target ended; the one place that decides it."""
        if isinstance(self.prompt, NoMatch):
            return self.prompt.reason
        if isinstance(self.answer, ExbtError):
            return "backend-error"
        return "no-candidate" if self.candidate is None else "generated"


def cmd_sweep(args) -> int:
    """The sweep's stages in order; each counts its manifest counters."""
    ctx = _load(args.repo, args)
    cfg = load_config(args.config)
    manifest = Manifest("sweep", seed=args.seed, template_id=TEMPLATE_ID,
                        backend_kind=_backend_kind(args, cfg))
    manifest.add_input_tree("repo", ctx.tree_digest())

    ebts, nonebts = _classify_stage(ctx, manifest)
    index = SweepIndex(ctx, nonebts)  # shared by the corpus, the pool and the sweep
    corpus, skipped = _corpus_stage(args, ebts, index, manifest)
    pool = _pool_stage(args, index, manifest)
    outcomes = _prompts_stage(args, pool, index)
    request_log = _generate_score_stage(args, cfg, ctx, outcomes, corpus or (), manifest)
    agg = aggregate([o.score for o in outcomes if o.score is not None], [o.site for o in outcomes])
    _write_stage(Path(args.out), manifest, corpus, skipped, outcomes, agg, request_log)
    print(report_table(agg))
    print(f"# artifacts in {Path(args.out)}", file=sys.stderr)
    return 0


def _classify_stage(ctx, manifest: Manifest):
    ebts, nonebts = split_test_suite(ctx)
    manifest.bump("tests_classified", len(ebts) + len(nonebts))
    return ebts, nonebts


def _corpus_stage(args, ebts, index: SweepIndex, manifest: Manifest):
    """The EBT trace log's training corpus and its skipped examples; None
    and none without that log."""
    ebt_log_path = _default_path(args.repo, "logs/ebt-traces.log", args.ebt_trace_log)
    if not ebt_log_path:
        return None, []
    manifest.add_input("ebt_trace_log", ebt_log_path)
    examples, skipped = collect_training_corpus(
        ebts, index, _read_trace_log(ebt_log_path), repo_name=Path(args.repo).name
    )
    manifest.bump("corpus_examples_built", len(examples))
    manifest.bump("corpus_examples_skipped", len(skipped))
    manifest.bump("guards_computed", len(examples))
    return examples, skipped


def _pool_stage(args, index: SweepIndex, manifest: Manifest):
    log_path, _, pool = _nonebt_pool(args, index, required=True)
    manifest.add_input("nonebt_trace_log", log_path)
    manifest.bump("pool_builds")
    manifest.bump("pool_entries", len(pool))
    return pool


def _prompts_stage(args, pool, index: SweepIndex) -> list[TargetOutcome]:
    return [TargetOutcome(site, prompt) for site, prompt in
            sweep_targets(pool, index, seed=args.seed)]


# the manifest counters of a sweep target, by its status (_ASSEMBLED: any bundle's)
_ASSEMBLED = ("dest_name-match", "prompts_assembled", "guards_computed")
_TARGET_COUNTERS = {
    "no-dest-file": ("dest_none",),
    "no-matching-trace": ("dest_name-match", "nomatch_no_matching_trace"),
    "backend-error": (*_ASSEMBLED, "backend_errors"),
    "no-candidate": (*_ASSEMBLED, "generations"),
    "generated": (*_ASSEMBLED, "generations", "candidates_extracted"),
}


def _generate_score_stage(args, cfg, ctx, outcomes, corpus, manifest: Manifest) -> RequestLog:
    """One generation per bundle, one extraction per distinct answer,
    scoring, then each target's counters."""
    stub_file = _default_path(args.repo, "canned/completions.json", args.stub_file)
    if manifest.backend_kind == "stub" and stub_file:
        manifest.add_input("stub_completions", stub_file)
    request_log = RequestLog()
    backend = _make_backend(args, cfg, stub_file)
    runner = _make_runner(args, ctx, manifest)
    gold_by_site = {e.prompt.throw_site: e.gold_ebt for e in corpus}
    sides = Sides()  # extraction's parse of a candidate is the one scoring uses
    params = GenerationParams(seed=args.seed)
    asked = [o for o in outcomes if not isinstance(o.prompt, NoMatch)]
    answers = generate_many(backend, [o.prompt.rendered_instruction for o in asked], params,
                            max_in_flight=args.max_in_flight)
    candidates: dict[str, str | None] = {}  # each distinct answer's candidate
    for o, answer in zip(asked, answers, strict=True):
        o.answer = answer
        request_log.record(o.prompt.rendered_instruction, params, answer, backend.kind)
        if isinstance(answer, str):
            if answer not in candidates:
                candidates[answer] = extract_candidate(answer, sides)
            o.candidate = candidates[answer]
        if o.candidate is not None:
            o.score = score_candidate(
                o.candidate, gold_by_site.get(o.site), o.site.exception_type, o.site,
                site=o.site, runner=runner, sides=sides,
            )
    for o in outcomes:
        for counter in _TARGET_COUNTERS[o.status]:
            manifest.bump(counter)
    return request_log


def _candidate_row(o: TargetOutcome) -> dict:
    """The candidates.jsonl row of a target the backend was asked about."""
    row = {"target": o.site.label(), "status": o.status, **answer_fields(o.answer),
           "instruction_digest": digest(o.prompt.rendered_instruction)}
    if o.score is not None:
        row["candidate"] = o.candidate
        row.update((f, getattr(o.score, f)) for f in _CANDIDATE_SCORE_FIELDS)
    return row


def _write_stage(out: Path, manifest: Manifest, corpus, skipped, outcomes, agg,
                 request_log) -> None:
    """Make `out`, write the sweep artifacts, each named once, then the manifest."""
    report = {
        "aggregate": agg,
        "corpus_skipped": {s.test: s.reason for s in skipped},
        "no_match_reasons": Counter(o.status for o in outcomes if isinstance(o.prompt, NoMatch)),
        "targets": [o.site.label() for o in outcomes],
        "seed": manifest.seed,
        "template_id": manifest.template_id,
        "backend_kind": manifest.backend_kind,
    }
    writers = {
        "corpus.jsonl": lambda p: write_corpus(corpus, p),
        "bundles.jsonl": lambda p: _write_jsonl(
            p, [bundle_to_record(o.prompt, o.site) for o in outcomes]),
        "candidates.jsonl": lambda p: _write_jsonl(
            p, [_candidate_row(o) for o in outcomes if o.answer is not None]),
        "report.json": lambda p: p.write_text(json_document(report)),
        "report.txt": lambda p: p.write_text(report_table(agg) + "\n", encoding="utf-8"),
        "requests.jsonl": request_log.write,
    }
    if corpus is None:
        del writers["corpus.jsonl"]
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        write(out / name)
        manifest.add_artifact(out / name, out)
    manifest.write(out / "manifest.json")


def _write_jsonl(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json_line(row))


def cmd_generate(args) -> int:
    instruction = read_input(args.instruction)
    backend = _make_backend(args, load_config(args.config), args.stub_file)
    completion = backend.generate(instruction, GenerationParams(seed=args.seed))
    if args.extract:
        candidate = extract_candidate(completion)
        if candidate is None:
            raise ExbtError("no test method found in the completion")
        print(candidate)
    else:
        print(completion)
    return 0


def cmd_eval(args) -> int:
    candidates = _read_jsonl(args.candidates, ("candidate", "exception_type"))
    refs = {}
    if args.refs:
        refs = {r["target"]: r for r in _read_jsonl(args.refs, ("reference", "exception_type"))}
    ctx = _load(args.repo, args) if args.repo else None
    runner = None
    if args.runner_results:
        runner = RecordedRunner.from_file(args.runner_results)
        if ctx is None:
            raise BadInput("--runner-results needs --repo: the runner resolves each target there")
    scores = []
    sides = Sides()  # each distinct candidate and reference is scored from one side
    targets = sorted({row["target"] for row in candidates} | set(refs))
    for row in candidates:
        candidate = row.get("candidate")
        if not candidate:
            continue
        ref_row = refs.get(row["target"], {})
        exception_type = row.get("exception_type") or ref_row.get("exception_type", "")
        site = None
        if runner is not None:
            site = _bundle_for_target(ctx, row["target"])
        scores.append(
            score_candidate(
                candidate, ref_row.get("reference"), exception_type, row["target"],
                site=site, runner=runner, sides=sides,
            )
        )
    agg = aggregate(scores, targets)
    report = {"aggregate": agg, "targets": targets}
    text = json_document(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    print(text, end="")
    print(report_table(agg))
    return 0


def _bundle_for_target(ctx, target: str):
    """The throw site of a `file:line` label, for the runner; None if the
    repository has no throw there, `BadInput` if it has two."""
    sites = ctx.throw_sites_by_label.get(target)
    return None if sites is None else _only_site(target, sites)


def _read_jsonl(path, text_fields: tuple[str, ...]) -> list[dict]:
    """JSONL rows, each an object with a string `target`; each of
    `text_fields` is a string, null or absent."""
    rows = []
    for n, line in enumerate(read_input(path).split("\n"), 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise BadInput(f"{path}:{n}: not JSON ({exc.msg})") from exc
        if not isinstance(row, dict) or not isinstance(row.get("target"), str):
            raise BadInput(f"{path}:{n}: row has no string target")
        for key in text_fields:
            if not isinstance(row.get(key), (str, type(None))):
                raise BadInput(f"{path}:{n}: {key} is not a string")
        rows.append(row)
    return rows


def cmd_verify_manifest(args) -> int:
    problems = verify_manifest(args.manifest)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


_HANDLERS = {
    "classify": cmd_classify,
    "find-throws": cmd_find_throws,
    "instrument": cmd_instrument,
    "pool": cmd_pool,
    "guard": cmd_guard,
    "prompt": cmd_prompt,
    "sweep": cmd_sweep,
    "generate": cmd_generate,
    "eval": cmd_eval,
    "verify-manifest": cmd_verify_manifest,
}


def main(argv=None) -> int:
    """Run one command; 0 on success, 1 on an error it reports.

    The command runs with the cyclic garbage collector paused, and the
    caller's collector state comes back however it ends. What a command
    builds holds no reference cycles (tests/test_cli.py checks this), so
    reference counting frees it and the collector would only spend time
    scanning the objects a command keeps alive."""
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:  # a missing or unreadable input file
        error: ExbtError = IoError(str(exc))
    except ExbtError as exc:
        error = exc
    finally:
        if collecting:
            gc.enable()
    sys.stderr.write(json_line({"error": type(error).__name__, "message": str(error)}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
