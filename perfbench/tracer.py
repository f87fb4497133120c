"""Spans and counts around the public functions of each exbt layer.

The tracer wraps functions from outside the package: a wrapped function is
replaced in every `exbt` module namespace that holds it, and a wrapped
method is replaced on its class. Each call records a span (name, parent,
start, end) in memory; hooks add counts at the same places. Nothing is
written until the caller asks for it, and `uninstall` restores every
original, so untraced passes run the unmodified program.

Only calls on the thread that installed the tracer are recorded; the
backend's worker threads run their calls untraced.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter
from time import perf_counter

# A layer per exbt module; jmodel groups lexer, model, stmts and exprs, and
# cli groups the entry point with the manifest it writes.
LAYERS = (
    "jmodel", "classifier", "instrument", "stacktrace", "guardexpr", "corpus",
    "prompting", "genbackend", "metrics", "runners", "cli",
)


def _layer_of(module: str) -> str:
    if not module.startswith("exbt."):
        return "cli"  # files exbt writes itself during a pass
    part = module.split(".")[1]
    return "cli" if part == "manifest" else part


# --- count hooks: (counts, args, kwargs, result) -> None ---


def _on_load(c, args, kwargs, ctx):
    c["jmodel.files"] += len(ctx.main_files) + len(ctx.test_files)
    c["jmodel.tokens"] += sum(len(u.tokens) for u in ctx.units)


def _on_tokenize(c, args, kwargs, toks):
    c["jmodel.tokens_lexed"] += len(toks)


def _on_split(c, args, kwargs, result):
    c["classifier.tests"] += len(result[0]) + len(result[1])


def _on_trace_log(c, args, kwargs, log):
    c["instrument.trace_blocks"] += len(log)
    c["instrument.skipped_blocks"] += log.skipped_blocks


def _on_guard(c, args, kwargs, guard):
    c["guardexpr.guards"] += 1
    c["guardexpr.guard_chars"] += len(guard.rendered)


def _on_corpus(c, args, kwargs, result):
    c["corpus.examples"] += len(result[0])
    c["corpus.skipped"] += len(result[1])


def _on_pool(c, args, kwargs, pool):
    c["prompting.pool_entries"] += len(pool)


def _on_sweep(c, args, kwargs, results):
    for _, outcome in results:
        if type(outcome).__name__ == "NoMatch":
            c["prompting.nomatch"] += 1
        else:
            c["prompting.bundles"] += 1
            c["prompting.prompt_chars"] += len(outcome.rendered_instruction)


def _on_generate_many(c, args, kwargs, completions):
    c["genbackend.requests"] += len(completions)


def _on_extract(c, args, kwargs, candidate):
    c["genbackend.extracted"] += candidate is not None


def _on_edit_sim(c, args, kwargs, result):
    a, b = args[0], args[1]
    c["metrics.edit_sim_cells"] += len(a) * len(b)


def _on_code_bleu(c, args, kwargs, comp):
    c["metrics.code_bleu_degraded"] += bool(comp["degraded"])


# (module, attribute or Class.method, count hook). Recursive functions are
# listed in RECURSIVE: only their outermost call gets a span, every call a count.
WRAPPED = (
    ("exbt.jmodel.model", "load_repo", _on_load),
    ("exbt.jmodel.model", "parse_unit", None),
    ("exbt.jmodel.model", "find_throw_sites", None),
    ("exbt.jmodel.model", "throw_sites_of", None),
    ("exbt.jmodel.model", "RepoContext.resolve_method_id", None),
    ("exbt.jmodel.model", "RepoContext.resolve_frame", None),
    ("exbt.jmodel.model", "RepoContext.method_source", None),
    ("exbt.jmodel.model", "RepoContext.body_tree", None),
    ("exbt.jmodel.lexer", "tokenize", _on_tokenize),
    ("exbt.jmodel.stmts", "BodyParser.parse_block", None),
    ("exbt.jmodel.exprs", "parse_expr", None),
    ("exbt.jmodel.exprs", "parse_expr_tokens", None),
    ("exbt.jmodel.exprs", "substitute", None),
    ("exbt.classifier", "split_test_suite", _on_split),
    ("exbt.classifier", "classify_test", None),
    ("exbt.instrument", "parse_trace_log", _on_trace_log),
    ("exbt.stacktrace", "parse_stack_trace", None),
    ("exbt.stacktrace", "exclude_test_and_util_frames", None),
    ("exbt.stacktrace", "endpoints", None),
    ("exbt.guardexpr", "compute_guard_expression", _on_guard),
    ("exbt.guardexpr", "collect_nodes", None),
    ("exbt.corpus", "collect_training_corpus", _on_corpus),
    ("exbt.corpus", "link_relevant_nonebts", None),
    ("exbt.corpus", "write_corpus", None),
    ("exbt.prompting", "collect_stacktrace_set", _on_pool),
    ("exbt.prompting", "sweep_targets", _on_sweep),
    ("exbt.prompting", "assemble_prompt", None),
    ("exbt.prompting", "directly_invokes", None),
    ("exbt.prompting", "select_dest_with_reason", None),
    ("exbt.prompting", "build_dest_skeleton", None),
    ("exbt.prompting", "rank_relevant_nonebts", None),
    ("exbt.prompting", "render_instruction", None),
    ("exbt.prompting", "bundle_to_record", None),
    ("exbt.genbackend", "make_backend", None),
    ("exbt.genbackend", "generate_many", _on_generate_many),
    ("exbt.genbackend", "extract_candidate", _on_extract),
    ("exbt.genbackend", "RequestLog.write", None),
    ("exbt.metrics", "score_candidate", None),
    ("exbt.metrics", "xmatch", None),
    ("exbt.metrics", "bleu", None),
    ("exbt.metrics", "code_bleu_components", _on_code_bleu),
    ("exbt.metrics", "edit_similarity", _on_edit_sim),
    ("exbt.metrics", "matched_exception", None),
    ("exbt.metrics", "aggregate", None),
    ("exbt.runners", "RecordedRunner.from_file", None),
    ("exbt.runners", "RecordedRunner.check", None),
    ("exbt.cli", "main", None),
    ("exbt.cli", "_write_jsonl", None),
    ("exbt.cli", "_read_jsonl", None),
    ("exbt.cli", "_bundle_for_target", None),
    ("exbt.manifest", "Manifest.add_input", None),
    ("exbt.manifest", "Manifest.add_input_tree", None),
    ("exbt.manifest", "Manifest.add_artifact", None),
    ("exbt.manifest", "Manifest.write", None),
    ("pathlib", "Path.write_text", None),
)
RECURSIVE = {"jmodel.substitute"}


class Tracer:
    """In-memory spans and counts; install() patches, uninstall() restores."""

    def __init__(self):
        # span: [parent index or -1, name, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._open_names: Counter = Counter()
        self._thread = threading.get_ident()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def install(self) -> None:
        self._thread = threading.get_ident()
        for module_name, attr, hook in WRAPPED:
            module = importlib.import_module(module_name)
            name = f"{_layer_of(module_name)}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(original.__func__, name, hook))
                else:
                    wrapped = self._wrap(original, name, hook)
                self._set(cls, meth, wrapped)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "exbt" or mod_name.startswith("exbt.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    def _set(self, owner, key, value) -> None:
        original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
        self._undo.append((owner, key, original))
        setattr(owner, key, value)

    def _wrap(self, fn, name: str, hook):
        tracer = self
        calls_key = name + ".calls"
        once = name in RECURSIVE

        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            tracer.counts[calls_key] += 1
            if once and tracer._open_names[name]:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            span = [parent, name, 0.0, 0.0]
            tracer.spans.append(span)
            tracer._open.append(index)
            tracer._open_names[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                tracer._open.pop()
                tracer._open_names[name] -= 1
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper
