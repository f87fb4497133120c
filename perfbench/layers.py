"""Per-layer metrics derived from one traced pass's spans and counts.

A span's self time is its duration minus the time its child spans cover;
a layer's self time sums the self times of its spans. Inclusive times
(`*_s` of one function) sum the spans of that function.
"""

from __future__ import annotations

from collections import Counter

from tracer import LAYERS

# name -> (unit, kind); kind count repeats exactly, time and rate do not
PER_LAYER: dict[str, tuple[str, str]] = {
    "jmodel.load_s": ("s", "time"),
    "jmodel.files": ("count", "count"),
    "jmodel.tokens": ("count", "count"),
    "jmodel.tokenize_calls": ("count", "count"),
    "jmodel.tokenize_s": ("s", "time"),
    "jmodel.tokenize_tokens_per_s": ("tokens/s", "rate"),
    "jmodel.find_throw_sites_calls": ("count", "count"),
    "jmodel.find_throw_sites_s": ("s", "time"),
    "jmodel.resolve_method_id_calls": ("count", "count"),
    "jmodel.body_parses": ("count", "count"),
    "jmodel.substitute_calls": ("count", "count"),
    "jmodel.substitute_calls_per_s": ("calls/s", "rate"),
    "classifier.split_s": ("s", "time"),
    "classifier.tests": ("count", "count"),
    "instrument.parse_trace_log_s": ("s", "time"),
    "instrument.trace_blocks": ("count", "count"),
    "instrument.skipped_blocks": ("count", "count"),
    "stacktrace.exclude_calls": ("count", "count"),
    "stacktrace.exclude_s": ("s", "time"),
    "guardexpr.guards": ("count", "count"),
    "guardexpr.guard_s": ("s", "time"),
    "guardexpr.guard_chars": ("count", "count"),
    "corpus.collect_s": ("s", "time"),
    "corpus.examples": ("count", "count"),
    "corpus.skipped": ("count", "count"),
    "prompting.pool_s": ("s", "time"),
    "prompting.pool_entries": ("count", "count"),
    "prompting.sweep_self_s": ("s", "time"),
    "prompting.directly_invokes_calls": ("count", "count"),
    "prompting.directly_invokes_s": ("s", "time"),
    "prompting.select_dest_s": ("s", "time"),
    "prompting.bundles": ("count", "count"),
    "prompting.nomatch": ("count", "count"),
    "prompting.prompt_chars": ("count", "count"),
    "genbackend.requests": ("count", "count"),
    "genbackend.generate_s": ("s", "time"),
    "genbackend.extract_s": ("s", "time"),
    "genbackend.extracted_per_request": ("ratio", "count"),
    "metrics.scored": ("count", "count"),
    "metrics.score_s": ("s", "time"),
    "metrics.edit_sim_s": ("s", "time"),
    "metrics.edit_sim_cells": ("count", "count"),
    "metrics.edit_sim_cells_per_s": ("cells/s", "rate"),
    "metrics.code_bleu_s": ("s", "time"),
    "metrics.code_bleu_degraded": ("count", "count"),
    "runners.checks": ("count", "count"),
    "runners.check_s": ("s", "time"),
    "cli.write_s": ("s", "time"),
    "cli.bytes_written": ("bytes", "count"),
}
PER_LAYER.update({f"{layer}.self_s": ("s", "time") for layer in LAYERS})

TRACE_UNITS = {
    "trace.untraced_pass_s": "s",
    "trace.traced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.counts_repeat": "bool",
    "trace.traced_passes": "count",
    "trace.spans": "count",
}

# spans whose time is writing artifacts or digesting files
WRITE_SPANS = frozenset((
    "cli._write_jsonl", "cli.Manifest.write", "cli.Manifest.add_artifact",
    "cli.Manifest.add_input", "cli.Manifest.add_input_tree", "cli.Path.write_text",
    "corpus.write_corpus", "genbackend.RequestLog.write",
))


def unit_of(name: str) -> str:
    return PER_LAYER[name][0] if name in PER_LAYER else TRACE_UNITS[name]


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[list], counts: Counter, bytes_written: int) -> dict:
    """Every PER_LAYER metric for one traced pass."""
    n = len(spans)
    dur = [s[3] - s[2] for s in spans]
    covered = [0.0] * n
    for i, s in enumerate(spans):
        if s[0] >= 0:
            covered[s[0]] += dur[i]
    self_s: Counter = Counter({layer: 0.0 for layer in LAYERS})
    incl: Counter = Counter()
    in_sweep = [False] * n  # a parent is always recorded before its children
    in_write = [False] * n
    sweep_self = write_s = 0.0
    for i, (parent, name, _, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        own = dur[i] - covered[i]
        self_s[layer] += own
        incl[name] += dur[i]
        in_sweep[i] = name == "prompting.sweep_targets" or (parent >= 0 and in_sweep[parent])
        if in_sweep[i] and layer == "prompting":
            sweep_self += own
        inside = parent >= 0 and in_write[parent]
        in_write[i] = inside or name in WRITE_SPANS
        if name in WRITE_SPANS and not inside:
            write_s += dur[i]
    c = counts
    m = {
        "jmodel.load_s": incl["jmodel.load_repo"],
        "jmodel.files": c["jmodel.files"],
        "jmodel.tokens": c["jmodel.tokens"],
        "jmodel.tokenize_calls": c["jmodel.tokenize.calls"],
        "jmodel.tokenize_s": incl["jmodel.tokenize"],
        "jmodel.tokenize_tokens_per_s": _rate(c["jmodel.tokens_lexed"], incl["jmodel.tokenize"]),
        "jmodel.find_throw_sites_calls": c["jmodel.find_throw_sites.calls"],
        "jmodel.find_throw_sites_s": incl["jmodel.find_throw_sites"],
        "jmodel.resolve_method_id_calls": c["jmodel.RepoContext.resolve_method_id.calls"],
        "jmodel.body_parses": c["jmodel.BodyParser.parse_block.calls"],
        "jmodel.substitute_calls": c["jmodel.substitute.calls"],
        "jmodel.substitute_calls_per_s": _rate(c["jmodel.substitute.calls"],
                                               incl["jmodel.substitute"]),
        "classifier.split_s": incl["classifier.split_test_suite"],
        "classifier.tests": c["classifier.tests"],
        "instrument.parse_trace_log_s": incl["instrument.parse_trace_log"],
        "instrument.trace_blocks": c["instrument.trace_blocks"],
        "instrument.skipped_blocks": c["instrument.skipped_blocks"],
        "stacktrace.exclude_calls": c["stacktrace.exclude_test_and_util_frames.calls"],
        "stacktrace.exclude_s": incl["stacktrace.exclude_test_and_util_frames"],
        "guardexpr.guards": c["guardexpr.guards"],
        "guardexpr.guard_s": incl["guardexpr.compute_guard_expression"],
        "guardexpr.guard_chars": c["guardexpr.guard_chars"],
        "corpus.collect_s": incl["corpus.collect_training_corpus"],
        "corpus.examples": c["corpus.examples"],
        "corpus.skipped": c["corpus.skipped"],
        "prompting.pool_s": incl["prompting.collect_stacktrace_set"],
        "prompting.pool_entries": c["prompting.pool_entries"],
        "prompting.sweep_self_s": sweep_self,
        "prompting.directly_invokes_calls": c["prompting.directly_invokes.calls"],
        "prompting.directly_invokes_s": incl["prompting.directly_invokes"],
        "prompting.select_dest_s": incl["prompting.select_dest_with_reason"],
        "prompting.bundles": c["prompting.bundles"],
        "prompting.nomatch": c["prompting.nomatch"],
        "prompting.prompt_chars": c["prompting.prompt_chars"],
        "genbackend.requests": c["genbackend.requests"],
        "genbackend.generate_s": incl["genbackend.generate_many"],
        "genbackend.extract_s": incl["genbackend.extract_candidate"],
        "genbackend.extracted_per_request": _rate(c["genbackend.extracted"],
                                                  c["genbackend.requests"]),
        "metrics.scored": c["metrics.score_candidate.calls"],
        "metrics.score_s": incl["metrics.score_candidate"],
        "metrics.edit_sim_s": incl["metrics.edit_similarity"],
        "metrics.edit_sim_cells": c["metrics.edit_sim_cells"],
        "metrics.edit_sim_cells_per_s": _rate(c["metrics.edit_sim_cells"],
                                              incl["metrics.edit_similarity"]),
        "metrics.code_bleu_s": incl["metrics.code_bleu_components"],
        "metrics.code_bleu_degraded": c["metrics.code_bleu_degraded"],
        "runners.checks": c["runners.RecordedRunner.check.calls"],
        "runners.check_s": incl["runners.RecordedRunner.check"],
        "cli.write_s": write_s,
        "cli.bytes_written": bytes_written,
    }
    m.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    return m
