"""Similarity and functional-correctness metrics for generated tests.

Similarity metrics (exact match, BLEU, CodeBLEU, edit similarity) are pure
text/tree computations. Functional metrics (compilable, runnable, covers
target) need a build runner and stay absent (None) without one, so the
hermetic suite never requires a JVM. Coverage over targets is reported as
the fraction of target throw statements with at least one fully successful
candidate.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from exbt.classifier import classify_member
from exbt.errors import ExbtError
from exbt.guardexpr import parse_or_opaque
from exbt.jmodel import exprs as E
from exbt.jmodel import CompilationUnit, MethodDecl, ThrowSite, parse_member
from exbt.jmodel.lexer import KEYWORDS, Token, tokenize
from exbt.jmodel.stmts import BodyParser

_FALLBACK_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_LINE_COMMENT_RE = re.compile(r"//[^\n]*")
_BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)
KEYWORD_WEIGHT = 5.0  # what a Java keyword weighs in CodeBLEU's weighted n-gram match

# what `parse_member` returns: the member's unit and its first method
Member = tuple[CompilationUnit, MethodDecl | None]


def _split_tokens(text: str) -> list[str]:
    """The regex split of a text the Java lexer rejects, comments dropped."""
    stripped = _BLOCK_COMMENT_RE.sub(" ", _LINE_COMMENT_RE.sub(" ", text))
    return _FALLBACK_TOKEN_RE.findall(stripped)


def xmatch(candidate: str, reference: str) -> bool:
    """Token streams identical after comment and whitespace normalization."""
    return Sides().pair(candidate, reference)["xmatch"]


def xmatch_strict(candidate: str, reference: str) -> bool:
    return candidate == reference


MAX_N = 4  # BLEU's longest n-gram


def _ngram_counts(tokens: list[str]) -> tuple[Counter, ...]:
    """The 1- to MAX_N-gram counts of tokens; entry n - 1 counts the n-grams."""
    return (Counter(tokens),) + tuple(
        Counter(zip(*(tokens[i:] for i in range(n)))) for n in range(2, MAX_N + 1)
    )


def bleu(candidate: str, reference: str) -> float:
    """Smoothed BLEU over code tokens: add-one on every n-gram precision,
    geometric mean, brevity penalty."""
    return Sides().pair(candidate, reference)["bleu"]


def _clipped_logs(cand: _Side, ref: _Side) -> list[float]:
    """For n = 2 to MAX_N, the log of the add-one smoothed precision of the
    candidate's n-gram counts clipped by the reference's. Plain and
    keyword-weighted BLEU differ only in the unigram term, so a pair's
    logs serve both."""
    logs = []
    for n in range(2, len(cand.grams) + 1):
        ref_n = ref.grams[n - 1]
        matched = sum(min(c, ref_n[g]) for g, c in cand.grams[n - 1].items() if g in ref_n)
        logs.append(math.log((matched + 1) / (max(0, len(cand.tokens) - n + 1) + 1)))
    return logs


def _weighted_unigram_precision(cand: Counter, ref: Counter, keyword_weight: float) -> float:
    """Unigram precision of the candidate's token counts, where Java
    keywords weigh keyword_weight. With weight 1.0 every sum is an exact
    integer, so the ratio equals the plain count ratio bit for bit."""
    matched = 0.0
    total = 0.0
    for tok, c in cand.items():
        w = keyword_weight if tok in KEYWORDS else 1.0
        matched += w * min(c, ref.get(tok, 0))
        total += w * c
    return (matched + 1) / (total + 1)


def _weighted_bleu(cand: _Side, ref: _Side, keyword_weight: float, logs: list[float]) -> float:
    """BLEU of two sides from their unigram counts and the pair's
    `_clipped_logs`, added one by one in order of n: summing them first
    would round differently in the last bit."""
    if not cand.tokens or not ref.tokens:
        return 1.0 if cand.tokens == ref.tokens else 0.0
    log_sum = math.log(_weighted_unigram_precision(cand.grams[0], ref.grams[0], keyword_weight))
    for term in logs:
        log_sum += term
    geo = math.exp(log_sum / (len(logs) + 1))
    n_cand, n_ref = len(cand.tokens), len(ref.tokens)
    bp = 1.0 if n_cand >= n_ref else math.exp(1 - n_ref / n_cand)
    return bp * geo


# the kinds labelled with a detail: an operator or a type
_KIND_DETAIL = {E.Binary: ("bin:", "op"), E.Unary: ("un:", "op"), E.New: ("new:", "type_text")}


def _expr_signatures(expr, out: Counter) -> str:
    """The shape of expr: a leaf's kind, or its kind and its sub-expressions'
    shapes, counted into out. Groups are transparent. Reversed pre-order
    puts each node after all the nodes below it; nodes are keyed by
    identity, since equal trees hash by walking themselves."""
    order, stack = [], [expr]
    while stack:
        e = stack.pop()
        kids = E.children(e)
        order.append((e, kids))
        stack += kids
    shape: dict[int, str] = {}
    for e, kids in reversed(order):
        cls = type(e)
        if cls is E.Grouped:
            sig = shape[id(e.inner)]
        else:
            detail = _KIND_DETAIL.get(cls)
            sig = cls.__name__.lower() if detail is None else detail[0] + getattr(e, detail[1])
            if E.SUBEXPRS[cls]:
                sig += "(" + ",".join([shape[id(k)] for k in kids]) + ")"
                out[sig] += 1
        shape[id(e)] = sig
    return shape[id(expr)]


def _stmt_expr_trees(unit, stmt):
    trees = []
    for rng in (stmt.cond_range, stmt.selector_range):
        if rng is not None:
            trees.append(parse_or_opaque(unit, rng))
    for _, rng, op in stmt.assignments:
        if rng[1] > rng[0]:
            trees.append(parse_or_opaque(unit, rng))
    return trees


def _stmt_signatures(tree, out: Counter) -> None:
    """Count into out the shape of every statement of tree: its kind and
    its children's shapes. Reversed pre-order puts each statement after
    all the statements below it."""
    shape: dict = {}
    for node in reversed(list(tree.iter_tree())):
        shape[node] = node.kind + "(" + ",".join([shape[c] for c in node.children]) + ")"
        out[shape[node]] += 1


def _ast_signatures(tree, node_exprs) -> Counter:
    """Statement-shape and expression-shape signatures of a body tree."""
    sigs: Counter = Counter()
    _stmt_signatures(tree, sigs)
    for _, trees in node_exprs:
        for expr in trees:
            _expr_signatures(expr, sigs)
    return sigs


def _def_use_pairs(method, node_exprs) -> Counter:
    """Position-normalized def-use edges, invariant under renaming."""
    defs: dict[str, int] = {}
    for i, name in enumerate(method.params):
        defs[name] = i
    edges: Counter = Counter()
    use_serial = 0
    for node, trees in node_exprs:
        for expr in trees:
            for name in sorted(E.free_names(expr)):
                if name in defs:
                    edges[(defs[name], use_serial)] += 1
                    use_serial += 1
        for name, _, _ in node.assignments:
            if name not in defs:
                defs[name] = len(defs)
    return edges


class _Side(NamedTuple):
    """One side of a scored pair, lexed once and parsed once: its code
    tokens, their 1- to MAX_N-gram counts and, when its method body
    parses, its AST signatures and def-use edges (both None otherwise).
    Each is decided by the code tokens and whether they parse."""

    tokens: list[str]
    grams: tuple[Counter, ...]
    ast_sigs: Counter | None
    def_use: Counter | None


def _side(tokens: list[str], member: Member | None) -> _Side:
    """The side of a text with these code tokens, given its `parse_member`
    result (None when it does not parse)."""
    grams = _ngram_counts(tokens)
    unit, method = member or (None, None)
    if method is None or method.tok_open is None:
        return _Side(tokens, grams, None, None)
    try:
        tree = BodyParser(unit.tokens).parse_block(method.tok_open)
    except ExbtError:
        return _Side(tokens, grams, None, None)
    node_exprs = [(node, _stmt_expr_trees(unit, node)) for node in tree.iter_tree()]
    return _Side(
        tokens, grams, _ast_signatures(tree, node_exprs), _def_use_pairs(method, node_exprs)
    )


class Sides:
    """The texts one command scores, each lexed once, parsed once and
    classified once; each distinct code-token sequence made a side once;
    and each (candidate, reference) pair of texts scored once.

    `member` is the one place a text is lexed and parsed. It keeps the
    text's code tokens for its side: the token texts, or the regex split
    when the lexer rejects it. Extraction hands it the lex it found a
    candidate with, so that text is not lexed again.

    Texts that differ only in comments or layout share one side when both
    parse as a member or neither does: a side is keyed by its code tokens
    and by that, since a parsed text's tokens may equal the regex split of
    one the lexer rejects while only the parsed one has a body tree."""

    def __init__(self) -> None:
        self._parses: dict[str, Member | None] = {}
        self._tokens: dict[str, list[str]] = {}  # the code tokens `member` keeps
        self._sides: dict[str, _Side] = {}
        self._shared: dict[tuple[tuple[str, ...], bool], _Side] = {}
        self._pairs: dict[tuple[str, str], dict] = {}
        self._expected: dict[str, str | None] = {}

    def member(self, text: str, tokens: list[Token] | None = None) -> Member | None:
        """The text's `parse_member` result, None when it does not parse;
        `tokens`, when given, are `tokenize(text)`."""
        if text not in self._parses:
            self._parses[text] = None
            try:
                tokens = tokenize(text) if tokens is None else tokens
            except ExbtError:
                self._tokens[text] = _split_tokens(text)
                return None
            self._tokens[text] = [t.text for t in tokens]
            try:
                self._parses[text] = parse_member(text, tokens)
            except ExbtError:
                pass
        return self._parses[text]

    def side(self, text: str) -> _Side:
        side = self._sides.get(text)
        if side is None:
            member = self.member(text)
            tokens = self._tokens.pop(text)
            key = (tuple(tokens), member is not None)
            side = self._shared.get(key)
            if side is None:
                side = self._shared[key] = _side(tokens, member)
            self._sides[text] = side
        return side

    def pair(self, candidate: str, reference: str) -> dict:
        """The `CandidateScore` fields that only the two texts decide: both
        exact matches, BLEU, CodeBLEU and edit similarity. Strict match and
        edit similarity read the texts; the rest read only their sides."""
        key = (candidate, reference)
        if key not in self._pairs:
            cand, ref = self.side(candidate), self.side(reference)
            comp = code_bleu_components(cand, ref)
            self._pairs[key] = {
                "xmatch": cand.tokens == ref.tokens,
                "xmatch_strict": xmatch_strict(candidate, reference),
                "bleu": comp["ngram"],
                "code_bleu": comp["code_bleu"],
                "code_bleu_degraded": comp["degraded"],
                "edit_sim": edit_similarity(candidate, reference),
            }
        return self._pairs[key]

    def expected(self, text: str) -> str | None:
        """The simple name of the exception the text's test method expects,
        from its `classify_member` result; None when it is not a method or
        not an EBT."""
        if text not in self._expected:
            self._expected[text] = _expected_simple_name(self.member(text))
        return self._expected[text]


def _clipped_ratio(cand: Counter, ref: Counter) -> float:
    total = sum(cand.values())
    if total == 0:
        return 1.0 if sum(ref.values()) == 0 else 0.0
    matched = sum(min(c, ref[k]) for k, c in cand.items())
    return matched / total


def code_bleu_components(candidate: str | _Side, reference: str | _Side) -> dict:
    """CodeBLEU = 0.25 * (ngram + keyword-weighted ngram + AST + def-use).

    Each side is a source string or a `_Side` already built from one. When
    either side does not parse as a Java method, the score degrades to
    plain BLEU and the result is flagged."""
    cand = candidate if isinstance(candidate, _Side) else Sides().side(candidate)
    ref = reference if isinstance(reference, _Side) else Sides().side(reference)
    degraded = cand.ast_sigs is None or ref.ast_sigs is None
    if cand is ref:  # every n-gram, signature and edge matches
        ngram = weighted = ast_match = dataflow = 1.0
    else:
        logs = _clipped_logs(cand, ref)
        ngram = weighted = ast_match = dataflow = _weighted_bleu(cand, ref, 1.0, logs)
        if not degraded:
            weighted = _weighted_bleu(cand, ref, KEYWORD_WEIGHT, logs)
            ast_match = _clipped_ratio(cand.ast_sigs, ref.ast_sigs)
            dataflow = _clipped_ratio(cand.def_use, ref.def_use)
    return {
        "code_bleu": ngram if degraded else 0.25 * (ngram + weighted + ast_match + dataflow),
        "ngram": ngram,
        "weighted_ngram": weighted,
        "ast_match": ast_match,
        "dataflow_match": dataflow,
        "degraded": degraded,
    }


def edit_similarity(candidate: str, reference: str) -> float:
    """1 - levenshtein/max(len); both empty counts as identical."""
    if not candidate and not reference:
        return 1.0
    if not candidate or not reference:
        return 0.0
    return 1.0 - _levenshtein(candidate, reference) / max(len(candidate), len(reference))


def _shared_ends(a: str, b: str) -> tuple[int, int]:
    """The lengths of a's and b's common prefix and of their common suffix
    in what the prefix leaves. Each is a binary search over slice
    comparisons that halve in length, so it reads about as many characters
    as the strings share."""
    shortest = min(len(a), len(b))
    lo, hi = 0, shortest
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    prefix = lo
    lo, hi = 0, shortest - prefix
    la, lb = len(a), len(b)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid : la - lo] == b[lb - mid : lb - lo]:
            lo = mid
        else:
            hi = mid - 1
    return prefix, lo


def _levenshtein(a: str, b: str) -> int:
    """Exact edit distance of two non-empty strings. Their shared prefix
    and suffix cost nothing, since an optimal alignment can always match
    them, so only the differing middles are compared: one text column per
    step, by Myers' bit-parallel algorithm in Hyyro's formulation. Bit i of
    the vertical deltas stands for row i of the DP column over `pattern`;
    Python ints make the vectors as wide as the pattern needs."""
    prefix, suffix = _shared_ends(a, b)
    a, b = a[prefix : len(a) - suffix], b[prefix : len(b) - suffix]
    if not a or not b:
        return len(a) + len(b)
    pattern, text = (a, b) if len(a) >= len(b) else (b, a)
    masks: dict[str, int] = {}
    for i, ch in enumerate(pattern):
        masks[ch] = masks.get(ch, 0) | (1 << i)
    width = (1 << len(pattern)) - 1
    last = 1 << (len(pattern) - 1)
    plus, minus, dist = width, 0, len(pattern)
    for ch in text:
        eq = masks.get(ch, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        hplus = minus | (width & ~(xh | plus))
        hminus = plus & xh
        if hplus & last:
            dist += 1
        elif hminus & last:
            dist -= 1
        hplus = ((hplus << 1) | 1) & width
        hminus = (hminus << 1) & width
        plus = hminus | (width & ~(xv | hplus))
        minus = hplus & xv
    return dist


def _simple_name(type_name: str) -> str:
    return type_name.rsplit(".", 1)[-1]


def matched_exception(candidate: str, target_exception: str, sides: Sides | None = None) -> bool:
    """Candidate checks the target exception type (simple-name compare).
    The candidate's parse and classification come from `sides` when given."""
    expected = (Sides() if sides is None else sides).expected(candidate)
    return expected is not None and expected == _simple_name(target_exception)


def _expected_simple_name(member: Member | None) -> str | None:
    if member is None or member[1] is None:
        return None
    try:
        t = classify_member(*member)
    except ExbtError:
        return None
    if not t.is_ebt or t.expected_exception is None:
        return None
    return _simple_name(t.expected_exception)


@dataclass(frozen=True)
class FunctionalResult:
    compilable: bool | None = None
    runnable: bool | None = None
    covers_target: bool | None = None

    def normalized(self) -> "FunctionalResult":
        """Enforce runnable => compilable and covers => runnable."""
        compilable, runnable, covers = self.compilable, self.runnable, self.covers_target
        if compilable is False:
            runnable = None if runnable is None else False
            covers = None if covers is None else False
        if runnable is False:
            covers = None if covers is None else False
        if covers is True:
            runnable = True
            compilable = True
        if runnable is True:
            compilable = True
        return FunctionalResult(compilable, runnable, covers)


@dataclass
class CandidateScore:
    target: ThrowSite | str  # a sweep's ThrowSite, or eval's file:line label
    xmatch: bool | None = None
    xmatch_strict: bool | None = None
    bleu: float | None = None
    code_bleu: float | None = None
    code_bleu_degraded: bool = False
    edit_sim: float | None = None
    matched_e: bool = False
    compilable: bool | None = None
    runnable: bool | None = None
    covers_target: bool | None = None


def score_candidate(
    candidate: str,
    reference: str | None,
    target_exception: str,
    target: ThrowSite | str,
    site: ThrowSite | None = None,
    runner=None,
    sides: Sides | None = None,
) -> CandidateScore:
    """The similarity, exception and functional fields of one candidate;
    without a runner the functional fields stay absent (None), never false.

    Pass one `Sides` for every candidate of a command: a text extracted or
    scored before is then not lexed, parsed, made a side or classified
    again, and a pair scored before is not scored again."""
    sides = Sides() if sides is None else sides
    similarity = {} if reference is None else sides.pair(candidate, reference)
    matched_e = matched_exception(candidate, target_exception, sides)
    functional = {}
    if runner is not None and site is not None:
        functional = vars(runner.check(candidate, site).normalized())
    return CandidateScore(target, **similarity, matched_e=matched_e, **functional)


def _mean(values) -> float:
    values = [v for v in values if v is not None]
    return sum(values) / len(values) if values else 0.0


def _pct(values) -> float:
    present = [v for v in values if v is not None]
    if not present:
        return 0.0
    return 100.0 * sum(1 for v in present if v) / len(present)


def aggregate(reports: list[CandidateScore], targets: list[ThrowSite | str]) -> dict:
    """Means/percentages over candidates plus coverage over targets."""
    target_set = set(targets)
    covered = {r.target for r in reports if r.covers_target is True and r.target in target_set}
    throw_cov = len(covered) / len(targets) if targets else 0.0
    functional_present = any(
        r.compilable is not None or r.runnable is not None for r in reports
    )
    return {
        "candidates": len(reports),
        "targets": len(targets),
        "bleu": _mean([r.bleu for r in reports]),
        "code_bleu": _mean([r.code_bleu for r in reports]),
        "edit_sim": _mean([r.edit_sim for r in reports]),
        "xmatch_pct": _pct([r.xmatch for r in reports]),
        "xmatch_strict_pct": _pct([r.xmatch_strict for r in reports]),
        "compilable_pct": _pct([r.compilable for r in reports]),
        "matched_e_pct": _pct([r.matched_e for r in reports]),
        "runnable_pct": _pct([r.runnable for r in reports]),
        "throw_cov": throw_cov,
        "throw_cov_pct": 100.0 * throw_cov,
        "partial": not functional_present,
    }


def report_table(agg: dict) -> str:
    """Text table mirroring the metric column order of the report."""
    head = (
        "BLEU    CodeBLEU  EditSim  xMatch  | "
        "Compilable%  Matched-E%  Runnable%  ThrowCov%"
    )
    row = (
        f"{agg['bleu']:.4f}  {agg['code_bleu']:.4f}    {agg['edit_sim']:.4f}   "
        f"{agg['xmatch_pct']:5.1f}%  | "
        f"{agg['compilable_pct']:10.1f}  {agg['matched_e_pct']:10.1f}  "
        f"{agg['runnable_pct']:9.1f}  {agg['throw_cov_pct']:9.1f}"
    )
    note = "(functional metrics absent: no runner configured)" if agg.get("partial") else ""
    return "\n".join(x for x in (head, row, note) if x)
