"""Guard expressions: the conditions that steer execution into a throw.

Two passes, both driven by the stack trace. The collection pass walks each
traced method from the statement named by the frame line up to the method
declaration, picking up branch conditions and the assignments that feed
them; frames are processed innermost first, and a method-declaration /
method-call node pair bridges every caller boundary. The innermost frame
starts at the target site's own throw statement when the site is known.

The computation pass folds the collected nodes into a conjunction, walking
them from last to first. Each assigned name and each parameter is bound to
two facts about its final replacement as seen from the current node: its
rendered text, grouped, with the earlier bindings it reads already in
place, and its free names. Each assignment, call argument and condition is
rendered once, from its own small tree. The result equals
substituting every later assignment and call into every earlier condition,
one at a time, and rendering the trees; but no substituted tree is built,
so the work grows linearly with the trace's depth (nodes rendered on a
call chain: 183, 375 and 759 at depths 16, 32 and 64).

A compound replacement renders inside explicit parentheses, so a rendered
guard can never change meaning through operator precedence. The original
condition text is kept alongside.

A guard is computed once per repository context, trace and throw site;
`RepoContext.guard_cache` holds it, so the corpus and the sweep share it
and it lives exactly as long as the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from exbt.errors import JavaParseError, UnsupportedConstruct
from exbt.jmodel import CompilationUnit, MethodDecl, RepoContext, ThrowSite
from exbt.jmodel import exprs
from exbt.jmodel.exprs import Binary, Expr, Grouped, Lit, Name, Opaque, Unary
from exbt.jmodel.lexer import call_sites
from exbt.jmodel.stmts import Stmt, chains_at_line
from exbt.stacktrace import StackTrace

START = "StartStatement"
CONDITION = "Condition"
NEGATED = "NegatedCondition"
ASSIGNMENT = "Assignment"
METHOD_DECL = "MethodDecl"
METHOD_CALL = "MethodCall"


class CollectedNode(NamedTuple):
    tag: str
    text: str  # source text of the construct
    expr: Expr | None = None  # condition expression (un-negated source form)
    name: str | None = None  # assignment target
    rhs: Expr | None = None  # assignment right-hand side
    params: tuple[str, ...] = ()  # MethodCall: the callee's parameter names
    args: tuple[Expr, ...] = ()  # MethodCall actual arguments


@dataclass(frozen=True)
class GuardExpression:
    conditions: tuple[str, ...]  # rendered, in collection order
    source_texts: tuple[str, ...] = ()  # conditions as originally written
    unresolved_names: tuple[str, ...] = ()

    @property
    def rendered(self) -> str:
        """The conjunction, joined with &&."""
        return " && ".join(self.conditions)

    def to_record(self) -> dict:
        """The JSON form of a guard: its conjunction, conditions, source
        texts and unresolved names."""
        return {"rendered": self.rendered, "conditions": list(self.conditions),
                "source_texts": list(self.source_texts),
                "unresolved_names": list(self.unresolved_names)}


def parse_or_opaque(unit: CompilationUnit, rng: tuple[int, int]) -> Expr:
    try:
        return exprs.parse_expr_tokens(unit.tokens[rng[0] : rng[1]], unit.source)
    except JavaParseError:
        return Opaque(unit.text(*rng))


def _negate(e: Expr) -> Expr:
    if isinstance(e, Unary) and e.op == "!" and not e.postfix:
        return e.operand
    if isinstance(e, Grouped) and isinstance(e.inner, Unary) \
            and e.inner.op == "!" and not e.inner.postfix:
        return e.inner.operand
    return Unary("!", e)


def _assignment_rhs(unit: CompilationUnit, name: str, rng, op: str) -> Expr:
    if op == "=":
        return parse_or_opaque(unit, rng)
    if op in ("++", "--"):
        return Binary("+" if op == "++" else "-", Name(name), Lit("1"))
    base = op[:-1]  # '+=' -> '+'
    return Binary(base, Name(name), exprs.grouped(parse_or_opaque(unit, rng)))


def _assignment_nodes(unit: CompilationUnit, stmt: Stmt) -> list[CollectedNode]:
    text = unit.text(stmt.tok_start, stmt.tok_end)
    return [
        CollectedNode(
            tag=ASSIGNMENT,
            text=text,
            name=name,
            rhs=_assignment_rhs(unit, name, rng, op),
        )
        for name, rng, op in stmt.assignments
    ]


def _condition_node(unit: CompilationUnit, rng, negated: bool) -> CollectedNode:
    return CollectedNode(
        tag=NEGATED if negated else CONDITION,
        text=unit.text(*rng),
        expr=parse_or_opaque(unit, rng),
    )


def _switch_nodes(unit: CompilationUnit, group: Stmt, switch: Stmt) -> list[CollectedNode]:
    """Equality conditions for the matched case; negations for default."""
    selector = exprs.grouped(parse_or_opaque(unit, switch.selector_range))
    own = group.labels or []
    nodes: list[CollectedNode] = []
    if None in own:  # default: conjunction of negations of every other label
        for sibling in switch.children:
            if sibling is group:
                continue
            for lab in sibling.labels or []:
                if lab is None:
                    continue
                eq = Binary("==", selector, parse_or_opaque(unit, lab))
                nodes.append(
                    CollectedNode(
                        tag=NEGATED,
                        text=unit.text(*lab),
                        expr=eq,
                    )
                )
        return nodes
    eqs = [Binary("==", selector, parse_or_opaque(unit, lab)) for lab in own if lab]
    if not eqs:
        return nodes
    cond: Expr = eqs[0]
    for e in eqs[1:]:
        cond = Binary("||", cond, e)
    nodes.append(
        CollectedNode(
            tag=CONDITION,
            text=unit.text(group.tok_start, group.tok_end),
            expr=cond,
        )
    )
    return nodes


def _preceding_assignments(
    unit: CompilationUnit, parent: Stmt, current: Stmt
) -> list[CollectedNode]:
    """Assignments textually before current, closest first."""
    nodes: list[CollectedNode] = []
    idx = parent.children.index(current)
    for sibling in reversed(parent.children[:idx]):
        if sibling.kind in ("localvar", "expr") and sibling.assignments:
            nodes.extend(reversed(_assignment_nodes(unit, sibling)))
    return nodes


# (statement kind, role of its child on the path) of each statement whose
# condition guards the path; on the else branch the condition is negated
_CONDITIONED = {("if", "then"), ("if", "else"), ("while", "body"), ("for", "body")}


def _walk_up(unit: CompilationUnit, chain: tuple[Stmt, ...]) -> list[CollectedNode]:
    """The nodes met climbing from chain[0] through its ancestors."""
    nodes: list[CollectedNode] = []
    for k in range(1, len(chain)):
        current, parent = chain[k - 1], chain[k]
        if (parent.kind, current.role) in _CONDITIONED:
            if parent.cond_range is not None:  # `for (;;)` has none
                nodes.append(_condition_node(unit, parent.cond_range, current.role == "else"))
        elif parent.kind == "case" and k + 1 < len(chain):
            nodes.extend(_preceding_assignments(unit, parent, current))
            nodes.extend(_switch_nodes(unit, parent, chain[k + 1]))
        elif parent.kind == "block":
            nodes.extend(_preceding_assignments(unit, parent, current))
    return nodes


def _find_call(unit: CompilationUnit, stmt: Stmt, callee: MethodDecl, caller: MethodDecl):
    """The call to `callee` inside stmt, a statement of `caller`: (args,
    source text), or None. A constructor is also called as `this(…)` from
    its own class and as `super(…)` from another."""
    names = {callee.called_as}
    if callee.is_ctor:
        names.add("this" if callee.owner_fqn == caller.owner_fqn else "super")
    toks = unit.tokens
    for k, _, args, close in call_sites(toks, stmt.tok_start, stmt.tok_end):
        if toks[k].text in names and len(args) == callee.arity:
            text = unit.text(k, close + 1)
            return tuple(parse_or_opaque(unit, r) for r in args), text
    return None


def _throw_chain(
    unit: CompilationUnit, chains: list[tuple[Stmt, ...]], site: ThrowSite | None
) -> tuple[Stmt, ...]:
    """Of a line's statement chains, the one whose statement's token span
    holds the site's `throw` token, else the line's first throw (or first
    statement). A site's token index counts only in its own unit."""
    if site is not None and site.method.decl_file == unit.path:
        for chain in chains:
            if chain[0].tok_start <= site.tok < chain[0].tok_end:
                return chain
    for chain in chains:
        if chain[0].kind == "throw":
            return chain
    return chains[0]


def collect_nodes(
    trace: StackTrace, ctx: RepoContext, site: ThrowSite | None = None
) -> list[CollectedNode]:
    """Collect condition, assignment and call nodes along a resolved trace.

    Frames are traversed in reversed order (throw site first); within a
    frame the walk climbs the ancestor chain of the statement at the frame
    line up to the method body. The statement at the frame line is
    always included; in the innermost frame it is `site`'s throw statement
    when that sits on the line, since one line can hold several throws.
    """
    nodes: list[CollectedNode] = []
    prev_decl: MethodDecl | None = None
    for frame in reversed(trace.frames):
        unit, _, decl = ctx.resolve_method_id(frame.mid)
        # a resolved line is inside the body, so some statement chain holds it
        chains = chains_at_line(ctx.body_tree(unit, decl), unit.tokens, frame.line)
        if prev_decl is None:
            chain = _throw_chain(unit, chains, site)
        else:
            # several statements may share the frame line: the first that
            # holds the call
            chain, found = next(
                ((c, f) for c in chains if (f := _find_call(unit, c[0], prev_decl, decl))),
                (chains[0], None),
            )
            if found is not None:
                args, call_text = found
                nodes.append(
                    CollectedNode(
                        tag=METHOD_DECL,
                        text=f"{prev_decl.name}({', '.join(prev_decl.params)})",
                    )
                )
                nodes.append(
                    CollectedNode(
                        tag=METHOD_CALL,
                        text=call_text,
                        params=tuple(prev_decl.params),
                        args=args,
                    )
                )
        start = chain[0]
        nodes.append(CollectedNode(tag=START, text=unit.text(start.tok_start, start.tok_end)))
        if start.assignments:
            nodes.extend(_assignment_nodes(unit, start))
        nodes.extend(_walk_up(unit, chain))
        prev_decl = decl
    return nodes


def _fold(nodes: list[CollectedNode]) -> tuple[list[str], list[str], set[str]]:
    """The rendered conditions and their source texts, in collection order,
    and the names the conditions leave free.

    A node's substitutions come from the nodes after it (earlier in
    execution), so the walk runs from last to first. Each name bound so far
    keeps its final replacement as seen from the current node in two forms:
    `texts`, the grouped replacement rendered, and `frees`, its free names.
    A condition is rendered once from its own tree with `texts`, which
    equals rendering the substituted tree: a grouped replacement has
    primary precedence, as the bare name it stands for does."""
    texts: dict[str, str] = {}
    frees: dict[str, set[str]] = {}

    def bind(e: Expr) -> tuple[str, set[str]]:
        """e's text and free names, with every bound name replaced."""
        used: set[str] = set()
        text = exprs.render(e, texts, used)
        names: set[str] = set()
        for n in used:
            names.update(frees.get(n, (n,)))
        return text, names

    conds: list[str] = []
    sources: list[str] = []
    free: set[str] = set()
    for node in reversed(nodes):
        if node.tag in (CONDITION, NEGATED):
            text, names = bind(node.expr if node.tag == CONDITION else _negate(node.expr))
            conds.append(text)
            sources.append(node.text)
            free |= names
        elif node.tag == ASSIGNMENT:
            texts[node.name], frees[node.name] = bind(exprs.grouped(node.rhs))
        elif node.tag == METHOD_CALL:
            bound = {p: bind(exprs.grouped(a)) for p, a in zip(node.params, node.args)}
            for p, (text, names) in bound.items():
                texts[p], frees[p] = text, names
    conds.reverse()
    sources.reverse()
    return conds, sources, free


def compute_guard_expression(
    trace: StackTrace, ctx: RepoContext, site: ThrowSite | None = None
) -> GuardExpression:
    """The guard conjunction for a resolved trace, ending at `site` when
    given; computed once per context, frames (each with its method) and site."""
    key = (trace.frames, site)
    guard = ctx.guard_cache.get(key)
    if guard is None:
        guard = ctx.guard_cache[key] = _compute_guard(trace, ctx, site)
    return guard


def _compute_guard(
    trace: StackTrace, ctx: RepoContext, site: ThrowSite | None
) -> GuardExpression:
    conds, texts, free = _fold(collect_nodes(trace, ctx, site))
    # visible names: parameters and fields of the method under test
    visible = {"this", "super", "true", "false", "null"}
    if trace.frames:
        _, type_decl, decl = ctx.resolve_method_id(trace.frames[0].mid)
        visible.update(decl.params)
        visible.update(type_decl.field_names)
    return GuardExpression(
        conditions=tuple(conds),
        source_texts=tuple(texts),
        unresolved_names=tuple(sorted(free - visible)),
    )


def evaluate_guard(guard: GuardExpression, env: dict[str, int | bool]) -> bool:
    """Evaluate the conjunction over an int/bool environment.

    Left-to-right with short circuits; an empty guard is vacuously true.
    Raises UnboundName for missing names and UnsupportedConstruct for
    anything beyond arithmetic, comparisons and boolean operators.
    """
    for text in guard.conditions:
        try:
            e = exprs.parse_expr(text)
        except JavaParseError as exc:
            raise UnsupportedConstruct(f"condition {text!r} does not parse: {exc}") from exc
        if not exprs.evaluate(e, env):
            return False
    return True
