"""Repository model: parsed units, methods, throw sites and the call graph.

Parsing only looks at repository sources, so throws living in dependency
libraries can never enter the model. Loading lists the tree once and reads
each `.java` file once; the repository's digest comes from those bytes.
Loading builds no call graph: `callees_of` scans one caller's call sites on
first use and resolves them by name+arity in the caller's nearest scope
that declares a candidate (its own top-level type, package, imports, then
the whole repository); equal-arity overloads resolve to every candidate of
that scope. `calls` and `callees` are the whole-repository maps of the same
answers, built only when something asks for them.
"""

from __future__ import annotations

import errno
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from exbt.errors import (
    BadInput, FrameOutOfSpan, IoError, JavaParseError, NoJavaSources, UnknownMethod,
)
from exbt.jmodel.lexer import (
    Token,
    call_sites,
    find_top_level,
    index_of,
    is_name,
    match_angle,
    match_brace,
    match_paren,
    skip_name,
    skip_type,
    tokenize,
)
from exbt.jmodel.stmts import BodyParser, Stmt, declarators
from exbt.manifest import files_digest

_MODIFIERS = {
    "public", "private", "protected", "static", "final", "abstract",
    "default", "synchronized", "native", "transient", "volatile", "strictfp",
    "sealed",
}
_TYPE_KEYWORDS = {"class", "interface", "enum", "record"}


@dataclass(frozen=True)
class MethodId:
    fqn: str  # declaring class, nested classes joined with '$'
    name: str
    param_arity: int
    decl_file: str  # repository-relative posix path
    decl_line: int

    def label(self) -> str:
        return f"{self.fqn}#{self.name}/{self.param_arity}"

    def to_record(self) -> dict:
        """The JSON form of a method: its class, name, arity and declaration."""
        return {"fqn": self.fqn, "name": self.name, "param_arity": self.param_arity,
                "decl_file": self.decl_file, "decl_line": self.decl_line}


@dataclass(frozen=True)
class ThrowSite:
    """One throw statement. `tok` indexes its `throw` token in the tokens
    of its method's unit, so two throws on one line are two sites; the
    `file:line` label names them both."""

    method: MethodId
    line: int
    exception_type: str
    statement_text: str
    tok: int

    def label(self) -> str:
        return f"{self.method.decl_file}:{self.line}"

    def to_record(self) -> dict:
        """The JSON form of a site: its file, line, exception type and statement."""
        return {"file": self.method.decl_file, "line": self.line,
                "exception_type": self.exception_type, "statement": self.statement_text}


@dataclass
class MethodDecl:
    name: str
    owner_fqn: str
    params: list[str]  # parameter names
    decl_line: int
    tok_start: int  # first member token (annotations included)
    tok_last: int  # last member token: the body's '}' or the ';'
    tok_open: int | None  # '{' of the body, None for abstract members
    tok_close: int | None
    annotation_tokens: list[list[Token]]  # each annotation's tokens
    is_ctor: bool = False
    compact: bool = False
    # set once by the RepoContext that holds the declaration; None outside one
    mid: MethodId | None = field(default=None, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def called_as(self) -> str:
        """The name its call sites use; no call names an initializer block."""
        return call_name(self.owner_fqn, self.name) if self.is_ctor else self.name


@dataclass
class TypeDecl:
    name: str
    fqn: str
    methods: list[MethodDecl] = field(default_factory=list)
    field_names: list[str] = field(default_factory=list)
    record_components: list[str] = field(default_factory=list)


@dataclass
class CompilationUnit:
    path: str  # repository-relative posix path
    source: str
    tokens: list[Token]
    package: str
    imports: list[str]
    types: list[TypeDecl]  # every type, each before the types nested in it

    def all_methods(self):
        for t in self.types:
            for m in t.methods:
                yield t, m

    def text(self, lo: int, hi: int) -> str:
        """The source of tokens [lo, hi); "" when the range is empty."""
        if hi <= lo:
            return ""
        return self.source[self.tokens[lo].offset : self.tokens[hi - 1].end]


def call_name(fqn: str, name: str) -> str:
    """The name a call site uses for method `name` of type `fqn`: a
    constructor (`<init>`) is called by its class's simple name."""
    return fqn.rsplit(".", 1)[-1].rsplit("$", 1)[-1] if name == "<init>" else name


def _position(m: MethodId):
    return (m.decl_file, m.decl_line, m.name, m.fqn, m.param_arity)


def _top_level(fqn: str) -> str:
    return fqn.split("$", 1)[0]


def _enclosing(fqn: str) -> list[str]:
    """`fqn` and its outer types, innermost first."""
    chain = [fqn]
    while "$" in chain[-1]:
        chain.append(chain[-1].rsplit("$", 1)[0])
    return chain


def _import_scopes(imports: list[str]) -> tuple[list[tuple[str, str | None]], list[str]]:
    """(single-type scopes, on-demand packages) of a unit's imports. A scope
    is (type, member name or None for every member): `import a.C` gives
    (a.C, None), `import static a.C.m` (a.C, m) and `import static a.C.*`
    (a.C, None); `import a.*` gives the package a."""
    types: list[tuple[str, str | None]] = []
    packages: list[str] = []
    for imp in imports:
        static = imp.startswith("static ")
        head, _, last = imp.removeprefix("static ").rpartition(".")
        if static:
            types.append((head, None if last == "*" else last))
        elif last == "*":
            packages.append(head)
        else:
            types.append((f"{head}.{last}" if head else last, None))
    return types, packages


class _UnitParser:
    def __init__(self, tokens: list[Token]):
        self.toks = tokens
        self.types: list[TypeDecl] = []  # each type as it is created

    def parse(self, bodies: list[tuple[TypeDecl, int]]) -> tuple[str, list[str], list[TypeDecl]]:
        """The package, the imports and every type: those created so far,
        then those declared from the first token on. `bodies` holds the type
        bodies open there, innermost last, each with the index of its '}'.
        A token starts a member of the innermost open body, or a top-level
        declaration when none is open; a type's body opens on the stack and
        closes when the loop reaches its '}'."""
        toks = self.toks
        n = len(toks)
        package = ""
        imports: list[str] = []
        i = 0
        while True:
            decl, hi = bodies[-1] if bodies else (None, n)
            if i >= hi:
                if not bodies:
                    return package, imports, self.types
                i = bodies.pop()[1] + 1
                continue
            # every declaration's prefix: annotations, modifiers and type parameters
            start = i
            annotations: list[list[Token]] = []
            static = False
            while i < hi:
                text = toks[i].text
                if text == "@" and i + 1 < hi and toks[i + 1].text != "interface":
                    at, i = i, skip_name(toks, i + 1, n)
                    if i < n and toks[i].text == "(":
                        i = match_paren(toks, i) + 1
                    annotations.append(toks[at:i])
                elif text in _MODIFIERS:
                    static = static or text == "static"
                    i += 1
                elif text == "non" and i + 2 < hi and toks[i + 1].text == "-" \
                        and toks[i + 2].text == "sealed":  # the lexer splits `non-sealed`
                    i += 3
                elif text == "<":
                    i = min(match_angle(toks, i, hi) + 1, hi)
                else:
                    break
            if i >= hi:
                continue
            if toks[i].text == "@" and i + 1 < hi:  # the prefix stops here only at `@interface`
                i += 1
            text = toks[i].text
            if text in _TYPE_KEYWORDS:
                i = self._open_type(i, package, decl, bodies)
            elif decl is not None:
                i = self._read_member(decl, start, i, hi, annotations, static)
            elif text == "package":
                j = index_of(toks, i, ";")
                package = "".join(t.text for t in toks[i + 1 : j])
                i = j + 1
            elif text == "import":
                j = index_of(toks, i, ";")
                k, prefix = i + 1, ""
                if toks[k].text == "static":
                    k, prefix = k + 1, "static "
                imports.append(prefix + "".join(t.text for t in toks[k:j]))
                i = j + 1
            else:
                i += 1

    def _open_type(self, kw: int, package: str, outer: TypeDecl | None,
                   bodies: list[tuple[TypeDecl, int]]) -> int:
        """Create the type declared at kw, inside outer or at the top level,
        and open its body on `bodies`; the index of its first member."""
        toks = self.toks
        kind = toks[kw].text
        if kw + 1 >= len(toks):
            raise JavaParseError(f"{kind} without a name at line {toks[kw].line}")
        name = toks[kw + 1].text
        scope, sep = (package, ".") if outer is None else (outer.fqn, "$")
        fqn = f"{scope}{sep}{name}" if scope else name
        record_params: list[str] = []
        open_b = kw + 2
        if open_b < len(toks) and toks[open_b].text == "<":  # type parameters
            open_b = match_angle(toks, open_b, len(toks)) + 1
        if kind == "record" and open_b < len(toks) and toks[open_b].text == "(":
            close_p = match_paren(toks, open_b)
            record_params = self._parse_params(open_b + 1, close_p)
            open_b = close_p + 1
        open_b = index_of(toks, open_b, "{")
        close_b = match_brace(toks, open_b)
        # record components behave like fields and constructor parameters
        self.types.append(TypeDecl(name, fqn, field_names=list(record_params),
                                   record_components=record_params))
        bodies.append((self.types[-1], close_b))
        if kind == "enum":
            return min(find_top_level(toks, open_b + 1, close_b, (";",)) + 1, close_b)
        return open_b + 1

    def _read_member(self, decl: TypeDecl, start: int, p: int, hi: int,
                     annotations: list[list[Token]], static: bool) -> int:
        """Append the member of decl whose prefix spans [start, p); the index
        past it, or hi when it ends decl's body."""
        t = self.toks[p]
        # what every member declared here shares
        head = dict(owner_fqn=decl.fqn, tok_start=start, annotation_tokens=annotations)
        if t.text == "{":  # initializer block
            close = match_brace(self.toks, p)
            decl.methods.append(
                MethodDecl("<clinit>" if static else "<init>", params=[], decl_line=t.line,
                           tok_last=close, tok_open=p, tok_close=close, **head)
            )
            return close + 1
        # the member head: a type then a name, or a constructor's name
        q = p + 1 if t.text == "void" else skip_type(self.toks, p, hi)
        if q < hi and self.toks[q].text == "{":
            # record compact constructor: 'Name {'
            name_t = self.toks[q - 1]
            close = match_brace(self.toks, q)
            if name_t.text == decl.name:
                decl.methods.append(
                    MethodDecl("<init>", params=list(decl.record_components),
                               decl_line=name_t.line, tok_last=close,
                               tok_open=q, tok_close=close, is_ctor=True, compact=True, **head)
                )
            return close + 1
        if q + 1 < hi and is_name(self.toks[q]) and self.toks[q + 1].text == "(":
            q += 1
        if q < hi and self.toks[q].text != "(":
            end = find_top_level(self.toks, q, hi, (";",))
            found = declarators(self.toks, q, end)
            if found and found[-1][2] == end:  # a field: its names, then the ';'
                decl.field_names.extend(self.toks[k].text for k, _, _ in found)
                return end + 1
            # a head the type reader cannot read ends at its first '(' or '='
            q = next((k for k in range(q, end) if self.toks[k].text in ("(", "=")), end)
            if q == end or self.toks[q].text == "=":
                return end + 1
        if q >= hi:
            return hi
        name_tok = self.toks[q - 1]
        close_paren = match_paren(self.toks, q)
        is_ctor = name_tok.text == decl.name
        p = close_paren + 1  # past a throws clause to the body or the ';'
        while p < len(self.toks) and self.toks[p].text not in ("{", ";"):
            p += 1
        tok_open = tok_close = None
        if p < len(self.toks) and self.toks[p].text == "{":
            tok_open, tok_close = p, match_brace(self.toks, p)
            p = tok_close
        if t.text != "(":  # a head that starts with '(' names no method
            decl.methods.append(MethodDecl(
                "<init>" if is_ctor else name_tok.text,
                params=self._parse_params(q + 1, close_paren), decl_line=name_tok.line,
                tok_last=p if p < len(self.toks) else close_paren, tok_open=tok_open,
                tok_close=tok_close, is_ctor=is_ctor, **head
            ))
        return p + 1

    def _parse_params(self, lo: int, hi: int) -> list[str]:
        """The parameter names in [lo, hi): each one's last identifier. At
        bracket depth 0 a '<' opens type arguments, whose commas split
        nothing."""
        names: list[str] = []
        stops = (",", "<")
        while lo < hi:
            end = find_top_level(self.toks, lo, hi, stops)
            while end < hi and self.toks[end].text == "<":
                end = find_top_level(self.toks, match_angle(self.toks, end, hi) + 1, hi, stops)
            idents = [t.text for t in self.toks[lo:end] if t.kind == "ident"]
            if idents:
                names.append(idents[-1])
            lo = end + 1
        return names


def parse_unit(source: str, path: str) -> CompilationUnit:
    tokens = tokenize(source)
    return CompilationUnit(path, source, tokens, *_UnitParser(tokens).parse([]))


def parse_member(
    source: str, tokens: list[Token] | None = None
) -> tuple[CompilationUnit, MethodDecl | None]:
    """Parse a member on its own, as the body of an unnamed class: the unit
    and its first method, or None when it declares none. The unit's tokens
    are the source's, so every offset and line in it is the source's own.

    The body ends at the first '}' that closes no '{' of the source; what
    follows is read as top-level declarations, and the class's own '}'
    comes just after the source, on a line of its own. `tokens`, when
    given, are `tokenize(source)`, and the source is not lexed again."""
    tokens = tokenize(source) if tokens is None else tokens
    # the class's own braces, as if on the lines before and after the source
    own_open = Token("punct", "{", 0, -1)
    own_close = Token("punct", "}", source.count("\n") + 2, len(source) + 1)
    parser = _UnitParser(tokens + [own_close])
    close = match_brace([own_open, *parser.toks], 0) - 1
    parser.types.append(TypeDecl("", ""))
    unit = CompilationUnit("<member>", source, tokens, *parser.parse([(parser.types[0], close)]))
    return unit, next((m for _, m in unit.all_methods()), None)


class RepoContext:
    """Immutable-after-load view of one Java repository.

    Loading parses every unit and makes each method's MethodId; the lookup
    indexes, the call graph among them, are built on first use and then
    answer every later lookup.
    """

    def __init__(
        self,
        root_path: Path,
        units: list[CompilationUnit],
        main_files: list[str],
        test_files: list[str],
        warnings: list[str],
        tree: dict[str, bytes | None],
    ):
        self.root_path = root_path
        self.units = units
        self.main_files = main_files
        self.test_files = test_files
        self.warnings = warnings
        # every file under the root, in digest order, with the bytes loading
        # read where no unit's source gives them back
        self._tree = tree
        self._unit_by_path = {u.path: u for u in units}
        self._type_by_fqn: dict[str, tuple[CompilationUnit, TypeDecl]] = {}
        self._methods: list[tuple[CompilationUnit, TypeDecl, MethodDecl]] = []
        # every declaration of each MethodId, in declaration order
        self._decls: dict[MethodId, list[tuple[CompilationUnit, TypeDecl, MethodDecl]]] = {}
        for u in units:
            for t in u.types:
                self._type_by_fqn[t.fqn] = (u, t)
                for m in t.methods:
                    m.mid = MethodId(m.owner_fqn, m.name, m.arity, u.path, m.decl_line)
                    self._methods.append((u, t, m))
                    self._decls.setdefault(m.mid, []).append((u, t, m))
        self._sites: dict[MethodId, list[tuple[str, int, int, bool]]] = {}
        self._callees: dict[MethodId, tuple[MethodId, ...]] = {}
        self._body_cache: dict[tuple[str, int], Stmt] = {}
        # guardexpr's guards by (trace frames, throw site or None)
        self.guard_cache: dict[tuple, object] = {}

    def tree_digest(self) -> str:
        """`manifest.files_digest` of every file under the root, sorted by
        relative path, from the bytes loading read: only the files it did not
        read are read now."""

        def contents(rel: str, raw: bytes | None) -> bytes:
            if raw is not None:
                return raw
            unit = self._unit_by_path.get(rel)
            return unit.source.encode() if unit is not None else (self.root_path / rel).read_bytes()

        return files_digest((rel, contents(rel, raw)) for rel, raw in self._tree.items())

    # --- indexes, built on first use ---

    @cached_property
    def throw_sites(self) -> tuple[ThrowSite, ...]:
        """Every throw statement, ordered by (file, line)."""
        sites = [s for u, _, m in self._methods for s in throw_sites_of(u, m)]
        return tuple(sorted(sites, key=lambda s: (s.method.decl_file, s.line)))

    @cached_property
    def throw_sites_by_label(self) -> dict[str, list[ThrowSite]]:
        """The throw sites of each `file:line` label, in source order."""
        index: dict[str, list[ThrowSite]] = {}
        for site in self.throw_sites:
            index.setdefault(site.label(), []).append(site)
        return index

    @cached_property
    def throw_sites_by_method(self) -> dict[MethodId, list[ThrowSite]]:
        index: dict[MethodId, list[ThrowSite]] = {}
        for site in self.throw_sites:
            index.setdefault(site.method, []).append(site)
        return index

    def call_sites_of(self, caller: MethodId) -> list[tuple[str, int, int, bool]]:
        """The caller's call sites in body order, scanned on first use:
        (name, arity, line, whether the call follows `new`); an explicit
        `this(…)` or `super(…)` call is not one. An unbalanced call
        parenthesis ends its caller's sites with a warning."""
        sites = self._sites.get(caller)
        if sites is None:
            sites = self._sites[caller] = []
            for u, _, m in self._decls.get(caller, ()):
                if m.tok_open is None:
                    continue
                try:
                    for k, new, args, _ in call_sites(u.tokens, m.tok_open + 1, m.tok_close):
                        if u.tokens[k].text not in ("this", "super"):
                            sites.append((u.tokens[k].text, len(args), u.tokens[k].line, new))
                except JavaParseError as exc:
                    self.warnings.append(f"{u.path}: call sites of {m.name} cut short ({exc})")
        return sites

    @cached_property
    def calls(self) -> dict[MethodId, list[tuple[str, int, int, bool]]]:
        """`call_sites_of` of every method with a body."""
        return {m.mid: self.call_sites_of(m.mid) for _, _, m in self._methods
                if m.tok_open is not None}

    @cached_property
    def _scopes(self) -> tuple[dict, dict, dict]:
        """Candidate callees by (name, arity, new, top-level fqn), by
        (name, arity, new, package) and by (name, arity, new)."""
        by_top: dict[tuple, list[MethodId]] = {}
        by_pkg: dict[tuple, list[MethodId]] = {}
        anywhere: dict[tuple, list[MethodId]] = {}
        for u, _, m in self._methods:
            key = (m.called_as, m.arity, m.is_ctor)
            by_top.setdefault((*key, _top_level(m.owner_fqn)), []).append(m.mid)
            by_pkg.setdefault((*key, u.package), []).append(m.mid)
            anywhere.setdefault(key, []).append(m.mid)
        return by_top, by_pkg, anywhere

    def callees_of(self, caller: MethodId) -> tuple[MethodId, ...]:
        """The caller's in-repository callees, resolved on first use,
        de-duplicated and ordered by (file, line, name, fqn, arity). A call
        site names a constructor after `new`, any other method otherwise,
        and resolves by name and arity to every candidate of the first
        scope that declares one: the caller's top-level type (its innermost
        enclosing type that declares one, else every member type), its
        package, its single-type imports, its on-demand imports, and last
        the whole repository."""
        found = self._callees.get(caller)
        if found is not None:
            return found
        sites = self.call_sites_of(caller)
        if not sites:
            return ()
        by_top, by_pkg, anywhere = self._scopes
        u, _, m = self._decls[caller][0]
        chain = _enclosing(m.owner_fqn)
        types, packages = _import_scopes(u.imports)

        def resolve(key):
            in_top = by_top.get((*key, _top_level(chain[0])))
            if in_top:
                for owner in chain:
                    own = [c for c in in_top if c.fqn == owner]
                    if own:
                        return own
                return in_top
            return (
                by_pkg.get((*key, u.package))
                or [c for typ, member in types if member in (None, key[0])
                    for c in by_top.get((*key, typ), ())]
                or [c for pkg in packages for c in by_pkg.get((*key, pkg), ())]
                or anywhere.get(key, ())
            )

        found = {c for name, arity, _, new in sites for c in resolve((name, arity, new))}
        self._callees[caller] = tuple(sorted(found, key=_position))
        return self._callees[caller]

    @cached_property
    def callees(self) -> dict[MethodId, tuple[MethodId, ...]]:
        """`callees_of` of every method with a body."""
        return {caller: self.callees_of(caller) for caller in self.calls}

    @cached_property
    def test_files_by_name(self) -> dict[tuple[str, str | None], list[str]]:
        """Sorted test file paths by (simple file name, package) and by
        (simple file name, None) over every package; an unparsed file is
        only under None."""
        index: dict[tuple[str, str | None], list[str]] = {}
        for path in sorted(self.test_files):
            name, unit = path.rsplit("/", 1)[-1], self._unit_by_path.get(path)
            index.setdefault((name, None), []).append(path)
            if unit is not None:
                index.setdefault((name, unit.package), []).append(path)
        return index

    @cached_property
    def test_class_fqns(self) -> frozenset[str]:
        """Fqns of every type declared in a test file."""
        test_paths = set(self.test_files)
        return frozenset(
            t.fqn for u in self.units if u.path in test_paths for t in u.types
        )

    # --- lookups ---

    def unit_for(self, path: str) -> CompilationUnit | None:
        return self._unit_by_path.get(path)

    def declares_type(self, fqn: str) -> bool:
        return fqn in self._type_by_fqn

    def resolve_method_id(self, mid: MethodId):
        """(unit, type, decl) of a MethodId's first declaration, or UnknownMethod."""
        decls = self._decls.get(mid)
        if decls is None:
            raise UnknownMethod(mid.label())
        return decls[0]

    def resolve_frame(self, class_fqn: str, method_name: str, line: int):
        """(unit, type, decl) of the method a stack frame names: the first
        declaration of that name whose body braces hold the line.
        `UnknownMethod` when the repository declares no class of that name
        (as the JVM prints it) or the class no method of that name,
        `FrameOutOfSpan` when no such body holds the line."""
        hit = self._type_by_fqn.get(class_fqn)
        candidates = []
        if hit is not None:
            u, t = hit
            candidates = [(u, t, m) for m in t.methods if m.name == method_name]
        if not candidates:
            raise UnknownMethod(f"{class_fqn}.{method_name}")
        for u, t, m in candidates:
            if m.tok_open is not None \
                    and u.tokens[m.tok_open].line <= line <= u.tokens[m.tok_close].line:
                return u, t, m
        u, _, m = candidates[0]
        first, last = u.tokens[m.tok_start].line, u.tokens[m.tok_last].line
        raise FrameOutOfSpan(f"line {line} outside {m.name} ({first}..{last}) in {u.path}")

    def all_method_ids(self) -> list[MethodId]:
        return [m.mid for _, _, m in self._methods]

    def method_source(self, mid: MethodId) -> str:
        u, _, m = self.resolve_method_id(mid)
        return u.text(m.tok_start, m.tok_last + 1)

    def body_tree(self, unit: CompilationUnit, m: MethodDecl) -> Stmt:
        key = (unit.path, m.tok_open)
        tree = self._body_cache.get(key)
        if tree is None:
            tree = BodyParser(unit.tokens).parse_block(m.tok_open)
            self._body_cache[key] = tree
        return tree


def _is_test_path(rel: str) -> bool:
    parts = rel.split("/")
    joined = "/" + rel + "/"
    if "/src/test/" in joined:
        return True
    if "/src/main/" in joined:
        return False
    return any(seg in ("test", "tests") for seg in parts[:-1])


_DANGLING = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)  # a link that leads to no file


def _tree_files(root: Path) -> list[str]:
    """Every file under root, repository-relative and posix, in the order of
    `sorted(root.glob("**/*"))` filtered by `is_file()`: by path parts,
    through no symlinked directory, symlinked files included. Like glob, it
    skips a directory it may not list."""
    files: list[str] = []
    dirs = [(str(root), "")]  # (directory, its prefix) still to list
    while dirs:
        directory, prefix = dirs.pop()
        try:
            with os.scandir(directory) as it:
                entries = list(it)
        except PermissionError:
            continue
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                dirs.append((entry.path, prefix + entry.name + "/"))
                continue
            try:
                is_file = entry.is_file()
            except OSError as exc:
                if exc.errno not in _DANGLING:
                    raise
                is_file = False
            if is_file:
                files.append(prefix + entry.name)
    return sorted(files, key=lambda rel: rel.split("/"))


def _decode(data: bytes) -> str:
    """`read_text(encoding="utf-8")` of a file holding data: strict UTF-8
    with universal newlines, so CRLF and a lone CR both read as LF."""
    text = data.decode("utf-8")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_repo(root, test_roots: list[str] | None = None) -> RepoContext:
    """Parse every .java file under root into a RepoContext.

    The tree is listed once and each .java file read once. Unparseable
    files become warnings, not failures. test_roots overrides the
    src/main vs src/test convention with explicit path prefixes.
    """
    root = Path(root)
    if not root.exists() or not root.is_dir():
        raise IoError(f"repository root {root} is not a readable directory")
    try:
        tree: dict[str, bytes | None] = dict.fromkeys(_tree_files(root))
    except OSError as exc:
        raise IoError(str(exc)) from exc
    files = [rel for rel in tree if rel.endswith(".java")]
    if not files:
        raise NoJavaSources(f"no .java files under {root}")
    units: list[CompilationUnit] = []
    main_files: list[str] = []
    test_files: list[str] = []
    warnings: list[str] = []
    for rel in files:
        if test_roots is not None:
            is_test = any(rel == r or rel.startswith(r.rstrip("/") + "/") for r in test_roots)
        else:
            is_test = _is_test_path(rel)
        (test_files if is_test else main_files).append(rel)
        try:
            with open(os.path.join(root, rel), "rb") as f:
                data = f.read()
        except OSError as exc:
            warnings.append(f"{rel}: unreadable ({exc})")
            continue
        try:
            units.append(parse_unit(_decode(data), rel))
            if b"\r" not in data:
                continue  # the unit's source encodes back to these bytes
        except UnicodeDecodeError as exc:
            warnings.append(f"{rel}: undecodable ({exc})")
        except JavaParseError as exc:
            warnings.append(f"{rel}: parse failed ({exc})")
        tree[rel] = data  # kept for the digest: no unit's source gives them back
    return RepoContext(root, units, main_files, test_files, warnings, tree)


def throw_sites_of(unit: CompilationUnit, m: MethodDecl) -> list[ThrowSite]:
    if m.tok_open is None:
        return []
    sites: list[ThrowSite] = []
    k = m.tok_open + 1
    while k < m.tok_close:
        t = unit.tokens[k]
        if t.text == "throw":
            end = find_top_level(unit.tokens, k, m.tok_close, (";",))
            sites.append(
                ThrowSite(
                    method=m.mid,
                    line=t.line,
                    exception_type=_thrown_type(unit.tokens, k, end),
                    statement_text=unit.text(k, end + 1),
                    tok=k,
                )
            )
            k = end + 1
            continue
        k += 1
    return sites


def _thrown_type(tokens: list[Token], throw_idx: int, end: int) -> str:
    k = throw_idx + 1
    if k < end and tokens[k].text == "new":
        return "".join(t.text for t in tokens[k + 1 : skip_type(tokens, k + 1, end)])
    return "<unknown>"


def find_throw_sites(ctx: RepoContext, scope: str = "all") -> list[ThrowSite]:
    """Every throw statement in scope, ordered by (file, line).

    scope: 'main' restricts to main source files, 'all' includes tests.
    """
    assert scope in ("main", "all")
    main = set(ctx.main_files)
    return [s for s in ctx.throw_sites if scope == "all" or s.method.decl_file in main]


def reachable_throws(
    ctx: RepoContext, mut: MethodId, max_depth: int = 5
) -> list[tuple[ThrowSite, list[MethodId]]]:
    """Throws reachable from mut through at most max_depth call edges.

    BFS over `ctx.callees_of`; each site carries one shortest witness path
    starting at mut. Deterministic order: path length, then (file, line)
    of the site.
    """
    if max_depth < 1:
        raise BadInput(f"max_depth must be >= 1, got {max_depth}")
    ctx.resolve_method_id(mut)  # raises UnknownMethod
    results: list[tuple[ThrowSite, list[MethodId]]] = []
    seen_sites: set[ThrowSite] = set()
    visited = {mut}
    frontier: list[tuple[MethodId, list[MethodId]]] = [(mut, [mut])]
    depth = 0
    while frontier and depth <= max_depth:
        next_frontier: list[tuple[MethodId, list[MethodId]]] = []
        for mid, path in frontier:
            for site in ctx.throw_sites_by_method.get(mid, ()):
                if site not in seen_sites:
                    seen_sites.add(site)
                    results.append((site, path))
            for callee in ctx.callees_of(mid):
                if callee not in visited:
                    visited.add(callee)
                    next_frontier.append((callee, path + [callee]))
        frontier = next_frontier
        depth += 1
    results.sort(key=lambda r: (len(r[1]), r[0].method.decl_file, r[0].line))
    return results
