"""Java source model: parsing, throw sites and call-graph reachability."""

from exbt.jmodel.model import (
    CompilationUnit,
    MethodDecl,
    MethodId,
    RepoContext,
    ThrowSite,
    TypeDecl,
    call_name,
    find_throw_sites,
    load_repo,
    parse_member,
    parse_unit,
    reachable_throws,
)

__all__ = [
    "CompilationUnit",
    "MethodDecl",
    "MethodId",
    "RepoContext",
    "ThrowSite",
    "TypeDecl",
    "call_name",
    "find_throw_sites",
    "load_repo",
    "parse_member",
    "parse_unit",
    "reachable_throws",
]
