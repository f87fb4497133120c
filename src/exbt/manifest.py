"""Run manifests: input digests, stage counters and artifact digests.

A manifest makes a run replayable: identical inputs, seed and backend give
byte-identical artifacts, and the manifest proves it by digesting both
sides. Stage counters record how often each pipeline stage executed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import exbt
from exbt.errors import BadInput, read_input


def json_line(value) -> str:
    """One JSON line, keys sorted: every JSONL row and JSON line exbt prints."""
    return json.dumps(value, sort_keys=True) + "\n"


def json_document(value) -> str:
    """One JSON document, indented by 2, keys sorted, newline-terminated."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def files_digest(files: Iterable[tuple[str, bytes]]) -> str:
    """Digest of (relative posix path, contents) pairs, in the given order."""
    h = hashlib.sha256()
    for rel, data in files:
        h.update(rel.encode())
        h.update(b"\0")
        h.update(data)
        h.update(b"\0")
    return h.hexdigest()


@dataclass
class Manifest:
    command: str
    seed: int | None = None
    template_id: str | None = None
    backend_kind: str | None = None
    versions: dict = field(default_factory=lambda: {"exbt": exbt.__version__})
    inputs: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)

    def add_input(self, label: str, path: str | Path) -> None:
        """Record a file by its digest alone, so the manifest does not
        depend on where the file sits."""
        self.inputs[label] = {"sha256": file_digest(path)}

    def add_input_tree(self, label: str, sha256: str) -> None:
        """Record a directory tree by its digest (`RepoContext.tree_digest`)."""
        self.inputs[label] = {"sha256": sha256}

    def add_artifact(self, path: str | Path, base: str | Path | None = None) -> None:
        key = str(Path(path).relative_to(base)) if base else str(path)
        self.artifacts[key] = file_digest(path)

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] += by

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "seed": self.seed,
            "template_id": self.template_id,
            "backend_kind": self.backend_kind,
            "versions": self.versions,
            "inputs": self.inputs,
            "artifacts": self.artifacts,
            "counters": dict(sorted(self.counters.items())),
        }

    def write(self, path: str | Path) -> None:
        Path(path).write_text(json_document(self.to_dict()), encoding="utf-8")


def verify_manifest(path: str | Path) -> list[str]:
    """Check that every artifact referenced by a manifest digest-matches.

    Returns a list of problems, empty when everything verifies. Raises
    BadInput when the file is not a JSON object with an artifacts object."""
    manifest_path = Path(path)
    data = read_input(manifest_path, as_json=True)
    artifacts = data.get("artifacts", {}) if isinstance(data, dict) else None
    if not isinstance(artifacts, dict):
        raise BadInput(f"{manifest_path}: not a manifest object with an artifacts object")
    problems = []
    base = manifest_path.parent
    for rel, digest in artifacts.items():
        target = base / rel
        if not target.exists():
            problems.append(f"missing artifact {rel}")
        elif file_digest(target) != digest:
            problems.append(f"digest mismatch for {rel}")
    return problems
