"""The benchmark's tracer wraps exbt functions by name; each must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_wrapped_name_resolves():
    missing = []
    for module_name, attr, _ in _wrapped():
        module = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        found = (
            member in vars(owner) if isinstance(owner, type) else hasattr(owner, member)
        )
        if not found or not callable(getattr(owner, member)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"perfbench/tracer.py wraps names exbt lacks: {missing}"
