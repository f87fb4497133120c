"""Layered configuration: file < flags < environment.

The file format is plain KEY=VALUE lines ('#' comments allowed). A flag
given on the command line overrides the file; an EXBT_<KEY> environment
variable overrides both. BACKEND_URL / BACKEND_KIND / BACKEND_AUTH_TOKEN
are also honored unprefixed for compatibility with the backend contract.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from exbt.errors import read_input

_ENV_ALIASES = {
    "backend_kind": ("EXBT_BACKEND_KIND", "BACKEND_KIND"),
    "backend_url": ("EXBT_BACKEND_URL", "BACKEND_URL"),
    "auth_token": ("EXBT_AUTH_TOKEN", "BACKEND_AUTH_TOKEN"),
}


@dataclass
class Config:
    file_values: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, flag_value=None, default=None):
        for env_name in _ENV_ALIASES.get(key, ()) or (f"EXBT_{key.upper()}",):
            if env_name in os.environ:
                return os.environ[env_name]
        if flag_value is not None:
            return flag_value
        if key in self.file_values:
            return self.file_values[key]
        return default


def load_config(path: str | Path | None) -> Config:
    cfg = Config()
    if path is None:
        return cfg
    for raw in read_input(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            continue
        key, value = line.split("=", 1)
        cfg.file_values[key.strip().lower()] = value.strip()
    return cfg
