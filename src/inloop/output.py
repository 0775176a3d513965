"""CSV, manifest and config-file plumbing for the command-line front end.

CSV files carry one header line and ASCII decimal values with 13
significant digits, so a fixed pipeline reproduces them byte for byte.
Config files are flat `key = value` text (with # comments); JSON is also
accepted, including a previously emitted manifest (its `config` section is
used), which makes every manifest a valid config reproducing its run.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


def write_csv(path, columns: dict, comments: list[str] | None = None) -> None:
    """Write named columns (equal-length 1-D arrays) as CSV with optional
    leading # comment lines."""
    cols = [np.asarray(v) for v in columns.values()]
    if len({c.size for c in cols}) != 1:
        raise ConfigError("CSV columns must have equal lengths")
    header = "\n".join([f"# {c}" for c in comments or []] + [",".join(columns)])
    np.savetxt(path, np.column_stack(cols), fmt="%.12e", delimiter=",", header=header,
               comments="", encoding="utf-8")


def write_manifest(path, command: str, config: dict, outputs: list[str]) -> None:
    payload = {
        "command": command,
        "config": config,
        "outputs": sorted(outputs),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_config(path) -> dict:
    """Parse a config file: JSON (possibly a manifest) or flat key = value."""
    text = Path(path).read_text()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigError(f"JSON config {path} must be an object")
        if "config" in obj and isinstance(obj["config"], dict):
            return dict(obj["config"])
        return obj
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = value
    return out


def take(config: dict, key: str, kind, default=None, required: bool = False):
    """Pop a typed value from a parsed config; `kind` in (float, int, bool, str)."""
    if key not in config:
        if required:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    raw = config.pop(key)
    try:
        if kind is bool:
            if isinstance(raw, bool):
                return raw
            lowered = str(raw).strip().lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}") from exc


def reject_unknown(config: dict, context: str) -> None:
    if config:
        raise ConfigError(f"unknown config keys for {context}: {sorted(config)}")
