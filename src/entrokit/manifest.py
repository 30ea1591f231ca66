"""Experiment manifests: enough provenance to reproduce every output byte.

A manifest records the tool version, the command, the full normalized
parameter set, the model document, the base seed, timestamps, the
interpreter, library and platform versions, and a digest of every emitted
file.  Timestamps and versions live only in the manifest itself; the CSV
outputs are pure functions of (model, params, seed), which is what the
reproducibility check exercises.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return "sha256:" + h.hexdigest()


@functools.cache
def _environment() -> dict[str, str]:
    """Python and numpy versions and the platform, read once per process."""
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "platform": platform.platform(),
    }


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: str, header: list[str], rows) -> None:
    """Deterministic CSV: repr floats, newline-terminated, LF endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, doc) -> None:
    """Deterministic JSON: indented, sorted keys, newline-terminated, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass
class ExperimentManifest:
    command: str
    params: dict
    base_seed: int
    model: dict | None = None
    model_file: str | None = None
    model_digest: str | None = None
    tool_version: str = __version__
    started_at: str = ""
    finished_at: str = ""
    outputs: dict[str, str] = field(default_factory=dict)

    def start(self) -> None:
        self.started_at = datetime.now(timezone.utc).isoformat()

    def finish(self) -> None:
        self.finished_at = datetime.now(timezone.utc).isoformat()

    def add_output(self, path: str) -> None:
        self.outputs[os.path.basename(path)] = sha256_file(path)

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "manifest.json")
        write_json(path, {**self.__dict__, "environment": _environment()})
        return path


def load_manifest(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
