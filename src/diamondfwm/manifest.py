"""Run manifests and output-file writing.

Every output file embeds (as a ``#`` comment header for CSV, or as a
``manifest`` key for JSON) enough metadata to reproduce the run: the
command, its arguments, the preset name or config hash, the seed and
the tool version.  Numeric CSV columns use 17 significant digits so
they round-trip exactly.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import ConfigBundle, bundle_hash


def environment() -> dict:
    """What a run's wall time depends on: Python and numpy versions and
    the core count (``os.cpu_count()``)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count()}


@dataclass(frozen=True)
class RunManifest:
    command: str
    config_hash: str
    preset: Optional[str] = None
    seed: Optional[int] = None
    version: str = __version__
    duration_s: Optional[float] = None
    args: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)   # verdicts on the run's output
    env: dict = field(default_factory=environment)

    def as_dict(self) -> dict:
        doc = {"command": self.command, "config_hash": self.config_hash,
               "preset": self.preset, "seed": self.seed, "version": self.version,
               "duration_s": self.duration_s, "env": self.env}
        doc.update({f"arg_{k}": v for k, v in sorted(self.args.items())})
        doc.update(sorted(self.results.items()))
        return doc

    def json_line(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


def make_manifest(command: str, bundle: ConfigBundle, preset: Optional[str] = None,
                  seed: Optional[int] = None, started: Optional[float] = None,
                  results: Optional[dict] = None, **args) -> RunManifest:
    duration = None if started is None else time.perf_counter() - started
    return RunManifest(command=command, config_hash=bundle_hash(bundle), preset=preset,
                       seed=seed, duration_s=duration, args=args, results=results or {})


def write_csv(path, columns: dict, manifest: RunManifest) -> Path:
    """Write named columns with the manifest as a comment header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    arrays = [np.asarray(columns[n]) for n in names]
    n_rows = len(arrays[0])
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# manifest: {manifest.json_line()}\n")
        fh.write(",".join(names) + "\n")
        for i in range(n_rows):
            fh.write(",".join(f"{a[i]:.17g}" for a in arrays) + "\n")
    return path


def write_json(path, payload: dict, manifest: RunManifest) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"manifest": manifest.as_dict(), **payload}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def read_csv(path):
    """Read back a CSV written by write_csv: (manifest dict, column dict)."""
    manifest = None
    with Path(path).open(encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    body = []
    for ln in lines:
        if ln.startswith("# manifest:"):
            manifest = json.loads(ln.split(":", 1)[1])
        elif ln and not ln.startswith("#"):
            body.append(ln)
    names = body[0].split(",")
    data = np.array([[float(v) for v in ln.split(",")] for ln in body[1:]])
    cols = {n: data[:, i] if data.size else np.array([]) for i, n in enumerate(names)}
    return manifest, cols
