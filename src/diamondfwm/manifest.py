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


def make_manifest(command: str, bundle: ConfigBundle, preset: Optional[str] = None,
                  seed: Optional[int] = None, started: Optional[float] = None,
                  results: Optional[dict] = None, **args) -> dict:
    """The run record: command, config hash, preset, seed, version, wall
    time since ``started``, environment, each of ``args`` as arg_<name>,
    and the verdicts on the run's output in ``results``."""
    duration = None if started is None else time.perf_counter() - started
    doc = {"command": command, "config_hash": bundle_hash(bundle), "preset": preset,
           "seed": seed, "version": __version__, "duration_s": duration, "env": environment()}
    doc.update({f"arg_{k}": v for k, v in args.items()})
    doc.update(results or {})
    return doc


def write_csv(path, columns: dict, manifest: dict) -> Path:
    """Write named columns with the manifest as a comment header."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    names = list(columns)
    row = ",".join(["{:.17g}"] * len(names)) + "\n"
    rows = zip(*(np.asarray(columns[n]).tolist() for n in names))
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"# manifest: {json.dumps(manifest, sort_keys=True)}\n")
        fh.write(",".join(names) + "\n")
        fh.write("".join(row.format(*values) for values in rows))
    return path


def write_json(path, payload: dict, manifest: dict) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"manifest": manifest, **payload}
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
