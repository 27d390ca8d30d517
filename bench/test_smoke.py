"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest bench/test_smoke.py

Each workload runs shrunk (``--tiny``) in a subprocess, once plain and
once traced; the result line must name every metric of BENCHMARK.json
with its unit, and the exact counts must repeat for the same seed.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).with_name("run.py")
ROOT = RUN.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("propagation.rk4_steps", "response.chi.elements", "optimize.evals",
         "propagation.transfer.points", "manifest.write.calls")


def bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd, text=True,
                          capture_output=True, timeout=600)


def result(workload, trace, seed=1):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return res["metrics"]


def check_names(metrics, spec):
    assert set(metrics) == {m["name"] for m in spec}
    for m in spec:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert math.isfinite(metrics[m["name"]]["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    metrics = result(workload, trace=0)
    check_names(metrics, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = result(workload, trace=1), result(workload, trace=1)
    check_names(first, SPEC["per_layer"])
    assert first["propagation.transfer.points"]["value"] > 0
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"]
    # every manifest carries the command's wall time, whose repr varies in length
    writes = first["manifest.write.calls"]["value"]
    assert abs(first["manifest.write.bytes"]["value"]
               - second["manifest.write.bytes"]["value"]) <= 24 * writes


def test_missing_layer_boundary_raises():
    sys.path.insert(0, str(RUN.parent))
    from tracing import Tracer

    with pytest.raises(AttributeError):
        Tracer().wrap(math, "no_such_helper", "layer")


def test_refuses_without_sources(tmp_path):
    shutil.copytree(RUN.parent, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert "no diamondfwm sources" in proc.stderr
    assert '"correct"' not in proc.stdout
