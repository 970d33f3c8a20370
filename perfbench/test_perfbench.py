"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The counters the tracer takes from the program's own work must repeat
exactly across two traced runs of the same workload and seed, because a
later change may rest a claim on them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

EXACT = ("games.iterations", "bounds.reports", "coding.codebooks", "coding.codewords")


def _traced_rep(workload: str, work: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "rep", "--root", str(HERE.parent),
         "--work", str(work), "--workload", workload, "--seed", "7", "--trace"],
        capture_output=True, text=True, timeout=170, env=dict(os.environ, **run.PINNED),
    )
    assert proc.returncode == 0, proc.stderr
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    assert rep["codes"] == [0] * len(rep["codes"])
    return rep["layers"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat(workload, tmp_path):
    first = _traced_rep(workload, tmp_path / "a")
    second = _traced_rep(workload, tmp_path / "b")
    exact = [k for k in first if k in EXACT or k.endswith("_calls")]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_self_time_excludes_children():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("coding.encode", inner)

    tracer.call("cli", outer)
    m = tracer.metrics()
    assert 0.015 <= m["coding.encode_s"] < 0.1
    assert 0.005 <= m["cli.self_s"] < m["coding.encode_s"]
    assert m["trace.wall_s"] == pytest.approx(m["cli.self_s"] + m["coding.encode_s"])


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "simulate",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
