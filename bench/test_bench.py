"""Smoke test of the benchmark at ``--smoke`` size (about 10 s).

Run with ``PYTHONPATH=src python -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from repro.service import ServiceClient  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke", "--seed", "0", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def assert_reported(proc, result, metrics) -> None:
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        for metric in metrics:
            reported = result["metrics"][f"{workload}/{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            assert isinstance(reported["value"], (int, float))
            line = f"{workload:14} {metric['name']:28} "
            assert any(
                row.startswith(line) and row.endswith(" " + metric["unit"])
                for row in proc.stdout.splitlines()
            ), line


def test_every_end_to_end_metric_is_printed_with_its_unit():
    proc, result = smoke()
    assert_reported(proc, result, SPEC["end_to_end"])


def test_trace_run_reports_layers_and_renders(tmp_path):
    trace = tmp_path / "trace.jsonl"
    proc, result = smoke("--trace", str(trace))
    assert_reported(proc, result, SPEC["per_layer"])
    report = subprocess.run(
        [sys.executable, "-m", "repro", "trace-report", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert report.returncode == 0, report.stderr
    for workload in WORKLOADS:
        assert f"op.{workload}" in report.stdout


def test_corrupted_parent_array_counts_as_failed(monkeypatch, capsys):
    call = ServiceClient._call

    def corrupting_call(self, payload):
        reply = call(self, payload)
        if "parent" in reply:
            reply["parent"][1] = 1  # a second self-loop: not a tree
        return reply

    monkeypatch.setattr(ServiceClient, "_call", corrupting_call)
    code = run.main(["--smoke", "--workload", "serve-fetch", "--seed", "0"])
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    share = next(r for r in out if r.startswith("serve-fetch    failed_share"))
    assert code == 1
    assert result["failed"] > 0 and not result["correct"]
    assert float(share.split()[2]) > 0
