"""Tiny-scale smoke test of the benchmark, outside the tier-1 suite.

    python3 -m pytest perfbench -q

Runs every workload at toy size, traced and untraced, and checks that the
result line is well formed and names every metric ``BENCHMARK.json``
declares.  Also checks that a layer the tracer no longer reaches fails
the run instead of reading as a speed-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reports_every_metric(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "evaluate-w31", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_unreached_layer_fails(tmp_path):
    """The density layer still runs, but no longer through the wrapped name."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "cdwsd" / "disambiguator.py"
    source = module.read_text(encoding="utf-8")
    assert "score_candidates(t, lattice" in source
    module.write_text(
        source.replace("score_candidates(t, lattice", "_score(t, lattice")
        + "\n_score = score_candidates\n",
        encoding="utf-8",
    )
    proc = _bench(tmp_path, "evaluate-w31", 1)
    assert proc.returncode == 0, proc.stderr
    details, line = (json.loads(x) for x in proc.stdout.strip().splitlines()[-2:])
    assert not line["correct"] and line["failed"] >= 1
    assert any("density.score" in r.get("why", "") for r in details["runs"])
