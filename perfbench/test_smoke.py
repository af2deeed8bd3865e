"""Smoke test of the benchmark: every workload at a tiny size, traced and not.

Not part of the package's test suite (pytest collects `tests/` by default);
run it explicitly:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args, timeout=300):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload, trace, tmp_path):
    out = tmp_path / "bench.json"
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke", "--json-out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["metrics"] == result["metrics"]
    assert record["machine"]["blas_threads"] >= 1
    assert record["machine"]["src_lines"] > 0


def test_without_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "train-wide", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_traced_run_stops_on_missing_function(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import run
    import spans

    class Idle:
        clips_per_round = 0

        def setup(self):
            pass

        def round_ops(self, index):
            return []

    monkeypatch.setattr(spans, "FUNCTIONS",
                        spans.FUNCTIONS + [("pvae.dsp", "no_such_function", "dsp.none")])
    with pytest.raises(SystemExit, match="pvae.dsp.no_such_function"):
        run.run_traced(Idle(), 0.02)
