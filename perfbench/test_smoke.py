"""Smoke test of the benchmark: every workload for a few steps, every metric
name emitted, and the correctness gate catching a wrong residue.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from cipherobs import encobs  # noqa: E402
from cipherobs.modring import ModMatrix  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"steps": 3, "setups": 1}
REPORTED = {  # end-to-end metrics of the full report, per kind of workload
    "enc": {"setup_s", "step_ms.p50", "step_ms.tail", "verdict_ms.p50",
            "steps_per_s", "peak_rss_mb", "fail_frac"},
    "audit": {"setup_s", "step_ms.p50", "steps_per_s", "peak_rss_mb",
              "fail_frac", "transcript_kb_per_step"},
}


def small_run(workload, trace):
    return run.run_workload(workload, seed=3, seconds=0, trace=trace, **SMALL)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    report, result = small_run(workload, trace)
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    for metric in result["metrics"].values():
        assert metric["value"] > 0
    if not trace:
        kind = run.WORKLOADS[workload]["kind"]
        assert set(report["metrics"]) == REPORTED[kind]
    else:
        assert 0.9 <= report["metrics"]["trace.coverage"]["value"] <= 1.0
    assert report["env"]["rng"] == run.WORKLOADS[workload]["rng"]


def test_wrong_residue_fails_the_gate(monkeypatch):
    disclose = encobs.disclose_residue
    calls = []

    def off_by_one_on_second_call(r1, params):
        out = disclose(r1, params)
        calls.append(out)
        if len(calls) == 2:
            entries = list(out.column_entries())
            entries[0] += 1
            out = ModMatrix.column(entries, out.modulus)
        return out

    monkeypatch.setattr(encobs, "disclose_residue", off_by_one_on_second_call)
    _, result = small_run("enc-n64", trace=0)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 3


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enc-n64",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
