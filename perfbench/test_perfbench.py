"""Tests of the benchmark itself: smoke passes at coarse levels, metric
naming, the self-time accounting of the tracer, and the refusal to run
without the package source.

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_metric_names_and_units():
    declared = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for m in declared:
        assert NAME.match(m["name"]), m["name"]
        assert UNIT.match(m["unit"]), m["unit"]
    for w in SPEC["workloads"]:
        assert NAME.match(w["name"]), w["name"]
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == tracing.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    printed = {line.split()[1]: line.split()[3] for line in lines
               if line.startswith("metric ")}
    assert printed == {m["name"]: m["unit"] for m in declared}
    if trace:
        values = {n: v["value"] for n, v in result["metrics"].items()}
        layer_sum = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
        assert 0.0 < layer_sum <= values["trace.pass_s"]
        assert values["trace.spans"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_self_times_subtract_direct_children():
    spans = [("verify.run_suite", 0.0, 10.0, None, 0),
             ("steklov.dtn_matrix", 1.0, 7.0, 0, 0),
             ("feec.mass_matrix", 2.0, 3.0, 1, 0),
             ("mesh.generate", 8.0, 9.5, 0, 0)]
    assert tracing.self_times(spans) == [2.5, 5.0, 1.0, 1.5]


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("verify-plane", 0, cwd=tmp_path,
                script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
