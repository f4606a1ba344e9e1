"""Smoke test of the benchmark at n <= 4, so that it cannot rot.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import hittime.cli  # noqa: E402
import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
from check import check  # noqa: E402
from run import WORKLOADS  # noqa: E402
from workloads import generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _units(entries) -> dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in entries}


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    detail, result = harness.run(workload, 1, 0, trace, ROOT, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    spec = _units(SPEC["per_layer"] if trace else SPEC["end_to_end"])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == spec
    if not trace:
        assert detail["end_to_end"]["error_rate"] == {"value": 0.0, "unit": "ratio"}
        assert detail["latency_samples"]["samples"] == result["attempted"]


def test_counts_repeat_across_seeds():
    first = harness.run("query-fanout", 1, 0, True, ROOT, tiny=True)[1]["metrics"]
    second = harness.run("query-fanout", 2, 0, True, ROOT, tiny=True)[1]["metrics"]
    counts = [k for k, m in first.items() if m["unit"] in ("count", "ratio")]
    assert counts
    assert all(first[k]["value"] == second[k]["value"] for k in counts)
    assert first["hitting.solve_reuse"]["value"] == pytest.approx(1 / 24)


def test_tracer_restores_every_function():
    kernels = {name: getattr(np.linalg, name) for name in (*tracing.DECOMPOSITIONS, "norm")}
    solve = hittime.cli.solve_hitting
    detail, _ = harness.run("classical-chain", 1, 0, True, ROOT, tiny=True)
    assert detail["untraced_functions"] == [] and detail["counts_repeat"]
    assert hittime.cli.solve_hitting is solve
    assert all(getattr(np.linalg, name) is fn for name, fn in kernels.items())


def _answer(workload, label_prefix, tmp_path):
    requests = generate(workload, 7, str(tmp_path / workload), tiny=True).requests
    request = next(r for r in requests if r.label.startswith(label_prefix))
    _, code, out, err, error = harness.call(request.argv)
    assert check(request, code, out, err, error).ok
    return request, json.loads(out)


def test_checker_flags_a_perturbed_hit_answer(tmp_path):
    request, record = _answer("kraus-sweep", "hit kraus", tmp_path)
    record[0]["routes"]["mhtf"] *= 1.0 + 1e-4
    verdict = check(request, 0, json.dumps(record), "", None)
    assert not verdict.ok and verdict.correct == verdict.answers - 1


def test_checker_flags_a_perturbed_monte_carlo_mean(tmp_path):
    request, record = _answer("classical-chain", "classical mhtf mc", tmp_path)
    record["monte_carlo"]["mean"] += 6 * record["monte_carlo"]["std_error"]
    assert not check(request, 0, json.dumps(record), "", None).ok


def test_checker_flags_a_failed_request(tmp_path):
    request, _ = _answer("kraus-sweep", "validate", tmp_path)
    assert not check(request, 5, "", "error: numeric", None).ok
    assert not check(request, 0, "", "", "Traceback ...").ok


def test_known_defect_probe_is_reported():
    detail, result = harness.run("kraus-sweep", 1, 0, False, ROOT, tiny=True)
    assert [p["label"] for p in detail["known_defects"]] == ["hit two-state p=1e-07 direct"]
    assert result["attempted"] == detail["requests_per_pass"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
