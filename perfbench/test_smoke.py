"""Smoke test of the benchmark itself, at reduced input sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a tampered report counts as a failed repetition, and the arithmetic of
the rescaled times and of the per-config aggregate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_printed_with_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_REPS
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())


def _report(name: str):
    from levikit import cli

    cfg = WORKLOADS[name].make_config(3, ROOT, True)
    report, _ = cli.run_command(WORKLOADS[name].command, dict(cfg))
    assert child.judge(name, report, cfg)[0] == []
    return report, cfg


def test_flipped_verdict_counts_as_failure():
    report, cfg = _report("psh-sum-classify")
    point = next(r for r in report["records"] if r["key"].startswith("point-"))
    point["verdict"] = "NotLeviPseudoconvex"
    assert child.judge("psh-sum-classify", report, cfg)[0]


def test_altered_hull_certificate_counts_as_failure():
    report, cfg = _report("hull-affine")
    rec = next(r for r in report["records"] if r.get("verdict") == "Outside")
    cert = rec["certificate"]
    # the functional now vanishes at the query, so it separates nothing
    cert["offset"] = -sum(u * x for u, x in zip(cert["direction"], rec["query"]))
    assert child.judge("hull-affine", report, cfg)[0]


def test_differing_report_bytes_count_as_failure():
    first = {"failures": [], "canonical_sha256": "a"}
    assert run.failed(first, "a") == []
    assert run.failed(dict(first, canonical_sha256="b"), "a")
    assert run.failed({"error": "boom"}, "a") == ["boom"]


def test_rescale_cancels_a_slow_cpu():
    from speed import KERNEL_REF_S, rescale

    # the same work at half speed: twice the wall time, twice the kernel time
    fast = rescale(1.0, [KERNEL_REF_S] * 4)
    slow = rescale(2.0, [2 * KERNEL_REF_S] * 4)
    assert fast == pytest.approx(1.0) and slow == pytest.approx(1.0)
    # half the time at each speed: the mean speed, not the mean kernel time
    assert rescale(1.5, [KERNEL_REF_S, 2 * KERNEL_REF_S]) == pytest.approx(1.125)


def test_input_mean_weighs_each_config_once():
    records = [{"input": 0, "run_s": 1.0}, {"input": 1, "run_s": 3.0},
               {"input": 0, "run_s": 1.2}, {"input": 0, "run_s": 9.0}]
    assert run.input_mean(records, "run_s") == pytest.approx((1.2 + 3.0) / 2)
