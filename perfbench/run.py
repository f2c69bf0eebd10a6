"""levikit benchmark: one workload, end-to-end timings or a traced layer table.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a levikit checkout.  The workloads, and why each was
chosen, are described in ``perfbench/workloads.py`` and
``perfbench/README.md``; metric names, units and bounds are in
``BENCHMARK.json``.

Each repetition is a fresh interpreter (``perfbench/child.py``), because a
CLI user always starts with levikit's derivative-tree and boundary-point
caches empty.  Repetitions run one after another (a closed loop with one
client), cycling through the workload's seeded configs (one, or
``Workload.inputs``), until ``--seconds`` is spent and every config has
run at least twice, or once more than there are configs when that is more;
every end-to-end metric is the mean over the configs of the median over
each config's repetitions (``input_mean``).  Times are wall times
rescaled to a reference CPU speed measured during the repetition (see
``perfbench/speed.py``).  With ``--trace 1`` one more, traced, repetition
of the first config follows and the per-layer metrics are printed instead.

A repetition fails when it raises, gives a wrong known answer, fails
``verify_report``, or its canonical report bytes differ from the first
repetition's of the same config.  The last line printed is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 2
# no repetition starts after this many seconds, so a run ends within 180 s
START_LIMIT_S = 120.0
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _env() -> dict:
    """levikit is imported from the checkout's sources, never installed."""
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(workload: str, config: Path, trace: bool, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(config)]
    spawn_time = time.monotonic()
    cmd.append(repr(spawn_time))
    if trace:
        cmd.append("--trace")
    timeout = max(deadline - spawn_time, 1.0)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        record = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return record


def failed(record: dict, reference_sha: str | None) -> list:
    """Reasons a repetition counts as failed; empty when it passed."""
    if "error" in record:
        return [record["error"]]
    reasons = list(record["failures"])
    if reference_sha is not None and record["canonical_sha256"] != reference_sha:
        reasons.append("canonical report bytes differ from the first repetition")
    return reasons


def input_mean(records: list, key: str) -> float:
    """Mean over the configs of the median over each config's repetitions:
    the median keeps a slow repetition out, the mean weighs every seeded
    input alike."""
    inputs = sorted({r["input"] for r in records})
    return statistics.fmean(
        statistics.median(r[key] for r in records if r["input"] == i)
        for i in inputs)


def write_config(cfg: dict, path: Path) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True)
    return path


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    if not (ROOT / "src" / "levikit" / "__init__.py").is_file():
        raise BenchError(f"no levikit sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[name]
    began = time.monotonic()
    deadline = began + DEADLINE_S

    work = HERE / "_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cfgs = [workload.make_config(seed, ROOT, smoke, i)
                for i in range(workload.inputs)]
        configs = [write_config(cfg, work / f"config-{i}.yaml")
                   for i, cfg in enumerate(cfgs)]
        # at least one config repeats, so the determinism check has a pair
        min_reps = max(MIN_REPS, len(configs) + 1)
        # compile levikit's bytecode once, as an installed package has it
        warm = subprocess.run([sys.executable, "-c", "import levikit.cli"],
                              cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=60)
        if warm.returncode != 0:
            raise BenchError(f"cannot import levikit: {warm.stderr[-2000:]}")

        reps: list[dict] = []
        start = time.monotonic()
        while True:
            index = len(reps) % len(configs)
            reps.append(dict(spawn(name, configs[index], False, deadline),
                             input=index))
            elapsed = time.monotonic() - start
            per_rep = elapsed / len(reps)
            if len(reps) >= min_reps and elapsed + per_rep > seconds:
                break
            if time.monotonic() - began + per_rep > START_LIMIT_S:
                break

        gate = None
        if workload.worker_gate:
            # records must not depend on the worker count
            pooled = write_config(dict(cfgs[0], workers=2), work / "pooled.yaml")
            gate = spawn(name, pooled, False, deadline)
        traced = spawn(name, configs[0], True, deadline) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    timed = [r for r in reps if "error" not in r]
    if not timed:
        raise BenchError(f"every repetition raised: {reps[0]['error']}")
    reference = {}
    for r in timed:
        reference.setdefault(r["input"], r)
    problems = [failed(r, reference.get(r["input"], {}).get("canonical_sha256"))
                for r in reps]
    first = reference.get(0)
    if first is None:
        raise BenchError(f"every repetition of the first config raised: "
                         f"{reps[0]['error']}")
    base_run_s = statistics.median(r["run_s"] for r in timed if r["input"] == 0)
    if gate is not None:
        reasons = failed(gate, None)
        if not reasons and gate["records_sha256"] != first["records_sha256"]:
            reasons.append("records differ between workers: 1 and 2")
        problems.append(reasons)
    if traced is not None:
        problems.append(failed(traced, first["canonical_sha256"]))
    attempted = len(problems)
    n_failed = sum(1 for p in problems if p)

    if traced is not None:
        if "error" in traced:
            raise BenchError(f"traced repetition raised: {traced['error']}")
        values = dict(traced["layers"])
        values["trace.run_s"] = traced["run_s"]
        values["trace.overhead_ratio"] = traced["run_s"] / base_run_s
        values["sampling.pool_time_ratio"] = (
            gate["run_s"] / base_run_s
            if gate is not None and "error" not in gate else 0.0)
        values["error_rate"] = n_failed / attempted
        wanted = spec["per_layer"]
    else:
        values = {key: input_mean(timed, key)
                  for key in ("setup_s", "run_s", "peak_rss_mb")}
        wanted = spec["end_to_end"]

    for reasons in problems:
        for reason in reasons:
            print(f"FAILED: {reason}")
    print(f"{name} seed {seed}: {len(timed)} timed repetitions, "
          f"{len(cfgs)} config(s)")
    for key in ("run_s", "run_wall_s", "setup_s", "setup_wall_s"):
        print(f"  {key:13}", " ".join(f"{r[key]:.3f}" for r in timed))
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    return {"correct": n_failed == 0, "attempted": attempted,
            "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced input sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills the running repetition and
    # the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
