"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD CONFIG SPAWN_TIME [--trace]

``SPAWN_TIME`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up covers interpreter start-up, importing levikit and
loading the config.  The run itself is ``cli.run_command`` with every cache
cold.  Both are timed on the wall clock and rescaled to a reference CPU
speed with ``speed.py``: set-up by kernel samples taken during and right
after it, the run by samples taken during it (an untraced run) or right
around it (a traced run, so that the probe adds nothing to any span).  The known-answer
checks, ``verify_report`` and the report hashes come after the timed
region.  The last line printed is one JSON object.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

from speed import SETUP_INTERVAL_S, SpeedProbe, edge_samples, rescale

SETUP_PROBE = SpeedProbe(SETUP_INTERVAL_S).start()

from levikit import cli, expr  # noqa: E402
from levikit import report as rep  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def judge(workload_name: str, report: dict, cfg: dict) -> tuple[list, int]:
    """Why a report is wrong (known-answer and verify failures), and how
    many certificates ``verify_report`` re-checked."""
    failures = list(WORKLOADS[workload_name].check(report, cfg))
    verified = rep.verify_report(report)
    if not verified.passed:
        failures.append(f"verify_report failed: {list(verified.failures[:3])}")
    return failures, verified.checked


def repetition(workload_name: str, config_path: str, spawn_time: float,
               trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    tracer = None
    if trace:
        SETUP_PROBE.stop()  # its ticks would land in the spans
        from tracing import Tracer  # only traced runs pay for importing it

        tracer = Tracer()
        tracer.install()
    cfg = cli.load_config_file(config_path)
    setup_wall_s = time.monotonic() - spawn_time
    if not trace:
        SETUP_PROBE.stop()
    setup_wall_s -= SETUP_PROBE.spent_s
    before = edge_samples()

    if trace:
        start = time.perf_counter()
        report, _code = cli.run_command(workload.command, dict(cfg))
        run_wall_s = time.perf_counter() - start
        during = []
    else:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            report, _code = cli.run_command(workload.command, dict(cfg))
            run_wall_s = time.perf_counter() - start - probe.spent_s
        during = probe.samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = edge_samples()
    run_s = rescale(run_wall_s, during + before + after)

    canonical = rep.canonical_bytes(report)
    failures, checked = judge(workload_name, report, cfg)
    out = {"setup_s": rescale(setup_wall_s, SETUP_PROBE.samples + before),
           "run_s": run_s,
           "setup_wall_s": setup_wall_s, "run_wall_s": run_wall_s,
           "kernel_s": {"setup": SETUP_PROBE.samples, "before": before,
                        "during": during, "after": after},
           "peak_rss_mb": peak_rss_mb,
           "canonical_sha256": _sha256(canonical),
           "records_sha256": _sha256(json.dumps(
               report["records"], sort_keys=True).encode()),
           "failures": failures}
    if tracer is not None:
        layers = tracer.metrics()
        info = expr._wirt.cache_info()
        lookups = info.hits + info.misses
        layers["expr.wirt_cache.hit_ratio"] = info.hits / lookups if lookups else 0.0
        layers["report.records"] = float(len(report["records"]))
        layers["report.verify_report.checked"] = float(checked)
        layers.update(_outcome_counts(report))
        layers["trace.unattributed_s"] = (run_wall_s
                                          - layers.pop("run_window_self_s"))
        out["layers"] = layers
    return out


def _outcome_counts(report: dict) -> dict:
    """Useful and wasted work read from the report's records; 0 where the
    command has no such outcome."""
    out = {"classify.skip_ratio": 0.0, "classify.violations": 0.0,
           "hulls.outside_ratio": 0.0}
    aggregate = [r for r in report["records"] if r["key"] == "aggregate"]
    if aggregate and "skipped" in aggregate[0]:
        agg = aggregate[0]
        out["classify.skip_ratio"] = agg["skipped"] / max(agg["tested"] + agg["skipped"], 1)
        out["classify.violations"] = float(agg["violations"])
    queries = [r for r in report["records"] if r["key"].startswith("query-")]
    if queries:
        outside = sum(r["verdict"] == "Outside" for r in queries)
        out["hulls.outside_ratio"] = outside / len(queries)
    return out


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or (len(argv) == 4 and argv[3] != "--trace"):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        out = repetition(argv[0], argv[1], float(argv[2]), len(argv) == 4)
    except Exception:  # the parent counts this repetition as failed
        out = {"error": traceback.format_exc(limit=4)}
        print(json.dumps(out))
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
