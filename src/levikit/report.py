"""Versioned JSON reports: assembly, canonical bytes, witness re-verification.

A report is reproducible from its embedded config: records are sorted by
key, floats keep full precision, and two runs with equal configs produce
byte-identical files apart from the wall-time field, which the canonical
form zeroes out.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import calculus as lc
from . import classify as cl
from . import domains as dom
from . import exhaustion as exh
from . import expr as ex
from . import hulls
from . import reinhardt as rh
from .errors import LevikitError

SCHEMA_VERSION = 1


_PLAIN = frozenset((str, int, bool, type(None)))


def to_jsonable(obj):
    """Recursively convert numpy/complex values into plain JSON types.

    Plain values, the ``_PLAIN`` types and finite floats, come back as they
    are; the comprehensions keep them inline and recurse for the rest only
    (``-inf < v < inf`` is ``math.isfinite`` for a float, without a call)."""
    # exact types first: np.float64 is a float subclass and takes the ladder
    kind = type(obj)
    if kind in _PLAIN or (kind is float and -math.inf < obj < math.inf):
        return obj
    if isinstance(obj, dict):
        return {str(k): v if type(v) in _PLAIN or (
                    type(v) is float and -math.inf < v < math.inf) else to_jsonable(v)
                for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [v if type(v) in _PLAIN or (
                    type(v) is float and -math.inf < v < math.inf) else to_jsonable(v)
                for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, (np.complexfloating,)):
        obj = complex(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def build_report(command: str, config: dict, records: list, summary: str,
                 has_witnesses: bool, wall_time_seconds: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": to_jsonable(config),
        "records": sorted((to_jsonable(r) for r in records),
                          key=lambda r: r["key"]),
        "summary": summary,
        "has_witnesses": bool(has_witnesses),
        "wall_time_seconds": float(wall_time_seconds),
    }


def report_bytes(report: dict) -> bytes:
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")


def canonical_bytes(report: dict) -> bytes:
    """Comparison form: identical runs agree on these bytes exactly."""
    stripped = dict(report)
    stripped["wall_time_seconds"] = 0.0
    return report_bytes(stripped)


def write_report(report: dict, path) -> None:
    with open(path, "wb") as fh:
        fh.write(report_bytes(report))


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    version = report.get("schema_version")
    if version != SCHEMA_VERSION:
        raise LevikitError(f"unsupported schema version {version!r}")
    return report


# ---------------------------------------------------------------------------
# witness re-verification

@dataclass(frozen=True)
class VerifyResult:
    passed: bool
    checked: int
    failures: tuple            # (record key, reason) pairs


def _record_vector(rec, field):
    return ex.point_from_pairs(rec[field], f"{rec['key']}.{field}")


def _keyed(prefix):
    return lambda report: [r for r in report["records"]
                           if r["key"].startswith(prefix)]


# Per command: the records that hold witnesses, and a factory that reads
# the report once and returns the per-record check (a failure reason, or
# None when the witness re-checks).

def _classify_check(report):
    domain = dom.domain_from_dict(report["config"]["domain"])
    # the records to re-classify, in one call: those before the first record
    # that cannot be read, whose check then raises its error
    stored = []
    for rec in _keyed("point")(report):
        try:
            point = _record_vector(rec, "point")
            if rec["verdict"] == cl.DEGENERATE or cl.verdict_from_spectrum(
                    rec["eigenvalues"], rec["tol_eig"]) != rec["verdict"]:
                continue
            stored.append((rec["key"], domain.defining_expr(rec.get("face_index")),
                           point, rec["tol_grad"], rec["tol_eig"]))
        except Exception:   # noqa: BLE001 - its own check raises it again
            break
    keys, fs, points, tol_grads, tol_eigs = zip(*stored) if stored else ((),) * 5
    fresh_of = dict(zip(keys, cl.classify_points(fs, points, tol_grads, tol_eigs)))

    def check(rec):
        point = _record_vector(rec, "point")
        if rec["verdict"] == cl.DEGENERATE:
            return None
        if cl.verdict_from_spectrum(rec["eigenvalues"], rec["tol_eig"]) != rec["verdict"]:
            return "verdict does not match stored spectrum"
        fresh = fresh_of.get(rec["key"]) or cl.classify_point(
            domain.defining_expr(rec.get("face_index")), point,
            tol_grad=rec["tol_grad"], tol_eig=rec["tol_eig"])
        if fresh.verdict != rec["verdict"]:
            return "recomputed verdict differs"
        if fresh.eigenvalues and max(
                abs(a - b) for a, b in zip(fresh.eigenvalues, rec["eigenvalues"])
                ) > 1e-8 * (1.0 + abs(fresh.eigenvalues[0])):
            return "recomputed eigenvalues differ"
        return None

    return check


def _psh_check(report):
    cfg = report["config"]
    tol = cfg.get("tol", 1e-9)
    if report["command"] == "log-distance-probe":
        f = cl.neg_log_distance(dom.domain_from_dict(cfg["domain"]), cfg["metric"])
    else:
        f = ex.parse(cfg["expression"], int(cfg["domain"]["dimension"]))
    if cfg.get("mode") == "spectral":
        # the records' Levi matrices from one call, by record (two may share
        # a key): those before the first record whose point cannot be read
        # or has another dimension, whose check then computes its own
        points, n = {}, int(cfg["domain"]["dimension"])
        for rec in _keyed("violation")(report):
            try:
                points[id(rec)] = ex.point_from_pairs(rec["point"], "point", n)
            except Exception:   # noqa: BLE001 - its own check raises it again
                break
        stack = lc.levi_matrices(f, np.array(list(points.values()))) if points else ((), ())
        levi = dict(zip(points, zip(*stack)))

        def check(rec):
            h, err = levi.get(id(rec)) or (lc.levi_matrix(f, _record_vector(rec, "point")), None)
            if err is not None:
                raise err
            return (None if np.linalg.eigvalsh(h)[0] < -tol
                    else "minimum eigenvalue no longer negative")
        return check
    # reports written before quadrature was echoed used the default
    quadrature = cfg.get("quadrature", cl.DEFAULT_QUADRATURE)

    def check(rec):
        deficit = cl.circle_average_deficit(f, _record_vector(rec, "point"),
                                            _record_vector(rec, "direction"),
                                            rec["radius"], quadrature)
        return None if deficit > tol else "circle-average deficit does not re-check"

    return check


def _reinhardt_check(report):
    domain = dom.domain_from_dict(report["config"]["domain"])
    return lambda rec: rh.witness_failure(domain, rec["p"], rec["q"],
                                          rec["midpoint"])


def _disc_check(report):
    domain = dom.domain_from_dict(report["config"]["domain"])

    def check(rec):
        if dom.contains(domain, _record_vector(rec, "witness")):
            return "limit point no longer fails membership"
        return None

    return check


def _hull_check(report):
    cfg = report["config"]
    points = hulls.decode_points(cfg["points"], cfg["is_complex"], "config.points")
    tol = cfg.get("tol", 1e-9)
    return lambda rec: hulls.certificate_failure(
        points, rec["query"], rec["certificate"], tol, rec["key"])


def _exhaustion_check(report):
    def check(rec):
        # a record written under the old first/final floor rule has no tail
        # fields, and its flag cannot be re-derived from the tail rule
        if "tail_rise" not in rec or "tail_approach" not in rec:
            return "record predates the tail rule"
        # float() also decodes the "nan" that marks a too-short sequence
        if rec["passed"] != exh.sequence_passed(float(rec["tail_rise"]),
                                                float(rec["tail_approach"]),
                                                rec["eventually_increasing"]):
            return "pass flag does not match stored values"
        return None

    return check


def _selftest_check(report):
    from .selftest import run_selftest
    cfg = report["config"]

    def check(rec):
        fresh = run_selftest(points_per_expr=cfg.get("samples", 50),
                             seed=cfg.get("seed", 0),
                             tolerance=cfg.get("tol", 1e-6))
        if fresh.passed != rec["passed"]:
            return "re-run outcome differs from report"
        return None

    return check


_CHECKS = {
    "classify": (_keyed("point"), _classify_check),
    "psh-test": (_keyed("violation"), _psh_check),
    "log-distance-probe": (_keyed("violation"), _psh_check),
    "reinhardt": (_keyed("witness"), _reinhardt_check),
    "disc-probe": (_keyed("violation"), _disc_check),
    "hull": (lambda report: [r for r in report["records"]
                             if r.get("verdict") == "Outside"], _hull_check),
    "exhaustion": (_keyed("sequence"), _exhaustion_check),
    # the self-test re-runs as a whole: its one witness is the report's outcome
    "derivative-selftest": (lambda report: [{"key": "selftest",
                                             "passed": not report["has_witnesses"]}],
                            _selftest_check),
}


def verify_report(report: dict) -> VerifyResult:
    """Re-check every embedded witness and certificate through the
    originating module; vacuously passes when there is nothing to check."""
    command = report.get("command")
    if command not in _CHECKS:
        raise LevikitError(f"unknown command {command!r} in report")
    select, make_check = _CHECKS[command]
    records = select(report)
    check = make_check(report)
    failures = []
    for rec in records:
        reason = check(rec)
        if reason is not None:
            failures.append((rec["key"], reason))
    return VerifyResult(not failures, len(records), tuple(failures))
