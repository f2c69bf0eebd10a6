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


def to_jsonable(obj):
    """Recursively convert numpy/complex values into plain JSON types."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, (np.complexfloating,)):
        obj = complex(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
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


def _verify_classify(report, failures):
    domain = dom.domain_from_dict(report["config"]["domain"])
    checked = 0
    for rec in report["records"]:
        if rec["key"].startswith("aggregate"):
            continue
        checked += 1
        point = _record_vector(rec, "point")
        if rec["verdict"] == cl.DEGENERATE:
            continue
        rederived = cl.verdict_from_spectrum(rec["eigenvalues"], rec["tol_eig"])
        if rederived != rec["verdict"]:
            failures.append((rec["key"], "verdict does not match stored spectrum"))
            continue
        fresh = cl.classify_point(domain.defining_expr(rec.get("face_index")),
                                  point, tol_grad=rec["tol_grad"],
                                  tol_eig=rec["tol_eig"])
        if fresh.verdict != rec["verdict"]:
            failures.append((rec["key"], "recomputed verdict differs"))
        elif fresh.eigenvalues and max(
                abs(a - b) for a, b in zip(fresh.eigenvalues, rec["eigenvalues"])
                ) > 1e-8 * (1.0 + abs(fresh.eigenvalues[0])):
            failures.append((rec["key"], "recomputed eigenvalues differ"))
    return checked


def _verify_psh(report, failures):
    cfg = report["config"]
    tol = cfg.get("tol", 1e-9)
    # reports written before quadrature was echoed used the default
    quadrature = cfg.get("quadrature", cl.DEFAULT_QUADRATURE)
    spectral = cfg.get("mode") == "spectral"
    if report["command"] == "log-distance-probe":
        f = cl.neg_log_distance(dom.domain_from_dict(cfg["domain"]), cfg["metric"])
    else:
        f = ex.parse(cfg["expression"], int(cfg["domain"]["dimension"]))
    checked = 0
    for rec in report["records"]:
        if not rec["key"].startswith("violation"):
            continue
        checked += 1
        point = _record_vector(rec, "point")
        if spectral:
            eigs = lc.levi_matrix(f, point).eigenvalues()
            if not eigs[0] < -tol:
                failures.append((rec["key"], "minimum eigenvalue no longer negative"))
        else:
            deficit = cl.circle_average_deficit(f, point,
                                                _record_vector(rec, "direction"),
                                                rec["radius"], quadrature)
            if not deficit > tol:
                failures.append((rec["key"], "circle-average deficit does not re-check"))
    return checked


def _verify_reinhardt(report, failures):
    domain = dom.domain_from_dict(report["config"]["domain"])
    checked = 0
    for rec in report["records"]:
        if not rec["key"].startswith("witness"):
            continue
        checked += 1
        p, q, mid = rec["p"], rec["q"], rec["midpoint"]
        if not rh.log_image_membership(domain, p):
            failures.append((rec["key"], "endpoint p left the log image"))
        elif not rh.log_image_membership(domain, q):
            failures.append((rec["key"], "endpoint q left the log image"))
        elif not rh.log_image_defect(domain, mid) > rh.WITNESS_TOL:
            failures.append((rec["key"], "midpoint defect does not re-check"))
        else:
            expected = [0.5 * (a + b) for a, b in zip(p, q)]
            if max(abs(m - e) for m, e in zip(mid, expected)) > 1e-12:
                failures.append((rec["key"], "midpoint is not the midpoint of p and q"))
    return checked


def _verify_disc_probe(report, failures):
    domain = dom.domain_from_dict(report["config"]["domain"])
    checked = 0
    for rec in report["records"]:
        if not rec["key"].startswith("violation"):
            continue
        checked += 1
        witness = _record_vector(rec, "witness")
        if dom.contains(domain, witness):
            failures.append((rec["key"], "limit point no longer fails membership"))
    return checked


def _verify_hull(report, failures):
    cfg = report["config"]
    if cfg["is_complex"]:
        pts = np.array([ex.point_from_pairs(row, f"config.points[{i}]")
                        for i, row in enumerate(cfg["points"])])
    else:
        pts = np.array(cfg["points"], dtype=float)
    checked = 0
    tol = cfg.get("tol", 1e-9)
    for rec in report["records"]:
        cert = rec.get("certificate")
        if rec.get("verdict") != "Outside":
            continue
        checked += 1
        if cert is None:
            failures.append((rec["key"], "Outside verdict without certificate"))
            continue
        if cert["kind"] == "affine":
            u = np.asarray(cert["direction"], dtype=float)
            b = cert["offset"]
            x = np.asarray(rec["query"], dtype=float)
            value = abs(float(u @ x) + b)
            norm_k = float(np.max(np.abs(pts.astype(float) @ u + b)))
        else:
            coeffs = ex.point_from_pairs(cert["coefficients"],
                                         f"{rec['key']}.certificate.coefficients")
            exps = [tuple(e) for e in cert["exponents"]]
            x = _record_vector(rec, "query")
            value = abs(complex(hulls._eval_poly(exps, coeffs,
                                                 x.reshape(1, -1))[0]))
            norm_k = float(np.max(np.abs(hulls._eval_poly(exps, coeffs, pts))))
        if not value > norm_k + tol:
            failures.append((rec["key"], "separation certificate does not re-check"))
    return checked


def _verify_exhaustion(report, failures):
    checked = 0
    for rec in report["records"]:
        if not rec["key"].startswith("sequence"):
            continue
        checked += 1
        # float() also decodes the "nan" that marks a too-short sequence
        rederived = exh.sequence_passed(float(rec["first"]), float(rec["final"]),
                                        rec["eventually_increasing"])
        if rec["passed"] != rederived:
            failures.append((rec["key"], "pass flag does not match stored values"))
    return checked


def _verify_selftest(report, failures):
    from .selftest import run_selftest
    cfg = report["config"]
    fresh = run_selftest(points_per_expr=cfg.get("samples", 50),
                         seed=cfg.get("seed", 0),
                         tolerance=cfg.get("tol", 1e-6))
    checked = 1
    if fresh.passed != (not report["has_witnesses"]):
        failures.append(("selftest", "re-run outcome differs from report"))
    return checked


_VERIFIERS = {
    "classify": _verify_classify,
    "psh-test": _verify_psh,
    "log-distance-probe": _verify_psh,
    "reinhardt": _verify_reinhardt,
    "disc-probe": _verify_disc_probe,
    "hull": _verify_hull,
    "exhaustion": _verify_exhaustion,
    "derivative-selftest": _verify_selftest,
}


def verify_report(report: dict) -> VerifyResult:
    """Re-check every embedded witness and certificate through the
    originating module; vacuously passes when there is nothing to check."""
    command = report.get("command")
    verifier = _VERIFIERS.get(command)
    if verifier is None:
        raise LevikitError(f"unknown command {command!r} in report")
    failures: list = []
    checked = verifier(report, failures)
    return VerifyResult(not failures, checked, tuple(failures))
