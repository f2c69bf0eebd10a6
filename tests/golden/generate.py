"""Golden byte gate: small seeded cases over every command and the library.

Each case runs one CLI command through ``run_command`` (or one library call)
and is summarised by the sha256 of its canonical report bytes, its exit
code, the outcome of ``verify`` on the report read back from JSON, a short
verdict and its record count.  ``tests/test_golden.py`` re-runs every case
and compares with ``golden.json``: exactly when the installed numpy is the
one the file was made with, otherwise only verdicts, exit codes and
``verify`` outcomes, since other numpy versions may round the last bits
differently.

A change that is meant to alter bytes regenerates the file from the
repository root, and names each changed case with its reason:

    PYTHONPATH=src python3 tests/golden/generate.py
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

from levikit import classify as cl
from levikit import domains as dom
from levikit import report as rep
from levikit.cli import load_config_file, run_command
from levikit.errors import LevikitError
from levikit.sampling import unit_vector

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")
ROOT = os.path.dirname(os.path.dirname(HERE))

E = math.e
ORIGIN2 = [[0.0, 0.0], [0.0, 0.0]]
BALL2 = {"variant": "ball", "dimension": 2, "center": ORIGIN2, "radius": 1.0}
BALL3 = {"variant": "ball", "dimension": 3,
         "center": [[0.2, 0.0], [0.0, -0.1], [0.0, 0.0]], "radius": 1.5}
POLYDISC = {"variant": "polydisc", "dimension": 2, "center": ORIGIN2,
            "radii": [1.0, 2.0]}
HARTOGS = {"variant": "reinhardt_union", "dimension": 2,
           "members": [{"radii": [E, E ** 2]}, {"radii": [E ** 2, E]}]}
SQUARE_UNION = {"variant": "reinhardt_union", "dimension": 2,
                "members": [{"radii": [1.0, 2.0]}]}
SPHERE = {"variant": "sublevel", "dimension": 2,
          "expression": "abs2(z1) + abs2(z2) - 1", "level": 0.0,
          "box_center": ORIGIN2, "box_radii": [1.5, 1.5],
          "interior_hint": ORIGIN2}
QUARTIC3 = {"variant": "sublevel", "dimension": 3,
            "expression": "abs2(z1)^2 + abs2(z2)^2 + abs2(z3) - 1", "level": 0.0,
            "box_center": [[0.0, 0.0]] * 3, "box_radii": [1.5, 1.5, 1.5],
            "interior_hint": [[0.0, 0.0]] * 3}
QUARTIC = {**SPHERE, "expression": "abs2(z1)^2 + abs2(z2)^2 - 1",
           "box_radii": [1.0, 1.0]}
SPHERE_NO_HINT = {k: v for k, v in SPHERE.items() if k != "interior_hint"}
# not pseudoconvex: the Levi form restricted to the tangent space changes sign
MIXTURE = {"variant": "sublevel", "dimension": 2,
           "expression": "abs2(z1) - abs2(z2) + abs2(z2)^2 - 0.1", "level": 0.0,
           "box_center": ORIGIN2, "box_radii": [1.0, 1.2],
           "interior_hint": ORIGIN2}
# not Reinhardt: the last term depends on the phases, so its distances
# stay on the sampled foot-point path
PSH_SUM = {"variant": "sublevel", "dimension": 2,
           "expression": "abs2(z1) + abs2(z2) + abs2(z1*z2 + 0.5*z1^2) - 1",
           "level": 0.0, "box_center": ORIGIN2, "box_radii": [1.0, 1.0],
           "interior_hint": ORIGIN2}
# C^2 minus the closed unit ball
COMPLEMENT = {"variant": "sublevel", "dimension": 2,
              "expression": "1 - abs2(z1) - abs2(z2)", "level": 0.0}
INTERSECTION = {"variant": "intersection", "dimension": 2,
                "members": [BALL2, {"variant": "polydisc", "dimension": 2,
                                    "center": [[0.3, 0.0], [0.0, 0.0]],
                                    "radii": [0.9, 0.8]}]}
WHOLE = {"variant": "whole_space", "dimension": 2}
POLYDISC_OFF = {"variant": "polydisc", "dimension": 2,
                "center": [[0.5, -0.25], [-1.0, 0.3]], "radii": [1.0, 0.7]}
REINHARDT3 = {"variant": "reinhardt_union", "dimension": 2,
              "members": [{"radii": [1.0, 3.0]}, {"radii": [2.0, 2.0]},
                          {"radii": [3.0, 0.5]}]}

HULL_POINTS = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.2],
               [0.3, 0.7], [1.2, 0.5], [-0.2, 0.4]]
HULL_QUERIES = [[0.5, 0.5], [2.0, 2.0], [-1.0, 0.3], [1.2, 0.5], [0.6, 1.4]]
CIRCLE_POINTS = [[[math.cos(t), math.sin(t)]]
                 for t in (2 * math.pi * k / 7 for k in range(7))]


def _cli(command, cfg):
    return ("cli", command, cfg)


def _shipped(command, name):
    return _cli(command, load_config_file(os.path.join(ROOT, "configs", name)))


CLI_CASES = {
    # the shipped configs, as read from configs/
    "shipped-ball-classify": _shipped("classify", "ball_classify.yaml"),
    "shipped-hull-affine": _shipped("hull", "hull_affine.yaml"),
    "shipped-hull-polynomial": _shipped("hull", "hull_polynomial.yaml"),
    "shipped-quartic-classify": _shipped("classify", "quartic_classify.yaml"),
    "shipped-hartogs-log-distance": _shipped("log-distance-probe",
                                             "hartogs_log_distance.yaml"),
    "shipped-ball-log-distance": _shipped("log-distance-probe",
                                          "ball_log_distance.yaml"),
    "shipped-hartogs-reinhardt": _shipped("reinhardt", "hartogs_reinhardt.yaml"),
    "shipped-polydisc-exhaustion": _shipped("exhaustion", "polydisc_exhaustion.yaml"),
    "shipped-psh-circle": _shipped("psh-test", "psh_circle.yaml"),
    "shipped-psh-spectral": _shipped("psh-test", "psh_spectral.yaml"),
    "shipped-quartic-log-distance": _shipped("log-distance-probe",
                                             "quartic_log_distance.yaml"),
    "shipped-quartic-mixed-log-distance": _shipped("log-distance-probe",
                                                   "quartic_mixed_log_distance.yaml"),
    "shipped-intersection-log-distance": _shipped("log-distance-probe",
                                                  "intersection_log_distance.yaml"),
    "shipped-complement-disc-probe": _shipped("disc-probe", "complement_disc_probe.yaml"),
    "shipped-psh-sum-classify": _shipped("classify", "psh_sum_classify.yaml"),
    "shipped-psh-sum-log-distance": _shipped("log-distance-probe",
                                             "psh_sum_log_distance.yaml"),
    "shipped-psh-sum-exhaustion": _shipped("exhaustion", "psh_sum_exhaustion.yaml"),
    # classify: every variant with a boundary sampler, a C^3 ball, a
    # non-convex sublevel domain, explicit tolerances and two errors
    "classify-ball-c3": _cli("classify", {"domain": BALL3, "samples": 12, "seed": 1}),
    "classify-polydisc": _cli("classify", {"domain": POLYDISC, "samples": 16,
                                           "seed": 2, "workers": 2}),
    "classify-sphere-sublevel": _cli("classify", {"domain": SPHERE, "samples": 10,
                                                  "seed": 0}),
    "classify-quartic-c3": _cli("classify", {"domain": QUARTIC3, "samples": 8,
                                             "seed": 0}),
    "classify-mixture-not-levi": _cli("classify", {"domain": MIXTURE, "samples": 24,
                                                   "seed": 3}),
    "classify-explicit-tolerances": _cli("classify", {"domain": SPHERE, "samples": 6,
                                                      "seed": 4, "tol_grad": "1e-8",
                                                      "tol_eig": 0}),
    "classify-intersection-unsupported": _cli("classify", {"domain": INTERSECTION,
                                                           "samples": 4}),
    "classify-unknown-key": _cli("classify", {"domain": BALL2, "samplez": 3}),
    # psh-test: both modes, violations in each, both metrics
    "psh-spectral-consistent": _cli("psh-test", {"domain": BALL2, "samples": 20,
                                                 "expression": "abs2(z1) + abs2(z2)"}),
    "psh-spectral-saddle": _cli("psh-test", {"domain": BALL2, "samples": 20, "seed": 1,
                                             "expression": "abs2(z1) - abs2(z2)"}),
    "psh-circle-violations": _cli("psh-test", {"domain": BALL2, "mode": "circle",
                                               "samples": 20, "quadrature": 16,
                                               "expression": "re(z1)^2 - abs2(z2)"}),
    "psh-circle-polydisc-linfty": _cli("psh-test", {"domain": POLYDISC, "mode": "circle",
                                                    "samples": 15, "metric": "linfty",
                                                    "expression": "abs2(z1) + ln(1 + abs2(z2))"}),
    "psh-circle-ball-c3-euclidean": _cli("psh-test", {"domain": BALL3, "mode": "circle",
                                                      "samples": 10, "seed": 5,
                                                      "metric": "euclidean",
                                                      "expression": "-abs2(z1 + z3)",
                                                      "tol": 1e-6}),
    "psh-circle-whole-space": _cli("psh-test", {"domain": WHOLE, "mode": "circle",
                                                "samples": 8, "quadrature": 8,
                                                "expression": "exp(re(z1)) - abs2(z2)"}),
    "psh-circle-sphere-sublevel": _cli("psh-test", {"domain": SPHERE, "mode": "circle",
                                                    "samples": 3, "quadrature": 8,
                                                    "expression": "-abs2(z1)"}),
    "psh-bad-mode": _cli("psh-test", {"domain": BALL2, "mode": "radial",
                                      "expression": "abs2(z1)"}),
    # log-distance-probe: all closed-form variants under both metrics, the
    # Hartogs figure with violations, modulus-space sublevel distances under
    # both metrics, and the sampled distance of a sublevel domain that is
    # not Reinhardt
    "logdist-hartogs-euclidean": _cli("log-distance-probe",
                                      {"domain": HARTOGS, "metric": "euclidean",
                                       "trials": 150, "seed": 1}),
    # 2000 trials find a violation on 19 of seeds 0-19
    "logdist-hartogs-linfty-seed3": _cli("log-distance-probe",
                                         {"domain": HARTOGS, "trials": 2000, "seed": 3}),
    "logdist-ball-euclidean": _cli("log-distance-probe", {"domain": BALL2, "trials": 30}),
    "logdist-ball-c3-linfty": _cli("log-distance-probe", {"domain": BALL3, "trials": 20,
                                                          "metric": "linfty"}),
    "logdist-polydisc-linfty": _cli("log-distance-probe", {"domain": POLYDISC,
                                                           "trials": 30, "seed": 2}),
    "logdist-polydisc-euclidean": _cli("log-distance-probe",
                                       {"domain": POLYDISC, "trials": 20,
                                        "metric": "euclidean", "tol": "1e-9"}),
    "logdist-intersection": _cli("log-distance-probe", {"domain": INTERSECTION,
                                                        "trials": 20}),
    "logdist-square-union": _cli("log-distance-probe", {"domain": SQUARE_UNION,
                                                        "trials": 20}),
    "logdist-sphere-sublevel": _cli("log-distance-probe", {"domain": SPHERE,
                                                           "trials": 1}),
    "logdist-psh-sum-sublevel": _cli("log-distance-probe", {"domain": PSH_SUM,
                                                            "trials": 3}),
    "logdist-quartic-linfty": _cli("log-distance-probe", {"domain": QUARTIC,
                                                          "metric": "linfty",
                                                          "trials": 12, "seed": 1}),
    # reinhardt: a witness (with a seed the exact test ignores), a staircase
    # of three corners, a log-convex union, a domain of the wrong kind
    "reinhardt-hartogs-seed-ignored": _cli("reinhardt", {"domain": HARTOGS, "seed": 2}),
    "reinhardt-staircase-reinhardt3": _cli("reinhardt", {"domain": REINHARDT3}),
    "reinhardt-square-union": _cli("reinhardt", {"domain": SQUARE_UNION}),
    "reinhardt-ball-rejected": _cli("reinhardt", {"domain": BALL2}),
    # disc-probe: the three families, non-default index ranges, a family
    # that leaves the domain and a limit boundary that does
    "disc-hartogs-complement": _cli("disc-probe", {
        "domain": COMPLEMENT, "interior": 32, "boundary": 16,
        "disc_family": {"variant": "hartogs", "r": 1.0}}),
    "disc-hartogs-j3-7-ball": _cli("disc-probe", {
        "domain": {**BALL2, "radius": 2.0}, "interior": 24, "boundary": 12,
        "disc_family": {"variant": "hartogs", "r": 1.0, "j_min": 3, "j_max": 7}}),
    "disc-hartogs-leaves-domain": _cli("disc-probe", {
        "domain": {**BALL2, "radius": 2.0}, "interior": 16, "boundary": 8,
        "disc_family": {"variant": "hartogs", "r": 1.0, "j_min": 1, "j_max": 4}}),
    "disc-affine-sweep-hartogs": _cli("disc-probe", {
        "domain": HARTOGS, "interior": 24, "boundary": 12, "seed": 1,
        "disc_family": {"variant": "affine_sweep", "from_center": [[1, 0], [1, 0]],
                        "to_center": [[2, 0], [2, 0]], "direction": [[0.4, 0], [-0.4, 0]],
                        "radius": 1.0, "j_min": 2, "j_max": 6}}),
    "disc-affine-sweep-limit-exits": _cli("disc-probe", {
        "domain": BALL2, "interior": 16, "boundary": 16,
        "disc_family": {"variant": "affine_sweep", "from_center": ORIGIN2,
                        "to_center": [[0.9, 0], [0, 0]], "direction": [[0, 0], [1, 0]],
                        "radius": 0.5}}),
    "disc-exp-twisted-ball": _cli("disc-probe", {
        "domain": {**BALL2, "radius": 3.0}, "interior": 24, "boundary": 12,
        "disc_family": {"variant": "exp_twisted", "center": ORIGIN2,
                        "dir_primary": [[1, 0], [0, 0]], "dir_secondary": [[0, 0], [1, 0]],
                        "r": 0.8, "g_coefficients": [[0.1, 0], [0, 0.3], [0.2, 0]],
                        "j_min": 4, "j_max": 9}}),
    "disc-unknown-variant": _cli("disc-probe", {
        "domain": BALL2, "disc_family": {"variant": "spiral"}}),
    # hull: both kinds, inline points and a points file
    "hull-affine-inline": _cli("hull", {"kind": "affine", "is_complex": False,
                                        "points": HULL_POINTS, "queries": HULL_QUERIES,
                                        "functionals": 60, "seed": 1}),
    "hull-affine-points-file": _cli("hull", {"kind": "affine", "is_complex": False,
                                             "dimension": 2, "points_file": HULL_POINTS,
                                             "queries": HULL_QUERIES, "functionals": 40}),
    "hull-polynomial-circle": _cli("hull", {"kind": "polynomial", "points": CIRCLE_POINTS,
                                            "queries": [[[0.2, 0.1]], [[1.3, 0.0]],
                                                        [[0.0, -1.1]]],
                                            "degree": 4, "random_count": 3, "seed": 2}),
    "hull-polynomial-c2": _cli("hull", {"kind": "polynomial",
                                        "points": [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                                   [[0, 1], [0, -1]], [[0.5, 0], [0.5, 0]]],
                                        "queries": [[[0.2, 0], [0.1, 0]],
                                                    [[1.5, 0], [1.5, 0]]],
                                        "degree": 3}),
    # exhaustion: the point paths of every variant under both metrics, both
    # built-in functions and user expressions
    "exhaustion-ball-canonical": _cli("exhaustion", {"domain": BALL3, "sequences": 3,
                                                     "steps": 20}),
    "exhaustion-polydisc-norm-squared": _cli("exhaustion", {
        "domain": POLYDISC, "function": "norm-squared", "sequences": 3}),
    "exhaustion-polydisc-linfty": _cli("exhaustion", {"domain": POLYDISC, "sequences": 3,
                                                      "metric": "linfty", "seed": 4}),
    "exhaustion-reinhardt-canonical": _cli("exhaustion", {"domain": HARTOGS,
                                                          "sequences": 4, "seed": 1}),
    "exhaustion-whole-space": _cli("exhaustion", {"domain": WHOLE, "sequences": 3,
                                                  "steps": 12}),
    "exhaustion-sphere-expression": _cli("exhaustion", {
        "domain": SPHERE, "sequences": 2, "steps": 12,
        "function": "-ln(1 - abs2(z1) - abs2(z2))"}),
    "exhaustion-reinhardt-expression": _cli("exhaustion", {
        "domain": HARTOGS, "function": "abs2(z1)", "sequences": 2}),
    "exhaustion-ball-linfty": _cli("exhaustion", {"domain": BALL3, "sequences": 3,
                                                  "metric": "linfty", "seed": 2}),
    "exhaustion-polydisc-off-centre": _cli("exhaustion", {"domain": POLYDISC_OFF,
                                                          "sequences": 4, "seed": 2}),
    "exhaustion-reinhardt3-canonical": _cli("exhaustion", {"domain": REINHARDT3,
                                                           "sequences": 6, "seed": 5}),
    "exhaustion-reinhardt3-norm-squared": _cli("exhaustion", {
        "domain": REINHARDT3, "function": "norm-squared", "sequences": 3, "seed": 6}),
    "exhaustion-ball-expression": _cli("exhaustion", {
        "domain": BALL2, "sequences": 3, "steps": 20, "seed": 1,
        "function": "-ln(1 - abs2(z1) - abs2(z2))"}),
    "exhaustion-polydisc-expression": _cli("exhaustion", {
        "domain": POLYDISC_OFF, "sequences": 3, "steps": 16, "seed": 3,
        "function": "abs2(z1) + abs2(z2)"}),
    # derivative-selftest
    "selftest-small": _cli("derivative-selftest", {"samples": 3, "seed": 1}),
}


def _points(n, seed, scale):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal((6, n)) + 1j * rng.standard_normal((6, n)))


# library cases return (data to hash, verdict, record count)

def _boundary(spec, count, seed):
    samples = dom.boundary_sample(dom.domain_from_dict(spec), count, seed)
    data = {"samples": [vars(s) for s in samples.samples],
            "skipped_rays": samples.skipped_rays}
    return (data, f"{len(samples)} samples, {samples.skipped_rays} skipped rays",
            len(samples))


def _distances(spec, seed, scale):
    d = dom.domain_from_dict(spec)
    rows = []
    for z in _points(d.dimension, seed, scale):
        row = []
        for metric in (dom.EUCLIDEAN, dom.LINFTY):
            try:
                row.append(dom.signed_distance(d, z, metric))
            except LevikitError as err:
                row.append(f"{type(err).__name__}: {err}")
        rows.append(row)
    # per point: e = error, + = outside, - = inside, 0 = on the boundary
    signs = "".join("e" if isinstance(r[0], str) else "+" if r[0] > 0
                    else "-" if r[0] < 0 else "0" for r in rows)
    return rows, f"signs {signs}", len(rows)


def _classification(spec, samples, seed):
    result = cl.classify_domain(dom.domain_from_dict(spec), samples, seed)
    data = {"verdicts": [vars(v) for v in result.verdicts], "counts": result.counts}
    return data, result.domain_verdict, len(result.verdicts)


def _interior(spec, count, seed):
    points = dom.interior_sample(dom.domain_from_dict(spec), count, seed)
    return points, f"{len(points)} interior points", len(points)


def _circle_deficits(spec, metric, seed):
    """Raw deficits of -ln d at seeded (centre, direction, radius) triples,
    at quadratures 64 and 8; radii run up to 1.5 times the local distance,
    so some circles leave the domain and record the error's class."""
    d = dom.domain_from_dict(spec)
    f = cl.neg_log_distance(d, metric)
    rng = np.random.default_rng(seed)
    rows = []
    for a in d.interior_sample(25, rng):
        direction = unit_vector(rng, d.dimension)
        r = dom.distance_to_boundary(d, a, metric) * rng.uniform(0.01, 1.5)
        row = [a, direction, r]
        for quadrature in (64, 8):
            try:
                row.append(cl.circle_average_deficit(f, a, direction, r, quadrature))
            except LevikitError as err:
                row.append(type(err).__name__)
        rows.append(row)
    left = sum(isinstance(row[3], str) for row in rows)
    return rows, f"{len(rows)} triples, {left} circles leave the domain", len(rows)


def _lib(fn, *args):
    return ("lib", fn, args)


LIBRARY_CASES = {
    "lib-boundary-ball-c3": _lib(_boundary, BALL3, 6, 0),
    "lib-boundary-polydisc": _lib(_boundary, POLYDISC, 8, 1),
    "lib-boundary-sphere-sublevel": _lib(_boundary, SPHERE, 8, 2),
    "lib-boundary-mixture": _lib(_boundary, MIXTURE, 8, 0),
    "lib-distance-ball-c3": _lib(_distances, BALL3, 0, 0.8),
    "lib-distance-polydisc": _lib(_distances, POLYDISC, 1, 0.8),
    "lib-distance-hartogs": _lib(_distances, HARTOGS, 2, 3.0),
    "lib-distance-sphere-sublevel": _lib(_distances, SPHERE, 3, 0.5),
    "lib-distance-quartic-c3": _lib(_distances, QUARTIC3, 4, 0.4),
    "lib-distance-intersection": _lib(_distances, INTERSECTION, 5, 0.6),
    "lib-classify-sphere-sublevel": _lib(_classification, SPHERE, 6, 1),
    "lib-classify-polydisc": _lib(_classification, POLYDISC, 6, 2),
    "lib-classify-mixture": _lib(_classification, MIXTURE, 10, 3),
    # the rejection sampler and the sublevel interior point without a hint
    "lib-interior-polydisc": _lib(_interior, POLYDISC, 40, 0),
    "lib-interior-hartogs": _lib(_interior, HARTOGS, 40, 1),
    "lib-interior-intersection": _lib(_interior, INTERSECTION, 40, 2),
    "lib-interior-sphere-sublevel": _lib(_interior, SPHERE, 40, 3),
    "lib-boundary-sphere-no-hint": _lib(_boundary, SPHERE_NO_HINT, 6, 4),
    # circle means of -ln d, bit for bit: about 150 triples
    "lib-deficit-hartogs-linfty": _lib(_circle_deficits, HARTOGS, dom.LINFTY, 0),
    "lib-deficit-hartogs-euclidean": _lib(_circle_deficits, HARTOGS, dom.EUCLIDEAN, 1),
    "lib-deficit-polydisc-linfty": _lib(_circle_deficits, POLYDISC, dom.LINFTY, 2),
    "lib-deficit-intersection": _lib(_circle_deficits, INTERSECTION, dom.EUCLIDEAN, 3),
    "lib-deficit-ball-euclidean": _lib(_circle_deficits, BALL2, dom.EUCLIDEAN, 4),
    "lib-deficit-ball-c3-linfty": _lib(_circle_deficits, BALL3, dom.LINFTY, 5),
}

CASES = {**CLI_CASES, **LIBRARY_CASES}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run_cli(command, cfg):
    cfg = copy.deepcopy(cfg)
    with tempfile.TemporaryDirectory() as tmp:
        # a points_file given as rows is written to a file first; the report
        # echoes the points, not the path
        if isinstance(cfg.get("points_file"), list):
            path = os.path.join(tmp, "points.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("# x, y\n")
                fh.writelines(",".join(map(repr, p)) + "\n" for p in cfg["points_file"])
            cfg["points_file"] = path
        try:
            report, code = run_command(command, cfg)
        except LevikitError as err:
            message = f"error: {err}"
            return {"sha256": _sha(message.encode()), "exit_code": 1,
                    "verify": None, "verdict": message, "records": 0}
    result = rep.verify_report(json.loads(rep.report_bytes(report)))
    return {"sha256": _sha(rep.canonical_bytes(report)), "exit_code": code,
            "verify": [result.passed, result.checked],
            "verdict": report["summary"], "records": len(report["records"])}


def _run_lib(fn, args):
    data, verdict, records = fn(*args)
    text = json.dumps(rep.to_jsonable(data), sort_keys=True)
    return {"sha256": _sha(text.encode()), "exit_code": None, "verify": None,
            "verdict": verdict, "records": records}


def run_case(name: str) -> dict:
    kind, *spec = CASES[name]
    return _run_cli(*spec) if kind == "cli" else _run_lib(*spec)


def main() -> int:
    cases = {name: run_case(name) for name in CASES}
    with open(GOLDEN, encoding="utf-8") as fh:
        old = json.load(fh)["cases"]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"numpy": np.__version__, "cases": cases}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(cases)} cases to {GOLDEN}", file=sys.stderr)
    for name in sorted(cases):
        if old.get(name) != cases[name]:
            print(f"{'new' if name not in old else 'changed'}: {name}", file=sys.stderr)
    for name in sorted(set(old) - set(cases)):
        print(f"removed: {name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
