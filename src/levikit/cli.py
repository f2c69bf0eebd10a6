"""Command-line front end: YAML configs in, versioned JSON reports out.

Exit codes: 0 = completed with no negative verdicts or witnesses,
2 = completed and the report embeds witnesses/certificates, 1 = error.
Reports are byte-identical across repeated runs of an equal config
(wall time excluded).  The ``workers`` key and ``--workers`` flag are
accepted and echoed for old configs; they have no effect.
"""

from __future__ import annotations

import argparse
import sys
import time

import yaml

from . import classify as cl
from . import discs
from . import domains as dom
from . import exhaustion as exh
from . import expr as ex
from . import hulls
from . import reinhardt as rh
from . import report as rep
from .errors import ConfigError, EvalDomainError, FamilyLeavesDomain, LevikitError
from .selftest import run_selftest

_COMMON_KEYS = {"seed", "out", "workers", "tol"}
_ALLOWED_KEYS = {
    "classify": _COMMON_KEYS | {"domain", "samples", "tol_grad", "tol_eig"},
    "psh-test": _COMMON_KEYS | {"domain", "expression", "mode", "samples",
                                "quadrature", "metric"},
    "log-distance-probe": _COMMON_KEYS | {"domain", "metric", "trials"},
    "reinhardt": _COMMON_KEYS | {"domain"},
    "disc-probe": _COMMON_KEYS | {"domain", "disc_family", "interior", "boundary"},
    "hull": _COMMON_KEYS | {"kind", "points", "points_file", "is_complex",
                            "dimension", "queries", "functionals", "degree",
                            "random_count"},
    "exhaustion": _COMMON_KEYS | {"domain", "function", "metric", "sequences",
                                  "steps"},
    "derivative-selftest": _COMMON_KEYS | {"samples"},
}


def load_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            # libyaml parses where PyYAML has it; PyYAML resolves the values
            data = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as err:
        raise ConfigError(f"config file is not valid YAML: {err}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _check_keys(command: str, cfg: dict) -> None:
    allowed = _ALLOWED_KEYS[command]
    for key in cfg:
        if key == "command":
            continue
        if key not in allowed:
            raise ConfigError(f"{key}: unknown key for command {command!r}")


def _require(cfg, key, path=None):
    if key not in cfg or cfg[key] is None:
        raise ConfigError(f"{path or key}: required field is missing")
    return cfg[key]


def _count(spec, key, default, minimum=1, path=None) -> int:
    """spec[key], or the default, as an integer of at least ``minimum``;
    ConfigError names the field ``path`` (default: the key) otherwise."""
    path = path or key
    value = spec.get(key, default)
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected an integer, got {value!r}") from None
    if number < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {number}")
    return number


def _real(spec, key, default, path=None):
    """spec[key], or the default: a number as given, a numeric string (YAML
    reads ``1e-9`` as one) as a float, null only where the default is null;
    ConfigError names the field ``path`` (default: the key) otherwise."""
    value = spec.get(key, default)
    if isinstance(value, (int, float)) or value is None is default:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path or key}: expected a number, got {value!r}") from None


def _check_common(cfg, tol=1e-9) -> tuple:
    """(seed, workers, tol): the keys every command accepts, read once as a
    seed numpy takes, a worker count and a numeric tolerance (a float)."""
    return (_count(cfg, "seed", 0, minimum=0), _count(cfg, "workers", 1),
            float(_real(cfg, "tol", tol)))


def _metric(cfg):
    """The ``metric`` key: euclidean, linfty, or None when it is absent."""
    metric = cfg.get("metric")
    if metric in (None, dom.EUCLIDEAN, dom.LINFTY):
        return metric
    raise ConfigError(f"metric: expected 'euclidean' or 'linfty', got {metric!r}")


def _domain(cfg) -> tuple:
    spec = _require(cfg, "domain")
    if not isinstance(spec, dict):
        raise ConfigError("domain: must be a mapping")
    try:
        d = dom.domain_from_dict(spec)
    except EvalDomainError:
        raise   # names its subexpression and point already
    except (KeyError, ValueError, LevikitError) as err:
        raise ConfigError(f"domain: {err}") from None
    return d, d.to_dict()


# ---------------------------------------------------------------------------
# per-command runners: config -> (records, summary, has_witnesses, echo)

def _run_classify(cfg):
    seed, workers, _ = _check_common(cfg)
    d, domain_echo = _domain(cfg)
    samples = _count(cfg, "samples", 200)
    tol_grad = _real(cfg, "tol_grad", None)
    tol_eig = _real(cfg, "tol_eig", None)
    result = cl.classify_domain(d, samples, seed, tol_grad=tol_grad,
                                tol_eig=tol_eig)
    records = []
    for i, (sample, pv) in enumerate(zip(result.boundary, result.verdicts)):
        rec = {"key": f"point-{i:04d}", **vars(pv), "source": sample.source}
        if sample.face_index is not None:
            rec["face_index"] = sample.face_index
        records.append(rec)
    records.append({"key": "aggregate", "domain_verdict": result.domain_verdict,
                    "counts": result.counts})
    n = len(result.verdicts)
    strict = result.counts[cl.STRICTLY_PSEUDOCONVEX]
    if result.domain_verdict == cl.STRICTLY_PSEUDOCONVEX:
        summary = f"strictly pseudoconvex at {strict}/{n} points"
    elif result.domain_verdict == cl.LEVI_ONLY:
        summary = f"Levi pseudoconvex at {n}/{n} points ({strict} strictly)"
    else:
        bad = result.counts[cl.NOT_LEVI]
        summary = (f"{result.domain_verdict}: {bad}/{n} points fail Levi "
                   f"pseudoconvexity")
    echo = {"domain": domain_echo, "samples": samples, "seed": seed,
            "workers": workers, "tol_grad": tol_grad, "tol_eig": tol_eig}
    return records, summary, result.counts[cl.NOT_LEVI] > 0, echo


def _psh_records(verdict: cl.PshVerdict):
    records = [{"key": f"violation-{i:04d}", **vars(v)}
               for i, v in enumerate(verdict.violations)]
    records.append({"key": "aggregate", "mode": verdict.mode,
                    "verdict": verdict.verdict, "tested": verdict.tested,
                    "skipped": verdict.skipped,
                    "violations": len(verdict.violations)})
    return records


def _run_psh_test(cfg):
    seed, workers, tol = _check_common(cfg)
    d, domain_echo = _domain(cfg)
    text = _require(cfg, "expression")
    f = ex.parse(text, d.dimension)
    mode = cfg.get("mode", "spectral")
    samples = _count(cfg, "samples", 200)
    quad = _count(cfg, "quadrature", cl.DEFAULT_QUADRATURE)
    metric = _metric(cfg)
    echo = {"domain": domain_echo, "expression": text, "mode": mode,
            "samples": samples, "seed": seed, "tol": tol, "workers": workers,
            "metric": metric}
    if mode == "spectral":
        verdict = cl.psh_test_spectral(f, d, samples, seed, tol=tol)
    elif mode == "circle":
        echo["quadrature"] = quad
        verdict = cl.psh_test_circle_average(f, d, samples, seed, tol=tol,
                                             quadrature=quad, metric=metric)
    else:
        raise ConfigError(f"mode: expected 'spectral' or 'circle', got {mode!r}")
    records = _psh_records(verdict)
    summary = (f"{verdict.verdict} by {verdict.mode} "
               f"({verdict.tested} tested, {verdict.skipped} skipped, "
               f"{len(verdict.violations)} violations)")
    return records, summary, verdict.verdict == "NotPsh", echo


def _run_log_distance(cfg):
    seed, workers, tol = _check_common(cfg)
    d, domain_echo = _domain(cfg)
    metric = _metric(cfg) or d.natural_metric
    trials = _count(cfg, "trials", 1000)
    result = cl.log_distance_probe(d, metric=metric, trials=trials, seed=seed,
                                   tol=tol)
    records = _psh_records(result.inner)
    records.append({"key": "conclusion", "conclusion": result.conclusion,
                    "metric": result.metric})
    summary = (f"{result.conclusion} via -ln d sub-mean-value criterion "
               f"({result.inner.tested} triples, "
               f"{len(result.inner.violations)} violations)")
    echo = {"domain": domain_echo, "metric": metric, "trials": trials,
            "seed": seed, "tol": tol, "workers": workers}
    return records, summary, result.conclusion == "NotPseudoconvex", echo


def _run_reinhardt(cfg):
    _check_common(cfg)
    d, domain_echo = _domain(cfg)
    if not isinstance(d, dom.ReinhardtUnion):
        raise ConfigError("domain.variant: reinhardt command needs a "
                          "reinhardt_union domain")
    result = rh.log_convexity_test(d)
    records = [{"key": "conclusion", "conclusion": result.conclusion,
                "reason": result.reason}]
    if result.witness is not None:
        records.append({"key": "witness", **vars(result.witness)})
    summary = f"{result.conclusion}: {result.reason}"
    return records, summary, result.witness is not None, {"domain": domain_echo}


def _disc_family(cfg, n):
    spec = _require(cfg, "disc_family")
    if not isinstance(spec, dict):
        raise ConfigError("disc_family: must be a mapping")

    def vector(key, length=n):
        path = f"disc_family.{key}"
        return ex.point_from_pairs(_require(spec, key, path), path, length)

    variant = spec.get("variant")
    j_min = _count(spec, "j_min", 2, path="disc_family.j_min")
    j_max = _count(spec, "j_max", 20, minimum=j_min, path="disc_family.j_max")
    j_values = range(j_min, j_max + 1)
    if variant == "hartogs":
        if _count(spec, "dimension", n, path="disc_family.dimension") != n:
            raise ConfigError(f"disc_family.dimension: must equal the domain dimension {n}")
        family, limit = discs.hartogs_family(
            float(_real(spec, "r", 1.0, path="disc_family.r")), n, j_values)
        return family, limit, spec
    if variant == "affine_sweep":
        family, limit = discs.affine_sweep_family(
            vector("from_center"), vector("to_center"), vector("direction"),
            float(_real(spec, "radius", 1.0, path="disc_family.radius")), j_values)
        return family, limit, spec
    if variant == "exp_twisted":
        family, limit = discs.exp_twisted_family(
            vector("center"), vector("dir_primary"), vector("dir_secondary"),
            float(_real(spec, "r", 1.0, path="disc_family.r")),
            vector("g_coefficients", None), j_values)
        return family, limit, spec
    raise ConfigError(f"disc_family.variant: unknown variant {variant!r}")


def _run_disc_probe(cfg):
    seed, _, _ = _check_common(cfg)
    d, domain_echo = _domain(cfg)
    family, limit, family_echo = _disc_family(cfg, d.dimension)
    interior = _count(cfg, "interior", 256)
    boundary = _count(cfg, "boundary", 128)
    echo = {"domain": domain_echo, "disc_family": family_echo,
            "interior": interior, "boundary": boundary, "seed": seed}
    try:
        result = discs.continuity_probe(d, family, limit_disc=limit,
                                        interior=interior, boundary=boundary,
                                        seed=seed)
    except FamilyLeavesDomain as err:
        records = [{"key": "inapplicable", "reason": str(err)}]
        return records, f"probe inapplicable: {err}", False, echo
    records = [{"key": f"index-{chk.j:07d}", **vars(chk)}
               for chk in result.per_index]
    records.append({"key": "limit", "family": result.family_id,
                    "limit_boundary_inside": result.limit_boundary_inside,
                    "limit_points": result.limit_points})
    if result.violation:
        records.append({"key": "violation", "witness": result.witness})
        summary = (f"continuity principle violated: limit point escapes "
                   f"the domain")
    elif not result.limit_boundary_inside:
        summary = "limit boundary leaves the domain; no conclusion"
    else:
        summary = "no violation found"
    return records, summary, result.violation, echo


def _run_hull(cfg):
    seed, _, tol = _check_common(cfg)
    kind = cfg.get("kind", "affine")
    if kind not in ("affine", "polynomial"):
        raise ConfigError(f"kind: expected 'affine' or 'polynomial', got {kind!r}")
    is_complex = cfg.get("is_complex", kind == "polynomial")
    if not isinstance(is_complex, bool):
        raise ConfigError(f"is_complex: expected true or false, got {is_complex!r}")
    if "points_file" in cfg and cfg["points_file"]:
        _require(cfg, "dimension")
        try:
            points = hulls.load_point_set(cfg["points_file"],
                                          _count(cfg, "dimension", None), is_complex)
        except OSError as err:
            raise ConfigError(f"points_file: cannot read {cfg['points_file']!r}: "
                              f"{err.strerror}") from None
    else:
        points = hulls.decode_points(_require(cfg, "points"), is_complex, "points")
    if kind == "affine" and is_complex:
        raise ConfigError("is_complex: the affine hull test takes real points; "
                          "use kind: polynomial for complex points")
    queries = _require(cfg, "queries")
    query_points = hulls.decode_points(queries, kind == "polynomial", "queries",
                                       points.shape[1])
    functionals = _count(cfg, "functionals", 500)
    degree = _count(cfg, "degree", 8)
    random_count = _count(cfg, "random_count", 0, minimum=0)
    results = (hulls.affine_hull_membership(points, query_points, functionals, seed, tol)
               if kind == "affine" else hulls.polynomial_hull_membership(
                   points, query_points, degree, random_count, seed, tol))
    records = [{"key": f"query-{i:04d}", **vars(r)} for i, r in enumerate(results)]
    outside = sum(r["verdict"] == "Outside" for r in records)
    bound = hulls.hull_boundedness_check(points)
    records.append({"key": "bounds", "per_coordinate": bound.per_coordinate,
                    "bound": bound.bound})
    summary = (f"{outside}/{len(queries)} queries separated ({kind} family); "
               f"coordinate bound {bound.bound:.6g}")
    echo = {"kind": kind, "is_complex": is_complex, "points": points,
            "queries": queries, "seed": seed,
            "tol": tol, "functionals": functionals, "degree": degree,
            "random_count": random_count}
    return records, summary, outside > 0, echo


def _run_exhaustion(cfg):
    seed, _, _ = _check_common(cfg)
    d, domain_echo = _domain(cfg)
    function = cfg.get("function", exh.CANONICAL)
    if function not in (exh.CANONICAL, exh.NORM_SQUARED):
        function = ex.parse(function, d.dimension)
    metric = _metric(cfg)
    sequences = _count(cfg, "sequences", 8)
    steps = _count(cfg, "steps", 56)
    probe = exh.make_probe(d, function=function, metric=metric,
                           sequences=sequences, seed=seed, steps=steps)
    check = exh.exhaustion_blowup_check(probe)
    records = []
    for i, ((first, final, inc), values) in enumerate(
            zip(check.per_sequence, probe.values)):
        records.append({"key": f"sequence-{i:04d}", "first": first,
                        "final": final, "eventually_increasing": inc,
                        "passed": exh.sequence_passed(first, final, inc),
                        "length": len(values)})
    records.append({"key": "aggregate", "passed": check.passed,
                    "function": probe.function_id})
    summary = (f"blow-up check {'passed' if check.passed else 'failed'} on "
               f"{len(probe.sequences)} approach sequences")
    echo = {"domain": domain_echo, "function": probe.function_id,
            "metric": metric, "sequences": sequences, "seed": seed,
            "steps": steps}
    return records, summary, not check.passed, echo


def _run_selftest(cfg):
    seed, _, tol = _check_common(cfg, tol=1e-6)
    samples = _count(cfg, "samples", 50)
    result = run_selftest(points_per_expr=samples, seed=seed, tolerance=tol)
    records = []
    for i, chk in enumerate(result.checks):
        records.append({"key": f"expression-{i:02d}", "text": chk.text,
                        "dimension": chk.dimension,
                        "derivatives_checked": chk.derivatives_checked,
                        "max_rel_error": chk.max_rel_error,
                        "worst_case": chk.worst_case})
    records.append({"key": "aggregate", "max_rel_error": result.max_rel_error,
                    "tolerance": tol, "passed": result.passed})
    summary = (f"derivative self-test {'passed' if result.passed else 'FAILED'}: "
               f"max relative error {result.max_rel_error:.3e} over "
               f"{len(result.checks)} expressions")
    echo = {"samples": samples, "seed": seed, "tol": tol}
    return records, summary, not result.passed, echo


_RUNNERS = {
    "classify": _run_classify,
    "psh-test": _run_psh_test,
    "log-distance-probe": _run_log_distance,
    "reinhardt": _run_reinhardt,
    "disc-probe": _run_disc_probe,
    "hull": _run_hull,
    "exhaustion": _run_exhaustion,
    "derivative-selftest": _run_selftest,
}


def run_command(command: str, cfg: dict) -> tuple[dict, int]:
    """Execute one command; returns (report, exit code)."""
    if command not in _RUNNERS:
        raise ConfigError(f"command: unknown command {command!r}")
    _check_keys(command, cfg)
    start = time.perf_counter()
    records, summary, has_witnesses, echo = _RUNNERS[command](cfg)
    wall = time.perf_counter() - start
    report = rep.build_report(command, echo, records, summary, has_witnesses,
                              wall)
    return report, 2 if has_witnesses else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levikit",
        description="Desk-scale pseudoconvexity classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, help=f"run the {name} analysis")
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--samples", type=int, help="override sample count")
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--tol", type=float, help="override tolerance")
        p.add_argument("--metric", choices=[dom.EUCLIDEAN, dom.LINFTY],
                       help="override metric")
        p.add_argument("--workers", type=int,
                       help="accepted for old configs; has no effect")
        p.add_argument("--out", help="report output path")
    v = sub.add_parser("verify", help="re-check every witness in a report")
    v.add_argument("report", help="path to a JSON report")
    args = parser.parse_args(argv)

    try:
        if args.command == "verify":
            report = rep.load_report(args.report)
            result = rep.verify_report(report)
            for key, reason in result.failures:
                print(f"FAIL {key}: {reason}")
            print(f"verify: {'pass' if result.passed else 'FAIL'} "
                  f"({result.checked} witnesses checked)")
            return 0 if result.passed else 2

        cfg = load_config_file(args.config) if args.config else {}
        if args.command != "derivative-selftest" and not cfg:
            raise ConfigError("--config: a config file is required")
        for key in ("seed", "samples", "trials", "tol", "metric", "workers",
                    "out"):
            val = getattr(args, key)
            if val is not None:
                cfg[key] = val
        out_path = cfg.pop("out", None)
        report, code = run_command(args.command, cfg)
        if out_path:
            rep.write_report(report, out_path)
        print(report["summary"])
        return code
    except LevikitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
