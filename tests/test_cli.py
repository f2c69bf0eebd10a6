"""CLI dispatch, report determinism and witness verification tests."""

import json
import math
import os
import re
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from levikit import domains as dom
from levikit import report as rep
from levikit.cli import load_config_file, main, run_command
from levikit.errors import ConfigError, LevikitError

from helpers import to_jsonable_oracle

BALL_CFG = {
    "domain": {"variant": "ball", "dimension": 2,
               "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 1.0},
    "samples": 60,
    "seed": 0,
}

HARTOGS_E = math.e
HARTOGS_CFG = {
    "domain": {"variant": "reinhardt_union", "dimension": 2,
               "members": [{"radii": [HARTOGS_E, HARTOGS_E ** 2]},
                           {"radii": [HARTOGS_E ** 2, HARTOGS_E]}]},
}


def test_classify_ball_reports_strict():
    report, code = run_command("classify", dict(BALL_CFG))
    assert code == 0
    assert report["summary"] == "strictly pseudoconvex at 60/60 points"
    assert not report["has_witnesses"]


def test_reinhardt_hartogs_exits_with_witness():
    report, code = run_command("reinhardt", dict(HARTOGS_CFG))
    assert code == 2
    keys = {r["key"] for r in report["records"]}
    assert "witness" in keys
    assert rep.verify_report(report).passed


def test_verify_passes_on_a_euclidean_hartogs_probe():
    # the union's Euclidean distance to the re-entrant corners, end to end
    report, code = run_command("log-distance-probe",
                               {**HARTOGS_CFG, "metric": "euclidean", "trials": 200})
    assert code == 2 and report["has_witnesses"]
    assert rep.verify_report(json.loads(json.dumps(report))).passed


def test_malformed_expression_is_a_config_error():
    cfg = {"domain": {"variant": "sublevel", "dimension": 1,
                      "expression": "ln(abs(z1)", "level": 0.0},
           "samples": 5}
    with pytest.raises(ConfigError, match="position"):
        run_command("classify", cfg)


def test_unknown_config_key_is_rejected_with_path():
    cfg = dict(BALL_CFG)
    cfg["samplez"] = 3
    with pytest.raises(ConfigError, match="samplez"):
        run_command("classify", cfg)


def test_verify_detects_corrupted_witness():
    report, _ = run_command("reinhardt", dict(HARTOGS_CFG))
    tampered = json.loads(rep.report_bytes(report))
    for record in tampered["records"]:
        if record["key"] == "witness":
            record["midpoint"] = [-5.0, -5.0]
    result = rep.verify_report(tampered)
    assert not result.passed
    assert result.failures[0][0] == "witness"


def test_verify_rejects_unsupported_schema_version(tmp_path):
    report, _ = run_command("reinhardt", dict(HARTOGS_CFG))
    report["schema_version"] = 99
    path = tmp_path / "bad_schema.json"
    rep.write_report(report, path)
    with pytest.raises(Exception, match="schema version"):
        rep.load_report(path)


@pytest.mark.parametrize("text, message", [
    (None, "cannot read report file .*missing.json: No such file"),
    ("records: []\n", "report file .*report.json is not valid JSON"),
    ("[1, 2]", "report file .*report.json: the root must be a mapping"),
], ids=["missing", "not-json", "not-a-mapping"])
def test_verify_of_an_unreadable_report_is_an_error_exit(tmp_path, capsys, text, message):
    path = tmp_path / ("missing.json" if text is None else "report.json")
    if text is not None:
        path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=message):
        rep.load_report(path)
    assert main(["verify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and "Traceback" not in err


def test_verify_catches_tampering_in_every_witness_kind():
    # classify: eigenvalue flipped negative
    report, _ = run_command("classify", dict(BALL_CFG))
    bad = json.loads(rep.report_bytes(report))
    target = next(r for r in bad["records"] if r["key"].startswith("point"))
    target["eigenvalues"] = [-1.0]
    target["min_eigenvalue"] = -1.0
    result = rep.verify_report(bad)
    assert not result.passed and result.failures[0][0] == target["key"]

    # log-distance probe: witness radius inflated past the deficit
    probe, _ = run_command("log-distance-probe", dict(HARTOGS_CFG, trials=1000,
                                                      seed=0))
    bad = json.loads(rep.report_bytes(probe))
    for record in bad["records"]:
        if record["key"].startswith("violation"):
            record["point"] = [[0.1, 0.0], [0.1, 0.0]]  # deep interior point
    result = rep.verify_report(bad)
    assert not result.passed

    # disc probe: witness moved inside the domain
    disc_cfg = {"domain": {"variant": "sublevel", "dimension": 2,
                           "expression": "1 - abs2(z1) - abs2(z2)", "level": 0.0},
                "disc_family": {"variant": "hartogs", "r": 1.0, "dimension": 2,
                                "j_min": 2, "j_max": 8}}
    disc_report, _ = run_command("disc-probe", disc_cfg)
    bad = json.loads(rep.report_bytes(disc_report))
    for record in bad["records"]:
        if record["key"] == "violation":
            record["witness"] = [[5.0, 0.0], [0.0, 0.0]]
    result = rep.verify_report(bad)
    assert not result.passed and result.failures[0][0] == "violation"

    # hull: certificate offset corrupted
    hull_cfg = {"kind": "affine", "is_complex": False,
                "points": [[0, 0], [1, 0], [1, 1], [0, 1]],
                "queries": [[5.0, 0.0]], "functionals": 200}
    hull_report, _ = run_command("hull", hull_cfg)
    bad = json.loads(rep.report_bytes(hull_report))
    for record in bad["records"]:
        if record.get("verdict") == "Outside":
            record["certificate"]["direction"] = [0.0, 1.0]
    result = rep.verify_report(bad)
    assert not result.passed

    def first_failure(command, cfg, select, tamper):
        report, code = run_command(command, cfg)
        assert code == 2 and rep.verify_report(report).passed
        bad = json.loads(rep.report_bytes(report))
        target = next(r for r in bad["records"] if select(r))
        tamper(target)
        result = rep.verify_report(bad)
        assert not result.passed
        return result.failures[0], target["key"]

    # reinhardt: midpoint moved inside the log image
    failure, key = first_failure("reinhardt", dict(HARTOGS_CFG),
                                 lambda r: r["key"] == "witness",
                                 lambda r: r.update(midpoint=[-5.0, -5.0]))
    assert failure == (key, "midpoint defect does not re-check")

    # polynomial hull: certificate coefficient zeroed
    poly_cfg = {"kind": "polynomial",
                "points": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                "queries": [[[2.0, 0.0], [0.0, 0.0]]], "degree": 3}
    failure, key = first_failure(
        "hull", poly_cfg, lambda r: r.get("verdict") == "Outside",
        lambda r: r["certificate"]["coefficients"].__setitem__(0, [0.0, 0.0]))
    assert failure == (key, "separation certificate does not re-check")

    # psh-test: the Levi form of this function is negative only near z1 = 0,
    # and its violations are moved to z1 = 0.9
    psh_cfg = {"domain": BALL_CFG["domain"], "samples": 30, "seed": 2,
               "expression": "abs2(z1)^2 - 0.5*abs2(z1) + abs2(z2)"}
    for mode, reason in [("spectral", "minimum eigenvalue no longer negative"),
                         ("circle", "circle-average deficit does not re-check")]:
        failure, key = first_failure(
            "psh-test", dict(psh_cfg, mode=mode),
            lambda r: r["key"].startswith("violation"),
            lambda r: r.update(point=[[0.9, 0.0], [0.0, 0.0]]))
        assert failure == (key, reason)


def test_verify_catches_flipped_exhaustion_pass_flag():
    report, _ = run_command("exhaustion", {"domain": BALL_CFG["domain"],
                                           "sequences": 4})
    bad = json.loads(rep.report_bytes(report))
    target = next(r for r in bad["records"] if r["key"].startswith("sequence"))
    target["passed"] = not target["passed"]
    result = rep.verify_report(bad)
    assert not result.passed and result.failures[0][0] == target["key"]


@pytest.mark.parametrize("field, value", [("tail_rise", 0.0), ("tail_approach", 1.0)])
def test_verify_catches_tampered_exhaustion_tail_fields(field, value):
    report, _ = run_command("exhaustion", {"domain": BALL_CFG["domain"],
                                           "sequences": 4})
    bad = json.loads(rep.report_bytes(report))
    target = next(r for r in bad["records"] if r["key"].startswith("sequence"))
    assert target["passed"]
    target[field] = value
    result = rep.verify_report(bad)
    assert not result.passed and result.failures[0][0] == target["key"]


@pytest.mark.parametrize("field", ["tail_rise", "tail_approach"])
def test_verify_fails_cleanly_on_a_record_without_tail_fields(field):
    # sequence records written before the tail rule lack its fields
    report, _ = run_command("exhaustion", {"domain": BALL_CFG["domain"],
                                           "sequences": 4})
    old = json.loads(rep.report_bytes(report))
    for rec in old["records"]:
        if rec["key"].startswith("sequence"):
            del rec[field]
    result = rep.verify_report(old)
    assert not result.passed and result.checked == 4
    assert {reason for _, reason in result.failures} == {"record predates the tail rule"}


def test_verify_reads_short_exhaustion_sequence():
    # on this non-convex domain only the first point (the interior anchor)
    # of one approach segment is inside, so its record stores "nan" values
    cfg = {"domain": {"variant": "sublevel", "dimension": 2,
                      "expression": "abs2(z1) - abs2(z2)^2 + abs2(z2) - 0.5",
                      "level": 0.0, "box_center": [[0.0, 0.0], [0.0, 0.0]],
                      "box_radii": [1.0, 1.5],
                      "interior_hint": [[0.0, 0.0], [0.0, 0.0]]},
           "function": "norm-squared", "sequences": 3, "steps": 20}
    report, code = run_command("exhaustion", cfg)
    assert code == 2
    stored = json.loads(rep.report_bytes(report))
    assert any(r.get("final") == "nan" for r in stored["records"])
    result = rep.verify_report(stored)
    assert result.passed and result.checked == 3


def test_verify_passes_vacuously_without_witnesses():
    mono = {"domain": {"variant": "reinhardt_union", "dimension": 2,
                       "members": [{"radii": [1.0, 1.0]}]}}
    report, code = run_command("reinhardt", mono)
    assert code == 0
    result = rep.verify_report(report)
    assert result.passed and result.checked == 0


def test_reports_are_byte_identical_across_runs():
    a, _ = run_command("classify", dict(BALL_CFG))
    b, _ = run_command("classify", dict(BALL_CFG))
    assert rep.canonical_bytes(a) == rep.canonical_bytes(b)


def _same(got, want):
    """Equal, and of the same types all the way down, floats by their repr
    (NaN and signed zeros included); dicts in the same order."""
    if type(got) is not type(want):
        return False
    if isinstance(got, dict):
        return (list(got) == list(want)
                and all(_same(got[k], want[k]) for k in got))
    if isinstance(got, list):
        return len(got) == len(want) and all(map(_same, got, want))
    return repr(got) == repr(want)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.text(max_size=3),
    st.floats(), st.complex_numbers(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.complex_numbers().map(np.complex128),
    st.sampled_from([math.inf, -math.inf, math.nan, np.float64(math.inf),
                     np.float64(-math.inf), np.float64(math.nan)]),
    hnp.arrays(st.sampled_from([np.float64, np.int64, np.complex128, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, max_side=3)))
_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                  st.none(), st.floats(allow_nan=False))


class _Row(list):
    """A list subclass: converted like the list it holds."""


_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.lists(children, max_size=3).map(_Row),
    st.dictionaries(_KEYS, children, max_size=4),
    st.dictionaries(_KEYS, children, max_size=3).map(OrderedDict)), max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_to_jsonable_matches_the_reference_walk(value):
    # np.bool_ scalars are left out: the reference returns them unchanged
    want = to_jsonable_oracle(value)
    assert _same(rep.to_jsonable(value), want)
    assert _same(to_jsonable_oracle(value), want)      # the input is unchanged


def test_to_jsonable_converts_numpy_bools():
    # every numpy scalar becomes its Python value; a np.bool_ used to come
    # back as it was, which json.dumps rejects
    value = {"flag": np.bool_(False), "flags": [np.bool_(True), (np.bool_(False),)]}
    assert _same(rep.to_jsonable(value),
                 {"flag": False, "flags": [True, [False]]})
    assert json.dumps(rep.to_jsonable(np.bool_(True))) == "true"
    with pytest.raises(TypeError, match="not JSON serializable"):
        json.dumps(to_jsonable_oracle(np.bool_(True)))


def test_to_jsonable_copies_only_what_changes():
    plain = {"key": "query-0000", "query": [0.5, -1.0], "tested": 3,
             "certificate": {"direction": [0.6, 0.8], "offset": None}}
    assert rep.to_jsonable(plain) is plain
    mixed = {"a": [1.0], "b": (2.0,), "c": [np.float64(3.0)], 4: "four"}
    out = rep.to_jsonable(mixed)
    assert out == {"a": [1.0], "b": [2.0], "c": [3.0], "4": "four"}
    assert out["a"] is mixed["a"] and out["c"] is not mixed["c"]
    assert mixed["b"] == (2.0,) and type(mixed["c"][0]) is np.float64


def test_reports_agree_across_worker_counts():
    cfg1 = dict(BALL_CFG, workers=1)
    cfg8 = dict(BALL_CFG, workers=8)
    a, _ = run_command("classify", cfg1)
    b, _ = run_command("classify", cfg8)
    assert a["records"] == b["records"]


def test_classify_samples_the_boundary_once(monkeypatch):
    calls = []
    real = dom.boundary_sample

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(dom, "boundary_sample", counting)
    report, _ = run_command("classify", dict(BALL_CFG))
    assert len(calls) == 1
    assert all(r["source"] == "sphere" for r in report["records"]
               if r["key"].startswith("point"))


def test_log_distance_probe_command_and_verify():
    cfg = dict(HARTOGS_CFG, trials=1000, seed=0)
    report, code = run_command("log-distance-probe", cfg)
    assert code == 2
    assert any(r["key"].startswith("violation") for r in report["records"])
    assert rep.verify_report(report).passed


def test_psh_test_command_spectral_and_circle():
    cfg = {"domain": BALL_CFG["domain"], "expression": "-(abs2(z1) + abs2(z2))",
           "mode": "spectral", "samples": 30}
    report, code = run_command("psh-test", cfg)
    assert code == 2
    assert rep.verify_report(report).passed
    cfg["mode"] = "circle"
    report2, code2 = run_command("psh-test", cfg)
    assert code2 == 2
    assert rep.verify_report(report2).passed


def test_disc_probe_command():
    cfg = {"domain": {"variant": "sublevel", "dimension": 2,
                      "expression": "1 - abs2(z1) - abs2(z2)", "level": 0.0},
           "disc_family": {"variant": "hartogs", "r": 1.0, "dimension": 2,
                           "j_min": 2, "j_max": 12}}
    report, code = run_command("disc-probe", cfg)
    assert code == 2
    assert rep.verify_report(report).passed
    cfg2 = {"domain": {"variant": "ball", "dimension": 2,
                       "center": [[0.0, 0.0], [0.0, 0.0]], "radius": 2.0},
            "disc_family": {"variant": "hartogs", "r": 1.0, "dimension": 2,
                            "j_min": 2, "j_max": 12}}
    report2, code2 = run_command("disc-probe", cfg2)
    assert code2 == 0 and not report2["has_witnesses"]


def test_hull_command_and_verify():
    cfg = {"kind": "affine", "is_complex": False,
           "points": [[0, 0], [1, 0], [1, 1], [0, 1]],
           "queries": [[0.5, 0.5], [2.0, 0.0]],
           "functionals": 300}
    report, code = run_command("hull", cfg)
    assert code == 2     # one Outside certificate
    verdicts = {r["key"]: r.get("verdict") for r in report["records"]}
    assert verdicts["query-0000"] == "Inside"
    assert verdicts["query-0001"] == "Outside"
    assert rep.verify_report(report).passed


def test_hull_command_reads_points_file(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("0.0,0.0\n1.0,0.0\n1.0,1.0\n0.0,1.0\n", encoding="utf-8")
    cfg = {"kind": "affine", "is_complex": False, "dimension": 2,
           "points_file": str(path), "queries": [[0.5, 0.5]],
           "functionals": 100}
    report, code = run_command("hull", cfg)
    assert code == 0
    assert report["records"][1]["verdict"] == "Inside"
    # the echoed config embeds the loaded points, so verify is self-contained
    assert len(report["config"]["points"]) == 4


def test_points_file_with_a_non_numeric_token_names_the_line(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("0.0,0.0\n0.0,zero\n", encoding="utf-8")
    cfg = {"kind": "affine", "is_complex": False, "dimension": 2,
           "points_file": str(path), "queries": [[0.5, 0.5]]}
    with pytest.raises(LevikitError, match=r"k\.txt:2: expected comma-separated"):
        run_command("hull", cfg)


@pytest.mark.parametrize("name, content", [
    ("absent.txt", None), ("latin1.txt", "0.5,0.5\n# caf\xe9\n".encode("latin-1")),
], ids=["missing", "not-utf8"])
def test_missing_points_file_is_a_config_error(tmp_path, capsys, name, content):
    if content is not None:
        (tmp_path / name).write_bytes(content)
    cfg = {"kind": "affine", "is_complex": False, "dimension": 2,
           "points_file": str(tmp_path / name), "queries": [[0.5, 0.5]]}
    with pytest.raises(ConfigError, match=f"points_file: cannot read .*{name}"):
        run_command("hull", cfg)
    config = tmp_path / "hull.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["hull", "--config", str(config)]) == 1
    assert "error: points_file" in capsys.readouterr().err


@pytest.mark.parametrize("expression, hint", [
    ("abs2(z1^2) - 1", [1.0e+200, 0.0]), ("abs(z1) - 1", [1.5e+308, 1.5e+308])])
def test_overflowing_power_or_modulus_is_an_error_exit(tmp_path, capsys, expression,
                                                       hint):
    # with z1*z1 in place of z1^2 the value at the hint is inf, and the run
    # passes; the power and the modulus raise OverflowError in CPython
    cfg = {"domain": {"variant": "sublevel", "dimension": 1, "level": 0.0,
                      "expression": expression, "box_center": [[0.0, 0.0]],
                      "box_radii": [1.0], "interior_hint": [hint]},
           "samples": 4, "seed": 0}
    config = tmp_path / "overflow.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["classify", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: overflow in subexpression" in err
    # the point as plain complex values, e.g. ((1e+200+0j),)
    assert f"at point ({complex(*hint)!r},)" in err and "np.complex128" not in err


def test_interior_hint_outside_the_domain_is_a_config_error(tmp_path, capsys):
    # z1*z1 overflows to inf without an error, so f - level is inf at the hint
    cfg = {"domain": {"variant": "sublevel", "dimension": 1, "level": 0.0,
                      "expression": "abs2(z1*z1) - 1", "box_center": [[0.0, 0.0]],
                      "box_radii": [1.0], "interior_hint": [[1.0e+200, 0.0]]},
           "samples": 4, "seed": 0}
    with pytest.raises(ConfigError, match=r"domain\.interior_hint: f - level is inf "
                                          r"there, not below 0"):
        run_command("classify", cfg)
    # on the boundary f - level is 0, which is not below 0 either
    on_boundary = {**cfg, "domain": {**cfg["domain"], "expression": "abs2(z1) - 1",
                                     "interior_hint": [[1.0, 0.0]]}}
    with pytest.raises(ConfigError, match=r"domain\.interior_hint: f - level is 0\.0 "):
        run_command("classify", on_boundary)
    config = tmp_path / "hint.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["classify", "--config", str(config)]) == 1
    assert "domain.interior_hint: f - level is inf" in capsys.readouterr().err


_YAML_EDGES = """\
tol: 1e-9
flag: yes
nothing: ~
base: &base {radius: 1.0, center: [[0.0, 0.0]]}
copy: *base
merged: {<<: *base, radius: 2.0}
"""


def _both_loaders(text):
    return [yaml.load(text, Loader=loader)
            for loader in (yaml.SafeLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))]


def test_config_loader_reads_what_the_python_safe_loader_reads(tmp_path):
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    for path in sorted(config_dir.glob("*.yaml")):
        text = path.read_text(encoding="utf-8")
        python, loaded = _both_loaders(text)
        assert python == loaded == load_config_file(path), path.name
    python, loaded = _both_loaders(_YAML_EDGES)
    path = tmp_path / "edges.yaml"
    path.write_text(_YAML_EDGES, encoding="utf-8")
    assert python == loaded == load_config_file(path)
    # YAML 1.1 as PyYAML resolves it: 1e-9 (no dot) is a string, yes is true
    assert python["tol"] == "1e-9" and python["flag"] is True
    assert python["nothing"] is None and python["copy"] == python["base"]
    assert python["merged"] == {"radius": 2.0, "center": [[0.0, 0.0]]}


@pytest.mark.parametrize("content, message", [
    (b"domain: {variant: ball\nsamples: [1, 2\n", "config file is not valid YAML"),
    (None, "cannot read config file .*broken.yaml: Is a directory"),
    ("samples: 4  # caf\xe9\n".encode("latin-1"),
     "cannot load config file .*broken.yaml: 'utf-8' codec"),
    (b"samples: 2020-13-45\n", "cannot load config file .*broken.yaml: month"),
], ids=["invalid-yaml", "directory", "not-utf8", "bad-date"])
def test_invalid_yaml_is_a_config_error(tmp_path, capsys, content, message):
    path = tmp_path / "broken.yaml"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(ConfigError, match=message):
        load_config_file(path)
    assert main(["classify", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.match(f"error: {message}", err) and "Traceback" not in err


@pytest.mark.parametrize("value", ["no", "false", 0, 1, None])
def test_is_complex_must_be_true_or_false(value):
    cfg = {"kind": "affine", "is_complex": value,
           "points": [[0, 0], [1, 0], [0, 1]], "queries": [[0.2, 0.2]]}
    with pytest.raises(ConfigError, match="is_complex: expected true or false"):
        run_command("hull", cfg)


def test_exhaustion_command():
    cfg = {"domain": BALL_CFG["domain"], "sequences": 4}
    report, code = run_command("exhaustion", cfg)
    assert code == 0
    assert rep.verify_report(report).passed


def test_selftest_command():
    report, code = run_command("derivative-selftest", {"samples": 3})
    assert code == 0
    assert rep.verify_report(report).passed


def test_cli_main_end_to_end(tmp_path, capsys):
    cfg_path = tmp_path / "ball.yaml"
    cfg_path.write_text(yaml.safe_dump(BALL_CFG), encoding="utf-8")
    out_path = tmp_path / "report.json"
    code = main(["classify", "--config", str(cfg_path), "--samples", "20",
                 "--out", str(out_path)])
    assert code == 0
    assert "strictly pseudoconvex at 20/20 points" in capsys.readouterr().out
    loaded = rep.load_report(out_path)
    assert loaded["config"]["samples"] == 20
    assert main(["verify", str(out_path)]) == 0


def test_cli_error_paths(tmp_path, capsys):
    assert main(["classify", "--config", str(tmp_path / "missing.yaml")]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({
        "domain": {"variant": "sublevel", "dimension": 1,
                   "expression": "ln(abs(z1)", "level": 0.0}}),
        encoding="utf-8")
    assert main(["classify", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "position" in err


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED_COMMANDS = {"ball_classify": "classify",
                    "hull_affine": "hull",
                    "hull_polynomial": "hull",
                    "quartic_classify": "classify",
                    "psh_sum_classify": "classify",
                    "hartogs_reinhardt": "reinhardt",
                    "hartogs_log_distance": "log-distance-probe",
                    "ball_log_distance": "log-distance-probe",
                    "quartic_log_distance": "log-distance-probe",
                    "quartic_mixed_log_distance": "log-distance-probe",
                    "intersection_log_distance": "log-distance-probe",
                    "psh_sum_log_distance": "log-distance-probe",
                    "polydisc_exhaustion": "exhaustion",
                    "psh_sum_exhaustion": "exhaustion",
                    "psh_circle": "psh-test",
                    "psh_spectral": "psh-test",
                    "complement_disc_probe": "disc-probe"}


def test_shipped_configs_run(monkeypatch):
    # each report has the canonical bytes that the reference walk gives
    build_report, built = rep.build_report, []
    monkeypatch.setattr(rep, "build_report",
                        lambda *args: built.append(args) or build_report(*args))
    paths = sorted(CONFIGS.glob("*.yaml"))
    assert len(paths) == len(SHIPPED_COMMANDS)
    for path in paths:
        report, code = run_command(SHIPPED_COMMANDS[path.stem], load_config_file(path))
        assert code in (0, 2)
        assert rep.verify_report(report).passed
        with monkeypatch.context() as walk:
            walk.setattr(rep, "to_jsonable", to_jsonable_oracle)
            reference = build_report(*built[-1])
        assert rep.canonical_bytes(report) == rep.canonical_bytes(reference), path.name


@pytest.mark.parametrize("stem", ["hull_affine", "hull_polynomial"])
def test_hull_records_reach_the_report_plain(monkeypatch, stem):
    # the membership functions return the records themselves, so every one,
    # the bounds record too, is walked by build_report without a copy
    build_report, built = rep.build_report, []
    monkeypatch.setattr(rep, "build_report",
                        lambda *args: built.append(args) or build_report(*args))
    run_command("hull", load_config_file(CONFIGS / f"{stem}.yaml"))
    (_, _, records, *_), = built
    assert records[-1]["key"] == "bounds"
    for record in records:
        assert rep.to_jsonable(record) is record, record["key"]


WORKFLOW = CONFIGS.parent / ".github" / "workflows" / "tests.yml"


def test_the_workflow_runs_every_shipped_config():
    # CI's end-to-end loop takes command:config pairs, and derivative-selftest
    # with no config; a new config must join it
    steps = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]
    (script,) = [step["run"] for step in steps
                 if step.get("name") == "Shipped configs end to end"]
    loop = script[script.index("for run in ") + len("for run in "):script.index("; do")]
    runs = loop.replace("\\", " ").split()
    assert sorted(runs) == sorted([*(f"{command}:{stem}" for stem, command
                                     in SHIPPED_COMMANDS.items()), "derivative-selftest:"])


# every command and verify in a fresh interpreter, on the shipped configs
# with at most 8 trials or samples: the modules they load on first use
_COLD_RUN = """
import sys
import levikit.cli, numpy.random
from levikit import cli, report
runs = [(command, cli.load_config_file(path) if path else {"samples": 8})
        for command, path in zip(sys.argv[1::2], sys.argv[2::2])]
for _, cfg in runs:
    cfg.update((key, min(cfg[key], 8)) for key in ("trials", "samples") if key in cfg)
before = set(sys.modules)
for command, cfg in runs:
    result, code = cli.run_command(command, cfg)
    assert code in (0, 2) and report.verify_report(result).passed, command
print(*sorted(set(sys.modules) - before))
"""


def test_cold_commands_import_nothing_new():
    # a module first imported inside run_command is paid for by the timed
    # run of every fresh process (np.unique's first call loads numpy.ma)
    runs = [arg for stem, command in SHIPPED_COMMANDS.items()
            for arg in (command, str(CONFIGS / f"{stem}.yaml"))]
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, *runs,
                           "derivative-selftest", ""],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


MIXED_QUARTIC = CONFIGS / "quartic_mixed_log_distance.yaml"


def test_mixed_quartic_config_finds_a_witness_that_verifies():
    # the domain is not pseudoconvex; its 400 trials find a violation on
    # 19 of seeds 0-19 (40 trials found one on 12 of seeds 0-29), and its
    # distances are exact in modulus space, so verify re-checks the witness
    report, code = run_command("log-distance-probe", load_config_file(MIXED_QUARTIC))
    assert code == 2 and report["summary"].startswith("NotPseudoconvex")
    assert any(r["key"].startswith("violation") for r in report["records"])
    assert rep.verify_report(report).passed


@pytest.mark.parametrize("command, cfg", [
    ("log-distance-probe", {"domain": dom.hartogs_figure().to_dict(), "trials": 40}),
    ("psh-test", {"domain": dom.Ball((0, 0), 1.0).to_dict(), "mode": "circle",
                  "samples": 40, "expression": "re(z1)^2 - abs2(z2)"})])
def test_circle_probe_reports_echo_their_trial_chunk_and_run_again(command, cfg):
    # the draws depend on the chunk size, so the report names it, and its
    # echoed config runs again to the same bytes
    report, _ = run_command(command, {**cfg, "seed": 1})
    assert report["config"]["trial_chunk"] == 32
    again, _ = run_command(command, json.loads(json.dumps(report["config"])))
    assert rep.canonical_bytes(again) == rep.canonical_bytes(report)
    with pytest.raises(ConfigError, match="trial_chunk: the circle probe runs "
                                          "32-trial chunks, got 64"):
        run_command(command, {**cfg, "trial_chunk": 64})


@pytest.mark.parametrize("seed", [11, 13, 16])
def test_mixed_quartic_config_samples_its_centres_on_every_seed(seed):
    # about 1 in 220 candidates of the box falls in the domain: one trial's
    # 1,000 candidates all missed on these seeds when the budget was counted
    # per trial, and a 32-trial chunk needs a budget per centre
    cfg = {**load_config_file(MIXED_QUARTIC), "trials": 40, "seed": seed}
    report, code = run_command("log-distance-probe", cfg)
    assert code in (0, 2) and rep.verify_report(report).passed


def test_classify_polydisc_report_verifies_through_face_functions():
    cfg = {"domain": {"variant": "polydisc", "dimension": 2,
                      "center": [[0.0, 0.0], [0.0, 0.0]], "radii": [1.0, 2.0]},
           "samples": 40, "seed": 0}
    report, code = run_command("classify", cfg)
    assert code == 0
    result = rep.verify_report(report)
    assert result.passed and result.checked == 40
    face_indices = {r.get("face_index") for r in report["records"]
                    if r["key"].startswith("point")}
    assert face_indices == {0, 1}


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "levikit.cli", "derivative-selftest",
         "--samples", "2"],
        capture_output=True, text=True, check=True)
    assert "derivative self-test passed" in proc.stdout


def test_canonical_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # a C^3 sublevel classify in two fresh interpreters: evaluation order
    # taken from ids, hashes or set iteration would differ between them
    cfg = {"domain": {"variant": "sublevel", "dimension": 3, "level": 0.0,
                      "expression": "abs2(z1) + abs2(z2) + abs2(z3) + abs2("
                                    "(0.3-0.2*i)*z1*z2 + (0.5+0.1*i)*z3^2 - z2) - 1",
                      "box_center": [[0.0, 0.0]] * 3, "box_radii": [1.0] * 3,
                      "interior_hint": [[0.0, 0.0]] * 3},
           "samples": 12, "seed": 3}
    config = tmp_path / "c3.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    canonical = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"report-{hash_seed}.json"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "levikit.cli", "classify",
                        "--config", str(config), "--out", str(out)],
                       env=env, capture_output=True, text=True, check=True)
        canonical.append(rep.canonical_bytes(rep.load_report(out)))
        # in its own process verify re-derives every tree from the echoed
        # text; in process it would share the run's nodes and programs
        checked = subprocess.run([sys.executable, "-m", "levikit.cli", "verify", str(out)],
                                 env=env, capture_output=True, text=True, check=True)
        assert "12 witnesses checked" in checked.stdout
    assert canonical[0] == canonical[1]
    assert b"StrictlyPseudoconvex" in canonical[0]


def test_psh_circle_report_echoes_quadrature_and_verifies_with_it():
    # a 2-point rule misreads re(z1^2), which is harmonic, as non-psh; the
    # stored violations re-check only under the same rule
    cfg = {"domain": {"variant": "ball", "dimension": 1,
                      "center": [[0.0, 0.0]], "radius": 1.0},
           "expression": "re(z1^2)", "mode": "circle", "quadrature": 2,
           "samples": 60, "seed": 0}
    report, code = run_command("psh-test", dict(cfg))
    assert code == 2 and report["config"]["quadrature"] == 2
    result = rep.verify_report(json.loads(rep.report_bytes(report)))
    assert result.passed and result.checked > 0
    clean, code = run_command("psh-test", dict(cfg, quadrature=64))
    assert code == 0 and clean["config"]["quadrature"] == 64


def test_verify_reads_psh_circle_report_without_quadrature():
    cfg = {"domain": BALL_CFG["domain"], "expression": "-(abs2(z1) + abs2(z2))",
           "mode": "circle", "samples": 20}
    report, _ = run_command("psh-test", cfg)
    old = json.loads(rep.report_bytes(report))
    del old["config"]["quadrature"]
    result = rep.verify_report(old)
    assert result.passed and result.checked > 0


def _outcome(check, rec):
    try:
        return check(rec)
    except LevikitError as err:
        return type(err), str(err)


def test_verify_takes_the_spectral_levi_matrices_in_one_call(monkeypatch):
    # one program call over every record's point; each record's reason, or
    # the error of its row (a point moved onto the pole), is the one that a
    # levi_matrix call per record gives
    import numpy as np

    from levikit import calculus as lc
    from levikit import expr as ex
    cfg = {"domain": BALL_CFG["domain"], "expression": "abs2(z1) - abs2(z2) + 0.01*ln(abs2(z1))",
           "mode": "spectral", "samples": 20}
    report, code = run_command("psh-test", cfg)
    report = json.loads(rep.report_bytes(report))
    records = [r for r in report["records"] if r["key"].startswith("violation")]
    assert code == 2 and len(records) == 20
    records[3]["point"] = [[0.0, 0.0], [0.5, 0.0]]
    f = ex.parse(cfg["expression"], 2)

    def one_call(rec):
        h = lc.levi_matrix(f, rep._record_vector(rec, "point"))
        return None if np.linalg.eigvalsh(h)[0] < -1e-9 else "minimum eigenvalue no longer negative"

    want = [_outcome(one_call, rec) for rec in records]
    assert want[3][0].__name__ == "EvalDomainError" and want.count(None) == 19
    calls = []
    program = ex.program

    def counting(roots):
        prog = program(roots)

        def rows(zz):
            calls.append(zz.shape)
            return prog(zz)

        rows.checks = prog.checks
        return rows

    monkeypatch.setattr(ex, "program", counting)
    check = rep._psh_check(report)
    assert [_outcome(check, rec) for rec in records] == want
    assert calls == [(20, 2)]


SUBLEVEL3 = {"variant": "sublevel", "dimension": 3,
             "expression": "abs2(z1) + abs2(z2) + abs2(z3) - 1", "level": 0.0}


@pytest.mark.parametrize("family, field", [
    ({"variant": "affine_sweep", "from_center": [[0.0, 0.0]] * 3,
      "to_center": [[0.1, 0.0]] * 3, "direction": [[0.0, 0.0], [1.0, 0.0]]},
     "disc_family.direction"),
    ({"variant": "exp_twisted", "center": [[0.0, 0.0]] * 2,
      "dir_primary": [[1.0, 0.0]] * 3, "dir_secondary": [[0.0, 0.0]] * 3,
      "g_coefficients": [[0.0, 0.0]]}, "disc_family.center"),
])
def test_disc_family_vector_shorter_than_domain_names_field(family, field):
    with pytest.raises(ConfigError, match=rf"{field}: expected 3 coordinates"):
        run_command("disc-probe", {"domain": SUBLEVEL3, "disc_family": family})


def test_missing_disc_family_field_names_field():
    family = {"variant": "affine_sweep", "from_center": [[0.0, 0.0]] * 3,
              "direction": [[1.0, 0.0]] * 3}
    with pytest.raises(ConfigError, match="disc_family.to_center: required"):
        run_command("disc-probe", {"domain": SUBLEVEL3, "disc_family": family})


@pytest.mark.parametrize("points, queries, field", [
    ([[[1.0, 0.0]], [0.5]], [[[0.0, 0.0]]], r"points\[1\]"),
    ([[[1.0, 0.0]], [[0.0, 1.0]]], [[[0.0, 0.0]], [[1.0, 2.0, 3.0]]],
     r"queries\[1\]"),
])
def test_complex_hull_entry_that_is_not_a_pair_names_field(points, queries,
                                                           field):
    cfg = {"kind": "polynomial", "points": points, "queries": queries}
    with pytest.raises(ConfigError, match=rf"{field}: expected a list of "
                                          r"\[re, im\] pairs"):
        run_command("hull", cfg)


def test_domain_dimension_mismatch_is_a_config_error(tmp_path, capsys):
    cfg = dict(BALL_CFG, domain=dict(BALL_CFG["domain"], dimension=3))
    with pytest.raises(ConfigError, match=r"domain\.dimension: declared 3"):
        run_command("classify", cfg)
    path = tmp_path / "mismatch.yaml"
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["classify", "--config", str(path)]) == 1
    assert "domain.dimension" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, field", [
    ({"kind": "affine", "points": [[0, 0], [1]], "queries": [[0.5, 0.5]]},
     r"points\[1\]: expected a list of 2 real numbers"),
    ({"kind": "polynomial", "points": [[[0, 0], [1, 0]], [[1, 0]]],
      "queries": [[[0, 0], [0, 0]]]}, r"points\[1\]: expected 2 coordinates"),
    ({"kind": "affine", "is_complex": True,
      "points": [[[0, 0], [1, 0]], [[1, 0]]], "queries": [[0.5, 0.5]]},
     r"points\[1\]: expected 2 coordinates"),
    ({"kind": "affine", "points": [[0, 0], [1, 0]], "queries": [[0.5]]},
     r"queries\[0\]: expected a list of 2 real numbers"),
    ({"kind": "affine", "points": [], "queries": [[0.5]]},
     "points: expected at least one point"),
])
def test_malformed_hull_rows_name_the_row(cfg, field):
    with pytest.raises(ConfigError, match=field):
        run_command("hull", cfg)


AFFINE_TRIANGLE = {"kind": "affine", "points": [[0, 0], [1, 0], [0, 1]]}


@pytest.mark.parametrize("cfg, field", [
    (dict(AFFINE_TRIANGLE, queries=[[math.nan, 0]]), r"queries\[0\]"),
    (dict(AFFINE_TRIANGLE, queries=[[0.2, 0.2], [math.inf, 0]]), r"queries\[1\]"),
    (dict(AFFINE_TRIANGLE, points=[[0, 0], [math.nan, 0]], queries=[[0.2, 0.2]]),
     r"points\[1\]"),
    ({"kind": "polynomial", "points": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
      "queries": [[[math.nan, 0], [0, 0]]]}, r"queries\[0\]"),
    ({"kind": "polynomial", "points": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
      "queries": [[[math.inf, 0], [0, 0]]]}, r"queries\[0\]"),
])
def test_non_finite_hull_coordinates_name_the_row(cfg, field):
    with pytest.raises(ConfigError, match=rf"{field}: coordinates must be finite"):
        run_command("hull", cfg)


def test_non_finite_points_file_coordinate_names_the_line(tmp_path):
    path = tmp_path / "k.txt"
    path.write_text("0.0,0.0\n1.0,inf\n", encoding="utf-8")
    cfg = {"kind": "affine", "is_complex": False, "dimension": 2,
           "points_file": str(path), "queries": [[0.5, 0.5]]}
    with pytest.raises(ConfigError, match=r"k\.txt:2: coordinates must be finite"):
        run_command("hull", cfg)


def test_overflowing_affine_offset_bound_is_an_error(tmp_path, capsys):
    cfg = dict(AFFINE_TRIANGLE, queries=[[1e308, 0]])
    with pytest.raises(LevikitError, match="offset bound"):
        run_command("hull", cfg)
    config = tmp_path / "hull.yaml"
    config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    assert main(["hull", "--config", str(config)]) == 1
    assert "error: affine offset bound" in capsys.readouterr().err


def test_affine_hull_rejects_complex_points(tmp_path):
    # the affine test runs on real points: imaginary parts would be dropped
    cfg = {"kind": "affine", "is_complex": True,
           "points": [[[0, 0], [0, 0]], [[1, 5], [0, 0]]], "queries": [[0.5, 0.0]]}
    with pytest.raises(ConfigError, match="is_complex: the affine hull test "
                                          "takes real points"):
        run_command("hull", cfg)
    path = tmp_path / "k.txt"
    path.write_text("0,0,0,0\n1,5,0,0\n", encoding="utf-8")
    file_cfg = {"kind": "affine", "is_complex": True, "dimension": 2,
                "points_file": str(path), "queries": [[0.5, 0.0]]}
    with pytest.raises(ConfigError, match="is_complex: the affine hull test"):
        run_command("hull", file_cfg)


HULL_SQUARE = {"kind": "affine", "points": [[0, 0], [1, 0], [1, 1]],
               "queries": [[0.5, 0.5]]}


@pytest.mark.parametrize("command, cfg, message", [
    ("classify", dict(BALL_CFG, samples="abc"), "samples: expected an integer"),
    ("classify", dict(BALL_CFG, samples=0), "samples: must be at least 1"),
    ("reinhardt", dict(HARTOGS_CFG, trials=0),
     "trials: unknown key for command 'reinhardt'"),
    ("log-distance-probe", dict(HARTOGS_CFG, trials=0), "trials: must be at least 1"),
    ("psh-test", {"domain": BALL_CFG["domain"], "expression": "abs2(z1)",
                  "mode": "circle", "quadrature": 0},
     "quadrature: must be at least 1"),
    ("hull", dict(HULL_SQUARE, functionals=0), "functionals: must be at least 1"),
    ("hull", dict(HULL_SQUARE, degree=0), "degree: must be at least 1"),
    ("hull", dict(HULL_SQUARE, random_count=-1), "random_count: must be at least 0"),
    ("disc-probe", {"domain": BALL_CFG["domain"],
                    "disc_family": {"variant": "hartogs", "r": 0.5, "j_min": 0}},
     "disc_family.j_min: must be at least 1"),
    ("disc-probe", {"domain": BALL_CFG["domain"],
                    "disc_family": {"variant": "hartogs", "r": 0.5, "j_min": 5,
                                    "j_max": 3}},
     "disc_family.j_max: must be at least 5"),
    ("disc-probe", {"domain": {"variant": "ball", "dimension": 1, "center": [[0.0, 0.0]],
                               "radius": 1.0},
                    "disc_family": {"variant": "hartogs"}},
     "disc_family.variant: a hartogs family needs at least two complex variables, "
     "and the domain has dimension 1"),
    ("exhaustion", {"domain": BALL_CFG["domain"], "sequences": 0},
     "sequences: must be at least 1"),
    ("derivative-selftest", {"samples": 0}, "samples: must be at least 1"),
    ("psh-test", {"domain": BALL_CFG["domain"], "expression": "abs2(z1)",
                  "mode": "spectral", "quadrature": "abc"},
     "quadrature: expected an integer"),
])
def test_count_fields_must_be_positive_integers(command, cfg, message):
    with pytest.raises(ConfigError, match=message):
        run_command(command, cfg)


@pytest.mark.parametrize("command, cfg, message", [
    ("classify", dict(BALL_CFG, seed="x"), "seed: expected an integer"),
    ("classify", dict(BALL_CFG, seed=-1), "seed: must be at least 0"),
    ("reinhardt", dict(HARTOGS_CFG, seed=None), "seed: expected an integer"),
    ("log-distance-probe", dict(HARTOGS_CFG, tol="x"), "tol: expected a number"),
    ("derivative-selftest", {"tol": [1e-6]}, "tol: expected a number"),
    ("exhaustion", {"domain": BALL_CFG["domain"], "workers": "two"},
     "workers: expected an integer"),
    ("classify", dict(BALL_CFG, workers=0), "workers: must be at least 1"),
    ("classify", dict(BALL_CFG, tol_grad="x"), "tol_grad: expected a number"),
    ("classify", dict(BALL_CFG, tol_eig=[0]), "tol_eig: expected a number"),
    ("hull", {"kind": "affine", "is_complex": False, "dimension": "two",
              "points_file": "k.txt", "queries": [[0.5, 0.5]]},
     "dimension: expected an integer"),
    ("disc-probe", {"domain": BALL_CFG["domain"],
                    "disc_family": {"variant": "hartogs", "dimension": "two"}},
     "disc_family.dimension: expected an integer"),
    ("disc-probe", {"domain": BALL_CFG["domain"],
                    "disc_family": {"variant": "hartogs", "r": "x"}},
     "disc_family.r: expected a number"),
    ("disc-probe", {"domain": BALL_CFG["domain"],
                    "disc_family": {"variant": "affine_sweep",
                                    "from_center": [[0, 0], [0, 0]],
                                    "to_center": [[0.5, 0], [0, 0]],
                                    "direction": [[0, 0], [1, 0]],
                                    "radius": "wide"}},
     "disc_family.radius: expected a number"),
])
def test_numeric_fields_must_be_numbers(command, cfg, message):
    with pytest.raises(ConfigError, match=message):
        run_command(command, cfg)


@pytest.mark.parametrize("command, cfg", [
    ("psh-test", {"domain": BALL_CFG["domain"], "expression": "abs2(z1)",
                  "mode": "circle"}),
    ("log-distance-probe", dict(HARTOGS_CFG)),
    ("exhaustion", {"domain": BALL_CFG["domain"]}),
])
def test_unknown_metric_is_a_config_error(command, cfg):
    with pytest.raises(ConfigError, match="metric: expected 'euclidean' or "
                                          "'linfty', got 'foo'"):
        run_command(command, dict(cfg, metric="foo"))


def test_numeric_fields_keep_their_echo():
    # YAML reads 1e-9 as a string; numbers are echoed as given
    report, _ = run_command("classify", dict(BALL_CFG, samples=5, tol="1e-9",
                                             tol_grad="1e-8", tol_eig=0))
    assert report["config"]["tol_grad"] == 1e-8
    assert json.dumps(report["config"]["tol_eig"]) == "0"
