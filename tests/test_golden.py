"""Golden byte gate: every case of tests/golden/generate.py against golden.json.

With the numpy version the file was made with, each case must match
exactly: canonical-bytes hash, exit code, ``verify`` outcome, verdict and
record count.  With another numpy version only the verdict, the exit code
and the ``verify`` outcome are compared.
"""

import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "golden"))
import generate  # noqa: E402

with open(generate.GOLDEN, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

EXACT = np.__version__ == GOLDEN["numpy"]
LOOSE_FIELDS = ("verdict", "exit_code", "verify")


def test_golden_file_lists_every_case():
    assert sorted(GOLDEN["cases"]) == sorted(generate.CASES)


@pytest.mark.parametrize("name", sorted(generate.CASES))
def test_golden_case(name):
    expected = GOLDEN["cases"][name]
    got = generate.run_case(name)
    if not EXACT:
        expected = {k: expected[k] for k in LOOSE_FIELDS}
        got = {k: got[k] for k in LOOSE_FIELDS}
    assert got == expected


def test_generate_names_the_cases_whose_entries_changed(tmp_path, monkeypatch, capsys):
    # error-only cases: their entries do not depend on the numpy version
    same, changed, new = "disc-unknown-variant", "psh-bad-mode", "classify-unknown-key"
    old = {"numpy": GOLDEN["numpy"],
           "cases": {same: GOLDEN["cases"][same], "gone": {},
                     changed: {**GOLDEN["cases"][changed], "records": 99}}}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(old), encoding="utf-8")
    monkeypatch.setattr(generate, "GOLDEN", str(path))
    monkeypatch.setattr(generate, "CASES", {n: generate.CASES[n] for n in (same, changed, new)})
    assert generate.main() == 0
    lines = capsys.readouterr().err.splitlines()[1:]
    assert lines == [f"new: {new}", f"changed: {changed}", "removed: gone"]
    assert sorted(json.loads(path.read_text(encoding="utf-8"))["cases"]) == sorted(
        (same, changed, new))
