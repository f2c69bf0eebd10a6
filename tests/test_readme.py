"""The README's library quick start runs and prints what its comments say,
and its count of golden cases is the number stored."""

import json
import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"
VERDICTS = ["StrictlyPseudoconvex", "LeviPseudoconvexOnly", "NotPseudoconvex",
            "NotDomainOfHolomorphy"]


def test_quick_start_prints_the_identity_and_the_commented_verdicts(capsys):
    block, = re.findall(r"^```python\n(.*?)^```",
                        README.read_text(encoding="utf-8"), re.M | re.S)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert "\n".join(lines[:2]) == str(np.eye(2, dtype=complex))
    assert lines[2:] == VERDICTS
    assert all(f"# {verdict}" in block for verdict in VERDICTS)


def test_golden_case_count_is_the_number_of_stored_cases():
    count, = re.findall(r"golden byte gate re-runs (\d+) ", README.read_text(encoding="utf-8"))
    golden = README.parent / "tests" / "golden" / "golden.json"
    assert int(count) == len(json.loads(golden.read_text(encoding="utf-8"))["cases"])
