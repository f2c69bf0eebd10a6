"""Symbolic-vs-finite-difference derivative self-test over the corpus.

First derivatives check the symbolic engine against finite differences of
the function itself; mixed and unmixed second derivatives check the second
symbolic level against finite differences of the first symbolic level.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import expr as ex
from . import fd
from .corpus import CORPUS, corpus_points


@dataclass(frozen=True)
class ExprCheck:
    text: str
    dimension: int
    points: int
    derivatives_checked: int
    max_rel_error: float
    worst_case: str


@dataclass(frozen=True)
class SelfTestResult:
    checks: tuple
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tolerance


def _rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def run_selftest(points_per_expr: int = 50, seed: int = 0,
                 tolerance: float = 1e-6) -> SelfTestResult:
    checks = []
    overall = 0.0
    for idx, (text, n, guard) in enumerate(CORPUS):
        f = ex.parse(text, n)
        pts = corpus_points(guard, n, points_per_expr, seed + idx)
        # (label, function, symbolic tree, k, conj): each first derivative
        # of f, then d/dz_k and d/dzbar_k of each d/dz_j f
        firsts = {(j, c): ex.wirtinger(f, j, c) for j in range(1, n + 1)
                  for c in (False, True)}
        derivatives = [(f"d{'bar' if c else ''}z{j}", f, tree, j, c)
                       for (j, c), tree in firsts.items()]
        derivatives += [(f"d2 z{j} {'bar' if c else ''}z{k}", firsts[j, False],
                         ex.wirtinger(firsts[j, False], k, c), k, c)
                        for j in range(1, n + 1) for k in range(1, n + 1)
                        for c in (True, False)]
        worst = 0.0
        worst_case = ""
        for z in pts:
            for label, fn, tree, k, conj in derivatives:
                err = _rel_err(ex.evaluate(tree, z), fd.wirtinger_fd(fn, z, k, conj))
                if err > worst:
                    worst = err
                    worst_case = f"{label} at {tuple(z)}"
        checks.append(ExprCheck(text, n, len(pts), len(pts) * len(derivatives),
                                worst, worst_case))
        overall = max(overall, worst)
    return SelfTestResult(tuple(checks), overall, tolerance)
