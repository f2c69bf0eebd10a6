"""The package's public surface: what ``levikit`` exports, and what is gone."""

import ast
import importlib
import inspect

import pytest

import levikit
from levikit import calculus, classify, discs, domains, expr, hulls, modulus

# library code that no command reached, deleted with its tests
REMOVED = [
    (classify, "convexity_point_check"),
    (classify, "ConvexityVerdict"),
    (classify, "strict_psh_test"),
    (classify, "StrictPshVerdict"),
    (classify, "levilemma_diagnostic"),
    (classify, "LeviLemmaEstimate"),
    (calculus, "levi_form"),
    (calculus, "real_gradient"),
    (calculus, "real_hessian_matrix"),
    (calculus, "real_hessian_form"),
    (calculus, "herm"),
    (domains, "interior_sample_rng"),
    # result types that only echoed their input, and test-only library code
    (calculus, "ComplexGradient"),
    (calculus, "LeviMatrix"),
    (calculus, "TangentBasis"),
    (calculus, "restricted_levi_matrix"),
    (hulls, "PointSet"),
    (hulls, "real_points"),
    (hulls, "complex_points"),
    (expr, "is_real_valued"),
    (expr, "RealValueCheck"),
    (discs, "disc_eval"),
    # the one-point copies of the sublevel geometry, and of the hull modulus,
    # that the row batches replaced
    (domains, "_step"),
    (domains, "_bisect_level"),
    (domains.Sublevel, "_march"),
    (domains.Sublevel, "_reproject_to_level"),
    (domains.Sublevel, "_foot_point"),
    (domains.Sublevel, "_gradient"),
    (hulls, "_modulus_at"),
    # the closed-form exhaustion paths: every function runs on point paths
    (domains, "approach_paths"),
    (domains, "_face_paths"),
    (domains.Domain, "approach_paths"),
    (domains.Ball, "approach_paths"),
    (domains.Polydisc, "approach_paths"),
    (domains.ReinhardtUnion, "approach_paths"),
    (domains.WholeSpace, "approach_paths"),
    # the per-point twins of the row programs: every function runs its rows
    (expr, "as_real_function"),
    (classify, "_rows"),
    (calculus, "_second_derivatives"),
    (calculus, "_row_errors"),
    # the scalar program beside the row form, and the one-point modulus
    # searches that the lockstep batches replaced
    (expr, "_OPS"),
    (expr, "_fail"),
    (expr, "_beyond_dimension"),
    (modulus, "_bracketed_root"),
    (modulus.ModulusGeometry, "_contact_point"),
    # the circle probe draws each chunk from one generator: no rejection
    # loop over a list of generators
    (domains, "interior_points"),
    (domains.Domain, "_interior_rows"),
    # one disc class: Hartogs and exp-twisted discs are labelled affine discs
    (discs, "HartogsDisc"),
    (discs, "ExpTwistedDisc"),
]


def _exports():
    """(module name, name) for every ``from .module import name`` of
    ``levikit/__init__.py``."""
    tree = ast.parse(inspect.getsource(levikit))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module, name", REMOVED,
                         ids=[f"{m.__name__}.{n}" for m, n in REMOVED])
def test_removed_names_are_gone(module, name):
    assert not hasattr(module, name)
    assert not hasattr(levikit, name)


def test_every_export_resolves_to_its_module_object():
    exports = _exports()
    assert len(exports) == len({name for _, name in exports})
    for module_name, name in exports:
        module = importlib.import_module(f"levikit.{module_name}")
        assert getattr(levikit, name) is getattr(module, name)
