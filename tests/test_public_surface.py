"""The package's public surface: what ``levikit`` exports, and what is gone."""

import ast
import importlib
import inspect

import pytest

import levikit
from levikit import calculus, classify, domains

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


def test_levi_matrix_has_no_quadratic_form():
    assert not hasattr(calculus.LeviMatrix, "quadratic_form")


def test_every_export_resolves_to_its_module_object():
    exports = _exports()
    assert len(exports) == len({name for _, name in exports})
    for module_name, name in exports:
        module = importlib.import_module(f"levikit.{module_name}")
        assert getattr(levikit, name) is getattr(module, name)
