"""Export consistency: every public name and every traced layer resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import szegosew

MODULES = ("config", "errors", "specialfn", "numerics", "epsilon", "rho",
           "modular", "verify", "cli")
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_functions():
    """The FUNCTIONS table of the benchmark tracer, read without importing it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("no FUNCTIONS table in perfbench/spans.py")


def test_package_all_resolves():
    missing = [n for n in szegosew.__all__ if not hasattr(szegosew, n)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"szegosew.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_traced_layers_resolve():
    missing = []
    for _, mod_name, attr in _traced_functions():
        module = importlib.import_module(f"szegosew.{mod_name}")
        owner, _, method = attr.rpartition(".")
        if owner:
            # the tracer patches methods in the class dict, not inherited ones
            cls = getattr(module, owner, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{mod_name}.{attr}")
    assert not missing


@pytest.mark.parametrize("context", ["EpsilonContext", "RhoTorusContext",
                                     "RhoSphereContext"])
def test_contexts_share_the_evaluation_interface(context):
    # kernel is the 1x1 case of kernel_matrix; h/hbar vectors of the
    # sphere are gone in favour of its batched moment rows
    cls = getattr(szegosew, context)
    assert all(callable(getattr(cls, m, None))
               for m in ("kernel_matrix", "kernel", "det"))
    moments = importlib.import_module("szegosew.rho").SphereMoments
    assert not hasattr(moments, "h_vector")
    assert not hasattr(moments, "hbar_vector")
