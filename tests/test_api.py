"""Export consistency: every public name and every traced layer resolves,
the README example runs, and the package runs on numpy alone."""

import ast
import cmath
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import szegosew
from szegosew import verify

MODULES = ("config", "errors", "specialfn", "numerics", "epsilon", "rho",
           "modular", "oracle", "verify", "cli")
PIPELINE = ("specialfn", "numerics", "epsilon", "rho", "modular")
ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# the eval command of the README, run as a module
README_EVAL = ["-m", "szegosew.cli", "eval", "--scheme", "eps",
               "--tau1", "0.3,1.0", "--tau2", "0.1,1.2", "--eps", "0.01,0.02",
               "--alpha1", "0.17", "--beta1", "0.38", "--alpha2", "0.07",
               "--beta2=-0.29", "--points", "1:0.4,1.1,2:0.2,2.0"]


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


def test_no_public_callable_takes_a_config():
    # tolerances are module constants, read where their check is made
    takes_cfg = []
    for name in MODULES:
        module = importlib.import_module(f"szegosew.{name}")
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            members = [obj] + ([v for v in vars(obj).values() if callable(v)]
                               if inspect.isclass(obj) else [])
            for fn in members:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue
                if "cfg" in params:
                    takes_cfg.append(f"{name}.{attr}")
    assert not takes_cfg
    assert not hasattr(szegosew, "NumericConfig")
    assert not hasattr(szegosew, "DEFAULT_CONFIG")


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


def test_pipeline_reads_no_q_series():
    # the two-tori C and the self-sewn-torus G read their Laurent data
    # from the theta stage of specialfn; the twisted Eisenstein q-series
    # is an oracle for the tests and verify, and rho sums no theta of its
    # own for that data
    src = ROOT / "src" / "szegosew"
    for name in ("epsilon", "rho"):
        assert "eisenstein_twisted" not in (src / f"{name}.py").read_text()
    assert "_theta_sums" not in (src / "rho.py").read_text()


def _oracle_imports(tree):
    """(enclosing function or None, line) of every import of the oracle
    module in a parsed module, at any depth."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ImportFrom):
                names = [child.module or ""] + [
                    f"{child.module or ''}.{a.name}" for a in child.names]
            elif isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            else:
                names = []
            if any(n.split(".")[-1] == "oracle" for n in names):
                found.append((func, child.lineno))
            visit(child, func)
    visit(tree, None)
    return found


def test_pipeline_does_not_import_the_oracle():
    # the independent routes live in oracle, which no pipeline module
    # imports at module level; the two quadrature shims of TorusMoments,
    # which the benchmark still traces, import it inside the method
    src = ROOT / "src" / "szegosew"
    imports = {name: _oracle_imports(ast.parse(
        (src / f"{name}.py").read_text())) for name in PIPELINE}
    assert all(func is not None for found in imports.values()
               for func, _ in found)
    assert sorted(func for found in imports.values() for func, _ in found) \
        == ["h_vector", "hbar_vector"]
    assert [name for name, found in imports.items() if found] == ["rho"]
    moved = ("torus_contours", "p1_series", "theta_char", "circle_nodes",
             "build_q")
    assert not [(name, f) for name in PIPELINE for f in moved
                if hasattr(importlib.import_module(f"szegosew.{name}"), f)]
    rho = importlib.import_module("szegosew.rho")
    params = inspect.signature(rho.TorusMoments).parameters
    assert "radius_scale" not in params


@pytest.mark.parametrize("context", ["EpsilonContext", "RhoTorusContext",
                                     "RhoSphereContext"])
def test_contexts_share_the_evaluation_interface(context):
    # kernel is the 1x1 case of kernel_matrix; the sphere context builds
    # its closed-form moment rows itself, with no moments record
    cls = getattr(szegosew, context)
    assert all(callable(getattr(cls, m, None))
               for m in ("kernel_matrix", "kernel", "det"))
    rho = importlib.import_module("szegosew.rho")
    assert not any(hasattr(rho, name)
                   for name in ("SphereMoments", "sphere_moments", "h_vector",
                                "TorusBaseKernel"))


def _context_args(context):
    """Positional arguments of each context before N (and M)."""
    if context == "EpsilonContext":
        chars, moduli, _ = verify._eps_setup()
        return chars, moduli
    if context == "RhoTorusContext":
        return verify._rho_torus_setup()
    _, _, handle, moduli = verify._sphere_setups()[0]
    return handle, moduli


@pytest.mark.parametrize("context,orders,message", [
    ("EpsilonContext", (16.0,), "order must be >= 1"),
    ("RhoSphereContext", (24.0,), "order must be >= 1"),
    ("RhoTorusContext", (12.0, 64), "order must be >= 1"),
    ("RhoTorusContext", (12, 64.0), "need at least 8 quadrature points"),
    ("RhoTorusContext", (12, 4), "need at least 8 quadrature points")])
def test_float_orders_rejected(context, orders, message):
    # N and M pass one check (numerics.check_count): a float, or an M
    # below 8, is a DomainError with the count's own message
    with pytest.raises(szegosew.DomainError, match=re.escape(message)):
        getattr(szegosew, context)(*_context_args(context), *orders)


@pytest.mark.parametrize("context,orders", [
    ("EpsilonContext", (np.int64(16),)), ("RhoSphereContext", (np.int64(24),)),
    ("RhoTorusContext", (np.int64(12), np.int64(64)))])
def test_numpy_integer_orders_accepted(context, orders):
    ctx = getattr(szegosew, context)(*_context_args(context), *orders)
    assert ctx.n_order == orders[0] and cmath.isfinite(ctx.det())


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                        re.S)
    assert blocks
    for block in blocks:
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
    assert cmath.isfinite(namespace["s"])


def _imported_modules(args):
    """Every module a fresh interpreter imports to run ``python args``."""
    package_dir = str(Path(szegosew.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (package_dir,
                                         os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=path))
    return [line.rsplit("|", 1)[1].strip() for line in run.stderr.splitlines()
            if line.startswith("import time:")]


@pytest.mark.parametrize("args", [["-c", "import szegosew"], README_EVAL],
                         ids=["import", "cli-eval"])
def test_runs_without_scipy(args):
    modules = _imported_modules(args)
    assert "szegosew" in modules
    assert [m for m in modules if m.startswith("scipy")] == []
