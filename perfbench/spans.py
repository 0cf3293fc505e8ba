"""Span tracing of the library's layer functions, from outside the package.

``Tracer.install()`` wraps each target function and rebinds it in every
``szegosew`` module namespace that holds it (a name imported with
``from .specialfn import p1_theta`` lives in several modules), and
replaces target methods on their classes.  ``uninstall()`` restores the
originals.  No library file changes.

Each span records name, start, end, parent span and operation id in
flat arrays that stay in memory; ``write()`` dumps them once the run
ends.  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans plus the time outside
every span add up to the traced wall time.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute) of every traced function.  Methods are
# given as "Class.method"; span names group several functions when the
# layer table treats them as one.
FUNCTIONS = (
    ("specialfn.eisenstein_twisted", "specialfn", "eisenstein_twisted"),
    ("specialfn.p_k_vector", "specialfn", "p_k_vector"),
    ("specialfn.p1_theta", "specialfn", "p1_theta"),
    ("specialfn.theta1", "specialfn", "theta1"),
    ("specialfn.K", "specialfn", "K"),
    ("specialfn.lattice_distance", "specialfn", "lattice_distance"),
    ("epsilon.min_lattice_distance", "epsilon", "min_lattice_distance"),
    ("epsilon.f_matrix", "epsilon", "f_matrix"),
    ("epsilon.EpsilonContext.init", "epsilon", "EpsilonContext.__init__"),
    ("epsilon.EpsilonContext.det", "epsilon", "EpsilonContext.det"),
    ("epsilon.EpsilonContext.kernel", "epsilon", "EpsilonContext.kernel"),
    ("rho.TorusMoments.init", "rho", "TorusMoments.__init__"),
    ("rho.log_a_torus", "rho", "log_a_torus"),
    ("rho.TorusMoments.h_vector", "rho", "TorusMoments.h_vector"),
    ("rho.TorusMoments.hbar_vector", "rho", "TorusMoments.hbar_vector"),
    ("rho.RhoTorusContext.kernel", "rho", "RhoTorusContext.kernel"),
    ("rho.torus_from_sphere", "rho", "torus_from_sphere"),
    ("numerics.lu_solve", "numerics", "lu_solve"),
    ("numerics.determinant", "numerics", "determinant"),
    ("modular.act", "modular", "act_eps_chars"),
    ("modular.act", "modular", "act_eps_moduli"),
    ("modular.act", "modular", "act_eps_point"),
    ("modular.act", "modular", "act_eps"),
    ("modular.act", "modular", "act_rho"),
    ("modular.act", "modular", "act_rho_point"),
    ("modular.residual", "modular", "invariance_residual"),
    ("modular.residual", "modular", "det_residual"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in FUNCTIONS))
VERIFY_SUITES = ("skew", "dehn", "modular-eps", "modular-rho",
                 "det-identity", "integral-eq", "degeneration", "convergence")


def lu_flops(fn_name: str, args) -> float:
    """Real flops of the complex LU work a call implies, from matrix sizes.

    Factorisation 8/3 n^3; each right-hand side adds two triangular
    solves, 8 n^2.  Condition estimates and residual checks are left out.
    """
    n = len(args[0])
    flops = 8.0 / 3.0 * n ** 3
    if fn_name == "lu_solve":
        b = args[1]
        nrhs = 1 if getattr(b, "ndim", 1) == 1 else b.shape[1]
        flops += 8.0 * n * n * nrhs
    return flops


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.error_type = package.SzegosewError
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_of = array("i")
        self.errors = defaultdict(int)
        self.lu_flops = 0.0
        self.op = -1
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def span(self, name: str, fn):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        flops = name in ("numerics.lu_solve", "numerics.determinant")
        fn_name = name.rsplit(".", 1)[1]

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name_of.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op_of.append(self.op)
            self.start.append(clock())
            self.end.append(0.0)
            stack.append(sid)
            try:
                if flops:
                    self.lu_flops += lu_flops(fn_name, args)
                return fn(*args, **kwargs)
            except self.error_type as exc:
                # count a typed error once, in the innermost span it leaves
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[name] += 1
                raise
            finally:
                stack.pop()
                self.end[sid] = clock()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record what could not be found."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "szegosew"
                                         or key.startswith("szegosew."))]
        self.missing = []
        for name, mod_name, attr in FUNCTIONS:
            module = sys.modules.get(f"szegosew.{mod_name}")
            owner, _, method = attr.rpartition(".")
            if owner:
                cls = getattr(module, owner, None)
                fn = cls.__dict__.get(method) if cls is not None else None
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._patches.append((cls, method, fn))
                setattr(cls, method, self.span(name, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self.span(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)
        self._wrap_suites()

    def _wrap_suites(self) -> None:
        verify = sys.modules["szegosew.verify"]
        run_suite = verify.run_suite
        wrapped = {name: self.span(f"verify.{name}", run_suite)
                   for name in VERIFY_SUITES}

        def dispatch(name, *args, **kwargs):
            return wrapped.get(name, run_suite)(name, *args, **kwargs)
        for mod in (verify, self.package):
            if getattr(mod, "run_suite", None) is run_suite:
                self._patches.append((mod, "run_suite", run_suite))
                setattr(mod, "run_suite", dispatch)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def summary(self, first: int, factors: list, wall: float) -> dict:
        """Calls, self and total time per span name, from span `first` on.

        Each span's duration is scaled by ``factors[op]`` of the operation
        it belongs to; ``wall`` is the scaled time of all operations, and
        ``outside_s`` the part of it no span covers.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        self_s = [0.0] * n_names
        child = defaultdict(float)
        top = 0.0
        last = len(self.start)
        dur = [(self.end[s] - self.start[s]) * factors[self.op_of[s]]
               for s in range(first, last)]
        for sid in range(first, last):
            d = dur[sid - first]
            par = self.parent[sid]
            if par >= first:
                child[par] += d
            else:
                top += d
        for sid in range(first, last):
            nid = self.name_of[sid]
            d = dur[sid - first]
            calls[nid] += 1
            total[nid] += d
            self_s[nid] += d - child.get(sid, 0.0)
        return {"calls": dict(zip(self.names, calls)),
                "self_s": dict(zip(self.names, self_s)),
                "total_s": dict(zip(self.names, total)),
                "outside_s": wall - top, "spans": last - first}

    def write(self, path) -> None:
        """Spans as gzip CSV: name, start, end, parent, op (times in s)."""
        with gzip.open(path, "wt") as out:
            out.write("span,name,start,end,parent,op\n")
            names, t0 = self.names, (self.start[0] if self.start else 0.0)
            for sid in range(len(self.start)):
                out.write(f"{sid},{names[self.name_of[sid]]},"
                          f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f},"
                          f"{self.parent[sid]},{self.op_of[sid]}\n")
