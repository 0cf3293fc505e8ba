"""Operations, correctness checks and the three workloads.

An operation is one timed call sequence into the library; its check runs
afterwards, outside the timed span, and compares the outputs against a
second route:

* two-tori (eps): det(I - Q) on the 2N block against the library's
  det(I - F1 F2), and skew symmetry S[c](x,y) = -S[c^-1](y,x) against a
  context with inverted twists;
* self-sewn torus (rho): skew symmetry against the inverse-twist context;
* sphere: the sewn genus-one value against the exact q-series P1.

Each workload is a stream of passes, each pass a fixed interleaved list
of operations, so every latency sample of one kind has the same cost
class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import inputs

EPS_ORDERS = (16, 32, 64)
RHO_ORDERS = ((12, 64), (16, 128))
SPHERE_ORDER = 24
GRID_EPS_ORDER = 16
GRID_RHO_ORDER = (12, 64)
GRID_SIZE = 16
GRID_CONTEXTS = 8
SWEEP_RHO_OPS = 2             # rho ops per eps op in a sweep pass
SWEEP_SPHERE_OPS = 4          # sphere ops per eps op in a sweep pass
VERIFY_PINNED_CYCLES = 8      # pinned eps/rho/sphere ops per verify pass

# Cross-route tolerances.  Observed residuals sit near 1e-13; a relative
# perturbation of 1e-6 of any output must fail its check.
EPS_DET_TOL = 1e-9
EPS_SKEW_TOL = 1e-9
RHO_SKEW_TOL = 1e-8
SPHERE_TOL = 1e-8
DIGITS_CAP = 16.0


@dataclass
class Sizes:
    """Problem sizes; `quick()` shrinks every workload for the self-test."""

    eps_orders: tuple = EPS_ORDERS
    rho_orders: tuple = RHO_ORDERS
    sphere_order: int = SPHERE_ORDER
    grid_eps_order: int = GRID_EPS_ORDER
    grid_rho_order: tuple = GRID_RHO_ORDER
    grid_size: int = GRID_SIZE
    grid_contexts: int = GRID_CONTEXTS
    sweep_rho_ops: int = SWEEP_RHO_OPS
    sweep_sphere_ops: int = SWEEP_SPHERE_OPS
    verify_cycles: int = VERIFY_PINNED_CYCLES
    verify_suites: tuple | None = None      # None: every suite of run_all()

    @classmethod
    def quick(cls) -> "Sizes":
        return cls(eps_orders=(4, 8), rho_orders=((4, 32),),
                   grid_eps_order=4, grid_rho_order=(4, 32), grid_size=2,
                   grid_contexts=1, sweep_rho_ops=1, sweep_sphere_ops=1,
                   verify_cycles=1,
                   verify_suites=("dehn", "det-identity"))


@dataclass
class Check:
    """Checked results of one operation.

    Each entry is (name, relative residual, tolerance, ok); ``ok`` is
    residual < tolerance unless the caller passes its own verdict.
    """

    entries: list = field(default_factory=list)

    def add(self, name: str, residual: float, tol: float,
            ok: bool | None = None) -> None:
        residual = float(residual)
        if ok is None:
            ok = math.isfinite(residual) and residual < tol
        self.entries.append((name, residual, float(tol), bool(ok)))

    @property
    def failed(self) -> list:
        return [e for e in self.entries if not e[3]]

    def digits(self) -> float:
        """Smallest -log10(residual) over the entries, capped."""
        worst = max((e[1] for e in self.entries), default=0.0)
        if not math.isfinite(worst):
            return 0.0
        return min(DIGITS_CAP, -math.log10(max(worst, 10.0 ** -DIGITS_CAP)))

    def margin_digits(self) -> float:
        """Smallest log10(tolerance / residual) over the entries, capped."""
        best = DIGITS_CAP
        for _, res, tol, _ in self.entries:
            if not math.isfinite(res):
                return 0.0
            if res > 0:
                best = min(best, math.log10(tol / res))
        return best


@dataclass
class Op:
    """One timed operation.

    ``run()`` calls the library and returns its outputs; ``check(out)``
    returns a Check; ``units`` is the number of results the operation
    counts for (four kernel values on ``grid``), or 0 to count one per
    checked entry (the checks of a verify pass).  ``group`` is the
    prebuilt context a ``grid`` operation uses.
    """

    kind: str
    run: Callable
    check: Callable
    units: int = 1
    inputs: object = None
    group: int = 0


def rel(a: complex, b: complex) -> float:
    """|a - b| / |b|, the relative distance between two routes."""
    return abs(complex(a) - complex(b)) / abs(complex(b))


def skew(v: complex, v_inv: complex) -> float:
    """Skew-symmetry residual |S[c](x,y) + S[c^-1](y,x)| / |S[c](x,y)|."""
    return abs(complex(v) + complex(v_inv)) / abs(complex(v))


# ----------------------------------------------------------------------
# library objects from generated inputs
# ----------------------------------------------------------------------

def eps_objects(lib, cfg: inputs.EpsConfig):
    chars = lib.GenusTwoCharacteristicsEps(lib.TwistPair(*cfg.tw1),
                                           lib.TwistPair(*cfg.tw2))
    moduli = lib.EpsilonModuli.create(cfg.tau1, cfg.tau2, cfg.epsilon)
    return chars, moduli


def rho_objects(lib, cfg: inputs.RhoConfig):
    tw1 = lib.TwistPair(*cfg.tw1)
    handle = lib.HandleTwist(*cfg.handle)
    moduli = lib.RhoModuliTorus.create(cfg.tau, cfg.w, cfg.rho)
    return tw1, handle, moduli


def rho_inverse(lib, tw1, handle):
    return tw1.inverse(), lib.HandleTwist(-handle.alpha, -handle.beta)


# ----------------------------------------------------------------------
# operation kinds
# ----------------------------------------------------------------------

def eps_op(lib, cfg, pairs, orders, index: int) -> Op:
    """Contexts at each order with det() and one value per label pair.

    The check compares every determinant with det(I - Q) on the 2N block
    and, rotating through orders and pairs by `index`, one value with the
    inverse-twist context.
    """
    def run():
        chars, moduli = eps_objects(lib, cfg)
        pts = [(lib.SurfacePoint(*x), lib.SurfacePoint(*y)) for x, y in pairs]
        out = []
        for n in orders:
            ctx = lib.EpsilonContext(chars, moduli, n)
            out.append((ctx, ctx.det(), [ctx.kernel(x, y) for x, y in pts]))
        return chars, moduli, pts, out

    def check(result) -> Check:
        chars, moduli, pts, out = result
        chk = Check()
        for ctx, det, _ in out:
            f1, f2 = ctx.f_block(1), ctx.f_block(2)
            n = f1.shape[0]
            q = np.zeros((2 * n, 2 * n), dtype=complex)
            q[:n, n:] = moduli.xi * f1
            q[n:, :n] = -moduli.xi * f2
            chk.add(f"eps det N={n}", rel(det, np.linalg.det(np.eye(2 * n) - q)),
                    EPS_DET_TOL)
        ctx, _, vals = out[index % len(out)]
        k = (index // len(out)) % len(pts)
        x, y = pts[k]
        inv = lib.EpsilonContext(chars.inverse(), moduli, ctx.n_order)
        chk.add(f"eps skew N={ctx.n_order} pair={k}",
                skew(vals[k], inv.kernel(y, x)), EPS_SKEW_TOL)
        return chk

    return Op("eps", run, check, inputs=(cfg, pairs))


def rho_op(lib, cfg, pairs, orders, index: int) -> Op:
    """Contexts at each (N, M) with det() and one value per point pair."""
    def run():
        tw1, handle, moduli = rho_objects(lib, cfg)
        out = []
        for n, m in orders:
            ctx = lib.RhoTorusContext(tw1, handle, moduli, n, m)
            out.append((ctx, ctx.det(), [ctx.kernel(x, y) for x, y in pairs]))
        return tw1, handle, moduli, out

    def check(result) -> Check:
        tw1, handle, moduli, out = result
        chk = Check()
        ctx, _, vals = out[index % len(out)]
        k = (index // len(out)) % len(pairs)
        x, y = pairs[k]
        inv = lib.RhoTorusContext(*rho_inverse(lib, tw1, handle), moduli,
                                  ctx.n_order, ctx.moments.m_points)
        chk.add(f"rho skew N={ctx.n_order} pair={k}",
                skew(vals[k], inv.kernel(y, x)), RHO_SKEW_TOL)
        return chk

    return Op("rho", run, check, inputs=(cfg, pairs))


def sphere_values(lib, cfg, pairs, order):
    handle = lib.HandleTwist(*cfg.handle)
    moduli = lib.RhoModuliSphere.create(cfg.q)
    vals = [lib.torus_from_sphere(handle, np.exp(lx), np.exp(ly), moduli, order,
                                  log_x=lx, log_y=ly) for lx, ly in pairs]
    return handle, moduli, vals


def sphere_check(lib, pairs, result) -> Check:
    """Half-form converted values against the exact q-series P1."""
    handle, moduli, vals = result
    chk = Check()
    for (lx, ly), v in zip(pairs, vals):
        oracle = lib.p1_series(handle, lx - ly, moduli.tau)
        chk.add("sphere oracle", rel(v * np.exp(0.5 * (lx + ly)), oracle),
                SPHERE_TOL)
    return chk


def sphere_op(lib, cfg, pairs, order) -> Op:
    return Op("sphere",
              lambda: sphere_values(lib, cfg, pairs, order),
              lambda result: sphere_check(lib, pairs, result),
              inputs=(cfg, pairs))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    """A seeded stream of passes plus the set-up a user pays first.

    ``setup()`` builds whatever the timed phase reuses and runs one
    warm-up operation of each kind; ``passes()`` yields lists of Ops.
    Each pass draws its inputs from its own child generator, so pass p is
    the same for a given seed however far a run gets.
    """

    name = ""
    trace_passes = 1
    # Tail percentiles of the eps and rho latencies: the highest with at
    # least ten samples beyond them at this workload's sample counts, fixed
    # so that a faster or slower library is compared at the same ones.
    tail_percentile = {"eps": 50.0, "rho": 50.0}

    def __init__(self, lib, seed: int, sizes: Sizes) -> None:
        self.lib = lib
        self.seed = seed
        self.sizes = sizes

    def rng(self, *key) -> np.random.Generator:
        return np.random.default_rng([self.seed, *key])

    def setup(self) -> None:
        first = self.make_pass(0)
        for op in {op.kind: op for op in first}.values():
            op.run()

    def make_pass(self, p: int) -> list:
        raise NotImplementedError

    def passes(self):
        p = 0
        while True:
            yield self.make_pass(p)
            p += 1


class Sweep(Workload):
    """Scan moduli: fresh configurations, contexts, det and a few values.

    A pass holds one eps, two rho and four sphere operations; rho costs
    vary most between configurations, so it gets the most samples.
    """

    name = "sweep"
    trace_passes = 4
    tail_percentile = {"eps": 75.0, "rho": 90.0}

    def make_pass(self, p: int) -> list:
        lib, s = self.lib, self.sizes
        rng = self.rng(1, p)
        ecfg = inputs.draw_eps_config(rng)
        ops = [eps_op(lib, ecfg, inputs.eps_label_pairs(rng, ecfg),
                      s.eps_orders, p)]
        for r in range(s.sweep_rho_ops):
            rcfg = inputs.draw_rho_config(rng)
            rpairs = []
            for _ in range(2):
                x = inputs.rho_points(rng, rcfg, 1, 1)[0]
                rpairs.append((x, inputs.rho_points(rng, rcfg, 2, 1, [x])[0]))
            ops.append(rho_op(lib, rcfg, rpairs, s.rho_orders,
                              p * s.sweep_rho_ops + r))
        for _ in range(s.sweep_sphere_ops):
            scfg = inputs.draw_sphere_config(rng)
            spairs = []
            for _ in range(4):
                lx = inputs.sphere_log_points(rng, scfg, 1, inputs.X_BAND)[0]
                spairs.append((lx, inputs.sphere_log_points(
                    rng, scfg, 1, inputs.Y_BAND)[0]))
            ops.append(sphere_op(lib, scfg, spairs, s.sphere_order))
        return ops


class Grid(Workload):
    """Kernel values on 16x16 point grids over prebuilt contexts.

    A grid has 8 x-points and 8 y-points per torus label (per puncture
    side for rho, per radial band pair for the sphere).  One operation
    evaluates the four values S(x_a[i], y_b[j]) for the label combinations
    (a, b), so every latency sample mixes same-label and cross-label
    values in the same proportion; it counts as four values, and 64
    operations cover the grid's 256 values.  Grid p of each scheme uses
    context p mod GRID_CONTEXTS; the contexts' moduli are drawn
    independently, which averages the cost differences between moduli
    within a run.
    """

    name = "grid"
    tail_percentile = {"eps": 95.0, "rho": 95.0}

    def setup(self) -> None:
        lib, s = self.lib, self.sizes
        rng = self.rng(2)
        self.eps, self.rho = [], []
        for _ in range(s.grid_contexts):
            cfg = inputs.draw_eps_config(rng)
            chars, moduli = eps_objects(lib, cfg)
            ctx = lib.EpsilonContext(chars, moduli, s.grid_eps_order)
            self.eps.append((cfg, ctx))
            cfg = inputs.draw_rho_config(rng)
            tw1, handle, moduli = rho_objects(lib, cfg)
            n, m = s.grid_rho_order
            self.rho.append((cfg, lib.RhoTorusContext(tw1, handle, moduli, n, m)))
        self.sphere = [inputs.draw_sphere_config(rng)
                       for _ in range(s.grid_contexts)]
        first = self.make_pass(0)
        # context warm-up: the first value of each label combination
        # triggers that combination's cached solve
        for k in range(1, s.grid_contexts):
            self._eps_quad(k, *self._eps_grid(self.rng(2, 0, k), k), 0, 0).run()
            self._rho_quad(k, *self._rho_grid(self.rng(2, 0, k), k), 0, 0).run()
        for op in {op.kind: op for op in first}.values():
            op.run()

    def build_check_contexts(self) -> None:
        """Inverse-twist contexts for the skew checks (not part of set-up)."""
        lib, s = self.lib, self.sizes
        self.eps_inv = [lib.EpsilonContext(ctx.chars.inverse(), ctx.moduli,
                                           ctx.n_order) for _, ctx in self.eps]
        self.rho_inv = [lib.RhoTorusContext(*rho_inverse(lib, ctx.tw1, ctx.handle),
                                            ctx.moduli, ctx.n_order,
                                            ctx.moments.m_points)
                        for _, ctx in self.rho]

    def _eps_grid(self, rng, k):
        cfg = self.eps[k][0]
        g = self.sizes.grid_size // 2
        xs = {a: [z for _, z in inputs.eps_points(rng, cfg, a, g)] for a in (1, 2)}
        ys = {a: [z for _, z in inputs.eps_points(
            rng, cfg, a, g, [(a, z) for z in xs[a]])] for a in (1, 2)}
        return xs, ys

    def _rho_grid(self, rng, k):
        cfg = self.rho[k][0]
        g = self.sizes.grid_size // 2
        xs = {a: inputs.rho_points(rng, cfg, a, g) for a in (1, 2)}
        avoid = xs[1] + xs[2]
        ys = {a: inputs.rho_points(rng, cfg, a, g, avoid) for a in (1, 2)}
        return xs, ys

    def _sphere_grid(self, rng, k):
        cfg = self.sphere[k]
        g = self.sizes.grid_size // 2
        xs = {a: inputs.sphere_log_points(rng, cfg, g, inputs.X_BAND)
              for a in (1, 2)}
        ys = {a: inputs.sphere_log_points(rng, cfg, g, inputs.Y_BAND)
              for a in (1, 2)}
        return xs, ys

    def _eps_quad(self, k, xs, ys, i, j) -> Op:
        lib = self.lib
        ctx = self.eps[k][1]
        pts = [(lib.SurfacePoint(a, xs[a][i]), lib.SurfacePoint(b, ys[b][j]))
               for a, b in inputs.LABEL_PAIRS]

        def check(vals):
            chk = Check()
            inv = self.eps_inv[k]
            for (x, y), v in zip(pts, vals):
                chk.add("eps grid skew", skew(v, inv.kernel(y, x)), EPS_SKEW_TOL)
            return chk
        return Op("eps", lambda: [ctx.kernel(x, y) for x, y in pts],
                  check, units=4, inputs=(k, pts), group=k)

    def _rho_quad(self, k, xs, ys, i, j) -> Op:
        ctx = self.rho[k][1]
        pts = [(xs[a][i], ys[b][j]) for a, b in inputs.LABEL_PAIRS]

        def check(vals):
            chk = Check()
            inv = self.rho_inv[k]
            for (x, y), v in zip(pts, vals):
                chk.add("rho grid skew", skew(v, inv.kernel(y, x)), RHO_SKEW_TOL)
            return chk
        return Op("rho", lambda: [ctx.kernel(x, y) for x, y in pts],
                  check, units=4, inputs=(k, pts), group=k)

    def _sphere_quad(self, k, xs, ys, i, j) -> Op:
        pairs = [(xs[a][i], ys[b][j]) for a, b in inputs.LABEL_PAIRS]
        op = sphere_op(self.lib, self.sphere[k], pairs, self.sizes.sphere_order)
        op.units, op.group = 4, k
        return op

    def make_pass(self, p: int) -> list:
        """One 16x16 grid per scheme, the grids' (i, j) quads interleaved."""
        k = p % self.sizes.grid_contexts
        rng = self.rng(2, 1, p)
        grids = [(self._eps_quad, self._eps_grid(rng, k)),
                 (self._rho_quad, self._rho_grid(rng, k)),
                 (self._sphere_quad, self._sphere_grid(rng, k))]
        g = self.sizes.grid_size // 2
        return [make(k, xs, ys, i, j)
                for i in range(g) for j in range(g)
                for make, (xs, ys) in grids]


class Verify(Workload):
    """The verify suites plus eps, rho and sphere ops at their pinned moduli.

    Seed-independent.  The pinned operations give the per-kind latencies
    at the configurations the verify suites use; the suites themselves
    exercise the modular actions and many short-lived contexts.
    """

    name = "verify"

    def setup(self) -> None:
        self.pinned_eps = inputs.pinned_eps()
        self.pinned_rho = inputs.pinned_rho()
        self.pinned_spheres = inputs.pinned_spheres()
        for op in self._pinned(0):
            op.run()

    def _pinned(self, c: int) -> list:
        lib, s = self.lib, self.sizes
        scfg, spairs = self.pinned_spheres[c % len(self.pinned_spheres)]
        return [eps_op(lib, *self.pinned_eps, s.eps_orders, c),
                rho_op(lib, *self.pinned_rho, s.rho_orders, c),
                sphere_op(lib, scfg, spairs, s.sphere_order)]

    def make_pass(self, p: int) -> list:
        """Every suite in run_all()'s order, then the pinned cycles.

        Each suite is timed on its own, as run_all() calls it, so the speed
        calibration brackets seconds rather than a whole run_all().
        """
        lib, n = self.lib, self.sizes.verify_cycles
        suites = self.sizes.verify_suites or lib.SUITE_NAMES
        ops = [Op("suite", (lambda name=name: lib.run_suite(name)),
                  verify_check, units=0, inputs=name) for name in suites]
        for c in range(n):
            ops.extend(self._pinned(p * n + c))
        return ops


def verify_check(report: dict) -> Check:
    """Each check's pass flag, and its residual against its tolerance.

    Slope and rate checks carry no residual; they contribute their pass
    flag only.
    """
    chk = Check()
    for c in report["checks"]:
        name = f"{report['suite']}: {c['name']}"
        if "residual" in c:
            chk.add(name, c["residual"], c["tolerance"],
                    ok=c["passed"] and c["residual"] < c["tolerance"])
        else:
            chk.add(name, 0.0, 1.0, ok=c["passed"])
    return chk


WORKLOADS = {w.name: w for w in (Sweep, Grid, Verify)}
