"""Verification suites: identity, symmetry, and convergence checks.

Each suite runs a pinned desk-scale configuration of the sewing pipeline
and returns a JSON-ready report with one entry per check: name, measured
residual, tolerance, and pass flag.  The suites are shared between the
CLI ``verify`` subcommand and the acceptance tests, so the pinned
configurations below are the single source of truth for both.

Suites
------
skew          kernel skew-symmetry S[c](x,y) = -S[c^{-1}](y,x), all schemes
dehn          branch-flip invariance and sqrt-epsilon parity (eps scheme)
modular-eps   invariance under the two torus modular groups and the swap
modular-rho   invariance under the Heisenberg-type group and Gamma_1
det-identity  block-determinant identities of both schemes
integral-eq   contour integral equations and Laurent/Eisenstein extraction
degeneration  small-sewing-parameter limits and the sphere-sewing oracle
convergence   quadrature refinement, truncation decay, radius independence
"""

from __future__ import annotations

import math
import time

import numpy as np

from .epsilon import (EpsilonContext, EpsilonModuli, GenusTwoCharacteristicsEps,
                      SurfacePoint, epsilon_bound)
from .errors import DomainError
from .modular import (EpsGroupElement, RhoGroupElement, det_residual,
                      invariance_residual)
from .numerics import determinant, tail_estimate
from .oracle import (TorusQuadrature, build_q, circle_nodes, p1_series,
                     s_kappa_grid, torus_contours)
from .rho import (X_RADIUS_FACTOR, HandleTwist, RhoModuliSphere,
                  RhoModuliTorus, RhoSphereContext, RhoTorusContext,
                  TorusMoments, det_i_minus_t_sphere)
from .specialfn import (TorusModulus, TwistPair, eisenstein_theta,
                        eisenstein_twisted, lattice_distance, p1_theta)

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]

TWO_PI_I = 2j * np.pi

SUITE_NAMES = ("skew", "dehn", "modular-eps", "modular-rho", "det-identity",
               "integral-eq", "degeneration", "convergence")


# ----------------------------------------------------------------------
# pinned configurations
# ----------------------------------------------------------------------

def _eps_setup():
    t1, t2 = TorusModulus(0.3 + 1.0j), TorusModulus(0.1 + 1.2j)
    bound = epsilon_bound(t1, t2)
    moduli = EpsilonModuli.create(t1, t2, 0.02 * bound * np.exp(0.5j))
    chars = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                       TwistPair(0.07, -0.29))
    return chars, moduli, bound


def _eps_point(moduli: EpsilonModuli, which: int, u: float,
               v: float) -> SurfacePoint:
    tau = moduli.tau(which)
    return SurfacePoint(which, TWO_PI_I * (u + v * tau.tau))


def _eps_pairs(moduli: EpsilonModuli, count: int = 4):
    labels = ((1, 1), (1, 2), (2, 1), (2, 2))
    coords = [(0.23, 0.31, 0.67, 0.52), (0.41, 0.18, 0.33, 0.61),
              (0.72, 0.44, 0.15, 0.73), (0.58, 0.27, 0.19, 0.66),
              (0.31, 0.62, 0.77, 0.24), (0.49, 0.71, 0.26, 0.39),
              (0.64, 0.13, 0.42, 0.57), (0.17, 0.48, 0.55, 0.82),
              (0.36, 0.25, 0.81, 0.43), (0.68, 0.57, 0.29, 0.16),
              (0.22, 0.74, 0.63, 0.35), (0.53, 0.32, 0.38, 0.69),
              (0.45, 0.86, 0.71, 0.21), (0.78, 0.41, 0.24, 0.54),
              (0.34, 0.19, 0.59, 0.77), (0.61, 0.66, 0.47, 0.28)]
    out = []
    for i in range(count):
        a, b = labels[i % 4]
        u1, v1, u2, v2 = coords[i % len(coords)]
        out.append((_eps_point(moduli, a, u1, v1),
                    _eps_point(moduli, b, u2, v2)))
    return out


def _rho_torus_setup(rho_scale: float = 0.05):
    tau = TorusModulus(0.2 + 1.1j)
    w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
    moduli = RhoModuliTorus.create(
        tau, w, rho_scale * (float(lattice_distance(w, tau)) / 2.0) ** 2
        * np.exp(0.6j))
    tw1 = TwistPair(0.17, 0.38)
    handle = HandleTwist(0.1, -0.22)
    return tw1, handle, moduli


def _rho_torus_pairs(moduli: RhoModuliTorus, count: int = 4):
    tau = moduli.tau.tau
    # deterministic low-discrepancy candidates (u1, v1, u2, v2) in
    # lattice-basis coordinates, filtered against the sewing contours below
    steps = np.array([0.3819660112501051, 0.6180339887498949,
                      0.2548776662466927, 0.7548776662466927])
    coords = 0.05 + ((np.array([0.09, 0.53, 0.61, 0.12])
                      + steps * np.arange(400)[:, None]) % 1.0) * 0.9
    # the kernel takes no quadrature; 1.8x the x contour radius keeps
    # the pairs clear of the 1.5x contours of the integral equation
    margin = X_RADIUS_FACTOR * 1.8 * moduli.contour_radius

    def clear(z: complex) -> bool:
        return min(float(lattice_distance(z, moduli.tau)),
                   float(lattice_distance(z - moduli.w, moduli.tau))) > margin

    out = []
    for u1, v1, u2, v2 in coords:
        x = TWO_PI_I * (u1 + v1 * tau)
        y = TWO_PI_I * (u2 + v2 * tau) + moduli.w
        if clear(x) and clear(y) \
                and float(lattice_distance(x - y, moduli.tau)) > 0.4:
            out.append((x, y))
        if len(out) == count:
            return out
    raise DomainError("not enough sample points clear of the sewing contours")


def _sphere_setups():
    out = []
    # lam = 0 is phi_new = 1, the periodic handle kappa = -1/2
    for lam, th in ((0.25, -np.exp(0.3j)), (0.6, -1.0 + 0.0j),
                    (0.0, -np.exp(0.3j))):
        for qabs in (0.05, 0.15):
            handle = HandleTwist.from_multipliers(th, np.exp(TWO_PI_I * lam))
            moduli = RhoModuliSphere.create(qabs * np.exp(0.7j))
            out.append((lam, qabs, handle, moduli))
    return out


def _sphere_log_pairs(qabs: float, count: int = 4):
    """Well-conditioned log-coordinate pairs in the sewing annulus, as the
    arrays (log x_i) and (log y_i).

    Both points sit near the middle of the fundamental annulus
    (|x| ~ |q|^{0.5}) so the moment expansion converges at the same rate
    from both punctures.
    """
    big_l = -math.log(qabs)
    coords = [(-0.55, 0.8, -0.45, 2.1), (-0.62, -1.3, -0.40, 0.4),
              (-0.50, 2.8, -0.52, -2.0), (-0.58, 0.1, -0.47, 1.2),
              (-0.44, 1.7, -0.57, -0.6), (-0.53, -2.4, -0.43, 2.9),
              (-0.60, 0.9, -0.49, -1.8), (-0.46, -0.2, -0.56, 1.5),
              (-0.51, 2.2, -0.41, -2.7), (-0.59, -1.0, -0.48, 0.7),
              (-0.42, 0.3, -0.54, -1.4), (-0.56, 1.9, -0.44, 2.5),
              (-0.48, -2.9, -0.58, -0.3), (-0.52, 1.1, -0.42, -2.2),
              (-0.45, -0.7, -0.61, 1.8), (-0.57, 2.6, -0.46, -1.1)]
    sx, tx, sy, ty = np.array([coords[i % len(coords)]
                               for i in range(count)]).T
    return sx * big_l + 1j * tx, sy * big_l + 1j * ty


def _g_error(tq: TorusQuadrature) -> float:
    """Largest deviation of the closed-form G of ``tq.moments`` from its
    quadrature ``tq.g_matrix()``, each N x N block relative to its
    largest entry."""
    n = tq.moments.n_order
    g, quad = tq.moments.g, tq.g_matrix()
    return max(float(np.max(np.abs(g[i:i + n, j:j + n] - quad[i:i + n, j:j + n]))
                     / np.max(np.abs(quad[i:i + n, j:j + n])))
               for i in (0, n) for j in (0, n))


def _moments_error(tq: TorusQuadrature) -> float:
    """Largest deviation of the closed-form U^kappa moments of
    ``tq.moments`` from their quadrature, coefficient j scaled by r^j
    for the contour's radius r, each row relative to its largest scaled
    entry (unscaled, the high orders differ by quadrature aliasing)."""
    mom, worst = tq.moments, 0.0
    for closed, quad, cs in zip(mom._u_moments(*mom._laurent()[2:]),
                                tq.u_moments(), (tq.y, tq.x)):
        scale = np.array([c.radius for c in cs])[:, None] \
            ** np.arange(closed.shape[1])
        ref = np.abs(quad * scale).max(axis=1)
        worst = max(worst, float(np.max(
            np.abs((closed - quad) * scale).max(axis=1) / ref)))
    return worst


def _check(name: str, residual: float, tolerance: float, **extra) -> dict:
    entry = {"name": name, "residual": float(residual),
             "tolerance": float(tolerance),
             "passed": bool(residual < tolerance)}
    entry.update(extra)
    return entry


def _slope_check(name: str, xs, ys, minimum: float) -> dict:
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    return {"name": name, "slope": slope, "minimum": float(minimum),
            "passed": bool(slope >= minimum)}


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def _pair_values(ctx, xs, ys, *logs) -> np.ndarray:
    """S(x_i, y_i) for the pairs (x_i, y_i): the diagonal of one
    kernel_matrix call (the pair lists hold at most 16 pairs)."""
    return np.diagonal(ctx.kernel_matrix(xs, ys, *logs))


def _skew_residual(ctx, ctx_inv, xs, ys, *logs) -> float:
    """max |S[c](x,y) + S[c^{-1}](y,x)| / |S[c](x,y)| over the pairs
    (x_i, y_i); ``logs`` are optional branches of x and of y."""
    v = _pair_values(ctx, xs, ys, *logs)
    return float(np.max(np.abs(v + _pair_values(ctx_inv, ys, xs, *logs[::-1]))
                        / np.abs(v)))


def suite_skew() -> list[dict]:
    tol = 1e-10

    chars, moduli, _ = _eps_setup()
    ctx = EpsilonContext(chars, moduli, 16)
    ctx_inv = EpsilonContext(chars.inverse(), moduli, 16)
    eps = _skew_residual(ctx, ctx_inv, *zip(*_eps_pairs(moduli, 16)))

    lam, qabs, handle, smod = _sphere_setups()[0]
    hinv = HandleTwist.from_multipliers(1.0 / handle.theta, 1.0 / handle.phi)
    lx, ly = _sphere_log_pairs(qabs, 16)
    sphere = _skew_residual(RhoSphereContext(handle, smod, 24),
                            RhoSphereContext(hinv, smod, 24),
                            np.exp(lx), np.exp(ly), lx, ly)

    tw1, hndl, tmod = _rho_torus_setup()
    hinv = HandleTwist(-hndl.alpha, -hndl.beta)
    ctx = RhoTorusContext(tw1, hndl, tmod, 12, 64)
    ctx_inv = RhoTorusContext(tw1.inverse(), hinv, tmod, 12, 64)
    torus = _skew_residual(ctx, ctx_inv, *zip(*_rho_torus_pairs(tmod, 16)))
    return [_check("two-tori kernel skew-symmetry", eps, tol),
            _check("self-sewn sphere kernel skew-symmetry", sphere, tol),
            _check("self-sewn torus kernel skew-symmetry", torus, tol)]


def suite_dehn() -> list[dict]:
    chars, moduli, _ = _eps_setup()
    flip_sqrt = EpsilonModuli.create(
        moduli.tau(1), moduli.tau(2), moduli.epsilon, xi=moduli.xi,
        sqrt_epsilon=-moduli.sqrt_epsilon)
    flip_joint = moduli.dehn_twist()
    ctx = EpsilonContext(chars, moduli, 16)
    ctx_sqrt = EpsilonContext(chars, flip_sqrt, 16)
    ctx_joint = EpsilonContext(chars, flip_joint, 16)
    xs, ys = zip(*_eps_pairs(moduli, 8))
    v = _pair_values(ctx, xs, ys)
    w_joint = float(np.max(np.abs(_pair_values(ctx_joint, xs, ys) - v)
                           / np.abs(v)))
    # same-torus values even, cross-torus values odd
    same = np.array([x.which == y.which for x, y in zip(xs, ys)])
    flip = _pair_values(ctx_sqrt, xs, ys)
    dev = np.abs(np.where(same, flip - v, flip + v)) / np.abs(v)
    w_even, w_odd = float(np.max(dev[same])), float(np.max(dev[~same]))
    return [
        _check("joint root-and-branch flip leaves kernel invariant",
               w_joint, 1e-13),
        _check("same-torus values even in the epsilon square root",
               w_even, 1e-13),
        _check("cross-torus values odd in the epsilon square root",
               w_odd, 1e-13),
    ]


_EPS_GENERATORS = (
    ("gamma1-T", EpsGroupElement.gamma1(1, 1, 0, 1)),
    ("gamma1-S", EpsGroupElement.gamma1(0, -1, 1, 0)),
    ("gamma2-T", EpsGroupElement.gamma2(1, 1, 0, 1)),
    ("gamma2-S", EpsGroupElement.gamma2(0, -1, 1, 0)),
    ("swap", EpsGroupElement.beta_swap()),
)

_RHO_GENERATORS = (
    ("A", RhoGroupElement.a_shift(1)),
    ("B", RhoGroupElement.b_shift(1)),
    ("C", RhoGroupElement.c_power(1)),
    ("gamma1-T", RhoGroupElement.gamma1(1, 1, 0, 1)),
)


def suite_modular_eps() -> list[dict]:
    chars, moduli, _ = _eps_setup()
    ctx = EpsilonContext(chars, moduli, 16)
    pairs = _eps_pairs(moduli, 4)
    checks = []
    for name, g in _EPS_GENERATORS:
        image = g.transform(ctx)
        r = invariance_residual(ctx, image, pairs)
        checks.append(_check(f"two-tori kernel invariance under {name}",
                             r, 1e-8))
        d = det_residual(ctx, image)
        checks.append(_check(f"two-tori determinant invariance under {name}",
                             d, 1e-9))
    return checks


def suite_modular_rho() -> list[dict]:
    tw1, handle, moduli = _rho_torus_setup()
    ctx = RhoTorusContext(tw1, handle, moduli, 12, 64)
    pairs = _rho_torus_pairs(moduli, 2)
    checks = []
    for name, g in _RHO_GENERATORS:
        image = g.transform(ctx)
        r = invariance_residual(ctx, image, pairs)
        checks.append(_check(f"self-sewn torus kernel invariance under {name}",
                             r, 1e-7))
        d = det_residual(ctx, image)
        checks.append(_check(
            f"self-sewn torus determinant invariance under {name}", d, 1e-7))
    return checks


def suite_det_identity() -> list[dict]:
    n = 32
    checks = []

    chars, moduli, _ = _eps_setup()
    ctx = EpsilonContext(chars, moduli, n)
    f1, f2 = ctx.f_block(1), ctx.f_block(2)
    q = build_q(f1, f2, moduli.xi)
    d_small = ctx.det()
    d_big = determinant(np.eye(2 * n, dtype=complex) - q)
    checks.append(_check(
        "block determinant equals half-size determinant (two tori)",
        abs(d_big - d_small), 1e-12, value=[d_small.real, d_small.imag]))

    t0 = time.time()
    worst = 0.0
    for lam, qabs, handle, smod in _sphere_setups():
        d_prod = det_i_minus_t_sphere(handle, n, smod)
        d_mat = RhoSphereContext(handle, smod, n).det()
        worst = max(worst, abs(d_prod - d_mat))
    checks.append(_check(
        "sphere determinant matches truncated product form", worst, 1e-12,
        seconds=time.time() - t0))
    return checks


def suite_integral_eq() -> list[dict]:
    tol = 1e-7
    quad = 128
    checks = []

    # two-tori scheme: S2(x,y) = delta_ab S1_a(x,y)
    #   + (1/2pi i) oint_{C_a} S1_a(x,z) S2(z,y) dz
    chars, moduli, _ = _eps_setup()
    ctx = EpsilonContext(chars, moduli, 16)
    pairs = _eps_pairs(moduli, 4)
    worst = 0.0
    for a in (1, 2):
        # S2 on the contour nodes of torus a against the y of every pair
        # whose x lies on torus a: one kernel_matrix call per label
        on_a = [(x, y) for x, y in pairs if x.which == a]
        tau_a = moduli.tau(a)
        tw_a = chars.tw(a)
        z, wq = circle_nodes(0.0, 0.6 * moduli.radius(a), quad)
        s2 = ctx.kernel_matrix([SurfacePoint(a, zz) for zz in z],
                               [y for _, y in on_a])
        for (x, y), col in zip(on_a, s2.T):
            s1 = p1_theta(tw_a, x.z - z, tau_a)
            base = p1_theta(tw_a, x.z - y.z, tau_a) if y.which == a else 0.0
            v = ctx.kernel(x, y)
            worst = max(worst, abs(base + np.sum(wq * s1 * col) - v) / abs(v))
    checks.append(_check("two-tori contour integral equation", worst, tol))

    # self-sewn torus scheme: S2(x,y) = S_kappa(x,y)
    #   + sum_a (1/2pi i) oint_{C_a} S_kappa(x,z) S2(z,y) dz,
    # all pairs at once: row i of each grid is x_i, column i is y_i
    tw1, handle, tmod = _rho_torus_setup()
    rctx = RhoTorusContext(tw1, handle, tmod, 12, 64)
    s = rctx.moments
    xs, ys = (np.array(p) for p in zip(*_rho_torus_pairs(tmod, 4)))
    la_x, la_y = s.log_a(xs), s.log_a(ys)
    total = np.zeros(xs.size, dtype=complex)
    # the contours must separate the sewing annulus from the evaluation
    # points, which are cleared to 1.8x the moment contour radius by the
    # pair filter
    radius = X_RADIUS_FACTOR * 1.5 * tmod.contour_radius
    for c in torus_contours(s, [(a, radius) for a in (1, 2)], quad):
        pts, log_a = c.points[:quad], c.log_a[:quad]
        row = s_kappa_grid(s, xs, la_x, pts, log_a)
        col = rctx.kernel_matrix(pts, ys, log_a, la_y)
        total += np.sum(c.weight * row * col.T, axis=1)
    base = np.diag(s_kappa_grid(s, xs, la_x, ys, la_y))
    v = np.diag(rctx.kernel_matrix(xs, ys, la_x, la_y))
    worst = float(np.max(np.abs(base + total - v) / np.abs(v)))
    checks.append(_check("self-sewn torus contour integral equation",
                         worst, tol))

    # the kernel's h / hbar, Laurent coefficients from Taylor rows, against
    # their contour quadrature, each row relative to its largest entry:
    # 1.3e-14 at most over 12 seeded contexts at (12, 64) and (16, 128)
    tq = TorusQuadrature(rctx.moments, rctx.moments.m_points)
    h, hb, _ = rctx.moments.taylor_rows(xs, la_x, ys, la_y)
    worst = max(float(np.max(np.max(np.abs(rows - quad), axis=1)
                             / np.max(np.abs(quad), axis=1)))
                for rows, quad in ((h, tq.h_matrix(xs, la_x)),
                                   (hb, tq.hbar_matrix(ys, la_y))))
    checks.append(_check(
        "self-sewn torus h/hbar Taylor rows match contour quadrature",
        worst, 1e-12))

    # G from Laurent data at the punctures against its contour
    # quadrature, the x-contour moment of the Taylor rows h, each N x N
    # block relative to its largest entry: 1.8e-13 at most at (12, 64)
    # and (16, 128) over seeded contexts, the modular images and Im tau
    # down to 0.05.  The oracle shares H with the closed form; the h/hbar
    # rows check above is the one that sees a wrong H
    checks.append(_check(
        "self-sewn torus closed-form G matches contour quadrature",
        _g_error(tq), 1e-12))

    # Laurent extraction: coefficients of P1 - 1/z match minus the
    # twisted Eisenstein series; odd untwisted series vanish
    tau = TorusModulus(0.3 + 1.0j)
    tw = TwistPair(0.17, 0.38)
    z, wq = circle_nodes(0.0, 0.3, 256)
    vals = p1_theta(tw, z, tau) - 1.0 / z
    worst = 0.0
    for m in range(1, 7):
        coeff = np.sum(wq * vals * z ** (-m))
        worst = max(worst, abs(coeff + eisenstein_twisted(tw, m, tau)))
    checks.append(_check(
        "genus-one kernel Laurent coefficients match Eisenstein series",
        worst, 1e-8))
    tw_unit = TwistPair(0.5, 0.5)
    worst = max(abs(eisenstein_twisted(tw_unit, 3, tau)),
                abs(eisenstein_twisted(tw_unit, 5, tau)))
    checks.append(_check("odd untwisted Eisenstein series vanish",
                         worst, 1e-12))

    # the E_n that F reads from the theta stage against the q-series, at
    # both pinned tori (Im tau >= 1, where the q-series keeps its
    # digits), n < 32, relative per order: 4.2e-14 at most
    worst = 0.0
    for a in (1, 2):
        tw_a, tau_a = chars.tw(a), moduli.tau(a)
        ref = eisenstein_twisted(tw_a, np.arange(1, 32), tau_a)
        worst = max(worst, float(np.max(
            np.abs(eisenstein_theta(tw_a, 31, tau_a) - ref) / np.abs(ref))))
    checks.append(_check(
        "two-tori theta-stage Eisenstein series match their q-series",
        worst, 1e-10))
    return checks


def suite_degeneration() -> list[dict]:
    checks = []

    chars, _, bound = _eps_setup()
    t1 = TorusModulus(0.3 + 1.0j)
    scales = np.array([1e-2, 1e-3, 1e-4])
    d_same, d_cross = [], []
    for s in scales:
        moduli = EpsilonModuli.create(t1, TorusModulus(0.1 + 1.2j),
                                      s * bound * np.exp(0.5j))
        ctx = EpsilonContext(chars, moduli, 16)
        xs, ys = _eps_point(moduli, 1, 0.23, 0.31), \
            _eps_point(moduli, 1, 0.67, 0.52)
        xc, yc = _eps_point(moduli, 1, 0.41, 0.18), \
            _eps_point(moduli, 2, 0.33, 0.61)
        d_same.append(abs(ctx.kernel(xs, ys)
                          - p1_theta(chars.tw1, xs.z - ys.z, t1)))
        d_cross.append(abs(ctx.kernel(xc, yc)))
    checks.append(_slope_check(
        "same-torus deviation vanishes linearly in the sewing parameter",
        scales, d_same, 0.95))
    checks.append(_slope_check(
        "cross-torus values vanish as the square root of the sewing parameter",
        scales, d_cross, 0.45))

    t0 = time.time()
    worst = 0.0
    for lam, qabs, handle, smod in _sphere_setups():
        lx, ly = _sphere_log_pairs(qabs, 4)
        conv = _pair_values(RhoSphereContext(handle, smod, 24),
                            np.exp(lx), np.exp(ly), lx, ly) \
            * np.exp(0.5 * (lx + ly))
        for val, d in zip(conv, lx - ly):
            oracle = p1_series(handle, d, smod.tau)
            worst = max(worst, abs(val - oracle) / abs(oracle))
    checks.append(_check(
        "sphere-sewn torus kernel matches the exact genus-one kernel",
        worst, 1e-9, seconds=time.time() - t0))
    return checks


def suite_convergence() -> list[dict]:
    checks = []
    tw1, handle, tmod = _rho_torus_setup()
    x, y = _rho_torus_pairs(tmod, 1)[0]

    # a build takes no contour, so M reaches only the quadrature oracle:
    # the closed-form U^kappa moments and G against it at M and 2M nodes
    mom = TorusMoments(tw1, handle, 12, tmod)
    worst = 0.0
    for m in (64, 128):
        tq = TorusQuadrature(mom, m)
        worst = max(worst, _moments_error(tq), _g_error(tq))
    checks.append(_check(
        "quadrature refinement M to 2M: the closed-form moments match "
        "the contour quadrature at both", worst, 1e-9))

    vals = [RhoTorusContext(tw1, handle, tmod, n, 64).kernel(x, y)
            for n in (4, 8, 12, 16)]
    rate, _ = tail_estimate(vals)
    checks.append({"name": "self-sewn torus truncation tail is geometric",
                   "rate": float(rate), "maximum": 0.7,
                   "passed": bool(rate < 0.7)})

    chars, moduli, _ = _eps_setup()
    xe, ye = _eps_pairs(moduli, 2)[1]
    # the pinned epsilon converges by N = 12, so the orders stop at 8:
    # three steps above tail_estimate's floor, or no rate is fitted
    vals = [EpsilonContext(chars, moduli, n).kernel(xe, ye)
            for n in (2, 4, 6, 8)]
    rate, _ = tail_estimate(vals)
    checks.append({"name": "two-tori truncation tail is geometric",
                   "rate": float(rate), "maximum": 0.7,
                   "passed": bool(rate < 0.7)})

    # the closed forms against the same oracle on contours 20% inside and
    # outside the default radius: G and the h row at x, largest entry
    # change
    mom = TorusMoments(tw1, handle, 8, tmod)
    h, _, _ = mom.taylor_rows(np.array([x]), np.array([mom.log_a(x)]),
                              np.array([y]), np.array([mom.log_a(y)]))
    worst = 0.0
    for scale in (0.8, 1.2):
        tq = TorusQuadrature(mom, 64, radius_scale=scale)
        worst = max(worst, float(np.max(np.abs(mom.g - tq.g_matrix()))),
                    float(np.max(np.abs(h[0] - tq.h_matrix([x])[0]))))
    checks.append(_check(
        "moment contours are radius-independent within the annuli: the "
        "closed-form G and h match the contour quadrature at both radii",
        worst, 1e-9))
    return checks


_SUITES = {
    "skew": suite_skew,
    "dehn": suite_dehn,
    "modular-eps": suite_modular_eps,
    "modular-rho": suite_modular_rho,
    "det-identity": suite_det_identity,
    "integral-eq": suite_integral_eq,
    "degeneration": suite_degeneration,
    "convergence": suite_convergence,
}


def run_suite(name: str) -> dict:
    """Run one verification suite; returns a JSON-ready report."""
    if name not in _SUITES:
        raise DomainError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    t0 = time.time()
    checks = _SUITES[name]()
    return {"suite": name, "passed": all(c["passed"] for c in checks),
            "seconds": time.time() - t0, "checks": checks}


def run_all() -> dict:
    """Run every verification suite."""
    reports = [run_suite(s) for s in SUITE_NAMES]
    return {"passed": all(r["passed"] for r in reports), "suites": reports}
