"""Handle-attaching schemes: sphere self-sewing and torus self-sewing."""

import cmath
import dataclasses
import functools
import warnings

import mpmath
import numpy as np
import pytest

from szegosew import numerics, rho, specialfn
from szegosew.config import RESONANCE_GUARD
from szegosew.errors import (BranchTrackingError, DomainError, ResonanceError,
                             SingularMatrixError)
from szegosew.rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                          RhoSphereContext, RhoTorusContext, TorusBaseKernel,
                          det_i_minus_t_sphere, log_a_torus, mode_index,
                          s_kappa_sphere, torus_from_sphere)
from szegosew.specialfn import (TorusModulus, TwistPair, lattice_distance,
                                p1_series, theta1)

TWO_PI_I = 2j * np.pi
TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * TAU.tau)
TW1 = TwistPair(0.17, 0.38)
HANDLE = HandleTwist(0.1, -0.22)


def _torus_moduli(scale=0.05, tau=TAU):
    wd = float(lattice_distance(W, tau))
    return RhoModuliTorus.create(tau, W, scale * (wd / 2) ** 2
                                 * np.exp(0.6j))


def _pt(u, v, offset=0.0):
    return TWO_PI_I * (u + v * TAU.tau) + offset


def _s_kappa(tw1, handle, x, y, mod):
    """S_kappa(x, y), log A tracked at both points."""
    s = TorusBaseKernel(tw1, handle, mod)
    return complex(s.grid([x], [s.log_a(x)], [y], [s.log_a(y)])[0, 0])


class TestSphereKernel:
    def test_simple_pole_with_unit_residue(self):
        x, y = 1.3 + 0.2j, 1.3 + 0.2j + 1e-5
        val = s_kappa_sphere(HANDLE, x, y)
        assert abs(val * (x - y) - 1.0) < 1e-3

    def test_multiplier_around_origin(self):
        # continuing x around 0 multiplies the kernel by e^{2 pi i kappa}
        x, y = 0.8 + 0.3j, -1.1 + 0.6j
        lx = cmath.log(x)
        v0 = s_kappa_sphere(HANDLE, x, y, log_x=lx)
        v1 = s_kappa_sphere(HANDLE, x, y, log_x=lx + TWO_PI_I)
        assert abs(v1 - np.exp(TWO_PI_I * HANDLE.kappa) * v0) < 1e-12 * abs(v0)

    def test_puncture_rejected(self):
        with pytest.raises(DomainError):
            s_kappa_sphere(HANDLE, 0.0, 1.0)

    def test_half_kappa_delta_term_and_resonance(self):
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)  # kappa = -1/2
        assert abs(half.kappa + 0.5) < 1e-12
        x, y = 0.8 + 0.3j, -1.1 + 0.6j
        plain = np.exp(half.kappa * (np.log(x) - np.log(y))) / (x - y)
        th = half.theta
        delta = th / (1 - th) / np.sqrt(x) / np.sqrt(y)
        assert abs(s_kappa_sphere(half, x, y) - plain - delta) < 1e-12
        resonant = HandleTwist.from_multipliers(1.0, 1.0)
        with pytest.raises(ResonanceError):
            s_kappa_sphere(resonant, x, y)


class TestSphereSewing:
    def test_det_product_vs_matrix(self):
        smod = RhoModuliSphere.create(0.1 * np.exp(0.7j))
        d_mat = RhoSphereContext(HANDLE, smod, 8).det()
        d_prod = det_i_minus_t_sphere(HANDLE, 8, smod)
        assert abs(d_mat - d_prod) < 1e-14

    def test_sewn_kernel_matches_genus_one(self):
        qabs = 0.1
        smod = RhoModuliSphere.create(qabs * np.exp(0.7j))
        big_l = -np.log(qabs)
        lx, ly = -0.45 * big_l + 0.4j, -0.55 * big_l - 1.3j
        val = torus_from_sphere(HANDLE, np.exp(lx), np.exp(ly), smod, 24,
                                log_x=lx, log_y=ly)
        conv = val * np.exp(0.5 * (lx + ly))
        oracle = p1_series(HANDLE, lx - ly, smod.tau)
        assert abs(conv - oracle) < 1e-11 * abs(oracle)

    def test_vanishing_mode_factor_raises_resonance(self):
        # kappa just above -1/2 and theta = 1: 1 - T_11(1,1) = 1 - q^{kappa
        # + 1/2} is about 1.5e-14, below the resonance guard
        handle = HandleTwist(-0.5 + 1.5e-12, 0.5)
        assert abs(handle.theta - 1.0) < 1e-15
        ctx = RhoSphereContext(handle, RhoModuliSphere.create(0.99), 8)
        assert abs(1.0 - ctx.t[0]) < RESONANCE_GUARD
        with pytest.raises(ResonanceError):
            ctx.kernel(0.2 + 0.05j, -0.15 + 0.18j)
        d_mat = ctx.det()  # ungated: the dense route still gives a value
        d_prod = det_i_minus_t_sphere(handle, 8, ctx.moduli)
        assert abs(d_mat - d_prod) < 1e-12 * abs(d_prod)

    def test_half_kappa_moments_rejected(self):
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        with pytest.raises(DomainError):
            RhoSphereContext(half, RhoModuliSphere.create(0.1), 8)

    def test_bad_q_rejected(self):
        with pytest.raises(DomainError):
            RhoModuliSphere.create(1.5)
        with pytest.raises(DomainError):
            RhoModuliSphere.create(0.0)

    def test_kernel_matrix_matches_looped_kernel(self):
        qabs = 0.1
        ctx = RhoSphereContext(HANDLE, RhoModuliSphere.create(
            qabs * np.exp(0.7j)), 24)
        big_l = -np.log(qabs)
        lx = np.array([-0.45 * big_l + 0.4j, -0.52 * big_l + 2.1j,
                       -0.58 * big_l - 2.9j])
        ly = np.array([-0.55 * big_l - 1.3j, -0.47 * big_l + 0.7j])
        grid = ctx.kernel_matrix(np.exp(lx), np.exp(ly), lx, ly)
        loop = np.array([[ctx.kernel(np.exp(a), np.exp(b), a, b) for b in ly]
                         for a in lx])
        assert grid.shape == (3, 2)
        assert np.all(np.abs(grid - loop) <= 1e-14 * np.abs(loop))
        assert ctx.kernel_matrix([], np.exp(ly), [], ly).shape == (0, 2)

    def test_log_branches_must_match_the_points(self):
        # one logarithm for two x points used to broadcast to a (2, 1)
        # value off by O(1)
        ctx = RhoSphereContext(HANDLE, RhoModuliSphere.create(0.05 + 0.02j))
        xs, ys = [0.2 + 0.05j, 0.3 - 0.1j], [-0.15 + 0.18j]
        for lx, ly in ((np.log(xs[:1]), None), (None, np.log(xs))):
            with pytest.raises(DomainError):
                ctx.kernel_matrix(xs, ys, lx, ly)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        ctx = RhoSphereContext(HANDLE, RhoModuliSphere.create(0.05 + 0.02j))
        for x, y, lx in ((complex(bad, 0.05), -0.15 + 0.18j, None),
                         (0.2 + 0.05j, complex(-0.15, bad), None),
                         (0.2 + 0.05j, -0.15 + 0.18j, complex(bad, 0.0))):
            with pytest.raises(DomainError):
                ctx.kernel(x, y, lx)
            with pytest.raises(DomainError):
                s_kappa_sphere(HANDLE, x, y, lx)

    def test_mode_index_shifts(self):
        k = np.arange(1, 4)
        assert np.allclose(mode_index(1, k, 0.2), k + 0.2)
        assert np.allclose(mode_index(2, k, 0.2), k - 0.2)
        with pytest.raises(DomainError):
            mode_index(3, k, 0.2)


class TestTrackedLogarithm:
    def test_exponential_recovers_quotient(self):
        mod = _torus_moduli()
        for z in (_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W),
                  _pt(-0.35, 0.72)):
            la = log_a_torus(z, TAU, W, z_ref=mod.z_ref,
                             log_a_ref=mod.log_a_ref)
            quotient = theta1(z - W, TAU) / theta1(z, TAU)
            assert abs(np.exp(la) - quotient) < 1e-10 * abs(quotient)

    def test_quasi_periodicity(self):
        mod = _torus_moduli()
        z = _pt(0.09, 0.53)
        la = log_a_torus(z, TAU, W, z_ref=mod.z_ref, log_a_ref=mod.log_a_ref)
        # A(z + 2 pi i) = A(z): the tracked logs differ by 2 pi i Z
        la_b = log_a_torus(z + TWO_PI_I, TAU, W, z_ref=mod.z_ref,
                           log_a_ref=mod.log_a_ref)
        n = (la_b - la) / TWO_PI_I
        assert abs(n - round(n.real)) < 1e-10
        # A(z + 2 pi i tau) = e^{w} A(z)
        la_a = log_a_torus(z + TWO_PI_I * TAU.tau, TAU, W, z_ref=mod.z_ref,
                           log_a_ref=mod.log_a_ref)
        n = (la_a - la - W) / TWO_PI_I
        assert abs(n - round(n.real)) < 1e-10


class TestTrackedLogarithmFarPoints:
    def test_far_point_matches_quotient_or_raises_typed(self):
        # twenty periods out theta1(z) itself overflows; the reduced
        # quotient and the tracked branch must not
        mod = _torus_moduli()
        z = TWO_PI_I * (0.37 + 20.21 * TAU.tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                la = log_a_torus(z, TAU, W, z_ref=mod.z_ref,
                                 log_a_ref=mod.log_a_ref)
            except BranchTrackingError:
                return
        with mpmath.workdps(40):
            t = mpmath.mpc(TAU.tau)

            def theta1_ref(u):
                # terms peak at m + 1/2 = Re u / (2 pi Im tau)
                u = mpmath.mpc(u)
                centre = int(mpmath.nint(u.real / (2 * mpmath.pi * t.imag)))
                return mpmath.fsum(
                    mpmath.exp(1j * mpmath.pi * t * (m + 0.5) ** 2
                               + (m + 0.5) * (u + 1j * mpmath.pi))
                    for m in range(centre - 30, centre + 31))
            ref = complex(theta1_ref(mpmath.mpc(z) - mpmath.mpc(W))
                          / theta1_ref(z))
        assert abs(np.exp(la) - ref) <= 1e-12 * abs(ref)

    def test_quotient_does_not_depend_on_the_batch(self):
        # every argument is reduced before its theta sum, so a point
        # twenty periods out neither overflows nor widens the box
        z = _pt(0.09, 0.53)
        far = TWO_PI_I * (0.37 + 20.21 * TAU.tau)
        alone = rho._a_values(np.array([z]), TAU, W)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = rho._a_values(np.array([z, far, 9.0 + 0.1j]), TAU, W)
        assert batch[0] == alone[0]
        assert np.all(np.isfinite(batch))


class TestTorusSewing:
    def test_domain_rejects_large_rho(self):
        with pytest.raises(DomainError):
            _torus_moduli(scale=30.0)

    def test_domain_rejects_lattice_puncture(self):
        with pytest.raises(DomainError):
            RhoModuliTorus.create(TAU, 0.0, 0.001)

    def test_point_inside_contour_rejected(self):
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, 32)
        with pytest.raises(DomainError):
            ctx.kernel(1e-3 + 1e-3j, _pt(0.61, 0.12, offset=W))

    def test_base_kernel_skew(self):
        mod = _torus_moduli()
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        v1 = _s_kappa(TW1, HANDLE, x, y, mod)
        hinv = HandleTwist(-HANDLE.alpha, -HANDLE.beta)
        v2 = _s_kappa(TW1.inverse(), hinv, y, x, mod)
        assert abs(v1 + v2) < 1e-12 * abs(v1)

    def test_sewn_kernel_skew(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 10, 64)
        hinv = HandleTwist(-HANDLE.alpha, -HANDLE.beta)
        ctx_inv = RhoTorusContext(TW1.inverse(), hinv, mod, 10, 64)
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        v1, v2 = ctx.kernel(x, y), ctx_inv.kernel(y, x)
        assert abs(v1 + v2) < 1e-11 * abs(v1)

    def test_small_rho_degenerates_to_base_kernel(self):
        # rho -> 0 removes the handle correction; the limit is the
        # w-deformed base kernel on the punctured torus, not P1
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12)
        devs = []
        for scale in (1e-3, 1e-5):
            mod = _torus_moduli(scale=scale)
            ctx = RhoTorusContext(TW1, HANDLE, mod, 8, 64)
            base = _s_kappa(TW1, HANDLE, x, y, mod)
            devs.append(abs(ctx.kernel(x, y) - base) / abs(base))
        # the correction decays like rho^{min(1/2 +- kappa)} = rho^{0.4}
        # here, i.e. a factor ~0.16 per two decades of rho
        assert devs[0] < 0.2
        assert devs[1] < 0.25 * devs[0]

    def test_quadrature_and_radius_stability(self):
        # radius independence of the moments is the convergence suite's
        # check (criterion 11); a context's contours sit at the moduli's
        # contour radius
        mod = _torus_moduli()
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        v = RhoTorusContext(TW1, HANDLE, mod, 8, 64).kernel(x, y)
        v2 = RhoTorusContext(TW1, HANDLE, mod, 8, 128).kernel(x, y)
        assert abs(v - v2) < 1e-10 * abs(v)

    @pytest.mark.parametrize("k", [1, -3])
    def test_log_a_anchor_value_cancels(self, k):
        # tracked log A enters only through differences, so moving the
        # anchor value by 2 pi i k leaves every value in place
        mod = _torus_moduli()
        moved = dataclasses.replace(mod)
        object.__setattr__(moved, "log_a_ref", mod.log_a_ref + TWO_PI_I * k)
        xs = [_pt(0.09, 0.53), _pt(-0.35, 0.72)]
        ys = [_pt(0.61, 0.12, offset=W), _pt(0.4, 0.3)]
        ctx = RhoTorusContext(TW1, HANDLE, mod, 8, 64)
        ctx2 = RhoTorusContext(TW1, HANDLE, moved, 8, 64)
        v, v2 = ctx.kernel_matrix(xs, ys), ctx2.kernel_matrix(xs, ys)
        assert np.max(np.abs(v2 - v)) <= 1e-15 * np.max(np.abs(v))
        assert abs(ctx2.det() - ctx.det()) <= 1e-15 * abs(ctx.det())

    def test_anchor_value_and_radius_scale_are_not_inputs(self):
        mod = _torus_moduli()
        with pytest.raises(TypeError):
            RhoModuliTorus(mod.tau, mod.w, mod.rho, mod.log_rho, mod.xi,
                           log_a_ref=mod.log_a_ref)
        with pytest.raises(TypeError):
            RhoTorusContext(TW1, HANDLE, mod, 8, 64, radius_scale=1.15)
        # the derived anchor value is a logarithm of A at z_ref
        a = theta1(mod.z_ref - W, TAU) / theta1(mod.z_ref, TAU)
        assert abs(np.exp(mod.log_a_ref) - a) < 1e-12 * abs(a)

    def test_z_ref_at_a_zero_or_pole_rejected(self):
        for z_ref in (0.0, W):
            with pytest.raises(DomainError, match="z_ref"):
                dataclasses.replace(_torus_moduli(), z_ref=z_ref)

    def test_kernel_reuses_moduli_geometry(self, monkeypatch):
        # annulus and contour radii and the point margin are fixed when the
        # moduli and the context are built
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, 32)

        def forbidden(tau):
            raise AssertionError("lattice minimum recomputed per kernel call")
        monkeypatch.setattr(rho, "min_lattice_distance", forbidden)
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))

    def test_lattice_cell_built_once_per_modulus(self, monkeypatch):
        # lattice_distance reads the cell geometry of its modulus, built
        # on first use: one build serves the moduli checks, the context
        # build and every kernel call, however many distances they take
        built, reads = [], []
        cell, distance = TorusModulus.cell.func, rho.lattice_distance

        def counting_cell(tau):
            built.append(tau)
            return cell(tau)

        def counting_distance(z, tau):
            reads.append(tau)
            return distance(z, tau)
        counted = functools.cached_property(counting_cell)
        counted.__set_name__(TorusModulus, "cell")
        monkeypatch.setattr(TorusModulus, "cell", counted)
        monkeypatch.setattr(rho, "lattice_distance", counting_distance)
        ctx = RhoTorusContext(TW1, HANDLE,
                              _torus_moduli(tau=TorusModulus(TAU.tau)), 6, 32)
        xs, ys = _rho_points(ctx.moduli)
        for x, y in zip(xs, ys):
            ctx.kernel(x, y)
        assert len(built) == 1 and len(reads) > 3 * xs.size
        lattice_distance(W, TorusModulus(TAU.tau))
        assert len(built) == 2

    def test_kernel_reuses_base_kernel_constants(self, monkeypatch):
        # theta[alpha1;beta1](kappa w) and theta1'(0) are evaluated once
        # per context build and never per kernel call; theta1'(0) is kept
        # per modulus, so the moduli get a fresh one
        calls = {"theta_kw": 0, "theta1_d0": 0}
        value, taylor = specialfn._theta_g1, specialfn._theta_taylor

        def counting_value(alpha, beta, z, tau):
            if np.ndim(z) == 0 and (alpha, beta) == (TW1.alpha, TW1.beta):
                calls["theta_kw"] += 1
            return value(alpha, beta, z, tau)

        def counting_taylor(chars, z, tau, kmax):
            if chars == ((0.5, 0.5),):
                calls["theta1_d0"] += 1
            return taylor(chars, z, tau, kmax)
        monkeypatch.setattr(specialfn, "_theta_g1", counting_value)
        monkeypatch.setattr(rho, "_theta_g1", counting_value)
        monkeypatch.setattr(specialfn, "_theta_taylor", counting_taylor)
        ctx = RhoTorusContext(TW1, HANDLE,
                              _torus_moduli(tau=TorusModulus(TAU.tau)), 6, 32)
        assert calls == {"theta_kw": 1, "theta1_d0": 1}
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))
        assert calls == {"theta_kw": 1, "theta1_d0": 1}

    def test_untwisted_handle(self):
        # kappa = 0: S_kappa needs no log A; the tracked kernels at
        # kappa = +-1e-8 approach it
        mod = _torus_moduli()
        zero = HandleTwist(0.0, -0.22)
        assert zero.kappa == 0.0
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        ctx = RhoTorusContext(TW1, zero, mod, 10, 64)
        inv = RhoTorusContext(TW1.inverse(), HandleTwist(0.0, 0.22), mod,
                              10, 64)
        v, d = ctx.kernel(x, y), ctx.det()
        assert abs(v + inv.kernel(y, x)) < 1e-12 * abs(v)
        for kap in (1e-8, -1e-8):
            near = RhoTorusContext(TW1, HandleTwist(kap, -0.22), mod, 10, 64)
            assert near.moments.base.tracked
            assert abs(near.kernel(x, y) - v) < 1e-7 * abs(v)
            assert abs(near.det() - d) < 1e-7 * abs(d)

    def test_half_kappa_handle_rejected(self):
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        with pytest.raises((DomainError, ResonanceError)):
            RhoTorusContext(TW1, half, _torus_moduli(), 6, 32)


def _rho_points(mod):
    """Grid points clear of the sewing contours, around both punctures."""
    xs = np.array([_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W),
                   _pt(0.35, 0.81), _pt(0.77, 0.38)])
    ys = np.array([_pt(0.61, 0.12, offset=W) + 0.4, _pt(0.52, 0.26),
                   _pt(0.18, 0.67, offset=W)])
    return xs, ys


def _per_contour_moments(ctx, zs, log_a):
    """h and hbar rows at zs, one grid side and one product per contour."""
    s, mod, m = ctx.moments.base, ctx.moduli, ctx.moments.m_points
    r = mod.contour_radius
    cs = rho.torus_contours(
        s, [(3 - a, rho.X_RADIUS_FACTOR * r) for a in (1, 2)]
        + [(a, rho.Y_RADIUS_FACTOR * r) for a in (1, 2)], m)
    pts = s.points_side(zs, log_a)
    h, hb = [], []
    for a in (1, 2):
        ka = mode_index(a, np.arange(1, ctx.n_order + 1), ctx.handle.kappa)
        x_c, y_c = cs[a - 1], cs[a + 1]
        for out, c, f in (
                (hb, x_c, s.grid_sides(s.contours_side((x_c,), 1), pts).T),
                (h, y_c, s.grid_sides(pts, s.contours_side((y_c,), -1)))):
            modes = np.exp(-np.multiply.outer(ka, c.log_local))
            out.append(mod.rho_pow(0.5 * (ka - 0.5))
                       * (f[:, :m] @ (modes[:, :m] * c.weight).T))
    return np.concatenate(h, axis=1), np.concatenate(hb, axis=1)


class TestKernelMatrix:
    @pytest.mark.parametrize("kappa", [0.1, 0.0])
    @pytest.mark.parametrize("supplied", [False, True])
    def test_matches_looped_kernel(self, kappa, supplied):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HandleTwist(kappa, -0.22), mod, 10, 64)
        s = ctx.moments.base
        xs, ys = _rho_points(mod)
        lax = [s.log_a(x) for x in xs] if supplied else None
        lay = [s.log_a(y) for y in ys] if supplied else None
        grid = ctx.kernel_matrix(xs, ys, lax, lay)
        assert grid.shape == (xs.size, ys.size)
        loop = np.array([[ctx.kernel(x, y) for y in ys] for x in xs])
        assert np.all(np.abs(grid - loop) <= 1e-14 * np.abs(loop))

    def test_values_do_not_depend_on_the_batch(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 10, 64)
        xs, ys = _rho_points(mod)
        grid = ctx.kernel_matrix(xs, ys)
        # a point twenty periods out, tracked in the same sweep
        far = xs[0] + TWO_PI_I * 20 * TAU.tau
        wide = ctx.kernel_matrix(np.append(xs, far), np.append(far + 1.3, ys))
        assert np.all(np.abs(wide[:xs.size, 1:] - grid)
                      <= 1e-15 * np.abs(grid))

    def test_bad_point_anywhere_raises_as_scalar(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        inside = W + 0.5 * mod.contour_radius
        pole = xs[2] + TWO_PI_I * TAU.tau
        for bad_x, bad_y in [(xs[1], inside), (xs[2], pole)]:
            with pytest.raises(DomainError) as scalar:
                ctx.kernel(bad_x, bad_y)
            with pytest.raises(DomainError) as batch:
                ctx.kernel_matrix(np.append(xs[:2], bad_x),
                                  np.append(bad_y, ys))
            assert str(batch.value) == str(scalar.value)

    def test_empty_inputs(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        assert ctx.kernel_matrix([], ys).shape == (0, ys.size)
        assert ctx.kernel_matrix(xs, []).shape == (xs.size, 0)

    def test_log_a_branches_must_match_the_points(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        s = ctx.moments.base
        xs, ys = _rho_points(mod)
        lax, lay = s.log_a(xs), s.log_a(ys)
        # two x points with one branch used to broadcast to a wrong value,
        # here and in the grids and moment rows behind it
        for x, lx, ly in ((xs[:2], lax[:1], None), (xs[:2], lax[:1], lay),
                          (xs, lax, lay[1:]), (xs, lax, lay + np.nan)):
            with pytest.raises(DomainError):
                ctx.kernel_matrix(x, ys, lx, ly)
        for call in (lambda: s.grid(xs[:2], lax[:1], ys, lay),
                     lambda: ctx.moments.h_matrix(xs[:2], lax[:1]),
                     lambda: ctx.moments.hbar_matrix(ys, lay[1:])):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_points_rejected(self, bad):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        for z in (complex(bad, 3.5), complex(0.6, bad)):
            with pytest.raises(DomainError):
                ctx.kernel(z, ys[0])
            with pytest.raises(DomainError):
                ctx.kernel_matrix(xs, np.append(ys, z))

    def test_one_tracking_sweep_per_call(self, monkeypatch):
        # log A of every point comes from one vectorised sweep, not one
        # tracking run per point
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        sweeps = []
        track = rho._track_log_a

        def counting(zs, *args):
            sweeps.append(np.size(zs))
            return track(zs, *args)
        monkeypatch.setattr(rho, "_track_log_a", counting)
        ctx.kernel_matrix(xs, ys)
        assert sweeps == [xs.size + ys.size]
        s = ctx.moments.base
        ctx.kernel_matrix(xs, ys, [s.log_a(x) for x in xs])
        assert sweeps[-1] == ys.size

    def test_one_singular_distance_pass_per_call(self, monkeypatch):
        # validate_point measures every point against the zeros and poles
        # of A once; the tracker does not repeat that pass (its segment
        # checks take path nodes, one row per point), while the public
        # log_a_torus keeps its own check
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        passes = []
        measure = rho._singular_distance

        def recording(z, *args):
            passes.append(np.array(z))
            return measure(z, *args)
        monkeypatch.setattr(rho, "_singular_distance", recording)
        ctx.kernel_matrix(xs, ys)
        points = [z for z in passes if z.ndim == 1]
        assert len(points) == 1
        assert np.array_equal(points[0], np.concatenate([xs, ys]))
        for z in (0.0, np.array([xs[0], W + TWO_PI_I * TAU.tau])):
            with pytest.raises(DomainError, match="zero or pole"):
                log_a_torus(z, TAU, W, z_ref=mod.z_ref,
                            log_a_ref=mod.log_a_ref)

    @pytest.mark.parametrize("kappa,winding",
                             [(0.1, 0), (0.0, 0), (0.1, 1), (-0.3, -2)])
    def test_stacked_rows_match_per_contour_route(self, kappa, winding):
        # h and hbar from the two-contour grid sides equal the moments
        # taken contour by contour, each from its own grid side
        mod = dataclasses.replace(_torus_moduli(), winding=winding)
        ctx = RhoTorusContext(TW1, HandleTwist(kappa, -0.22), mod, 10, 64)
        xs, ys = _rho_points(mod)
        zs = np.concatenate([xs, ys])
        la = ctx.moments.base.log_a(zs)
        ref_h, ref_hb = _per_contour_moments(ctx, zs, la)
        for got, ref in ((ctx.moments.h_matrix(zs, la), ref_h),
                         (ctx.moments.hbar_matrix(zs, la), ref_hb)):
            assert got.shape == ref.shape == (zs.size, 20)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))

    def test_det_ungated_while_every_kernel_call_raises(self, monkeypatch):
        # the context builds and factorises I - T; only the kernel's
        # solve is gated
        mod = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                    0.001 + 0.0006j)
        expected = RhoTorusContext(TW1, HANDLE, mod, 8, 64).det()
        monkeypatch.setattr(numerics, "CONDITION_THRESHOLD", 0.5)
        ctx = RhoTorusContext(TW1, HANDLE, mod, 8, 64)
        assert ctx.det() == expected
        with pytest.raises(SingularMatrixError):
            ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=mod.w))


def _moduli_at(tau_c, scale=0.05):
    tau = TorusModulus(tau_c)
    w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
    wd = float(lattice_distance(w, tau))
    return RhoModuliTorus.create(tau, w, scale * (wd / 2) ** 2 * np.exp(0.6j))


def _direct_reference(s, xs, lax, ys, lay, bump=0.0):
    """S_kappa from direct theta sums (specialfn._theta_g1) at every
    pair, and its error scale sum|num terms|/|num| + sum|den terms|/|den|.

    ``bump`` moves the numerator sum by +bump * sum|terms| and the
    denominator sum by -bump * sum|terms|, each along its own phase.
    """
    tau = s.moduli.tau.tau
    diff = np.subtract.outer(np.asarray(xs), np.asarray(ys))

    def sums(alpha, beta, z):
        val = specialfn._theta_g1(alpha, beta, z, tau)
        # |terms| of theta[alpha;beta](z|tau) are the terms of
        # theta[alpha;0](Re z | i Im tau), all positive
        size = specialfn._theta_g1(alpha, 0.0, z.real, 1j * tau.imag).real
        return val, size

    num, num_size = sums(s.tw1.alpha, s.tw1.beta, diff + s.kappa * s.moduli.w)
    den, den_size = sums(0.5, 0.5, diff)
    num = num + bump * num_size * num / np.abs(num)
    den = den - bump * den_size * den / np.abs(den)
    th0 = specialfn._theta_g1(s.tw1.alpha, s.tw1.beta,
                              s.kappa * s.moduli.w, tau)
    u_pow = np.exp(s.kappa * np.subtract.outer(np.asarray(lax),
                                               np.asarray(lay)))
    ref = u_pow * num / (th0 * den / s.moduli.tau.theta1_deriv0)
    return ref, num_size / np.abs(num) + den_size / np.abs(den)


def _within(grid, ref, scale, tol=1e-14):
    """Element-wise |grid - ref| <= tol |ref| scale."""
    return np.abs(grid - ref) <= tol * np.abs(ref) * scale


class TestSeparableGrid:
    """TorusBaseKernel grids: separable sums from contour tables, batch
    independence, the pole contract and the work a build does."""

    @pytest.mark.parametrize("kappa", [0.37, 0.0, -0.3])
    @pytest.mark.parametrize("tau_c", [0.2 + 1.1j, 0.3 + 1.0j, 3.7 + 0.2j])
    def test_grid_matches_direct_reference(self, tau_c, kappa):
        mod = _moduli_at(tau_c)
        s = rho.TorusBaseKernel(TW1, HandleTwist(kappa, -0.22), mod)
        r = mod.contour_radius
        cx, cy, cz = rho.torus_contours(
            s, [(2, rho.X_RADIUS_FACTOR * r), (1, rho.Y_RADIUS_FACTOR * r),
                (2, rho.Y_RADIUS_FACTOR * r)], 16)
        t = mod.tau.tau
        t = t - round(t.real)  # the same lattice, a shorter second period
        # plain points, one whose offset from 0 lies on the edge
        # |Re| = pi Im tau of the reduction strip, and one two periods out
        pts = np.array([TWO_PI_I * (0.09 + 0.53 * t),
                        TWO_PI_I * (0.61 + 0.12 * t) + mod.w,
                        TWO_PI_I * (0.23 + 0.5 * t),
                        TWO_PI_I * (0.37 + 2.21 * t)])
        lap = np.array([s.log_a(z) for z in pts])
        side_x = s.contours_side((cx,), 1)
        cases = [  # (grid, x points, x log A, y points, y log A)
            (s.grid_sides(side_x, s.contours_side((cy,), -1)),
             cx.points, cx.log_a, cy.points, cy.log_a),
            # same centre, different radii
            (s.grid_sides(side_x, s.contours_side((cz,), -1)),
             cx.points, cx.log_a, cz.points, cz.log_a),
            (s.grid_sides(s.points_side(pts, lap),
                          s.contours_side((cy,), -1)),
             pts, lap, cy.points, cy.log_a),
            (s.grid_sides(side_x, s.points_side(pts, lap)),
             cx.points, cx.log_a, pts, lap),
            (s.grid(pts[:1], lap[:1], pts[3:], lap[3:]),
             pts[:1], lap[:1], pts[3:], lap[3:]),
            (s.grid(pts[:2], lap[:2], pts[2:], lap[2:]),
             pts[:2], lap[:2], pts[2:], lap[2:]),
        ]
        for grid, xs, lax, ys, lay in cases:
            ref, scale = _direct_reference(s, xs, lax, ys, lay)
            assert grid.shape == ref.shape
            assert np.all(_within(grid, ref, scale))
            # a 2e-14 move of both theta sums is caught everywhere
            bumped, _ = _direct_reference(s, xs, lax, ys, lay, bump=2e-14)
            assert not np.any(_within(grid, bumped, scale))

    def test_values_do_not_depend_on_the_batch(self):
        mod = _torus_moduli()
        s = rho.TorusBaseKernel(TW1, HANDLE, mod)
        # far points: 9 + 0.1i, and x_0 moved twenty periods, past the
        # largest box a direct theta sum may take (log A moves by 20 w)
        xs = np.array([_pt(0.09, 0.53), 0.3 + 0.7j, 9.0 + 0.1j])
        ys = np.array([_pt(0.61, 0.12, offset=W), -2.5 + 3.0j])
        lax = [s.log_a(z) for z in xs]
        lay = [s.log_a(z) for z in ys]
        xs = np.append(xs, xs[0] + TWO_PI_I * 20 * TAU.tau)
        lax.append(lax[0] + 20 * W)
        batch = s.grid(xs, lax, ys, lay)
        for i in range(xs.size):
            for j in range(ys.size):
                one = s.grid(xs[i:i + 1], lax[i:i + 1], ys[j:j + 1],
                             lay[j:j + 1])[0, 0]
                assert abs(batch[i, j] - one) <= 1e-15 * abs(one)

    @pytest.mark.parametrize("periods", [1, 6, 20])
    def test_far_points_follow_quasi_periodicity(self, periods):
        # S_kappa(x + 2 pi i k tau, y) = e^{-2 pi i k (beta1 - 1/2)}
        # S_kappa(x, y) when log A(x) moves by k w; at k = 20 a direct
        # theta sum would overflow
        mod = _torus_moduli()
        s = rho.TorusBaseKernel(TW1, HANDLE, mod)
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        lax, lay = s.log_a(x), s.log_a(y)
        val = s.grid([x], [lax], [y], [lay])[0, 0]
        shift = TWO_PI_I * periods * TAU.tau
        far = s.grid([x + shift], [lax + periods * W], [y], [lay])[0, 0]
        mult = np.exp(-TWO_PI_I * periods * (TW1.beta - 0.5))
        # the shifted argument carries a rounding error of ulp(|shift|)
        assert abs(far - mult * val) < 1e-14 * (1 + abs(shift)) * abs(val)

    def test_kernel_poles_raise(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        s = ctx.moments.base
        c, y_contour = rho.torus_contours(
            s, [(2, mod.contour_radius),
                (1, rho.Y_RADIUS_FACTOR * mod.contour_radius)], 32)
        # a contour against itself, as nodes and as a contour pair
        with pytest.raises(DomainError):
            s.grid(c.points, c.log_a, c.points, c.log_a)
        with pytest.raises(DomainError):
            s.grid_sides(s.contours_side((c,), 1),
                         s.contours_side((c,), -1))
        # a point on a moment contour
        node = y_contour.points[5]
        with pytest.raises(DomainError):
            ctx.moments.h_vector(node, s.log_a(node))
        with pytest.raises(DomainError):
            s.grid_sides(s.points_side([node], [s.log_a(node)]),
                         s.contours_side((y_contour,), -1))
        # circles whose nodes meet modulo the lattice: x node r of the
        # circle around 0 and y node 2 pi i + r of the circle around
        # 2 pi i + 2r
        r = 0.5 * mod.contour_radius
        offsets = r * np.exp(TWO_PI_I * np.arange(33) / 32)

        def circle(center, pts):
            return rho.TorusContour(pts, y_contour.log_local,
                                    y_contour.log_a, y_contour.weight,
                                    center, r)
        near = circle(0.0, offsets)
        far = circle(TWO_PI_I + 2 * r, TWO_PI_I + 2 * r - offsets)
        assert lattice_distance(near.points[0] - far.points[0], TAU) < 1e-12
        with pytest.raises(DomainError):
            s.grid_sides(s.contours_side((near,), 1),
                         s.contours_side((far,), -1))

    def test_build_work_counts(self, monkeypatch):
        # contour-side theta tables: once per grid side and characteristic
        # at build (2 sides of two contours each x 2 thetas), never per
        # kernel call; the pole check of a contour pair is one lattice
        # distance, not M x M; the four contour starts are tracked from
        # the anchor in one sweep
        tables = []
        shapes = []
        sweeps = []
        table, distance = rho._theta_table, rho.lattice_distance
        track = rho._track_log_a

        def counting_table(ma, offsets, sign):
            tables.append(offsets.shape)
            return table(ma, offsets, sign)

        def recording_distance(z, tau):
            shapes.append(np.shape(z))
            return distance(z, tau)

        def counting_track(zs, *args):
            sweeps.append(np.size(zs))
            return track(zs, *args)
        monkeypatch.setattr(rho, "_theta_table", counting_table)
        monkeypatch.setattr(rho, "lattice_distance", recording_distance)
        monkeypatch.setattr(rho, "_track_log_a", counting_track)
        m = 32
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, m)
        assert tables == [(2, m + 1)] * 4
        assert shapes and all(sum(d >= m for d in sh) < 2 for sh in shapes)
        assert sweeps == [4]
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))
        assert len(tables) == 4
