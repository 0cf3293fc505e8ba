"""Handle-attaching schemes: sphere self-sewing and torus self-sewing."""

import cmath
import dataclasses
import functools
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegosew import numerics, oracle, rho, specialfn, verify
from szegosew.config import POLE_GUARD, RESONANCE_GUARD
from szegosew.errors import (BranchTrackingError, DomainError, ResonanceError,
                             SingularMatrixError)
from szegosew.modular import RhoGroupElement
from szegosew.rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                          RhoSphereContext, RhoTorusContext, TorusMoments,
                          det_i_minus_t_sphere, log_a_torus, mode_index,
                          s_kappa_sphere, torus_from_sphere)
from szegosew.oracle import p1_series
from szegosew.specialfn import (TorusModulus, TwistPair, lattice_distance,
                                theta1)

TWO_PI_I = 2j * np.pi
TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * TAU.tau)
TW1 = TwistPair(0.17, 0.38)
HANDLE = HandleTwist(0.1, -0.22)


def _torus_moduli(scale=0.05, tau=TAU):
    wd = float(lattice_distance(W, tau))
    return RhoModuliTorus.create(tau, W, scale * (wd / 2) ** 2
                                 * np.exp(0.6j))


@pytest.fixture
def cold_handle():
    """The kept Laurent data of ``rho._handle_laurent`` emptied, so a test
    that counts the work of a build does not depend on which tests ran
    first."""
    rho._handle_laurent.cache_clear()


def _pt(u, v, offset=0.0):
    return TWO_PI_I * (u + v * TAU.tau) + offset


def _s_kappa(tw1, handle, x, y, mod):
    """S_kappa(x, y), log A continued at both points."""
    s = TorusMoments(tw1, handle, 1, mod)
    return complex(oracle.s_kappa_grid(s, [x], [s.log_a(x)], [y],
                                       [s.log_a(y)])[0, 0])


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

    def test_half_kappa_plain_kernel_and_resonance(self):
        # kappa = -1/2 takes the general formula; with theta = 1 as well
        # the sewn kernel hits 1 - T_11 = 0 and raises
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        assert half.kappa == -0.5
        x, y = 0.8 + 0.3j, -1.1 + 0.6j
        plain = np.exp(half.kappa * (np.log(x) - np.log(y))) / (x - y)
        assert abs(s_kappa_sphere(half, x, y) - plain) < 1e-15 * abs(plain)
        resonant = HandleTwist.from_multipliers(1.0, 1.0)
        ctx = RhoSphereContext(resonant, RhoModuliSphere.create(0.1), 8)
        with pytest.raises(ResonanceError):
            ctx.kernel(0.2 + 0.05j, -0.15 + 0.18j)


def _sphere_error(handle, q, n=24):
    """Relative distance of the sewn sphere at one pair from the exact
    genus-one kernel P1 of the same twist."""
    smod = RhoModuliSphere.create(q)
    big_l = -np.log(abs(q))
    lx, ly = -0.45 * big_l + 0.4j, -0.55 * big_l - 1.3j
    val = torus_from_sphere(handle, np.exp(lx), np.exp(ly), smod, n,
                            log_x=lx, log_y=ly)
    conv = val * np.exp(0.5 * (lx + ly))
    oracle = p1_series(handle, lx - ly, smod.tau)
    return abs(conv - oracle) / abs(oracle)


class TestSphereSewing:
    def test_det_product_vs_matrix(self):
        smod = RhoModuliSphere.create(0.1 * np.exp(0.7j))
        d_mat = RhoSphereContext(HANDLE, smod, 8).det()
        d_prod = det_i_minus_t_sphere(HANDLE, 8, smod)
        assert abs(d_mat - d_prod) < 1e-14

    def test_sewn_kernel_matches_genus_one(self):
        assert _sphere_error(HANDLE, 0.1 * np.exp(0.7j)) < 1e-11

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

    def test_half_kappa_matches_genus_one(self):
        # the periodic handle, phi_new = 1, sews by the general moments
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        assert _sphere_error(half, 0.05 + 0.02j) < 1e-12

    @given(alpha=st.sampled_from([0.5]) | st.floats(
               -0.5, 0.5, exclude_min=True, exclude_max=True),
           beta=st.floats(-0.4, 0.4))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_every_kappa_matches_genus_one(self, alpha, beta):
        # kappa = -1/2 (alpha = 1/2) is drawn exactly, beside kappa in
        # (-1/2, 1/2); |beta| <= 0.4 keeps theta_new away from 1
        assert _sphere_error(HandleTwist(alpha, beta), 0.05 + 0.02j) < 1e-10

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

    @pytest.mark.parametrize("n", [1, 6, 24])
    def test_batch_entries_equal_single_kernel_calls(self, n):
        # bit for bit: the bilinear form is reduced row by row, and no
        # one-entry product broadcasts from a lower-rank operand (at N = 1
        # each h block of one point is one entry)
        ctx = RhoSphereContext(HANDLE, RhoModuliSphere.create(
            0.2 * np.exp(0.7j)), n)
        rng = np.random.default_rng(5)
        big_l = -np.log(0.2)
        lx, ly = (-rng.uniform(0.35, 0.65, 8) * big_l
                  + 1j * rng.uniform(-3.0, 3.0, 8) for _ in range(2))
        xs, ys = np.exp(lx), np.exp(ly)
        grid = ctx.kernel_matrix(xs, ys, lx, ly)
        single = np.array([[ctx.kernel(x, y, a, b) for y, b in zip(ys, ly)]
                           for x, a in zip(xs, lx)])
        assert np.array_equal(grid, single)
        for i in range(xs.size):
            assert np.array_equal(
                ctx.kernel_matrix(xs[i:i + 1], ys, lx[i:i + 1], ly)[0],
                grid[i])
            assert np.array_equal(
                ctx.kernel_matrix(xs, ys[i:i + 1], lx, ly[i:i + 1])[:, 0],
                grid[:, i])
        assert ctx.kernel_matrix([], ys, [], ly).shape == (0, ys.size)
        assert ctx.kernel_matrix(xs, [], lx, []).shape == (xs.size, 0)

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

    def test_puncture_rejected_before_its_log(self):
        # the points are checked before the context takes their logs, so
        # the puncture raises DomainError, not a divide-by-zero warning
        ctx = RhoSphereContext(HANDLE, RhoModuliSphere.create(0.05 + 0.02j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="punctures"):
                ctx.kernel(0, 0.2 + 0.1j)
            with pytest.raises(DomainError, match="punctures"):
                ctx.kernel_matrix([0.2 + 0.05j], [-0.15 + 0.18j, 0.0])

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
        # A(z + 2 pi i) = A(z): the continued logs differ by 2 pi i Z
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
    def test_far_point_matches_quotient(self):
        # twenty periods out theta1(z) itself overflows; the reduced
        # quotient and the continued branch must not
        mod = _torus_moduli()
        z = TWO_PI_I * (0.37 + 20.21 * TAU.tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            la = log_a_torus(z, TAU, W, z_ref=mod.z_ref,
                             log_a_ref=mod.log_a_ref)
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
        alone = oracle._a_values(np.array([z]), TAU, W)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = oracle._a_values(np.array([z, far, 9.0 + 0.1j]), TAU, W)
        assert batch[0] == alone[0]
        assert np.all(np.isfinite(batch))


class TestTorusSewing:
    def test_domain_rejects_large_rho(self):
        with pytest.raises(DomainError):
            _torus_moduli(scale=30.0)

    def test_domain_rejects_lattice_puncture(self):
        with pytest.raises(DomainError):
            RhoModuliTorus.create(TAU, 0.0, 0.001)

    def test_one_rho_bound_at_the_moduli(self):
        # the moduli refuse |rho| >= (r / X_RADIUS_FACTOR)^2, the largest
        # rho whose x contours fit in the sewing annuli, so rho = 0.9 r^2
        # is refused before any build; the message names |rho|, the
        # bound and the lattice distance of w
        r = _torus_moduli().radius
        bound = (r / rho.X_RADIUS_FACTOR) ** 2
        with pytest.raises(DomainError) as exc:
            RhoModuliTorus.create(TAU, W, 0.9 * r * r * np.exp(0.6j))
        for value in (0.9 * r * r, bound, float(lattice_distance(W, TAU))):
            assert f"{value:.3e}" in str(exc.value)
        # only an oracle quadrature scaled past the annulus can leave it
        mom = TorusMoments(TW1, HANDLE, 1, RhoModuliTorus.create(
            TAU, W, 0.97 * bound * np.exp(0.6j)))
        oracle.TorusQuadrature(mom, 32)
        with pytest.raises(DomainError, match="exceeds the sewing annulus"):
            oracle.TorusQuadrature(mom, 32, radius_scale=1.1)

    @pytest.mark.parametrize("name", ["gamma1-S", "A"])
    def test_modular_images_keep_the_rho_bound(self, name):
        # |rho| / r^2 is invariant under gamma_1 and the shifts of w, so
        # the images of a context at 0.97 of the bound still build
        base = _torus_moduli()
        bound = (base.radius / rho.X_RADIUS_FACTOR) ** 2
        mod = RhoModuliTorus.create(TAU, W, 0.97 * bound * np.exp(0.6j))
        g = {"gamma1-S": RhoGroupElement.gamma1(0, -1, 1, 0),
             "A": RhoGroupElement.a_shift(1)}[name]
        image, _ = g.transform(RhoTorusContext(TW1, HANDLE, mod, 8, 64))
        ratio = abs(image.moduli.rho) / image.moduli.radius ** 2
        assert abs(ratio - 0.97 / rho.X_RADIUS_FACTOR ** 2) < 1e-12
        assert np.isfinite(image.det())

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
        # continued log A enters only through differences, so moving the
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
        with pytest.raises(TypeError):
            rho.TorusMoments(TW1, HANDLE, 8, mod, 64, radius_scale=1.15)
        # the derived anchor value is a logarithm of A at z_ref
        a = theta1(mod.z_ref - W, TAU) / theta1(mod.z_ref, TAU)
        assert abs(np.exp(mod.log_a_ref) - a) < 1e-12 * abs(a)

    def test_far_anchor_value_is_a_log_of_a(self):
        # 400 periods out A(z_ref) itself leaves the floating-point range;
        # its logarithm does not, and moves by 400 w mod 2 pi i
        near = TWO_PI_I * (0.3 + 0.4 * TAU.tau)
        base = dataclasses.replace(_torus_moduli(), z_ref=near)
        far = dataclasses.replace(base, z_ref=near + TWO_PI_I * 400 * TAU.tau)
        k = (far.log_a_ref - base.log_a_ref - 400 * W) / TWO_PI_I
        assert abs(k - round(k.real)) < 1e-9

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
        at_build = len(reads)
        pairs = list(zip(*_rho_points(ctx.moduli)))
        for x, y in pairs:
            ctx.kernel(x, y)
        # the build reads several distances (w and z_ref), and each
        # kernel call one (its validation pass)
        assert len(built) == 1 and at_build >= 2
        assert len(reads) - at_build == len(pairs)
        lattice_distance(W, TorusModulus(TAU.tau))
        assert len(built) == 2

    def test_kernel_reuses_base_kernel_constants(self, monkeypatch,
                                                 cold_handle):
        # theta[alpha1;beta1](kappa w) and theta1'(0) are evaluated once
        # by the first build and never per kernel call; theta1'(0) is kept
        # per modulus, so the moduli get a fresh one; it is the one
        # theta_1 sum of a build, since the contour log A takes none
        calls = {"theta_kw": 0, "theta1_d0": 0, "theta": 0, "substitute": 0}
        sums, substitute = specialfn._theta_sums, rho._substitute

        def counting_sums(chars, z, tau, kmax, n_rows):
            if chars == ((TW1.alpha, TW1.beta),):
                calls["theta_kw"] += 1
            if chars == ((0.5, 0.5),):
                calls["theta1_d0"] += 1
            calls["theta"] += 1
            return sums(chars, z, tau, kmax, n_rows)

        def counting_substitute(a, b):
            calls["substitute"] += 1
            return substitute(a, b)
        monkeypatch.setattr(specialfn, "_theta_sums", counting_sums)
        monkeypatch.setattr(rho, "_substitute", counting_substitute)
        tau = TorusModulus(TAU.tau)
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(tau=tau), 6, 32)
        # the guard, theta1'(0) and the Laurent stage at +-w and 0
        first = {"theta_kw": 1, "theta1_d0": 1, "theta": 3, "substitute": 1}
        assert calls == first
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))
        assert calls["theta_kw"] == 1 and calls["theta1_d0"] == 1
        # none of it depends on rho: builds on the same tau, w and handle
        # at another rho, or after the handle Dehn move, take no theta sum
        # and no substitution
        calls.update(first)
        mod = _torus_moduli(scale=0.2, tau=tau)
        RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        RhoTorusContext(TW1, HANDLE, dataclasses.replace(
            mod, log_rho=mod.log_rho + TWO_PI_I), 6, 32)
        assert calls == first

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
            assert near.moments.tracked
            assert abs(near.kernel(x, y) - v) < 1e-7 * abs(v)
            assert abs(near.det() - d) < 1e-7 * abs(d)

    def test_half_kappa_handle(self):
        # kappa = -1/2 builds and converges in N; kappa = -1/2 + delta and
        # 1/2 - delta (the same phi_new from the other side) approach it
        # at O(delta), the slope reading 7.3; the inverse handle has
        # kappa = -1/2 again
        mod = _torus_moduli()
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        half = HandleTwist(0.5, -0.22)
        assert half.kappa == -0.5
        vals = [RhoTorusContext(TW1, half, mod, n, 64).kernel(x, y)
                for n in (8, 16, 32)]
        v = vals[-1]
        assert max(abs(u - v) for u in vals) < 1e-13 * abs(v)
        for delta in (1e-9, 1e-6):
            for kap in (-0.5 + delta, 0.5 - delta):
                near = HandleTwist(kap, -0.22)
                val = RhoTorusContext(TW1, near, mod, 32, 64).kernel(x, y)
                assert abs(val - v) < 20 * delta * abs(v)
        inv = RhoTorusContext(TW1.inverse(), HandleTwist(-0.5, 0.22), mod,
                              32, 64)
        assert abs(v + inv.kernel(y, x)) < 1e-12 * abs(v)

    @pytest.mark.parametrize("n,m", [(12, 64), (16, 128)])
    def test_contour_starts_share_a_sheet(self, n, m):
        # w lies 6.7e-3 below the real axis, so the segments from
        # z_ref = w/2 to the start nodes of the inner (radius 0.260) and
        # outer (0.407) contours around 0 pass 3.1e-4 and 4.6e-4 below
        # the pole at 0; both must pass it on that side.  Split sheets
        # gave converged values with skew residuals of 2.76 and 4.65
        mod = RhoModuliTorus.create(
            -0.3518043646580238 + 1.22239291091299j,
            -5.036862195863973 - 0.0066573642131724335j,
            -0.03691333467243803 + 0.09921609567269367j)
        tw1 = TwistPair(0.03710664164609295, -0.42027656207476505)
        handle = HandleTwist(-0.3846086372884161, 0.015979698791629082)
        ctx = RhoTorusContext(tw1, handle, mod, n, m)
        inv = RhoTorusContext(tw1.inverse(),
                              HandleTwist(-handle.alpha, -handle.beta),
                              mod, n, m)
        for x, y in [(-1.18905621106495 + 3.613527106611669j,
                      -2.8809316289178626 + 1.5833342695196764j),
                     (-1.29100001220246 + 2.3448930022544556j,
                      -5.371278021552781 + 1.5044198246311897j)]:
            v = ctx.kernel(x, y)
            assert abs(v + inv.kernel(y, x)) <= 1e-12 * abs(v)
        r = mod.contour_radius
        s = ctx.moments
        for a in (1, 2):
            outer, inner = oracle.torus_contours(
                s, [(a, rho.X_RADIUS_FACTOR * r),
                    (a, rho.Y_RADIUS_FACTOR * r)], m)
            # the radial segment between the start nodes meets no zero or
            # pole, so continuing along it must land on the outer sheet
            radial = log_a_torus(outer.points[0], mod.tau, mod.w,
                                 z_ref=inner.points[0],
                                 log_a_ref=inner.log_a[0])
            assert abs(radial - outer.log_a[0]) < 1e-12

    def test_contours_below_the_pole_guard(self, monkeypatch):
        # rho = 1e-18 puts the contours 1.5e-9 from the punctures, inside
        # POLE_GUARD: their log A takes no point check, so the build runs,
        # and the kernel converges in N and is skew
        tw1, handle, mod = verify._rho_torus_setup(1e-18)
        assert mod.contour_radius < POLE_GUARD
        xs, ys = (np.array(p) for p in zip(*verify._rho_torus_pairs(mod, 4)))
        ctx8, ctx12 = (RhoTorusContext(tw1, handle, mod, n) for n in (8, 12))
        v8, v12 = (c.kernel_matrix(xs, ys) for c in (ctx8, ctx12))
        inv = RhoTorusContext(tw1.inverse(),
                              HandleTwist(-handle.alpha, -handle.beta), mod, 8)
        assert np.all(np.abs(v12 - v8) <= 1e-13 * np.abs(v12))
        assert np.all(np.abs(v8 + inv.kernel_matrix(ys, xs).T)
                      <= 1e-13 * np.abs(v8))
        # a build reads log A on one two-vertex path per contour (its
        # start node, then r/16 from the puncture) for the sheet of its
        # U^kappa constant; rebuild with log A on those paths tracked from
        # 40-digit theta_1 quotients, keeping only the integer sheet of
        # each start node, and the kernel and det must not see the
        # difference
        closed_form = rho._continue_log_a

        def tracked(paths, tau, w, z_ref, log_a_ref):
            val = closed_form(paths, tau, w, z_ref, log_a_ref)
            if paths.shape[1] == 1:  # points, not contour paths
                return val
            with mpmath.workdps(40):
                q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.tau))
                a = [[mpmath.jtheta(1, (mpmath.mpc(z) - w) / 2j, q)
                      / mpmath.jtheta(1, mpmath.mpc(z) / 2j, q) for z in p]
                     for p in paths]
                ref = np.array([np.cumsum([complex(mpmath.log(p[0]))] + [
                    complex(mpmath.log(p[j] / p[j - 1]))
                    for j in range(1, len(p))]) for p in a])
            sheet = TWO_PI_I * np.round(
                (val[:, :1] - ref[:, :1]).imag / (2 * np.pi))
            assert np.max(np.abs(val - ref - sheet)) < 1e-6
            return ref + sheet

        monkeypatch.setattr(rho, "_continue_log_a", tracked)
        ref = RhoTorusContext(tw1, handle, mod, 8)
        assert np.all(np.abs(v8 - ref.kernel_matrix(xs, ys))
                      <= 1e-13 * np.abs(v8))
        assert abs(ctx8.det() - ref.det()) <= 1e-13 * abs(ref.det())

    def test_contours_below_the_log_a_floor(self):
        # a build reads only integer sheets of log A, so it takes contour
        # radii below oracle._LOG_A_RADIUS_FLOOR, the floor of its nodes:
        # at rho scale 1e-24 (contour radius 1.5e-12) the kernel converges
        # in N and is skew
        tw1, handle, mod = verify._rho_torus_setup(1e-24)
        assert mod.contour_radius < oracle._LOG_A_RADIUS_FLOOR
        xs, ys = (np.array(p) for p in zip(*verify._rho_torus_pairs(mod, 4)))
        ctx8, ctx12 = (RhoTorusContext(tw1, handle, mod, n) for n in (8, 12))
        v8, v12 = (c.kernel_matrix(xs, ys) for c in (ctx8, ctx12))
        inv = RhoTorusContext(tw1.inverse(),
                              HandleTwist(-handle.alpha, -handle.beta), mod, 8)
        assert np.all(np.abs(v12 - v8) <= 1e-13 * np.abs(v12))
        assert np.all(np.abs(v8 + inv.kernel_matrix(ys, xs).T)
                      <= 1e-13 * np.abs(v8))
        # the oracle's nodes round w would lose their offset from w to
        # rounding, so its contours keep the floor
        with pytest.raises(DomainError, match="contour radius below"):
            oracle.TorusQuadrature(ctx8.moments, ctx8.moments.m_points)
        # at 1e-34 (a contour 1.5e-17 from a puncture) the sheet probe
        # r/16 from w rounds to w: a typed error before any log of 0
        tw1, handle, mod = verify._rho_torus_setup(1e-34)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="sheet probe"):
                RhoTorusContext(tw1, handle, mod, 8)
        # at kappa = 0 log A does not enter, and the build runs
        assert np.isfinite(RhoTorusContext(tw1, HandleTwist(0.0, -0.22),
                                           mod, 8).det())


def _rho_points(mod):
    """Grid points clear of the sewing contours, around both punctures."""
    xs = np.array([_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W),
                   _pt(0.35, 0.81), _pt(0.77, 0.38)])
    ys = np.array([_pt(0.61, 0.12, offset=W) + 0.4, _pt(0.52, 0.26),
                   _pt(0.18, 0.67, offset=W)])
    return xs, ys


class TestKernelMatrix:
    @pytest.mark.parametrize("kappa", [0.1, 0.0])
    @pytest.mark.parametrize("supplied", [False, True])
    def test_matches_looped_kernel(self, kappa, supplied):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HandleTwist(kappa, -0.22), mod, 10, 64)
        s = ctx.moments
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
        # a point twenty periods out, continued in the same call
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
        s = ctx.moments
        xs, ys = _rho_points(mod)
        lax, lay = s.log_a(xs), s.log_a(ys)
        # two x points with one branch used to broadcast to a wrong value,
        # here and in the grids and moment rows behind it
        for x, lx, ly in ((xs[:2], lax[:1], None), (xs[:2], lax[:1], lay),
                          (xs, lax, lay[1:]), (xs, lax, lay + np.nan)):
            with pytest.raises(DomainError):
                ctx.kernel_matrix(x, ys, lx, ly)
        tq = oracle.TorusQuadrature(ctx.moments, ctx.moments.m_points)
        for call in (lambda: oracle.s_kappa_grid(s, xs[:2], lax[:1], ys, lay),
                     lambda: tq.h_matrix(xs[:2], lax[:1]),
                     lambda: tq.hbar_matrix(ys, lay[1:])):
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

    def test_one_closed_form_call_per_call(self, monkeypatch):
        # log A of every point comes from one vectorised closed-form
        # call, not one call per point
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        calls = []
        closed = rho._continue_log_a

        def counting(zs, *args):
            calls.append(np.size(zs))
            return closed(zs, *args)
        monkeypatch.setattr(rho, "_continue_log_a", counting)
        ctx.kernel_matrix(xs, ys)
        assert calls == [xs.size + ys.size]
        s = ctx.moments
        fresh = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        fresh.kernel_matrix(xs, ys, [s.log_a(x) for x in xs])
        assert calls[-1] == ys.size

    def test_one_lattice_reduction_per_call(self, monkeypatch):
        # x - c and c - y of every point and the x - y grid take one
        # reduction, which validation, the pole guard and the theta stage
        # read; the public log_a_torus keeps its own check of A's zeros
        # and poles
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        xs, ys = _rho_points(mod)
        sizes = []
        reduce = rho._reduce_off_lattice

        def counting(z, tau):
            sizes.append(np.size(z))
            return reduce(z, tau)
        monkeypatch.setattr(rho, "_reduce_off_lattice", counting)
        ctx.kernel_matrix(xs, ys)
        assert sizes == [2 * (xs.size + ys.size) + xs.size * ys.size]
        for z in (0.0, np.array([xs[0], W + TWO_PI_I * TAU.tau])):
            with pytest.raises(DomainError, match="zero or pole"):
                log_a_torus(z, TAU, W, z_ref=mod.z_ref,
                            log_a_ref=mod.log_a_ref)

    def test_exact_distance_only_where_the_bound_cannot_clear(
            self, monkeypatch):
        # the moduli measure w and z_ref when built, before counting
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, 32)
        small = RhoTorusContext(TW1, HANDLE, RhoModuliTorus.create(
            0.3 + 0.1j, -0.16964600329384885 + 2.456725455107218j,
            0.03325904015858834 + 0.0227537335826048j), 8)
        measured = []
        exact = specialfn.lattice_distance

        def counting(z, tau):
            measured.append(np.size(z))
            return exact(z, tau)
        monkeypatch.setattr(rho, "lattice_distance", counting)
        monkeypatch.setattr(specialfn, "lattice_distance", counting)
        # cell-interior points at Im tau = 1.1, far from the lines through
        # 0 and w: the reduction's edge clears the contour margin
        ctx.kernel_matrix([_pt(0.1, 0.45), _pt(0.7, 0.5), _pt(0.35, 0.58)],
                          [_pt(0.4, 0.55), _pt(0.9, 0.42)])
        assert measured == []
        # at tau = 0.3+0.1i the strip is 0.63 wide and the margin 0.26:
        # both points are measured against 0 and w, in one call
        assert np.isfinite(small.kernel(
            -0.03262378063221206 + 3.9059694676986854j,
            -0.2799533522693228 + 6.661605712254575j))
        assert measured == [2 * 2]

    @pytest.mark.parametrize("n", [1, 12])
    def test_batch_entries_equal_single_kernel_calls(self, n):
        # bit for bit: every stage works row by row, whatever the batch
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, n, 32)
        xs, ys = _rho_points(mod)
        grid = ctx.kernel_matrix(xs, ys)
        single = np.array([[ctx.kernel(x, y) for y in ys] for x in xs])
        assert np.array_equal(grid, single)
        for i, x in enumerate(xs):
            assert np.array_equal(ctx.kernel_matrix([x], ys)[0], grid[i])
        for j, y in enumerate(ys):
            assert np.array_equal(ctx.kernel_matrix(xs, [y])[:, 0], grid[:, j])
        assert ctx.kernel_matrix([], ys).shape == (0, ys.size)
        assert ctx.kernel_matrix(xs, []).shape == (xs.size, 0)

    def test_one_theta_stage_no_quadrature_per_call(self, monkeypatch):
        # h, hbar and the base kernel of every point come from one theta
        # sum and one substitution; no call takes a contour grid
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 10, 32)
        xs, ys = _rho_points(mod)
        ctx.kernel(xs[0], ys[0])  # the gated inverse is kept
        ctx._points.clear()  # so the counts are those of new points
        tq = oracle.TorusQuadrature(ctx.moments, ctx.moments.m_points)
        calls = []
        sums, substitute = specialfn._theta_sums, rho._substitute
        grid = oracle.s_kappa_grid

        def counting_sums(chars, zs, tau, kmax, n_rows):
            calls.append(("theta", zs.size, kmax, n_rows))
            return sums(chars, zs, tau, kmax, n_rows)

        def counting_substitute(a, b):
            calls.append(("substitute", a.shape))
            return substitute(a, b)

        def counting_grid(*args):
            calls.append(("grid",))
            return grid(*args)
        monkeypatch.setattr(specialfn, "_theta_sums", counting_sums)
        monkeypatch.setattr(rho, "_substitute", counting_substitute)
        monkeypatch.setattr(oracle, "s_kappa_grid", counting_grid)
        # Taylor rows at x, x - w, w - y and -y, the value x - y and the
        # origin
        ctx.kernel(xs[0], ys[0])
        assert calls == [("theta", 6, 10, 4), ("substitute", (4, 10))]
        calls.clear()
        ctx._points.clear()
        ctx.kernel_matrix(xs, ys)
        p, q = xs.size, ys.size
        assert calls == [("theta", 2 * (p + q) + p * q + 1, 10, 2 * (p + q)),
                         ("substitute", (2 * (p + q), 10))]
        calls.clear()
        # the quadrature h stays, as the oracle of the Taylor rows: one
        # grid of S_kappa at the points and the nodes of both y contours,
        # all value-only points of one theta sum
        tq.h_matrix(xs)
        nodes = 2 * (tq.m_points + 1)
        assert calls == [("grid",), ("theta", xs.size * nodes + 1, 1, 0)]

    def test_closure_checks_run_in_oracle_calls_only(self, monkeypatch):
        # a build takes the U^kappa moments in closed form and a kernel
        # call reads Taylor rows, so neither checks a contour integrand;
        # each quadrature oracle checks its own integrands
        names = []
        check = oracle._check_closure

        def recording(first, last, scale, what):
            names.append(what if isinstance(what, str) else tuple(what))
            return check(first, last, scale, what)
        monkeypatch.setattr(oracle, "_check_closure", recording)
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 8, 32)
        ctx.kernel_matrix(*_rho_points(mod))
        tq = oracle.TorusQuadrature(ctx.moments, ctx.moments.m_points)
        assert names == []
        tq.u_moments()
        assert names == [("U^kappa_1 contour", "U^kappa_2 contour")] * 2
        names.clear()
        tq.h_matrix(_rho_points(mod)[0])
        assert names == [("h_1 contour", "h_2 contour")]
        names.clear()
        # G, the x-contour moment of the Taylor rows h, checks those
        tq.g_matrix()
        assert names == [("G_1 contour", "G_2 contour")]

    def test_closure_error_names_the_contour(self):
        # the closure check is the branch check of the quadrature oracle:
        # an integrand whose closure node misses its start node by 1e-6
        # relative (or is NaN), or a contour log A without its turn round
        # the puncture, raises BranchTrackingError naming the contour
        m = 32
        mom = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, m).moments
        tq = oracle.TorusQuadrature(mom, m)
        log_a = np.array([c.log_a for c in tq.y])
        f = np.exp(-mom.kappa * log_a).reshape(1, -1)
        tq._moments(tq._y_modes, f, "U^kappa")
        for a in (1, 2):
            moved = f.copy()
            moved[0, a * (m + 1) - 1] *= 1.0 + 1e-6
            lost = f.copy()
            lost[0, a * (m + 1) - 1] = np.nan
            unturned = log_a.copy()
            unturned[a - 1, m] = unturned[a - 1, 0]
            for bad in (moved, lost, np.exp(-mom.kappa * unturned)):
                with pytest.raises(BranchTrackingError,
                                   match=rf"U\^kappa_{a} contour"):
                    tq._moments(tq._y_modes, bad.reshape(1, -1), "U^kappa")

    def test_grid_memory_does_not_grow_with_the_batch(self):
        # a 200 x 200 grid at the pinned verify moduli and (12, 64): the
        # theta sums and the bilinear form take a block of points at a
        # time; 5.3 MB at peak, 56.9 MB when both held the whole grid
        tw1, handle, mod = verify._rho_torus_setup()
        ctx = RhoTorusContext(tw1, handle, mod, 12, 64)
        xs, ys = (np.array(p) for p in zip(*verify._rho_torus_pairs(mod, 200)))
        assert xs.size == ys.size == 200
        ctx.kernel(xs[0], ys[0])  # the gated inverse is kept
        tracemalloc.start()
        try:
            ctx.kernel_matrix(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

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


def _seeded_torus(seed, n, m, kappa=None):
    """A self-sewn torus context drawn from the seed (kappa replaced when
    given) and six points that clear its x contours by 1.8 times their
    radius, where the quadrature oracle is converged."""
    rng = np.random.default_rng(seed)
    tau = TorusModulus(complex(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 1.5)))
    w = TWO_PI_I * (rng.uniform(0.2, 0.8) + rng.uniform(0.2, 0.8) * tau.tau)
    wd = float(lattice_distance(w, tau))
    r = rho.RADIUS_FACTOR * min(specialfn.min_lattice_distance(tau), wd)
    mod = RhoModuliTorus.create(
        tau, w, rng.uniform(0.02, 0.08) * min(r * r, wd * wd / 4)
        * np.exp(TWO_PI_I * rng.uniform()))
    tw1 = TwistPair(*rng.uniform(-0.5, 0.5, 2))
    alpha, beta = rng.uniform(-0.45, 0.45, 2)
    handle = HandleTwist(alpha if kappa is None else kappa, beta)
    margin = 1.8 * rho.X_RADIUS_FACTOR * mod.contour_radius
    pts = []
    while len(pts) < 6:
        z = TWO_PI_I * (rng.uniform() + rng.uniform() * tau.tau)
        if min(lattice_distance(z, tau), lattice_distance(z - w, tau)) \
                > margin:
            pts.append(z)
    return RhoTorusContext(tw1, handle, mod, n, m), np.array(pts)


def _quadrature(ctx):
    """The quadrature oracle of a context's moments at its M."""
    return oracle.TorusQuadrature(ctx.moments, ctx.moments.m_points)


def _rows_error(ctx, zs):
    """Largest deviation of the Taylor rows h and hbar at zs from their
    contour quadrature, each row relative to its largest entry."""
    mom, tq = ctx.moments, _quadrature(ctx)
    la = mom.log_a(zs)
    k = zs.size // 2  # x - y must avoid the lattice: two calls
    h1, hb1, _ = mom.taylor_rows(zs[:k], la[:k], zs[k:], la[k:])
    h2, hb2, _ = mom.taylor_rows(zs[k:], la[k:], zs[:k], la[:k])
    return max(float(np.max(np.max(np.abs(rows - quad), axis=1)
                            / np.max(np.abs(quad), axis=1)))
               for rows, quad in ((np.vstack([h1, h2]), tq.h_matrix(zs, la)),
                                  (np.vstack([hb2, hb1]),
                                   tq.hbar_matrix(zs, la))))


class TestTaylorRows:
    """h and hbar as Laurent coefficients (TorusMoments.taylor_rows)
    against their contour quadrature, the route the kernel used before."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,m", [(12, 64), (16, 128)])
    def test_rows_match_quadrature(self, seed, n, m):
        ctx, zs = _seeded_torus(seed, n, m)
        assert ctx.moments.tracked
        assert _rows_error(ctx, zs) < 1e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_untwisted_handle(self, seed):
        # kappa = 0: no log A, no kappa v shift of the characteristic
        ctx, zs = _seeded_torus(seed, 12, 64, kappa=0.0)
        assert not ctx.moments.tracked
        assert _rows_error(ctx, zs) < 1e-13

    @pytest.mark.parametrize("name", ["A", "B", "C", "gamma1-T"])
    def test_modular_images(self, name):
        # the images move w by periods, pick up a winding of log A around
        # w or rescale tau; their rows still match their quadrature
        g = dict(verify._RHO_GENERATORS)[name]
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 12, 64)
        image, point = g.transform(ctx)
        xs, _ = _rho_points(ctx.moduli)
        zs = np.array([point(z)[0] for z in xs])
        assert _rows_error(image, zs) < 1e-13

    def test_near_pole_pair(self):
        # the split-sheet configuration: the start nodes of both contours
        # around 0 are continued just below the pole at 0; the U^kappa
        # moments read those sheets
        mod = RhoModuliTorus.create(
            -0.3518043646580238 + 1.22239291091299j,
            -5.036862195863973 - 0.0066573642131724335j,
            -0.03691333467243803 + 0.09921609567269367j)
        ctx = RhoTorusContext(
            TwistPair(0.03710664164609295, -0.42027656207476505),
            HandleTwist(-0.3846086372884161, 0.015979698791629082), mod,
            12, 64)
        zs = np.array([-1.18905621106495 + 3.613527106611669j,
                       -2.8809316289178626 + 1.5833342695196764j,
                       -1.29100001220246 + 2.3448930022544556j,
                       -5.371278021552781 + 1.5044198246311897j])
        assert _rows_error(ctx, zs) < 1e-13

    def test_base_kernel_matches_grid(self):
        # the value-only points x - y give S_kappa of oracle.s_kappa_grid
        ctx, zs = _seeded_torus(7, 8, 32)
        s = ctx.moments
        la = s.log_a(zs)
        _, _, base = ctx.moments.taylor_rows(zs[:3], la[:3], zs[3:], la[3:])
        grid = oracle.s_kappa_grid(s, zs[:3], la[:3], zs[3:], la[3:])
        assert np.all(np.abs(base - grid) <= 1e-14 * np.abs(grid))


# small Im tau, where the twisted Eisenstein q-series loses digits (one
# chart of the square torus, one far from the reduced strip, and 0.05)
SMALL_IM_TAU = [0.3 + 0.1j, 2.3 + 0.1j, 0.3 + 0.05j]


# the closed-form ingredients of G, h and hbar, as (TorusMoments method,
# index of the output that carries it)
_INGREDIENTS = {"H": ("_taylor_blocks", 0), "Hbar": ("_taylor_blocks", 1),
                "d": ("_taylor_blocks", 2), "P(+-w)": ("_laurent", 0),
                "R_n": ("_laurent", 1), "E": ("_u_moments", 0),
                "Ebar": ("_u_moments", 1)}


class TestClosedFormG:
    """G from Laurent data at the punctures (TorusMoments._closed_g)
    against its contour quadrature, the x-contour moment of the Taylor
    rows h; measured at most 1.8e-13 per block over these cases (at
    tau = 2.3+0.1i; 4.8e-14 elsewhere)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,m", [(12, 64), (16, 128)])
    def test_matches_quadrature(self, seed, n, m):
        ctx, _ = _seeded_torus(seed, n, m)
        assert ctx.moments.tracked
        assert verify._g_error(_quadrature(ctx)) < 5e-13

    @pytest.mark.parametrize("seed", range(3))
    def test_untwisted_handle(self, seed):
        # kappa = 0: d_{a,i} is 1 at i = 0 and 0 beyond
        ctx, _ = _seeded_torus(seed, 12, 64, kappa=0.0)
        assert verify._g_error(_quadrature(ctx)) < 5e-13

    @pytest.mark.parametrize("name", ["A", "B", "C", "gamma1-T"])
    def test_modular_images(self, name):
        g = dict(verify._RHO_GENERATORS)[name]
        image, _ = g.transform(RhoTorusContext(TW1, HANDLE, _torus_moduli(),
                                               12, 64))
        assert verify._g_error(_quadrature(image)) < 5e-13

    @pytest.mark.parametrize("scale", [0.05, 0.3])
    @pytest.mark.parametrize("tau_c", SMALL_IM_TAU)
    def test_small_im_tau(self, tau_c, scale):
        mod = _moduli_at(tau_c, scale)
        for n, m in [(12, 64), (16, 128)]:
            ctx = RhoTorusContext(TW1, HANDLE, mod, n, m)
            assert verify._g_error(_quadrature(ctx)) < 5e-13

    def test_rounding_level_on_wide_contours(self):
        # at the CI moduli the x contours lie 31x inside the sewing
        # annulus; against the default-radius oracle G reads 3.0e-13 at
        # M = 64 and 128, on contours 5x (10x) larger 5.8e-15 / 5.1e-15
        # (3.1e-15 / 1.2e-15): that floor is the oracle's, and the closed
        # form is at rounding level in its a != b blocks too
        mod = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                    0.001 + 0.0006j)
        mom = rho.TorusMoments(TW1, HANDLE, 16, mod)
        tq = oracle.TorusQuadrature(mom, 128, radius_scale=5)
        assert verify._g_error(tq) < 5e-14

    @pytest.mark.parametrize("tau_c", SMALL_IM_TAU)
    def test_laurent_data(self, tau_c):
        # R_n of P1[char](z) = 1/z + sum R_n z^{n-1} against a Cauchy sum
        # of p1_theta - 1/z on a circle of 0.75 times the shortest period
        # (1024 nodes, good to about 1e-12 here; the theta route reads
        # 2.3e-13 at most, the Eisenstein q-series 4.9e-5 to 8.8e-4), and
        # P_n at +-w against p_k_vector
        mom = RhoTorusContext(TW1, HANDLE, _moduli_at(tau_c), 12, 64).moments
        tau, w = mom.moduli.tau, mom.moduli.w
        p, r, _, _ = mom._laurent()
        assert p.shape == (2, 23) and r.shape == (23,)
        z, wq = oracle.circle_nodes(
            0.0, 0.75 * specialfn.min_lattice_distance(tau), 1024)
        vals = wq * (specialfn.p1_theta(mom.char, z, tau) - 1.0 / z)
        cauchy = vals @ z[:, None] ** -np.arange(1.0, 24.0)
        assert np.all(np.abs(r - cauchy) <= 1e-11 * np.abs(cauchy))
        ref = specialfn.p_k_vector(mom.char, 23, np.array([w, -w]), tau)
        assert np.all(np.abs(p - ref) <= 1e-14 * np.abs(ref))
        # the theta_1 data of the U^kappa moments: K(w) against theta1, and
        # S(t) = theta_1(w - t) t theta_1'(0) / (theta_1(w) theta_1(t))
        # against a Cauchy sum on a circle inside its disc, scaled by r^j
        s, log_k = mom._laurent()[2:]
        assert abs(np.exp(log_k) - specialfn.K(w, tau)) \
            <= 1e-14 * abs(np.exp(log_k))
        rad = 0.4 * min(specialfn.min_lattice_distance(tau),
                        lattice_distance(w, tau))
        t, wt = oracle.circle_nodes(0.0, rad, 256)
        quot = (theta1(w - t, tau) * t * tau.theta1_deriv0
                / (theta1(w, tau) * theta1(t, tau)))
        scale = rad ** np.arange(24.0)
        cauchy = (wt * quot) @ t[:, None] ** -np.arange(1.0, 25.0) * scale
        assert np.max(np.abs(s * scale - cauchy)) <= 1e-13

    @pytest.mark.parametrize("name", [None, *_INGREDIENTS])
    def test_oracles_see_every_ingredient(self, monkeypatch, name):
        # the G oracle is the x-contour moment of the Taylor rows h, so it
        # shares H with _closed_g; each closed-form ingredient moved by
        # 1e-9 relative (a fixed random phase per entry) must still fail
        # a gate of these tests at the verify setup: G, the h/hbar rows
        # or the U^kappa moments (a wrong H only the rows see)
        if name is not None:
            method, index = _INGREDIENTS[name]
            closed = getattr(rho.TorusMoments, method)

            def perturbed(self, *args):
                out = list(closed(self, *args))
                phase = np.random.default_rng(0).uniform(
                    size=np.shape(out[index]))
                out[index] = out[index] * (1.0 + 1e-9
                                           * np.exp(TWO_PI_I * phase))
                return tuple(out)
            monkeypatch.setattr(rho.TorusMoments, method, perturbed)
        tw1, handle, mod = verify._rho_torus_setup()
        ctx = RhoTorusContext(tw1, handle, mod, 12, 64)
        xs, ys = (np.array(p) for p in zip(*verify._rho_torus_pairs(mod, 4)))
        errors = (verify._g_error(_quadrature(ctx)),
                  _rows_error(ctx, np.concatenate([xs, ys])),
                  verify._moments_error(_quadrature(ctx)))
        failed = [e >= gate for e, gate in zip(errors, (5e-13, 1e-13, 1e-13))]
        assert any(failed) == (name is not None)


class TestClosedFormMoments:
    """The U^kappa moments from Laurent data at the punctures
    (TorusMoments._u_moments) against their contour quadrature, the
    route the build used before: coefficient j scaled by r^j of its
    contour, each row relative to its largest scaled entry (unscaled,
    the high orders differ by quadrature aliasing, up to 0.5 relative)."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n,m", [(12, 64), (16, 128)])
    def test_matches_quadrature(self, seed, n, m):
        ctx, _ = _seeded_torus(seed, n, m)
        assert ctx.moments.tracked
        assert verify._moments_error(_quadrature(ctx)) < 1e-13

    def test_untwisted_handle(self):
        # kappa = 0: E_{a,0} = 1 and every other moment 0
        ctx, _ = _seeded_torus(0, 12, 64, kappa=0.0)
        e, ebar = ctx.moments._u_moments()
        assert np.all(e[:, 0] == 1.0) and not e[:, 1:].any()
        assert np.all(ebar[:, 0] == 1.0) and not ebar[:, 1:].any()
        assert verify._moments_error(_quadrature(ctx)) < 1e-13

    @pytest.mark.parametrize("name", ["A", "B", "C", "gamma1-T"])
    def test_modular_images(self, name):
        g = dict(verify._RHO_GENERATORS)[name]
        image, _ = g.transform(RhoTorusContext(TW1, HANDLE, _torus_moduli(),
                                               12, 64))
        assert verify._moments_error(_quadrature(image)) < 1e-13

    @pytest.mark.parametrize("winding", [1, -2])
    def test_winding(self, winding):
        mod = dataclasses.replace(_torus_moduli(), winding=winding)
        ctx = RhoTorusContext(TW1, HANDLE, mod, 12, 64)
        assert verify._moments_error(_quadrature(ctx)) < 1e-13

    def test_split_sheet_moduli(self):
        # the start nodes of both contours round 0 are continued just
        # below the pole at 0 (test_contour_starts_share_a_sheet)
        mod = RhoModuliTorus.create(
            -0.3518043646580238 + 1.22239291091299j,
            -5.036862195863973 - 0.0066573642131724335j,
            -0.03691333467243803 + 0.09921609567269367j)
        ctx = RhoTorusContext(
            TwistPair(0.03710664164609295, -0.42027656207476505),
            HandleTwist(-0.3846086372884161, 0.015979698791629082), mod,
            12, 64)
        assert verify._moments_error(_quadrature(ctx)) < 1e-13

    @pytest.mark.parametrize("n,m", [(12, 64), (16, 128)])
    def test_small_im_tau(self, n, m):
        ctx = RhoTorusContext(TW1, HANDLE, _moduli_at(0.3 + 0.05j), n, m)
        assert verify._moments_error(_quadrature(ctx)) < 1e-13

    @pytest.mark.parametrize("n", [1, 8])
    def test_near_the_rho_bound(self, n):
        # rho at 0.97 of the largest |rho| whose x contours fit in the
        # sewing annulus: there the 2N-term series of S at a start node
        # is off by about 1e-8 at N = 8, so only an exact branch constant
        # passes, and at N = 1 it can misread the sheet
        base = _torus_moduli()
        bound = (base.radius / rho.X_RADIUS_FACTOR) ** 2
        mod = RhoModuliTorus.create(TAU, W, 0.97 * bound * np.exp(0.6j))
        ctx = RhoTorusContext(TW1, HANDLE, mod, n, 64)
        assert verify._moments_error(_quadrature(ctx)) < 1e-13


def _moduli_at(tau_c, scale=0.05):
    tau = TorusModulus(tau_c)
    w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
    wd = float(lattice_distance(w, tau))
    return RhoModuliTorus.create(tau, w, scale * (wd / 2) ** 2 * np.exp(0.6j))


def _theta_box(alpha, beta, z, tau):
    """theta[alpha;beta](z|tau) and the sum of the absolute values of its
    terms, summed directly, unreduced, over the terms m + alpha within
    R of each argument's largest term Re z / (2 pi Im tau): the rest lie
    below e^{-60} of it.  Independent of specialfn."""
    z = np.asarray(z, dtype=complex)
    radius = int(np.ceil(np.sqrt(60.0 / (np.pi * tau.imag)))) + 2
    peak = np.rint(z.real / (2.0 * np.pi * tau.imag) - alpha)
    ma = peak[..., None] + np.arange(-radius, radius + 1.0) + alpha
    terms = np.exp(1j * np.pi * tau * ma ** 2
                   + ma * (z[..., None] + 2j * np.pi * beta))
    return terms.sum(axis=-1), np.abs(terms).sum(axis=-1)


def _direct_reference(s, xs, lax, ys, lay, bump=0.0):
    """S_kappa from direct theta sums (``_theta_box``) at every pair, and
    its error scale sum|num terms|/|num| + sum|den terms|/|den|.

    ``bump`` moves the numerator sum by +bump * sum|terms| and the
    denominator sum by -bump * sum|terms|, each along its own phase.
    """
    tau = s.moduli.tau.tau
    diff = np.subtract.outer(np.asarray(xs), np.asarray(ys))
    num, num_size = _theta_box(s.tw1.alpha, s.tw1.beta,
                               diff + s.kappa * s.moduli.w, tau)
    den, den_size = _theta_box(0.5, 0.5, diff, tau)
    num = num + bump * num_size * num / np.abs(num)
    den = den - bump * den_size * den / np.abs(den)
    th0, _ = _theta_box(s.tw1.alpha, s.tw1.beta, s.kappa * s.moduli.w, tau)
    u_pow = np.exp(s.kappa * np.subtract.outer(np.asarray(lax),
                                               np.asarray(lay)))
    ref = u_pow * num / (th0 * den / s.moduli.tau.theta1_deriv0)
    return ref, num_size / np.abs(num) + den_size / np.abs(den)


def _within(grid, ref, scale, tol=1e-14):
    """Element-wise |grid - ref| <= tol |ref| scale."""
    return np.abs(grid - ref) <= tol * np.abs(ref) * scale


class TestSeparableGrid:
    """oracle.s_kappa_grid, one p1_theta call: the definition of
    S_kappa, batch independence, the pole contract and the work a build
    does."""

    @pytest.mark.parametrize("kappa", [0.37, 0.0, -0.3])
    @pytest.mark.parametrize("tau_c", [0.2 + 1.1j, 0.3 + 1.0j, 3.7 + 0.2j])
    def test_grid_matches_direct_reference(self, tau_c, kappa):
        mod = _moduli_at(tau_c)
        s = rho.TorusMoments(TW1, HandleTwist(kappa, -0.22), 1, mod)
        r = mod.contour_radius
        cx, cy, cz = oracle.torus_contours(
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
        cases = [  # (x points, x log A, y points, y log A)
            (cx.points, cx.log_a, cy.points, cy.log_a),
            # same centre, different radii
            (cx.points, cx.log_a, cz.points, cz.log_a),
            (pts, lap, cy.points, cy.log_a),
            (cx.points, cx.log_a, pts, lap),
            (pts[:1], lap[:1], pts[3:], lap[3:]),
            (pts[:2], lap[:2], pts[2:], lap[2:]),
        ]
        for xs, lax, ys, lay in cases:
            grid = oracle.s_kappa_grid(s, xs, lax, ys, lay)
            ref, scale = _direct_reference(s, xs, lax, ys, lay)
            assert grid.shape == ref.shape
            assert np.all(_within(grid, ref, scale))
            # a 2e-14 move of both theta sums is caught everywhere
            bumped, _ = _direct_reference(s, xs, lax, ys, lay, bump=2e-14)
            assert not np.any(_within(grid, bumped, scale))

    def test_values_do_not_depend_on_the_batch(self):
        mod = _torus_moduli()
        s = rho.TorusMoments(TW1, HANDLE, 1, mod)
        # far points: 9 + 0.1i, and x_0 moved twenty periods, past the
        # largest box a direct theta sum may take (log A moves by 20 w)
        xs = np.array([_pt(0.09, 0.53), 0.3 + 0.7j, 9.0 + 0.1j])
        ys = np.array([_pt(0.61, 0.12, offset=W), -2.5 + 3.0j])
        lax = [s.log_a(z) for z in xs]
        lay = [s.log_a(z) for z in ys]
        xs = np.append(xs, xs[0] + TWO_PI_I * 20 * TAU.tau)
        lax.append(lax[0] + 20 * W)
        batch = oracle.s_kappa_grid(s, xs, lax, ys, lay)
        for i in range(xs.size):
            for j in range(ys.size):
                one = oracle.s_kappa_grid(s, xs[i:i + 1], lax[i:i + 1],
                                          ys[j:j + 1], lay[j:j + 1])[0, 0]
                assert abs(batch[i, j] - one) <= 1e-15 * abs(one)

    @pytest.mark.parametrize("periods", [1, 6, 20])
    def test_far_points_follow_quasi_periodicity(self, periods):
        # S_kappa(x + 2 pi i k tau, y) = e^{-2 pi i k (beta1 - 1/2)}
        # S_kappa(x, y) when log A(x) moves by k w; at k = 20 a direct
        # theta sum would overflow
        mod = _torus_moduli()
        s = rho.TorusMoments(TW1, HANDLE, 1, mod)
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        lax, lay = s.log_a(x), s.log_a(y)
        val = oracle.s_kappa_grid(s, [x], [lax], [y], [lay])[0, 0]
        shift = TWO_PI_I * periods * TAU.tau
        far = oracle.s_kappa_grid(s, [x + shift], [lax + periods * W], [y],
                                  [lay])[0, 0]
        mult = np.exp(-TWO_PI_I * periods * (TW1.beta - 0.5))
        # the shifted argument carries a rounding error of ulp(|shift|)
        assert abs(far - mult * val) < 1e-14 * (1 + abs(shift)) * abs(val)

    def test_kernel_poles_raise(self):
        mod = _torus_moduli()
        ctx = RhoTorusContext(TW1, HANDLE, mod, 6, 32)
        s = ctx.moments
        c, y_contour = oracle.torus_contours(
            s, [(2, mod.contour_radius),
                (1, rho.Y_RADIUS_FACTOR * mod.contour_radius)], 32)
        # a contour against itself
        with pytest.raises(DomainError):
            oracle.s_kappa_grid(s, c.points, c.log_a, c.points, c.log_a)
        # a point on a moment contour
        node = y_contour.points[5]
        with pytest.raises(DomainError):
            ctx.moments.h_vector(node, s.log_a(node))
        with pytest.raises(DomainError):
            oracle.s_kappa_grid(s, [node], [s.log_a(node)],
                                y_contour.points, y_contour.log_a)
        # circles whose nodes meet modulo the lattice: x node r of the
        # circle around 0 and y node 2 pi i + r of the circle around
        # 2 pi i + 2r
        r = 0.5 * mod.contour_radius
        near = r * np.exp(TWO_PI_I * np.arange(33) / 32)
        far = TWO_PI_I + 2 * r - near
        assert lattice_distance(near[0] - far[0], TAU) < 1e-12
        with pytest.raises(DomainError):
            oracle.s_kappa_grid(s, near, y_contour.log_a, far, y_contour.log_a)

    def test_build_work_counts(self, monkeypatch):
        # a build takes no contour: log A at the start nodes of the four
        # contours (and r/16 inside them, for their sheets) comes from one
        # closed-form call, one two-vertex path per contour, and no
        # theta_1 sum; the quadrature oracle builds the contours; rho
        # measures no M x M lattice distance
        shapes = []
        calls = []
        contours = []
        distance = rho.lattice_distance
        closed, build_contours = rho._continue_log_a, oracle.torus_contours

        def recording_distance(z, tau):
            shapes.append(np.shape(z))
            return distance(z, tau)

        def counting_closed(paths, *args):
            calls.append(np.shape(paths))
            return closed(paths, *args)

        def counting_contours(s, specs, m):
            contours.append(len(specs))
            return build_contours(s, specs, m)

        def counting(name):
            method = getattr(oracle.TorusQuadrature, name)

            def wrapper(self, *args):
                contours.append(name)
                return method(self, *args)
            return wrapper

        def forbidden(*args):
            raise AssertionError("A evaluated by theta_1 sums in a build")
        monkeypatch.setattr(oracle, "_a_values", forbidden)
        monkeypatch.setattr(rho, "lattice_distance", recording_distance)
        for module in (rho, oracle):
            monkeypatch.setattr(module, "_continue_log_a", counting_closed)
        monkeypatch.setattr(oracle, "torus_contours", counting_contours)
        for name in ("_mode_table", "_moments"):
            monkeypatch.setattr(oracle.TorusQuadrature, name, counting(name))
        m = 32
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, m)
        assert contours == []
        assert calls == [(4, 2)]
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))
        assert contours == []
        tq = oracle.TorusQuadrature(ctx.moments, m)
        tq.g_matrix()
        tq.h_matrix([_pt(0.09, 0.53)])
        tq.hbar_matrix([_pt(0.61, 0.12, offset=W)])
        # one torus_contours call of four contours, with log A at their
        # nodes from one closed-form call; the rest are the build, the
        # kernel's two points and the oracles' points
        assert contours[0] == 4 and contours.count(4) == 1
        assert calls == [(4, 2), (2, 1), (4, m + 1), (1, 1), (1, 1)]
        assert shapes and all(sum(d >= m for d in sh) < 2 for sh in shapes)


class TestKeptHandleData:
    """The Laurent data of ``_handle_laurent`` are kept per (tw1, kappa,
    tau, w, N) for the process; a build that reads them back gives the
    same numbers bit for bit."""

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_warm_build_equals_cold(self, cold_handle, n):
        mod = _torus_moduli()
        xs, ys = _rho_points(mod)
        cold = RhoTorusContext(TW1, HANDLE, mod, n)
        info = rho._handle_laurent.cache_info()
        # equal, not identical, moduli: the key compares tau and w
        warm = RhoTorusContext(TW1, HANDLE, RhoModuliTorus.create(
            TAU.tau, W, mod.rho), n)
        assert rho._handle_laurent.cache_info().hits == info.hits + 1
        assert np.array_equal(cold.moments.g, warm.moments.g)
        assert cold.det() == warm.det()
        assert np.array_equal(cold.kernel_matrix(xs, ys),
                              warm.kernel_matrix(xs, ys))

    def test_kept_data_are_read_only(self, cold_handle):
        mom = TorusMoments(TW1, HANDLE, 4, _torus_moduli())
        arrays = [x for x in mom._handle_data if isinstance(x, np.ndarray)]
        assert len(arrays) == 4
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # O(N) rows only: no N x N block is kept
        assert all(arr.size <= 4 * mom.n_order for arr in arrays)

    def test_kept_data_are_bounded(self, cold_handle):
        for i in range(129):
            TorusMoments(TW1, HANDLE, 1, _torus_moduli(
                tau=TorusModulus(0.001 * i + TAU.tau)))
        info = rho._handle_laurent.cache_info()
        assert info.misses == 129 and info.currsize <= 128

    def test_errors_are_not_kept(self, cold_handle):
        # kappa = 0 and tw1 = [1/2; 1/2]: theta[1/2;1/2](kappa w) = 0
        for _ in range(2):
            with pytest.raises(ResonanceError, match="degenerate twist"):
                TorusMoments(TwistPair(0.5, 0.5), HandleTwist(0.0, -0.22), 4,
                             _torus_moduli())
        assert rho._handle_laurent.cache_info().currsize == 0
