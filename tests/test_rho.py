"""Handle-attaching schemes: sphere self-sewing and torus self-sewing."""

import cmath

import numpy as np
import pytest

from szegosew import rho
from szegosew.errors import DomainError, ResonanceError
from szegosew.rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                          RhoSphereContext, RhoTorusContext,
                          det_i_minus_t_sphere, log_a_torus, mode_index,
                          s_kappa_sphere, s_kappa_torus, sphere_moments,
                          szego_genus2_rho, torus_from_sphere)
from szegosew.specialfn import (TorusModulus, TwistPair, lattice_distance,
                                p1_series, theta1)

TWO_PI_I = 2j * np.pi
TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * TAU.tau)
TW1 = TwistPair(0.17, 0.38)
HANDLE = HandleTwist(0.1, -0.22)


def _torus_moduli(scale=0.05):
    wd = float(lattice_distance(W, TAU))
    return RhoModuliTorus.create(TAU, W, scale * (wd / 2) ** 2
                                 * np.exp(0.6j))


def _pt(u, v, offset=0.0):
    return TWO_PI_I * (u + v * TAU.tau) + offset


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
    def test_moments_diagonal(self):
        smod = RhoModuliSphere.create(0.1 * np.exp(0.7j))
        mom = sphere_moments(HANDLE, 6, smod)
        off = mom.t - np.diag(np.diag(mom.t))
        assert np.max(np.abs(off)) == 0.0

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

    def test_half_kappa_moments_rejected(self):
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        with pytest.raises(DomainError):
            sphere_moments(half, 8, RhoModuliSphere.create(0.1))

    def test_bad_q_rejected(self):
        with pytest.raises(DomainError):
            RhoModuliSphere.create(1.5)
        with pytest.raises(DomainError):
            RhoModuliSphere.create(0.0)

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
        v1 = s_kappa_torus(TW1, HANDLE, x, y, mod)
        hinv = HandleTwist(-HANDLE.alpha, -HANDLE.beta)
        v2 = s_kappa_torus(TW1.inverse(), hinv, y, x, mod)
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
            base = s_kappa_torus(TW1, HANDLE, x, y, mod)
            devs.append(abs(ctx.kernel(x, y) - base) / abs(base))
        # the correction decays like rho^{min(1/2 +- kappa)} = rho^{0.4}
        # here, i.e. a factor ~0.16 per two decades of rho
        assert devs[0] < 0.2
        assert devs[1] < 0.25 * devs[0]

    def test_quadrature_and_radius_stability(self):
        mod = _torus_moduli()
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        v = RhoTorusContext(TW1, HANDLE, mod, 8, 64).kernel(x, y)
        v2 = RhoTorusContext(TW1, HANDLE, mod, 8, 128).kernel(x, y)
        v3 = RhoTorusContext(TW1, HANDLE, mod, 8, 64,
                             radius_scale=1.15).kernel(x, y)
        assert abs(v - v2) < 1e-10 * abs(v)
        assert abs(v - v3) < 1e-10 * abs(v)

    def test_kernel_reuses_moduli_geometry(self, monkeypatch):
        # annulus and contour radii and the point margin are fixed when the
        # moduli and the context are built
        ctx = RhoTorusContext(TW1, HANDLE, _torus_moduli(), 6, 32)

        def forbidden(tau):
            raise AssertionError("lattice minimum recomputed per kernel call")
        monkeypatch.setattr(rho, "min_lattice_distance", forbidden)
        ctx.kernel(_pt(0.09, 0.53), _pt(0.61, 0.12, offset=W))

    def test_convenience_wrapper_matches_context(self):
        mod = _torus_moduli()
        x, y = _pt(0.09, 0.53), _pt(0.61, 0.12, offset=W)
        assert szego_genus2_rho(TW1, HANDLE, x, y, mod, 8, 64) \
            == RhoTorusContext(TW1, HANDLE, mod, 8, 64).kernel(x, y)

    def test_half_kappa_handle_rejected(self):
        half = HandleTwist.from_multipliers(np.exp(0.3j), 1.0)
        with pytest.raises((DomainError, ResonanceError)):
            RhoTorusContext(TW1, half, _torus_moduli(), 6, 32)
