"""Two-tori sewing: domain checks, degeneration, and the determinant identity."""

import dataclasses
import math

import numpy as np
import pytest

from szegosew import epsilon
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint,
                              build_q, c_matrix, epsilon_bound,
                              logdet_series, min_lattice_distance,
                              szego_genus2_eps)
from szegosew.errors import DomainError
from szegosew.numerics import determinant
from szegosew.rho import RhoModuliSphere, RhoModuliTorus
from szegosew.specialfn import (TorusModulus, TwistPair, eisenstein_twisted,
                                p1_theta)

TWO_PI_I = 2j * np.pi
T1 = TorusModulus(0.3 + 1.0j)
T2 = TorusModulus(0.1 + 1.2j)
CHARS = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                   TwistPair(0.07, -0.29))


def _moduli(scale=0.02, **kw):
    return EpsilonModuli.create(T1, T2, scale * epsilon_bound(T1, T2)
                                * np.exp(0.5j), **kw)


def _pt(which, u, v):
    tau = T1 if which == 1 else T2
    return SurfacePoint(which, TWO_PI_I * (u + v * tau.tau))


class TestDomain:
    def test_min_lattice_distance_brute_force(self):
        for tau in (T1, TorusModulus(0.5 + 0.5j)):
            grid = [abs(TWO_PI_I * (m * tau.tau + n))
                    for m in range(-50, 51) for n in range(-50, 51)
                    if (m, n) != (0, 0)]
            assert abs(min_lattice_distance(tau) - min(grid)) < 1e-12

    def test_epsilon_outside_bound_rejected(self):
        with pytest.raises(DomainError):
            _moduli(scale=1.01)

    def test_inconsistent_square_root_rejected(self):
        with pytest.raises(DomainError):
            EpsilonModuli.create(T1, T2, 0.01, sqrt_epsilon=0.2)

    def test_bad_xi_rejected(self):
        with pytest.raises(DomainError):
            _moduli(xi=1.0)

    @pytest.mark.parametrize("field", [
        "epsilon", "sqrt_epsilon", "w", "rho", "log_rho", "log_q",
        "z_ref", "log_a_ref"])
    def test_non_finite_branch_data_rejected(self, field):
        torus = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                      0.001 + 0.0006j)
        valid = {"epsilon": _moduli(), "sqrt_epsilon": _moduli(),
                 "w": torus, "rho": torus, "log_rho": torus,
                 "log_q": RhoModuliSphere.create(0.05 + 0.02j),
                 "z_ref": torus, "log_a_ref": torus}[field]
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            dataclasses.replace(valid, **{field: complex(math.nan, 0.0)})

    @pytest.mark.parametrize("field", ["z_ref", "log_a_ref"])
    def test_branch_anchor_needs_both_fields(self, field):
        torus = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                      0.001 + 0.0006j)
        with pytest.raises(DomainError, match="given together"):
            dataclasses.replace(torus, **{field: None})

    def test_point_label_validated(self):
        with pytest.raises(DomainError):
            SurfacePoint(3, 0.1 + 0.1j)

    def test_coincident_points_rejected(self):
        ctx = EpsilonContext(CHARS, _moduli(), 8)
        x = _pt(1, 0.23, 0.31)
        with pytest.raises(DomainError):
            ctx.kernel(x, x)

    def test_point_inside_sewing_annulus_rejected(self):
        ctx = EpsilonContext(CHARS, _moduli(), 8)
        with pytest.raises(DomainError):
            ctx.kernel(SurfacePoint(1, 1e-4 + 1e-4j), _pt(1, 0.5, 0.5))


class TestDegeneration:
    def test_zero_epsilon_same_torus_is_genus_one(self):
        moduli = EpsilonModuli.create(T1, T2, 0.0)
        ctx = EpsilonContext(CHARS, moduli, 8)
        x, y = _pt(1, 0.23, 0.31), _pt(1, 0.67, 0.52)
        exact = p1_theta(CHARS.tw1, x.z - y.z, T1)
        assert abs(ctx.kernel(x, y) - exact) < 1e-14 * abs(exact)

    def test_zero_epsilon_cross_torus_vanishes(self):
        moduli = EpsilonModuli.create(T1, T2, 0.0)
        ctx = EpsilonContext(CHARS, moduli, 8)
        assert ctx.kernel(_pt(1, 0.23, 0.31), _pt(2, 0.33, 0.61)) == 0.0
        assert ctx.det() == 1.0

    def test_small_epsilon_close_to_genus_one(self):
        ctx = EpsilonContext(CHARS, _moduli(scale=1e-4), 12)
        x, y = _pt(1, 0.23, 0.31), _pt(1, 0.67, 0.52)
        exact = p1_theta(CHARS.tw1, x.z - y.z, T1)
        assert abs(ctx.kernel(x, y) - exact) < 1e-3 * abs(exact)


class TestKernel:
    def test_convenience_wrapper_matches_context(self):
        moduli = _moduli()
        x, y = _pt(1, 0.23, 0.31), _pt(2, 0.33, 0.61)
        assert szego_genus2_eps(CHARS, x, y, moduli, 12) \
            == EpsilonContext(CHARS, moduli, 12).kernel(x, y)

    def test_skew_symmetry(self):
        moduli = _moduli()
        ctx = EpsilonContext(CHARS, moduli, 12)
        inv = GenusTwoCharacteristicsEps(CHARS.tw1.inverse(),
                                         CHARS.tw2.inverse())
        ctx_inv = EpsilonContext(inv, moduli, 12)
        for x, y in [(_pt(1, 0.23, 0.31), _pt(1, 0.67, 0.52)),
                     (_pt(1, 0.41, 0.18), _pt(2, 0.33, 0.61))]:
            v1, v2 = ctx.kernel(x, y), ctx_inv.kernel(y, x)
            assert abs(v1 + v2) < 1e-11 * abs(v1)

    def test_high_order_at_small_im_tau(self):
        # E_n up to n = 127 at Im tau_1 = 0.3 (once NaN); N = 64 must agree
        # with N = 32, which is already converged
        t1 = TorusModulus(0.1 + 0.3j)
        moduli = EpsilonModuli.create(t1, T2, 0.02 * epsilon_bound(t1, T2)
                                      * np.exp(0.5j))
        x1 = SurfacePoint(1, TWO_PI_I * (0.23 + 0.41 * t1.tau))
        y1 = SurfacePoint(1, TWO_PI_I * (0.61 + 0.72 * t1.tau))
        x2, y2 = _pt(2, 0.37, 0.55), _pt(2, 0.81, 0.22)
        pairs = [(x1, y1), (x1, x2), (x2, y1), (x2, y2)]
        vals = {}
        for n in (32, 64):
            ctx = EpsilonContext(CHARS, moduli, n)
            vals[n] = np.array([ctx.det()]
                               + [ctx.kernel(x, y) for x, y in pairs])
        assert np.all(np.isfinite(vals[64]))
        assert np.all(np.abs(vals[64] - vals[32]) < 1e-12 * np.abs(vals[32]))

    def test_kernel_reuses_moduli_geometry(self, monkeypatch):
        # annulus radii are fixed when the moduli are built
        ctx = EpsilonContext(CHARS, _moduli(), 8)

        def forbidden(tau):
            raise AssertionError("lattice minimum recomputed per kernel call")
        monkeypatch.setattr(epsilon, "min_lattice_distance", forbidden)
        for x, y in [(_pt(1, 0.23, 0.31), _pt(1, 0.67, 0.52)),
                     (_pt(1, 0.41, 0.18), _pt(2, 0.33, 0.61))]:
            ctx.kernel(x, y)

    def test_truncation_converges(self):
        moduli = _moduli()
        x, y = _pt(1, 0.41, 0.18), _pt(2, 0.33, 0.61)
        v8 = EpsilonContext(CHARS, moduli, 8).kernel(x, y)
        v16 = EpsilonContext(CHARS, moduli, 16).kernel(x, y)
        v20 = EpsilonContext(CHARS, moduli, 20).kernel(x, y)
        assert abs(v20 - v16) < 1e-3 * abs(v16 - v8) + 1e-15


class TestMoments:
    def test_c_matrix_matches_loop(self):
        n = 20  # every binomial below 2^53, so the table is exact
        eis = eisenstein_twisted(CHARS.tw1, np.arange(1, 2 * n), T1)
        loop = np.array([[(-1.0) ** l * math.comb(k + l - 2, k - 1)
                          * eis[k + l - 2] for l in range(1, n + 1)]
                         for k in range(1, n + 1)])
        assert np.array_equal(c_matrix(CHARS.tw1, n, T1), loop)


class TestDeterminant:
    def test_block_identity_small_order(self):
        ctx = EpsilonContext(CHARS, _moduli(), 10)
        f1, f2 = ctx.f_block(1), ctx.f_block(2)
        q = build_q(f1, f2, ctx.moduli.xi)
        d_big = determinant(np.eye(20, dtype=complex) - q)
        assert abs(d_big - ctx.det()) < 1e-13

    def test_log_series_route_agrees(self):
        ctx = EpsilonContext(CHARS, _moduli(), 10)
        f1, f2 = ctx.f_block(1), ctx.f_block(2)
        d_lu = ctx.det()
        d_series = np.exp(logdet_series(f1, f2))
        assert abs(d_lu - d_series) < 1e-12 * abs(d_lu)

    def test_xi_independence(self):
        # the determinant depends on F1 F2 only, not on the branch xi
        ctx_p = EpsilonContext(CHARS, _moduli(xi=1j), 10)
        ctx_m = EpsilonContext(CHARS, _moduli(xi=-1j), 10)
        assert abs(ctx_p.det() - ctx_m.det()) < 1e-15
