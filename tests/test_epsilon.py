"""Two-tori sewing: domain checks, degeneration, and the determinant identity."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from szegosew import epsilon, numerics, specialfn
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint,
                              epsilon_bound, f_matrix, min_lattice_distance)
from szegosew.errors import DomainError, SingularMatrixError
from szegosew.numerics import determinant
from szegosew.oracle import build_q, logdet_series
from szegosew.rho import RhoModuliSphere, RhoModuliTorus
from szegosew.specialfn import (TorusModulus, TwistPair, eisenstein_theta,
                                eisenstein_twisted, lattice_distance,
                                p1_theta, p_k_vector)

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
        "z_ref"])
    def test_non_finite_branch_data_rejected(self, field):
        torus = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                      0.001 + 0.0006j)
        valid = {"epsilon": _moduli(), "sqrt_epsilon": _moduli(),
                 "w": torus, "rho": torus, "log_rho": torus,
                 "log_q": RhoModuliSphere.create(0.05 + 0.02j),
                 "z_ref": torus}[field]
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            dataclasses.replace(valid, **{field: complex(math.nan, 0.0)})

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


class TestOverlap:
    # a cross-torus block is a series in |epsilon| / (d(x) d(y)), with d
    # the lattice distance: at r = d(x) d(y) / |epsilon| = 0.93 it read
    # -0.087+1.43i at N = 16 and -43.3+6.3i at N = 64
    X = SurfacePoint(1, 1.1 * np.exp(0.3j))
    Y = SurfacePoint(2, 2.5 * np.exp(2.0j))

    def _ratio(self, moduli, x, y):
        return (lattice_distance(x.z, moduli.tau(x.which))
                * lattice_distance(y.z, moduli.tau(y.which))
                / abs(moduli.epsilon))

    @pytest.mark.parametrize("n", [16, 64])
    def test_overlapping_pair_raises(self, n):
        moduli = _moduli(0.3)
        assert 0.9 < self._ratio(moduli, self.X, self.Y) < 1.0
        ctx = EpsilonContext(CHARS, moduli, n)
        for xs, ys in (([self.X], [self.Y]), ([self.Y], [self.X]),
                       ([_pt(2, 0.3, 0.4), self.X], [_pt(1, 0.6, 0.5), self.Y])):
            with pytest.raises(DomainError, match="overlap"):
                ctx.kernel_matrix(xs, ys)

    def test_pair_just_outside_overlap_evaluates(self):
        moduli = _moduli(0.3)
        x = SurfacePoint(1, 1.21 * np.exp(0.3j))
        assert 1.0 < self._ratio(moduli, x, self.Y) < 1.05
        assert np.isfinite(EpsilonContext(CHARS, moduli, 16).kernel(x, self.Y))

    def test_same_torus_pair_not_refused(self):
        # the refusal reads cross-torus pairs only
        moduli = _moduli(0.3)
        y = SurfacePoint(1, 2.5 * np.exp(2.0j))
        assert np.isfinite(EpsilonContext(CHARS, moduli, 16).kernel(self.X, y))


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

    def test_annulus_edge_pair_converges(self):
        # both points reduce to 0.96-0.97 of the annulus width, where a
        # term-wise differentiated q-series loses every digit at N >= 32
        moduli = _moduli()
        x = SurfacePoint(2, -7.339717554642392 + 0.6210056003627228j)
        y = SurfacePoint(1, -6.008404365323131 + 6.438492853792937j)
        v32, v64 = (EpsilonContext(CHARS, moduli, n).kernel(x, y)
                    for n in (32, 64))
        assert abs(v32 - v64) <= 1e-8 * abs(v64)

    def test_truncation_converges(self):
        moduli = _moduli()
        x, y = _pt(1, 0.41, 0.18), _pt(2, 0.33, 0.61)
        v8 = EpsilonContext(CHARS, moduli, 8).kernel(x, y)
        v16 = EpsilonContext(CHARS, moduli, 16).kernel(x, y)
        v20 = EpsilonContext(CHARS, moduli, 20).kernel(x, y)
        assert abs(v20 - v16) < 1e-3 * abs(v16 - v8) + 1e-15


def _grid_points():
    """x and y points on both tori, labels interleaved."""
    xs = [_pt(1, 0.23, 0.31), _pt(2, 0.33, 0.61), _pt(1, 0.72, 0.44),
          _pt(2, 0.58, 0.27), _pt(1, 0.41, 0.86)]
    ys = [_pt(2, 0.15, 0.73), _pt(1, 0.67, 0.52), _pt(1, 0.19, 0.66),
          _pt(2, 0.81, 0.43)]
    return xs, ys


class TestKernelMatrix:
    def test_matches_looped_kernel(self):
        ctx = EpsilonContext(CHARS, _moduli(), 16)
        xs, ys = _grid_points()
        grid = ctx.kernel_matrix(xs, ys)
        assert grid.shape == (len(xs), len(ys))
        # the batch holds all four label combinations
        assert {(x.which, y.which) for x in xs for y in ys} \
            == {(1, 1), (1, 2), (2, 1), (2, 2)}
        loop = np.array([[ctx.kernel(x, y) for y in ys] for x in xs])
        assert np.all(np.abs(grid - loop) <= 1e-14 * np.abs(loop))

    def test_values_do_not_depend_on_the_batch(self):
        ctx = EpsilonContext(CHARS, _moduli(), 16)
        xs, ys = _grid_points()
        grid = ctx.kernel_matrix(xs, ys)
        # points twenty periods out on each torus, in both arguments
        far_x = [_pt(1, 20.37, 20.21), _pt(2, -19.6, 20.4)]
        far_y = [_pt(1, -19.8, -20.3), _pt(2, 20.1, -19.7)]
        wide = ctx.kernel_matrix(xs + far_x, far_y + ys)
        assert np.all(np.abs(wide[:len(xs), len(far_y):] - grid)
                      <= 1e-15 * np.abs(grid))

    def test_bad_point_anywhere_raises_as_scalar(self):
        ctx = EpsilonContext(CHARS, _moduli(), 8)
        xs, ys = _grid_points()
        inside = SurfacePoint(2, 1e-4 + 1e-4j)
        for bad_x, bad_y in [(xs[2], xs[2]), (inside, ys[1])]:
            with pytest.raises(DomainError) as scalar:
                ctx.kernel(bad_x, bad_y)
            with pytest.raises(DomainError) as batch:
                ctx.kernel_matrix(xs[:2] + [bad_x], [bad_y] + ys)
            assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("scale", [0.02, 0.3])
    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_direct_solve_per_label(self, scale, n):
        # reference: one np.linalg.solve with I - F_abar F_a per x label,
        #   same torus:  P1 + h_a (I - F_abar F_a)^{-1} F_abar hbar_a^T
        #   cross:       xi (-1)^b h_a (I - F_abar F_a)^{-1} hbar_b^T
        moduli = _moduli(scale)
        ctx = EpsilonContext(CHARS, moduli, n)
        xs, ys = _grid_points()
        sq, xi = moduli.sqrt_epsilon, moduli.xi
        f = dict(zip((1, 2), f_matrix(CHARS, n, moduli)))
        powers = sq ** np.arange(1, n + 1)

        def h(c, p):
            return powers * p_k_vector(c.tw(p.which), n, np.array([p.z]),
                                       moduli.tau(p.which))[0]
        ref = np.zeros((len(xs), len(ys)), dtype=complex)
        for i, x in enumerate(xs):
            a = x.which
            lhs = np.eye(n) - f[3 - a] @ f[a]
            middles = {a: np.linalg.solve(lhs, f[3 - a]),
                       3 - a: xi * (-1.0) ** (3 - a)
                       * np.linalg.solve(lhs, np.eye(n))}
            for j, y in enumerate(ys):
                b = y.which
                ref[i, j] = h(CHARS, x) @ middles[b] \
                    @ -h(CHARS.inverse(), y) / sq
                if b == a:
                    ref[i, j] += p1_theta(CHARS.tw(a), x.z - y.z,
                                          moduli.tau(a))
        grid = ctx.kernel_matrix(xs, ys)
        assert {(x.which, y.which) for x in xs for y in ys} \
            == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert np.all(np.abs(grid - ref) <= 1e-13 * np.abs(ref))

    def test_det_ungated_while_every_kernel_call_raises(self, monkeypatch):
        ctx = EpsilonContext(CHARS, _moduli(), 12)
        expected = EpsilonContext(CHARS, _moduli(), 12).det()
        monkeypatch.setattr(numerics, "CONDITION_THRESHOLD", 0.5)
        xs, ys = _grid_points()
        for x, y in zip(xs, ys):
            with pytest.raises(SingularMatrixError):
                ctx.kernel(x, y)
        with pytest.raises(SingularMatrixError):
            ctx.kernel_matrix(xs, ys)
        assert ctx.det() == expected

    @pytest.mark.parametrize("bad", [0.4 + 1.1j, (1, 0.4 + 1.1j)])
    def test_bare_coordinates_raise_typed_error(self, bad):
        ctx = EpsilonContext(CHARS, _moduli(), 8)
        xs, ys = _grid_points()
        for args, batch_args in [((xs[0], bad), (xs, ys[:2] + [bad])),
                                 ((bad, ys[0]), ([bad] + xs, ys))]:
            with pytest.raises(DomainError, match="SurfacePoint") as scalar:
                ctx.kernel(*args)
            with pytest.raises(DomainError) as batch:
                ctx.kernel_matrix(*batch_args)
            assert str(batch.value) == str(scalar.value)

    def test_one_theta_sum_per_label_one_substitution_per_call(
            self, monkeypatch):
        ctx = EpsilonContext(CHARS, _moduli(), 16)
        xs, ys = _grid_points()
        # theta_1'(0) of both moduli and the correction blocks are kept;
        # a first call computes them before counting
        ctx.kernel_matrix(xs, ys)
        calls = []
        sums, substitute = specialfn._theta_sums, epsilon._substitute

        def counting_sums(chars, zs, tau, kmax, n_rows):
            calls.append(("theta", zs.size, kmax, n_rows))
            return sums(chars, zs, tau, kmax, n_rows)

        def counting_substitute(a, b):
            calls.append(("substitute", a.shape))
            return substitute(a, b)
        monkeypatch.setattr(specialfn, "_theta_sums", counting_sums)
        monkeypatch.setattr(epsilon, "_substitute", counting_substitute)
        # same label: x, -y, x - y and the origin in one sum, Taylor rows
        # at x and -y only
        ctx.kernel(xs[0], ys[1])
        assert calls == [("theta", 4, 16, 2), ("substitute", (2, 16))]
        calls.clear()
        # cross label: one sum per label, both rows in one substitution
        ctx.kernel(xs[0], ys[0])
        assert calls == [("theta", 2, 16, 1), ("theta", 2, 16, 1),
                         ("substitute", (2, 16))]
        calls.clear()
        # x labels 1, 2, 1, 2, 1 and y labels 2, 1, 1, 2: label 1 holds
        # 3 x, 2 y and 3 x 2 differences, label 2 2 x, 2 y and 2 x 2
        ctx.kernel_matrix(xs, ys)
        assert calls == [("theta", 3 + 2 + 6 + 1, 16, 5),
                         ("theta", 2 + 2 + 4 + 1, 16, 4),
                         ("substitute", (9, 16))]
        calls.clear()
        # an empty side validates its points and sums nothing
        ctx.kernel_matrix([], ys)
        ctx.kernel_matrix(xs, [])
        assert calls == []

    def test_batch_entries_equal_single_kernel_calls(self):
        # bit for bit: every stage works row by row, whatever the batch;
        # at N = 1 each bilinear-form entry is a one-entry product
        xs, ys = _grid_points()
        ys_1 = [y for y in ys if y.which == 1]
        xs_2 = [x for x in xs if x.which == 2]
        for n in (1, 16):
            ctx = EpsilonContext(CHARS, _moduli(0.3), n)
            for bx, by in [(xs, ys), (xs, ys_1), (xs_2, ys)]:
                grid = ctx.kernel_matrix(bx, by)
                single = np.array([[ctx.kernel(x, y) for y in by]
                                   for x in bx])
                assert np.array_equal(grid, single)
                for i, x in enumerate(bx):
                    assert np.array_equal(ctx.kernel_matrix([x], by)[0],
                                          grid[i])
                for j, y in enumerate(by):
                    assert np.array_equal(ctx.kernel_matrix(bx, [y])[:, 0],
                                          grid[:, j])
        assert ctx.kernel_matrix([], ys).shape == (0, len(ys))
        assert ctx.kernel_matrix(xs, []).shape == (len(xs), 0)

    def test_grid_memory_does_not_grow_with_the_batch(self):
        # a 200 x 200 same-label grid at N = 16: the theta sums and the
        # bilinear forms take a block of points at a time; 6.0 MB at
        # peak, 57.0 MB when they held the whole grid
        ctx = EpsilonContext(CHARS, _moduli(0.3), 16)
        u = np.linspace(0.0, 0.1, 20)
        xs = [_pt(1, 0.2 + a, 0.3 + b) for a in u for b in u[:10]]
        ys = [_pt(1, 0.6 + a, 0.6 + b) for a in u for b in u[:10]]
        ctx.kernel(xs[0], ys[0])
        tracemalloc.start()
        try:
            ctx.kernel_matrix(xs, ys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_empty_inputs(self):
        ctx = EpsilonContext(CHARS, _moduli(), 8)
        xs, ys = _grid_points()
        assert ctx.kernel_matrix([], ys).shape == (0, len(ys))
        assert ctx.kernel_matrix(xs, []).shape == (len(xs), 0)


class TestMoments:
    def test_f_matrix_matches_loop(self):
        # every entry of both blocks against the explicit loop, with the
        # E_n of the one-torus eisenstein_theta and exact integer
        # binomials (the float table rounds the largest above N = 29).
        # The power sqrt_epsilon^{k+l-1} is taken as sqrt_epsilon^k
        # sqrt_epsilon^{l-1}: two routes to a power of degree j differ by
        # up to about j ulp (1e-14 relative at j = 127).  Measured 7.4e-16
        # relative at most
        moduli = _moduli()
        sq = moduli.sqrt_epsilon
        for n in (1, 2, 20, 64):
            blocks = f_matrix(CHARS, n, moduli)
            assert len(blocks) == 2
            for a, f in zip((1, 2), blocks):
                eis = eisenstein_theta(CHARS.tw(a), 2 * n - 1, moduli.tau(a))
                loop = np.array([[sq ** k * sq ** (l - 1) * (-1.0) ** l
                                  * math.comb(k + l - 2, k - 1)
                                  * eis[k + l - 2] for l in range(1, n + 1)]
                                 for k in range(1, n + 1)])
                assert f.shape == (n, n)
                assert np.all(np.abs(f - loop) <= 1e-15 * np.abs(loop)), \
                    (n, a)

    @pytest.mark.parametrize("n", [1, 16, 64])
    def test_one_theta_stage_per_torus_one_substitution_per_build(
            self, monkeypatch, n):
        moduli = _moduli()
        # theta_1'(0) of both moduli is kept per modulus; a first build
        # computes it before counting
        EpsilonContext(CHARS, moduli, n)
        calls, rows = [], []
        sums, substitute = specialfn._theta_sums, specialfn._substitute
        origin_eisenstein = epsilon._origin_eisenstein

        def counting_sums(chars, zs, tau, kmax, n_rows):
            calls.append(("theta", zs.tolist(), kmax, n_rows))
            return sums(chars, zs, tau, kmax, n_rows)

        def counting_substitute(a, b):
            calls.append(("substitute", a.shape))
            return substitute(a, b)

        def recording_eisenstein(tori, kmax):
            rows.append(origin_eisenstein(tori, kmax))
            return rows[-1]
        monkeypatch.setattr(specialfn, "_theta_sums", counting_sums)
        monkeypatch.setattr(specialfn, "_substitute", counting_substitute)
        monkeypatch.setattr(epsilon, "_origin_eisenstein",
                            recording_eisenstein)
        EpsilonContext(CHARS, moduli, n)
        # one theta sum per torus, at the origin alone, and one
        # substitution over both origin rows
        assert calls == [("theta", [0j], 2 * n, 1), ("theta", [0j], 2 * n, 1),
                         ("substitute", (2, 2 * n))]
        monkeypatch.undo()
        (eis,) = rows
        assert eis.shape == (2, 2 * n - 1)
        for a in (1, 2):
            assert np.array_equal(eis[a - 1], eisenstein_theta(
                CHARS.tw(a), 2 * n - 1, moduli.tau(a)))

    @pytest.mark.parametrize("tau", [T1, T2, TorusModulus(-0.4 + 1.5j)])
    def test_theta_route_matches_q_series(self, tau):
        # at Im tau >= 1 the q-series keeps its digits: the theta-route
        # E_n agree with it within 4.2e-14 relative per order, n < 64
        for tw in (CHARS.tw1, CHARS.tw2):
            got = eisenstein_theta(tw, 63, tau)
            ref = eisenstein_twisted(tw, np.arange(1, 64), tau)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12

    def test_small_im_tau_converges_in_order(self):
        # tau_2 = 0.3+0.1i, where the q-series of E_n cancels (its sum of
        # |terms| exceeds |E_n| by 1e9 near n = 16) and the value it gave
        # moved from 1.0582+0.5062i at N = 32 to 2.1739-1.5242i at N = 48;
        # from the theta stage N = 32, 48 and 64 agree within 1.5e-12
        # relative and skew is 2.1e-15 at most
        t2 = TorusModulus(0.3 + 0.1j)
        moduli = EpsilonModuli.create(
            T1, t2, 0.3 * epsilon_bound(T1, t2) * np.exp(0.5j))
        x, y = SurfacePoint(1, 0.4 + 1.1j), SurfacePoint(1, -1.5 + 3.0j)
        vals = []
        for n in (32, 48, 64):
            s = EpsilonContext(CHARS, moduli, n).kernel(x, y)
            s_inv = EpsilonContext(CHARS.inverse(), moduli, n).kernel(y, x)
            assert abs(s + s_inv) <= 1e-12 * abs(s)
            vals.append(s)
        assert max(abs(v - vals[-1]) for v in vals) <= 1e-9 * abs(vals[-1])


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
