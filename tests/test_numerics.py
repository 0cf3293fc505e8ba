"""Linear-algebra and quadrature helpers: solved against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegosew import numerics
from szegosew import config
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint)
from szegosew.errors import ConvergenceError, SingularMatrixError
from szegosew.numerics import LU, determinant, lu_solve, tail_estimate
from szegosew.oracle import circle_nodes
from szegosew.rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                          RhoSphereContext, RhoTorusContext)
from szegosew.specialfn import TwistPair

RNG = np.random.default_rng(20240817)


def _random_matrix(n: int) -> np.ndarray:
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    # diagonal dominance keeps the condition number benign
    return a + 2.0 * n * np.eye(n)


# the wrapper, the factor object and its held inverse are three routes
# through one gate
SOLVES = (lu_solve, lambda a, b: LU(a).solve(b),
          lambda a, b: LU(a).inverse() @ b)
DETS = (determinant, lambda a: LU(a).det())


class TestLuSolve:
    def test_matches_numpy_solve(self):
        a = _random_matrix(12)
        b = RNG.normal(size=(12, 3)) + 1j * RNG.normal(size=(12, 3))
        for solve in SOLVES:
            x = solve(a, b)
            assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12,
                               atol=1e-12)

    def test_singular_matrix_rejected(self):
        a = np.ones((4, 4), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the typed error, no LinAlgWarning
            for solve in SOLVES:
                with pytest.raises(SingularMatrixError):
                    solve(a, np.ones(4, dtype=complex))
            for det in DETS:
                assert det(a) == 0  # the ungated determinant stays 0

    def test_ill_conditioned_rejected(self):
        a = np.diag(np.array([1.0, 1e-15, 1.0, 1.0], dtype=complex))
        for solve in SOLVES:
            with pytest.raises(SingularMatrixError):
                solve(a, np.ones(4, dtype=complex))

    def test_residual_gate(self, monkeypatch):
        a = _random_matrix(6)
        monkeypatch.setattr(numerics, "SOLVE_RESIDUAL_TOL", 1e-30)
        for solve in SOLVES:
            with pytest.raises(SingularMatrixError, match="residual"):
                solve(a, np.eye(6))

    @pytest.mark.parametrize("n,seed", [(6, 0), (12, 3)])
    def test_condition_is_exact_one_norm(self, n, seed):
        # plain Gaussian matrices, on which LAPACK's one-norm estimator
        # (a lower bound) falls 5-10% short of the exact condition
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        ref = np.linalg.cond(a, 1)
        assert abs(LU(a).cond - ref) <= 1e-12 * ref

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) \
            + 2.0 * n * np.eye(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        for solve in SOLVES:
            x = solve(a, b)
            assert np.linalg.norm(a @ x - b) \
                <= 1e-10 * max(np.linalg.norm(b), 1.0)


class TestDeterminant:
    def test_matches_eigenvalue_product(self):
        a = _random_matrix(9)
        ev = np.linalg.eigvals(a)
        for det in DETS:
            assert abs(det(a) - np.prod(ev)) < 1e-8 * abs(np.prod(ev))

    def test_triangular_exact(self):
        a = np.triu(_random_matrix(6))
        for det in DETS:
            assert abs(det(a) - np.prod(np.diag(a))) \
                < 1e-12 * abs(np.prod(np.diag(a)))


def _eps_context():
    chars = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                       TwistPair(0.07, -0.29))
    moduli = EpsilonModuli.create(0.3 + 1.0j, 0.1 + 1.2j, 0.01 + 0.02j)
    ctx = EpsilonContext(chars, moduli, 16)
    pts = [(SurfacePoint(a, 0.4 + 1.1j), SurfacePoint(b, 1.5 + 2.2j))
           for a in (1, 2) for b in (1, 2)]
    return ctx, pts


def _rho_torus_context():
    moduli = RhoModuliTorus.create(0.2 + 1.1j, -1.866 + 2.315j,
                                   0.001 + 0.0006j)
    ctx = RhoTorusContext(TwistPair(0.17, 0.38), HandleTwist(0.1, -0.22),
                          moduli, 8, 64)
    pts = [(0.6 + 3.5j, -2.9 + 1.4j), (-2.9 + 1.4j, 0.6 + 3.5j),
           (0.6 + 3.5j, 0.9 + 2.4j), (0.9 + 2.4j, -2.9 + 1.4j)]
    return ctx, pts


def _sphere_context():
    moduli = RhoModuliSphere.create(0.05 + 0.02j)
    ctx = RhoSphereContext(HandleTwist(0.1, -0.22), moduli, 16)
    pts = [(0.2 + 0.05j, -0.15 + 0.18j), (-0.15 + 0.18j, 0.2 + 0.05j),
           (0.3j, 0.25), (0.25, -0.1 - 0.2j)]
    return ctx, pts


@pytest.mark.parametrize("build,inversions,solves", [
    (_eps_context, 1, 0), (_rho_torus_context, 1, 0), (_sphere_context, 0, 0)],
    ids=["eps", "rho-torus", "sphere"])
def test_context_factorises_each_sewing_matrix_once(monkeypatch, build,
                                                    inversions, solves):
    """Across det, four kernels and det, a two-tori or self-sewn-torus
    context inverts its sewing matrix once (the exact condition) and
    uses that gated inverse with no solve; the diagonal sphere context
    divides."""
    calls = {"inv": 0, "solve": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name),
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    ctx, pts = build()
    ctx.det()
    for x, y in pts:
        ctx.kernel(x, y)
    ctx.det()
    assert calls == {"inv": inversions, "solve": solves}


class TestCircleQuadrature:
    def test_cauchy_residue(self):
        # (1/2 pi i) oint dz/(z - a) = 1 for a inside, 0 outside
        z, w = circle_nodes(0.5 + 0.2j, 1.0, 64)
        inside = np.sum(w / (z - (0.3 + 0.1j)))
        outside = np.sum(w / (z - (3.0 + 0.1j)))
        assert abs(inside - 1.0) < 1e-13
        assert abs(outside) < 1e-13

    def test_polynomial_moments_vanish(self):
        z, w = circle_nodes(0.0, 0.7, 32)
        for n in (0, 1, 2, 3):
            assert abs(np.sum(w * z**n)) < 1e-14


class TestTailEstimate:
    def test_recovers_geometric_rate(self):
        r = 0.35
        partials = [sum(r**k for k in range(1, n + 1)) for n in range(1, 9)]
        rate, bound = tail_estimate(partials)
        assert abs(rate - r) < 0.05
        assert bound < 1e-2

    def test_rejects_non_geometric(self):
        with pytest.raises(ConvergenceError):
            tail_estimate([1.0, 2.0, 4.0, 8.0, 16.0])


def test_fixed_tolerances():
    assert (config.THETA_TOL, config.SERIES_TOL, numerics.SOLVE_RESIDUAL_TOL,
            config.POLE_GUARD, config.RESONANCE_GUARD) \
        == (1e-14, 1e-12, 1e-12, 1e-8, 1e-13)
    assert numerics.CONDITION_THRESHOLD == 1e12


def test_binomials_kept_per_order_and_read_only():
    # every binomial below 2^53 at n = 20, so the table is exact
    table = numerics.binomials(20)
    assert numerics.binomials(20) is table
    assert all(table[i, j] == math.comb(i + j, i)
               for i in range(20) for j in range(20))
    with pytest.raises(ValueError):
        table[0, 0] = 2.0
