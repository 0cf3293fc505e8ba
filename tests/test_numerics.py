"""Linear-algebra and quadrature helpers: solved against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegosew.config import DEFAULT_CONFIG
from szegosew.errors import ConvergenceError, DomainError, SingularMatrixError
from szegosew.numerics import (MomentMatrix, circle_nodes, determinant,
                               lu_solve, tail_estimate)

RNG = np.random.default_rng(20240817)


def _random_matrix(n: int) -> np.ndarray:
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    # diagonal dominance keeps the condition number benign
    return a + 2.0 * n * np.eye(n)


class TestLuSolve:
    def test_matches_numpy_solve(self):
        a = _random_matrix(12)
        b = RNG.normal(size=(12, 3)) + 1j * RNG.normal(size=(12, 3))
        x = lu_solve(a, b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)

    def test_singular_matrix_rejected(self):
        a = np.ones((4, 4), dtype=complex)
        with pytest.raises(SingularMatrixError):
            lu_solve(a, np.ones(4, dtype=complex))

    def test_ill_conditioned_rejected(self):
        a = np.diag(np.array([1.0, 1e-15, 1.0, 1.0], dtype=complex))
        with pytest.raises(SingularMatrixError):
            lu_solve(a, np.ones(4, dtype=complex))

    @given(st.integers(min_value=1, max_value=8), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_residual_property(self, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) \
            + 2.0 * n * np.eye(n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x = lu_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1.0)


class TestDeterminant:
    def test_matches_eigenvalue_product(self):
        a = _random_matrix(9)
        ev = np.linalg.eigvals(a)
        assert abs(determinant(a) - np.prod(ev)) < 1e-8 * abs(np.prod(ev))

    def test_triangular_exact(self):
        a = np.triu(_random_matrix(6))
        assert abs(determinant(a) - np.prod(np.diag(a))) \
            < 1e-12 * abs(np.prod(np.diag(a)))


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


class TestMomentMatrix:
    def test_block_roundtrip(self):
        n = 3
        blocks = [RNG.normal(size=(n, n)) + 0j for _ in range(4)]
        m = MomentMatrix.from_blocks(*blocks)
        assert np.array_equal(m.block(1, 1), blocks[0])
        assert np.array_equal(m.block(1, 2), blocks[1])
        assert np.array_equal(m.block(2, 1), blocks[2])
        assert np.array_equal(m.block(2, 2), blocks[3])

    def test_odd_dimension_rejected(self):
        with pytest.raises(DomainError):
            MomentMatrix(np.zeros((3, 3), dtype=complex), 1)


def test_config_immutability_and_override():
    cfg = DEFAULT_CONFIG
    with pytest.raises(Exception):
        cfg.theta_tol = 0.0
    assert cfg.with_(trunc_order=8).trunc_order == 8
    assert cfg.trunc_order == 16
