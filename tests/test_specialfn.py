"""Theta functions, twisted kernels and Eisenstein series.

Oracles: the Jacobi triple product for theta_1, hand-derived
quasi-periodicity factors, the independent q-series route for the
twisted genus-one kernel, brute-force lattice enumeration, and 50-digit
mpmath sums for theta and its derivatives and for the twisted Eisenstein
series.  The P_k vector is checked against a float64 twisted lattice sum.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegosew import specialfn, verify
from szegosew.errors import ConvergenceError, DomainError, ResonanceError
from szegosew.oracle import (Characteristics, circle_nodes, p1_series,
                             theta_char)
from szegosew.specialfn import (K, TorusModulus, TwistPair, _theta_sums,
                                bernoulli_poly, eisenstein_twisted,
                                lattice_distance, lattice_reduce,
                                min_lattice_distance, p1_theta, p_k_vector,
                                theta1)

TAU = TorusModulus(0.3 + 1.0j)
TWO_PI_I = 2j * np.pi
# one square-ish, one thin and two strongly skewed lattices
CELL_TAUS = [0.3 + 1.0j, 0.45 + 0.08j, 0.1 + 0.3j, 3.7 + 0.2j]


def _cell_points(tau: TorusModulus, count: int, seed: int = 3) -> np.ndarray:
    """Seeded random points 2 pi i (u + v tau) of the cell, u, v in [0, 1),
    at least 0.1 from the lattice."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        u, v = rng.uniform(0.0, 1.0, 2)
        z = TWO_PI_I * (u + v * tau.tau)
        if lattice_distance(z, tau) >= 0.1:
            out.append(z)
    return np.array(out)


def _theta1_triple_product(z: complex, tau: complex) -> complex:
    """Jacobi triple product route: an independent oracle for theta_1.

    With nome qt = e^{i pi tau} and v = z / (2i):
    theta_1 = -2 qt^{1/4} sin(v) prod (1-qt^{2n})(1-qt^{2n}e^{2iv})(1-qt^{2n}e^{-2iv})
    with the sign fixed by the series convention theta[1/2;1/2](z) =
    sum_m exp(i pi tau (m+1/2)^2 + (m+1/2)(z + i pi)).
    """
    qt = np.exp(1j * np.pi * tau)
    v = z / 2j
    prod = 1.0 + 0.0j
    for n in range(1, 64):
        q2n = qt ** (2 * n)
        prod *= (1 - q2n) * (1 - q2n * np.exp(2j * v)) \
            * (1 - q2n * np.exp(-2j * v))
    return -2.0 * qt ** 0.25 * np.sin(v) * prod


def _brute_distance(w: np.ndarray, tau: complex) -> np.ndarray:
    """2 pi min |w - (m tau + n)| by enumerating every row m that can win.

    Within a row the nearest n is a rounding; a corner of the cell of
    (tau, 1) lies within 1 + |tau| of w, so only rows with
    |m - Im w / Im tau| <= (1 + |tau|) / Im tau can hold the minimum.
    """
    span = int(math.ceil((1.0 + abs(tau)) / tau.imag)) + 1
    m = np.floor(w.imag / tau.imag)[:, None] + np.arange(-span, span + 1)
    rem = w[:, None] - m * tau
    return 2.0 * np.pi * np.min(np.abs(rem - np.round(rem.real)), axis=1)


def _theta_reference(alpha: float, beta: float, z: complex, tau: complex,
                     nderiv: int, radius: int = 80):
    """d^j/dz^j theta[alpha;beta](z, tau), j = 0..nderiv, at 50 digits from
    the defining sum over |m| <= radius, with the sums of absolute values
    of the terms (the scale of the rounding error).

    Returns (values, term magnitude sums, largest |m| = radius term
    relative to its magnitude sum).
    """
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        shift = mpmath.mpc(z) + 2j * mpmath.pi * mpmath.mpf(beta)
        t = mpmath.mpc(tau)
        vals = [mpmath.mpc(0)] * (nderiv + 1)
        mags = [mpmath.mpf(0)] * (nderiv + 1)
        edge = [mpmath.mpf(0)] * (nderiv + 1)
        for m in range(-radius, radius + 1):
            ma = m + a
            term = mpmath.exp(1j * mpmath.pi * t * ma ** 2 + ma * shift)
            for j in range(nderiv + 1):
                w = term * ma ** j
                vals[j] += w
                mags[j] += abs(w)
                if abs(m) == radius:
                    edge[j] = max(edge[j], abs(w))
        last = max(float(e / g) for e, g in zip(edge, mags))
        return (np.array([complex(v) for v in vals]),
                np.array([float(g) for g in mags]), last)


def _eisenstein_reference(tw: TwistPair, tau: complex, nmax: int,
                          rmax: int = 56):
    """E_1..E_nmax at 50 digits from the defining q-series, with the sums
    of absolute values of their terms (the scale of the rounding error).

    Returns (values, term magnitude sums, largest r = rmax term magnitude).
    """
    with mpmath.workdps(50):
        lam = mpmath.mpf(tw.lam)
        theta = -mpmath.expjpi(-2 * mpmath.mpf(tw.beta))
        log_q = 2j * mpmath.pi * mpmath.mpc(tau)
        vals = [-mpmath.bernpoly(n, lam) / mpmath.factorial(n)
                for n in range(1, nmax + 1)]
        mags = np.array([float(abs(v)) for v in vals])
        last = 0.0
        for r in range(rmax + 1):
            u = mpmath.exp(log_q * (r + lam)) / theta
            v = theta * mpmath.exp(log_q * (r - lam))
            for e, x, odd_sign in ((r + lam, u, 1), (r - lam, v, -1)):
                if r == 0 and odd_sign == -1:
                    continue  # the v-sum starts at r = 1
                w = x / (1 - x)
                mag, fe = float(abs(w)), float(e)  # |w| tracked in floats
                for n in range(1, nmax + 1):
                    vals[n - 1] += w if n % 2 == 0 else odd_sign * w
                    mags[n - 1] += mag
                    if r == rmax:
                        last = max(last, mag / mags[n - 1])
                    w = w * e / n
                    mag *= fe / n
        return np.array([complex(v) for v in vals]), mags, last


class TestTheta1:
    def test_triple_product_oracle(self):
        for u, v in [(0.23, 0.31), (0.67, -0.52), (-0.41, 0.18)]:
            z = TWO_PI_I * (u + v * TAU.tau)
            direct = theta1(z, TAU)
            oracle = _theta1_triple_product(z, TAU.tau)
            assert abs(direct - oracle) < 1e-12 * abs(oracle)

    @given(st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
    @settings(max_examples=30, deadline=None)
    def test_odd(self, u, v):
        z = TWO_PI_I * (u + v * TAU.tau)
        assert abs(theta1(z, TAU) + theta1(-z, TAU)) \
            < 1e-12 * max(abs(theta1(z, TAU)), 1e-3)

    def test_quasi_periodicity(self):
        # theta_1(z + 2 pi i (r tau + s)) = (-1)^{r+s} e^{-i pi r^2 tau - r z}
        #   * theta_1(z)   (from completing the square in the series)
        z = TWO_PI_I * (0.23 + 0.31 * TAU.tau)
        base = theta1(z, TAU)
        for r in range(-2, 3):
            for s in range(-2, 3):
                shifted = theta1(z + TWO_PI_I * (r * TAU.tau + s), TAU)
                factor = (-1) ** (r + s) \
                    * np.exp(-1j * np.pi * r * r * TAU.tau - r * z)
                scale = max(abs(shifted), abs(base))
                assert abs(shifted - factor * base) < 1e-10 * scale, (r, s)

    @pytest.mark.parametrize("tau", [0.3 + 1.0j, 0.1 + 1.2j, 0.45 + 0.08j])
    def test_matches_mpmath_reference(self, tau):
        torus = TorusModulus(tau)
        tw = TwistPair(0.17, 0.38)
        zs = np.array([TWO_PI_I * (u + v * tau)
                       for u, v in [(0.23, 0.31), (0.67, -0.52), (-0.41, 0.18)]])
        # scaled Taylor rows (-1)^n theta^{(n)}/n! back to derivatives
        unscale = np.array([1.0, -1.0, 2.0, -6.0])
        chars = ((tw.alpha, tw.beta),)
        derivs = (_theta_sums(chars, zs, tau, 4, zs.size)[0][0] * unscale).T
        # the same points as value-only points of the sum
        values = _theta_sums(chars, zs, tau, 4, 0)[1][0]
        odd = theta1(zs, torus)
        # errors are measured against the sum of the absolute values of
        # the terms, the scale of the rounding error of the sum
        for i, z in enumerate(zs):
            ref, scale, last = _theta_reference(tw.alpha, tw.beta, z, tau, 3)
            assert last < 1e-30  # the reference sums are converged
            assert np.all(np.abs(derivs[:, i] - ref) <= 1e-14 * scale), (z, i)
            assert abs(values[i] - ref[0]) <= 1e-14 * scale[0], (z, i)
            ref1, scale1, _ = _theta_reference(0.5, 0.5, z, tau, 0)
            assert abs(odd[i] - ref1[0]) <= 1e-14 * scale1[0], z
        ref0, scale0, _ = _theta_reference(0.5, 0.5, 0.0, tau, 1)
        assert abs(torus.theta1_deriv0 - ref0[1]) <= 1e-14 * scale0[1]

    def test_values_do_not_depend_on_the_batch(self):
        # arguments are reduced before the sum, whose box is then fixed by
        # tau: a far point in the call changes no bit of the others
        torus = TorusModulus(0.2 + 1.1j)
        z = np.array([0.3 + 0.7j])
        far = TWO_PI_I * (0.37 + 5.21 * torus.tau)
        alone = theta1(z, torus)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for others in ([9.0 + 0.1j], [9.0 + 0.1j, far]):
                assert theta1(np.append(z, others), torus)[0] == alone
        tw = TwistPair(0.17, 0.38)
        zs = np.array([-1.3 + 2.0j, 0.4 + 1.1j])
        wide = np.append(zs, TWO_PI_I * (0.37 + 20.21 * TAU.tau))
        assert np.array_equal(p1_theta(tw, wide, TAU)[:2], p1_theta(tw, zs, TAU))

    @pytest.mark.parametrize("f", [theta1, K])
    def test_out_of_range_raises_without_nan(self, f):
        # twenty periods out |theta_1| is about e^{pi Im tau 20^2}, beyond
        # the double range: a typed error, no overflow warning, no NaN
        torus = TorusModulus(0.2 + 1.1j)
        z = TWO_PI_I * (0.37 + 20.21 * torus.tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                f(z, torus)
            with pytest.raises(ConvergenceError):
                f(np.array([0.3 + 0.7j, z]), torus)

    @pytest.mark.parametrize("kmax", [1, 2, 16, 128])
    @pytest.mark.parametrize("chars", [((0.17, 0.38), (0.5, 0.5)),
                                       ((0.5, 0.5),)])
    def test_taylor_box_rows_are_the_power_table(self, chars, kmax):
        # the real cumulative product gives the complex power table's
        # rows bit for bit, laid out C-contiguous for the Taylor product
        ma, expo, rows = specialfn._taylor_box(chars, TAU.tau, kmax)
        ref = specialfn._power_table(-ma, np.ones(ma.shape), kmax - 1) \
            .transpose(1, 2, 0, 3)
        assert rows.shape == ref.shape == (len(chars), 1, kmax, ma.shape[-1])
        assert np.array_equal(rows, ref)
        for arr in (ma, expo, rows):
            assert not arr.flags.writeable
            assert arr.flags.c_contiguous

    def test_genus_one_theta_char_consistent(self):
        z = TWO_PI_I * (0.23 + 0.31 * TAU.tau)
        chars = Characteristics(alpha=(0.5,), beta=(0.5,))
        assert abs(theta_char(chars, z, TAU) - theta1(z, TAU)) \
            < 1e-12 * abs(theta1(z, TAU))

    def test_theta_char_rejects_genus_mismatch(self):
        chars = Characteristics(alpha=(0.5, 0.5), beta=(0.5, 0.5))
        with pytest.raises(DomainError):
            theta_char(chars, 0.1 + 0.1j, TAU)


class TestPrimeFormFactor:
    def test_normalized_at_origin(self):
        for z in (1e-4 + 2e-4j, -3e-5 + 1e-5j):
            assert abs(K(z, TAU) / z - 1.0) < 1e-6

    def test_odd(self):
        z = TWO_PI_I * (0.23 + 0.31 * TAU.tau)
        assert abs(K(z, TAU) + K(-z, TAU)) < 1e-12 * abs(K(z, TAU))


class TestLattice:
    def test_lattice_distance_brute_force(self):
        for tau in (TAU, TorusModulus(0.5 + 0.5j)):
            z = TWO_PI_I * (0.37 + 0.61 * tau.tau)
            grid = [abs(z - TWO_PI_I * (m * tau.tau + n))
                    for m in range(-50, 51) for n in range(-50, 51)]
            assert abs(float(lattice_distance(z, tau)) - min(grid)) < 1e-12

    @pytest.mark.parametrize("tau", [3.7 + 0.2j, 0.45 + 0.08j, 0.3 + 1.0j])
    def test_lattice_distance_skewed_tau(self, tau):
        rng = np.random.default_rng(7)
        w = rng.uniform(-3.0, 3.0, 2000) + rng.uniform(-3.0, 3.0, 2000) * tau
        got = lattice_distance(TWO_PI_I * w, TorusModulus(tau))
        assert np.max(np.abs(got - _brute_distance(w, tau))) < 1e-12

    @given(st.floats(-5.0, 5.0), st.floats(0.01, 3.0),
           st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_lattice_distances_match_enumeration(self, re_tau, im_tau, u, v):
        tau = complex(re_tau, im_tau)
        w = u + v * tau
        tm = TorusModulus(tau)
        assert abs(float(lattice_distance(TWO_PI_I * w, tm))
                   - _brute_distance(np.array([w]), tau)[0]) \
            < 1e-12 * (1.0 + abs(w))
        m = np.arange(-int(2.0 / im_tau) - 2, int(2.0 / im_tau) + 3)
        n = np.round(-m * re_tau)
        lengths = [abs(mm * tau + nn + dn) for mm, nn in zip(m, n)
                   for dn in (-1, 0, 1) if (mm, nn + dn) != (0, 0)]
        assert abs(min_lattice_distance(tm) - 2.0 * np.pi * min(lengths)) \
            < 1e-12

    def test_lattice_reduce_inverts(self):
        z = TWO_PI_I * (5.37 - 3.61 * TAU.tau)
        z_red, m, n = lattice_reduce(z, TAU)
        assert abs(z_red + TWO_PI_I * (m * TAU.tau + n) - z) < 1e-12
        assert -2 * np.pi * TAU.tau.imag < z_red.real <= 0


class TestTwistedKernel:
    @given(st.floats(0.02, 0.98), st.floats(0.02, 0.98),
           st.floats(-0.45, 0.45), st.floats(-0.45, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_dual_routes_agree(self, u, v, alpha, beta):
        tw = TwistPair(alpha + 0.02, beta + 0.02)
        z = TWO_PI_I * (u + v * TAU.tau)
        if float(lattice_distance(z, TAU)) < 0.05:
            return
        a = p1_theta(tw, z, TAU)
        b = p1_series(tw, z, TAU)
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)

    def test_multiplier_quasi_periodicity(self):
        tw = TwistPair(0.17, 0.38)
        z = TWO_PI_I * (0.23 + 0.31 * TAU.tau)
        base = p1_theta(tw, z, TAU)
        for r in range(-2, 3):
            for s in range(-2, 3):
                shifted = p1_theta(tw, z + TWO_PI_I * (r * TAU.tau + s), TAU)
                factor = tw.theta ** r * tw.phi ** s
                assert abs(shifted - factor * base) < 1e-10 * abs(base), (r, s)

    def test_simple_pole_with_unit_residue(self):
        tw = TwistPair(0.17, 0.38)
        for z in (1e-4 + 2e-4j, -2e-4 - 1e-4j):
            assert abs(z * p1_theta(tw, z, TAU) - 1.0) < 1e-3

    def test_p_k_routes_agree(self):
        # the P1 column of the theta quotient against the q-series oracle,
        # at points across the annulus, its edges included
        tw = TwistPair(0.17, 0.38)
        for tau in map(TorusModulus, CELL_TAUS):
            zs = _cell_points(tau, 12)
            got = p_k_vector(tw, 8, zs, tau)[:, 0]
            ref = np.array([p1_series(tw, z, tau) for z in zs])
            assert np.all(np.abs(got - ref) <= 1e-11 * np.abs(ref)), tau

    @pytest.mark.parametrize("tau", CELL_TAUS)
    def test_p_k_matches_twisted_lattice_sum(self, tau):
        # P_k, 8 <= k <= 64, against the absolutely convergent sum
        # sum theta^{-m} phi^{-n} (z + 2 pi i (m tau + n))^{-k} over a box
        # of the reduced basis, converged to ~1e-15 at k = 8
        tw = TwistPair(0.17, 0.38)
        torus = TorusModulus(tau)
        zs = _cell_points(torus, 12)
        (m1, n1), (m2, n2) = torus.reduced_basis
        a, b = np.meshgrid(np.arange(-60, 61), np.arange(-60, 61))
        m, n = (a * m1 + b * m2).ravel(), (a * n1 + b * n2).ravel()
        chi = tw.theta ** -m * tw.phi ** -n
        w = 1.0 / (zs[:, None] + TWO_PI_I * (m * tau + n))
        power = w ** 8
        got = p_k_vector(tw, 64, zs, torus)
        for k in range(8, 65):
            ref = power @ chi
            err = np.abs(got[:, k - 1] - ref)
            assert np.all(err <= 1e-12 * np.abs(ref)), k
            power *= w

    @pytest.mark.parametrize("tau", CELL_TAUS)
    def test_inverse_twist_is_the_reflection(self, tau):
        # theta[-alpha;-beta](-z) = theta[alpha;beta](z) and theta_1 is
        # odd, so P_k[c^{-1}](z) = (-1)^k P_k[c](-z), k <= 64.  The two
        # sides reduce z and -z apart, and P_k ~ z^{-k} turns the rounding
        # of a reduced point into k times its relative error: the largest
        # difference is 8e-15 at k = 1 and 5.9e-13 at k = 64 (tau =
        # 3.7+0.2i), as close as either side comes to the lattice sum
        tw = TwistPair(0.17, 0.38)
        torus = TorusModulus(tau)
        zs = _cell_points(torus, 12)
        k = np.arange(1, 65)
        got = p_k_vector(tw.inverse(), 64, zs, torus)
        ref = (-1.0) ** k * p_k_vector(tw, 64, -zs, torus)
        assert np.all(np.abs(got - ref) <= 2e-14 * k * np.abs(ref)), tau

    def test_batched_values_do_not_depend_on_the_batch(self):
        # the theta box is fixed by tau and kmax, so a far point or points
        # near the annulus edges change no value of the others
        tw = TwistPair(0.17, 0.38)
        zs = np.array([-1.3 + 2.0j, -3.0 + 0.3j, 0.4 + 1.1j])
        far = np.array([TWO_PI_I * (0.37 + 20.21 * TAU.tau), -0.2 + 0.5j,
                        -0.4 + 0.5j, -6.2 + 0.1j])
        p1 = p1_theta(tw, zs, TAU)
        pk = p_k_vector(tw, 12, zs, TAU)
        p1_wide = p1_theta(tw, np.append(zs, far), TAU)[:zs.size]
        pk_wide = p_k_vector(tw, 12, np.append(far, zs), TAU)[far.size:]
        assert np.all(np.abs(p1_wide - p1) <= 1e-15 * np.abs(p1))
        assert np.all(np.abs(pk_wide - pk) <= 1e-15 * np.abs(pk))
        for z, row in zip(zs, pk):
            assert np.all(np.abs(p_k_vector(tw, 12, z, TAU) - row)
                          <= 1e-15 * np.abs(row))

    @staticmethod
    def _node_batch():
        # the 128 contour nodes of the two-tori integral equation of
        # `verify` on torus 1, spread across the annulus and near its edges
        chars, moduli, _ = verify._eps_setup()
        z, _ = circle_nodes(0.0, 0.6 * moduli.radius(1), 128)
        return chars.tw(1), z, moduli.tau(1)

    def test_one_theta_sum_holds_all_points(self, monkeypatch):
        tw, z, tau = self._node_batch()
        tau.theta1_deriv0  # kept per modulus, computed before counting
        calls = []
        sums, substitute = specialfn._theta_sums, specialfn._substitute

        def counting_sums(chars, zs, tau_, kmax, n_rows):
            calls.append(("theta", len(chars), zs.size, kmax, n_rows))
            return sums(chars, zs, tau_, kmax, n_rows)

        def counting_substitute(a, b):
            calls.append(("substitute", a.shape))
            return substitute(a, b)
        monkeypatch.setattr(specialfn, "_theta_sums", counting_sums)
        monkeypatch.setattr(specialfn, "_substitute", counting_substitute)
        p_k_vector(tw, 16, z, tau)
        # the theta stage: theta[alpha;beta] and theta_1 with Taylor rows
        # at every point and the values alone at the origin; then one
        # substitution over all rows
        assert calls == [("theta", 2, z.size + 1, 16, z.size),
                         ("substitute", (z.size, 16))]
        calls.clear()
        p1_theta(tw, z, tau)
        # P1 alone: every point value-only, nothing to substitute
        assert calls == [("theta", 2, z.size + 1, 1, 0)]

    def test_mixed_batch_rows_equal_single_point_calls(self):
        # points across the annulus, near its edges and a far point in one
        # call: every row is its single-point value
        tw, z, tau = self._node_batch()
        zs = np.append(z[::5], TWO_PI_I * (0.37 + 20.21 * tau.tau))
        rows = p_k_vector(tw, 16, zs, tau)
        for zz, row in zip(zs, rows):
            assert np.array_equal(p_k_vector(tw, 16, zz, tau), row), zz

    def test_trivial_twists_rejected(self):
        with pytest.raises(ResonanceError):
            p1_series(TwistPair(0.5, 0.5), 0.1 + 0.1j, TAU)

    def test_multipliers_roundtrip(self):
        tw = TwistPair(0.17, 0.38)
        back = TwistPair.from_multipliers(tw.theta, tw.phi)
        assert abs(back.alpha - tw.alpha) < 1e-12
        assert abs(back.beta - tw.beta) < 1e-12
        with pytest.raises(DomainError):
            TwistPair.from_multipliers(0.5, 1.0)


class TestEisenstein:
    def test_bernoulli_polynomials(self):
        lam = 0.37
        assert abs(bernoulli_poly(1, lam) - (lam - 0.5)) < 1e-14
        assert abs(bernoulli_poly(2, lam) - (lam**2 - lam + 1.0 / 6.0)) < 1e-14
        assert abs(bernoulli_poly(3, lam)
                   - (lam**3 - 1.5 * lam**2 + 0.5 * lam)) < 1e-14

    @pytest.mark.parametrize("lam", [0.0, 0.37])
    def test_bernoulli_polynomials_at_50_digits(self, lam):
        with mpmath.workdps(50):
            for n in range(128):
                ref = mpmath.bernpoly(n, mpmath.mpf(lam))
                got = bernoulli_poly(n, lam)
                assert abs(got - ref) <= 1e-13 * abs(ref), n

    def test_laurent_coefficients_of_kernel(self):
        # P1(z) - 1/z = - sum_n E_n z^{n-1}: extract by contour moments
        tw = TwistPair(0.17, 0.38)
        m = 256
        phi = 2.0 * np.pi * np.arange(m) / m
        z = 0.3 * np.exp(1j * phi)
        vals = np.array([p1_theta(tw, zz, TAU) for zz in z]) - 1.0 / z
        for n in range(1, 5):
            coeff = np.sum(z / m * vals * z ** (-n))
            en = eisenstein_twisted(tw, n, TAU)
            assert abs(coeff + en) < 1e-9, n

    def test_odd_untwisted_vanish(self):
        tw = TwistPair(0.5, 0.5)  # multipliers (1, 1)
        assert abs(eisenstein_twisted(tw, 3, TAU)) < 1e-12
        assert abs(eisenstein_twisted(tw, 5, TAU)) < 1e-12

    def test_rejects_bad_order(self):
        tw = TwistPair(0.17, 0.38)
        for bad in (0, -1, np.array([3, 0, 2]), np.array([1.0, 2.0]),
                    np.array([[1, 2]])):
            with pytest.raises(DomainError):
                eisenstein_twisted(tw, bad, TAU)

    @pytest.mark.parametrize("tw,tau", [(TwistPair(0.17, 0.38), 0.3 + 1.0j),
                                        (TwistPair(0.07, -0.29), 0.1 + 1.2j)])
    def test_batch_matches_mpmath_reference(self, tw, tau):
        ref, scale, last = _eisenstein_reference(tw, tau, 127)
        assert last < 1e-30  # the reference sums are converged
        got = eisenstein_twisted(tw, np.arange(1, 128), TorusModulus(tau))
        # the high orders cancel, so errors are measured against the sum
        # of the absolute values of the terms, not against |E_n|
        assert np.all(np.abs(got - ref) < 1e-13 * scale)

    def test_array_matches_scalar(self):
        tw = TwistPair(0.17, 0.38)
        orders = np.arange(1, 32)
        batch = eisenstein_twisted(tw, orders, TAU)
        single = np.array([eisenstein_twisted(tw, int(n), TAU) for n in orders])
        assert isinstance(single[0], complex)
        # the batch runs to the tail of its largest order, so lower orders
        # pick up terms far below the series tolerance, plus rounding
        assert np.max(np.abs(batch - single)) < 1e-16
        for n in (1, 7, 31):
            assert eisenstein_twisted(tw, np.array([n]), TAU)[0] \
                == eisenstein_twisted(tw, n, TAU)
        assert eisenstein_twisted(tw, np.array([], dtype=int), TAU).shape == (0,)

    def test_untwisted_batch(self):
        tw = TwistPair(0.5, 0.5)  # multipliers (1, 1)
        vals = eisenstein_twisted(tw, np.arange(2, 7), TAU)
        assert abs(vals[1]) < 1e-12 and abs(vals[3]) < 1e-12  # E_3, E_5
        assert abs(vals[0] - eisenstein_twisted(tw, 2, TAU)) < 1e-15
        with pytest.raises(ResonanceError):
            eisenstein_twisted(tw, np.arange(1, 7), TAU)

    def test_small_im_tau_finite(self):
        # (r + lam)^{n-1} alone leaves the double range here; each term
        # with q^{r+lam} and 1/(n-1)! applied does not
        tw = TwistPair(0.17, 0.38)
        for tau in (0.1 + 0.35j, 0.1 + 0.3j, 0.1 + 0.2j, 0.1 + 0.02j):
            vals = eisenstein_twisted(tw, np.arange(1, 128), TorusModulus(tau))
            assert np.all(np.isfinite(vals)), tau

    def test_too_small_im_tau_raises(self):
        with pytest.raises(ConvergenceError):
            eisenstein_twisted(TwistPair(0.17, 0.38), np.arange(1, 128),
                               TorusModulus(0.1 + 0.002j))


def test_torus_modulus_requires_upper_half_plane():
    with pytest.raises(DomainError):
        TorusModulus(0.3 - 1.0j)
    assert math.isclose(abs(TAU.q), math.exp(-2.0 * math.pi))
