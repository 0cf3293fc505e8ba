"""Closed-form log A of the self-sewn torus against a node-by-node tracker.

``_segment_steps`` below is the path tracker the closed form replaced,
kept here as an independent reference: it continues
log A(z) = log(theta1(z-w)/theta1(z)) from the anchor by summing
principal logs of ratios of A at nodes of the straight segment, halving
the steps until every step is small.  Its retry through a bent path is
not kept: bending a segment that passes near a zero or pole onto the
other side of it is what split the sheets of the sewing contours.
"""

import cmath
import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from szegosew import rho, verify
from szegosew.config import POLE_GUARD
from szegosew.errors import DomainError
from szegosew.rho import log_a_torus
from szegosew.specialfn import (TorusModulus, TwistPair, lattice_distance,
                                min_lattice_distance)

TWO_PI_I = 2j * np.pi
_TRACK_MAX_NODES = 4096
_TRACK_ARG_LIMIT = 1.5  # max |arg| and |log magnitude| step per node


def _segment_steps(z0, z1, tau, w):
    """Continuous increments log A(z1) - log A(z0) along straight segments,
    NaN where a segment comes within 10 POLE_GUARD of a zero or pole of A
    or does not stabilize within _TRACK_MAX_NODES nodes."""
    z1 = np.ravel(np.asarray(z1, dtype=complex))
    z0 = np.asarray(z0, dtype=complex) + np.zeros_like(z1)
    seg = z1 - z0
    out = np.full(z1.shape, np.nan, dtype=complex)
    todo = np.arange(z1.size)
    n = 16
    new = z0[:, None] + seg[:, None] * (np.arange(n + 1) / n)
    inner = new[:, 1:-1]
    while True:
        clear = rho._singular_distance(inner, tau, w).min(axis=1) \
            >= 10.0 * POLE_GUARD
        if not clear.all():
            todo, new = todo[clear], new[clear]
        if n == 16:
            vals = rho._a_values(new, tau, w)
        else:
            both = np.empty((todo.size, n + 1), dtype=complex)
            both[:, 0::2] = vals[clear]
            both[:, 1::2] = rho._a_values(new, tau, w)
            vals = both
        steps = np.log(vals[:, 1:] / vals[:, :-1])
        ok = ((np.abs(steps.imag) < _TRACK_ARG_LIMIT)
              & (np.abs(steps.real) < _TRACK_ARG_LIMIT)).all(axis=1)
        out[todo[ok]] = steps[ok].sum(axis=1)
        todo, vals = todo[~ok], vals[~ok]
        n *= 2
        if not todo.size or n > _TRACK_MAX_NODES:
            return out
        new = inner = z0[todo, None] \
            + seg[todo, None] * (np.arange(1, n, 2) / n)


def _closed(zs, tau, w, z_ref, log_a_ref):
    """The closed form at single points: one one-edge path per point."""
    return rho._continue_log_a(np.reshape(zs, (-1, 1)), tau, w, z_ref,
                               log_a_ref)[:, 0]


def _clearance(z0, zs, tau, w, skip=None):
    """Least distance from each segment [z0, z] to the zeros w + Lambda and
    poles Lambda of A, over the lattice points of a window that holds
    every segment drawn here; ``skip`` drops one singularity."""
    t = tau.tau
    m, k = np.meshgrid(np.arange(-5, 6), np.arange(-7, 8))
    lat = TWO_PI_I * (m.ravel() * t + k.ravel())
    sing = np.concatenate([lat, lat + w])
    if skip is not None:
        sing = sing[np.abs(sing - skip) > 1e-12]
    d = zs - z0
    frac = np.clip(((sing[None, :] - z0) * d.conjugate()[:, None]).real
                   / np.abs(d[:, None]) ** 2, 0.0, 1.0)
    return np.abs(z0 + frac * d[:, None] - sing[None, :]).min(axis=1)


def _setup(re_tau, im_tau, wu, wv, near_real, w_im):
    tau = TorusModulus(complex(re_tau, im_tau))
    w = TWO_PI_I * (wu + wv * tau.tau)
    if near_real:
        # a puncture within 1e-2 of the real axis, its real part between
        # those of the poles 0 and -2 pi i tau
        w = complex(wv * 2.0 * np.pi * im_tau, w_im)
    return tau, w


_moduli = dict(
    re_tau=st.floats(-1.0, 1.0), im_tau=st.floats(0.5, 2.0),
    wu=st.floats(0.1, 0.9), wv=st.floats(0.1, 0.9), near_real=st.booleans(),
    w_im=st.floats(-1e-2, 1e-2), seed=st.integers(0, 2**31 - 1))


class TestAgainstTracker:
    @given(**_moduli)
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_clear_paths_match_the_tracker(self, re_tau, im_tau, wu, wv,
                                           near_real, w_im, seed):
        # 20 examples of 520 points each: where the straight path keeps
        # 1e-3 from every zero and pole, the closed form lands on the
        # tracker's sheet with the same value
        tau, w = _setup(re_tau, im_tau, wu, wv, near_real, w_im)
        rng = np.random.default_rng(seed)
        z_ref = w / 2 + 0.3 * complex(*rng.normal(size=2))
        t = tau.tau
        zs = TWO_PI_I * (rng.uniform(-1.5, 1.5, 520)
                         + rng.uniform(-1.5, 1.5, 520) * t)
        ends = np.append(zs, z_ref)
        if rho._singular_distance(ends, tau, w).min() < 1e-3:
            zs = zs[rho._singular_distance(zs, tau, w) >= 1e-3]
            z_ref = w / 2
        log_ref = cmath.log(rho._a_values(z_ref, tau, w))
        closed = _closed(zs, tau, w, z_ref, log_ref)
        tracked = log_ref + _segment_steps(z_ref, zs, tau, w)
        clear = _clearance(z_ref, zs, tau, w) >= 1e-3
        compared = clear & ~np.isnan(tracked)
        assert compared.sum() >= 0.95 * zs.size
        assert np.all(np.abs(closed - tracked)[compared] <= 1e-13)
        assert np.all(np.abs(np.exp(closed) - rho._a_values(zs, tau, w))
                      <= 1e-12 * np.abs(np.exp(closed)))

    @given(**_moduli, side=st.sampled_from([1.0, -1.0]),
           zero=st.booleans())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_near_passes_take_the_side_of_the_segment(
            self, re_tau, im_tau, wu, wv, near_real, w_im, seed, side, zero):
        # segments that pass a zero or pole of A at 1e-6 .. 1e-3 on a
        # given side: the value past it is the value before it continued
        # by principal logs, with the winding of (z - lambda) that the
        # segment really makes
        tau, w = _setup(re_tau, im_tau, wu, wv, near_real, w_im)
        rng = np.random.default_rng(seed)
        t = tau.tau
        count = 50
        lam = TWO_PI_I * (rng.integers(-1, 2, count) * t
                          + rng.integers(-1, 2, count))
        if zero:
            lam = lam + w
        z_ref = w / 2
        delta = 10.0 ** rng.uniform(-6, -3, count)
        r0 = 0.05 * min_lattice_distance(tau)
        ahead = lam - z_ref
        # the segment from z_ref through lam + side delta i direction
        unit = ahead / np.abs(ahead)
        through = lam + side * delta * 1j * unit
        heading = (through - z_ref) / np.abs(through - z_ref)
        dist = np.abs(through - z_ref)
        before, past = (z_ref + (dist + sgn * r0) * heading
                        for sgn in (-1.0, 1.0))
        keep = (np.abs(ahead) > 3 * r0) & np.array(
            [_clearance(z_ref, past[i:i + 1], tau, w, skip=lam[i])[0] >= 1e-3
             for i in range(count)])
        assert keep.sum() >= 10
        before, past, lam = before[keep], past[keep], lam[keep]
        log_ref = cmath.log(rho._a_values(z_ref, tau, w))
        la_before, la_past = _closed(
            np.concatenate([before, past]), tau, w, z_ref,
            log_ref).reshape(2, -1)
        # A / (z - lam)^e is analytic and nonzero near lam (e = 1 at a
        # zero, -1 at a pole), so its log moves by the principal log of
        # its ratio; (z - lam) turns by the signed angle of the segment
        e = 1.0 if zero else -1.0
        regular = [rho._a_values(p, tau, w) / (p - lam) ** e
                   for p in (before, past)]
        turn = np.log(np.abs(past - lam) / np.abs(before - lam)) \
            + 1j * np.angle((past - lam) / (before - lam))
        expected = la_before + np.log(regular[1] / regular[0]) + e * turn
        assert np.all(np.abs(la_past - expected) <= 1e-10)


class TestSideRule:
    def test_a_segment_through_a_pole_passes_above(self):
        # w real and z_ref = w/2: the segment to z = -1 runs along the
        # real axis through the pole at 0 and takes the upper side
        tau, w = TorusModulus(0.1 + 1.0j), 2.5 + 0.0j
        log_ref = cmath.log(rho._a_values(w / 2, tau, w))
        through, above, below = _closed(
            np.array([-1.0, -1.0 + 1e-9j, -1.0 - 1e-9j], dtype=complex),
            tau, w, w / 2, log_ref)
        assert abs(through - above) < 1e-7
        # passing below the pole turns (z - 0) the other way round
        assert abs(below - above - TWO_PI_I) < 1e-7

    def test_values_do_not_depend_on_the_batch(self):
        tau = TorusModulus(0.2 + 1.1j)
        w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
        rng = np.random.default_rng(3)
        zs = TWO_PI_I * (rng.uniform(-2, 2, 9) + rng.uniform(-2, 2, 9)
                         * tau.tau)
        # one point twenty periods out widens the batch's crossing rows
        zs = np.append(zs, zs[0] + TWO_PI_I * 20 * tau.tau)
        batch = _closed(zs, tau, w, w / 2, 0.3j)
        for i in range(zs.size):
            alone = _closed(zs[i:i + 1], tau, w, w / 2, 0.3j)
            assert abs(alone[0] - batch[i]) <= 1e-15 * max(1.0, abs(alone[0]))


class TestNearPunctures:
    def test_contour_nodes_match_a_40_digit_quotient(self):
        # at rho = 1e-18 the contours lie 1.2e-9 to 1.9e-9 from their
        # punctures; Log(1 - e^{-v}) rounded 1 - e^{-v} to 1e-16 absolute,
        # which put log A there 4.2e-8 off; Log(-expm1(-v)) reads 3.7e-15
        tw1, handle, mod = verify._rho_torus_setup(1e-18)
        ctx = rho.RhoTorusContext(tw1, handle, mod, 6, 16)
        zs = np.concatenate([c.points for c in ctx.moments._contours])
        val = _closed(zs, mod.tau, mod.w, mod.z_ref, mod.log_a_ref)
        with mpmath.workdps(40):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(mod.tau.tau))
            ref = np.array([complex(mpmath.log(
                mpmath.jtheta(1, (mpmath.mpc(z) - mod.w) / 2j, q)
                / mpmath.jtheta(1, mpmath.mpc(z) / 2j, q))) for z in zs])
        diff = val - ref
        diff -= TWO_PI_I * np.round(diff.imag / (2 * np.pi))
        assert np.max(np.abs(diff)) <= 1e-13


class TestRefusals:
    @pytest.mark.parametrize("z", [complex("nan"), complex(np.inf, 1.0),
                                   complex(1.0, -np.inf)])
    def test_non_finite_points_rejected(self, z):
        tau = TorusModulus(0.2 + 1.1j)
        w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
        with pytest.raises(DomainError, match="finite"):
            log_a_torus(np.array([1.0 + 2.0j, z]), tau, w, z_ref=w / 2,
                        log_a_ref=0.0)
        for anchor in ({"z_ref": z, "log_a_ref": 0.0},
                       {"z_ref": w / 2, "log_a_ref": z}):
            with pytest.raises(DomainError, match="finite"):
                log_a_torus(1.0 + 2.0j, tau, w, **anchor)

    def test_segments_beyond_the_crossing_bound_rejected(self):
        # a segment 2000 periods long crosses 2000 lines through lattice
        # points, each a row of work; 900 periods are still continued
        tau = TorusModulus(0.2 + 1.1j)
        w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
        near = TWO_PI_I * (0.3 + 900.4 * tau.tau)
        far = TWO_PI_I * (0.3 + 2000.4 * tau.tau)
        assert np.isfinite(log_a_torus(near, tau, w, z_ref=w / 2,
                                       log_a_ref=0.0))
        with pytest.raises(DomainError, match="lattice points"):
            log_a_torus(np.array([near, far]), tau, w, z_ref=w / 2,
                        log_a_ref=0.0)


def _split_sheet_setup():
    """The moduli of test_contour_starts_share_a_sheet: w 6.7e-3 below the
    real axis, so the first edges pass the pole at 0 at 3e-4 to 5e-4."""
    mod = rho.RhoModuliTorus.create(
        -0.3518043646580238 + 1.22239291091299j,
        -5.036862195863973 - 0.0066573642131724335j,
        -0.03691333467243803 + 0.09921609567269367j)
    return (TwistPair(0.03710664164609295, -0.42027656207476505),
            rho.HandleTwist(-0.3846086372884161, 0.015979698791629082), mod)


def _small_im_tau_setup():
    tau = TorusModulus(0.3 + 0.05j)
    w = TWO_PI_I * (0.31 + 0.27 * tau.tau)
    wd = float(lattice_distance(w, tau))
    mod = rho.RhoModuliTorus.create(tau, w, 0.05 * (wd / 2) ** 2
                                    * np.exp(0.6j))
    return TwistPair(0.17, 0.38), rho.HandleTwist(0.1, -0.22), mod


def _verify_setup(kappa):
    tw1, _, mod = verify._rho_torus_setup()
    return tw1, rho.HandleTwist(kappa, -0.22), mod


def _winding_setup():
    tw1, handle, mod = verify._rho_torus_setup()
    return tw1, handle, dataclasses.replace(mod, winding=1)


class TestContourPaths:
    """log A on the four contours of a build, one closed-form path per
    contour, against the node-to-node tracker."""

    @pytest.mark.parametrize("m", [16, 128])
    @pytest.mark.parametrize("setup", [
        _split_sheet_setup, _small_im_tau_setup, lambda: _verify_setup(0.37),
        lambda: _verify_setup(-0.37), _winding_setup],
        ids=["split-sheet", "small-im-tau", "kappa+0.37", "kappa-0.37", "winding"])
    def test_nodes_follow_the_tracker(self, setup, m):
        tw1, handle, mod = setup()
        ctx = rho.RhoTorusContext(tw1, handle, mod, 6, m)
        tau, w = mod.tau, mod.w
        contours = ctx.moments._x + ctx.moments._y
        assert len(contours) == 4
        for c in contours:
            a = 1 if c.center == 0 else 2
            # the start node: the one-edge path from z_ref, on the
            # moduli's sheet around w
            start = log_a_torus(c.points[0], tau, w, z_ref=mod.z_ref,
                                log_a_ref=mod.log_a_ref)
            assert abs(c.log_a[0] - start
                       - TWO_PI_I * mod.winding * (a == 2)) <= 1e-13
            steps = _segment_steps(c.points[:-1], c.points[1:], tau, w)
            assert not np.isnan(steps).any()
            tracked = c.log_a[0] + np.concatenate(([0.0], np.cumsum(steps)))
            assert np.all(np.abs(c.log_a - tracked) <= 1e-12)
            # once round the pole at 0 or the zero at w
            turn = -TWO_PI_I if a == 1 else TWO_PI_I
            assert abs(c.log_a[-1] - (c.log_a[0] + turn)) <= 1e-14
