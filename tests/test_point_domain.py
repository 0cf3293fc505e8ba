"""Which points the sewn kernels refuse.

Each kernel call validates its points from its one lattice reduction:
the reduced coordinate's distance to the lines through lattice points
bounds the lattice distance from below, and exact ``lattice_distance``
measures only the points that bound cannot clear.  The property tests
here hold that to the rule it replaces, written out below: exact lattice
distances of the unreduced coordinates against the same thresholds.  A
point too far out for its reduction to be accurate raises in every route.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from szegosew.config import POLE_GUARD
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint,
                              epsilon_bound)
from szegosew.errors import DomainError
from szegosew.rho import (X_RADIUS_FACTOR, HandleTwist, RhoModuliTorus,
                          RhoTorusContext)
from szegosew.specialfn import (TorusModulus, TwistPair, _reduce_off_lattice,
                                lattice_distance, min_lattice_distance,
                                p1_theta, p_k_vector)

TWO_PI_I = 2j * np.pi
T1 = TorusModulus(0.3 + 1.0j)
T2 = TorusModulus(0.1 + 1.2j)
CHARS = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                   TwistPair(0.07, -0.29))
TW1 = TwistPair(0.17, 0.38)
HANDLE = HandleTwist(0.1, -0.22)
RHO_TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * RHO_TAU.tau)
# draws within this relative distance of a threshold are skipped: the
# reduction rounds the coordinate, so either side may be taken there
EDGE_TOL = 1e-12

_tau = st.builds(complex, st.floats(-1.0, 1.0), st.floats(0.1, 1.5))
_unit = st.floats(0.0, 1.0)
_scale = st.floats(0.9, 1.1)
_near_cell = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
# cells far out, |z| up to about 1e7, where the reduction rounds z by
# about 1e-9; a self-sewn-torus point stays within 500 lines through
# lattice points of z_ref, so its log A path crosses fewer than its 1000
_cell = st.one_of(_near_cell, st.tuples(st.integers(-10**6, 10**6),
                                        st.integers(-10**6, 10**6)))
_rho_cell = st.one_of(_near_cell, st.tuples(st.integers(-500, 500),
                                            st.integers(-10**6, 10**6)))


def _eps_context():
    moduli = EpsilonModuli.create(T1, T2, 0.02 * epsilon_bound(T1, T2)
                                  * np.exp(0.5j))
    return EpsilonContext(CHARS, moduli, 16)


def _rho_context():
    wd = float(lattice_distance(W, RHO_TAU))
    moduli = RhoModuliTorus.create(RHO_TAU, W, 0.05 * (wd / 2) ** 2
                                   * np.exp(0.6j))
    return RhoTorusContext(TW1, HANDLE, moduli, 10)


def _near(tau, cell, radius, turn, centre=0.0):
    """A point at ``radius`` from the lattice point ``cell`` (m, n) of tau
    (shifted by ``centre``), in the direction ``turn`` of a full turn."""
    m, n = cell
    return (centre + TWO_PI_I * (m * tau.tau + n)
            + radius * np.exp(TWO_PI_I * turn))


def _cell_centre(tau):
    """The centre of a reduced cell: at least half the shortest period
    from every lattice point."""
    b1, b2 = tau.cell[:2]
    return (b1 + b2) / 2


def _clear_of(d, limit):
    """False when a distance lies within EDGE_TOL of its threshold."""
    return bool(np.all(np.abs(np.asarray(d) - limit) > EDGE_TOL * limit))


def _eps_rule(moduli, xs, ys):
    """The refusal of an epsilon call by exact lattice distances of the
    unreduced coordinates: per label a point within max(inner radius,
    POLE_GUARD), then a cross-torus pair with min d(x) min d(y) <=
    |epsilon|, then a same-label difference x - y within POLE_GUARD of
    the lattice.  Returns a message fragment or None."""
    eps = abs(moduli.epsilon)
    for a in (1, 2):
        zs = [p.z for p in list(xs) + list(ys) if p.which == a]
        if not zs:
            continue
        limit = max(eps / moduli.radius(3 - a), POLE_GUARD)
        d = lattice_distance(np.array(zs), moduli.tau(a))
        assume(_clear_of(d, limit))
        if np.any(d <= limit):
            return "excised disk"
    for a in sorted({p.which for p in xs}):
        dx = [lattice_distance(p.z, moduli.tau(a)) for p in xs
              if p.which == a]
        dy = [lattice_distance(p.z, moduli.tau(3 - a)) for p in ys
              if p.which == 3 - a]
        if dy:
            r = min(dx) * min(dy)
            assume(_clear_of(r, eps))
            if r <= eps:
                return "overlap"
    for x in xs:
        for y in ys:
            if x.which == y.which and \
                    lattice_distance(x.z - y.z, moduli.tau(x.which)) \
                    < POLE_GUARD:
                return "pole guard"
    return None


def _rho_rule(ctx, xs, ys):
    """The refusal of a self-sewn-torus call by exact lattice distances
    of the unreduced coordinates: a point within the contour margin of 0
    or w, then x - y within POLE_GUARD of the lattice."""
    tau, w, margin = ctx.moduli.tau, ctx.moduli.w, ctx._margin
    for z in list(xs) + list(ys):
        d = min(lattice_distance(z, tau), lattice_distance(z - w, tau))
        assume(_clear_of(d, margin))
        if d <= margin:
            return "sewing contours"
    if any(lattice_distance(x - y, tau) < POLE_GUARD
           for x in xs for y in ys):
        return "pole guard"
    return None


def _outcome(call):
    """The DomainError text of a call, or None if it returns finite
    values."""
    try:
        values = call()
    except DomainError as err:
        return str(err)
    assert np.all(np.isfinite(values))
    return None


@given(tau1=_tau, tau2=_tau, frac=st.floats(0.05, 0.3), phase=_unit,
       overlap=st.booleans(), a=st.sampled_from([1, 2]),
       b=st.sampled_from([1, 2]), scales=st.tuples(_scale, _scale),
       turns=st.tuples(_unit, _unit), cells=st.tuples(_cell, _cell),
       u=_unit)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_eps_refusals_follow_exact_distances(tau1, tau2, frac, phase,
                                             overlap, a, b, scales, turns,
                                             cells, u):
    taus = {1: TorusModulus(tau1), 2: TorusModulus(tau2)}
    moduli = EpsilonModuli.create(
        taus[1], taus[2],
        frac * epsilon_bound(taus[1], taus[2]) * np.exp(TWO_PI_I * phase))
    eps = abs(moduli.epsilon)

    def inner(c):
        return eps / moduli.radius(3 - c)
    if overlap:
        # a cross-torus pair with d(x) d(y) / |epsilon| in [0.9, 1.1],
        # each point outside its excised disk and nearest its own
        # lattice point
        b = 3 - a
        dx = 1.05 * inner(a) + u * (0.85 * moduli.radius(a)
                                    - 1.05 * inner(a))
        dy = scales[1] * eps / dx
    else:
        # points at 0.9-1.1 times the excised-disk radius of their torus
        dx, dy = scales[0] * inner(a), scales[1] * inner(b)
    x = SurfacePoint(a, _near(taus[a], cells[0], dx, turns[0]))
    y = SurfacePoint(b, _near(taus[b], cells[1], dy, turns[1]))
    ctx = EpsilonContext(CHARS, moduli, 4)
    # points that clear everything: cell centres, half a shortest period
    # or more from the lattice, which leave every minimum distance of
    # the call and so its error text as they were
    good = [SurfacePoint(c, _cell_centre(taus[c])) for c in (1, 2)]
    for xs, ys in (([x], [y]), ([y], [x])):
        expected = _eps_rule(moduli, xs, ys)
        scalar = _outcome(lambda: ctx.kernel(xs[0], ys[0]))
        assert (scalar is None) == (expected is None), (expected, scalar)
        if expected is not None:
            assert expected in scalar
            assert _eps_rule(moduli, good[:1] + xs + good[1:], ys) \
                == expected
            batch = _outcome(lambda: ctx.kernel_matrix(
                good[:1] + xs + good[1:], ys))
            assert batch == scalar


@given(tau=_tau, wuv=st.tuples(st.floats(0.2, 0.8), st.floats(0.2, 0.8)),
       frac=st.floats(0.05, 0.5), phase=_unit,
       at_w=st.tuples(st.booleans(), st.booleans()),
       scales=st.tuples(_scale, st.floats(0.9, 3.0)),
       turns=st.tuples(_unit, _unit), cells=st.tuples(_rho_cell, _rho_cell))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rho_refusals_follow_exact_distances(tau, wuv, frac, phase, at_w,
                                             scales, turns, cells):
    t = TorusModulus(tau)
    w = TWO_PI_I * (wuv[0] + wuv[1] * t.tau)
    r = 0.45 * min(min_lattice_distance(t), float(lattice_distance(w, t)))
    rho = frac * (r / X_RADIUS_FACTOR) ** 2 * np.exp(TWO_PI_I * phase)
    ctx = RhoTorusContext(TW1, HANDLE, RhoModuliTorus.create(t, w, rho), 4)
    # points at 0.9-1.1 (and up to 3) times the contour margin of 0 or w
    x, y = (_near(t, cell, s * ctx._margin, turn, w if side else 0.0)
            for cell, s, turn, side in zip(cells, scales, turns, at_w))
    # a point that clears the margin: the best of a few in the cell
    grid = TWO_PI_I * (np.add.outer(np.array([0.2, 0.45, 0.7]),
                                    np.array([0.2, 0.45, 0.7]) * t.tau))
    ds = np.minimum(lattice_distance(grid, t), lattice_distance(grid - w, t))
    good = grid.flat[np.argmax(ds)]
    assume(ds.max() > 2 * ctx._margin)
    for xs, ys in (([x], [y]), ([y], [x])):
        expected = _rho_rule(ctx, xs, ys)
        scalar = _outcome(lambda: ctx.kernel(xs[0], ys[0]))
        assert (scalar is None) == (expected is None), (expected, scalar)
        if expected is not None:
            assert expected in scalar
            assume(_rho_rule(ctx, [good] + xs, ys) == expected)
            batch = _outcome(lambda: ctx.kernel_matrix([good] + xs, ys))
            assert batch == scalar


@given(tau=_tau, cell=st.tuples(st.integers(-10**6, 10**6),
                                st.integers(-10**6, 10**6)),
       d=st.floats(0.01, 0.5), side=st.sampled_from([1.0, -1.0]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_edge_bounds_the_lattice_distance_far_out(tau, cell, d, side):
    # a point level with its lattice point: its distance is the edge
    # itself, which the reduction rounds either way by up to about
    # |z| 2^-53 unless the edge is lowered by that rounding
    t = TorusModulus(tau)
    z = TWO_PI_I * (cell[0] * t.tau + cell[1]) + side * d
    assert _reduce_off_lattice(z, t)[3][0] <= lattice_distance(z, t)


# the values of points twenty periods out, from before the far-point
# guard: bit for bit
FAR_1 = TWO_PI_I * (20.37 + 20.21 * T1.tau)
FAR_2 = TWO_PI_I * (-19.6 + 20.4 * T2.tau)
FAR_RHO = TWO_PI_I * (0.09 + 0.53 * RHO_TAU.tau) + TWO_PI_I * 20 * RHO_TAU.tau


def test_points_twenty_periods_out_keep_their_values():
    assert p1_theta(CHARS.tw1, FAR_1, T1) \
        == -0.10857410226817406 - 0.3280704383978044j
    assert np.array_equal(p_k_vector(CHARS.tw1, 4, FAR_1, T1), [
        -0.10857410226817406 - 0.3280704383978044j,
        0.16242073346719704 + 0.07475297979826837j,
        0.012353973914722769 - 0.027852817852787187j,
        -0.012329187844615357 - 0.006323945572017368j])
    assert _eps_context().kernel(SurfacePoint(1, FAR_1),
                                 SurfacePoint(2, FAR_2)) \
        == 0.014821521607821462 - 0.03516988311567009j
    assert _rho_context().kernel(FAR_RHO, FAR_RHO + 1.3) \
        == -0.45845823188265755 + 0.13520646532695846j


@pytest.mark.parametrize("far", [1e8, 1e20, -3e9 + 1e20j])
def test_far_point_raises_in_every_route(far):
    # |z| 2^-52 above POLE_GUARD: z has no reduced coordinate to that
    # accuracy (and from |z| near 1e19 its integer cell would overflow),
    # so every route refuses it before reducing
    eps, rho = _eps_context(), _rho_context()
    calls = [lambda: p1_theta(CHARS.tw1, far, T1),
             lambda: p_k_vector(CHARS.tw1, 4, np.array([0.4 + 1.1j, far]),
                                T1),
             lambda: eps.kernel(SurfacePoint(1, far), SurfacePoint(1, 1 + 2j)),
             lambda: eps.kernel(SurfacePoint(1, 0.4 + 1.1j),
                                SurfacePoint(2, far)),
             lambda: rho.kernel(far, 0.6 + 3.5j),
             lambda: rho.kernel_matrix([0.6 + 3.5j], [-2.9 + 1.4j, far])]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="too far out"):
                call()
