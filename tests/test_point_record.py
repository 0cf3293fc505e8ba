"""The per-context point record of the two kernel contexts.

``EpsilonContext`` keeps, per (label, u) with u = x for an x row and
u = -y for a y row, the P_k row times its lattice multiplier and the
validated lattice distance; ``RhoTorusContext`` keeps, per x point and per
y point, its h or hbar row before the e^{kappa log A} factor and its
default-branch log A.  A recorded point is neither validated nor summed
again.  Only a call that succeeds records, at most POINT_RECORD points are
kept, the oldest leaving first, and every value equals, bit for bit, the
one a context that has recorded nothing gives.
"""

import collections
import itertools

import numpy as np
import pytest

from szegosew import epsilon, numerics, rho, specialfn
from szegosew.config import POINT_RECORD
from szegosew.epsilon import (EpsilonContext, EpsilonModuli,
                              GenusTwoCharacteristicsEps, SurfacePoint,
                              epsilon_bound)
from szegosew.errors import DomainError, SingularMatrixError
from szegosew.rho import HandleTwist, RhoModuliTorus, RhoTorusContext
from szegosew.specialfn import TorusModulus, TwistPair, lattice_distance

TWO_PI_I = 2j * np.pi
TAUS = {1: TorusModulus(0.3 + 1.0j), 2: TorusModulus(0.1 + 1.2j)}
CHARS = GenusTwoCharacteristicsEps(TwistPair(0.17, 0.38),
                                   TwistPair(0.07, -0.29))
# |epsilon| 2.96: excised disks of radius 1.05 on both tori
EPS_MODULI = EpsilonModuli.create(TAUS[1], TAUS[2], 0.3 * epsilon_bound(
    TAUS[1], TAUS[2]) * np.exp(0.5j))
RHO_TAU = TorusModulus(0.2 + 1.1j)
W = TWO_PI_I * (0.31 + 0.27 * RHO_TAU.tau)
RHO_MODULI = RhoModuliTorus.create(
    RHO_TAU, W, 0.05 * (float(lattice_distance(W, RHO_TAU)) / 2) ** 2
    * np.exp(0.6j))
TW1 = TwistPair(0.17, 0.38)
HANDLE = HandleTwist(0.1, -0.22)
LABEL_PAIRS = [(1, 1), (1, 2), (2, 1), (2, 2)]
# at tau_2 = 0.3+0.1i the strip is narrower than twice the inner radius
# of torus 2, so every torus-2 point is measured exactly
NARROW = EpsilonModuli.create(TAUS[1], 0.3 + 0.1j,
                              0.8216918606721565 + 0.4488923093695761j)
# at tau = 0.3+0.1i both these points are measured against 0 and w
SMALL = RhoModuliTorus.create(0.3 + 0.1j,
                              -0.16964600329384885 + 2.456725455107218j,
                              0.03325904015858834 + 0.0227537335826048j)
SMALL_POINTS = [-0.03262378063221206 + 3.9059694676986854j,
                -0.2799533522693228 + 6.661605712254575j]


def _eps():
    return EpsilonContext(CHARS, EPS_MODULI, 16)


def _rho(moduli=RHO_MODULI, n=10):
    return RhoTorusContext(TW1, HANDLE, moduli, n)


def _eps_point(rng, a):
    """A point of torus a at least 2 from its lattice: clear of the
    excised disk, and of the overlap with any other such point."""
    while True:
        z = TWO_PI_I * (rng.uniform() + rng.uniform() * TAUS[a].tau)
        if lattice_distance(z, TAUS[a]) > 2.0:
            return SurfacePoint(a, z)


def _rho_point(rng):
    """A point of the torus at least 1 from both punctures, clear of the
    sewing contours (margin 0.43)."""
    while True:
        z = TWO_PI_I * (rng.uniform() + rng.uniform() * RHO_TAU.tau)
        if min(lattice_distance(z, RHO_TAU),
               lattice_distance(z - W, RHO_TAU)) > 1.0:
            return z


def _grid(point, seed=0, k=4):
    """k x points and k y points per label (per side of the grid for the
    self-sewn torus)."""
    rng = np.random.default_rng(seed)
    return ({a: [point(rng, a) for _ in range(k)] for a in (1, 2)}
            for _ in "xy")


def _eps_grid(seed=0, k=4):
    return _grid(_eps_point, seed, k)


def _rho_grid(seed=0, k=4):
    return _grid(lambda rng, a: _rho_point(rng), seed, k)


def _grid_calls(xs, ys):
    """The single calls of one grid pass: every (i, j) and label pair."""
    k = len(xs[1])
    return [(xs[a][i], ys[b][j]) for i in range(k) for j in range(k)
            for a, b in LABEL_PAIRS]


def _bits(values):
    """The float64 words of complex values, so that equality is bitwise
    (0.0 and -0.0 apart)."""
    return np.ascontiguousarray(values, dtype=complex).reshape(-1) \
        .view(np.float64)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheme", ["eps", "rho"])
def test_batches_mixing_recorded_points_equal_fresh_calls(scheme, seed):
    make, grid = (_eps, _eps_grid) if scheme == "eps" else (_rho, _rho_grid)
    xs, ys = (p[1] + p[2] for p in grid(seed))
    fresh = np.array([[make().kernel(x, y) for y in ys] for x in xs])
    rng = np.random.default_rng(seed)
    pairs = list(itertools.product(range(len(xs)), range(len(ys))))
    ctx = make()
    # some points recorded first, by single calls in a random order
    for i, j in rng.permutation(pairs)[:12]:
        assert np.array_equal(_bits(ctx.kernel(xs[i], ys[j])),
                              _bits(fresh[i, j]))
    rows, cols = rng.permutation(len(xs)), rng.permutation(len(ys))
    batch = ctx.kernel_matrix([xs[i] for i in rows], [ys[j] for j in cols])
    assert np.array_equal(_bits(batch), _bits(fresh[rows][:, cols]))
    for i, j in rng.permutation(pairs):
        assert np.array_equal(_bits(ctx.kernel(xs[i], ys[j])),
                              _bits(fresh[i, j]))


def test_x_row_and_reflected_y_row_share_a_record():
    # the y row at y is the x row at -y, the same key and row
    x, y = SurfacePoint(1, 1.1 + 3.0j), SurfacePoint(2, -0.9 + 2.5j)
    ctx = _eps()
    ctx.kernel(x, y)
    assert list(ctx._points) == [(1, x.z), (2, -y.z)]
    mirror = (SurfacePoint(2, -y.z), SurfacePoint(1, -x.z))
    assert ctx.kernel(*mirror) == _eps().kernel(*mirror)
    assert len(ctx._points) == 2


def test_supplied_branches_give_a_fresh_contexts_value():
    xs, ys = (np.array(p[1][:3]) for p in _rho_grid())
    mom = _rho().moments
    turns = np.array([1, -2, 0])
    lax = np.array([mom.log_a(x) for x in xs]) + TWO_PI_I * turns
    lay = np.array([mom.log_a(y) for y in ys]) - TWO_PI_I * turns
    supplied = _rho().kernel_matrix(xs, ys, lax, lay)
    default = _rho().kernel_matrix(xs, ys)
    assert not np.allclose(supplied, default)
    # default branches recorded first, then branches supplied
    ctx = _rho()
    assert np.array_equal(ctx.kernel_matrix(xs, ys), default)
    assert np.array_equal(ctx.kernel_matrix(xs, ys, lax, lay), supplied)
    assert np.array_equal(ctx.kernel_matrix(xs, ys, lax),
                          _rho().kernel_matrix(xs, ys, lax))
    # branches supplied first: the rows are recorded without a log A,
    # which the first default-branch call computes and records
    ctx = _rho()
    assert np.array_equal(ctx.kernel_matrix(xs, ys, lax, lay), supplied)
    assert all(la is None for _, la in ctx._points.values())
    assert np.array_equal(ctx.kernel_matrix(xs, ys), default)
    assert all(la is not None for _, la in ctx._points.values())
    assert np.array_equal(ctx.kernel_matrix(xs, ys), default)


def _raises_twice(ctx, call):
    """(type, text) of the error a call raises twice alike, neither time
    changing the record."""
    before = {k: (id(row), la) for k, (row, la) in ctx._points.items()}
    errors = []
    for _ in range(2):
        with pytest.raises(Exception) as err:
            call()
        errors.append((type(err.value), str(err.value)))
        assert {k: (id(row), la)
                for k, (row, la) in ctx._points.items()} == before
    assert errors[0] == errors[1]
    return errors[0]


def test_eps_refused_calls_record_nothing():
    xs, ys = _eps_grid()
    near = SurfacePoint(1, 1.2j)  # d(x) d(y) = 1.44 <= |epsilon| = 2.96
    ctx = _eps()
    ctx.kernel(xs[1][0], ys[1][0])
    ctx.kernel(near, ys[1][1])
    x0, new = xs[1][0], ys[1][2]
    for call, text in [
            # a recorded x and a point in the excised disk
            (lambda: ctx.kernel(x0, SurfacePoint(2, 0.5j)), "excised disk"),
            # a recorded x and a new y that overlap through the annulus
            (lambda: ctx.kernel(near, SurfacePoint(2, 1.2j)), "overlap"),
            # a new y beside a recorded x, then a pole at x - y
            (lambda: ctx.kernel_matrix([x0], [new, SurfacePoint(1, x0.z)]),
             "pole guard")]:
        kind, message = _raises_twice(ctx, call)
        assert kind is DomainError and text in message
    assert (1, -new.z) not in ctx._points


def test_rho_refused_calls_record_nothing():
    xs, ys = _rho_grid()
    ctx = _rho()
    x0, new = xs[1][0], ys[2][0]
    ctx.kernel(x0, ys[1][0])
    for call, text in [
            # a recorded x and a y inside the sewing contours
            (lambda: ctx.kernel(x0, W + 0.1), "sewing contours"),
            # a new y beside a recorded x, then a pole at x - y
            (lambda: ctx.kernel_matrix([x0], [new, x0 + TWO_PI_I]),
             "pole guard")]:
        kind, message = _raises_twice(ctx, call)
        assert kind is DomainError and text in message
    assert (1, new) not in ctx._points


def test_a_failing_solve_records_nothing(monkeypatch):
    # every row is summed before the gated inverse refuses
    monkeypatch.setattr(numerics, "CONDITION_THRESHOLD", 0.5)
    (exs, eys), (rxs, rys) = _eps_grid(), _rho_grid()
    for ctx, x, y in ((_eps(), exs[1][0], eys[2][0]),
                      (_rho(), rxs[1][0], rys[1][0])):
        kind, _ = _raises_twice(ctx, lambda: ctx.kernel(x, y))
        assert kind is SingularMatrixError and not ctx._points


@pytest.mark.parametrize("scheme", ["eps", "rho"])
def test_oldest_points_leave_first(scheme):
    rng = np.random.default_rng(3)
    ctx, keys = (_eps() if scheme == "eps" else _rho()), []
    for _ in range(POINT_RECORD // 2 + 40):
        if scheme == "eps":
            x, y = _eps_point(rng, 1), _eps_point(rng, 1)
            keys += [(1, x.z), (1, -y.z)]
        else:
            x, y = _rho_point(rng), _rho_point(rng)
            keys += [(0, x), (1, y)]
        ctx.kernel(x, y)
        assert len(ctx._points) <= POINT_RECORD
    assert list(ctx._points) == keys[-POINT_RECORD:]


def test_a_long_batch_keeps_a_copy_of_its_last_rows():
    rng = np.random.default_rng(4)
    xs = [_rho_point(rng) for _ in range(POINT_RECORD + 30)]
    y = _rho_point(rng)
    ctx = _rho(n=4)
    values = ctx.kernel_matrix(xs, [y])
    assert list(ctx._points) == [(0, x) for x in xs[1 - POINT_RECORD:]] \
        + [(1, y)]
    row = next(iter(ctx._points.values()))[0]
    assert row.base.shape[0] == POINT_RECORD
    assert np.array_equal(ctx.kernel_matrix(xs[-3:], [y]), values[-3:])


def _counting(monkeypatch, module, name):
    """Wrap module.name; the returned list gets the length of each call's
    first argument."""
    sizes, func = [], getattr(module, name)

    def counting(first, *args):
        sizes.append(len(first))
        return func(first, *args)
    monkeypatch.setattr(module, name, counting)
    return sizes


def test_eps_grid_pass_sums_each_row_once(monkeypatch):
    ctx = _eps()
    rows = _counting(monkeypatch, epsilon, "_substitute")
    xs, ys = _eps_grid()
    for x, y in _grid_calls(xs, ys):
        ctx.kernel(x, y)
    # one row per (label, u): 4 x and 4 y points per label
    assert sum(rows) == 16
    # new points in every call: every row is summed
    rows.clear()
    rng = np.random.default_rng(5)
    for a, b in LABEL_PAIRS * 4:
        ctx.kernel(_eps_point(rng, a), _eps_point(rng, b))
    assert sum(rows) == 2 * 16


def test_rho_grid_pass_sums_each_row_once(monkeypatch):
    ctx = _rho()
    rows = _counting(monkeypatch, rho, "_substitute")
    log_a = _counting(monkeypatch, rho, "_continue_log_a")
    xs, ys = _rho_grid()
    for x, y in _grid_calls(xs, ys):
        ctx.kernel(x, y)
    # two rows per point (at x - c_1 and x - c_2, or c_2 - y and c_1 - y)
    # and one log A, for 8 x and 8 y points
    assert sum(rows) == 2 * 16 and sum(log_a) == 16
    rows.clear()
    log_a.clear()
    rng = np.random.default_rng(6)
    for _ in range(16):
        ctx.kernel(_rho_point(rng), _rho_point(rng))
    assert sum(rows) == 2 * 2 * 16 and sum(log_a) == 2 * 16


@pytest.mark.parametrize("scheme", ["eps", "rho"])
def test_exact_distances_are_never_taken_for_recorded_points(monkeypatch,
                                                             scheme):
    measured = []
    exact = specialfn.lattice_distance

    def counting(z, tau):
        measured.extend(np.ravel(z).tolist())
        return exact(z, tau)
    for module in (epsilon, rho, specialfn):
        monkeypatch.setattr(module, "lattice_distance", counting)
    if scheme == "eps":
        # every torus-2 point of the narrow strip needs its exact distance
        ctx = EpsilonContext(CHARS, NARROW, 8)
        zs = [0.2 + 2.0j, -0.3 + 0.5j, -0.15 + 2.5j]
        points = [SurfacePoint(2, z) for z in zs]
        # each point once as an x row and once as a y row
        expected = zs * 2
    else:
        ctx = _rho(SMALL, 8)
        zs = points = SMALL_POINTS
        # against both punctures, as an x and as a y
        expected = [v for z in zs for v in (z, z - SMALL.w)] * 2
    pairs = [(x, y) for x, y in itertools.product(points, points) if x != y]
    for x, y in pairs + pairs[::-1] + pairs:
        assert np.isfinite(ctx.kernel(x, y))
    assert collections.Counter(measured) == collections.Counter(expected)
