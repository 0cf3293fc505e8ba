"""Independent routes that check the pipeline.

The tests, ``verify`` and the CLI read them; no pipeline module imports
this one at module level.  The genus-g theta function, P1 by its
q-series, circle quadrature, the block and trace-series routes of the
two-tori determinant, and for the self-sewn torus A from theta sums,
S_kappa at a grid of points and the contour quadrature of its moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RESONANCE_GUARD, SERIES_TOL, THETA_TOL
from .errors import (BranchTrackingError, ConvergenceError, DomainError,
                     ResonanceError)
from .numerics import as_complex_matrix, check_count
from .rho import (TWO_PI_I, TorusMoments, _branches, _continue_log_a,
                  mode_index)
from .specialfn import (TWO_PI, TorusModulus, TwistPair, _box_radius,
                        _check_not_trivial, _multiplier, _reduce_mod1,
                        _reduce_off_lattice, _theta_value, p1_theta)

__all__ = [
    "PeriodMatrix", "Characteristics", "theta_char", "p1_series",
    "circle_nodes", "build_q", "logdet_series", "s_kappa_grid",
    "TorusContour", "torus_contours", "TorusQuadrature",
]

_LOGDET_TERMS = 40  # terms of the logdet_series cross-check
_CLOSURE_TOL = 1e-8
# least radius of a tracked contour: a node round w is held as w + offset,
# which rounds the offset by ulp(|w|), about 2e-16 |w| / r relative; log A
# stays at rounding level there (3.7e-15 against a 40-digit theta_1
# quotient down to r = 1.5e-11)
_LOG_A_RADIUS_FLOOR = 1e-10


# ----------------------------------------------------------------------
# genus-g theta function, q-series of P1, circle quadrature, determinants
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PeriodMatrix:
    """Symmetric g x g period matrix with positive-definite imaginary part."""

    omega: np.ndarray

    def __post_init__(self) -> None:
        om = np.atleast_2d(np.asarray(self.omega, dtype=complex))
        if om.shape[0] != om.shape[1]:
            raise DomainError("period matrix must be square")
        if not np.all(np.isfinite(om)):
            raise DomainError("period matrix must be finite")
        om = 0.5 * (om + om.T)  # enforce exact symmetry
        try:
            np.linalg.cholesky(om.imag)
        except np.linalg.LinAlgError as exc:
            raise DomainError("Im(omega) must be positive definite") from exc
        object.__setattr__(self, "omega", om)

    @classmethod
    def from_tau(cls, tau) -> "PeriodMatrix":
        t = tau.tau if isinstance(tau, TorusModulus) else complex(tau)
        return cls(np.array([[t]], dtype=complex))

    @property
    def genus(self) -> int:
        return self.omega.shape[0]


@dataclass(frozen=True)
class Characteristics:
    """Real theta characteristics (alpha, beta), stored reduced mod 1,
    which moves theta[alpha;beta] by a unit factor only."""

    alpha: tuple
    beta: tuple

    def __post_init__(self) -> None:
        a = _reduce_mod1(self.alpha)
        b = _reduce_mod1(self.beta)
        if len(a) != len(b):
            raise DomainError("alpha and beta must have equal length")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def genus(self) -> int:
        return len(self.alpha)


def theta_char(chars: Characteristics, z, omega) -> complex:
    """Genus-g theta function with real characteristics.

    ``z`` is a length-g complex vector (scalar at g=1) in the package's
    2 pi i scaled convention; ``omega`` is a PeriodMatrix (a TorusModulus
    or bare complex is promoted at g=1).  The box radius is chosen from
    ``THETA_TOL``, and the boundary shell is checked against it.
    """
    if not isinstance(omega, PeriodMatrix):
        omega = PeriodMatrix.from_tau(omega)
    g = omega.genus
    if chars.genus != g:
        raise DomainError("characteristics genus does not match omega")
    zv = np.atleast_1d(np.asarray(z, dtype=complex))
    if zv.shape != (g,):
        raise DomainError(f"z must have length {g}")
    if not np.all(np.isfinite(zv)):
        raise DomainError("z must be finite")
    lam_min = float(np.linalg.eigvalsh(omega.omega.imag)[0])
    cmax = float(np.max(np.abs(zv.real))) if g else 0.0
    radius = _box_radius(lam_min, cmax, THETA_TOL)
    rng = np.arange(-radius, radius + 1)
    mesh = np.meshgrid(*([rng] * g), indexing="ij")
    m = np.stack([mm.ravel() for mm in mesh], axis=1).astype(float)
    ma = m + np.asarray(chars.alpha)
    zb = zv + 2j * np.pi * np.asarray(chars.beta)
    expo = 1j * np.pi * np.einsum("mi,ij,mj->m", ma, omega.omega, ma) + ma @ zb
    terms = np.exp(expo)
    total = complex(np.sum(terms))
    # the largest term on the outermost shell must be negligible
    on_boundary = np.max(np.abs(m), axis=1) >= radius - 0.5
    if np.any(on_boundary):
        shell = float(np.max(np.abs(terms[on_boundary])))
        scale = max(abs(total), 1.0)
        if shell > 100.0 * THETA_TOL * scale:
            raise ConvergenceError(
                f"theta tail {shell:.2e} above tolerance at box radius {radius}")
    return total


def _series_terms(tw: TwistPair, z_red: complex, tau: TorusModulus,
                  jmax: int) -> np.ndarray:
    """Terms t_j = q_z^{j+lam}/(1 - theta^{-1} q^{j+lam}), j = -jmax..jmax,
    at the reduced point z_red.  The j+lam < 0 half is rewritten as
    -theta (q_z/q)^{j+lam} / (1 - theta q^{-(j+lam)}) to keep every
    exponential bounded.
    """
    th = tw.theta
    t = tau.tau
    j = np.arange(-jmax, jmax + 1) + tw.lam
    pos = j >= 0
    # q^{|j+lam|}: q^{j+lam} on the upper half, q^{-(j+lam)} on the lower
    qpow = np.exp((2j * np.pi * t) * np.abs(j))
    den = np.where(pos, 1.0 - qpow / th, 1.0 - th * qpow)
    small = np.abs(den) < RESONANCE_GUARD
    if small.any():
        raise ResonanceError(
            "resonant denominator 1 - theta^{-1} q^{k+lam}"
            if (small & pos).any() else
            "resonant denominator 1 - theta q^{-(k+lam)}")
    base = np.where(pos, z_red, z_red - 2j * np.pi * t)
    return np.exp(base * j) * np.where(pos, 1.0, -th) / den


def _series_jmax(z_red: complex, tau: TorusModulus) -> int:
    """Truncation index of the q-series at the reduced point z_red."""
    # log |e^{z_red}| and log |q / e^{z_red}|
    rate = max(z_red.real, -(z_red.real + TWO_PI * tau.tau.imag))
    if rate >= -1e-9:
        raise ConvergenceError(
            "q-series does not converge: reduced point on the annulus "
            "boundary")
    jmax = int(math.ceil((math.log(SERIES_TOL) - 6.0) / rate)) + 4
    if jmax > 200_000:
        raise ConvergenceError(
            f"q-series truncation {jmax} unreasonably large; "
            "point too close to the annulus boundary")
    return jmax


def p1_series(tw: TwistPair, z, tau: TorusModulus) -> complex:
    """P1 via the q-series route (independent oracle for p1_theta). Scalar z."""
    _check_not_trivial(tw)
    (z_red,), m, n = _reduce_off_lattice(complex(z), tau)
    terms = _series_terms(tw, z_red, tau, _series_jmax(z_red, tau))
    val = -np.sum(terms)
    tail = max(abs(terms[0]), abs(terms[-1]))
    if tail > 1e3 * SERIES_TOL * max(abs(val), 1.0):
        raise ConvergenceError(f"q-series tail {tail:.2e} above tolerance")
    return complex(_multiplier(tw, int(m[0]), int(n[0])) * val)


def circle_nodes(center: complex, radius: float, m: int):
    """Nodes z_j = center + r e^{2 pi i j / m}, j < m, and weights w with
    sum(w * f(z)) the trapezoidal rule of (1/2 pi i) oint f dz."""
    if radius <= 0:
        raise DomainError("contour radius must be positive")
    m = check_count(m, 2, "need at least 2 quadrature points")
    unit = np.exp(1j * (2.0 * np.pi * np.arange(m) / m))
    return center + radius * unit, radius * unit / m


def build_q(f1: np.ndarray, f2: np.ndarray, xi: complex) -> np.ndarray:
    """Block matrix Q = [[0, xi F1], [-xi F2, 0]]; det(I - Q) = det(I - F1 F2)."""
    f1, f2 = (np.asarray(f, dtype=complex) for f in (f1, f2))
    if f1.shape != f2.shape or f1.shape[0] != f1.shape[1]:
        raise DomainError("F1, F2 must be square with equal shapes")
    zero = np.zeros_like(f1)
    return np.block([[zero, xi * f1], [-xi * f2, zero]])


def logdet_series(f1: np.ndarray, f2: np.ndarray) -> complex:
    """Cross-check: log det(I-F1F2) = -sum_{n>=1} tr((F1 F2)^n)/n."""
    prod = np.asarray(f1, dtype=complex) @ np.asarray(f2, dtype=complex)
    acc = 0.0 + 0.0j
    power = np.eye(prod.shape[0], dtype=complex)
    for n in range(1, _LOGDET_TERMS + 1):
        power = power @ prod
        acc -= np.trace(power) / n
    return complex(acc)


# ----------------------------------------------------------------------
# self-sewn torus: A, S_kappa and the moment contours
# ----------------------------------------------------------------------

def _a_values(z, tau: TorusModulus, w: complex):
    """A(z) = theta1(z - w) / theta1(z), vectorized in z, from reduced
    theta sums (far points do not overflow, and no value depends on the
    batch): the tests' reference of the closed-form log A."""
    log_mult, th = _theta_value((0.5, 0.5), np.array([z - w, z]), tau.tau)
    return np.exp(log_mult[0] - log_mult[1]) * th[0] / th[1]


def s_kappa_grid(s: TorusMoments, xs, log_ax, ys, log_ay) -> np.ndarray:
    """S_kappa(x_i, y_j) of the setup s, shape (P, Q), at points with
    one finite log A branch each: e^{kappa (log A(x) - log A(y)) - kappa v
    (x - y)} P1[char](x - y) through p1_theta, whose lattice reduction is
    the pole guard; no value depends on the other points of its call."""
    xs = np.ravel(np.asarray(xs, dtype=complex))
    ys = np.ravel(np.asarray(ys, dtype=complex))
    z = np.subtract.outer(xs, ys)
    u = np.subtract.outer(_branches(xs, log_ax), _branches(ys, log_ay))
    return np.exp(s.kappa * u - s.kv * z) * p1_theta(s.char, z, s.moduli.tau)


@dataclass(frozen=True)
class TorusContour:
    """m trapezoidal nodes on a circle plus the closure node m, which
    continues node 0 through phi = 2 pi in ``points``, ``log_local`` and
    ``log_a``; (1/2 pi i) oint f dz_local = sum_{j<m} weight_j f_j."""

    points: np.ndarray
    log_local: np.ndarray
    log_a: np.ndarray
    weight: np.ndarray
    center: complex
    radius: float


def torus_contours(s: TorusMoments, specs, m: int) -> tuple:
    """Circles (label a, radius) of m nodes around the punctures, one
    TorusContour per entry of specs, with log A at every node (0 at
    kappa = 0) from one closed-form call: each circle is the path z_ref
    -> its start node -> every node in order (see rho._continue_log_a),
    and the moduli's winding is added around w.  The radii must stay
    inside the sewing annulus and, with kappa != 0, be at least
    ``_LOG_A_RADIUS_FLOOR``.
    """
    mod = s.moduli
    radii = np.array([r for _, r in specs], dtype=float)
    if np.any(radii >= mod.radius):
        raise DomainError("contour radius exceeds the sewing annulus")
    if s.tracked and np.any(radii < _LOG_A_RADIUS_FLOOR):
        raise DomainError(
            f"contour radius below {_LOG_A_RADIUS_FLOOR:.0e}: its nodes "
            "round w would round too coarsely; rho too small")
    centers = np.array([mod.center(a) for a, _ in specs], dtype=complex)
    phi = 2.0 * np.pi * np.arange(m + 1) / m
    pts = centers[:, None] + radii[:, None] * np.exp(1j * phi)
    pts[:, m] = pts[:, 0]
    log_a = np.zeros(pts.shape, dtype=complex)
    if s.tracked:
        log_a = _continue_log_a(pts, mod.tau, mod.w, mod.z_ref, mod.log_a_ref)
        log_a[[a == 2 for a, _ in specs]] += TWO_PI_I * mod.winding
    return tuple(TorusContour(p, math.log(r) + 1j * phi, la, (p[:m] - c) / m,
                              c, float(r))
                 for p, la, c, r in zip(pts, log_a, centers, radii))


def _check_closure(first, last, scale, what) -> None:
    """Verify the phi = 2 pi node reproduces the phi = 0 node, element-wise:
    max |last - first| along the last axis within _CLOSURE_TOL of scale
    (broadcast over the leading axes, one check per point); ``what``
    names the integrand, or each index of the error's last axis."""
    err = np.max(np.abs(last - first), axis=-1) / np.maximum(scale, 1e-300)
    if not np.all(err <= _CLOSURE_TOL):  # a NaN error fails too
        if not isinstance(what, str):  # the name with the largest error
            what = what[int(np.argmax(err.reshape(-1, len(what)).max(0)))]
        raise BranchTrackingError(
            f"{what} integrand not single-valued on the contour "
            f"(closure error {np.max(err):.2e})")


def _nodes(cs: tuple) -> tuple:
    """The nodes of the contours cs with their closure nodes, and log A."""
    return (np.concatenate([c.points for c in cs]),
            np.concatenate([c.log_a for c in cs]))


class TorusQuadrature:
    """Trapezoidal quadrature of the moments of a ``TorusMoments``, the
    oracle of its closed forms, on the contours of its ``_specs`` (x of
    labels abar, then y of labels a) with every radius times
    radius_scale.  The contours and their mode tables z_local^{-k_a} are
    built at construction; each integrand of ``u_moments``, ``g_matrix``,
    ``h_matrix`` and ``hbar_matrix`` has its closure checked."""

    def __init__(self, moments: TorusMoments, m_points: int,
                 radius_scale: float = 1.0) -> None:
        self.moments = moments
        self.m_points = check_count(m_points, 8,
                                    "need at least 8 quadrature points")
        cs = torus_contours(moments, [(a, radius_scale * r)
                                      for a, r in moments._specs],
                            self.m_points)
        self.x, self.y = cs[:2], cs[2:]
        # the U^kappa moments read Ebar_{a,j} to j = 2N - 1
        self._x_modes, self._y_modes, self._x_modes_2n = (
            self._mode_table(contours, k * moments.n_order)
            for contours, k in ((self.x, 1), (self.y, 1), (self.x, 2)))

    def _mode_table(self, cs: tuple, n: int) -> tuple:
        """The modes z_local^{-k_a}, k = 1..n, of the contours cs of labels
        a = 1, 2 at every node with the closure node, shape (2, n, M+1),
        their largest per node, and the trapezoid-weighted modes."""
        m = self.m_points
        modes = np.array([np.exp(-np.multiply.outer(
            mode_index(a, np.arange(1, n + 1), self.moments.kappa),
            c.log_local)) for a, c in zip((1, 2), cs)])
        return (modes, np.max(np.abs(modes), axis=1),
                [w[:, :m] * c.weight for w, c in zip(modes, cs)])

    def _moments(self, table: tuple, f: np.ndarray, what: str) -> np.ndarray:
        """(1/2pi i) oint z_local^{-k_a} f dz_local, a = 1, 2, from f at the
        nodes of both contours of a mode table (``_mode_table``), shape
        (points, 2 (m+1)): one row of f and of the result per point."""
        m = self.m_points
        modes, size, weighted = table
        scale = np.max(np.abs(f).reshape(len(f), 2, m + 1) * size, axis=2)
        _check_closure(f[:, ::m + 1, None] * modes[:, :, 0],
                       f[:, m::m + 1, None] * modes[:, :, -1], scale,
                       [f"{what}_{a} contour" for a in (1, 2)])
        return np.concatenate(
            [f[:, :m] @ weighted[0].T, f[:, m + 1:-1] @ weighted[1].T], axis=1)

    def u_moments(self) -> tuple:
        """The U^kappa moments of ``TorusMoments._u_moments``, E of the y
        contours and Ebar of the x contours, by quadrature."""
        kap = self.moments.kappa
        return tuple(self._moments(table, np.exp(
            sign * kap * _nodes(cs)[1])[None], "U^kappa").reshape(2, -1)
            for cs, table, sign in ((self.y, self._y_modes, -1.0),
                                    (self.x, self._x_modes_2n, 1.0)))

    def g_matrix(self) -> np.ndarray:
        """G by its definition, the x-contour moment of h: the Taylor rows
        h at the nodes of both x contours, each column integrated."""
        mom = self.moments
        nodes, log_a = _nodes(self.x)
        h = mom.taylor_rows(nodes, log_a, nodes[:0], log_a[:0])[0]
        return as_complex_matrix(
            mom._pref[:, None] * self._moments(self._x_modes, h.T, "G").T,
            "moment matrix G")

    def h_matrix(self, xs, log_a_xs=None) -> np.ndarray:
        """Rows (h_1(k,x), h_2(k,x)), k = 1..N, one per point of xs, by
        quadrature of S_kappa; log A is continued unless supplied."""
        mom = self.moments
        f = s_kappa_grid(mom, xs, mom.log_a(xs, log_a_xs), *_nodes(self.y))
        return mom._pref * self._moments(self._y_modes, f, "h")

    def hbar_matrix(self, ys, log_a_ys=None) -> np.ndarray:
        """Rows (hbar_1(k,y), hbar_2(k,y)), k = 1..N, one per point of ys."""
        mom = self.moments
        f = s_kappa_grid(mom, *_nodes(self.x), ys, mom.log_a(ys, log_a_ys))
        return mom._pref * self._moments(self._x_modes, f.T, "hbar")
