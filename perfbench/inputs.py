"""Seeded inputs for the benchmark workloads.

Every input is drawn from a ``numpy.random.Generator`` seeded by the
benchmark, so the same seed gives the same inputs and the library sees
only the generated values.  Distances to the period lattice
``2 pi i (Z tau + Z)`` are computed here by brute force, independently of
``specialfn.lattice_distance`` (which checks only the corners of one
lattice cell and overshoots for skewed tau).

Domains:

* tau: |Re tau| <= 1, 0.7 <= Im tau <= 1.5 (moderately skewed);
* twists: alpha in (-0.4, 0.4), so phi = -exp(2 pi i alpha) stays away
  from 1 and no twist is trivial or has kappa = -1/2; beta free;
* epsilon and rho: a fraction of their sewing-domain bound with a random
  phase;
* points: clear of lattice points, excised disks and sewing contours by
  margins computed from the brute-force distances.

A value the library rejects is not redrawn: the workloads count it as a
failed operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
TWO_PI_I = 2j * math.pi

# Margins mirror the library's geometry constants (epsilon.RADIUS_FACTOR,
# rho.X_RADIUS_FACTOR) and the clearance the verify suites use.
RADIUS_FACTOR = 0.45
X_RADIUS_FACTOR = 1.25
RHO_CLEARANCE = 1.8 * X_RADIUS_FACTOR
MIN_SEPARATION = 0.25


def lattice_distance(z: complex, tau: complex) -> float:
    """Exact distance from z to 2 pi i (Z tau + Z), by enumeration.

    For a fixed row m the nearest n follows from the imaginary part; rows
    are scanned outward until the real-part lower bound exceeds the best
    distance found.
    """
    z = complex(z)
    tau = complex(tau)
    step = TWO_PI * tau.imag            # |Re| spacing between rows
    m0 = math.floor(-z.real / step)
    best = math.inf
    for direction in (0, 1):
        m = m0 if direction == 0 else m0 + 1
        while True:
            rem = z - TWO_PI_I * m * tau
            if abs(rem.real) >= best:
                break
            n0 = math.floor(rem.imag / TWO_PI)
            for n in (n0, n0 + 1):
                best = min(best, abs(rem - TWO_PI_I * n))
            m = m - 1 if direction == 0 else m + 1
    return best


def min_lattice_length(tau: complex) -> float:
    """Shortest nonzero vector of 2 pi i (Z tau + Z), by enumeration."""
    tau = complex(tau)
    span = int(math.ceil(2.0 / tau.imag)) + 2
    best = math.inf
    for m in range(-span, span + 1):
        for n in range(-span, span + 1):
            if m or n:
                best = min(best, TWO_PI * abs(m * tau + n))
    return best


def draw_tau(rng: np.random.Generator) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(0.7, 1.5))


def draw_twist(rng: np.random.Generator) -> tuple[float, float]:
    return float(rng.uniform(-0.4, 0.4)), float(rng.uniform(-0.5, 0.5))


def draw_phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(1j * rng.uniform(0.0, TWO_PI)))


def torus_point(rng: np.random.Generator, tau: complex) -> complex:
    """Point 2 pi i (u + v tau) with (u, v) away from the cell corners."""
    u, v = rng.uniform(0.1, 0.9, size=2)
    return complex(TWO_PI_I * (u + v * tau))


# ----------------------------------------------------------------------
# two-tori (epsilon) scheme
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EpsConfig:
    tau1: complex
    tau2: complex
    epsilon: complex
    tw1: tuple
    tw2: tuple


def draw_eps_config(rng: np.random.Generator) -> EpsConfig:
    tau1, tau2 = draw_tau(rng), draw_tau(rng)
    bound = 0.25 * min_lattice_length(tau1) * min_lattice_length(tau2)
    eps = rng.uniform(0.01, 0.08) * bound * draw_phase(rng)
    return EpsConfig(tau1, tau2, complex(eps), draw_twist(rng), draw_twist(rng))


def eps_points(rng: np.random.Generator, cfg: EpsConfig, which: int,
               count: int, avoid=()) -> list:
    """Points on torus `which`, clear of the excised disk and of `avoid`.

    `avoid` holds (which, z) points that the new ones must stay
    MIN_SEPARATION away from on the same torus.
    """
    tau = cfg.tau1 if which == 1 else cfg.tau2
    other = cfg.tau2 if which == 1 else cfg.tau1
    excised = abs(cfg.epsilon) / (RADIUS_FACTOR * min_lattice_length(other))
    clear = max(2.0 * excised, MIN_SEPARATION)
    near = [z for a, z in avoid if a == which]
    out = []
    while len(out) < count:
        z = torus_point(rng, tau)
        if lattice_distance(z, tau) <= clear:
            continue
        if any(lattice_distance(z - p, tau) < MIN_SEPARATION for p in near):
            continue
        out.append((which, z))
    return out


# Label combinations (a, b) of a point pair: torus labels for eps, puncture
# sides for rho, point sets for the sphere grid.
LABEL_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


def eps_label_pairs(rng: np.random.Generator, cfg: EpsConfig) -> list:
    """One (x, y) pair per torus-label combination."""
    pairs = []
    for a, b in LABEL_PAIRS:
        x = eps_points(rng, cfg, a, 1)[0]
        y = eps_points(rng, cfg, b, 1, avoid=[x])[0]
        pairs.append((x, y))
    return pairs


# ----------------------------------------------------------------------
# self-sewn torus (rho) scheme
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RhoConfig:
    tau: complex
    w: complex
    rho: complex
    tw1: tuple
    handle: tuple

    @property
    def contour_radius(self) -> float:
        # geometric mean of the annulus radii, sqrt((|rho|/r) r)
        return math.sqrt(abs(self.rho))


def draw_rho_config(rng: np.random.Generator) -> RhoConfig:
    tau = draw_tau(rng)
    u, v = rng.uniform(0.2, 0.8, size=2)
    w = complex(TWO_PI_I * (u + v * tau))
    dist = lattice_distance(w, tau)
    r = RADIUS_FACTOR * min(min_lattice_length(tau), dist)
    bound = min(r * r, (dist / 2.0) ** 2)
    rho = rng.uniform(0.02, 0.08) * bound * draw_phase(rng)
    return RhoConfig(tau, w, complex(rho), draw_twist(rng), draw_twist(rng))


def rho_points(rng: np.random.Generator, cfg: RhoConfig, label: int,
               count: int, avoid=()) -> list:
    """Points nearer puncture `label` (1: at 0, 2: at w) than the other.

    Each point keeps RHO_CLEARANCE contour radii from both punctures and
    MIN_SEPARATION from every point in `avoid`.
    """
    margin = RHO_CLEARANCE * cfg.contour_radius
    out = []
    while len(out) < count:
        z = torus_point(rng, cfg.tau)
        d0 = lattice_distance(z, cfg.tau)
        dw = lattice_distance(z - cfg.w, cfg.tau)
        if min(d0, dw) <= margin or (1 if d0 < dw else 2) != label:
            continue
        if any(lattice_distance(z - p, cfg.tau) < MIN_SEPARATION
               for p in avoid):
            continue
        out.append(z)
    return out


# ----------------------------------------------------------------------
# sphere self-sewing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SphereConfig:
    q: complex
    handle: tuple


def draw_sphere_config(rng: np.random.Generator) -> SphereConfig:
    q = rng.uniform(0.03, 0.15) * draw_phase(rng)
    return SphereConfig(complex(q), draw_twist(rng))


X_BAND = (-0.62, -0.52)
Y_BAND = (-0.48, -0.40)


def sphere_log_points(rng: np.random.Generator, cfg: SphereConfig,
                      count: int, band) -> list:
    """Log-coordinates in a radial band of the sewing annulus.

    Real parts lie in `band` times log(1/|q|), near the middle of the
    annulus, so both moment expansions converge at comparable rates.
    First points come from X_BAND and second points from Y_BAND: the
    exact q-series the check compares with converges only for
    |q| < |x/y| < 1 and raises ConvergenceError near |x| = |y|.
    """
    big_l = -math.log(abs(cfg.q))
    return [complex(rng.uniform(*band) * big_l, rng.uniform(-math.pi, math.pi))
            for _ in range(count)]


# ----------------------------------------------------------------------
# pinned configurations of the verify suites
# ----------------------------------------------------------------------

def pinned_eps() -> tuple[EpsConfig, list]:
    """The two-tori configuration and first four pairs of the verify suites."""
    tau1, tau2 = 0.3 + 1.0j, 0.1 + 1.2j
    bound = 0.25 * min_lattice_length(tau1) * min_lattice_length(tau2)
    cfg = EpsConfig(tau1, tau2, complex(0.02 * bound * np.exp(0.5j)),
                    (0.17, 0.38), (0.07, -0.29))
    coords = [(0.23, 0.31, 0.67, 0.52), (0.41, 0.18, 0.33, 0.61),
              (0.72, 0.44, 0.15, 0.73), (0.58, 0.27, 0.19, 0.66)]
    pairs = []
    for (a, b), (u1, v1, u2, v2) in zip(LABEL_PAIRS, coords):
        ta = tau1 if a == 1 else tau2
        tb = tau1 if b == 1 else tau2
        pairs.append(((a, complex(TWO_PI_I * (u1 + v1 * ta))),
                      (b, complex(TWO_PI_I * (u2 + v2 * tb)))))
    return cfg, pairs


def pinned_rho() -> tuple[RhoConfig, list]:
    """The self-sewn torus configuration of the verify suites, two pairs."""
    tau = 0.2 + 1.1j
    w = complex(TWO_PI_I * (0.31 + 0.27 * tau))
    rho = 0.05 * (lattice_distance(w, tau) / 2.0) ** 2 * np.exp(0.6j)
    cfg = RhoConfig(tau, w, complex(rho), (0.17, 0.38), (0.1, -0.22))
    # first two points of the verify suites' low-discrepancy sequence that
    # clear the contours, recomputed with the brute-force distance
    margin = X_RADIUS_FACTOR * 1.8 * cfg.contour_radius
    pairs = []
    for i in range(400):
        u1 = 0.05 + ((0.09 + 0.3819660112501051 * i) % 1.0) * 0.9
        v1 = 0.05 + ((0.53 + 0.6180339887498949 * i) % 1.0) * 0.9
        u2 = 0.05 + ((0.61 + 0.2548776662466927 * i) % 1.0) * 0.9
        v2 = 0.05 + ((0.12 + 0.7548776662466927 * i) % 1.0) * 0.9
        x = complex(TWO_PI_I * (u1 + v1 * tau))
        y = complex(TWO_PI_I * (u2 + v2 * tau)) + w

        def clear(z):
            return min(lattice_distance(z, tau),
                       lattice_distance(z - w, tau)) > margin
        if clear(x) and clear(y) and lattice_distance(x - y, tau) > 0.4:
            pairs.append((x, y))
        if len(pairs) == 2:
            return cfg, pairs
    raise RuntimeError("pinned self-sewn torus pairs not found")


def pinned_spheres() -> list[tuple[SphereConfig, list]]:
    """The four sphere configurations of the verify suites, four pairs each."""
    coords = [(-0.55, 0.8, -0.45, 2.1), (-0.62, -1.3, -0.40, 0.4),
              (-0.50, 2.8, -0.52, -2.0), (-0.58, 0.1, -0.47, 1.2)]
    out = []
    for lam, theta in ((0.25, -np.exp(0.3j)), (0.6, -1.0 + 0.0j)):
        # HandleTwist.from_multipliers(theta, e^{2 pi i lam})
        alpha = float(np.angle(-np.exp(TWO_PI_I * lam)) / TWO_PI)
        beta = float(-np.angle(-theta) / TWO_PI)
        for qabs in (0.05, 0.15):
            cfg = SphereConfig(complex(qabs * np.exp(0.7j)), (alpha, beta))
            big_l = -math.log(qabs)
            pairs = [(sx * big_l + 1j * tx, sy * big_l + 1j * ty)
                     for sx, tx, sy, ty in coords]
            out.append((cfg, pairs))
    return out
