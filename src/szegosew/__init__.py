"""Szego kernels on sewn Riemann surfaces.

Genus-two Szego kernels are assembled from lower-genus data through two
explicit sewing schemes: joining two tori through an annulus (the
``epsilon`` module) and attaching a handle to a sphere or a torus (the
``rho`` module).  The ``specialfn`` module provides the genus-one theta
stage, from which both schemes read P_k and their Laurent data at the
origin (the Eisenstein E_n included), ``modular`` the symmetry-group
actions and invariance residuals, ``oracle`` the independent routes that
check the pipeline, ``verify`` the identity/property suites, and ``cli``
the command-line front end.
"""

from .epsilon import (EpsilonContext, EpsilonModuli, GenusTwoCharacteristicsEps,
                      SurfacePoint, epsilon_bound)
from .errors import (BranchTrackingError, ConvergenceError, DomainError,
                     ResonanceError, SingularMatrixError, SzegosewError)
from .modular import (EpsGroupElement, RhoGroupElement, act_eps, act_rho,
                      det_residual, invariance_residual)
from .numerics import determinant, lu_solve, tail_estimate
from .oracle import p1_series, theta_char
from .rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                  RhoSphereContext, RhoTorusContext, det_i_minus_t_sphere,
                  s_kappa_sphere, torus_from_sphere)
from .specialfn import (TorusModulus, TwistPair, eisenstein_twisted, p1_theta,
                        theta1)
from .verify import SUITE_NAMES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "SzegosewError", "DomainError", "ConvergenceError", "ResonanceError",
    "SingularMatrixError", "BranchTrackingError",
    "TorusModulus", "TwistPair", "theta_char", "theta1",
    "p1_theta", "p1_series", "eisenstein_twisted",
    "EpsilonModuli", "GenusTwoCharacteristicsEps", "SurfacePoint",
    "EpsilonContext", "epsilon_bound",
    "HandleTwist", "RhoModuliSphere", "RhoModuliTorus",
    "RhoSphereContext", "RhoTorusContext",
    "s_kappa_sphere", "torus_from_sphere",
    "det_i_minus_t_sphere",
    "EpsGroupElement", "RhoGroupElement", "act_eps", "act_rho",
    "invariance_residual", "det_residual",
    "lu_solve", "determinant", "tail_estimate",
    "SUITE_NAMES", "run_suite", "run_all",
    "__version__",
]
