"""Szego kernels on sewn Riemann surfaces.

Genus-two Szego kernels are assembled from lower-genus data through two
explicit sewing schemes: joining two tori through an annulus (the
``epsilon`` module) and attaching a handle to a sphere or a torus (the
``rho`` module).  The ``specialfn`` module provides the theta-function and
twisted-Eisenstein substrate, ``modular`` the symmetry-group actions and
invariance residuals, ``verify`` the identity/property suites, and
``cli`` the command-line front end.
"""

from .config import DEFAULT_CONFIG, NumericConfig
from .epsilon import (EpsilonContext, EpsilonModuli, GenusTwoCharacteristicsEps,
                      SurfacePoint, epsilon_bound, szego_genus2_eps)
from .errors import (BranchTrackingError, ConvergenceError, DomainError,
                     ResonanceError, SingularMatrixError, SzegosewError)
from .modular import (EpsGroupElement, RhoGroupElement, act_eps, act_rho,
                      det_residual, invariance_residual)
from .numerics import determinant, lu_solve, tail_estimate
from .rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                  RhoSphereContext, RhoTorusContext, det_i_minus_t_sphere,
                  s_kappa_sphere, s_kappa_torus, szego_genus2_rho,
                  torus_from_sphere)
from .specialfn import (TorusModulus, TwistPair, eisenstein_twisted, p1_series,
                        p1_theta, theta1, theta_char)
from .verify import SUITE_NAMES, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG", "NumericConfig",
    "SzegosewError", "DomainError", "ConvergenceError", "ResonanceError",
    "SingularMatrixError", "BranchTrackingError",
    "TorusModulus", "TwistPair", "theta_char", "theta1",
    "p1_theta", "p1_series", "eisenstein_twisted",
    "EpsilonModuli", "GenusTwoCharacteristicsEps", "SurfacePoint",
    "EpsilonContext", "szego_genus2_eps", "epsilon_bound",
    "HandleTwist", "RhoModuliSphere", "RhoModuliTorus",
    "RhoSphereContext", "RhoTorusContext",
    "s_kappa_sphere", "s_kappa_torus", "torus_from_sphere",
    "det_i_minus_t_sphere", "szego_genus2_rho",
    "EpsGroupElement", "RhoGroupElement", "act_eps", "act_rho",
    "invariance_residual", "det_residual",
    "lu_solve", "determinant", "tail_estimate",
    "SUITE_NAMES", "run_suite", "run_all",
    "__version__",
]
