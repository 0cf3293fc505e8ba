"""Fixed numerical constants of the whole pipeline.

The truncation order N and the quadrature count M are arguments of the
contexts, defaulting to the constants below; M sets only the nodes of the
self-sewn torus's quadrature oracle.  The tolerances are fixed:
each is read where its check is made.  The two gates of a dense solve,
``CONDITION_THRESHOLD`` and ``SOLVE_RESIDUAL_TOL``, live in ``numerics``.
"""

DEFAULT_ORDER = 16  # moment-matrix truncation order N
DEFAULT_QUAD_POINTS = 64  # nodes of the quadrature oracle, per contour (M)

THETA_TOL = 1e-14  # absolute tail bound of theta summation boxes
SERIES_TOL = 1e-12  # tail bound of q-series (P1 oracle, Eisenstein)
POLE_GUARD = 1e-8  # least distance to kernel poles and lattice points
RESONANCE_GUARD = 1e-13  # least magnitude of twisted-series denominators
BLOCK_ENTRIES = 1 << 16  # most entries of one temporary of a point-wise sum
