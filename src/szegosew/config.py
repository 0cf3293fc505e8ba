"""Fixed numerical constants of the whole pipeline.

The truncation order N and the quadrature count M are arguments of the
contexts, defaulting to the constants below; no value of the pipeline
reads M.  The tolerances are fixed:
each is read where its check is made.  The two gates of a dense solve,
``CONDITION_THRESHOLD`` and ``SOLVE_RESIDUAL_TOL``, live in ``numerics``.
"""

DEFAULT_ORDER = 16  # moment-matrix truncation order N
# M: nodes per contour of oracle.TorusQuadrature; a torus context carries
# it for the benchmark and two quadrature shims, and no value reads it
DEFAULT_QUAD_POINTS = 64

THETA_TOL = 1e-14  # absolute tail bound of theta summation boxes
SERIES_TOL = 1e-12  # tail bound of q-series (P1 oracle, Eisenstein)
POLE_GUARD = 1e-8  # least distance to kernel poles and lattice points
RESONANCE_GUARD = 1e-13  # least magnitude of twisted-series denominators
BLOCK_ENTRIES = 1 << 16  # most entries of one temporary of a point-wise sum
