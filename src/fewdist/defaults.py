"""Defaults and names that the command-line parser shares with the library.
This module imports nothing, so the parser is built without loading numpy
or the modules of commands that are not run."""

DEFAULT_TOL = 1e-9
DEFAULT_TOL_RANK = 1e-8
DEFAULT_TOL_INT = 1e-6
DEFAULT_TOL_RES = 1e-10
DEFAULT_MAX_ITER = 100
DEFAULT_TOL_PSD = 1e-8
DEFAULT_BOX_CAP = 10**7

NAMED_CONSTRUCTIONS = (
    "cross_polytope",
    "simplex",
    "hypercube",
    "e8_roots",
    "pentagon",
    "icosahedron",
)
