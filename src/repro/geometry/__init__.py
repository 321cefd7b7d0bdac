"""Polytope geometry kernel.

Everything the set-theoretic side of the paper needs: halfspace polytopes,
Minkowski algebra, projections and support functions.  See
:class:`repro.geometry.HPolytope` for the core type.
"""

from repro.geometry.hpolytope import EmptySetError, HPolytope
from repro.geometry.operations import (
    affine_image,
    affine_preimage,
    box_hull,
    intersection,
    iterated_sum,
    matrix_power_sum,
    minkowski_sum,
    pontryagin_difference,
    support_vector,
)
from repro.geometry.projection import eliminate_variable, project_onto
from repro.geometry.render import ascii_sets, ascii_trajectory

__all__ = [
    "ascii_sets",
    "ascii_trajectory",
    "HPolytope",
    "EmptySetError",
    "minkowski_sum",
    "pontryagin_difference",
    "intersection",
    "affine_preimage",
    "affine_image",
    "iterated_sum",
    "matrix_power_sum",
    "box_hull",
    "support_vector",
    "project_onto",
    "eliminate_variable",
]
