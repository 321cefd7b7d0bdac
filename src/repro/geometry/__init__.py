"""Polytope geometry kernel.

Everything the set-theoretic side of the paper needs: halfspace polytopes,
Minkowski algebra, projections and support functions.  See
:class:`repro.geometry.HPolytope` for the core type.
"""

from repro.geometry.hpolytope import EmptySetError, HPolytope
from repro.geometry.operations import (
    intersection,
    minkowski_sum,
    pontryagin_difference,
)
from repro.geometry.projection import eliminate_variable, project_onto
from repro.geometry.render import ascii_sets

__all__ = [
    "ascii_sets",
    "HPolytope",
    "EmptySetError",
    "minkowski_sum",
    "pontryagin_difference",
    "intersection",
    "project_onto",
    "eliminate_variable",
]
