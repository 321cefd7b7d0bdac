"""The two names the repository benchmark still looks up here.

``perfbench/session.py`` records ``resolve_backend("auto")`` as the
``lp_backend`` of its provenance (and drops the HiGHS-core metrics unless
it reads ``"scipy"``), and ``perfbench/layers.py`` wraps
``_ChunkModel.solve`` as the κ_R stack's per-chunk LP call.  Both now
live in :mod:`repro.utils.lp`: ``_ChunkModel`` is
:class:`~repro.utils.lp.PersistentStackSolver`, whose :meth:`solve` runs
one chunk.  Nothing in the package imports this module; it goes once the
benchmark looks these up in :mod:`repro.utils.lp`.
"""

from __future__ import annotations

from repro.utils.lp import PersistentStackSolver as _ChunkModel
from repro.utils.lp import highs_core

__all__ = ["BACKENDS", "resolve_backend"]

#: Recognised backend requests (``resolve_backend`` maps them to an
#: effective backend in ``("highs", "scipy")``).
BACKENDS = ("auto", "highs", "scipy")


def resolve_backend(backend: str = "auto") -> str:
    """Map a backend request to the effective backend name.

    Args:
        backend: ``"auto"``, ``"highs"`` or ``"scipy"``.

    Returns:
        ``"highs"`` (warm) for an explicit ``"highs"`` request, else
        ``"scipy"`` (cold).

    Raises:
        ValueError: On names outside :data:`BACKENDS`.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"lp backend must be one of {BACKENDS}, got {backend!r}"
        )
    if backend == "highs" and highs_core() is not None:
        return "highs"
    return "scipy"
