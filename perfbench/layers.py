"""Per-layer timing measured from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer inside the
benchmark's own process and records calls and busy time.  No file of the
program changes: a wrapper replaces the binding each caller actually looks
up at call time.  Callers bind names at import (``from scipy.optimize import
linprog`` in ``repro.utils.lp`` and ``repro.controllers.rmpc``), so a
function is replaced in *every* loaded module that holds it, and a method is
replaced on its class.  :meth:`LayerTrace.uninstall` restores the originals.

Two modes:

* ``timing=False`` installs only the LP call counters (no clock reads), which
  the correctness gate needs on every run: a closed-form workload must make
  zero LP calls in its timed section.
* ``timing=True`` installs every wrapper below and reads the clock around
  each call.

Layers and the keys they record (``seconds`` / ``counts``):

==========================  =============================================
synthesis                   ``builder`` (every ``build_case_study`` call),
                            ``builder.synth`` (calls that synthesised),
                            ``rmpc_invariant_set``, ``maximal_rpi``,
                            ``strengthened_safe_set``
geometry                    ``remove_redundancies`` (+ ``rows_in``/``rows_out``)
LP                          ``lp.linprog`` (scipy ``linprog`` and the
                            persistent-HiGHS chunk solve; ``lp.calls.synthesis``
                            / ``lp.calls.episode`` split by nesting under the
                            builder), ``lp.core`` (scipy's ``_Highs.run``)
RMPC                        ``rmpc.solve_batch`` (+ ``rmpc.batch_rows``)
engine                      ``paired_evaluation``
persistence                 ``store.get`` (+ ``store.hits``), ``store.put``
HTTP client                 ``client.submit``, ``client.status``,
                            ``client.result``
==========================  =============================================

The recorders assume one thread drives the wrapped layers at a time, which
holds for the benchmark: sweeps run with ``jobs=1`` and the service executes
jobs on a single executor thread.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

_CORE_TARGET = "scipy.optimize._highspy._core._Highs.run"
_PERSISTENT_TARGET = "repro.utils.lp_backends._ChunkModel.solve"


def _core_class():
    """The HiGHS core class scipy's ``linprog`` drives, or ``None``."""
    try:
        from scipy.optimize._highspy import _core
    except ImportError:
        return None
    cls = getattr(_core, "_Highs", None)
    if cls is None or not hasattr(cls, "run"):
        return None
    return cls


class LayerTrace:
    """Calls and busy seconds per layer, from wrapped entry points."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(float)
        #: Wrap targets that were not found (reported, never faked as 0).
        self.missing = []
        #: Human-readable list of the bindings that were replaced.
        self.patched = []
        self._restore = []
        self._builder_depth = 0
        self._synth_marks = 0
        self._redundancy_depth = 0
        self.timing = False

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, timing: bool = True) -> "LayerTrace":
        """Replace the layer entry points with recording wrappers."""
        self.timing = timing
        import scipy.optimize

        import repro.experiments.runner  # noqa: F401 - bind the engine names
        import repro.scenarios.builder as builder
        from repro.controllers.rmpc import RobustMPC
        from repro.geometry.hpolytope import HPolytope

        linprog = scipy.optimize.linprog
        self._patch_function(linprog, self._lp_wrapper(linprog, timing))
        # With highspy importable, ``lp_backend="auto"`` sends stacked RMPC
        # solves through the persistent solver, which never calls linprog.
        # Its per-chunk solve is an LP call too, so the zero-LP gate sees it.
        try:
            from repro.utils.lp_backends import _ChunkModel
        except ImportError:
            self.missing.append(_PERSISTENT_TARGET)
        else:
            self._patch_method(
                _ChunkModel, "solve", lambda fn: self._lp_wrapper(fn, timing)
            )
        core = _core_class()
        if core is None:
            self.missing.append(_CORE_TARGET)
        else:
            self._patch_attr(
                core, "run", self._counted(core.run, "lp.core", timing),
                _CORE_TARGET,
            )
        if not timing:
            return self

        self._patch_function(
            builder.build_case_study,
            self._builder_wrapper(builder.build_case_study),
        )
        for name in ("rmpc_invariant_set", "maximal_rpi",
                     "strengthened_safe_set"):
            original = getattr(builder, name, None)
            if original is None:
                self.missing.append(f"repro.scenarios.builder.{name}")
                continue
            # Also replaces the other bindings of the same function, e.g.
            # the terminal-set ``maximal_rpi`` RobustMPC looks up.
            self._patch_function(original, self._stage_wrapper(original, name))

        self._patch_method(
            HPolytope, "remove_redundancies", self._redundancy_wrapper
        )
        self._patch_method(RobustMPC, "solve_batch", self._batch_wrapper)
        evaluation = sys.modules["repro.framework.evaluation"]
        paired = getattr(evaluation, "paired_evaluation", None)
        if paired is None:
            self.missing.append(
                "repro.framework.evaluation.paired_evaluation"
            )
        else:
            self._patch_function(
                paired, self._counted(paired, "paired_evaluation", True)
            )
        self._install_service()
        return self

    def _install_service(self) -> None:
        try:
            from repro.service.client import ServiceClient
            from repro.service.store import ResultStore
        except ImportError:
            self.missing.append("repro.service")
            return
        # SweepCheckpoint.load looks records up through get_with_reason
        # (ResultStore.get delegates to it too), so that is the read path.
        self._patch_method(ResultStore, "get_with_reason", self._get_wrapper)
        self._patch_method(
            ResultStore, "put",
            lambda fn: self._counted(fn, "store.put", True),
        )
        for name in ("submit", "status", "result"):
            self._patch_method(
                ServiceClient, name,
                lambda fn, key=f"client.{name}": self._counted(fn, key, True),
            )

    def uninstall(self) -> None:
        """Restore every replaced binding (reverse order)."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self.patched.clear()

    def reset(self) -> None:
        """Zero the recorded numbers (the wrappers stay installed)."""
        self.seconds.clear()
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    # ------------------------------------------------------------------
    # Patching helpers
    # ------------------------------------------------------------------
    def _patch_attr(self, owner, name, wrapper, label) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)
        self.patched.append(label)

    def _patch_function(self, original, wrapper) -> None:
        """Replace ``original`` in every loaded module that binds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name.startswith("repro")
                or module_name == "scipy.optimize"
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch_attr(
                        module, attr, wrapper, f"{module_name}.{attr}"
                    )

    def _patch_method(self, cls, name, make_wrapper) -> None:
        original = cls.__dict__.get(name)
        label = f"{cls.__module__}.{cls.__qualname__}.{name}"
        if original is None:
            self.missing.append(label)
            return
        self._patch_attr(cls, name, make_wrapper(original), label)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _counted(self, fn, key, timing):
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        if not timing:
            @functools.wraps(fn)
            def count_only(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)

            return count_only

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[key] += clock() - start
                counts[key] += 1

        return timed

    def _lp_wrapper(self, fn, timing):
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        @functools.wraps(fn)
        def linprog(*args, **kwargs):
            nested = "synthesis" if self._builder_depth else "episode"
            counts[f"lp.calls.{nested}"] += 1
            if not timing:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds["lp.linprog"] += clock() - start

        return linprog

    def _builder_wrapper(self, fn):
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        @functools.wraps(fn)
        def build_case_study(*args, **kwargs):
            marks = self._synth_marks
            self._builder_depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self._builder_depth -= 1
                seconds["builder"] += elapsed
                counts["builder"] += 1
                if self._synth_marks != marks:
                    seconds["builder.synth"] += elapsed
                    counts["builder.synth"] += 1

        return build_case_study

    def _stage_wrapper(self, fn, key):
        timed = self._counted(fn, key, True)

        @functools.wraps(fn)
        def stage(*args, **kwargs):
            self._synth_marks += 1
            return timed(*args, **kwargs)

        return stage

    def _redundancy_wrapper(self, fn):
        seconds, counts, clock = self.seconds, self.counts, time.perf_counter

        @functools.wraps(fn)
        def remove_redundancies(polytope, *args, **kwargs):
            if self._redundancy_depth:
                return fn(polytope, *args, **kwargs)
            self._redundancy_depth += 1
            start = clock()
            try:
                result = fn(polytope, *args, **kwargs)
            finally:
                seconds["remove_redundancies"] += clock() - start
                counts["remove_redundancies"] += 1
                self._redundancy_depth -= 1
            counts["rows_in"] += polytope.H.shape[0]
            counts["rows_out"] += result.H.shape[0]
            return result

        return remove_redundancies

    def _batch_wrapper(self, fn):
        timed = self._counted(fn, "rmpc.solve_batch", True)
        counts = self.counts

        @functools.wraps(fn)
        def solve_batch(controller, states, *args, **kwargs):
            rows = getattr(states, "shape", None)
            counts["rmpc.batch_rows"] += (
                rows[0] if rows and len(rows) == 2 else 1
            )
            return timed(controller, states, *args, **kwargs)

        return solve_batch

    def _get_wrapper(self, fn):
        timed = self._counted(fn, "store.get", True)
        counts = self.counts

        @functools.wraps(fn)
        def get_with_reason(*args, **kwargs):
            cell, reason = timed(*args, **kwargs)
            if cell is not None:
                counts["store.hits"] += 1
            return cell, reason

        return get_with_reason
