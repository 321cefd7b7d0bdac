"""Standard-library logging wiring for the ``repro`` namespace.

Logger namespace
----------------
Every module logs under ``repro.<package>.<module>`` via the idiomatic
``logging.getLogger(__name__)`` — e.g. ``repro.scenarios.builder``
(certified-set synthesis / cache activity), ``repro.utils.lp``
(persistent-model builds),
``repro.experiments.runner`` (grid-cell progress), and ``repro.cli``.
Attaching a handler to the root ``"repro"`` logger captures all of
them; nothing is emitted by default (the namespace inherits the
root logger's WARNING threshold and has no handler until
:func:`configure_logging` installs one).

The CLI maps its ``-v/--verbose`` count onto this: no flag → WARNING,
``-v`` → INFO (one line per scenario synthesis / cell / backend
decision), ``-vv`` → DEBUG (cache probes, model builds, per-cell shapes).
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

__all__ = ["LOGGER_NAMESPACE", "configure_logging"]

#: Root logger name every ``repro`` module logs beneath.
LOGGER_NAMESPACE = "repro"

_HANDLER: Optional[logging.Handler] = None


def configure_logging(verbosity: int = 0, stream=None) -> logging.Logger:
    """Install (once) a stderr handler on the ``repro`` namespace and
    set its level from a ``-v`` count.

    Args:
        verbosity: 0 → WARNING, 1 → INFO, ≥2 → DEBUG.
        stream: Optional destination (defaults to ``sys.stderr``);
            a later call with a stream re-points the existing handler.

    Returns:
        The configured ``"repro"`` logger.
    """
    global _HANDLER
    if verbosity <= 0:
        level = logging.WARNING
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.DEBUG
    logger = logging.getLogger(LOGGER_NAMESPACE)
    if _HANDLER is None:
        _HANDLER = logging.StreamHandler(stream or sys.stderr)
        _HANDLER.setFormatter(
            logging.Formatter("%(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(_HANDLER)
    elif stream is not None:
        try:
            _HANDLER.setStream(stream)
        except ValueError:
            # setStream flushes the old stream first; it may already be
            # closed (e.g. a captured stderr from an earlier test run).
            _HANDLER.stream = stream
    logger.setLevel(level)
    return logger
