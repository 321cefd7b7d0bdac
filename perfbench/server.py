"""Benchmark-owned launcher of the experiment service.

Starts ``repro.service.api.serve`` over a store directory, the same server
``repro serve`` runs, and prints ``perfbench server on <url>`` on stdout.
With ``--trace`` it first installs the layer wrappers (``layers.py``) in this
process, so server-side store reads and writes, synthesis, the engine and
the LPs are timed where they happen.

Signals from the benchmark session that drives it:

* ``SIGUSR1``: zero the recorded layer numbers (the timed section starts);
  acknowledged by creating ``<stats>.reset``.
* ``SIGTERM``: stop serving, drain the job executor, write ``<stats>``
  (peak RSS, layer numbers, solver counters) and exit 0.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys

from layers import LayerTrace


def _solver_counters() -> dict:
    from repro.observability import metrics

    reg = metrics.registry()
    return {
        "scalar_solves": reg.total("rmpc_solves_total", path="scalar"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from repro.service.api import serve

    trace = LayerTrace()
    if args.trace:
        trace.install(timing=True)
    baseline = _solver_counters()

    def on_reset(signum, frame):
        nonlocal baseline
        trace.reset()
        baseline = _solver_counters()
        with open(args.stats + ".reset", "w"):
            pass

    def on_term(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGUSR1, on_reset)
    signal.signal(signal.SIGTERM, on_term)
    server = serve(args.store)
    print(f"perfbench server on {server.url}", flush=True)
    try:
        server.serve_forever()
    except SystemExit:
        pass
    finally:
        server.close()
        counters = _solver_counters()
        stats = {
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            "layers": trace.snapshot(),
            "missing": trace.missing,
            "counters": {
                name: counters[name] - baseline[name] for name in counters
            },
        }
        with open(args.stats, "w") as handle:
            json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
