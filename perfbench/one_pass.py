"""One benchmark pass in a fresh interpreter.

``run.py`` starts this script once per pass and reads the JSON object it
prints as its last line::

    python3 perfbench/one_pass.py --workload serve-resize --seed 0 \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"

``--t0`` is the system-wide monotonic clock reading taken just before
the interpreter was started, so ``setup_s`` covers interpreter start,
imports and input generation up to the first harness call.  The
reference kernel (``reference.py``, which calls nothing the tracer
wraps) is timed just before each harness call and just after the last,
outside the timed region; ``ref_s`` is the mean of those timings.  With
``--traced`` the pass runs under the span tracer and also reports the
per-layer metrics, writing its spans to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import harnesses
import reference
import verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark pass")
    parser.add_argument("--workload", required=True,
                        choices=harnesses.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--small", action="store_true",
                        help="shortened inputs (tests only)")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tracer = None
    root = harnesses.untraced
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        root = tracer.root
    inputs = harnesses.PREPARE[args.workload](args.seed, args.small)
    setup_s = time.monotonic() - args.t0

    # The reference kernel runs before each harness call, outside
    # ``root``: outside ``run_s`` and, when traced, outside the root span.
    ref_times = []

    def probed_root(fn):
        inner = root(fn)

        def call(*a, **kw):
            ref_times.append(reference.timed())
            return inner(*a, **kw)
        return call

    out = harnesses.RUN[args.workload](inputs, probed_root)
    if tracer is not None:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_times.append(reference.timed())

    record = {
        "setup_s": setup_s,
        "run_s": out.run_s,
        "ref_s": statistics.mean(ref_times),
        "ops": out.ops,
        "peak_rss_mb": peak_rss_mb,
        # Small inputs were never recorded: health checks only.
        "problems": (verify.health(args.workload, out.summary)
                     if args.small else
                     verify.check(args.workload, args.seed, out.summary)),
    }
    if tracer is not None:
        record["layers"] = tracer.metrics(out.trace_bytes)
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
