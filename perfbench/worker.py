"""One benchmark process: set up one workload, then run it as a closed loop.

Started by run.py in a fresh interpreter from the root of the checkout:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR [--setup-only]

It imports the program from ./src, does the workload's set-up through the
program and prints READY, which is where run.py stops its set-up clock.  With
--setup-only it exits there.  Otherwise it builds the oracle's side (untimed),
runs whole rounds of operations one at a time until the operations' own time
reaches SECONDS, checks every output against the oracle between operations
(untimed), and prints one JSON line with the durations and counts.
"""

import gc
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import isospec.cli  # noqa: E402  (the program; fails in a checkout without src/)
from isospec import (  # noqa: E402
    chains, corpus, documents, graphs, homomorphism, isoperimetry, reports, spectral,
)

import workloads  # noqa: E402

MAX_ERRORS = 5


def main(argv):
    name, seed, seconds, trace, workdir = argv[:5]
    seconds, trace = float(seconds), trace == "1"
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    program = SimpleNamespace(
        cli=isospec.cli, documents=documents, chains=chains, corpus=corpus, graphs=graphs,
        homomorphism=homomorphism, isoperimetry=isoperimetry, reports=reports, spectral=spectral,
    )
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup(program)
    print("READY", flush=True)
    if "--setup-only" in argv:
        return 0

    run_errors = workload.prepare()
    in_op = [False]
    collections = [0]

    def on_gc(phase, info):
        if phase == "start" and in_op[0]:
            collections[0] += 1

    gc.callbacks.append(on_gc)
    durations = []
    failed = 0
    errors = []
    op_time = 0.0
    rounds = 0
    while op_time < seconds:
        for op in workload.round(rounds):
            if tracer is not None:
                tracer.op = len(durations)
            in_op[0] = True
            start = time.perf_counter()
            try:
                if tracer is None:
                    out, error = workload.run(op), None
                else:
                    out, error = tracer.span("bench.op", workload.run, op), None
            except Exception:  # an operation that raises is a failed operation
                out, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            in_op[0] = False
            if tracer is not None:
                tracer.op = -1
            durations.append(elapsed)
            op_time += elapsed
            if error is None:
                try:
                    error = workload.check(op, out)
                except Exception:
                    error = "check raised: " + traceback.format_exc(limit=3)
            if error is not None:
                failed += 1
                if len(errors) < MAX_ERRORS:
                    errors.append(f"{op!r}: {error}")
        rounds += 1
    gc.callbacks.remove(on_gc)

    result = {
        "durations": durations,
        "rounds": rounds,
        "failed": failed,
        "errors": errors,
        "run_errors": run_errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "gc_collections": collections[0],
    }
    if tracer is not None:
        op_seconds = sum(durations)
        result["per_layer"] = tracer.metrics(len(durations), collections[0])
        result["layer_shares"] = tracer.layer_shares(op_seconds)
        summary = {
            "workload": name, "seed": seed, "ops": len(durations), "op_seconds": op_seconds,
            "per_layer": result["per_layer"], "layer_shares": result["layer_shares"],
        }
        tracer.dump(os.path.join(os.path.dirname(workdir), f"spans-{name}-{seed}.json.gz"), summary)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
