"""isospec benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload iso_queries --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The command checks the oracle against
hand-derived values, times the workload's set-up in SETUPS fresh interpreters
(the median is `setup_s`), then lets the last of them run the workload for
--seconds of operation time while every output is checked against the oracle.
The last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run with --trace 1).  A record of the run, and with
--trace 1 the span dump, are written under perfbench/out/.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUPS = 5
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import oracle  # noqa: E402
import workloads  # noqa: E402


class WorkerFailed(Exception):
    pass


def start_worker(args, workdir, setup_only, deadline):
    """Start a worker; return (process, seconds from start to READY)."""
    cmd = [
        sys.executable, "-S", os.path.join(HERE, "worker.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), workdir,
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 0.0))
    line = proc.stdout.readline() if ready else ""
    setup = time.perf_counter() - start
    if line.strip() != "READY":
        stop(proc)
        raise WorkerFailed(f"worker did not finish its set-up (exit code {proc.returncode})")
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish_worker(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise WorkerFailed("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return out


def measure(args, workdir):
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            proc, setup = start_worker(args, workdir, True, deadline)
            finish_worker(proc, deadline)
            setups.append(setup)
    proc, setup = start_worker(args, workdir, False, deadline)
    setups.append(setup)
    lines = finish_worker(proc, deadline).strip().splitlines()
    if not lines:
        raise WorkerFailed("worker printed no result")
    return setups, json.loads(lines[-1])


def end_to_end(durations, setups, peak_rss_kb):
    return {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(durations), "ms"),
        "op_p90_ms": (1000.0 * statistics.quantiles(durations, n=10)[8], "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer_unit(name):
    if name.endswith("_per_ms"):
        return "1/ms"
    if name.endswith("_ms"):
        return "ms/op"
    return "count/op"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isdir(os.path.join(ROOT, "src", "isospec")):
        print(f"error: no program to measure at {os.path.join(ROOT, 'src', 'isospec')}", file=sys.stderr)
        return 2
    try:
        oracle.self_test()
    except AssertionError as exc:
        print(f"error: oracle self-test failed: {exc}", file=sys.stderr)
        return 1

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == workloads.IsoQueries.name:
            workloads.IsoQueries(args.seed, workdir).fixed_documents()
        setups, result = measure(args, workdir)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    durations = result["durations"]
    for message in result["run_errors"] + result["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    if args.trace:
        metrics = {name: (value, per_layer_unit(name)) for name, value in result["per_layer"].items()}
    else:
        metrics = end_to_end(durations, setups, result["peak_rss_kb"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": result["rounds"], "ops": len(durations), "op_seconds": sum(durations),
        "setups_s": setups, "failed": result["failed"], "errors": result["errors"],
        "run_errors": result["run_errors"], "gc_collections": result["gc_collections"],
        "layer_shares": result.get("layer_shares"),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["run_errors"],
        "attempted": len(durations),
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
