"""One benchmark process: set up, run samples in a closed loop, print one
JSON line.  Started by run.py; see run.py for the modes and what they
measure.

Each sample passes every session of the workload to thetacas.cli.run_session,
one after the other, in this single thread.  run_session builds fresh ring
objects from the document each time, so every sample starts with cold
caches; the benchmark never reads or clears the program's caches.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer
from speed import Probe
from inputs import check_report, load_reference, load_workload

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import thetacas.cli

    where = Path(thetacas.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"imported thetacas from {where}, not from {SRC}")
    return thetacas.cli


def run_sample(cli, docs, reference, probe):
    """Run every session once; return (seconds, tasks, failed, wrong).

    The seconds leave out the time the speed probe took."""
    seconds = 0.0
    tasks = failed = 0
    wrong = []
    for name, doc in docs:
        spent = probe.spent
        start = time.perf_counter()
        report, _code = cli.run_session(doc)
        seconds += time.perf_counter() - start - (probe.spent - spent)
        f, w = check_report(name, report, reference[name])
        tasks += len(reference[name])
        failed += f
        wrong += w
    return seconds, tasks, failed, wrong


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launched", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-samples", type=int, default=1)
    ap.add_argument("--permuted", action="store_true",
                    help="after the timed samples, run the sessions once under "
                         "the seed's full change of coordinates, untimed")
    args = ap.parse_args()

    cli = _import_program()
    docs = load_workload(args.workload, args.seed)
    reference = load_reference()
    out = {"setup_s": time.monotonic() - args.launched}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    recorder = None
    if args.mode == "trace":
        # The speed probe's signal handler can land inside a span; it takes
        # under 1% of the time, which the spans do not leave out.
        recorder = tracer.Recorder()
        tracer.install(recorder)

    times, layers, wrong = [], [], []
    tasks = failed = 0
    rss_kb = None
    probe = Probe()
    probe.start()
    start = time.perf_counter()
    while len(times) < args.min_samples or time.perf_counter() - start < args.seconds:
        if recorder is not None:
            recorder.reset()
        seconds, t, f, w = run_sample(cli, docs, reference, probe)
        times.append(seconds)
        tasks += t
        failed += f
        wrong += w
        if recorder is not None:
            layers.append(tracer.sample_metrics(recorder))
        if len(times) == args.min_samples:
            # Read after a fixed number of samples, so that a faster program
            # running more samples in the same time does not read higher.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe.stop()
    out.update(times=times, loops=probe.loops, tasks=tasks, failed=failed, rss_kb=rss_kb, layers=layers)

    if args.permuted and args.seed:
        permuted = load_workload(args.workload, args.seed, full=True)
        _s, t, f, w = run_sample(cli, permuted, reference, probe)
        out.update(permuted_tasks=t, permuted_failed=f)
        wrong += [f"permuted: {msg}" for msg in w]
    out["wrong"] = wrong[:20]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
