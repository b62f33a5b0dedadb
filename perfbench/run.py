"""thetacas benchmark: cold-session time, set-up time, memory and task
failures per workload, and a per-layer trace taken from outside the program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload golden --seed 1 --seconds 25 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):
  golden      the three shipped sessions, 21 tasks over Q
  cubic_gram  Gram matrix of two lines and k on the Fermat cubic threefold
  fp_resolve  resolutions and matrix factorizations over F_32003

--trace 0 prints the end-to-end metrics.  Set-up time is the median of
several fresh processes, each timed from just before it is started until it
has imported thetacas and loaded and seeded the sessions.  The measuring
process then runs samples in a closed loop with one client until --seconds
have passed and at least a workload's minimum number of samples has run;
wall_s is the median and wall_s_p90 the 90th percentile of the sample
times, and peak_rss_mb is read after the minimum number of samples.  Every
time is in nominal seconds, scaled by the speed of the processor measured
while it ran (see speed.py).  Every sample's answers are checked against
mathematically known values; a wrong answer makes the run fail.  A nonzero
seed scales the variables of the F_p sessions in the timed samples; then
the sessions run once more, untimed, under the seed's full graded change of
coordinates (see inputs.py), their answers are checked and their failed
tasks count in "failed".

--trace 1 prints the per-layer metrics: an untraced process, then two traced
processes, each for a third of --seconds.  Every count must be the same in
every traced sample of both processes, or the run fails.  trace.overhead_s
is the traced minus the untraced median sample time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count session tasks,
and a task that raised or was never reached counts as failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from speed import loop_s, pin_to_one_cpu, scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Samples each measuring process runs at least.  golden needs 100 for a 90th
# percentile with ten samples beyond it; peak_rss_mb is read after this many.
MIN_SAMPLES = {"golden": 100, "cubic_gram": 3, "fp_resolve": 4}
SETUP_PROCESSES = 7
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "wall_s": "s",
    "wall_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "task_ok_ratio": "ratio",
}

PER_LAYER = (
    "ring.mono_key.calls", "ring.poly_mul.calls", "ring.parse.calls",
    "groebner.groebner_basis.calls", "groebner.groebner_basis.s",
    "groebner.groebner_basis.out_vectors", "groebner.groebner_basis.repeat_ratio",
    "groebner.normal_form_vec.calls", "groebner.normal_form_vec.s",
    "groebner.normal_form_vec.zero_ratio",
    "groebner.staircase_count.calls", "groebner.staircase_count.s",
    "groebner.hilbert_numerator.calls", "groebner.hilbert_numerator.s",
    "groebner.self_s",
    "homology.minimal_resolution.calls", "homology.minimal_resolution.s",
    "homology.lifted_basis.calls", "homology.lifted_basis.s",
    "homology.syzygies_over.calls", "homology.syzygies_over.s",
    "homology.complex_homology.calls", "homology.complex_homology.s",
    "homology.tor_length.calls", "homology.tor_length.s",
    "homology.extract_matrix_factorization.calls",
    "homology.extract_matrix_factorization.failed",
    "homology.self_s",
    "pairings.theta.calls", "pairings.theta.s", "pairings.tor_per_theta",
    "pairings.local_length_at_prime.calls", "pairings.local_length_at_prime.s",
    "pairings.self_s",
    "numeq.gram_matrix.calls", "numeq.gram_matrix.s", "numeq.self_s",
    "cli.run_session.s", "cli.build_environment.s", "cli.self_s",
    "trace.overhead_s",
)


def unit_of(name: str) -> str:
    if name.endswith("_ratio") or name == "pairings.tor_per_theta":
        return "ratio"
    if name.endswith((".s", "self_s", "overhead_s")):
        return "s"
    return "count"


class BenchmarkError(Exception):
    pass


def spawn(workload, seed, mode, seconds=0.0, min_samples=1, permuted=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--min-samples", str(min_samples)]
    if permuted:
        cmd.append("--permuted")
    launched = time.monotonic()
    proc = subprocess.run(cmd + ["--launched", repr(launched)], cwd=ROOT,
                          capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def nominal_times(run) -> list:
    k = scale(run["loops"])
    return [k * t for t in run["times"]]


def setup_times(workload, seed) -> list:
    """Nominal set-up seconds of SETUP_PROCESSES fresh processes."""
    spawn(workload, seed, "setup")  # fills the bytecode caches; not timed
    loops, times = [], []
    for _ in range(SETUP_PROCESSES):
        loops += [loop_s() for _ in range(5)]
        times.append(spawn(workload, seed, "setup")["setup_s"])
    k = scale(loops)
    return [k * t for t in times]


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(workload, seed, seconds):
    setups = setup_times(workload, seed)
    run = spawn(workload, seed, "run", seconds, MIN_SAMPLES[workload], permuted=True)
    times = nominal_times(run)
    values = {
        "wall_s": statistics.median(times),
        "wall_s_p90": p90(times),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["rss_kb"] / 1024,
        "task_ok_ratio": 1 - run["failed"] / run["tasks"],
    }
    print(f"{workload} seed {seed}: {len(times)} samples, "
          f"{len(setups)} set-up processes; unscaled median sample "
          f"{statistics.median(run['times']):.4f} s")
    print(f"  task_fail_ratio {run['failed']}/{run['tasks']} = "
          f"{run['failed'] / run['tasks']:.4f}")
    attempted, failed = run["tasks"], run["failed"]
    if "permuted_tasks" in run:
        print(f"  permuted-coordinates pass: {run['permuted_failed']}/"
              f"{run['permuted_tasks']} tasks failed")
        attempted += run["permuted_tasks"]
        failed += run["permuted_failed"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, attempted, failed, run["wrong"]


def per_layer(workload, seed, seconds):
    counters = [name for name in PER_LAYER if unit_of(name) != "s"]
    third = seconds / 3
    plain = spawn(workload, seed, "run", third, 1)
    traced = [spawn(workload, seed, "trace", third, 2), spawn(workload, seed, "trace", third, 1)]
    samples = []
    for run in traced:
        k = scale(run["loops"])
        samples += [{name: v * k if unit_of(name) == "s" else v for name, v in layer.items()}
                    for layer in run["layers"]]
    wrong = plain["wrong"] + [w for t in traced for w in t["wrong"]]
    for name in counters:
        seen = {s[name] for s in samples}
        if len(seen) > 1:
            wrong.append(f"{name} differs between traced samples: {sorted(seen)}")
    values = {name: samples[0][name] if name in counters
              else statistics.median(s[name] for s in samples)
              for name in PER_LAYER if name != "trace.overhead_s"}
    plain_wall = statistics.median(nominal_times(plain))
    traced_wall = statistics.median(t for run in traced for t in nominal_times(run))
    values["trace.overhead_s"] = traced_wall - plain_wall
    print(f"{workload} seed {seed}: {len(plain['times'])} untraced and "
          f"{len(samples)} traced samples in {len(traced)} processes")
    print(f"  wall_s untraced {plain_wall:.4f}, traced {traced_wall:.4f}")
    attempted = plain["tasks"] + sum(t["tasks"] for t in traced)
    failed = plain["failed"] + sum(t["failed"] for t in traced)
    metrics = {name: {"value": values[name], "unit": unit_of(name)} for name in PER_LAYER}
    return metrics, attempted, failed, wrong


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "thetacas" / "__init__.py").is_file():
        print(f"no thetacas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, wrong = measure(args.workload, args.seed, args.seconds)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    for msg in wrong:
        print(f"WRONG: {msg}")
    print(json.dumps({"correct": not wrong, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
