#!/usr/bin/env python3
"""Print one sha256 per session report, with every time_ms removed.

The sessions are the three shipped ones in sessions/ and the benchmark's
seven in perfbench/sessions/.  Seed 0 runs them as written; any other seed
runs them after the benchmark's full graded change of coordinates
(perfbench/inputs.py, imported read-only).  Two checkouts that print the
same lines give byte-identical reports on these inputs; at seed 0 a digest
is that of the session's file in tests/data/golden_reports.

Usage: PYTHONPATH=src python3 scripts/report_digest.py [--seeds 0 3 5 7]
"""

import argparse
import hashlib
import importlib.util
import json
import random
import sys
from pathlib import Path

from thetacas.cli import run_session

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "sessions"
PERFBENCH = ROOT / "perfbench"
SHIPPED_NAMES = ("node", "a1_surface", "quadric")


def perfbench_inputs():
    """perfbench/inputs.py as a module object of its own: no bytecode cache
    is written for it, it is not entered in sys.modules, and
    sys.dont_write_bytecode is left as it was."""
    flag = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("inputs", PERFBENCH / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
    finally:
        sys.dont_write_bytecode = flag
    return inputs


def sessions(seed: int, inputs):
    """(label, session document) for every session, moved by the seed;
    inputs is perfbench_inputs()."""
    paths = [(f"sessions/{name}", SHIPPED / f"{name}.json") for name in SHIPPED_NAMES]
    paths += [(f"perfbench/{name}", PERFBENCH / "sessions" / f"{name}.json")
              for names in inputs.WORKLOADS.values() for name in names]
    for label, path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if seed:
            doc = inputs.seeded_session(doc, random.Random(f"{seed}:{path.stem}"), full=True)
        yield label, doc


def digest(doc: dict) -> str:
    """sha256 of the report as tests/data/golden_reports stores it."""
    report, _exit_code = run_session(doc)
    for entry in report["tasks"]:
        entry.pop("time_ms", None)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0],
                        help="coordinate-change seeds; 0 keeps the sessions as written")
    args = parser.parse_args()
    inputs = perfbench_inputs()
    for seed in args.seeds:
        for label, doc in sessions(seed, inputs):
            print(f"{seed}\t{label}\t{digest(doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
