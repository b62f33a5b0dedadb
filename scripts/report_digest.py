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
import json
import random
import sys
from pathlib import Path

from thetacas.cli import run_session

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "sessions"
PERFBENCH = ROOT / "perfbench"
SHIPPED_NAMES = ("node", "a1_surface", "quadric")

sys.dont_write_bytecode = True  # leave no bytecode cache in perfbench/
sys.path.insert(0, str(PERFBENCH))
from inputs import WORKLOADS, seeded_session  # noqa: E402

sys.path.remove(str(PERFBENCH))


def sessions(seed: int):
    """(label, session document) for every session, moved by the seed."""
    paths = [(f"sessions/{name}", SHIPPED / f"{name}.json") for name in SHIPPED_NAMES]
    paths += [(f"perfbench/{name}", PERFBENCH / "sessions" / f"{name}.json")
              for names in WORKLOADS.values() for name in names]
    for label, path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        if seed:
            doc = seeded_session(doc, random.Random(f"{seed}:{path.stem}"), full=True)
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
    for seed in args.seeds:
        for label, doc in sessions(seed):
            print(f"{seed}\t{label}\t{digest(doc)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
