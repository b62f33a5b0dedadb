#!/usr/bin/env python3
"""Run the three shipped example sessions and print their reports.

Each session runs with --audit, so every Gram matrix is computed in both
triangles and an asymmetric one fails the session with exit 3.

Usage: python3 scripts/run_golden_sessions.py [--json-dir DIR]
"""

import argparse
import json
import sys
from pathlib import Path

from thetacas.cli import main as cli_main

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", default=None,
                        help="also write one JSON report per session here")
    args = parser.parse_args()
    worst = 0
    for name in ("node.json", "a1_surface.json", "quadric.json"):
        print(f"=== {name} ===")
        argv = ["run", str(SESSIONS / name), "--audit"]
        if args.json_dir:
            out = Path(args.json_dir) / name.replace(".json", ".report.json")
            out.parent.mkdir(parents=True, exist_ok=True)
            argv += ["--json", str(out)]
        worst = max(worst, cli_main(argv))
        print()
    return worst


if __name__ == "__main__":
    sys.exit(main())
