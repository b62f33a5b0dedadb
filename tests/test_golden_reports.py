"""The shipped sessions' reports, byte for byte, against a stored snapshot.

The snapshot is the ``--json`` report of each session in ``sessions/`` with
every ``time_ms`` removed.  Rewrite it after a deliberate change of output
with ``PYTHONPATH=src python3 tests/test_golden_reports.py``.
"""

import json
from pathlib import Path

import pytest

from thetacas.cli import run_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
SNAPSHOT = Path(__file__).resolve().parent / "data" / "golden_reports"
NAMES = ("node", "a1_surface", "quadric")


def report_text(name: str) -> str:
    """The session's report as ``theta-cas run --json`` writes it, untimed."""
    doc = json.loads((SESSIONS / f"{name}.json").read_text(encoding="utf-8"))
    report, exit_code = run_session(doc)
    if exit_code != 0:
        raise RuntimeError(f"session {name} exited {exit_code}")
    for entry in report["tasks"]:
        entry.pop("time_ms", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", NAMES)
def test_report_matches_snapshot(name):
    stored = (SNAPSHOT / f"{name}.report.json").read_text(encoding="utf-8")
    assert report_text(name) == stored


if __name__ == "__main__":
    SNAPSHOT.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        (SNAPSHOT / f"{name}.report.json").write_text(report_text(name), encoding="utf-8")
        print(f"wrote {SNAPSHOT / name}.report.json")
