"""The shipped sessions' reports, byte for byte, against a stored snapshot,
their invariants under a rescaled variable, and the digests of the reports
under seeded coordinate changes (``scripts/report_digest.py``) against
``tests/data/report_digests.txt``.

The snapshot is the ``--json`` report of each session with every
``time_ms`` removed, with and without ``--audit``: the shipped sessions in
``sessions/``, and in ``tests/data/sessions/`` the weighted and F_p
sessions (the Fermat cubic threefold over Q, the cubic fourfold, E8
threefold and E7 surface over F_32003).  The E8 and E7 sessions present modules whose first differential
has columns of unequal degrees.  Rewrite the snapshots after a deliberate
change of output with ``PYTHONPATH=src python3 tests/test_golden_reports.py``,
and the digests with ``PYTHONPATH=src python3 scripts/report_digest.py --seeds
0 3 5 7 > tests/data/report_digests.txt``.
"""

import json
import re
import runpy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thetacas import FieldSpec
from thetacas.cli import run_session

ROOT = Path(__file__).resolve().parent.parent
SESSIONS = ROOT / "sessions"
DATA = Path(__file__).resolve().parent / "data"
SNAPSHOT = DATA / "golden_reports"
NAMES = ("node", "a1_surface", "quadric")
WEIGHTED_NAMES = ("cubic_threefold", "fp_cubic_fourfold", "fp_e8_threefold", "fp_e7_surface")


def session_path(name: str) -> Path:
    return (SESSIONS if name in NAMES else DATA / "sessions") / f"{name}.json"


def seeded_sessions(seed: int) -> dict:
    """The seven sessions of NAMES and WEIGHTED_NAMES by name, as
    scripts/report_digest.py runs them at the seed."""
    script = runpy.run_path(str(ROOT / "scripts" / "report_digest.py"))
    return {label.split("/")[1]: doc
            for label, doc in script["sessions"](seed, script["perfbench_inputs"]())}


def report_text(name: str, audit: bool = False) -> str:
    """The session's report as ``theta-cas run --json`` writes it, untimed."""
    doc = json.loads(session_path(name).read_text(encoding="utf-8"))
    report, exit_code = run_session(doc, audit=audit)
    if exit_code != 0:
        raise RuntimeError(f"session {name} exited {exit_code}")
    for entry in report["tasks"]:
        entry.pop("time_ms", None)
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", NAMES + WEIGHTED_NAMES)
def test_report_matches_snapshot(name):
    stored = (SNAPSHOT / f"{name}.report.json").read_text(encoding="utf-8")
    assert report_text(name) == stored


@pytest.mark.parametrize("name", NAMES + WEIGHTED_NAMES)
def test_audited_report_matches_snapshot(name):
    """Under ``run --audit`` every Gram and conjecture report computes both
    triangles, so theta's symmetry is checked on each of their pairs; the
    report is the stored one, byte for byte."""
    stored = (SNAPSHOT / f"{name}.report.json").read_text(encoding="utf-8")
    assert report_text(name, audit=True) == stored


# Report keys that hold polynomials (MF and resolution matrices, the MF
# identity with f); every other key is invariant under a graded change of
# coordinates.
COORDINATE_KEYS = ("alpha", "beta", "identity", "matrices")


def _rescaled(doc: dict, var: str) -> dict:
    """The session after var -> 2*var in f, every module and every prime."""
    def move(text):
        return re.sub(rf"\b{var}\b", f"(2*{var})", text)

    out = json.loads(json.dumps(doc))
    out["ring"]["f"] = move(out["ring"]["f"])
    for spec in out["modules"].values():
        if "cyclic" in spec:
            spec["cyclic"] = [move(g) for g in spec["cyclic"]]
        else:
            spec["matrix"] = [[move(e) for e in row] for row in spec["matrix"]]
    for name, gens in out.get("primes", {}).items():
        out["primes"][name] = [move(g) for g in gens]
    return out


def _invariants(report: dict) -> list:
    return [(entry["kind"], {k: v for k, v in entry["result"].items()
                             if k not in COORDINATE_KEYS})
            for entry in report["tasks"]]


@pytest.mark.parametrize("name", NAMES)
def test_rescaled_session_gives_the_same_invariants(name, monkeypatch):
    """x -> 2x makes the lead coefficient of f a non-unit (f = 2*x*y - ...),
    so the Groebner layer divides by it and works with non-integral
    rationals; every theta, Gram, signature, verdict, MF size, c1 class and
    Hilbert numerator is unchanged."""
    inverses = []
    invert = FieldSpec.inv

    def recording_inv(field, a):
        inverses.append(invert(field, a))
        return inverses[-1]

    doc = json.loads((SESSIONS / f"{name}.json").read_text(encoding="utf-8"))
    plain, plain_code = run_session(doc)
    monkeypatch.setattr(FieldSpec, "inv", recording_inv)
    scaled, scaled_code = run_session(_rescaled(doc, "x"))
    assert plain_code == scaled_code == 0
    assert _invariants(scaled) == _invariants(plain)
    assert any(type(q) is Fraction and q.denominator > 1 for q in inverses)


def test_seeded_report_digests_match_the_record():
    """The reports of the ten sessions of scripts/report_digest.py, as
    written and after the graded coordinate changes of seeds 3, 5 and 7,
    hash to the digests recorded in tests/data/report_digests.txt.  The
    script is run from its source with its own functions; it leaves no
    bytecode behind, in scripts/ or in the perfbench/ it loads inputs.py
    from, no inputs module in sys.modules, and sys.dont_write_bytecode as
    it was."""
    caches = [ROOT / "scripts" / "__pycache__", ROOT / "perfbench" / "__pycache__"]
    before = [sorted(c.iterdir()) if c.is_dir() else None for c in caches]
    flag, loaded = sys.dont_write_bytecode, "inputs" in sys.modules
    script = runpy.run_path(str(ROOT / "scripts" / "report_digest.py"))
    inputs = script["perfbench_inputs"]()
    assert sys.dont_write_bytecode is flag
    assert ("inputs" in sys.modules) is loaded
    lines = [f"{seed}\t{label}\t{script['digest'](doc)}"
             for seed in (0, 3, 5, 7) for label, doc in script["sessions"](seed, inputs)]
    assert lines == (DATA / "report_digests.txt").read_text(encoding="utf-8").splitlines()
    assert [sorted(c.iterdir()) if c.is_dir() else None for c in caches] == before


if __name__ == "__main__":
    SNAPSHOT.mkdir(parents=True, exist_ok=True)
    for name in NAMES + WEIGHTED_NAMES:
        (SNAPSHOT / f"{name}.report.json").write_text(report_text(name), encoding="utf-8")
        print(f"wrote {SNAPSHOT / name}.report.json")
