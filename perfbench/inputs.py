"""Workload inputs: the benchmark's own session documents, the seeded graded
change of coordinates applied to them, and the answer check.

Nothing here imports thetacas.  Polynomials are rewritten at the text level
with a small parser of the benchmark's own, so that a change to the
program's polynomial representation cannot change the inputs.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

HERE = Path(__file__).resolve().parent
SESSIONS = HERE / "sessions"

# Why each workload exists is recorded in BENCHMARK.json; the session files
# hold the inputs and reference.json the answers they must give.
WORKLOADS = {
    "golden": ("node", "a1_surface", "quadric"),
    "cubic_gram": ("cubic_threefold",),
    "fp_resolve": ("fp_cubic_fourfold", "fp_e8_threefold", "fp_e7_surface"),
}

# Scale factors over Q for the full change of coordinates.
Q_SCALES = (1, -1, 2, -2)


# ---------------------------------------------------------------------------
# polynomial text <-> {exponent tuple: integer coefficient}

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.))")


class _Parser:
    """expr := term (('+'|'-') term)*;  term := ['-'] factor ('*' factor)*;
    factor := atom ['^' int];  atom := int | name."""

    def __init__(self, text: str, variables):
        self.tokens = [m.groups() for m in _TOKEN.finditer(text) if m.group(0).strip()]
        self.pos = 0
        self.index = {v: i for i, v in enumerate(variables)}
        self.n = len(variables)

    def parse(self) -> dict:
        out = self.expr()
        if self.pos != len(self.tokens):
            raise ValueError(f"unexpected token {self.tokens[self.pos]}")
        return out

    def peek(self):
        return self.tokens[self.pos][2] if self.pos < len(self.tokens) else None

    def expr(self) -> dict:
        acc = self.term()
        while self.peek() in ("+", "-"):
            sign = 1 if self.tokens[self.pos][2] == "+" else -1
            self.pos += 1
            acc = _add(acc, _scale(self.term(), sign))
        return acc

    def term(self) -> dict:
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        acc = self.factor()
        while self.peek() == "*":
            self.pos += 1
            acc = poly_mul(acc, self.factor())
        return _scale(acc, sign)

    def factor(self) -> dict:
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            number, _name, _op = self.tokens[self.pos]
            self.pos += 1
            out = {(0,) * self.n: 1}
            for _ in range(int(number)):
                out = poly_mul(out, base)
            return out
        return base

    def atom(self) -> dict:
        number, name, op = self.tokens[self.pos]
        self.pos += 1
        if number is not None:
            return {(0,) * self.n: int(number)}
        if name is not None:
            expo = [0] * self.n
            expo[self.index[name]] = 1
            return {tuple(expo): 1}
        raise ValueError(f"unexpected token {op!r}")


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _scale(a: dict, k: int) -> dict:
    return {m: k * c for m, c in a.items()}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _format(poly: dict, variables, weights) -> str:
    if not poly:
        return "0"
    parts = []
    order = sorted(poly, key=lambda m: (sum(w * e for w, e in zip(weights, m)), m), reverse=True)
    for m in order:
        c = poly[m]
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, m) if e]
        body = "*".join(factors)
        mag = abs(c)
        text = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if not parts:
            parts.append(f"-{text}" if c < 0 else text)
        else:
            parts.append(f"- {text}" if c < 0 else f"+ {text}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# seeded graded change of coordinates


def coordinate_change(rng: random.Random, weights, characteristic: int, full: bool):
    """x_i -> scale[i] * x_perm[i], with perm preserving weights.

    The full change permutes the variables of equal weight and scales each
    by a nonzero constant.  It changes the work: the leading terms under
    grevlex move, and even a change of signs alone moved the median sample
    time of cubic_gram by about 17% between two seeds, run after run.  Timed
    samples therefore only scale by units of F_p, which measured steady, and
    use the sessions as written over Q."""
    n = len(weights)
    perm = list(range(n))
    scale = [1] * n
    if full:
        for w in sorted(set(weights)):
            idx = [i for i in range(n) if weights[i] == w]
            shuffled = idx[:]
            rng.shuffle(shuffled)
            for src, dst in zip(idx, shuffled):
                perm[src] = dst
    if characteristic:
        scale = [rng.randrange(1, characteristic) for _ in range(n)]
    elif full:
        scale = [rng.choice(Q_SCALES) for _ in range(n)]
    return perm, scale


def _apply(text: str, variables, weights, characteristic, perm, scale) -> str:
    out: dict = {}
    for m, c in _Parser(text, variables).parse().items():
        new = [0] * len(m)
        for i, e in enumerate(m):
            new[perm[i]] = e
            c *= scale[i] ** e
        out[tuple(new)] = c
    if characteristic:
        out = {m: c % characteristic for m, c in out.items() if c % characteristic}
    return _format(out, variables, weights)


def seeded_session(doc: dict, rng: random.Random, full: bool) -> dict:
    """The same session after a graded automorphism of the ambient ring.

    Every invariant the reference check compares is unchanged by it."""
    ring = doc["ring"]
    variables = ring["variables"]
    weights = ring.get("weights") or [1] * len(variables)
    char = ring.get("characteristic", 0)
    perm, scale = coordinate_change(rng, weights, char, full)

    def move(text):
        return _apply(text, variables, weights, char, perm, scale)

    out = json.loads(json.dumps(doc))
    out["ring"]["f"] = move(ring["f"])
    for spec in out.get("modules", {}).values():
        if "cyclic" in spec:
            spec["cyclic"] = [move(g) for g in spec["cyclic"]]
        else:
            spec["matrix"] = [[move(e) for e in row] for row in spec["matrix"]]
    for name, gens in out.get("primes", {}).items():
        out["primes"][name] = [move(g) for g in gens]
    return out


def load_workload(workload: str, seed: int, full: bool = False):
    """[(session name, session document)] for the workload; seed 0 keeps
    the sessions as written."""
    docs = []
    for name in WORKLOADS[workload]:
        doc = json.loads((SESSIONS / f"{name}.json").read_text())
        if seed:
            doc = seeded_session(doc, random.Random(f"{seed}:{name}"), full)
        docs.append((name, doc))
    return docs


# ---------------------------------------------------------------------------
# answer check


def load_reference():
    return json.loads((HERE / "reference.json").read_text())


def check_report(name: str, report: dict, expected: list):
    """Return (failed task count, list of wrong answers).

    A task that raised, or was never reached because run_session stops at
    the first error, is a failure.  A result whose invariants differ from
    the reference is a wrong answer."""
    wrong = []
    entries = report["tasks"]
    if len(entries) > len(expected):
        wrong.append(f"{name}: {len(entries)} task entries, expected {len(expected)}")
    failed = len(expected) - len(entries)
    for entry, want in zip(entries, expected):
        if "error" in entry:
            failed += 1
            continue
        result = entry["result"]
        for key, value in want.items():
            if result.get(key) != value:
                wrong.append(
                    f"{name} task {entry['index']} ({entry['kind']}): "
                    f"{key} = {result.get(key)!r}, expected {value!r}"
                )
    return failed, wrong
