"""Session-file driven command line front end.

A session is a JSON document with a ring block, optional module and prime
blocks, and an ordered task list.  ``theta-cas run`` executes the tasks and
prints a table (optionally writing a JSON report); with ``--audit`` it
also computes the lower triangle of every Gram matrix and fails on an
asymmetric one.  ``theta-cas validate`` checks the schema and references
without running anything.

Exit codes: 0 success, 1 I/O failure, 2 schema violation, 3 mathematical
error or a recursion too deep for the input (the report names the failing
task index and error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from typing import Dict, List, Optional, Tuple

from . import __version__
from .errors import AlgebraError, SessionError
from .homology import (
    ModulePresentation,
    extract_matrix_factorization,
    minimal_resolution,
    module_series,
    tor_length,
)
from .numeq import conjecture_report, gram_matrix
from .pairings import (
    ClassExpression,
    FreeComplex,
    chi_complex,
    chi_modules,
    length,
    c1_torsion,
    theta_class,
)
from .ring import INFINITE, FieldSpec, HypersurfaceRing, PolynomialRing

TASK_KINDS = (
    "resolve", "mf", "tor", "theta", "chi", "length",
    "hilbert", "c1", "gram", "conjecture_report",
)

# Schema cap: resolving A/(x) over xy to length 1000000 ran past 15 s.
MAX_RESOLVE_LENGTH = 256


class Environment:
    def __init__(self, ring: HypersurfaceRing, modules, primes):
        self.ring = ring
        self.modules: Dict[str, ModulePresentation] = modules
        self.primes: Dict[str, list] = primes


# ---------------------------------------------------------------------------
# schema validation / environment construction


def _require(cond, errors: List[str], message: str):
    if not cond:
        errors.append(message)
    return cond


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, which Python counts as int."""
    return isinstance(value, int) and not isinstance(value, bool)


def build_environment(doc) -> Tuple[Optional[Environment], List[str]]:
    errors: List[str] = []
    if not isinstance(doc, dict):
        return None, ["session must be a JSON object"]
    ring_block = doc.get("ring")
    if not _require(isinstance(ring_block, dict), errors, "missing or invalid 'ring' block"):
        return None, errors
    char = ring_block.get("characteristic", 0)
    variables = ring_block.get("variables")
    weights = ring_block.get("weights")
    f_text = ring_block.get("f")
    _require(_is_int(char) and char >= 0, errors, "ring.characteristic must be a non-negative integer")
    _require(
        isinstance(variables, list) and variables and all(isinstance(v, str) for v in variables),
        errors, "ring.variables must be a non-empty list of names",
    )
    if weights is not None:
        _require(
            isinstance(weights, list) and all(_is_int(w) and w > 0 for w in weights),
            errors, "ring.weights must be a list of positive integers",
        )
    _require(isinstance(f_text, str), errors, "ring.f must be a polynomial string")
    if errors:
        return None, errors
    try:
        field = FieldSpec(char)
        S = PolynomialRing(field, variables, weights)
        ring = HypersurfaceRing(S, S.parse(f_text))
    except (ValueError, AlgebraError) as exc:
        return None, [f"ring block: {exc}"]

    modules: Dict[str, ModulePresentation] = {}
    mod_block = doc.get("modules", {})
    if not isinstance(mod_block, dict):
        return None, ["'modules' block must be an object"]
    for name, spec in mod_block.items():
        try:
            if isinstance(spec, dict) and "cyclic" in spec:
                gens = spec["cyclic"]
                if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                    raise SessionError("'cyclic' must be a list of polynomial strings")
                modules[name] = ModulePresentation.cyclic(ring, gens)
            elif isinstance(spec, dict) and "matrix" in spec:
                rows = spec["matrix"]
                if not isinstance(rows, list) or not all(
                    isinstance(r, list) and all(isinstance(e, str) for e in r) for r in rows
                ):
                    raise SessionError("'matrix' must be a list of rows of strings")
                modules[name] = ModulePresentation(ring, rows)
            else:
                raise SessionError("module spec needs 'cyclic' or 'matrix'")
        except (SessionError, ValueError, AlgebraError) as exc:
            errors.append(f"module {name!r}: {exc}")

    primes: Dict[str, list] = {}
    prime_block = doc.get("primes", {})
    if not isinstance(prime_block, dict):
        return None, ["'primes' block must be an object"]
    for name, gens in prime_block.items():
        try:
            if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
                raise SessionError("prime generators must be a list of strings")
            primes[name] = [S.parse(g) for g in gens]
        except (SessionError, ValueError, AlgebraError) as exc:
            errors.append(f"prime {name!r}: {exc}")

    if errors:
        return None, errors
    return Environment(ring, modules, primes), []


def _validate_class(value, env: Environment, errors: List[str], where: str):
    if isinstance(value, str):
        if value not in env.modules:
            errors.append(f"{where}: undeclared module {value!r}")
    elif isinstance(value, dict):
        for name, coeff in value.items():
            if name not in env.modules:
                errors.append(f"{where}: undeclared module {name!r}")
            if not _is_int(coeff):
                errors.append(f"{where}: coefficient of {name!r} must be an integer")
    else:
        errors.append(f"{where}: class must be a module name or name->coeff object")


def validate_tasks(doc, env: Environment) -> List[str]:
    errors: List[str] = []
    tasks = doc.get("tasks")
    if not isinstance(tasks, list):
        return ["missing or invalid 'tasks' list"]
    for idx, task in enumerate(tasks):
        where = f"task {idx}"
        if not isinstance(task, dict) or "kind" not in task:
            errors.append(f"{where}: must be an object with a 'kind'")
            continue
        kind = task["kind"]
        if kind not in TASK_KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        def need_module(key="module"):
            name = task.get(key)
            if not isinstance(name, str) or name not in env.modules:
                errors.append(f"{where}: undeclared module {name!r}")
        if kind in ("resolve", "mf", "length", "hilbert"):
            need_module()
            if kind == "resolve" and "length" in task and (
                not _is_int(task["length"]) or not 1 <= task["length"] <= MAX_RESOLVE_LENGTH
            ):
                errors.append(
                    f"{where}: 'length' must be a positive integer at most {MAX_RESOLVE_LENGTH}")
        elif kind == "tor":
            need_module("left")
            need_module("right")
            # Tor_i reads d_{i+1}, so i stays below the resolve cap
            if not _is_int(task.get("i")) or not 1 <= task["i"] < MAX_RESOLVE_LENGTH:
                errors.append(
                    f"{where}: 'i' must be a positive integer below {MAX_RESOLVE_LENGTH}")
        elif kind == "theta":
            _validate_class(task.get("left"), env, errors, where)
            _validate_class(task.get("right"), env, errors, where)
        elif kind == "chi":
            if "module" in task:
                need_module()
            elif "complex" in task:
                mats = task["complex"]
                ok = isinstance(mats, list) and all(
                    isinstance(m, list) and all(
                        isinstance(r, list) and all(isinstance(e, str) for e in r)
                        for r in m
                    ) for m in mats
                )
                if not ok:
                    errors.append(f"{where}: 'complex' must be a list of matrices of strings")
            else:
                errors.append(f"{where}: chi needs 'module' or 'complex'")
            _validate_class(task.get("against"), env, errors, where)
        elif kind == "c1":
            need_module()
            plist = task.get("primes")
            if not isinstance(plist, list) or not all(isinstance(p, str) for p in plist):
                errors.append(f"{where}: 'primes' must be a list of prime names")
            else:
                for n, p in enumerate(plist):
                    if p not in env.primes:
                        errors.append(f"{where}: undeclared prime {p!r}")
                    elif p in plist[:n]:
                        errors.append(f"{where}: prime {p!r} listed twice")
        elif kind == "gram":
            classes = task.get("classes")
            if not isinstance(classes, list) or not classes:
                errors.append(f"{where}: 'classes' must be a non-empty list")
            else:
                for cl in classes:
                    _validate_class(cl, env, errors, where)
        elif kind == "conjecture_report":
            names = task.get("modules")
            if not isinstance(names, list) or not names:
                errors.append(f"{where}: 'modules' must be a non-empty list")
            else:
                for name in names:
                    if not isinstance(name, str) or name not in env.modules:
                        errors.append(f"{where}: undeclared module {name!r}")
    return errors


def validate_session(doc) -> List[str]:
    env, errors = build_environment(doc)
    if errors:
        return errors
    return validate_tasks(doc, env)


# ---------------------------------------------------------------------------
# serialization helpers


def _length_json(value):
    return "INFINITE" if value is INFINITE else value


# ---------------------------------------------------------------------------
# task execution


def _run_task(task: dict, env: Environment, audit: bool) -> dict:
    kind = task["kind"]
    ring = env.ring
    d = ring.dimension
    S = ring.ambient
    if kind == "resolve":
        L = task.get("length", d + 4)
        res = minimal_resolution(env.modules[task["module"]], L)
        betti = res.betti
        return {
            "betti": betti,
            "stable": res.stable,
            "stable_start": res.stable_start,
            "matrices": [S.format_columns(res.packed_columns(i), betti[i - 1])
                         for i in range(1, L + 1)],
        }
    if kind == "mf":
        mf = extract_matrix_factorization(minimal_resolution(env.modules[task["module"]], 1))
        return {
            "size": mf.size,
            "alpha": S.format_columns(mf.alpha_cols, mf.size),
            "beta": S.format_columns(mf.beta_cols, mf.size),
            "source_index": mf.source_index,
            "identity": f"alpha*beta = beta*alpha = ({ring.f})*I",
        }
    if kind == "tor":
        value = tor_length(env.modules[task["left"]], env.modules[task["right"]], task["i"])
        return {"value": value}
    if kind == "theta":
        left, right = ClassExpression.of(task["left"]), ClassExpression.of(task["right"])
        value = theta_class(left, right, env.modules)
        return {"value": value}
    if kind == "chi":
        against = ClassExpression.of(task["against"])
        if "module" in task:
            total = 0
            for name, coeff in against.items():
                total += coeff * chi_modules(env.modules[task["module"]], env.modules[name])
            return {"value": total}
        F = FreeComplex(ring, task["complex"])
        return {"value": chi_complex(F, against, env.modules)}
    if kind == "length":
        return {"value": _length_json(length(env.modules[task["module"]]))}
    if kind == "hilbert":
        num = module_series(env.modules[task["module"]])
        return {"numerator": [[deg, num[deg]] for deg in sorted(num)]}
    if kind == "c1":
        named = [(p, env.primes[p]) for p in task["primes"]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cls = c1_torsion(env.modules[task["module"]], named)
        return {
            "class": [[name, mult] for name, mult in cls.items()],
            "warnings": [str(w.message) for w in caught],
        }
    if kind == "gram":
        classes = [ClassExpression.of(c) for c in task["classes"]]
        matrix = gram_matrix(classes, env.modules, audit)
        return {"matrix": matrix}
    if kind == "conjecture_report":
        named = [(n, env.modules[n]) for n in task["modules"]]
        rep = conjecture_report(ring, named, audit)
        return {
            "names": list(rep.names),
            "matrix": rep.matrix,
            "signature": list(rep.signature),
            "adjusted_sign": rep.adjusted_sign,
            "adjusted_signature": list(rep.adjusted_signature),
            "kernel": [list(v) for v in rep.kernel],
            "verdict": rep.verdict,
            "detail": rep.detail,
        }
    raise SessionError(f"unknown task kind {kind!r}")


def run_session(doc, audit: bool = False) -> Tuple[dict, int]:
    """Run the session's tasks in order; stop at the first that raises.

    audit=True recomputes the lower triangle of every Gram matrix and fails
    the task with AsymmetricGram where it differs from the upper one."""
    env, errors = build_environment(doc)
    if not errors:
        errors = validate_tasks(doc, env)
    if errors:
        raise SessionError(errors)
    ring = env.ring
    report = {
        "metadata": {
            "tool": "theta-cas",
            "version": __version__,
            "characteristic": ring.field.characteristic,
            "variables": list(ring.variables),
            "weights": list(ring.weights),
            "f": str(ring.f),
            "dimension": ring.dimension,
            "monomial_order": "weighted graded reverse lexicographic",
            "module_order": "position-over-term, lower index wins",
        },
        "tasks": [],
    }
    exit_code = 0
    for idx, task in enumerate(doc.get("tasks", [])):
        entry = {"index": idx, "kind": task["kind"]}
        start = time.monotonic()
        try:
            entry["result"] = _run_task(task, env, audit)
        # RecursionError: a kernel recursion too deep for the input ends the
        # task, not the process
        except (AlgebraError, IndexError, ValueError, RecursionError) as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
            entry["time_ms"] = round((time.monotonic() - start) * 1000, 3)
            report["tasks"].append(entry)
            exit_code = 3
            break
        entry["time_ms"] = round((time.monotonic() - start) * 1000, 3)
        report["tasks"].append(entry)
    return report, exit_code


# ---------------------------------------------------------------------------
# human-readable rendering


def _render(report: dict, stream) -> None:
    meta = report["metadata"]
    print(f"theta-cas {meta['version']}", file=stream)
    print(
        f"ring: char {meta['characteristic']}, vars {','.join(meta['variables'])}, "
        f"f = {meta['f']}, dim {meta['dimension']}",
        file=stream,
    )
    for entry in report["tasks"]:
        head = f"[{entry['index']}] {entry['kind']}"
        if "error" in entry:
            print(f"{head}: ERROR {entry['error']}: {entry['message']}", file=stream)
            continue
        result = entry["result"]
        if "value" in result:
            print(f"{head}: {result['value']}", file=stream)
        elif entry["kind"] == "resolve":
            print(f"{head}: betti {result['betti']} stable={result['stable']}", file=stream)
        elif entry["kind"] == "mf":
            print(f"{head}: size {result['size']}, {result['identity']}", file=stream)
            print(f"    alpha = {result['alpha']}", file=stream)
            print(f"    beta  = {result['beta']}", file=stream)
        elif entry["kind"] == "hilbert":
            terms = " + ".join(
                f"{c}*t^{deg}" if deg else str(c) for deg, c in result["numerator"]
            ) or "0"
            print(f"{head}: numerator {terms}", file=stream)
        elif entry["kind"] == "c1":
            cls = " + ".join(f"{c}*[{n}]" for n, c in result["class"]) or "0"
            print(f"{head}: {cls}", file=stream)
            for w in result["warnings"]:
                print(f"    warning: {w}", file=stream)
        elif entry["kind"] == "gram":
            print(f"{head}: {result['matrix']}", file=stream)
        elif entry["kind"] == "conjecture_report":
            print(
                f"{head}: {result['verdict']} ({result['detail']}); "
                f"gram {result['matrix']}, signature {tuple(result['signature'])}, "
                f"kernel {result['kernel']}",
                file=stream,
            )


# ---------------------------------------------------------------------------
# entry points


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="theta-cas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("session")
    run_p.add_argument("--json", dest="json_out", default=None,
                       help="also write the report as JSON to this path")
    run_p.add_argument("--audit", action="store_true",
                       help="compute both triangles of every Gram matrix and "
                            "fail on an asymmetric one")
    val_p = sub.add_parser("validate", help="check a session file without running it")
    val_p.add_argument("session")
    sub.add_parser("version", help="print the version")
    args = parser.parse_args(argv)

    if args.command == "version":
        print(__version__)
        return 0

    try:
        doc = _load(args.session)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"schema error: not valid JSON: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        problems = validate_session(doc)
        if problems:
            for p in problems:
                print(f"schema error: {p}", file=sys.stderr)
            return 2
        print("ok")
        return 0

    try:
        report, exit_code = run_session(doc, audit=args.audit)
    except SessionError as exc:
        for p in exc.messages:
            print(f"schema error: {p}", file=sys.stderr)
        return 2
    _render(report, sys.stdout)
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            print(f"I/O error: {exc}", file=sys.stderr)
            return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
