"""Session-file driven command line front end.

A session is a JSON document with a ring block, optional module and prime
blocks, and an ordered task list.  ``theta-cas run`` executes the tasks and
prints a table (optionally writing a JSON report); with ``--audit`` it
also computes the lower triangle of every Gram matrix and fails on an
asymmetric one.  ``theta-cas validate`` checks the schema and references
without running anything.

Each task kind is one entry of ``TASKS``: the checks on its keys, the
runner that computes its result, and the text line that shows it.

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
from operator import itemgetter
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

# Schema cap: resolving A/(x) over xy to length 1000000 ran past 15 s.
MAX_RESOLVE_LENGTH = 256

# Schema cap: Python prints no int of more than 4300 digits, and a Gram
# entry multiplies two class coefficients and a pairing value; a 2500-digit
# coefficient ran, then crashed the text and JSON output.  With at most 1000
# digits each, every product a task prints stays far below that limit.
MAX_COEFFICIENT_DIGITS = 1000


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


def _strings(value, depth: int = 0) -> bool:
    """A list of strings, or for depth > 0 a list of such (depth - 1) values."""
    return isinstance(value, list) and all(
        _strings(v, depth - 1) if depth else isinstance(v, str) for v in value)


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
    _require(bool(variables) and _strings(variables), errors,
             "ring.variables must be a non-empty list of names")
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
                if not _strings(gens):
                    raise SessionError("'cyclic' must be a list of polynomial strings")
                modules[name] = ModulePresentation.cyclic(ring, gens)
            elif isinstance(spec, dict) and "matrix" in spec:
                rows = spec["matrix"]
                if not _strings(rows, 1):
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
            if not _strings(gens):
                raise SessionError("prime generators must be a list of strings")
            primes[name] = [S.parse(g) for g in gens]
        except (SessionError, ValueError, AlgebraError) as exc:
            errors.append(f"prime {name!r}: {exc}")

    if errors:
        return None, errors
    return Environment(ring, modules, primes), []


# ---------------------------------------------------------------------------
# task kinds


def _module(name, env: Environment) -> List[str]:
    if isinstance(name, str) and name in env.modules:
        return []
    return [f"undeclared module {name!r}"]


def _class(value, env: Environment) -> List[str]:
    """A module name, or an object of module names to integer coefficients."""
    if isinstance(value, str):
        return _module(value, env)
    if not isinstance(value, dict):
        return ["class must be a module name or name->coeff object"]
    errors = []
    for name, coeff in value.items():
        errors += _module(name, env)
        if not _is_int(coeff):
            errors.append(f"coefficient of {name!r} must be an integer")
        elif abs(coeff) >= 10 ** MAX_COEFFICIENT_DIGITS:
            errors.append(
                f"coefficient of {name!r} must have at most {MAX_COEFFICIENT_DIGITS} digits")
    return errors


def _at(key: str, check):
    """A check of task[key] by check."""
    return lambda task, env: check(task.get(key), env)


def _list_of(key: str, check):
    """A check that task[key] is a non-empty list, each entry passing check."""
    def list_check(task, env):
        values = task.get(key)
        if not isinstance(values, list) or not values:
            return [f"{key!r} must be a non-empty list"]
        return [e for value in values for e in check(value, env)]
    return list_check


def _count(key: str, top: int, bound: str, optional: bool = False):
    """A check that task[key] is an integer from 1 to top, worded by bound."""
    def count_check(task, env):
        value = task.get(key)
        if (optional and key not in task) or (_is_int(value) and 1 <= value <= top):
            return []
        return [f"{key!r} must be a positive integer {bound}"]
    return count_check


def _module_or_complex(task, env: Environment) -> List[str]:
    if "module" in task:
        return _module(task["module"], env)
    if "complex" not in task:
        return ["chi needs 'module' or 'complex'"]
    if _strings(task["complex"], 2):
        return []
    return ["'complex' must be a list of matrices of strings"]


def _primes(task, env: Environment) -> List[str]:
    """A list of declared prime names, each at most once."""
    plist = task.get("primes")
    if not _strings(plist):
        return ["'primes' must be a list of prime names"]
    errors = []
    for n, p in enumerate(plist):
        if p not in env.primes:
            errors.append(f"undeclared prime {p!r}")
        elif p in plist[:n]:
            errors.append(f"prime {p!r} listed twice")
    return errors


def _resolve(task: dict, env: Environment, audit: bool) -> dict:
    L = task.get("length", env.ring.dimension + 4)
    res = minimal_resolution(env.modules[task["module"]], L)
    betti = res.betti
    return {
        "betti": betti,
        "stable": res.stable,
        "stable_start": res.stable_start,
        "matrices": [env.ring.ambient.format_columns(res.packed_columns(i), betti[i - 1])
                     for i in range(1, L + 1)],
    }


def _mf(task: dict, env: Environment, audit: bool) -> dict:
    mf = extract_matrix_factorization(minimal_resolution(env.modules[task["module"]], 1))
    S = env.ring.ambient
    return {
        "size": mf.size,
        "alpha": S.format_columns(mf.alpha_cols, mf.size),
        "beta": S.format_columns(mf.beta_cols, mf.size),
        "source_index": mf.source_index,
        "identity": f"alpha*beta = beta*alpha = ({env.ring.f})*I",
    }


def _chi(task: dict, env: Environment, audit: bool) -> dict:
    against = ClassExpression.of(task["against"])
    if "module" in task:
        N0 = env.modules[task["module"]]
        return {"value": sum(coeff * chi_modules(N0, env.modules[name])
                             for name, coeff in against.items())}
    return {"value": chi_complex(FreeComplex(env.ring, task["complex"]), against, env.modules)}


def _length(task: dict, env: Environment, audit: bool) -> dict:
    value = length(env.modules[task["module"]])
    return {"value": "INFINITE" if value is INFINITE else value}


def _c1(task: dict, env: Environment, audit: bool) -> dict:
    named = [(p, env.primes[p]) for p in task["primes"]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cls = c1_torsion(env.modules[task["module"]], named)
    return {"class": [[name, mult] for name, mult in cls.items()],
            "warnings": [str(w.message) for w in caught]}


def _report(task: dict, env: Environment, audit: bool) -> dict:
    rep = conjecture_report(env.ring, [(n, env.modules[n]) for n in task["modules"]], audit)
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


_MODULE = _at("module", _module)
_VALUE = itemgetter("value")

# kind -> (checks, runner, text).  A check takes (task, env) and returns
# schema messages; a runner takes (task, env, audit) and returns the result;
# text takes the result and returns what follows "[index] kind: ".
TASKS = {
    "resolve": ((_MODULE, _count("length", MAX_RESOLVE_LENGTH, f"at most {MAX_RESOLVE_LENGTH}",
                                 optional=True)),
                _resolve, lambda r: f"betti {r['betti']} stable={r['stable']}"),
    "mf": ((_MODULE,), _mf, lambda r: (f"size {r['size']}, {r['identity']}\n"
                                       f"    alpha = {r['alpha']}\n    beta  = {r['beta']}")),
    # Tor_i reads d_{i+1}, so i stays below the resolve cap
    "tor": ((_at("left", _module), _at("right", _module),
             _count("i", MAX_RESOLVE_LENGTH - 1, f"below {MAX_RESOLVE_LENGTH}")),
            lambda task, env, audit: {"value": tor_length(
                env.modules[task["left"]], env.modules[task["right"]], task["i"])},
            _VALUE),
    "theta": ((_at("left", _class), _at("right", _class)),
              lambda task, env, audit: {"value": theta_class(
                  ClassExpression.of(task["left"]), ClassExpression.of(task["right"]),
                  env.modules)},
              _VALUE),
    "chi": ((_module_or_complex, _at("against", _class)), _chi, _VALUE),
    "length": ((_MODULE,), _length, _VALUE),
    "hilbert": ((_MODULE,),
                lambda task, env, audit: {"numerator": sorted(
                    map(list, module_series(env.modules[task["module"]]).items()))},
                lambda r: "numerator " + (" + ".join(
                    f"{c}*t^{deg}" if deg else str(c) for deg, c in r["numerator"]) or "0")),
    "c1": ((_MODULE, _primes), _c1,
           lambda r: (" + ".join(f"{c}*[{n}]" for n, c in r["class"]) or "0") + "".join(
               f"\n    warning: {w}" for w in r["warnings"])),
    "gram": ((_list_of("classes", _class),),
             lambda task, env, audit: {"matrix": gram_matrix(
                 [ClassExpression.of(c) for c in task["classes"]], env.modules, audit)},
             itemgetter("matrix")),
    "conjecture_report": ((_list_of("modules", _module),), _report,
                          lambda r: (f"{r['verdict']} ({r['detail']}); gram {r['matrix']}, "
                                     f"signature {tuple(r['signature'])}, "
                                     f"kernel {r['kernel']}")),
}


def validate_tasks(doc, env: Environment) -> List[str]:
    errors: List[str] = []
    tasks = doc.get("tasks")
    if not isinstance(tasks, list):
        return ["missing or invalid 'tasks' list"]
    for idx, task in enumerate(tasks):
        where = f"task {idx}"
        if not isinstance(task, dict) or "kind" not in task:
            errors.append(f"{where}: must be an object with a 'kind'")
        elif not isinstance(task["kind"], str) or task["kind"] not in TASKS:
            errors.append(f"{where}: unknown kind {task['kind']!r}")
        else:
            errors += [f"{where}: {e}" for check in TASKS[task["kind"]][0]
                       for e in check(task, env)]
    return errors


def validate_session(doc) -> List[str]:
    env, errors = build_environment(doc)
    return errors or validate_tasks(doc, env)


# ---------------------------------------------------------------------------
# task execution


def run_session(doc, audit: bool = False) -> Tuple[dict, int]:
    """Run the session's tasks in order; stop at the first that raises.

    audit=True recomputes the lower triangle of every Gram matrix and fails
    the task with AsymmetricGram where it differs from the upper one."""
    env, errors = build_environment(doc)
    errors = errors or validate_tasks(doc, env)
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
            entry["result"] = TASKS[task["kind"]][1](task, env, audit)
        # RecursionError: a kernel recursion too deep for the input ends the
        # task, not the process
        except (AlgebraError, IndexError, ValueError, RecursionError) as exc:
            entry["error"] = type(exc).__name__
            entry["message"] = str(exc)
            exit_code = 3
        entry["time_ms"] = round((time.monotonic() - start) * 1000, 3)
        report["tasks"].append(entry)
        if exit_code:
            break
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
        else:
            print(f"{head}: {TASKS[entry['kind']][2](entry['result'])}", file=stream)


# ---------------------------------------------------------------------------
# entry points


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
        with open(args.session, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    # ValueError: also an undecodable byte or an integer past Python's
    # digit limit; RecursionError: nesting too deep for the decoder
    except (ValueError, RecursionError) as exc:
        print(f"schema error: not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "validate":
            problems = validate_session(doc)
            if not problems:
                print("ok")
                return 0
            raise SessionError(problems)
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
