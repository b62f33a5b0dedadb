"""Command-line front end: session execution, validation, exit codes."""

import copy
import gc
import json
import weakref
from pathlib import Path

import pytest

from thetacas import FieldSpec, FreeComplex, HypersurfaceRing, PolynomialRing
from thetacas.cli import MAX_RESOLVE_LENGTH, main, run_session, validate_session
from thetacas.errors import AlgebraError
from thetacas.ring import MAX_EXPONENT, MAX_NESTING, MAX_PACKED_DEGREE

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def write_session(tmp_path, doc, name="session.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


NODE_DOC = {
    "ring": {"characteristic": 0, "variables": ["x", "y"], "f": "x*y"},
    "modules": {"Ax": {"cyclic": ["x"]}, "Ay": {"cyclic": ["y"]}},
    "tasks": [
        {"kind": "theta", "left": "Ax", "right": "Ay"},
        {"kind": "gram", "classes": ["Ax", "Ay"]},
        {"kind": "conjecture_report", "modules": ["Ax", "Ay"]},
    ],
}


def strip_timing(report):
    report = copy.deepcopy(report)
    for entry in report["tasks"]:
        entry.pop("time_ms", None)
    return report


# ---------------------------------------------------------------------------
# subcommands


def test_version(capsys):
    assert main(["version"]) == 0
    from thetacas import __version__

    assert capsys.readouterr().out.strip() == __version__


def test_validate_ok(tmp_path, capsys):
    path = write_session(tmp_path, NODE_DOC)
    assert main(["validate", path]) == 0
    assert "ok" in capsys.readouterr().out


def test_run_node_inline(tmp_path, capsys):
    path = write_session(tmp_path, NODE_DOC)
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "theta: 1" in out
    assert "[[-1, 1], [1, -1]]" in out
    assert "PASS" in out


def test_run_writes_json_report(tmp_path):
    path = write_session(tmp_path, NODE_DOC)
    out_path = tmp_path / "report.json"
    assert main(["run", path, "--json", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    results = [t["result"] for t in report["tasks"]]
    assert results[0]["value"] == 1
    assert results[1]["matrix"] == [[-1, 1], [1, -1]]
    assert results[2]["verdict"] == "PASS"
    assert report["metadata"]["monomial_order"].startswith("weighted")
    # round trip
    assert json.loads(json.dumps(report)) == report


def test_empty_task_list(tmp_path):
    doc = {"ring": NODE_DOC["ring"], "tasks": []}
    report, code = run_session(doc)
    assert code == 0 and report["tasks"] == []


# ---------------------------------------------------------------------------
# golden session files


def test_shipped_sessions_validate():
    for name in ("node.json", "a1_surface.json", "quadric.json"):
        doc = json.loads((SESSIONS / name).read_text())
        assert validate_session(doc) == []


def test_shipped_node_session():
    doc = json.loads((SESSIONS / "node.json").read_text())
    report, code = run_session(doc)
    assert code == 0
    by_kind = {}
    for t in report["tasks"]:
        by_kind.setdefault(t["kind"], []).append(t["result"])
    assert by_kind["theta"][0]["value"] == 1
    assert by_kind["theta"][1]["value"] == -1
    assert by_kind["length"][0]["value"] == 1
    assert by_kind["gram"][0]["matrix"] == [[-1, 1], [1, -1]]
    assert by_kind["conjecture_report"][0]["verdict"] == "PASS"
    assert by_kind["conjecture_report"][0]["kernel"] == [[1, 1]]


def test_shipped_a1_session():
    doc = json.loads((SESSIONS / "a1_surface.json").read_text())
    report, code = run_session(doc)
    assert code == 0
    for t in report["tasks"]:
        if t["kind"] == "theta":
            assert t["result"]["value"] == 0
        if t["kind"] == "conjecture_report":
            assert t["result"]["verdict"] == "PASS"
        if t["kind"] == "hilbert":
            assert t["result"]["numerator"] == [[0, 1], [1, -2], [2, 1]]


def test_shipped_quadric_session():
    doc = json.loads((SESSIONS / "quadric.json").read_text())
    report, code = run_session(doc)
    assert code == 0
    results = {t["index"]: t["result"] for t in report["tasks"]}
    assert results[0]["alpha"] == [["u", "y"], ["-x", "-v"]]
    assert results[1]["value"] == -1
    assert results[2]["value"] == 1
    assert results[3]["value"] == 1  # Tor_5
    assert results[4]["class"] == [["p", 1]]
    assert results[5]["class"] == [["p", 1], ["q", 1]]
    assert results[7]["verdict"] == "PASS"


def test_hilbert_numerator_uses_generator_degrees():
    """coker [[x^2], [y]] over k[x,y]/(xy) has generators in degrees 0 and 1
    and the relation in degree 2: HS = (1 + t - 2t^2 - t^3 + t^4)/(1 - t)^2."""
    doc = {
        "ring": NODE_DOC["ring"],
        "modules": {"M": {"matrix": [["x^2"], ["y"]]}},
        "tasks": [{"kind": "hilbert", "module": "M"}],
    }
    report, code = run_session(doc)
    assert code == 0
    assert report["tasks"][0]["result"]["numerator"] == [[0, 1], [1, 1], [2, -2], [3, -1], [4, 1]]


def test_negative_generator_degree_lengths():
    """coker [[y], [x^2]] over k[x,y]/(xy) has generators in degrees 0 and -1;
    its numerator keeps the t^-1 term and its length is still INFINITE."""
    doc = {
        "ring": NODE_DOC["ring"],
        "modules": {"M": {"matrix": [["y"], ["x^2"]]}},
        "tasks": [{"kind": "length", "module": "M"}, {"kind": "hilbert", "module": "M"}],
    }
    report, code = run_session(doc)
    assert code == 0
    assert report["tasks"][0]["result"]["value"] == "INFINITE"
    assert report["tasks"][1]["result"]["numerator"] == [[-1, 1], [0, 1], [1, -2], [2, -1], [3, 1]]


def test_determinism_with_cold_caches():
    """Every run builds fresh rings, so no run sees another's caches; the
    gram task alone must agree with the gram task run after the theta tasks
    that warm the theta values it reads."""
    text = (SESSIONS / "quadric.json").read_text()
    a, code_a = run_session(json.loads(text))
    b, code_b = run_session(json.loads(text))
    assert code_a == code_b == 0
    assert strip_timing(a) == strip_timing(b)

    alone = json.loads(text)
    gram_index = next(i for i, t in enumerate(alone["tasks"]) if t["kind"] == "gram")
    alone["tasks"] = [alone["tasks"][gram_index]]
    c, code_c = run_session(alone)
    assert code_c == 0
    assert strip_timing(c)["metadata"] == strip_timing(a)["metadata"]
    assert c["tasks"][0]["result"] == a["tasks"][gram_index]["result"]


def test_session_ring_is_freed(monkeypatch):
    """Caches hang off the ring and its modules, and no reference cycle runs
    through them, so each shipped session's ring is freed by reference
    counting as soon as the session returns, with the cyclic garbage
    collector switched off."""
    import thetacas.cli as cli

    rings = []
    build = cli.build_environment

    def recording_build(doc):
        env, errors = build(doc)
        rings.append(weakref.ref(env.ring.ambient))
        return env, errors

    monkeypatch.setattr(cli, "build_environment", recording_build)
    paths = sorted(SESSIONS.glob("*.json"))
    assert len(paths) == 3
    gc.disable()
    try:
        for path in paths:
            report, code = run_session(json.loads(path.read_text()))
            assert code == 0 and report["tasks"]
            assert rings[-1]() is None, f"{path.name} left its ring alive"
    finally:
        gc.enable()
    assert len(rings) == 3


def test_sessions_leave_no_cyclic_garbage():
    """After each shipped session, the garbage collector finds no thetacas
    object in cyclic garbage: whatever a session builds is freed by
    reference counting."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in sorted(SESSIONS.glob("*.json")):
            _report, code = run_session(json.loads(path.read_text()))
            assert code == 0
            gc.collect()
            found = sorted({type(o).__qualname__ for o in gc.garbage
                            if type(o).__module__.startswith("thetacas")})
            gc.garbage.clear()
            assert not found, f"{path.name} left cyclic garbage: {found}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


# ---------------------------------------------------------------------------
# exit codes and error reporting


def test_schema_error_undeclared_module(tmp_path, capsys):
    doc = copy.deepcopy(NODE_DOC)
    doc["tasks"].append({"kind": "length", "module": "Az"})
    path = write_session(tmp_path, doc)
    assert main(["validate", path]) == 2
    err = capsys.readouterr().err
    assert "Az" in err and "task 3" in err
    assert main(["run", path]) == 2


def test_schema_error_non_string_module_in_conjecture_report(tmp_path, capsys):
    """A dict among the report's modules raised TypeError (unhashable) in
    validation: a traceback and exit 1 instead of a schema error."""
    path = write_session(tmp_path, _with_task({"kind": "conjecture_report",
                                               "modules": ["Ax", {"Ax": 1}]}))
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert "task 0: undeclared module {'Ax': 1}" in capsys.readouterr().err


def test_schema_error_repeated_prime_in_c1(tmp_path, capsys):
    """A prime listed twice in a c1 task added its share to the additivity
    audit twice: the class was right, but the audit warned that a support
    component was missing."""
    doc = json.loads((SESSIONS / "quadric.json").read_text())
    doc["tasks"] = [{"kind": "c1", "module": "Ax", "primes": ["q", "p", "p", "q"]}]
    path = write_session(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert "task 0: prime 'p' listed twice" in err
        assert "task 0: prime 'q' listed twice" in err


def test_schema_error_inhomogeneous_f(tmp_path, capsys):
    doc = {"ring": {"characteristic": 0, "variables": ["x", "y"], "f": "x + y^2"}, "tasks": []}
    path = write_session(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert "degree" in capsys.readouterr().err


def test_schema_error_unknown_kind(tmp_path):
    doc = {"ring": NODE_DOC["ring"], "tasks": [{"kind": "frobnicate"}]}
    assert main(["run", write_session(tmp_path, doc)]) == 2


def _with_task(task):
    doc = copy.deepcopy(NODE_DOC)
    doc["tasks"] = [task]
    return doc


def _with_ring(**changes):
    doc = copy.deepcopy(NODE_DOC)
    doc["ring"].update(changes)
    return doc


# JSON true is a Python bool, and bool is a subclass of int.
@pytest.mark.parametrize("doc, message", [
    pytest.param(_with_task({"kind": "resolve", "module": "Ax", "length": True}),
                 "'length' must be a positive integer", id="length"),
    pytest.param(_with_task({"kind": "tor", "left": "Ax", "right": "Ay", "i": True}),
                 "'i' must be a positive integer", id="i"),
    pytest.param(_with_ring(weights=[True, 1]),
                 "ring.weights must be a list of positive integers", id="weights"),
    pytest.param(_with_task({"kind": "theta", "left": {"Ax": True}, "right": "Ay"}),
                 "coefficient of 'Ax' must be an integer", id="class_coefficient"),
    pytest.param(_with_ring(characteristic=True),
                 "ring.characteristic must be a non-negative integer", id="characteristic"),
])
def test_schema_error_boolean_for_integer(tmp_path, capsys, doc, message):
    path = write_session(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert message in capsys.readouterr().err
    assert main(["run", path]) == 2
    assert message in capsys.readouterr().err


def test_characteristic_above_the_primality_bound_exits_2(tmp_path, capsys):
    path = write_session(tmp_path, _with_ring(characteristic=2 ** 89 - 1))
    assert main(["validate", path]) == 2
    assert "not below" in capsys.readouterr().err
    assert main(["run", path]) == 2


def test_resolve_length_above_the_cap_exits_2(tmp_path, capsys):
    """Resolving A/(x) over xy to length 1000000 ran past 15 s; the schema
    caps the length, and the cap itself runs."""
    path = write_session(tmp_path, _with_task({"kind": "resolve", "module": "Ax",
                                               "length": 1000000}))
    assert main(["validate", path]) == 2
    assert f"at most {MAX_RESOLVE_LENGTH}" in capsys.readouterr().err
    assert main(["run", path]) == 2
    report, code = run_session(_with_task({"kind": "resolve", "module": "Ax",
                                           "length": MAX_RESOLVE_LENGTH}))
    assert code == 0 and report["tasks"][0]["result"]["betti"] == [1] * (MAX_RESOLVE_LENGTH + 1)


def test_tor_index_above_the_cap_exits_2(tmp_path, capsys):
    """Tor_i needs the resolution to length i + 1, so i is capped one below
    the resolve length.  Uncapped, Tor_1000(k, k) over the F_32003 cubic
    fourfold ran 7.1 s on a 2-vCPU Xeon VM with Python 3.11."""
    path = write_session(tmp_path, _with_task({"kind": "tor", "left": "Ax", "right": "Ay",
                                               "i": MAX_RESOLVE_LENGTH}))
    assert main(["validate", path]) == 2
    assert f"below {MAX_RESOLVE_LENGTH}" in capsys.readouterr().err
    assert main(["run", path]) == 2
    report, code = run_session(_with_task({"kind": "tor", "left": "Ax", "right": "Ay",
                                           "i": MAX_RESOLVE_LENGTH - 1}))
    # the tail is 2-periodic: Tor_255 = Tor_1 = 0 for A/(x), A/(y) over xy
    assert code == 0 and report["tasks"][0]["result"]["value"] == 0


def test_exponent_above_the_cap_exits_2(tmp_path, capsys):
    """The cyclic module (x+y)^40000 ran past 15 s in the parser's expansion;
    the parser caps the exponent, and the cap itself runs."""
    doc = _with_task({"kind": "length", "module": "P"})
    doc["modules"]["P"] = {"cyclic": ["(x+y)^40000"]}
    path = write_session(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert f"exponent 40000 is above {MAX_EXPONENT}" in capsys.readouterr().err
    assert main(["run", path]) == 2
    doc["modules"]["P"] = {"cyclic": [f"(x+y)^{MAX_EXPONENT}"]}
    report, code = run_session(doc)
    # modulo xy, (x+y)^e = x^e + y^e, and k[x,y]/(xy, x^e + y^e) has length 2e
    assert code == 0 and report["tasks"][0]["result"] == {"value": 2 * MAX_EXPONENT}


@pytest.mark.parametrize("where", ["f", "cyclic"])
def test_a_polynomial_above_the_packed_degree_cap_exits_2(tmp_path, capsys, where):
    """Polynomials are packed as they are parsed, so a product of degree
    above MAX_PACKED_DEGREE is a schema error, caught on validate, where it
    arises: at the power of degree 32768, before x^2 multiplies it."""
    doc = _with_task({"kind": "length", "module": "P"})
    doc["modules"]["P"] = {"cyclic": ["x"]}
    if where == "f":
        doc["ring"]["f"] = "x^2*((y^64)^64)^8"
    else:
        doc["modules"]["P"]["cyclic"] = ["x^2*((x^64)^64)^8"]
    path = write_session(tmp_path, doc)
    assert main(["validate", path]) == 2
    assert f"degree 32768 is above {MAX_PACKED_DEGREE}" in capsys.readouterr().err
    assert main(["run", path]) == 2


@pytest.mark.parametrize("text", ["(" * 300 + "x" + ")" * 300, "-" * 1000 + "x"])
@pytest.mark.parametrize("where", ["f", "cyclic"])
def test_deep_nesting_exits_2(tmp_path, capsys, text, where):
    """Deep nesting in ring.f or a cyclic generator was an uncaught
    RecursionError (exit 1); the parser caps it on validate and run."""
    doc = _with_task({"kind": "length", "module": "P"})
    doc["modules"]["P"] = {"cyclic": ["x"]}
    if where == "f":
        doc["ring"] = dict(doc["ring"], f=f"x*{text}")
    else:
        doc["modules"]["P"] = {"cyclic": [text]}
    path = write_session(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, path]) == 2
        assert f"nesting depth is above {MAX_NESTING}" in capsys.readouterr().err


def test_large_prime_characteristic_runs(tmp_path):
    """2^61 - 1 used to hang in trial division."""
    doc = _with_ring(characteristic=2 ** 61 - 1)
    report, code = run_session(doc)
    assert code == 0
    assert [t["result"] for t in report["tasks"]][0] == {"value": 1}


def test_schema_error_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2


def test_math_error_reports_task_index(tmp_path):
    doc = {
        "ring": NODE_DOC["ring"],
        "modules": {"Ax": {"cyclic": ["x"]}},
        "tasks": [
            {"kind": "length", "module": "Ax"},
            {"kind": "chi", "module": "Ax", "against": "Ax"},
        ],
    }
    path = write_session(tmp_path, doc)
    out_path = tmp_path / "report.json"
    assert main(["run", path, "--json", str(out_path)]) == 3
    report = json.loads(out_path.read_text())
    failing = report["tasks"][-1]
    assert failing["index"] == 1
    assert failing["error"] == "NotFiniteLength"


def test_recursion_error_exits_3_with_the_task_index(tmp_path, monkeypatch):
    """The Hilbert numerator recurses once per generator of a monomial
    ideal; the cyclic module of the 1035 generators of (x,y,z)^44 over
    xy - zw overflows Python's recursion limit there.  Raising in its place must end the task
    with exit 3 and its index, not in a traceback."""
    import thetacas.groebner

    def overflow(gens, weights, memo):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(thetacas.groebner, "_ideal_numerator", overflow)
    doc = {
        "ring": NODE_DOC["ring"],
        "modules": {"Ax": {"cyclic": ["x"]}},
        "tasks": [{"kind": "hilbert", "module": "Ax"}],
    }
    path = write_session(tmp_path, doc)
    out_path = tmp_path / "report.json"
    assert main(["run", path, "--json", str(out_path)]) == 3
    failing = json.loads(out_path.read_text())["tasks"][-1]
    assert failing["index"] == 0
    assert failing["error"] == "RecursionError"


@pytest.mark.parametrize("characteristic, weights, relations", [
    pytest.param(p, weights, relations, id=f"{p}{label}")
    for weights, relations, label in [
        ([1, 1, 1], ["((x^64)^64)^4", "x*((z^64)^64)^4"], ""),
        ([1, 1, 2], ["((x^64)^64)^4", "x*((z^64)^64)^2"], "-weighted")]
    for p in (0, 32003)])
def test_a_degree_above_the_packed_cap_exits_3_with_the_task_index(
        tmp_path, characteristic, weights, relations):
    """Groebner terms are packed ints with a degree cap.  The relations
    x^16384 and x*z^16384 are under it, but their S-pair has degree 32768:
    the task must end in exit 3 with its index, never in a wrong order.
    So must x^16384 and x*z^8192 with z of weight 2, whose z field holds
    2 * 8192."""
    doc = {
        "ring": {"characteristic": characteristic, "variables": ["x", "y", "z"],
                 "weights": weights, "f": "x*y"},
        "modules": {"Ax": {"cyclic": ["x"]}, "H": {"cyclic": relations}},
        "tasks": [{"kind": "length", "module": "Ax"}, {"kind": "length", "module": "H"}],
    }
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 3
    tasks = json.loads(out_path.read_text())["tasks"]
    assert tasks[0]["result"] == {"value": "INFINITE"}
    assert tasks[1]["index"] == 1 and tasks[1]["error"] == "AlgebraError"
    assert "degree 32768 is above 32767" in tasks[1]["message"]


def test_a_composite_above_the_packed_cap_exits_3_with_the_task_index(tmp_path):
    """d_1 = [x^16384] and d_2 = [y^16384] over xy - z^2 are under the
    degree cap, but their composite, which a complex checks column by column
    modulo f, has degree 32768: building the complex raises AlgebraError,
    and a chi task with it ends in exit 3 with its index."""
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    complex_ = [[["((x^64)^64)^4"]], [["((y^64)^64)^4"]]]
    with pytest.raises(AlgebraError, match="above 32767"):
        FreeComplex(HypersurfaceRing(S, S.parse("x*y - z^2")), complex_)
    doc = {
        "ring": {"characteristic": 0, "variables": ["x", "y", "z"], "f": "x*y - z^2"},
        "modules": {"A": {"matrix": [[]]}},
        "tasks": [{"kind": "length", "module": "A"},
                  {"kind": "chi", "complex": complex_, "against": "A"}],
    }
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 3
    tasks = json.loads(out_path.read_text())["tasks"]
    assert tasks[0]["result"] == {"value": "INFINITE"}
    assert tasks[1]["index"] == 1 and tasks[1]["error"] == "AlgebraError"


QUADRIC_SOP_KOSZUL = [
    [["x", "y", "u - v"]],
    [["-y", "-u + v", "0"], ["x", "0", "-u + v"], ["0", "x", "y"]],
    [["u - v"], ["-y"], ["x"]],
]


def test_chi_of_a_complex_runs(tmp_path):
    """The Koszul complex on the system of parameters x, y, u - v of the
    quadric: chi against A is l(A/(x, y, u - v)) = 2."""
    doc = {
        "ring": {"characteristic": 0, "variables": ["x", "y", "u", "v"], "f": "x*y - u*v"},
        "modules": {"A": {"matrix": [[]]}},
        "tasks": [{"kind": "chi", "complex": QUADRIC_SOP_KOSZUL, "against": "A"}],
    }
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["tasks"][0]["result"] == {"value": 2}


def test_chi_of_an_inhomogeneous_complex_exits_3(tmp_path):
    doc = _with_task({"kind": "length", "module": "Ax"})
    doc["tasks"].append({"kind": "chi", "complex": [[["x", "y"], ["y", "x^2"]]],
                         "against": "Ax"})
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 3
    failing = json.loads(out_path.read_text())["tasks"][-1]
    assert failing["index"] == 1 and failing["error"] == "InhomogeneousError"


@pytest.mark.parametrize("matrix", [[["x"], ["y", "x"]], [["x", "y"], ["x"]]],
                         ids=["longer_row", "shorter_row"])
def test_chi_of_a_ragged_complex_exits_3(tmp_path, matrix):
    """A longer second row ended in a KeyError traceback (exit 1)."""
    doc = _with_task({"kind": "chi", "complex": [matrix], "against": "Ax"})
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 3
    failing = json.loads(out_path.read_text())["tasks"][0]
    assert failing["error"] == "ValueError" and "rows of different lengths" in failing["message"]


def _lopsided(alpha, beta, registry):
    return 1 if alpha.items() < beta.items() else 0


LOPSIDED_DOC = {
    "ring": NODE_DOC["ring"],
    "modules": NODE_DOC["modules"],
    "tasks": [{"kind": "gram", "classes": ["Ax", "Ay"]}],
}


def test_asymmetric_gram_exits_3(tmp_path, monkeypatch):
    import thetacas.numeq as numeq

    monkeypatch.setattr(numeq, "theta_class", _lopsided)
    path = write_session(tmp_path, LOPSIDED_DOC)
    out_path = tmp_path / "report.json"
    assert main(["run", path, "--audit", "--json", str(out_path)]) == 3
    failing = json.loads(out_path.read_text())["tasks"][-1]
    assert failing["index"] == 0
    assert failing["error"] == "AsymmetricGram"


def test_gram_without_audit_mirrors_the_upper_triangle(tmp_path, monkeypatch):
    """Without --audit only (i, j) with j >= i is computed: the lopsided
    pairing's upper triangle, mirrored, and exit 0."""
    import thetacas.numeq as numeq

    monkeypatch.setattr(numeq, "theta_class", _lopsided)
    path = write_session(tmp_path, LOPSIDED_DOC)
    out_path = tmp_path / "report.json"
    assert main(["run", path, "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["tasks"][0]["result"]["matrix"] == [[0, 1], [1, 0]]


def test_mf_of_a_module_with_a_redundant_relation(tmp_path):
    """A/(x, x^2) is A/(x) over the node; its matrix factorization is x, y."""
    doc = {
        "ring": NODE_DOC["ring"],
        "modules": {"M": {"cyclic": ["x", "x^2"]}},
        "tasks": [{"kind": "mf", "module": "M"}],
    }
    out_path = tmp_path / "report.json"
    assert main(["run", write_session(tmp_path, doc), "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["tasks"][0]["result"]["size"] == 1


def test_io_error(capsys):
    assert main(["run", "/no/such/file.json"]) == 1
    assert "I/O" in capsys.readouterr().err
