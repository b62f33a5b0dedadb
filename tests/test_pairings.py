"""Theta pairing, Euler characteristics, local lengths, divisor classes."""

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacas import (
    INFINITE,
    ClassExpression,
    FieldSpec,
    HypersurfaceRing,
    ModulePresentation,
    PolynomialRing,
    c1_torsion,
    chi_complex,
    chi_modules,
    dual_module,
    ext_module,
    finite_pd,
    koszul_complex,
    length,
    local_length_at_prime,
    present_cyclic,
    syzygy_of,
    theta,
    theta_class,
)
from thetacas.errors import (
    DimensionMismatch,
    InfiniteLength,
    InhomogeneousError,
    NonIsolatedSingularity,
    NotFiniteLength,
    NotFinitePd,
    NotStabilized,
)
from thetacas.cli import build_environment
from thetacas.homology import (
    _cokernel_series,
    extract_matrix_factorization,
    minimal_resolution,
    reduce_mod_f,
    tor_length,
)
from thetacas.pairings import FreeComplex, MultiplicityAuditWarning, _tjurina_number
from oracles import direct_sum, homology_chi, subquotient_local_length

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# lengths


def test_length_examples(node, S2):
    assert length(present_cyclic(node, ["x", "y"])) == 1
    assert length(ModulePresentation.cyclic(S2, ["x^2", "x*y", "y^3"])) == 4
    assert length(present_cyclic(node, ["x"])) is INFINITE


# ---------------------------------------------------------------------------
# theta


def test_theta_node_table(node_modules):
    Ax, Ay = node_modules["Ax"], node_modules["Ay"]
    assert theta(Ax, Ay) == 1
    assert theta(Ax, Ax) == -1
    assert theta(Ay, Ay) == -1


def test_theta_quadric_table(quadric_modules):
    Ap, Aq = quadric_modules["Ap"], quadric_modules["Aq"]
    assert theta(Ap, Aq) == -1
    assert theta(Ap, Ap) == 1
    assert theta(Aq, Aq) == 1


def test_theta_a1_surface_vanishes(a1, a1_modules):
    mods = dict(a1_modules)
    mods["W1"] = syzygy_of(a1_modules["Axz"], 1)
    names = list(mods)
    for a in names:
        for b in names:
            assert theta(mods[a], mods[b]) == 0


def test_theta_builds_one_cokernel_basis_per_pair(monkeypatch, quadric):
    """A new pair costs theta one cokernel basis (C_s) and two Hilbert
    numerators (C_s and the right module), with no homology computed and
    the left module resolved to length s + 1, the source index of its matrix
    factorization, with s syzygy bases read, the right one not at all.
    The value is remembered on the left module: a repeated pair computes
    nothing.  Against a new right module, an already resolved left module
    reads no syzygy basis off a resolution step."""
    import thetacas.groebner as groebner
    import thetacas.homology as homology
    import thetacas.pairings as pairings

    _tjurina_number(quadric)  # once per ring, before any pair
    Ap = present_cyclic(quadric, ["x", "u"])
    Aq = present_cyclic(quadric, ["x", "v"])
    counted = ((homology, "hilbert_numerator"), (groebner.NakayamaSelection, "syzygies"),
               (pairings, "_cokernel_series"))
    calls = {name: 0 for _owner, name in counted}
    for owner, name in counted:
        def counting(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    first = theta(Ap, Aq)
    s = Ap._mf.source_index
    assert s == 2
    assert calls["hilbert_numerator"] == 2
    assert calls["_cokernel_series"] == 1
    assert calls["syzygies"] == s
    assert len(Ap._res_degs) == s + 2
    assert Aq._res_degs == []
    calls.update(dict.fromkeys(calls, 0))
    assert theta(Ap, Aq) == first
    assert not any(calls.values())
    assert (-1) ** s * (tor_length(Ap, Aq, s) - tor_length(Ap, Aq, s + 1)) == first
    assert len(Ap._res_degs) == s + 3  # Tor_(s+1) reads d_(s+2), no further
    calls.update(dict.fromkeys(calls, 0))
    theta(Ap, present_cyclic(quadric, ["y", "u"]))
    assert calls == {"hilbert_numerator": 2, "syzygies": 0, "_cokernel_series": 1}
    theta(Aq, Ap)  # a new left module computes its own resolution
    assert calls["syzygies"]


def test_theta_needs_a_hypersurface_ring(S2):
    M = present_cyclic(S2, ["x"])
    with pytest.raises(ValueError, match="hypersurface"):
        theta(M, present_cyclic(S2, ["y"]))


def test_theta_against_free_module(node, node_modules, quadric, quadric_modules):
    assert theta(node_modules["Ax"], ModulePresentation.free(node)) == 0
    assert theta(quadric_modules["Ap"], ModulePresentation.free(quadric)) == 0


def test_theta_symmetry(node_modules, quadric_modules):
    for mods in (node_modules, quadric_modules):
        items = list(mods.values())
        for M in items:
            for N in items:
                assert theta(M, N) == theta(N, M)


def test_theta_shift_antisymmetry(node_modules, quadric_modules):
    pairs = [
        (node_modules["Ax"], node_modules["Ay"]),
        (node_modules["Ax"], node_modules["Ax"]),
        (quadric_modules["Ap"], quadric_modules["Aq"]),
        (quadric_modules["Ap"], quadric_modules["Ap"]),
    ]
    for M, N in pairs:
        assert theta(syzygy_of(M, 1), N) == -theta(M, N)


def test_theta_direct_sum_additivity(node_modules, quadric_modules):
    for mods, probe in (
        (node_modules, "Ay"),
        (quadric_modules, "Aq"),
    ):
        names = [n for n in mods if n != probe][:2]
        M, Mp = mods[names[0]], mods[names[1] if len(names) > 1 else names[0]]
        N = mods[probe]
        assert theta(direct_sum(M, Mp), N) == theta(M, N) + theta(Mp, N)


def test_theta_dimension_vanishing(quadric):
    M = present_cyclic(quadric, ["x", "u"])  # dim 2
    N = present_cyclic(quadric, ["x", "u", "v"])  # dim 1
    assert theta(M, N) == 0


def fresh(M):
    """A new presentation of M, with nothing theta left on M."""
    return ModulePresentation(M.ring, M.rows, gen_degrees=M.gen_degrees)


def test_theta_mcm_shortcut(quadric, quadric_modules):
    M = syzygy_of(quadric_modules["Ap"], 4)  # stable syzygy, hence MCM
    N = quadric_modules["Aq"]
    expected = theta(M, N)
    M, N = fresh(M), fresh(N)
    assert tor_length(M, N, 2) - tor_length(M, N, 1) == expected


def test_theta_checks_the_degree_shift_of_the_periodic_tail(quadric):
    """theta relies on F_{s+1} = F_{s-1} shifted by deg f; a resolution
    that breaks it raises, under python -O too."""
    M = present_cyclic(quadric, ["x", "u"])
    N = present_cyclic(quadric, ["x", "v"])
    s = extract_matrix_factorization(minimal_resolution(M, quadric.dimension + 3)).source_index
    M._res_degs[s + 1] = [deg + 1 for deg in M._res_degs[s + 1]]
    with pytest.raises(NotStabilized, match=f"F_{s + 1}"):
        theta(M, N)


WITNESS_SESSIONS = {
    name: ROOT / "sessions" / f"{name}.json" for name in ("node", "a1_surface", "quadric")
} | {
    name: ROOT / "tests" / "data" / "sessions" / f"{name}.json"
    for name in ("cubic_threefold", "fp_e7_surface")
}


@pytest.mark.parametrize("name", list(WITNESS_SESSIONS))
def test_the_cokernel_two_steps_on_is_the_shifted_one(name):
    """The periodicity theta relies on, built honestly: on every pair of the
    session's modules, C_{s+2} = coker(d_{s+2} (x) N), read off a resolution
    grown to s + 2, has the series t^(deg f) * HS(C_s), and F_{s+1} has the
    generator degrees of F_{s-1} shifted by deg f."""
    env, errors = build_environment(json.loads(WITNESS_SESSIONS[name].read_text()))
    assert not errors
    deg_f = env.ring.f.weighted_degree()
    for M in env.modules.values():
        mf = extract_matrix_factorization(minimal_resolution(M, env.ring.dimension + 3))
        s = mf.source_index
        res = minimal_resolution(M, s + 2)
        assert sorted(res.gen_degrees(s + 1)) == sorted(
            deg + deg_f for deg in res.gen_degrees(s - 1))
        for N in env.modules.values():
            c_s = _cokernel_series(res.differential_columns(s), res.gen_degrees(s - 1), N)
            c_s2 = _cokernel_series(res.differential_columns(s + 2),
                                    res.gen_degrees(s + 1), N)
            assert c_s2 == {deg + deg_f: c for deg, c in c_s.items()}


def test_theta_nonisolated_singularity_raises():
    S = PolynomialRing(FieldSpec(0), ["x", "y"])
    A = HypersurfaceRing(S, S.parse("x^2"))
    M = present_cyclic(A, ["x"])
    with pytest.raises(NonIsolatedSingularity):
        theta(M, M)


def test_theta_char2_a1_surface_unchanged():
    # determined empirically: the golden values survive characteristic 2
    S = PolynomialRing(FieldSpec(2), ["x", "y", "z"])
    A = HypersurfaceRing(S, S.parse("x*y - z^2"))
    Axz = present_cyclic(A, ["x", "z"])
    Azy = present_cyclic(A, ["z", "y"])
    assert theta(Axz, Azy) == 0
    assert theta(Axz, Axz) == 0


def test_theta_char5_crosscheck():
    S = PolynomialRing(FieldSpec(5), ["x", "y", "u", "v"])
    A = HypersurfaceRing(S, S.parse("x*y - u*v"))
    Ap = present_cyclic(A, ["x", "u"])
    Aq = present_cyclic(A, ["x", "v"])
    assert theta(Ap, Aq) == -1
    assert theta(Ap, Ap) == 1


def window_theta(M, N):
    """Oracle: Tor_{2e+1..2e+4} for the least e with 2e >= d, checked to be
    2-periodic; returns l(Tor_{2e+2}) - l(Tor_{2e+1}).  It reads tor_length
    on new presentations, so nothing theta left on M is reused."""
    M, N = fresh(M), fresh(N)
    d = M.ring.dimension
    base = 2 * ((d + 1) // 2)
    t = {i: tor_length(M, N, i) for i in range(base + 1, base + 5)}
    assert t[base + 1] == t[base + 3] and t[base + 2] == t[base + 4], t
    return t[base + 2] - t[base + 1]


@pytest.mark.parametrize(
    "variables, f, characteristic, weights, generators",
    [
        (["x", "y"], "x*y", 0, None, [["x"], ["x", "y"], ["x + y"]]),
        (["x", "y", "z"], "x*y - z^2", 0, None, [["x", "z"], ["x", "y", "z"], ["x + y"]]),
        (["x", "y", "u", "v"], "x*y - u*v", 0, None, [["x", "u"], ["x", "v"], ["x", "y"]]),
        (["x", "y", "u", "v"], "x*y - u*v", 5, None, [["x", "u"], ["x", "v"]]),
        (["x", "y", "z"], "x^2 + y^3 + z^5", 0, [15, 10, 6], [["x", "y", "z"], ["y"]]),
    ],
    ids=["node", "a1_surface", "quadric", "quadric_f5", "e8_surface"],
)
def test_theta_matches_the_tor_window(variables, f, characteristic, weights, generators):
    """The MF route agrees with the four-Tor window on both sides, over cyclic
    modules (one of finite projective dimension), the free module and the
    first syzygy of the first module."""
    S = PolynomialRing(FieldSpec(characteristic), variables, weights)
    A = HypersurfaceRing(S, S.parse(f))
    mods = [present_cyclic(A, g) for g in generators]
    mods += [ModulePresentation.free(A), syzygy_of(mods[0], 1)]
    for i, M in enumerate(mods):
        for N in mods[i:]:
            assert theta(M, N) == window_theta(M, N)
            assert theta(N, M) == window_theta(N, M)


def test_syzygy_dual_probe_identity(node, quadric, node_modules, quadric_modules):
    """(-1)^l theta(dual(Omega^l N), T) = sum_i (-1)^i theta(Ext^i(N, A), T)."""
    corpora = [
        (node, [node_modules["Ax"], node_modules["k"]], [node_modules["Ay"]]),
        (quadric, [quadric_modules["Ap"]], [quadric_modules["Aq"]]),
    ]
    for _ring, corpus, probes in corpora:
        for N in corpus:
            for l in range(3):
                lhs_mod = dual_module(syzygy_of(N, l))
                exts = [ext_module(N, i) for i in range(l + 1)]
                for T in probes:
                    lhs = (-1) ** l * theta(lhs_mod, T)
                    rhs = sum((-1) ** i * theta(E, T) for i, E in enumerate(exts))
                    assert lhs == rhs


def test_theta_depends_only_on_divisor_class(quadric, quadric_modules):
    """Corpus modules with equal c1 pair equally against every probe."""
    Ap, Aq, Ax = (quadric_modules[n] for n in ("Ap", "Aq", "Ax"))
    primes = [("p", ["x", "u"]), ("q", ["x", "v"])]
    summed = direct_sum(Ap, Aq)
    assert c1_torsion(Ax, primes) == c1_torsion(summed, primes)
    for T in (Ap, Aq):
        assert theta(Ax, T) == theta(summed, T)


# ---------------------------------------------------------------------------
# theta on classes


def test_theta_class_examples(node_modules, quadric_modules):
    assert theta_class(
        ClassExpression.of("Ax", "Ay"), ClassExpression.of("Ax"), node_modules
    ) == 0
    assert theta_class(ClassExpression.of(), ClassExpression.of("Ax"), node_modules) == 0
    assert theta_class(
        ClassExpression.of(("Ap", 1), ("Aq", -1)),
        ClassExpression.of("Ap"),
        quadric_modules,
    ) == 2


def test_class_expression_canonical_form():
    a = ClassExpression.of(("M", 1), ("M", 2), ("N", 0))
    assert a.items() == [("M", 3)]
    assert (a + (-a)).items() == []


# ---------------------------------------------------------------------------
# Euler characteristics


def test_chi_complex_koszul(S2):
    K = koszul_complex(S2, ["x", "y"])
    registry = {
        "S": ModulePresentation.free(S2),
        "Sx": ModulePresentation.cyclic(S2, ["x"]),
    }
    assert chi_complex(K, ClassExpression.of("S"), registry) == 1
    assert chi_complex(K, ClassExpression.of("Sx"), registry) == 0
    assert chi_complex(K, ClassExpression.of(), registry) == 0


def test_chi_complex_shift_flips_sign(S2):
    K = koszul_complex(S2, ["x", "y"])
    registry = {"S": ModulePresentation.free(S2)}
    alpha = ClassExpression.of("S")
    assert chi_complex(K.shifted(), alpha, registry) == -chi_complex(K, alpha, registry)


def test_chi_complex_additive_in_class(S2):
    K = koszul_complex(S2, ["x", "y"])
    registry = {
        "S": ModulePresentation.free(S2),
        "k": ModulePresentation.cyclic(S2, ["x", "y"]),
    }
    a, b = ClassExpression.of("S"), ClassExpression.of("k")
    assert chi_complex(K, a + b, registry) == (
        chi_complex(K, a, registry) + chi_complex(K, b, registry)
    )


def test_chi_complex_matches_the_homology_route(S2, quadric):
    """chi read off cokernel series equals the alternating sum of the lengths
    of the presented homology, on Koszul complexes, shifted ones, and a
    system of parameters x, y, u - v of the quadric (chi(A) = l(A/(x,y,u-v))
    = 2)."""
    cases = [
        (koszul_complex(S2, ["x", "y"]),
         [ModulePresentation.free(S2), ModulePresentation.cyclic(S2, ["x"]),
          ModulePresentation.cyclic(S2, ["x^2", "y"])]),
        (koszul_complex(S2, ["x*y", "x^2 + y^2"]),
         [ModulePresentation.free(S2), ModulePresentation.cyclic(S2, ["y"])]),
        (koszul_complex(quadric, ["x", "y", "u - v"]),
         [ModulePresentation.free(quadric), present_cyclic(quadric, ["x", "u"]),
          present_cyclic(quadric, ["x", "y", "u", "v"])]),
    ]
    for K, modules in cases:
        for F in (K, K.shifted()):
            for N in modules:
                registry = {"N": N}
                chi = chi_complex(F, ClassExpression.of("N"), registry)
                assert chi == homology_chi(F, N)
    sop = koszul_complex(quadric, ["x", "y", "u - v"])
    A = {"A": ModulePresentation.free(quadric)}
    assert chi_complex(sop, ClassExpression.of("A"), A) == 2
    assert chi_complex(sop.shifted(), ClassExpression.of("A"), A) == -2


def test_chi_complex_keeps_its_infinite_length_message(S2):
    K = koszul_complex(S2, ["x", "x*y"])
    with pytest.raises(InfiniteLength, match="^H_0 of the complex tensored with S has infinite length$"):
        chi_complex(K, ClassExpression.of("S"), {"S": ModulePresentation.free(S2)})


def test_free_complex_degrees(S2, node):
    K = koszul_complex(S2, ["x", "y^2"])
    assert K.degrees == [(0,), (1, 2), (3,)]
    assert K.shifted().degrees == [(), (0,), (1, 2), (3,)]
    # x*y vanishes over the node, so it does not constrain the degrees
    F = FreeComplex(node, [[["x", "x*y"]]])
    assert F.matrices[0][0][1].is_zero() and F.degrees == [(0,), (1, 0)]
    with pytest.raises(InhomogeneousError):
        FreeComplex(S2, [[["x", "y"], ["y", "x^2"]]])


def test_free_complex_composites_must_vanish_over_the_ring(S2, node):
    """d_1 d_2 is checked modulo f, column by column of d_2."""
    assert FreeComplex(node, [[["x"]], [["y"]], [["x"]]]).length == 3
    koszul = [[["x", "y^2"]], [["-y^2"], ["x"]]]
    assert FreeComplex(S2, koszul).length == 2
    for ring, matrices in ((node, [[["x"]], [["x"]]]),
                           (node, [[["x"]], [["y"]], [["y"]]]),
                           (S2, [[["x", "y^2"]], [["-y^2", "y"], ["x", "x"]]])):
        with pytest.raises(ValueError, match="does not vanish"):
            FreeComplex(ring, matrices)


def test_polynomials_from_another_ring_are_rejected(node, quadric):
    """A polynomial over another ambient ring, with one more variable or over
    another field, raises where it enters a presentation (cyclic or by
    matrix), a free or Koszul complex, or a cyclic prime, instead of being
    read as one of this ring's: z as 1, an F_5 coefficient as rational."""
    T = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    F5 = PolynomialRing(FieldSpec(5), ["x", "y"])
    Tq = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v", "z"])
    entries = [
        lambda: length(present_cyclic(node, [T.parse("z"), T.parse("x + y")])),
        lambda: theta(present_cyclic(node, [T.parse("x*z")]), present_cyclic(node, ["x"])),
        lambda: present_cyclic(node, [F5.parse("3*x")]),
        lambda: ModulePresentation(node, [[T.parse("x"), "y"]]),
        lambda: reduce_mod_f(F5.parse("x"), node),
        lambda: FreeComplex(node, [[[T.parse("z")]]]),
        lambda: koszul_complex(node, [F5.parse("x")]),
        lambda: local_length_at_prime(present_cyclic(quadric, ["x"]),
                                      [Tq.parse("x"), Tq.parse("u")]),
    ]
    for entry in entries:
        with pytest.raises(ValueError, match="^polynomial not over this ring$"):
            entry()


def test_chi_modules_examples(node, S2):
    k_reg = ModulePresentation.cyclic(S2, ["x", "y"])
    assert chi_modules(k_reg, ModulePresentation.free(S2)) == 1

    N0 = present_cyclic(node, ["x + y"])
    assert chi_modules(N0, present_cyclic(node, ["x"])) == 1
    assert chi_modules(N0, ModulePresentation.free(node)) == 2


def test_chi_modules_reads_each_series_once(monkeypatch, quadric):
    """chi(A/(x,y,u+v), A/(x,u)) over the quadric (pd 3) reads six distinct
    series: N0's own, C_1..C_4 and that of A/(x,u), each once."""
    import thetacas.homology as homology

    N0 = present_cyclic(quadric, ["x", "y", "u + v"])
    M = present_cyclic(quadric, ["x", "u"])
    calls = []
    numerator = homology.hilbert_numerator

    def counting_numerator(G, shifts=None):
        calls.append(G)
        return numerator(G, shifts)

    monkeypatch.setattr(homology, "hilbert_numerator", counting_numerator)
    assert chi_modules(N0, M) == 0
    assert len(calls) == 6
    assert chi_modules(N0, ModulePresentation.free(quadric)) == length(N0) == 2


def test_chi_modules_preconditions(node, node_modules):
    with pytest.raises(NotFiniteLength):
        chi_modules(node_modules["Ax"], node_modules["Ay"])
    with pytest.raises(NotFinitePd):
        chi_modules(node_modules["k"], node_modules["Ax"])


def test_finite_pd_examples(node):
    assert finite_pd(ModulePresentation.free(node)) == 0
    assert finite_pd(present_cyclic(node, ["x", "y"])) is None
    assert finite_pd(present_cyclic(node, ["x + y"])) == 1


# ---------------------------------------------------------------------------
# local lengths and c1


def test_local_length_examples(quadric):
    p = ["x", "u"]
    assert local_length_at_prime(present_cyclic(quadric, p), p) == 1
    assert local_length_at_prime(present_cyclic(quadric, ["x"]), p) == 1
    p_sq = ["x^2", "x*u", "u^2"]
    assert local_length_at_prime(present_cyclic(quadric, p_sq), p) == 2


def test_local_length_matches_the_subquotient_route(quadric):
    p = ["x", "u"]
    modules = [
        present_cyclic(quadric, p),
        present_cyclic(quadric, ["x"]),
        present_cyclic(quadric, ["x^2", "x*u", "u^2"]),
        ModulePresentation(quadric, [["x", "u"], ["0", "x"]]),
    ]
    lengths = [local_length_at_prime(M, p) for M in modules]
    assert lengths == [subquotient_local_length(M, p) for M in modules]
    assert lengths == [1, 1, 2, 2]


def test_c1_and_chi_compute_no_syzygies(monkeypatch, S2, quadric):
    """c1's local lengths and chi of a complex are read off cokernel bases:
    no syzygy module is computed, by syzygies_over or by a resolution step."""
    import thetacas.groebner as groebner
    import thetacas.homology as homology

    calls = []
    for owner, name in ((homology, "syzygies_over"), (groebner.NakayamaSelection, "syzygies")):
        def counting(*args, _real=getattr(owner, name)):
            calls.append(args)
            return _real(*args)

        monkeypatch.setattr(owner, name, counting)
    primes = [("p", ["x", "u"]), ("q", ["x", "v"])]
    Ax = present_cyclic(quadric, ["x"])
    assert c1_torsion(Ax, primes).items() == [("p", 1), ("q", 1)]
    M = ModulePresentation(quadric, [["x", "u"], ["0", "x"]])
    assert c1_torsion(M, primes).items() == [("p", 2), ("q", 2)]
    K = koszul_complex(quadric, ["x", "y", "u - v"])
    registry = {"A": ModulePresentation.free(quadric), "Ax": Ax}
    assert chi_complex(K, ClassExpression.of("A", "Ax"), registry) == 2
    assert calls == []


def test_local_length_dimension_mismatch(quadric):
    with pytest.raises(DimensionMismatch):
        local_length_at_prime(
            present_cyclic(quadric, ["x"]), ["x", "u", "v"]
        )


def test_c1_examples(quadric, quadric_modules):
    primes = [("p", ["x", "u"]), ("q", ["x", "v"])]
    assert c1_torsion(quadric_modules["Ap"], primes).items() == [("p", 1)]
    assert c1_torsion(quadric_modules["Ax"], primes).items() == [("p", 1), ("q", 1)]
    k = present_cyclic(quadric, ["x", "y", "u", "v"])
    assert c1_torsion(k, primes).is_zero()


def test_c1_rejects_non_torsion(quadric):
    with pytest.raises(Exception):
        c1_torsion(ModulePresentation.free(quadric), [("p", ["x", "u"])])


def test_c1_audit_warns_on_missing_component(quadric, quadric_modules):
    with pytest.warns(MultiplicityAuditWarning):
        c1_torsion(quadric_modules["Ax"], [("p", ["x", "u"])])


def test_theta_sees_each_infinite_tor_length():
    """Over xy in k[x,y,z], Tor_1(A/(x), A/(x) + A/(y)) has infinite length
    (s = 1).  The difference HS(Tor_1) - HS(Tor_2) = t has no pole, and theta
    read off it would be -1; the ring's certificate, an infinite Tjurina
    number, makes theta raise first."""
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    A = HypersurfaceRing(S, S.parse("x*y"))
    M = present_cyclic(A, ["x"])
    N = direct_sum(M, present_cyclic(A, ["y"]))
    with pytest.raises(NonIsolatedSingularity):
        theta(M, N)


def test_theta_raises_on_a_nonisolated_ring_even_with_finite_tors():
    """Theta needs an isolated singularity, whatever the pair: over xy in
    k[x,y,z], theta(A/(x), k) raises, though both of its Tor lengths are
    finite (l(Tor_i(A/(x), k)) = 1 for i >= 1)."""
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    A = HypersurfaceRing(S, S.parse("x*y"))
    M, k = present_cyclic(A, ["x"]), present_cyclic(A, ["x", "y", "z"])
    assert tor_length(M, k, 1) == tor_length(M, k, 2) == 1
    with pytest.raises(NonIsolatedSingularity, match="Tjurina number is infinite"):
        theta(M, k)


# ---------------------------------------------------------------------------
# the isolated-singularity certificate


def milnor_orlik(f, weights):
    """prod_i (deg f / w_i - 1): the Milnor number of an isolated
    weighted-homogeneous singularity (Milnor and Orlik 1970)."""
    return math.prod(Fraction(f.weighted_degree(), w) - 1 for w in weights)


def partials(f):
    """The partial derivatives df/dx_i, over the ring of f."""
    S = f.ring
    return [S.from_dict({m[:i] + (m[i] - 1,) + m[i + 1:]: m[i] * c
                         for m, c in f.coeffs.items() if m[i]})
            for i in range(S.nvars)]


@pytest.mark.parametrize(
    "variables, f, characteristic, weights, tau",
    [
        ("xy", "x*y", 0, None, 1),
        ("xyz", "x*y - z^2", 0, None, 1),
        ("xyuv", "x*y - u*v", 0, None, 1),
        ("xyzw", "x^3 + y^3 + z^3 + w^3", 0, None, 16),
        ("xyzwu", "x^3 + y^3 + z^3 + w^3 + u^3", 32003, None, 32),
        ("xyz", "x^2 + y^3 + y*z^3", 32003, [9, 6, 4], 7),
        ("xyzw", "x^2 + y^3 + z^5 + w^2", 32003, [15, 10, 6, 15], 8),
    ],
    ids=["node", "a1_surface", "quadric", "cubic_threefold", "fp_cubic_fourfold",
         "fp_e7_surface", "fp_e8_threefold"],
)
def test_tjurina_number_is_the_milnor_orlik_product(variables, f, characteristic, weights, tau):
    """On the benchmark rings tau = mu (Saito 1971) = prod(deg f / w_i - 1),
    and it is kept on the ring."""
    S = PolynomialRing(FieldSpec(characteristic), list(variables), weights)
    A = HypersurfaceRing(S, S.parse(f))
    assert _tjurina_number(A) == milnor_orlik(A.f, S.weights) == tau
    assert A._tjurina == tau


def test_tjurina_ideal_keeps_f_in_characteristic_2():
    """xy - z^2 over F_2 is the A1 surface, an isolated singularity, and
    tau = l(S/(xy - z^2, y, x)) = 2.  Its Milnor ideal (y, x, 2z) = (x, y)
    has infinite colength, since df/dz = 0."""
    S = PolynomialRing(FieldSpec(2), ["x", "y", "z"])
    A = HypersurfaceRing(S, S.parse("x*y - z^2"))
    assert _tjurina_number(A) == 2
    milnor = partials(A.f)
    assert milnor[2].is_zero()
    assert length(ModulePresentation.cyclic(S, milnor)) is INFINITE


@pytest.mark.parametrize(
    "variables, f, characteristic",
    [("xyz", "x*y", 0), ("xyzw", "x^3 + y^3 + z^3 + w^3", 3)],
    ids=["xy_in_three_variables", "fermat_cubic_threefold_f3"],
)
def test_tjurina_number_of_a_nonisolated_ring_is_infinite(variables, f, characteristic):
    """xy is singular along the z-axis; over F_3 every partial of the Fermat
    cubic vanishes, so S/(f) is singular everywhere."""
    S = PolynomialRing(FieldSpec(characteristic), list(variables))
    assert _tjurina_number(HypersurfaceRing(S, S.parse(f))) is INFINITE


GRADINGS = ([((1, 1), d) for d in (2, 3, 4, 5)] + [((1, 1, 1), d) for d in (2, 3, 4)]
            + [((1, 1, 1, 1), 2), ((1, 1, 1, 1), 3), ((1, 2), 4), ((1, 2), 5), ((2, 3), 7),
               ((2, 3), 12), ((1, 1, 2), 4), ((1, 2, 3), 6), ((1, 2, 2), 5), ((2, 3, 4), 12)])


@st.composite
def weighted_forms(draw):
    """A random form of a drawn weighted degree over Q: every monomial of
    that degree with a coefficient in -2..2, not all zero.  Whether it is
    isolated is left to chance."""
    weights, degree = draw(st.sampled_from(GRADINGS))
    monos = [m for m in itertools.product(*(range(degree // w + 1) for w in weights))
             if sum(w * e for w, e in zip(weights, m)) == degree]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(monos), max_size=len(monos))
                  .filter(any))
    return weights, dict(zip(monos, coeffs))


@given(weighted_forms())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_tjurina_number_of_random_forms(form):
    """Rings are kept by the certificate, not filtered: whenever tau is
    finite it is the Milnor-Orlik product, and a product that is not an
    integer comes with tau = INFINITE.  Over Q the Euler relation puts f in
    the Milnor ideal, so tau = l(S/(df/dx_i)) on both sides (Saito 1971)."""
    weights, coeffs = form
    S = PolynomialRing(FieldSpec(0), [f"x{i}" for i in range(len(weights))], weights)
    A = HypersurfaceRing(S, S.from_dict(coeffs))
    tau, mu = _tjurina_number(A), milnor_orlik(A.f, weights)
    assert tau == length(ModulePresentation.cyclic(S, partials(A.f)))
    if mu.denominator != 1:
        assert tau is INFINITE
    if tau is not INFINITE:
        assert tau == mu
