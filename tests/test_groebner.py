"""Module Groebner bases, normal forms, syzygies, staircases, Hilbert data."""

import itertools
import json
import math
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from thetacas import INFINITE, FieldSpec, PolynomialRing
from thetacas.errors import AlgebraError
from thetacas.groebner import (
    _series_at_one,
    _tpoly_axpy,
    GroebnerBasis,
    GroebnerBuilder,
    groebner_basis,
    finite_colength,
    hilbert_numerator,
    normal_form_vec,
    series_length,
    series_value,
)
from thetacas.homology import ModulePresentation, module_multiplicity
from thetacas.matrices import divide_exactly, graded_inverse, mat_vec
from thetacas.ring import MAX_PACKED_DEGREE
from oracles import (
    basis_leads,
    basis_of_vectors,
    columns_as_vectors,
    free_module,
    freeze_vec,
    mat_mul,
    mono_div,
    mono_divides,
    mono_lcm,
    monomials,
    normal_form,
    pack_vector,
    quotient_dimension,
    reduce_with_representation,
    seeded_basis,
    series_at_one_by_division,
    series_coefficients,
    staircase_count,
    syzygy_basis,
    term_key,
    tpoly_div_1mt,
    tpoly_sub,
    tuple_hilbert_numerator,
    unpack_vector,
    unpacked_vectors,
    vec_axpy,
    vec_from_polys,
    vec_lead,
    vec_shift_components,
    vectors_to_rows,
)

SESSIONS = Path(__file__).resolve().parent.parent / "sessions"


def ring2(characteristic=0):
    return PolynomialRing(FieldSpec(characteristic), ["x", "y"])


def ideal_gb(R, *gens):
    vectors = [vec_from_polys([R.parse(g)]) for g in gens]
    return basis_of_vectors(vectors, R, 1)


def gb_polys(R, G):
    out = []
    for v in unpacked_vectors(G, R):
        out.append(R.from_dict({m: c for (_comp, m), c in v}))
    return out


# ---------------------------------------------------------------------------
# basis examples


def test_gb_linear_pair_reduces_to_variables():
    R = ring2()
    G = ideal_gb(R, "x + y", "x - y")
    assert gb_polys(R, G) == [R.parse("x"), R.parse("y")]


def test_gb_principal_is_unchanged():
    R = ring2()
    G = ideal_gb(R, "x*y")
    assert gb_polys(R, G) == [R.parse("x*y")]


def test_gb_one_buchberger_step():
    R = ring2()
    G = ideal_gb(R, "x^2", "x*y")
    assert gb_polys(R, G) == [R.parse("x^2"), R.parse("x*y")]


def test_gb_empty_input():
    R = ring2()
    G = basis_of_vectors([], R, 1)
    assert unpacked_vectors(G, R) == ()


def test_gb_determinism_across_equal_rings():
    gens = ["x^2*y - y", "x*y^2 - x", "y^3 - x^2"]
    results = []
    for _ in range(2):
        R = ring2()
        results.append(tuple(str(p) for p in gb_polys(R, ideal_gb(R, *gens))))
    assert results[0] == results[1]


# ---------------------------------------------------------------------------
# normal forms


def test_normal_form_examples():
    R = ring2()
    G = ideal_gb(R, "x*y")
    assert not normal_form(vec_from_polys([R.parse("x^2*y")]), G, R)

    Gx = ideal_gb(R, "x")
    r = normal_form(vec_from_polys([R.parse("x + y")]), Gx, R)
    assert r == vec_from_polys([R.parse("y")])


def test_normal_form_respects_grevlex_lead():
    R = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
    G = ideal_gb(R, "x*y - u*v")
    r = normal_form(vec_from_polys([R.parse("x*y")]), G, R)
    assert r == vec_from_polys([R.parse("u*v")])


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_normal_form_idempotent_and_membership(data):
    R = ring2()
    gens = data.draw(
        st.lists(
            st.sampled_from(["x^2", "x*y", "y^3", "x^2 - y^2", "x^3 + y"]),
            min_size=1,
            max_size=3,
        )
    )
    G = ideal_gb(R, *gens)
    for g in gens:
        assert not normal_form(vec_from_polys([R.parse(g)]), G, R)
    v = vec_from_polys([data.draw(st.sampled_from(
        [R.parse(t) for t in ("x^3*y", "x + y", "x*y^2 - 1", "y^4")]
    ))])
    r = normal_form(dict(v), G, R)
    assert normal_form(dict(r), G, R) == r
    diff = dict(v)
    for t, c in r.items():
        diff[t] = R.field.coerce(diff.get(t, 0) - c)
        if not diff[t]:
            del diff[t]
    assert not normal_form(diff, G, R)


def test_buchberger_criterion_all_spairs_reduce():
    R = ring2()
    G = ideal_gb(R, "x^2*y - 1", "x*y^2 - x")
    dicts = [dict(g) for g in unpacked_vectors(G, R)]
    leads = basis_leads(G, R)
    for i in range(len(dicts)):
        for j in range(i + 1, len(dicts)):
            if leads[i][0] != leads[j][0]:
                continue
            L = mono_lcm(leads[i][1], leads[j][1])
            s = {}
            vec_axpy(s, 1, mono_div(L, leads[i][1]), dicts[i], R.field)
            vec_axpy(s, R.field.coerce(-1), mono_div(L, leads[j][1]), dicts[j], R.field)
            assert not normal_form(s, G, R)


# ---------------------------------------------------------------------------
# syzygies and representations


def test_syzygy_of_regular_sequence_is_koszul():
    R = ring2()
    gens = [vec_from_polys([R.parse("x")]), vec_from_polys([R.parse("y")])]
    syz = unpacked_vectors(syzygy_basis(gens, R, 1), R)
    assert len(syz) == 1
    expected = {(0, (0, 1)): 1, (1, (1, 0)): R.field.coerce(-1)}
    got = dict(syz[0])
    assert set(got) == set(expected)


def test_syzygy_of_nonzerodivisor_is_zero():
    R = ring2()
    assert syzygy_basis([vec_from_polys([R.parse("x")])], R, 1).vectors == ()


def test_syzygy_soundness_random_gens():
    R = ring2()
    gens = [vec_from_polys([R.parse(g)]) for g in ("x^2 - y", "x*y", "y^2 + x")]
    for s in map(dict, unpacked_vectors(syzygy_basis(gens, R, 1), R)):
        total = {}
        for i, g in enumerate(gens):
            coeff = {m: c for (comp, m), c in s.items() if comp == i}
            for m, c in coeff.items():
                vec_axpy(total, c, m, g, R.field)
        assert not total


def test_reduce_with_representation_reconstructs():
    R = ring2()
    gens = [vec_from_polys([R.parse(g)]) for g in ("x^2", "x*y - y")]
    v = vec_from_polys([R.parse("x^3 + x^2*y")])
    r, reps = reduce_with_representation(v, gens, R, 1)
    acc = dict(r)
    for rep, g in zip(reps, gens):
        for m, c in monomials(rep).items():
            vec_axpy(acc, c, m, g, R.field)
    assert acc == v


# ---------------------------------------------------------------------------
# staircases, Hilbert numerators, multiplicity


def test_staircase_examples():
    R = ring2()
    for gens, expected in ((("x^2", "x*y", "y^3"), 4), (("x", "y"), 1), (("x",), INFINITE)):
        G = ideal_gb(R, *gens)
        assert staircase_count(G, R) == expected
        assert series_length(hilbert_numerator(G.leads, 1, R), R.weights) == staircase_count(G, R)


def test_series_length_is_the_value_at_one():
    assert series_length({}, (1, 1)) == 0
    assert series_length({0: 1, 2: -1}, (1, 1)) is INFINITE  # k[x,y]/(xy)
    # k[x,y]/(x^2, y^3) with weights 2, 3: (1 - t^4)(1 - t^9) over (1 - t^2)(1 - t^3)
    assert series_length({0: 1, 4: -1, 9: -1, 13: 1}, (2, 3)) == 6
    # generators in negative degrees: a power of t changes no length
    assert series_length({-2: 1, 2: -1, 7: -1, 11: 1}, (2, 3)) == 6
    assert series_length({-1: 1, 1: -1}, (1, 1)) is INFINITE
    assert series_length({-1: 1, 0: 1, 1: -2, 2: -1, 3: 1}, (1, 1)) is INFINITE
    with pytest.raises(AlgebraError):
        series_length({0: 1, 1: -2, 2: 1}, (1,))  # a zero of order 2 > 1 variable


def test_series_value_is_the_signed_value_at_one():
    """The signed value at t = 1 that theta reads off a difference of series."""
    # k[x,y]/(x^2, y^3) less k[x,y]/(x, y^2), weights 1: 6 - 2
    assert series_value(tpoly_sub({0: 1, 2: -1, 3: -1, 5: 1}, {0: 1, 1: -1, 2: -1, 3: 1}),
                        (1, 1)) == 4
    # the other way round, and with weights 2, 3 and generators in degree -2
    assert series_value({-2: -1, 2: 1, 7: 1, 11: -1}, (2, 3)) == -6
    assert series_value({}, (1, 1)) == 0
    # a root of order 2 above n = 1: (1 - t)^2 / (1 - t) vanishes at t = 1
    assert series_value({0: 1, 1: -2, 2: 1}, (1,)) == 0
    assert series_value({0: 1, 1: -3, 2: 3, 3: -1}, (1, 1)) == 0
    assert series_value({0: 1, 2: -1}, (1, 1)) is INFINITE  # k[x,y]/(xy)
    assert series_value({1: 1}, (1,)) is INFINITE
    assert series_value({0: 1, 2: -1}, (2,)) == 1  # (1 - t^2) / (1 - t^2)
    with pytest.raises(AlgebraError, match="no integral value"):
        series_value({0: 1, 1: -1}, (2,))  # (1 - t) / (1 - t^2) is 1/2 at t = 1


def test_hilbert_numerator_examples():
    R = ring2()
    assert hilbert_numerator((), 1, R) == {0: 1}
    assert hilbert_numerator(ideal_gb(R, "x*y").leads, 1, R) == {0: 1, 2: -1}
    R4 = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
    gens = [vec_from_polys([R4.parse("x*y - u*v")])]
    assert hilbert_numerator(basis_of_vectors(gens, R4, 1).leads, 1, R4) == {0: 1, 2: -1}


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_hilbert_numerator_recursion_does_not_grow_with_the_generators():
    """(x,y,z)^20 has 231 generators; its numerator is read within 100
    frames of recursion, and is (1 - t)^3 times the series
    sum_{d<20} C(d+2, 2) t^d of S/(x,y,z)^20."""
    R = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    monos = [(a, b, 20 - a - b) for a in range(21) for b in range(21 - a)]
    G = GroebnerBasis(1, tuple(sorted((t, {t: 1}) for t in (R._pack(0, m) for m in monos))))
    expected = {d: math.comb(d + 2, 2) for d in range(20)}
    for _ in range(3):
        expected = tpoly_sub(expected, {d + 1: c for d, c in expected.items()})
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        num = hilbert_numerator(G.leads, 1, R)
    finally:
        sys.setrecursionlimit(previous)
    assert num == expected


@st.composite
def monomial_modules(draw):
    """(weights, rank, monomial generators (component, exponents), shifts)
    of S^rank / (generators), shifts possibly negative."""
    weights = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    rank = draw(st.integers(1, 3))
    mono = st.tuples(*[st.integers(0, 4)] * len(weights))
    gens = draw(st.lists(st.tuples(st.integers(0, rank - 1), mono), max_size=8))
    shifts = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    return weights, rank, gens, shifts


@given(monomial_modules())
@example(((1, 2), 1, [(0, (0, 0))], [0]))  # the unit ideal
@example(((1, 1, 1), 1, [(0, (0, 2, 1)), (0, (1, 0, 0))], [0]))
@example(((2, 3), 2, [(0, (0, 0)), (1, (0, 0))], [-1, 2]))  # the zero module
@example(((3, 1), 3, [(1, (0, 1)), (1, (2, 0)), (2, (1, 1))], [-3, 0, 2]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_packed_hilbert_numerator_matches_the_tuple_recursion(case):
    """The colon recursion on packed exponent bits gives the numerator the
    recursion on exponent tuples gives, shifted or not, and finite_colength
    reads off the packed leads what a staircase count reads off the tuples."""
    weights, rank, gens, shifts = case
    R = PolynomialRing(FieldSpec(0), [f"x{i}" for i in range(len(weights))], weights)
    G = basis_of_vectors([{(comp, mono): 1} for comp, mono in gens], R, rank)
    assert hilbert_numerator(G.leads, rank, R, shifts) == tuple_hilbert_numerator(G, R, shifts)
    assert hilbert_numerator(G.leads, rank, R) == tuple_hilbert_numerator(G, R)
    assert finite_colength(G, R) == (staircase_count(G, R) is not INFINITE)


def test_multiplicity_examples():
    R4 = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
    assert module_multiplicity(ModulePresentation.cyclic(R4, ["x*y - u*v"])) == 2
    assert module_multiplicity(free_module(R4)) == 1
    assert module_multiplicity(ModulePresentation.cyclic(R4, ["x", "u"])) == 1


def test_multiplicity_rejects_zero_dimensional():
    R = ring2()
    with pytest.raises(ValueError, match="zero-dimensional"):
        module_multiplicity(ModulePresentation.cyclic(R, ["x", "y"]))


def test_division_by_one_minus_t_checks_the_root():
    assert tpoly_div_1mt({0: 1, 2: -1}) == {0: 1, 1: 1}
    with pytest.raises(AlgebraError):
        tpoly_div_1mt({0: 1, 1: 1})


laurent = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4).filter(bool), max_size=6)


@given(g=laurent, k=st.integers(0, 6), weights=st.lists(st.integers(1, 3), min_size=1, max_size=4))
@example(g={}, k=0, weights=[1, 1])
@example(g={-3: 1, 2: -1}, k=2, weights=[1, 2, 3])
@settings(max_examples=300, deadline=None, derandomize=True)
def test_taylor_reading_at_one_matches_division(g, k, weights):
    """The order and value at t = 1 read off Taylor coefficients agree with
    repeated division by (1 - t) on (1 - t)^k g, g a Laurent numerator (the
    zero one included); series_value and series_length follow from them."""
    num = g
    for _ in range(k):
        num = tpoly_sub(num, {d + 1: c for d, c in num.items()})
    order, value = series_at_one_by_division(num)
    assert _series_at_one(num) == (order, value)
    if sum(g.values()):
        assert (order, value) == (k, sum(g.values()))
    n = len(weights)
    if order == n and value % math.prod(weights):
        for read in (series_value, series_length):
            with pytest.raises(AlgebraError, match="no integral value"):
                read(num, weights)
        return
    if order is None or order > n:
        expected = 0
    elif order < n:
        expected = INFINITE
    else:
        expected = value // math.prod(weights)
    assert series_value(num, weights) == expected
    if num and expected is not INFINITE and expected <= 0:
        with pytest.raises(AlgebraError, match="not the Hilbert numerator"):
            series_length(num, weights)
    else:
        assert series_length(num, weights) == expected


@given(acc=laurent, coeff=st.integers(-3, 3), shift=st.integers(-4, 4), a=laurent)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_axpy_is_the_naive_sum(acc, coeff, shift, a):
    """acc + coeff * t^shift * a, coefficient by coefficient, with no zero
    coefficient kept; acc is changed in place and returned, a is not."""
    before, a_before = dict(acc), dict(a)
    degrees = set(acc) | {d + shift for d in a}
    expected = {d: before.get(d, 0) + coeff * a.get(d - shift, 0) for d in degrees}
    out = _tpoly_axpy(acc, coeff, shift, a)
    assert out is acc
    assert out == {d: c for d, c in expected.items() if c}
    assert a == a_before


monomials3 = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))


@given(monos=st.lists(monomials3, min_size=1, max_size=5),
       weights=st.sampled_from([(1, 1, 1), (2, 3, 5)]))
@settings(max_examples=40, deadline=None)
def test_staircase_agrees_with_hilbert_series(monos, weights):
    """The staircase oracle, the length read off the numerator, and the
    expanded series agree.  Standard monomials of a finite staircase have
    exponents below 6, so the series vanishes above degree 6 * sum(w); an
    infinite one holds every power of some variable."""
    R = PolynomialRing(FieldSpec(0), ["x", "y", "z"], list(weights))
    gens = [
        vec_from_polys([R.from_dict({m: 1})])
        for m in monos
        if any(m)
    ]
    if not gens:
        return
    G = basis_of_vectors(gens, R, 1)
    count = staircase_count(G, R)
    num = hilbert_numerator(G.leads, 1, R)
    assert series_length(num, weights) == count
    top = 6 * sum(weights)
    series = list(series_coefficients(num, weights, 0, top + 2 * max(weights)).values())
    if count is INFINITE:
        assert quotient_dimension(G, R) >= 1
        assert any(series[top + 1:])
    else:
        assert not any(series[top + 1:])
        assert sum(series) == count


# ---------------------------------------------------------------------------
# lead terms are computed once, when the basis is built


def test_stored_leads_are_the_lead_terms(monkeypatch):
    """Every reduced and every minimal basis a builder gives in the quadric
    session carries the lead terms of its vectors, and no lead divides
    another in its component (so they are the lead module's minimal
    generators as stored)."""
    import thetacas.cli as cli

    bases = []
    reduced, minimal = GroebnerBuilder.reduced, GroebnerBuilder.minimal

    def recording_reduced(builder, *args):
        bases.append((reduced(builder, *args), builder.ring))
        return bases[-1][0]

    def recording_minimal(builder, *args):
        groups = minimal(builder, *args)
        bases.append((GroebnerBasis(builder.rank, tuple(sorted(
            pair for own in groups.values() for pair in own))), builder.ring))
        return groups

    monkeypatch.setattr(GroebnerBuilder, "reduced", recording_reduced)
    monkeypatch.setattr(GroebnerBuilder, "minimal", recording_minimal)
    _report, code = cli.run_session(json.loads((SESSIONS / "quadric.json").read_text()))
    assert code == 0
    assert len(bases) > 10
    for G, ring in bases:
        leads = basis_leads(G, ring)
        assert list(leads) == [vec_lead(dict(g), ring) for g in unpacked_vectors(G, ring)]
        for i, (comp, mono) in enumerate(leads):
            assert not any(other_comp == comp and mono_divides(other, mono)
                           for j, (other_comp, other) in enumerate(leads) if j != i)


def test_normal_form_does_not_recompute_leads(monkeypatch):
    """The lead of a basis vector is stored with it: a normal form takes the
    least packed term of the vector it reduces, never of a basis vector."""
    import thetacas.groebner as groebner

    R = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
    G = ideal_gb(R, "x*y - u*v", "x^2 - u^2", "y^3 + v^3")
    basis = [g for _lead, g in G.packed]
    calls = []

    def counting_min(v, *args, **kwargs):
        calls.append(any(v is g for g in basis))
        return min(v, *args, **kwargs)

    monkeypatch.setattr(groebner, "min", counting_min, raising=False)
    r = normal_form(vec_from_polys([R.parse("x^3*y + y^4 - u*v^2")]), G, R)
    assert r and calls and not any(calls)


class _Hung(Exception):
    pass


def _hung(signum, frame):
    raise _Hung


def test_normal_form_with_a_reducer_that_is_not_monic_raises():
    """A reducer 2x, taken as monic, turns x into -x and back forever; the
    step that leaves its term in place must raise instead."""
    S = ring2()
    x = S._pack(0, (1, 0))
    previous = signal.signal(signal.SIGALRM, _hung)
    signal.alarm(5)
    try:
        with pytest.raises(AlgebraError):
            normal_form_vec({x: 1}, {0: [(x, {x: 2})]}, S)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_product_above_the_degree_cap_raises():
    """A reduction step whose product passes the packed degree cap raises;
    the overflowed term is never taken for a term of another order."""
    S = ring2()
    x = S._pack(0, (1, 0))
    g = {x: 1, S._pack(1, (0, 30000)): 1}
    with pytest.raises(AlgebraError, match="degree"):
        normal_form_vec({S._pack(0, (5000, 0)): 1}, {0: [(x, g)]}, S)


@pytest.mark.parametrize("characteristic", [0, 32003])
def test_an_s_pair_above_the_degree_cap_raises(characteristic):
    """x^16384 and x^16385 + x*y^16384 leave the remainder x*y^16384, whose
    S-pair with x^16384 has an lcm of degree 32768, above the cap."""
    R = ring2(characteristic)
    top = 1 << 14
    gens = [vec_from_polys([R.from_dict({(top, 0): 1})]),
            vec_from_polys([R.from_dict({(1, top): 1, (top + 1, 0): 1})])]
    with pytest.raises(AlgebraError, match="degree"):
        basis_of_vectors(gens, R, 1)


# small exponents, and exponents up to the packed degree cap with weights <= 3
exponents3 = st.one_of(st.integers(0, 4), st.integers(0, MAX_PACKED_DEGREE // 9))
terms3 = st.tuples(st.integers(0, 2), st.tuples(exponents3, exponents3, exponents3))


@given(a=terms3, b=terms3, weights=st.tuples(*[st.integers(1, 3)] * 3))
@settings(max_examples=80, derandomize=True, deadline=None)
def test_term_key_orders_like_mono_key(a, b, weights):
    """The packed term is the sort key of the Groebner hot path: a smaller
    int is a larger term under term_key, the order of (-component, mono_key)."""
    R = PolynomialRing(FieldSpec(0), ["x", "y", "z"], weights)
    assert (R._pack(*a) < R._pack(*b)) == (term_key(R, a) > term_key(R, b))
    assert (R._pack(*a) == R._pack(*b)) == (a == b)


# ---------------------------------------------------------------------------
# differential oracle: sympy's reduced grevlex basis


def _sympy_reduced_basis(sympy, R, gens):
    """sympy's reduced grevlex basis of the ideal, as monic polynomials of R."""
    symbols = sympy.symbols(R.variables)
    p = R.field.characteristic
    options = {"modulus": p} if p else {}
    exprs = [
        sympy.Add(*(c * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
                    for m, c in g.items()))
        for g in gens
    ]
    G = sympy.groebner(exprs, *symbols, order="grevlex", **options)
    polys = [R.from_dict({m: int(c) for m, c in poly.terms()}) for poly in G.polys]
    return [p.scale(R.field.inv(p.lead_coeff())) for p in polys]


def integer_polys(n):
    """Nonzero polynomials of degree <= 3 in n variables, as
    {exponent tuple: int}."""
    monomial = st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3)
    return st.dictionaries(monomial, st.integers(-3, 3).filter(bool), min_size=1, max_size=4)


@st.composite
def integer_ideals(draw):
    """Up to three nonzero polynomials of degree <= 3 in 2 or 3 variables,
    as {exponent tuple: int}."""
    n = draw(st.integers(2, 3))
    return n, draw(st.lists(integer_polys(n), min_size=1, max_size=3))


def integer_vectors(n, rank):
    """Nonzero vectors of S^rank whose entries are integer_polys(n) or zero,
    as {component: entry}."""
    return st.dictionaries(st.integers(0, rank - 1), integer_polys(n), min_size=1)


def vector_over(R, entries, rank):
    return vec_from_polys([R.from_dict(entries.get(comp, {})) for comp in range(rank)])


@pytest.mark.parametrize("characteristic", [0, 32003])
@given(ideal=integer_ideals())
@settings(max_examples=15, deadline=None)
def test_reduced_basis_matches_sympy(characteristic, ideal):
    sympy = pytest.importorskip("sympy")
    n, gens = ideal
    R = PolynomialRing(FieldSpec(characteristic), ["x", "y", "z"][:n])
    G = basis_of_vectors([vec_from_polys([R.from_dict(g)]) for g in gens], R, 1)
    ours = {frozenset(p.coeffs.items()) for p in gb_polys(R, G)}
    theirs = {frozenset(p.coeffs.items()) for p in _sympy_reduced_basis(sympy, R, gens)}
    assert ours == theirs


@pytest.mark.parametrize("characteristic", [0, 32003])
@given(ideal=integer_ideals(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_builder_completed_by_degree_matches_groebner_basis(characteristic, ideal, data):
    """Adding the generators in any order, completing to rising degrees
    after each one and then completely, gives the reduced basis."""
    n, gens = ideal
    R = PolynomialRing(FieldSpec(characteristic), ["x", "y", "z"][:n])
    vectors = [vec_from_polys([R.from_dict(g)]) for g in gens]
    order = data.draw(st.permutations(range(len(vectors))))
    degrees = sorted(data.draw(st.lists(st.integers(0, 6), min_size=len(vectors),
                                        max_size=len(vectors))))
    builder = GroebnerBuilder(R, 1)
    for i, degree in zip(order, degrees):
        builder.add(pack_vector(R, vectors[i]))
        builder.complete(degree)
    builder.complete()
    assert builder.reduced() == basis_of_vectors(vectors, R, 1)


# ---------------------------------------------------------------------------
# seeding with known bases


def _shifted(G, offset, R):
    return [vec_shift_components(dict(v), offset) for v in unpacked_vectors(G, R)]


# The seed derandomize drew from the seeding test's source before its known
# entries became (offset, basis) pairs, so it still draws the same 30 cases.
# Other seeds can draw an inhomogeneous rank-3 case over Q whose coefficients
# grow past 4300 digits, as they do under either form of the entries.
SEEDING_CASES = int("ad2b513da73c49c28f9ace92c2301a6d8a8208a604793cbb0a94f7f3"
                    "7ba8e3a7208fe4c7f8391bcd9870195f7db8e0e8", 16)


@pytest.mark.parametrize("characteristic", [0, 32003])
@given(ideal=integer_ideals(), data=st.data())
@seed(SEEDING_CASES)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_seeding_with_known_bases_matches_adding_their_vectors(characteristic, ideal, data):
    """Known bases at any offsets, overlapping or not, added to a builder with
    add(known=start), give the reduced basis of the generators together
    with the known bases' shifted vectors."""
    n, polys = ideal
    R = PolynomialRing(FieldSpec(characteristic), ["x", "y", "z"][:n])
    known = []
    for k in data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2)):
        vectors = data.draw(st.lists(integer_vectors(n, k), min_size=1, max_size=2))
        known.append((data.draw(st.integers(0, 1)),
                      basis_of_vectors([vector_over(R, v, k) for v in vectors], R, k)))
    rank = max(offset + G.rank for offset, G in known)
    gens = [vec_from_polys([R.from_dict(g)]) for g in polys]
    gens += [vector_over(R, v, rank)
             for v in data.draw(st.lists(integer_vectors(n, rank), max_size=2))]
    seeded = seeded_basis(gens, R, rank, known)
    shifted = [v for off, G in known for v in _shifted(G, off, R)]
    assert seeded == basis_of_vectors(gens + shifted, R, rank)


@pytest.mark.parametrize("characteristic", [0, 32003])
@given(ideal=integer_ideals(), data=st.data())
@settings(max_examples=15, deadline=None, derandomize=True)
def test_known_bases_alone_form_no_pairs(characteristic, ideal, data):
    """One known basis, or two in disjoint component ranges, queue no
    S-pair, and together they are already a Groebner basis."""
    n, polys = ideal
    R = PolynomialRing(FieldSpec(characteristic), ["x", "y", "z"][:n])
    first = basis_of_vectors([vec_from_polys([R.from_dict(g)]) for g in polys], R, 1)
    k = data.draw(st.integers(1, 2))
    vectors = data.draw(st.lists(integer_vectors(n, k), min_size=1, max_size=3))
    second = basis_of_vectors([vector_over(R, v, k) for v in vectors], R, k)
    entries = data.draw(st.sampled_from([
        [(0, first)], [(1, first)], [(0, second)],
        [(0, first), (1, second)], [(0, second), (k, first)],
    ]))
    rank = max(offset + G.rank for offset, G in entries)
    builder = GroebnerBuilder(R, rank)
    for offset, G in entries:
        start = len(builder.codes)
        for v in _shifted(G, offset, R):
            builder.add(pack_vector(R, v), known=start)
    assert not builder.queue and not builder.pending
    builder.complete()
    shifted = [v for offset, G in entries for v in _shifted(G, offset, R)]
    assert builder.reduced() == basis_of_vectors(shifted, R, rank)


@pytest.mark.parametrize("plain_first", [True, False])
@pytest.mark.parametrize("offset", [0, 1])
def test_a_seeded_builder_spans_the_known_basis_too(plain_first, offset):
    """The generators x alone and x seeded with a basis of (y), whose span
    is not in that of x, give two bases, whichever is built first."""
    R = ring2()
    x, y = (vec_from_polys([R.parse(g)]) for g in ("x", "y"))
    Gy = basis_of_vectors([y], R, 1)
    rank = 1 + offset
    calls = [("plain", lambda: basis_of_vectors([x], R, rank)),
             ("seeded", lambda: seeded_basis([x], R, rank, [(offset, Gy)]))]
    results = {name: call() for name, call in (calls if plain_first else calls[::-1])}
    assert unpacked_vectors(results["plain"], R) == (freeze_vec(x),)
    assert set(unpacked_vectors(results["seeded"], R)) == {
        freeze_vec(x), freeze_vec(vec_shift_components(y, offset))}


def test_a_basis_is_a_plain_value_holding_no_ring():
    """A basis holds its rank and its (lead, vector) pairs only; its vectors
    are the packed vectors themselves, and the functions that read its
    terms take the ring."""
    R = ring2()
    G = ideal_gb(R, "x^2 - y^2", "x*y")
    assert G.vectors == tuple(g for _l, g in G.packed)
    assert not hasattr(G, "ring") and not hasattr(G, "__dict__")


def test_equal_bases_hash_equal_as_theta_keys():
    """A basis groebner_basis returns and an equal one a fresh builder
    reduces are two objects with one hash, so they are one key of theta's
    memo on a module, the only place a basis is a key."""
    R = ring2()
    gens = [pack_vector(R, vec_from_polys([R.parse(g)])) for g in ("x^2 - y^2", "x*y")]
    first = groebner_basis(gens, R, 1)
    builder = GroebnerBuilder(R, 1)
    for g in gens:
        builder.add(g)
    builder.complete()
    fresh = builder.reduced()
    assert fresh is not first and fresh == first and hash(fresh) == hash(first)
    assert len({(first, (0,)): 1, (fresh, (0,)): 2}) == 1


def test_rings_keep_no_groebner_memo():
    """groebner_basis is a plain function of (generators, ring, rank), with
    no seeding option, and a ring keeps only what it derives from itself:
    two calls on one ring build two equal bases and leave no basis on it."""
    import inspect

    assert list(inspect.signature(groebner_basis).parameters) == ["generators", "ring", "rank"]
    R = ring2()
    before = set(vars(R))
    gens = [pack_vector(R, vec_from_polys([R.parse("x^2 - y^2")]))]
    first, second = groebner_basis(gens, R, 1), groebner_basis(gens, R, 1)
    assert first == second and first is not second
    assert set(vars(R)) == before and not hasattr(R, "_groebner_memo")
    assert not any(isinstance(v, GroebnerBasis) for d in vars(R).values()
                   if isinstance(d, dict) for v in d.values())


# ---------------------------------------------------------------------------
# the pairs Buchberger treats


DATA_SESSIONS = Path(__file__).resolve().parent / "data" / "sessions"


def _buchberger_counts(monkeypatch, path, audit):
    """(S-pairs formed, normal forms computed, zero remainders, Nakayama
    selections built) in the Groebner layer over one run of the session."""
    import heapq
    import types

    import thetacas.cli as cli
    import thetacas.groebner as groebner

    counts = [0, 0, 0, 0]
    real_init = groebner.NakayamaSelection.__init__

    def counting_init(selection, *args):
        counts[3] += 1
        real_init(selection, *args)

    def heappush(queue, item):
        counts[0] += 1
        heapq.heappush(queue, item)

    def counting_normal_form_vec(v, reducers, ring, tail=True):
        r = normal_form_vec(v, reducers, ring, tail=tail)
        counts[1] += 1
        counts[2] += not r
        return r

    monkeypatch.setattr(groebner, "heapq", types.SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop))
    monkeypatch.setattr(groebner, "normal_form_vec", counting_normal_form_vec)
    monkeypatch.setattr(groebner.NakayamaSelection, "__init__", counting_init)
    _report, code = cli.run_session(json.loads(path.read_text()), audit=audit)
    assert code == 0
    return tuple(counts)


# quadric's counts hold the presentation bases of the A/p that its two c1
# tasks build again (4 of them, each 3 S-pairs formed, one reduced, to zero,
# and 2 interreductions), and no interreduction of cokernel bases, whose
# minimal leads alone are read.
@pytest.mark.parametrize("path, expected", [
    (SESSIONS / "quadric.json", (132, 114, 39, 9)),
    (DATA_SESSIONS / "fp_e7_surface.json", (82, 91, 2, 9)),
    (DATA_SESSIONS / "fp_cubic_fourfold.json", (410, 415, 33, 7)),
])
def test_buchberger_treats_the_same_pairs(monkeypatch, path, expected):
    """Pair formation, the chain criterion and minimalization must form,
    skip and reduce exactly the pairs they always did: these counts are the
    work of a basis that the reports alone do not show, and a machine-free
    guard of the resolution's one builder per step (a Nakayama selection
    that is also the syzygy basis of what it keeps), completed only to the
    step's change-of-rings degree bound.  The session runs under audit,
    which computes both triangles of every Gram."""
    assert _buchberger_counts(monkeypatch, path, audit=True) == expected


@pytest.mark.parametrize("path, expected", [
    (SESSIONS / "quadric.json", (127, 109, 34, 9)),
    (DATA_SESSIONS / "cubic_threefold.json", (187, 184, 22, 11)),
], ids=["quadric", "cubic_threefold"])
def test_half_gram_treats_fewer_pairs(monkeypatch, path, expected):
    """Without audit a Gram computes theta on each unordered pair once, and
    the Groebner layer treats the pairs of those cokernels only."""
    assert _buchberger_counts(monkeypatch, path, audit=False) == expected


def _hilbert_numerators(monkeypatch, path, audit):
    """Hilbert numerators built over one run of the session, under every
    name a kernel module binds hilbert_numerator to."""
    import thetacas.cli as cli
    import thetacas.groebner as groebner

    calls = [0]

    def counting(*args, _real=groebner.hilbert_numerator):
        calls[0] += 1
        return _real(*args)

    for name in ("groebner", "homology", "pairings", "numeq", "cli"):
        module = sys.modules[f"thetacas.{name}"]
        if hasattr(module, "hilbert_numerator"):
            monkeypatch.setattr(module, "hilbert_numerator", counting)
    _report, code = cli.run_session(json.loads(path.read_text()), audit=audit)
    assert code == 0
    return calls[0]


@pytest.mark.parametrize("path, expected", [
    (SESSIONS / "node.json", 8),
    (SESSIONS / "a1_surface.json", 13),
    (SESSIONS / "quadric.json", 21),
    (DATA_SESSIONS / "cubic_threefold.json", 8),
])
def test_sessions_build_the_same_hilbert_numerators(monkeypatch, path, expected):
    """The Hilbert numerators of one run of the session: a machine-free guard
    of the series the module invariants and theta read: a module's own
    series is built once, however many invariants read it.  The session
    runs under audit, which computes both triangles of every Gram."""
    assert _hilbert_numerators(monkeypatch, path, audit=True) == expected


@pytest.mark.parametrize("path, expected", [
    (SESSIONS / "node.json", 7),
    (SESSIONS / "a1_surface.json", 11),
    (SESSIONS / "quadric.json", 20),
    (DATA_SESSIONS / "cubic_threefold.json", 7),
], ids=["node", "a1_surface", "quadric", "cubic_threefold"])
def test_half_gram_builds_fewer_hilbert_numerators(monkeypatch, path, expected):
    """Without audit each unordered pair of a Gram costs one cokernel
    series, not two."""
    assert _hilbert_numerators(monkeypatch, path, audit=False) == expected


# ---------------------------------------------------------------------------
# matrices over S: exact division by f, graded inverse


def weighted_ring(characteristic):
    return PolynomialRing(FieldSpec(characteristic), ["x", "y", "z"], [1, 2, 3])


@pytest.mark.parametrize("characteristic", [0, 32003])
def test_divide_exactly_by_f(characteristic):
    """f * q divided by f is q, for f of degree 4 over weights 1, 2, 3 with
    lead coefficient 2 over Q; a vector that is not a multiple of f raises
    AlgebraError, whether its lead term is divisible by lead(f) or not."""
    R = weighted_ring(characteristic)
    P = R.parse
    f = P("2*x*z - y^2 + x^2*y")
    packed_f = pack_vector(R, vec_from_polys([f]))
    q = vec_from_polys([P("x + 3"), R.zero(), P("y*z - 1")])
    v = pack_vector(R, vec_from_polys([f * P("x + 3"), R.zero(), f * P("y*z - 1")]))
    assert unpack_vector(R, divide_exactly(v, packed_f, R)) == q
    assert divide_exactly({}, packed_f, R) == {}
    for bad in (vec_from_polys([f * P("x") + P("y")]), vec_from_polys([R.zero(), P("x^2")]),
                vec_from_polys([P("x*z")])):
        with pytest.raises(AlgebraError):
            divide_exactly(pack_vector(R, bad), packed_f, R)


def _columns(R, rows):
    """The packed columns of the matrix with the given rows of texts."""
    return [pack_vector(R, vec_from_polys([R.parse(row[c]) for row in rows]))
            for c in range(len(rows[0]))]


@pytest.mark.parametrize("characteristic", [0, 32003])
def test_graded_inverse_of_a_weighted_matrix(characteristic):
    """W over k[x, y, z] with weights 1, 2, 3 is homogeneous of degree 0 for
    generator degrees (0, 2, 2, 3) on both sides.  It is not a monomial
    matrix: its constant part needs a column swap at the second row, and
    entries of positive degree lie above it.  The inverse read off column
    operations with constant pivots is a two-sided inverse, and has entries
    of positive degree itself."""
    R = weighted_ring(characteristic)
    W = _columns(R, [["3", "y + x^2", "x^2", "z - x*y"],
                     ["0", "0", "2", "x"],
                     ["0", "1", "1", "x"],
                     ["0", "0", "0", "-1"]])
    inverse = graded_inverse(W, 4, R)
    identity = [pack_vector(R, {(k, (0,) * R.nvars): 1}) for k in range(4)]
    assert [mat_vec(W, v, R) for v in inverse] == identity
    assert [mat_vec(inverse, v, R) for v in W] == identity
    assert any(sum(m) for v in inverse for _comp, m in unpack_vector(R, v))


def test_graded_inverse_refuses_a_singular_or_non_square_matrix():
    """A constant part that is singular, with or without entries of
    positive degree, gives None; so do columns that do not make a square
    matrix of the given rank."""
    R = weighted_ring(0)
    for rows in ([["1", "2"], ["2", "4"]], [["1", "x"], ["0", "0"]],
                 [["2", "x^2 + y"], ["0", "0"]]):
        assert graded_inverse(_columns(R, rows), 2, R) is None
    assert graded_inverse(_columns(R, [["1", "0", "0"], ["0", "1", "0"]]), 2, R) is None
    assert graded_inverse(_columns(R, [["1"], ["0"]]), 2, R) is None


# Coefficients for the packed matrix checks: over Q not all units of Z,
# over F_32003 any unit.
MATRIX_COEFFS = {
    0: st.sampled_from([1, -1, 2, -3, Fraction(5, 2), Fraction(-1, 3)]),
    32003: st.integers(1, 32002),
}


def _monomials(R, degree):
    """The monomials of R of the given weighted degree."""
    ranges = [range(degree // w + 1) for w in R.weights]
    return [m for m in itertools.product(*ranges) if R.mono_degree(m) == degree]


def _homogeneous(data, R, degree, least=0):
    """A drawn polynomial of R homogeneous of the given degree, with at least
    `least` terms when R has that many monomials of the degree."""
    monos = _monomials(R, degree) if degree >= 0 else []
    chosen = data.draw(st.lists(st.sampled_from(monos), min_size=min(least, len(monos)),
                                max_size=3, unique=True)) if monos else []
    return R.from_dict({m: data.draw(MATRIX_COEFFS[R.field.characteristic]) for m in chosen})


def _graded_matrix(data, R, row_degs, col_degs):
    """Drawn rows of a matrix homogeneous of degree 0 from generators of
    degrees col_degs to generators of degrees row_degs: sparse, or with
    every entry of degree >= 0 nonzero."""
    least = data.draw(st.integers(0, 1))
    return tuple(tuple(_homogeneous(data, R, c - r, least) for c in col_degs)
                 for r in row_degs)


def _unpacked_mat_vec(cols, v, field):
    """The unpacked reference for mat_vec, on vec_axpy."""
    out = {}
    for (i, m), c in v.items():
        vec_axpy(out, c, m, cols[i], field)
    return out


def _constant_part_is_singular(rows, field):
    """Whether the matrix of the constant terms of the entries is singular,
    by Gaussian elimination over the field."""
    a = [[p.constant_coeff() for p in row] for row in rows]
    n = len(a)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k] != 0), None)
        if p is None:
            return True
        a[k], a[p] = a[p], a[k]
        for i in range(k + 1, n):
            lam = field.mul(a[i][k], field.inv(a[k][k]))
            a[i] = [field.coerce(x - field.mul(lam, y)) for x, y in zip(a[i], a[k])]
    return False


@pytest.mark.parametrize("characteristic", [0, 32003])
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_packed_matrix_arithmetic_matches_the_references(characteristic, data):
    """On drawn homogeneous matrices over k[x, y, z] with weights 1, 2, 3,
    over Q with coefficients that are not units of Z and over F_32003: the
    packed mat_vec gives each column of the oracle mat_mul and of the
    unpacked vec_axpy reference; divide_exactly by a rescaled f (lead
    coefficient not 1) recovers each column q from f * q; graded_inverse
    returns None exactly when the constant part is singular, and otherwise
    a two-sided inverse under both products."""
    R = weighted_ring(characteristic)
    degs = st.lists(st.integers(0, 3), min_size=1, max_size=3)
    row_degs, col_degs, out_degs = data.draw(degs), data.draw(degs), data.draw(degs)
    A = _graded_matrix(data, R, row_degs, col_degs)
    B = _graded_matrix(data, R, col_degs, out_degs)
    a_cols = columns_as_vectors(A)
    packed = [pack_vector(R, v) for v in a_cols]
    for b, ab in zip(columns_as_vectors(B), columns_as_vectors(mat_mul(A, B, R))):
        product = mat_vec(packed, pack_vector(R, b), R)
        assert product == pack_vector(R, _unpacked_mat_vec(a_cols, b, R.field))
        assert unpack_vector(R, product) == ab

    f = _homogeneous(data, R, 6, least=2).scale(data.draw(st.sampled_from([2, -3])))
    packed_f = f.coeffs
    for q in a_cols:
        fq = {}
        for m, c in monomials(f).items():
            vec_axpy(fq, c, m, q, R.field)
        assert unpack_vector(R, divide_exactly(pack_vector(R, fq), packed_f, R)) == q

    n = len(row_degs)
    W = _graded_matrix(data, R, row_degs, row_degs)
    inverse = graded_inverse([pack_vector(R, v) for v in columns_as_vectors(W)], n, R)
    assert (inverse is None) == _constant_part_is_singular(W, R.field)
    if inverse is not None:
        identity = tuple(tuple(R.one() if r == c else R.zero() for c in range(n))
                         for r in range(n))
        inv_rows = vectors_to_rows([unpack_vector(R, v) for v in inverse], n, R)
        assert mat_mul(W, inv_rows, R) == identity == mat_mul(inv_rows, W, R)
        w_cols = columns_as_vectors(W)
        assert [_unpacked_mat_vec(w_cols, unpack_vector(R, v), R.field)
                for v in inverse] == columns_as_vectors(identity)
