"""Coefficient fields, polynomial arithmetic, parsing, and graded checks."""

import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thetacas import (
    FieldSpec,
    HypersurfaceRing,
    ModulePresentation,
    PolynomialRing,
    minimal_resolution,
    ring_dimension,
)
from thetacas import groebner
from thetacas.errors import AlgebraError, InhomogeneousError, ParseError
from thetacas.ring import (
    MAX_NESTING,
    MAX_PACKED_DEGREE,
    PRIMALITY_BOUND,
    _is_prime,
    mono_divides,
    mono_mul,
)
from oracles import mono_coprime, mono_div, mono_lcm


def make_ring(characteristic=0, variables=("x", "y"), weights=None):
    return PolynomialRing(FieldSpec(characteristic), variables, weights)


# ---------------------------------------------------------------------------
# coefficient fields


def test_field_characteristic_must_be_zero_or_prime():
    FieldSpec(0)
    FieldSpec(2)
    FieldSpec(7)
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)


def test_characteristic_primality_is_decided_quickly():
    """Miller-Rabin, not trial division: 2^61 - 1 is accepted at once, the
    Carmichael number 561 and 318665857834031151167461 (a strong pseudoprime
    to every prime base up to 37) are rejected, and characteristics from the
    bound up, where the test is not known to be exact, are refused."""
    start = time.perf_counter()
    assert FieldSpec(2 ** 61 - 1).characteristic == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0
    for composite in (561, 318665857834031151167461):
        with pytest.raises(ValueError, match="prime"):
            FieldSpec(composite)
    with pytest.raises(ValueError, match="not below"):
        FieldSpec(PRIMALITY_BOUND)
    assert [p for p in range(60) if _is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_prime_field_least_nonneg_residues():
    F = FieldSpec(5)
    assert F.coerce(7) == 2
    assert F.coerce(-1) == 4
    assert F.mul(3, 4) == 2
    assert F.inv(2) == 3


def test_division_by_zero_rejected():
    from thetacas.errors import CoefficientError

    with pytest.raises(CoefficientError):
        FieldSpec(0).inv(0)
    with pytest.raises(CoefficientError):
        FieldSpec(5).inv(10)


def _canonical(q: Fraction):
    return q.numerator if q.denominator == 1 else q


rationals = st.one_of(
    st.integers(-40, 40),
    st.fractions(min_value=-40, max_value=40, max_denominator=12).map(_canonical),
)


@given(a=rationals, b=rationals)
@settings(max_examples=200)
def test_rational_field_is_fraction_arithmetic_in_canonical_form(a, b):
    """Q agrees with Fraction arithmetic and returns an int exactly when the
    value is integral, so integral coefficients never become Fractions."""
    Q = FieldSpec(0)
    fa, fb = Fraction(a), Fraction(b)
    cases = [(Q.add(a, b), fa + fb), (Q.mul(a, b), fa * fb),
             (Q.neg(a), -fa), (Q.coerce(a), fa), (Q.coerce(fa), fa)]
    if fb:
        cases.append((Q.inv(b), 1 / fb))
    for got, want in cases:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
    assert type(Q.zero) is int and type(Q.one) is int


@given(data=st.data())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_packed_axpy_matches_the_field_operations(data):
    """FieldSpec.axpy, v + c * x^q * w on packed vectors with the field
    arithmetic inlined, gives what the route through add and mul gives, term
    by term.  Over Q, Fractions included, an integral value is stored as an
    int; over F_32003 every residue stays in [0, p) and a cancelled term is
    dropped, not stored as 0."""
    p = data.draw(st.sampled_from([0, 32003]))
    F = FieldSpec(p)
    values = st.integers(1, p - 1) if p else rationals.filter(bool)
    w = data.draw(st.dictionaries(st.integers(0, 12), values, max_size=8))
    coeff = data.draw(values)
    q = data.draw(st.integers(0, 4))
    v = data.draw(st.dictionaries(st.integers(0, 16), values, max_size=8))
    # some terms of v cancel against coeff * x^q * w exactly
    cancelled = data.draw(st.sets(st.sampled_from(sorted(w)), max_size=len(w))) if w else set()
    for t in cancelled:
        v[t + q] = F.neg(F.mul(coeff, w[t]))
    expected = dict(v)
    for t, c in w.items():
        s = F.add(expected.get(t + q, F.zero), F.mul(coeff, c))
        if s == 0:
            expected.pop(t + q, None)
        else:
            expected[t + q] = s
    got = dict(v)
    F.axpy(got, coeff, q, w)
    assert got == expected
    assert [type(c) for c in got.values()] == [type(expected[t]) for t in got]
    assert all(t + q not in got for t in cancelled)
    if p:
        assert all(0 < c < p for c in got.values())
    else:
        assert all(type(c) is (int if Fraction(c).denominator == 1 else Fraction)
                   for c in got.values())


def test_integral_input_keeps_integer_coefficients():
    """Resolving k over the Fermat cubic threefold over Q meets only integral
    coefficients: its reduced bases and differentials hold ints."""
    S = make_ring(variables=("x", "y", "z", "w"))
    A = HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3"))
    res = minimal_resolution(ModulePresentation.cyclic(A, ["x", "y", "z", "w"]), 5)
    assert res.betti == [1, 4, 7, 8, 8, 8]
    bases = list(S._groebner_memo.values())
    assert bases
    types = {type(c) for G in bases for g in G.vectors for _t, c in g}
    types |= {type(c) for i in range(1, 6)
              for v in res.differential_columns(i) for c in v.values()}
    assert types == {int}


# ---------------------------------------------------------------------------
# arithmetic and canonical forms

coeffs = st.integers(min_value=-6, max_value=6)
expos = st.tuples(st.integers(0, 4), st.integers(0, 4))


@st.composite
def polys(draw, ring):
    d = draw(st.dictionaries(expos, coeffs, max_size=5))
    return ring.from_dict(d)


RING0 = make_ring()


@given(a=polys(RING0), b=polys(RING0), c=polys(RING0))
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a - a == RING0.zero()


@given(a=polys(RING0))
@settings(max_examples=60)
def test_parse_print_roundtrip(a):
    assert RING0.parse(str(a)) == a


def test_parse_examples():
    R = make_ring(variables=("x", "y", "u", "v"))
    p = R.parse("x*y - u*v")
    assert str(p) == "x*y - u*v"
    assert R.parse("(x + y)^2") == R.parse("x^2 + 2*x*y + y^2")
    assert R.parse("x/2 + x/2") == R.parse("x")
    with pytest.raises(Exception):
        R.parse("x + @")


def test_parse_nesting_is_capped():
    """300 nested parentheses or 1000 unary minuses overflowed the recursion
    limit; the parser caps its nesting, and the cap itself parses."""
    R = make_ring()
    for text in ("(" * 300 + "x" + ")" * 300, "-" * 1000 + "x"):
        with pytest.raises(ParseError, match=f"nesting depth is above {MAX_NESTING}"):
            R.parse(text)
    assert R.parse("(" * MAX_NESTING + "x" + ")" * MAX_NESTING) == R.parse("x")
    assert R.parse("-" * MAX_NESTING + "x") == R.parse("x")


@given(a=polys(RING0), b=polys(RING0), c=polys(RING0))
@settings(max_examples=40)
def test_char_p_agrees_with_rational_reduction(a, b, c):
    """Integer-coefficient arithmetic mod p matches arithmetic over F_p."""
    p = 5
    Rp = make_ring(characteristic=p)

    def push(poly):
        return Rp.from_dict({m: int(co) for m, co in poly.coeffs.items()})

    lhs = push(a * b + c * c - a)
    rhs = push(a) * push(b) + push(c) * push(c) - push(a)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# weighted degrees


def test_weighted_degree_examples():
    R = make_ring(variables=("x", "y", "u", "v"))
    assert R.parse("x*y - u*v").weighted_degree() == 2
    W = make_ring(variables=("x", "y"), weights=(3, 2))
    assert W.parse("x^2 + y^3").weighted_degree() == 6
    with pytest.raises(InhomogeneousError):
        RING0.parse("x + y^2").weighted_degree()


@given(a=polys(RING0), b=polys(RING0))
@settings(max_examples=60)
def test_weighted_degree_multiplicative(a, b):
    if a.is_zero() or b.is_zero():
        return
    try:
        da, db = a.weighted_degree(), b.weighted_degree()
    except InhomogeneousError:
        return
    assert (a * b).weighted_degree() == da + db


# ---------------------------------------------------------------------------
# hypersurface rings


def test_ring_dimension_examples(node, a1, quadric):
    assert ring_dimension(node) == 1
    assert ring_dimension(quadric) == 3
    assert ring_dimension(a1) == 2


def test_hypersurface_rejects_degenerate_f():
    R = make_ring()
    with pytest.raises(Exception):
        HypersurfaceRing(R, R.parse("x"))  # not in the square of the irrelevant ideal
    with pytest.raises(InhomogeneousError):
        HypersurfaceRing(R, R.parse("x + y^2"))
    with pytest.raises(Exception):
        HypersurfaceRing(R, R.zero())


def test_hypersurface_accepts_weighted_f():
    W = make_ring(variables=("x", "y"), weights=(3, 2))
    A = HypersurfaceRing(W, W.parse("x^2 - y^3"))
    assert ring_dimension(A) == 1


def test_polynomials_hashable():
    R = make_ring()
    assert hash(R.parse("x + y")) == hash(R.parse("y + x"))
    assert len({R.parse("x"), R.parse("x"), R.parse("y")}) == 2


# ---------------------------------------------------------------------------
# packed terms: one int per term x^m e_comp, owned by the ring (their order is
# checked against mono_key in test_groebner::test_term_key_orders_like_mono_key)


def packed_ring(characteristic, weights):
    return make_ring(characteristic, ("x", "y", "z"), weights)


# small exponents, and exponents up to the cap's degree with weights <= 3
exponents = st.one_of(st.integers(0, 6), st.integers(0, MAX_PACKED_DEGREE // 9))
monomials = st.tuples(exponents, exponents, exponents)
small_monomials = st.tuples(*[st.integers(0, 6)] * 3)
components = st.integers(0, 3)
weight_triples = st.tuples(*[st.integers(1, 3)] * 3)
FIELDS = pytest.mark.parametrize("characteristic", [0, 32003])


@FIELDS
@given(terms=st.lists(st.tuples(components, monomials), min_size=1, max_size=5),
       weights=weight_triples)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_packing_round_trips(characteristic, terms, weights):
    R = packed_ring(characteristic, weights)
    for comp, m in terms:
        assert R._unpack(R._pack(comp, m)) == (comp, m)
    v = {t: R.field.coerce(i + 1) for i, t in enumerate(terms)}
    assert R._unpack_vector(R._pack_vector(v)) == v


@FIELDS
@given(comp=components, a=monomials, b=monomials, weights=weight_triples)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_packed_divisibility_agrees_with_mono_divides(characteristic, comp, a, b, weights):
    """u divides t exactly when the exponent guards of t - u are clear."""
    R = packed_ring(characteristic, weights)
    t, u = R._pack(comp, a), R._pack(comp, b)
    assert (not (t - u) & R._exp_guards) == mono_divides(b, a)


@st.composite
def capped_monomials(draw, weights):
    """Monomials of weighted degree at most MAX_PACKED_DEGREE, each
    exponent drawn up to what degree is left, variables in a drawn order."""
    m, room = [0, 0, 0], MAX_PACKED_DEGREE
    for i in draw(st.permutations(range(3))):
        m[i] = draw(st.integers(0, room // weights[i]))
        room -= weights[i] * m[i]
    return tuple(m)


leads_over_weights = weight_triples.flatmap(lambda w: st.tuples(
    st.just(w), st.lists(st.tuples(st.integers(0, 1), capped_monomials(w)),
                         min_size=2, max_size=5)))
TWICE_THE_CAP = ((1, 1, 1), [(0, (MAX_PACKED_DEGREE, 0, 0)), (0, (0, MAX_PACKED_DEGREE, 0))])
ONE_ABOVE_THE_CAP = ((1, 1, 2), [(0, (16384, 0, 0)), (0, (1, 0, 8192))])


def _popped_first_above_the_cap(R, rank, shifts, leads):
    """The degree of the first pair, in (degree + shift, i, j) order, that
    the product criterion keeps and whose lcm is above the cap, or None."""
    pairs = sorted(
        (R.mono_degree(mono_lcm(a, b)) + shifts[c], i, j, R.mono_degree(mono_lcm(a, b)))
        for j, (c, b) in enumerate(leads) for i, (d, a) in enumerate(leads[:j])
        if c == d and not (rank == 1 and mono_coprime(a, b)))
    return next((deg for _key, _i, _j, deg in pairs if deg > MAX_PACKED_DEGREE), None)


@FIELDS
@given(case=leads_over_weights, rank=st.integers(1, 2), shift=st.integers(0, 3))
@example(case=TWICE_THE_CAP, rank=1, shift=0)
@example(case=ONE_ABOVE_THE_CAP, rank=1, shift=1)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_builder_pairs_agree_with_mono_lcm_and_mono_coprime(characteristic, case, rank, shift):
    """A GroebnerBuilder's pairs read degrees off the packed lead bits: each
    heap entry is deg(lcm) + shift, lcms up to twice the cap, a rank-1 pair
    is skipped exactly when its leads are coprime, and complete() raises
    exactly when a pair the product criterion keeps has its lcm above the
    cap, naming the first such degree."""
    weights, leads = case
    R = packed_ring(characteristic, weights)
    leads = [(c % rank, m) for c, m in leads]
    shifts = [shift + 2 * c for c in range(rank)]
    builder = groebner.GroebnerBuilder(R, rank, shifts)
    for c, m in leads:
        builder.add({(c, m): 1})
    assert sorted(builder.queue) == sorted(
        (R.mono_degree(mono_lcm(a, b)) + shifts[c], i, j)
        for j, (c, b) in enumerate(leads) for i, (d, a) in enumerate(leads[:j]) if c == d)
    first = _popped_first_above_the_cap(R, rank, shifts, leads)
    if first is None:
        builder.complete()
    else:
        with pytest.raises(AlgebraError, match=f"degree {first} is above {MAX_PACKED_DEGREE}$"):
            builder.complete()
    # each pair alone: one normal form unless skipped as coprime or refused
    for j, (c, b) in enumerate(leads):
        for d, a in leads[:j]:
            if c != d:
                continue
            pair = groebner.GroebnerBuilder(R, rank, shifts)
            pair.add({(c, a): 1})
            pair.add({(c, b): 1})
            skipped = rank == 1 and mono_coprime(a, b)
            above = R.mono_degree(mono_lcm(a, b)) > MAX_PACKED_DEGREE
            with mock.patch.object(groebner, "normal_form_vec",
                                   wraps=groebner.normal_form_vec) as nf:
                if above and not skipped:
                    with pytest.raises(AlgebraError, match="above"):
                        pair.complete()
                else:
                    pair.complete()
            assert nf.call_count == (not skipped and not above)


@FIELDS
@given(comp=components, other=components, a=monomials, b=small_monomials,
       c=small_monomials, weights=weight_triples)
@settings(max_examples=80, derandomize=True, deadline=None)
def test_packed_product_and_quotient_agree_with_mono_mul_and_mono_div(
        characteristic, comp, other, a, b, c, weights):
    """The quotient of t = x^(a+b) e_comp by its divisor x^a e_comp is the
    difference q of their ints; t' + q is the product of any term t' by x^b,
    and t - q the quotient of t by x^b."""
    R = packed_ring(characteristic, weights)
    ab = mono_mul(a, b)
    if R.mono_degree(ab) > MAX_PACKED_DEGREE:
        with pytest.raises(AlgebraError):
            R._pack(comp, ab)
        return
    q = R._pack(comp, ab) - R._pack(comp, a)
    assert R._unpack(R._pack(other, c) + q) == (other, mono_mul(c, b))
    assert R._unpack(R._pack(comp, ab) - q) == (comp, mono_div(ab, b))


def test_packing_a_degree_above_the_cap_raises():
    R = make_ring(0, ("x", "y"), (1, 2))
    assert R._unpack(R._pack(2, (MAX_PACKED_DEGREE - 2, 1))) == (2, (MAX_PACKED_DEGREE - 2, 1))
    # degree 32767, the y field holding 2 * 16383 = 32766
    t = R._pack(1, (1, 16383))
    assert (t >> 16) & 0xFFFF == 32766 and R._unpack(t) == (1, (1, 16383))
    with pytest.raises(AlgebraError, match="degree"):
        R._pack(0, (MAX_PACKED_DEGREE - 1, 1))
