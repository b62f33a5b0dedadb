"""Coefficient fields, polynomial arithmetic, parsing, and graded checks."""

import re
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
)
from thetacas import groebner
from thetacas.errors import AlgebraError, InhomogeneousError, ParseError
from thetacas.ring import (
    MAX_NESTING,
    MAX_PACKED_DEGREE,
    PRIMALITY_BOUND,
    _is_prime,
)
from oracles import (
    format_columns_reference,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_key,
    mono_lcm,
    mono_mul,
    pack_vector,
    unpack_vector,
)
from oracles import monomials as tuple_coeffs


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
    cases = [(Q.coerce(a + b), fa + fb), (Q.mul(a, b), fa * fb),
             (Q.coerce(-a), -fa), (Q.coerce(a), fa), (Q.coerce(fa), fa)]
    if fb:
        cases.append((Q.inv(b), 1 / fb))
    for got, want in cases:
        assert got == want
        assert type(got) is (int if want.denominator == 1 else Fraction)
    assert type(Q.coerce(Fraction(0))) is int and type(Q.coerce(Fraction(1))) is int


@given(data=st.data())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_packed_axpy_matches_the_field_operations(data):
    """FieldSpec.axpy, v + c * x^q * w on packed vectors with the field
    arithmetic inlined, gives what the route through coerce and mul gives, term
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
        v[t + q] = F.coerce(-F.mul(coeff, w[t]))
    expected = dict(v)
    for t, c in w.items():
        s = F.coerce(expected.get(t + q, 0) + F.mul(coeff, c))
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
    M = res.module
    bases = [M.presentation_gb(), M._open.syzygies()]
    types = {type(c) for G in bases for g in G.vectors for c in g.values()}
    types |= {type(c) for i in range(1, 6)
              for v in res.packed_columns(i) for c in v.values()}
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
        return Rp.from_dict({m: int(co) for m, co in tuple_coeffs(poly).items()})

    lhs = push(a * b + c * c - a)
    rhs = push(a) * push(b) + push(c) * push(c) - push(a)
    assert lhs == rhs


def _tuple_sum(a, b, sign, field):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return _reduced(out, field)


def _tuple_product(a, b, field):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return _reduced(out, field)


def _reduced(coeffs, field):
    """The nonzero coefficients, as Fractions over Q and residues over F_p."""
    p = field.characteristic
    values = {m: Fraction(c) % p if p else Fraction(c) for m, c in coeffs.items()}
    return {m: c for m, c in values.items() if c}


def _top_monomial(weights, degree, draw):
    """A monomial of the given weighted degree, or just below it when the
    weights cannot make it: the smallest weight takes what is left."""
    order, m = sorted(range(3), key=lambda i: -weights[i]), [0, 0, 0]
    for i in order[:-1]:
        m[i] = draw(st.integers(0, degree // weights[i]))
        degree -= weights[i] * m[i]
    m[order[-1]] = degree // weights[order[-1]]
    return tuple(m)


def _printed_monomials(R, text):
    """The exponent tuples of the terms of a printed polynomial, in order."""
    out = []
    for term in re.split(" [+-] ", text.lstrip("-")):
        m = [0] * R.nvars
        for factor in term.split("*"):
            name, _, e = factor.partition("^")
            if name in R.variables:
                m[R.variables.index(name)] = int(e or 1)
        out.append(tuple(m))
    return out


@st.composite
def packed_arithmetic_cases(draw):
    """(characteristic, weights, a, b, c): tuple dicts a and b of small
    terms, b cancelling some of a's, each with a top term drawn so that the
    largest product has degree MAX_PACKED_DEGREE - 1, MAX_PACKED_DEGREE or
    one above it (or is small), and a scalar c that may be 0."""
    p = draw(st.sampled_from([0, 32003]))
    weights = draw(weight_triples)
    values = (st.integers(-p // 2, p // 2) if p else rationals)
    small = st.tuples(*[st.integers(0, 3)] * 3)
    a = draw(st.dictionaries(small, values, max_size=4))
    b = draw(st.dictionaries(small, values, max_size=4))
    for m in draw(st.sets(st.sampled_from(sorted(a)), max_size=len(a))) if a else ():
        b[m] = -a[m]
    total = draw(st.sampled_from([None, MAX_PACKED_DEGREE - 1, MAX_PACKED_DEGREE,
                                  MAX_PACKED_DEGREE + 1]))
    if total is not None:
        first = draw(st.integers(max(total - MAX_PACKED_DEGREE, 0), min(total, MAX_PACKED_DEGREE)))
        a[_top_monomial(weights, first, draw)] = draw(values.filter(bool))
        b[_top_monomial(weights, total - first, draw)] = draw(values.filter(bool))
    return p, weights, a, b, draw(st.one_of(st.just(0), values))


@given(case=packed_arithmetic_cases())
@example(case=(0, (1, 1, 1), {(MAX_PACKED_DEGREE - 1, 0, 0): 1, (0, 1, 0): Fraction(1, 2)},
               {(1, 0, 0): -3, (0, 0, 1): 2}, 0))
@example(case=(32003, (1, 2, 3), {(1, 0, 0): 1, (0, 1, 0): 1},
               {(0, 0, (MAX_PACKED_DEGREE - 1) // 3): 5, (0, 1, 0): -1}, 7))
@example(case=(0, (1, 1, 1), {(1, 0, 0): 1, (0, 1, 0): 1}, {(1, 0, 0): 1, (0, 1, 0): -1}, -1))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_packed_polynomial_arithmetic_matches_tuple_dicts(case):
    """Polynomial arithmetic on packed terms, through FieldSpec.axpy, gives
    what tuple-dict arithmetic gives over Q (in Fractions) and over
    F_32003, with weights 1 to 3: sums and differences with cancelled
    terms, unary minus, scale (by 0 too) and products up to degree
    MAX_PACKED_DEGREE.  A product whose largest term is above it raises,
    naming that degree.  str lists the terms in decreasing weighted grevlex
    order, the order of the tuple-dict mono_key."""
    p, weights, a, b, c = case
    R = packed_ring(p, weights)
    A, B = R.from_dict(a), R.from_dict(b)
    a, b = _reduced(a, R.field), _reduced(b, R.field)
    assert tuple_coeffs(A) == a and tuple_coeffs(B) == b
    assert tuple_coeffs(A + B) == _tuple_sum(a, b, 1, R.field)
    assert tuple_coeffs(A - B) == _tuple_sum(a, b, -1, R.field)
    assert tuple_coeffs(A - A) == {} and (A - A).is_zero()
    assert tuple_coeffs(-A) == _tuple_sum({}, a, -1, R.field)
    assert tuple_coeffs(A.scale(c)) == _reduced({m: c * x for m, x in a.items()}, R.field)
    top = max(map(R.mono_degree, a), default=0) + max(map(R.mono_degree, b), default=0)
    if a and b and top > MAX_PACKED_DEGREE:
        with pytest.raises(AlgebraError, match=f"^a term of degree {top} is above "
                                               f"{MAX_PACKED_DEGREE}$"):
            A * B
    else:
        assert tuple_coeffs(A * B) == _tuple_product(a, b, R.field)
    for P in (A, B, A + B):
        if P.coeffs:
            assert _printed_monomials(R, str(P)) == sorted(
                tuple_coeffs(P), key=lambda m: mono_key(R, m), reverse=True)
    assert all(type(x) is (int if Fraction(x).denominator == 1 else Fraction)
               for P in (A + B, A - B, A.scale(c)) for x in P.coeffs.values())


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


def test_a_plain_ring_answers_as_a_ring_with_no_modulus():
    S = make_ring(variables=("x", "y", "z"))
    assert S.ambient is S and S.f is None and S._f_lead is None
    assert S.dimension == S.nvars == 3
    assert S._f_relations(2) == [] and S._f_reducers({0, 1}) == {}


def test_ring_dimension_examples(node, a1, quadric):
    assert node.dimension == 1
    assert quadric.dimension == 3
    assert a1.dimension == 2


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
    assert A.dimension == 1


def test_from_dict_rejects_malformed_exponent_tuples():
    """A term is packed from its exponents, so a tuple of the wrong length
    or with a negative entry would pack to another term or to garbage."""
    R = make_ring()
    assert R.from_dict({(1, 0): 2, (0, 0): 0}) == R.parse("2*x")
    for m in ((1,), (1, 0, 5), (-1, 0)):
        with pytest.raises(ValueError, match="non-negative"):
            R.from_dict({m: 1})


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
    assert unpack_vector(R, pack_vector(R, v)) == v


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
        builder.add(pack_vector(R, {(c, m): 1}))
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
            pair.add(pack_vector(R, {(c, a): 1}))
            pair.add(pack_vector(R, {(c, b): 1}))
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


# ---------------------------------------------------------------------------
# printing packed columns


@st.composite
def printed_matrices(draw):
    """(characteristic, weights, rank, columns): columns as dicts from
    (component, exponent tuple) to nonzero coefficients, over Q (negative
    values, Fractions and +-1 among them) or F_32003, with constant terms,
    several components and empty entries."""
    p = draw(st.sampled_from([0, 32003]))
    values = st.one_of(st.sampled_from([1, -1, p - 1] if p else [1, -1, Fraction(-1, 3)]),
                       st.integers(1, p - 1) if p else rationals.filter(bool))
    rank = draw(st.integers(1, 3))
    terms = st.tuples(st.integers(0, rank - 1), st.tuples(*[st.integers(0, 2)] * 3))
    columns = draw(st.lists(st.dictionaries(terms, values, max_size=6), max_size=4))
    return p, draw(weight_triples), rank, columns


@given(case=printed_matrices())
@example(case=(0, (1, 2, 3), 3, [{(0, (0, 0, 0)): -1, (0, (1, 0, 0)): Fraction(-1, 3),
                                  (2, (0, 1, 0)): 1, (2, (0, 0, 2)): Fraction(5, 2)},
                                 {}, {(1, (0, 0, 0)): 7, (1, (2, 0, 1)): -1}]))
@example(case=(32003, (1, 1, 1), 2, [{(1, (0, 0, 0)): 32002, (1, (1, 1, 0)): 1}]))
@settings(max_examples=60, derandomize=True, deadline=None)
def test_format_columns_matches_the_two_pass_printer(case):
    """The one-pass printer gives, entry for entry, what the groupby printer
    with a per-entry text helper gave: the first term as -x when negative,
    later ones as - x or + x, 0 for an empty entry, the coefficient left out
    only for magnitude 1 on a monomial other than 1, and a Fraction through
    str.  A second call, reading the monomial texts the first made, agrees."""
    p, weights, rank, columns = case
    R = packed_ring(p, weights)
    packed = [{R._pack(comp, m): R.field.coerce(c) for (comp, m), c in v.items()}
              for v in columns]
    expected = format_columns_reference(R, packed, rank)
    assert R.format_columns(packed, rank) == expected
    assert R.format_columns(packed, rank) == expected
