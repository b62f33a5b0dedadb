"""Groebner bases for submodules of free modules over the ambient ring.

Vectors in S^s are sparse dicts mapping (component, exponent tuple) to a
nonzero field element.  The module order is position-over-term (lower
component index wins), refined by weighted grevlex on monomials.
Syzygies and division representations both come from one augmented-basis
construction: generators (g_i, eps_i) in S^(s+k), with the main block
dominating the tag block, and optional untagged relations (r, 0).
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
import math
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import AlgebraError
from .ring import (
    INFINITE,
    PolynomialRing,
    Polynomial,
    mono_coprime,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# A term symbol is (component, monomial); a vector maps terms to coeffs.
Term = Tuple[int, tuple]
Vector = Dict[Term, object]


def term_key(ring: PolynomialRing, term: Term):
    """Sort key; the component dominates and the lower index wins, then
    PolynomialRing.mono_key, inlined since it runs per term per reduction
    step."""
    comp, mono = term
    return (-comp, sum(map(operator.mul, ring.weights, mono)),
            tuple(map(operator.neg, mono[::-1])))


# ---------------------------------------------------------------------------
# vector arithmetic


def vec_lead(v: Vector, ring: PolynomialRing) -> Term:
    return max(v, key=functools.partial(term_key, ring))


def vec_axpy(v: Vector, coeff, mono: tuple, w: Vector, field) -> Vector:
    """v + coeff * x^mono * w, in place; returns v."""
    zero = field.zero
    for (comp, m), c in w.items():
        t = (comp, mono_mul(mono, m))
        s = field.add(v.get(t, zero), field.mul(coeff, c))
        if s == 0:
            v.pop(t, None)
        else:
            v[t] = s
    return v


def vec_scale(v: Vector, coeff, field) -> Vector:
    if coeff == field.zero:
        return {}
    return {t: field.mul(coeff, c) for t, c in v.items()}


def _monic(v: Vector, lead: Term, field) -> Vector:
    """v scaled so the coefficient at its lead term is one."""
    lc = v[lead]
    if lc == field.one:
        return v
    return vec_scale(v, field.inv(lc), field)


def freeze_vec(v: Vector) -> tuple:
    return tuple(sorted(v.items()))


def vec_shift_components(v: Vector, offset: int) -> Vector:
    return {(comp + offset, m): c for (comp, m), c in v.items()}


def vec_restrict(v: Vector, lo: int, hi: int) -> Vector:
    """Entries with lo <= component < hi, components rebased to start at 0."""
    return {(comp - lo, m): c for (comp, m), c in v.items() if lo <= comp < hi}


# ---------------------------------------------------------------------------
# division


def normal_form_vec(
    v: Vector,
    reducers: Sequence[Tuple[Vector, Term]],
    ring: PolynomialRing,
) -> Vector:
    """Fully reduced remainder of v against (monic vector, lead term) pairs.

    A step that leaves the term it reduced raises AlgebraError, so a reducer
    that is not monic, or faulty field arithmetic, fails instead of looping."""
    field = ring.field
    key = functools.partial(term_key, ring)
    work = dict(v)
    remainder: Vector = {}
    while work:
        t = max(work, key=key)
        c = work[t]
        comp, mono = t
        hit = None
        for g, (gcomp, gmono) in reducers:
            if gcomp == comp and mono_divides(gmono, mono):
                hit = (g, gmono)
                break
        if hit is None:
            remainder[t] = c
            del work[t]
        else:
            g, gmono = hit
            vec_axpy(work, field.neg(c), mono_div(mono, gmono), g, field)
            if t in work:
                raise AlgebraError(f"a reduction step left the term {t} in place: "
                                   "a reducer is not monic, or the field is faulty")
    return remainder


# ---------------------------------------------------------------------------
# Buchberger


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis of a submodule of S^rank; leads[i] is the lead
    term of vectors[i]."""

    ring: PolynomialRing
    rank: int
    vectors: tuple
    leads: tuple = dataclasses.field(compare=False)

    def lead_terms(self) -> List[Term]:
        return list(self.leads)

    def as_dicts(self) -> List[Vector]:
        return [dict(g) for g in self.vectors]


class GroebnerBuilder:
    """Buchberger's loop, kept open: add vectors, complete the basis up to a
    degree, read off the reduced basis.  A pair's degree is its lcm's degree
    plus shifts[component]; for inputs homogeneous under those generator
    degrees, complete(d) decides membership of every vector of degree <= d."""

    def __init__(self, ring: PolynomialRing, rank: int, shifts: Sequence[int] = ()):
        self.ring, self.rank = ring, rank
        self.shifts = shifts or (0,) * rank
        self.pairs: List[Tuple[Vector, Term]] = []  # (monic vector, lead term)
        self.leads: List[Term] = []
        # S-pairs not yet treated: the set serves the chain criterion, the heap
        # yields them by (degree, i, j).
        self.pending = set()
        self.queue: List[Tuple[int, int, int]] = []

    def add(self, v: Vector, known: Optional[int] = None) -> None:
        """Add v, forming its S-pairs with the vectors added before it.

        known=start marks v as a member of a Groebner basis whose vectors are
        added from index start on: v then forms no pair with them, since
        those pairs have standard representations and reduce to zero."""
        ring, leads = self.ring, self.leads
        lt = vec_lead(v, ring)
        j = len(leads)
        self.pairs.append((_monic(v, lt, ring.field), lt))
        leads.append(lt)
        comp, mono = lt
        for i in range(j if known is None else known):
            if leads[i][0] == comp:
                self.pending.add((i, j))
                heapq.heappush(self.queue, (
                    ring.mono_degree(mono_lcm(leads[i][1], mono)) + self.shifts[comp], i, j))

    def complete(self, upto_degree: Optional[int] = None) -> None:
        """Treat every pending pair, or those of degree <= upto_degree."""
        ring, field = self.ring, self.ring.field
        G, leads, pending, queue = self.pairs, self.leads, self.pending, self.queue
        while queue and (upto_degree is None or queue[0][0] <= upto_degree):
            _deg, i, j = heapq.heappop(queue)
            pending.discard((i, j))
            L = mono_lcm(leads[i][1], leads[j][1])
            # product criterion (valid for rank-1 ideals only)
            if self.rank == 1 and mono_coprime(leads[i][1], leads[j][1]):
                continue
            # chain criterion
            skip = False
            comp = leads[i][0]
            for k in range(len(G)):
                if k in (i, j) or leads[k][0] != comp:
                    continue
                if mono_divides(leads[k][1], L):
                    pik = (min(i, k), max(i, k))
                    pjk = (min(j, k), max(j, k))
                    if pik not in pending and pjk not in pending:
                        skip = True
                        break
            if skip:
                continue
            s: Vector = {}
            vec_axpy(s, field.one, mono_div(L, leads[i][1]), G[i][0], field)
            vec_axpy(s, field.neg(field.one), mono_div(L, leads[j][1]), G[j][0], field)
            r = normal_form_vec(s, G, ring)
            if r:
                self.add(r)

    def reduced(self) -> GroebnerBasis:
        """The reduced basis of what was added; complete() it first."""
        ring, leads = self.ring, self.leads
        # minimalize: drop g when another lead divides lt (of equal leads, keep the first)
        keep = []
        for i, (g, lt) in enumerate(self.pairs):
            for j, ltj in enumerate(leads):
                if (j != i and ltj[0] == lt[0] and mono_divides(ltj[1], lt[1])
                        and (ltj[1] != lt[1] or j < i)):
                    break
            else:
                keep.append((g, lt))
        # interreduce: no other kept lead divides lt, so lt stays the lead term,
        # with coefficient one, of g's remainder
        reduced = [(normal_form_vec(g, keep[:i] + keep[i + 1:], ring), lt)
                   for i, (g, lt) in enumerate(keep)]
        reduced.sort(key=lambda pair: term_key(ring, pair[1]), reverse=True)
        return GroebnerBasis(ring, self.rank, tuple(freeze_vec(r) for r, _lt in reduced),
                             tuple(lt for _r, lt in reduced))


def groebner_basis(
    generators: Sequence[Vector],
    ring: PolynomialRing,
    rank: int,
    known: Sequence[Tuple[int, tuple]] = (),
) -> GroebnerBasis:
    """Reduced Groebner basis of the generators and the known bases,
    memoised on the ring by (rank, generators, known bases).

    Each known entry is (offset, vectors): the frozen vectors of a Groebner
    basis (GroebnerBasis.vectors), moved up by offset components.  They are
    added first, with no S-pairs inside one entry."""
    key = (rank, tuple(freeze_vec(g) for g in generators), tuple(known))
    cached = ring._groebner_memo.get(key)
    if cached is not None:
        return cached
    builder = GroebnerBuilder(ring, rank)
    for offset, vectors in known:
        start = len(builder.leads)
        for v in vectors:
            builder.add(vec_shift_components(dict(v), offset), known=start)
    for g in generators:
        if g:
            builder.add(dict(g))
    builder.complete()
    result = ring._groebner_memo[key] = builder.reduced()
    return result


def normal_form(v: Vector, G: GroebnerBasis) -> Vector:
    return normal_form_vec(v, list(zip(G.as_dicts(), G.leads)), G.ring)


# ---------------------------------------------------------------------------
# syzygies and representations via the augmented basis


def _augmented_basis(
    generators: Sequence[Vector], ring: PolynomialRing, rank: int,
    relations: Sequence[Vector] = (),
) -> GroebnerBasis:
    """GB of the tagged generators (g_i, eps_i) and the untagged relations
    (r, 0) in S^(rank + k)."""
    one = ring._one_mono
    aug = []
    for i, g in enumerate(generators):
        h = dict(g)
        h[(rank + i, one)] = ring.field.one
        aug.append(h)
    return groebner_basis(aug + list(relations), ring, rank + len(generators))


def syzygy_basis(
    generators: Sequence[Vector], ring: PolynomialRing, rank: int,
    relations: Sequence[Vector] = (),
) -> List[Vector]:
    """Generators of {c in S^k : sum_i c_i g_i in the span of the relations}
    for the given k vectors."""
    aug = _augmented_basis(generators, ring, rank, relations)
    out = []
    for fv in aug.vectors:
        if all(comp >= rank for (comp, _m), _c in fv):
            out.append({(comp - rank, m): c for (comp, m), c in fv})
    return out


def reduce_with_representation(
    v: Vector, generators: Sequence[Vector], ring: PolynomialRing, rank: int,
) -> Tuple[Vector, List[Polynomial]]:
    """Return (r, [q_i]) with v = sum q_i g_i + r and r fully reduced."""
    k = len(generators)
    aug = _augmented_basis(generators, ring, rank)
    nf = normal_form(dict(v), aug)
    r = vec_restrict(nf, 0, rank)
    field = ring.field
    reps = []
    for i in range(k):
        coeffs = {m: field.neg(c) for (comp, m), c in nf.items() if comp == rank + i}
        reps.append(Polynomial(ring, coeffs))
    return r, reps


# ---------------------------------------------------------------------------
# Hilbert series, lengths, multiplicity


def _minimal_monomial_gens(monos: Sequence[tuple]) -> List[tuple]:
    uniq = sorted(set(monos))
    out = []
    for m in uniq:
        if not any(mono_divides(g, m) for g in uniq if g != m):
            out.append(m)
    return out


def lead_module(G: GroebnerBasis) -> Dict[int, List[tuple]]:
    """Minimal monomial generators of the lead-term module, per component."""
    by_comp: Dict[int, List[tuple]] = {c: [] for c in range(G.rank)}
    for comp, mono in G.lead_terms():
        by_comp[comp].append(mono)
    return {c: _minimal_monomial_gens(ms) for c, ms in by_comp.items()}


# numerator polynomials in t are dicts degree -> int


def _tpoly_sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) - c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def _tpoly_shift(a: dict, k: int) -> dict:
    return {d + k: c for d, c in a.items()}


def _tpoly_div_1mt(a: dict) -> dict:
    """Exact division by (1 - t); caller guarantees a(1) == 0."""
    if not a:
        return {}
    top = max(a)
    coeffs = [a.get(d, 0) for d in range(top + 1)]
    # (1-t) * (q_0 + q_1 t + ...) : q_0 = c_0, q_d = q_{d-1} + ... solve forward
    q = []
    carry = 0
    for d in range(top + 1):
        val = coeffs[d] + carry
        q.append(val)
        carry = val
    if top > 0 and q[-1] != 0:
        raise AlgebraError("numerator does not vanish at t = 1")
    return {d: c for d, c in enumerate(q[:-1] if top > 0 else q) if c}


def _ideal_numerator(gens: tuple, weights: tuple, memo: dict) -> dict:
    """Hilbert numerator of S/(monomial ideal) over the weighted denominator."""
    if not gens:
        return {0: 1}
    zero = (0,) * len(weights)
    if zero in gens:
        return {}
    cached = memo.get(gens)
    if cached is not None:
        return cached
    head, last = gens[:-1], gens[-1]
    deg = sum(w * e for w, e in zip(weights, last))
    colon = tuple(
        _minimal_monomial_gens(
            [tuple(max(g[i] - last[i], 0) for i in range(len(last))) for g in head]
        )
    )
    result = _tpoly_sub(
        _ideal_numerator(head, weights, memo),
        _tpoly_shift(_ideal_numerator(colon, weights, memo), deg),
    )
    memo[gens] = result
    return result


def hilbert_numerator(G: GroebnerBasis, shifts: Optional[Sequence[int]] = None) -> dict:
    """Hilbert series numerator of S^rank/(lead module); denominator is
    prod_i (1 - t^(w_i)).  Optional generator degree shifts."""
    weights = G.ring.weights
    memo: dict = {}
    total: dict = {}
    comps = lead_module(G)
    for comp in range(G.rank):
        gens = tuple(comps.get(comp, []))
        num = _ideal_numerator(gens, weights, memo)
        shift = shifts[comp] if shifts else 0
        total = _tpoly_sub(total, _tpoly_shift({d: -c for d, c in num.items()}, shift))
    return total


def _series_at_one(num: dict) -> Tuple[Optional[int], int]:
    """(order of the root t = 1 of num, value at t = 1 of num / (1 - t)^order);
    (None, 0) for the zero numerator."""
    if not num:
        return None, 0
    # generator degrees may be negative; a power of t moves neither the root
    # nor the value at t = 1
    num = _tpoly_shift(num, -min(num))
    order = 0
    while sum(num.values()) == 0:
        num = _tpoly_div_1mt(num)
        order += 1
    return order, sum(num.values())


def series_length(num: dict, weights: Sequence[int]):
    """Length of a module with Hilbert series num / prod_i (1 - t^(w_i)): its
    value at t = 1, or INFINITE at a pole."""
    order, value = _series_at_one(num)
    if order is None:
        return 0
    if order < len(weights):
        return INFINITE
    length, rest = divmod(value, math.prod(weights))
    if order > len(weights) or rest or length <= 0:
        raise AlgebraError(f"{num} is not the Hilbert numerator of a module")
    return length


def quotient_dimension(G: GroebnerBasis) -> int:
    """Krull dimension of S^rank/(lead module); -1 for the zero module."""
    order, _value = _series_at_one(hilbert_numerator(G))
    if order is None:
        return -1
    return G.ring.nvars - order


def multiplicity(G: GroebnerBasis) -> int:
    """Normalized leading coefficient of the Hilbert polynomial (weights 1)."""
    if any(w != 1 for w in G.ring.weights):
        raise ValueError("multiplicity requires all weights equal to 1")
    order, e = _series_at_one(hilbert_numerator(G))
    if order is None:
        raise ValueError("multiplicity of the zero module is undefined")
    if order == G.ring.nvars:
        raise ValueError("zero-dimensional quotient: use series_length instead")
    if e <= 0:
        raise AlgebraError(f"multiplicity {e} is not positive")
    return e
