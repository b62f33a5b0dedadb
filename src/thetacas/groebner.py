"""Groebner bases for submodules of free modules over the ambient ring.

A vector in S^s maps packed terms, one int each (PolynomialRing._pack), to
nonzero field elements; every function here takes and returns vectors so.
The module order is position-over-term (lower component index wins),
refined by weighted grevlex on monomials: the smallest int is the lead
term, a product is a sum, and a divisibility test is a subtraction and a
mask.  The field adds the products of a reduction step inline
(FieldSpec.axpy), the one packed vector arithmetic.  A term's exponent
field i holds w_i * e_i, so an S-pair's lcm is a guard-bit max of two ints
and its degree the lcm bits modulo 0xFFFF.  S-pairs and Nakayama candidates
are reduced only until their lead is irreducible, which decides the same
membership; only a reduced basis's interreduction and the normal forms
modulo f reduce tails (a reduced basis is unique for the order: Cox, Little
and O'Shea, Ideals, Varieties, and Algorithms, 2.7).
Syzygies come from an augmented basis in S^(s+k), the main block dominating
the tag block, of tagged generators (g_i, eps_i) and optional untagged
relations (r, 0); only its tag-lead part is read.  A NakayamaSelection
builds one while it selects a minimal generating set, a kept candidate
entering with its tag, and leaves it open, so a resolution step reads its
syzygies off the step before, completed only up to the degree it needs.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import AlgebraError
from .ring import (
    _DEGREE_MODULUS,
    _FIELD_BITS,
    INFINITE,
    MAX_PACKED_DEGREE,
    PolynomialRing,
)

# A reducer is (packed lead term, monic packed vector), and reducers are
# grouped by the component of their lead, each group in the order its
# reducers were added.
Reducers = Dict[int, List[Tuple[int, dict]]]


# ---------------------------------------------------------------------------
# vector arithmetic


def _monic(v: dict, lead: int, field) -> dict:
    """The packed vector v scaled so the coefficient at lead is one."""
    lc = v[lead]
    if lc == 1:
        return v
    out: dict = {}
    field.axpy(out, field.inv(lc), 0, v)
    return out


# ---------------------------------------------------------------------------
# division


def normal_form_vec(v: dict, reducers: Reducers, ring: PolynomialRing,
                    tail: bool = True) -> dict:
    """Fully reduced remainder of the packed vector v against the reducers;
    of the reducers whose lead divides a term, the first added is used.
    With tail=False, v reduced only until its lead term is irreducible: the
    same steps, stopped at the first term the full remainder would keep, so
    it is zero exactly when the full remainder is and has the same lead.

    A term of degree above MAX_PACKED_DEGREE raises AlgebraError when it is
    reached (with tail=False, its tail terms are not).  So does a step that
    leaves the term it reduced, so a reducer that is not monic, or faulty
    field arithmetic, fails instead of looping."""
    axpy = ring.field.axpy
    comp_shift, guards, deg_guard = ring._comp_shift, ring._exp_guards, ring._deg_guard
    work = dict(v)
    remainder: dict = {}
    while work:
        t = min(work)
        if t & deg_guard:
            raise AlgebraError(f"a term of degree above {MAX_PACKED_DEGREE} arose")
        for lead, g in reducers.get(t >> comp_shift, ()):
            if not (t - lead) & guards:
                axpy(work, -work[t], t - lead, g)
                if t in work:
                    raise AlgebraError(f"a reduction step left the term {ring._unpack(t)} "
                                       "in place: a reducer is not monic, or the field is faulty")
                break
        else:
            if not tail:
                return work
            remainder[t] = work.pop(t)
    return remainder


# ---------------------------------------------------------------------------
# Buchberger


class GroebnerBasis:
    """Reduced Groebner basis of a submodule of S^rank.

    packed holds its (packed lead term, monic packed vector) pairs, leads
    decreasing; leads and vectors read them apart (only perfbench/tracer.py
    reads vectors).  It hashes by rank and leads, as it enters theta's
    module keys only.  A plain value with no ring: the module it presents
    holds it, and functions that read its terms take the ring."""

    __slots__ = ("rank", "packed")

    def __init__(self, rank: int, packed: tuple):
        self.rank = rank
        self.packed = packed

    @property
    def leads(self) -> tuple:
        return tuple(lead for lead, _g in self.packed)

    @property
    def vectors(self) -> tuple:
        return tuple(g for _lead, g in self.packed)

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self.rank == other.rank
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.rank, self.leads))


class GroebnerBuilder:
    """Buchberger's loop, kept open: add vectors, complete the basis up to a
    degree, read off a minimal or the reduced basis.  A pair's degree is its
    lcm's degree plus shifts[component]; for inputs homogeneous under those
    generator degrees, complete(d) decides membership of every vector of
    degree <= d.

    Pairs stay on packed ints: a pair's lcm is the field-wise max of the
    exponent bits of its leads, taken through the guard bits, and its degree
    is the lcm bits modulo _DEGREE_MODULUS.  S-pairs are reduced only until
    their lead is irreducible: the leads, and so the pairs formed, skipped
    and reduced, are those of full reduction, and only reduced()
    interreduces the tails of what it returns."""

    def __init__(self, ring: PolynomialRing, rank: int, shifts: Sequence[int] = ()):
        self.ring, self.rank = ring, rank
        self.shifts = shifts or (0,) * rank
        self.vectors: List[dict] = []  # monic packed vectors, in the order added
        self.codes: List[int] = []  # their packed lead terms
        self.bits: List[int] = []  # the exponent bits of those lead terms
        self.reducers: Reducers = {}
        # the indices of the vectors per lead component, ascending: pairs,
        # the chain criterion and minimalization look only within one
        self.by_comp: Dict[int, List[int]] = {}
        # S-pairs not yet treated, each to the exponent bits of its lcm: the
        # dict serves the chain criterion, the heap yields them by
        # (degree, i, j).
        self.pending: Dict[Tuple[int, int], int] = {}
        self.queue: List[Tuple[int, int, int]] = []

    def add(self, v: dict, known: Optional[int] = None) -> None:
        """Add the packed vector v, forming its S-pairs with the vectors
        added before it.

        known=start marks v as a member of a Groebner basis whose vectors are
        added from index start on: v then forms no pair with them, since
        those pairs have standard representations and reduce to zero."""
        ring, bits, pending, queue = self.ring, self.bits, self.pending, self.queue
        guards = ring._exp_guards
        lead = min(v)
        a = lead & ring._exp_bits
        comp = lead >> ring._comp_shift
        shift = self.shifts[comp]
        j = len(bits)
        g = _monic(v, lead, ring.field)
        self.vectors.append(g)
        self.codes.append(lead)
        bits.append(a)
        self.reducers.setdefault(comp, []).append((lead, g))
        same = self.by_comp.setdefault(comp, [])
        cap = j if known is None else known
        for i in same:
            if i >= cap:
                break
            b = bits[i]
            # the guard of each field where a >= b, spread over its field
            ge = ((a | guards) - b) & guards
            m = ge - (ge >> (_FIELD_BITS - 1))
            lcm = pending[(i, j)] = (a & m) | (b & ~m)
            heapq.heappush(queue, (lcm % _DEGREE_MODULUS + shift, i, j))
        same.append(j)

    def complete(self, upto_degree: Optional[int] = None) -> None:
        """Treat every pending pair, or those of degree <= upto_degree."""
        ring, field = self.ring, self.ring.field
        G, codes, bits, pending, queue = self.vectors, self.codes, self.bits, self.pending, self.queue
        by_comp, guards, shifts = self.by_comp, ring._exp_guards, self.shifts
        comp_shift, deg_shift = ring._comp_shift, ring._deg_shift
        product = self.rank == 1
        while queue and (upto_degree is None or queue[0][0] <= upto_degree):
            deg, i, j = heapq.heappop(queue)
            lcm = pending.pop((i, j))
            # product criterion (valid for rank-1 ideals only): the leads are
            # coprime when the lcm is their product
            if product and lcm == bits[i] + bits[j]:
                continue
            comp = codes[i] >> comp_shift
            deg -= shifts[comp]
            if deg > MAX_PACKED_DEGREE:
                raise AlgebraError(f"a term of degree {deg} is above {MAX_PACKED_DEGREE}")
            L = (comp << comp_shift) + ((MAX_PACKED_DEGREE - deg) << deg_shift) + lcm
            # chain criterion: a lead of the same component dividing L, both
            # of whose pairs with i and j are treated
            skip = False
            for k in by_comp[comp]:
                if (not (L - codes[k]) & guards and k != i and k != j
                        and (min(i, k), max(i, k)) not in pending
                        and (min(j, k), max(j, k)) not in pending):
                    skip = True
                    break
            if skip:
                continue
            q = L - codes[i]
            s = {t + q: c for t, c in G[i].items()}
            field.axpy(s, -1, L - codes[j], G[j])
            r = normal_form_vec(s, self.reducers, ring, tail=False)
            if r:
                self.add(r)

    def minimal(self, lo: int = 0) -> Reducers:
        """A minimal basis, grouped as the reducers are, of what was added, in
        components >= lo; complete() it first.  It drops g when another lead
        of its component divides g's lead (of equal leads, keeps the first)."""
        guards, groups = self.ring._exp_guards, {}
        for comp, same in self.by_comp.items():
            if comp >= lo:
                codes = [(i, self.codes[i]) for i in same]
                groups[comp] = [(lead, self.vectors[i]) for i, lead in codes if not any(
                    j != i and not (lead - other) & guards and (other != lead or j < i)
                    for j, other in codes)]
        return groups

    def reduced(self, lo: int = 0, tags: Optional[Sequence[int]] = None) -> GroebnerBasis:
        """The reduced basis, the minimal one interreduced; complete() it first.

        With lo > 0, only its elements whose lead lies in a component >= lo,
        moved down by lo components: the reduced basis of the module's
        intersection with the last rank - lo components.  Every term of such
        an element lies there, so only such elements reduce it, and the rest
        are neither minimalized nor interreduced.  tags, ascending, names the
        only components >= lo (counted from lo) that the module uses; they
        are renumbered 0, 1, ... in their order, which keeps the term order."""
        ring, comp_shift = self.ring, self.ring._comp_shift
        if tags is None:
            tags = range(self.rank - lo)
        moves = {lo + n: (lo + n - k) << comp_shift for k, n in enumerate(tags)}
        groups = self.minimal(lo)
        # interreduce against the other kept vectors: none of their leads
        # divides g's lead, so it stays the lead term, with coefficient one,
        # of g's remainder
        reduced = []
        for comp, own in groups.items():
            for k, (lead, g) in enumerate(own):
                groups[comp] = own[:k] + own[k + 1:]
                r = normal_form_vec(g, groups, ring)
                if lo:
                    lead -= moves[comp]
                    r = {t - moves[t >> comp_shift]: c for t, c in r.items()}
                reduced.append((lead, r))
            groups[comp] = own
        reduced.sort(key=lambda pair: pair[0])
        return GroebnerBasis(len(tags), tuple(reduced))


def groebner_basis(generators: Sequence[dict], ring: PolynomialRing, rank: int) -> GroebnerBasis:
    """Reduced Groebner basis of the nonzero packed generators in S^rank.
    It remembers nothing: a module keeps its own presentation basis."""
    builder = GroebnerBuilder(ring, rank)
    for g in generators:
        if g:
            builder.add(g)
    builder.complete()
    return builder.reduced()


# ---------------------------------------------------------------------------
# syzygies via the augmented basis


class NakayamaSelection:
    """Graded Nakayama selection of a minimal generating set from
    homogeneous candidates (packed vector, degree) in S^rank, modulo the
    packed relations, that leaves one builder open on the syzygies of the
    kept candidates.

    The builder runs over S^rank (+) S^k, k candidates, with the relations
    (r, 0) added first and the tag eps_n of candidate n shifted by its
    degree, so every pair's degree is its true degree.  Candidates are
    treated in degree order, ties in the given order, each after completing
    the builder to its degree: one is redundant exactly when its normal form
    has no term in the first rank components, that is, when v reduced until
    its lead is irreducible is zero or has its lead in the tag block (the
    main block dominates).  A kept one enters as that reduced v plus eps_n,
    which spans with the earlier vectors what (v, eps_n) spans.  kept holds
    the kept indices, ascending, and generators and degrees the kept vectors
    and their degrees.  The builder refers to the ring and the vectors only,
    never to a module."""

    def __init__(self, ring: PolynomialRing, target_degs: Sequence[int],
                 candidates: Sequence[Tuple[dict, int]], relations: Sequence[dict]):
        rank = len(target_degs)
        self.ring, self.rank = ring, rank
        builder = self._builder = GroebnerBuilder(
            ring, rank + len(candidates), list(target_degs) + [d for _v, d in candidates])
        for r in relations:
            builder.add(r)
        comp_shift = ring._comp_shift
        bound = rank << comp_shift
        tag = bound + ring._one  # eps_0; eps_n is n components on
        kept = []
        for n in sorted(range(len(candidates)), key=lambda n: candidates[n][1]):
            v, degree = candidates[n]
            builder.complete(degree)
            r = normal_form_vec(v, builder.reducers, ring, tail=False)
            if r and min(r) < bound:
                r[tag + (n << comp_shift)] = 1
                builder.add(r)
                kept.append(n)
        self.kept = sorted(kept)
        self.generators = [candidates[n][0] for n in self.kept]
        self.degrees = [candidates[n][1] for n in self.kept]
        self.relations = relations

    def syzygies(self, upto: Optional[float] = None) -> GroebnerBasis:
        """The reduced basis of the syzygies of the kept vectors modulo the
        relations, or with upto only its elements of degree <= upto, read
        off the builder completed up to upto.  Pair degrees are true degrees
        and a pair of degree d yields a vector of degree d, so the pairs of
        degree <= upto alone build the basis in those degrees, and a lead
        above upto divides no lead below it.  A lead's degree is read off
        its packed degree field."""
        self._builder.complete(upto)
        basis = self._builder.reduced(self.rank, self.kept)
        if upto is None:
            return basis
        ring, degrees, mask = self.ring, self.degrees, (1 << _FIELD_BITS) - 1
        return GroebnerBasis(basis.rank, tuple(
            (lead, g) for lead, g in basis.packed
            if MAX_PACKED_DEGREE - (lead >> ring._deg_shift & mask)
            + degrees[lead >> ring._comp_shift] <= upto))


# ---------------------------------------------------------------------------
# Hilbert series and lengths


def finite_colength(G: GroebnerBasis, ring: PolynomialRing) -> bool:
    """Whether S^rank / (lead module) has finite length, for G over the ring
    S, with no Hilbert series: every component's leads hold a pure power of
    every variable, a lead whose exponent bits lie in that variable's field
    alone."""
    others = [ring._exp_bits ^ (((1 << _FIELD_BITS) - 1) << s) for s in ring._exp_shifts]
    pure = {(lead >> ring._comp_shift, i) for lead, _g in G.packed
            for i, other in enumerate(others) if not lead & other}
    return len(pure) == G.rank * ring.nvars


# numerator polynomials in t are dicts degree -> int


def _tpoly_axpy(acc: dict, coeff: int, shift: int, a: dict) -> dict:
    """acc += coeff * t^shift * a in place, dropping cancelled terms; returns
    acc.  acc must not be a numerator a memo or a module owns."""
    for d, c in a.items():
        d += shift
        s = acc.get(d, 0) + coeff * c
        if s:
            acc[d] = s
        else:
            acc.pop(d, None)
    return acc


def _ideal_numerator(gens: tuple, guards: int, memo: dict) -> dict:
    """Hilbert numerator of S/(monomial ideal) over the weighted denominator,
    for the ideal's minimal generators as exponent bits, ascending:
    HN(g_1..g_m) = 1 - sum_k t^(deg g_k) HN((g_1..g_{k-1}) : g_k), so the
    recursion follows the nesting of colon ideals, not the generator count.
    deg g is g % _DEGREE_MODULUS, and a divisor is no larger, so one
    ascending pass minimalizes a colon ideal's generators.  The memo holds
    every prefix read, and the sum starts after the longest."""
    if not gens:
        return {0: 1}
    if not gens[0]:
        return {}
    cached = memo.get(gens)
    if cached is not None:
        return cached
    start = len(gens) - 1
    while start and gens[:start] not in memo:
        start -= 1
    result = memo[gens[:start]] if start else {0: 1}
    for k in range(start, len(gens)):
        g = gens[k]
        quotients = set()
        for h in gens[:k]:
            # h : g is h - min(h, g), the min taken as GroebnerBuilder.add
            # takes an lcm: the guard of each field where h >= g, spread
            ge = ((h | guards) - g) & guards
            m = ge - (ge >> (_FIELD_BITS - 1))
            quotients.add((h & m) - (g & m))
        colon: List[int] = []
        for q in sorted(quotients):
            if all((q - p) & guards for p in colon):
                colon.append(q)
        result = _tpoly_axpy(dict(result), -1, g % _DEGREE_MODULUS,
                             _ideal_numerator(tuple(colon), guards, memo))
        memo[gens[:k + 1]] = result
    return result


def hilbert_numerator(leads: Sequence[int], rank: int, ring: PolynomialRing,
                      shifts: Optional[Sequence[int]] = None) -> dict:
    """Hilbert series numerator of S^rank/(leads) over the ring S, for the
    leads of a minimal or reduced basis: no lead divides another of its
    component, so they are the minimal generators of each lead ideal.
    Denominator is prod_i (1 - t^(w_i)); optional generator degree shifts."""
    by_comp: Dict[int, List[int]] = {comp: [] for comp in range(rank)}
    for lead in leads:
        by_comp[lead >> ring._comp_shift].append(lead & ring._exp_bits)
    memo, total = {}, {}
    for comp, gens in by_comp.items():
        _tpoly_axpy(total, 1, shifts[comp] if shifts else 0,
                    _ideal_numerator(tuple(sorted(gens)), ring._exp_guards, memo))
    return total


def _series_at_one(num: dict) -> Tuple[Optional[int], int]:
    """(order of the root t = 1 of num, value at t = 1 of num / (1 - t)^order);
    (None, 0) for the zero numerator.

    With low the lowest degree, num = t^low * sum_k a_k (t - 1)^k for the
    Taylor coefficients a_k = sum_d c_d C(d - low, k) at t = 1 (a power of t
    moves neither the root nor the value, so generator degrees may be
    negative).  The order is the first k with a_k != 0, the value (-1)^k a_k."""
    if not num:
        return None, 0
    low = min(num)
    order = 0
    while True:
        a = sum(c * math.comb(d - low, order) for d, c in num.items())
        if a:
            return order, (-1) ** order * a
        order += 1


def series_value(num: dict, weights: Sequence[int]):
    """Value at t = 1 of num / prod_i (1 - t^(w_i)), a signed integer: 0 for
    a root t = 1 of num of order above n, INFINITE at a pole."""
    order, value = _series_at_one(num)
    if order is None or order > len(weights):
        return 0
    if order < len(weights):
        return INFINITE
    out, rest = divmod(value, math.prod(weights))
    if rest:
        raise AlgebraError(f"{num} has no integral value at t = 1")
    return out


def series_length(num: dict, weights: Sequence[int]):
    """Length of a module with Hilbert series num / prod_i (1 - t^(w_i)): its
    value at t = 1, or INFINITE at a pole."""
    length = series_value(num, weights)
    if num and length is not INFINITE and length <= 0:
        raise AlgebraError(f"{num} is not the Hilbert numerator of a module")
    return length
