"""Groebner bases for submodules of free modules over the ambient ring.

Vectors in S^s are sparse dicts mapping (component, exponent tuple) to a
nonzero field element.  The module order is position-over-term (lower
component index wins), refined by weighted grevlex on monomials.  Inside
Buchberger's loop and every normal form a vector maps packed terms, one int
each (PolynomialRing._pack), to coefficients: the smallest int is the lead
term, a product is a sum, and a divisibility test is a subtraction and a
mask.  Vectors are packed when they enter a builder or a normal form and
unpacked when a basis or a remainder leaves one; the field adds the
products of a reduction step inline (FieldSpec.axpy).
Syzygies come from the augmented basis of the generators (g_i, eps_i) in
S^(s+k), with the main block dominating the tag block, and optional untagged
relations (r, 0); only its tag-lead part is read.  It is the kernel's one
augmented-basis construction: syzygies over R = S/(f), and a matrix
factorization's beta (the syzygies of f * I beside alpha), come from it.
"""

from __future__ import annotations

import heapq
import math
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import AlgebraError
from .ring import (
    INFINITE,
    MAX_PACKED_DEGREE,
    PolynomialRing,
    mono_coprime,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# A term symbol is (component, monomial); a vector maps terms to coeffs.
Term = Tuple[int, tuple]
Vector = Dict[Term, object]
# A packed vector maps packed terms to coeffs; a reducer is (packed lead term,
# monic packed vector), and reducers are grouped by the component of their
# lead, each group in the order its reducers were added.
Reducers = Dict[int, List[Tuple[int, dict]]]


# ---------------------------------------------------------------------------
# vector arithmetic


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


def _monic(v: dict, lead: int, field) -> dict:
    """The packed vector v scaled so the coefficient at lead is one."""
    lc = v[lead]
    if lc == field.one:
        return v
    out: dict = {}
    field.axpy(out, field.inv(lc), 0, v)
    return out


def freeze_vec(v: Vector) -> tuple:
    return tuple(sorted(v.items()))


def vec_restrict(v: Vector, lo: int, hi: int) -> Vector:
    """Entries with lo <= component < hi, components rebased to start at 0."""
    return {(comp - lo, m): c for (comp, m), c in v.items() if lo <= comp < hi}


# ---------------------------------------------------------------------------
# division


def normal_form_vec(v: dict, reducers: Reducers, ring: PolynomialRing) -> dict:
    """Fully reduced remainder of the packed vector v against the reducers;
    of the reducers whose lead divides a term, the first added is used.

    A term of degree above MAX_PACKED_DEGREE raises AlgebraError.  So does a
    step that leaves the term it reduced, so a reducer that is not monic, or
    faulty field arithmetic, fails instead of looping."""
    neg, axpy = ring.field.neg, ring.field.axpy
    comp_shift, guards, deg_guard = ring._comp_shift, ring._exp_guards, ring._deg_guard
    work = dict(v)
    remainder: dict = {}
    while work:
        t = min(work)
        if t & deg_guard:
            raise AlgebraError(f"a term of degree above {MAX_PACKED_DEGREE} arose")
        for lead, g in reducers.get(t >> comp_shift, ()):
            if not (t - lead) & guards:
                axpy(work, neg(work[t]), t - lead, g)
                if t in work:
                    raise AlgebraError(f"a reduction step left the term {ring._unpack(t)} "
                                       "in place: a reducer is not monic, or the field is faulty")
                break
        else:
            remainder[t] = work.pop(t)
    return remainder


# ---------------------------------------------------------------------------
# Buchberger


class GroebnerBasis:
    """Reduced Groebner basis of a submodule of S^rank.

    packed holds its (packed lead term, monic packed vector) pairs, leads
    decreasing; leads[i] is the lead term of vectors[i], and vectors are the
    frozen vectors, unpacked on first use.  The basis refers to its ring
    weakly: the ring's memo holds the basis, so a strong reference back would
    be a cycle that only the cyclic garbage collector frees."""

    __slots__ = ("_ring", "rank", "packed", "leads", "_vectors")

    def __init__(self, ring: PolynomialRing, rank: int, packed: tuple):
        self._ring = weakref.ref(ring)
        self.rank = rank
        self.packed = packed
        self.leads = tuple(ring._unpack(lead) for lead, _g in packed)
        self._vectors = None

    @property
    def ring(self) -> PolynomialRing:
        return self._ring()

    @property
    def vectors(self) -> tuple:
        if self._vectors is None:
            unpack = self.ring._unpack_vector
            self._vectors = tuple(freeze_vec(unpack(g)) for _lead, g in self.packed)
        return self._vectors

    def __eq__(self, other):
        return (isinstance(other, GroebnerBasis) and self._ring == other._ring
                and self.rank == other.rank and self.packed == other.packed)


def _grouped(pairs, comp_shift: int) -> Reducers:
    """(lead, vector) pairs grouped by the component of the lead, in order."""
    out: Reducers = {}
    for lead, g in pairs:
        out.setdefault(lead >> comp_shift, []).append((lead, g))
    return out


class GroebnerBuilder:
    """Buchberger's loop, kept open: add vectors, complete the basis up to a
    degree, read off the reduced basis.  A pair's degree is its lcm's degree
    plus shifts[component]; for inputs homogeneous under those generator
    degrees, complete(d) decides membership of every vector of degree <= d."""

    def __init__(self, ring: PolynomialRing, rank: int, shifts: Sequence[int] = ()):
        self.ring, self.rank = ring, rank
        self.shifts = shifts or (0,) * rank
        self.vectors: List[dict] = []  # monic packed vectors, in the order added
        self.codes: List[int] = []  # their packed lead terms
        self.leads: List[Term] = []  # the same lead terms, unpacked
        self.reducers: Reducers = {}
        # the indices of the vectors per lead component, ascending: pairs,
        # the chain criterion and minimalization look only within one
        self.by_comp: Dict[int, List[int]] = {}
        # S-pairs not yet treated: the set serves the chain criterion, the heap
        # yields them by (degree, i, j).
        self.pending = set()
        self.queue: List[Tuple[int, int, int]] = []

    def add(self, v: Vector, known: Optional[int] = None) -> None:
        """Add v, forming its S-pairs with the vectors added before it.

        known=start marks v as a member of a Groebner basis whose vectors are
        added from index start on: v then forms no pair with them, since
        those pairs have standard representations and reduce to zero."""
        self._insert(self.ring._pack_vector(v), known)

    def add_remainder(self, v: Vector, insert: bool) -> bool:
        """Whether the remainder of v modulo the vectors added so far is
        nonzero; with insert, a nonzero remainder is added."""
        r = normal_form_vec(self.ring._pack_vector(v), self.reducers, self.ring)
        if r and insert:
            self._insert(r)
        return bool(r)

    def _insert(self, v: dict, known: Optional[int] = None) -> None:
        ring, leads = self.ring, self.leads
        lead = min(v)
        lt = ring._unpack(lead)
        j = len(leads)
        g = _monic(v, lead, ring.field)
        self.vectors.append(g)
        self.codes.append(lead)
        leads.append(lt)
        comp, mono = lt
        self.reducers.setdefault(comp, []).append((lead, g))
        same = self.by_comp.setdefault(comp, [])
        cap = j if known is None else known
        for i in same:
            if i >= cap:
                break
            self.pending.add((i, j))
            heapq.heappush(self.queue, (
                ring.mono_degree(mono_lcm(leads[i][1], mono)) + self.shifts[comp], i, j))
        same.append(j)

    def complete(self, upto_degree: Optional[int] = None) -> None:
        """Treat every pending pair, or those of degree <= upto_degree."""
        ring, field = self.ring, self.ring.field
        G, codes, leads, pending, queue = self.vectors, self.codes, self.leads, self.pending, self.queue
        by_comp, guards = self.by_comp, ring._exp_guards
        while queue and (upto_degree is None or queue[0][0] <= upto_degree):
            _deg, i, j = heapq.heappop(queue)
            pending.discard((i, j))
            comp = leads[i][0]
            # product criterion (valid for rank-1 ideals only)
            if self.rank == 1 and mono_coprime(leads[i][1], leads[j][1]):
                continue
            L = ring._pack(comp, mono_lcm(leads[i][1], leads[j][1]))
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
            s: dict = {}
            field.axpy(s, field.one, L - codes[i], G[i])
            field.axpy(s, field.neg(field.one), L - codes[j], G[j])
            r = normal_form_vec(s, self.reducers, ring)
            if r:
                self._insert(r)

    def reduced(self, lo: int = 0) -> GroebnerBasis:
        """The reduced basis of what was added; complete() it first.

        With lo > 0, only its elements whose lead lies in a component >= lo,
        moved down by lo components: the reduced basis of the module's
        intersection with the last rank - lo components.  Every term of such
        an element lies there, so only such elements reduce it, and the rest
        are neither minimalized nor interreduced."""
        ring, comp_shift, guards = self.ring, self.ring._comp_shift, self.ring._exp_guards
        cut = lo << comp_shift
        # minimalize: drop g when another lead of its component divides its
        # lead (of equal leads, keep the first)
        groups: Reducers = {}
        for comp, same in self.by_comp.items():
            if comp < lo:
                continue
            codes = [(i, self.codes[i]) for i in same]
            kept = groups[comp] = []
            for i, lead in codes:
                for j, other in codes:
                    if j != i and not (lead - other) & guards and (other != lead or j < i):
                        break
                else:
                    kept.append((lead, self.vectors[i]))
        # interreduce against the other kept vectors: none of their leads
        # divides g's lead, so it stays the lead term, with coefficient one,
        # of g's remainder
        reduced = []
        for comp, own in groups.items():
            for k, (lead, g) in enumerate(own):
                groups[comp] = own[:k] + own[k + 1:]
                r = normal_form_vec(g, groups, ring)
                reduced.append((lead - cut, {t - cut: c for t, c in r.items()} if cut else r))
            groups[comp] = own
        reduced.sort(key=lambda pair: pair[0])
        return GroebnerBasis(ring, self.rank - lo, tuple(reduced))


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
    added first, with no S-pairs inside one entry; each distinct basis is
    packed once."""
    key = (rank, tuple(freeze_vec(g) for g in generators), tuple(known))
    cached = ring._groebner_memo.get(key)
    if cached is None:
        cached = ring._groebner_memo[key] = _completed(generators, ring, rank, known).reduced()
    return cached


def _completed(
    generators: Sequence[Vector], ring: PolynomialRing, rank: int,
    known: Sequence[Tuple[int, tuple]] = (),
) -> GroebnerBuilder:
    """A builder holding the known bases and the generators, completed."""
    builder = GroebnerBuilder(ring, rank)
    packed: Dict[tuple, list] = {}
    for offset, vectors in known:
        if vectors not in packed:
            packed[vectors] = [ring._pack_vector(dict(v)) for v in vectors]
        start = len(builder.leads)
        shift = offset << ring._comp_shift
        for g in packed[vectors]:
            builder._insert({t + shift: c for t, c in g.items()} if shift else g, known=start)
    for g in generators:
        if g:
            builder.add(g)
    builder.complete()
    return builder


def normal_form(v: Vector, G: GroebnerBasis) -> Vector:
    ring = G.ring
    reducers = _grouped(G.packed, ring._comp_shift)
    return ring._unpack_vector(normal_form_vec(ring._pack_vector(v), reducers, ring))


# ---------------------------------------------------------------------------
# syzygies via the augmented basis


def _tagged(generators: Sequence[Vector], ring: PolynomialRing, rank: int) -> List[Vector]:
    """The generators g_i as (g_i, eps_i) in S^(rank + k)."""
    one = ring._one_mono
    aug = []
    for i, g in enumerate(generators):
        h = dict(g)
        h[(rank + i, one)] = ring.field.one
        aug.append(h)
    return aug


def syzygy_basis(
    generators: Sequence[Vector], ring: PolynomialRing, rank: int,
    relations: Sequence[Vector] = (),
) -> GroebnerBasis:
    """Reduced Groebner basis, in S^k, of {c : sum_i c_i g_i in the span of
    the relations} for the given k vectors, memoised on the ring under a
    key of its own.

    It is the tag part of the augmented basis of (g_i, eps_i) and (r, 0):
    the elements whose lead lies in the tag block, so only they are
    minimalized and interreduced."""
    key = ("syzygies", rank, tuple(freeze_vec(g) for g in generators),
           tuple(freeze_vec(r) for r in relations))
    cached = ring._groebner_memo.get(key)
    if cached is None:
        builder = _completed(_tagged(generators, ring, rank) + list(relations), ring,
                             rank + len(generators))
        cached = ring._groebner_memo[key] = builder.reduced(rank)
    return cached


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
    """Minimal monomial generators of the lead-term module, per component:
    the sorted leads, since no lead of a reduced basis divides another."""
    by_comp: Dict[int, List[tuple]] = {c: [] for c in range(G.rank)}
    for comp, mono in G.leads:
        by_comp[comp].append(mono)
    return {c: sorted(ms) for c, ms in by_comp.items()}


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
    """Hilbert numerator of S/(monomial ideal) over the weighted denominator:
    HN(g_1..g_m) = 1 - sum_k t^(deg g_k) HN((g_1..g_{k-1}) : g_k), so the
    recursion follows the nesting of colon ideals, not the generator count.
    The memo holds every prefix read, and the sum starts after the longest."""
    if not gens:
        return {0: 1}
    zero = (0,) * len(weights)
    if zero in gens:
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
        deg = sum(w * e for w, e in zip(weights, g))
        colon = tuple(_minimal_monomial_gens(
            [tuple([max(a - b, 0) for a, b in zip(h, g)]) for h in gens[:k]]))
        result = _tpoly_sub(result, _tpoly_shift(_ideal_numerator(colon, weights, memo), deg))
        memo[gens[:k + 1]] = result
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
