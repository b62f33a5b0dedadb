"""Module presentations, minimal free resolutions, matrix factorizations,
and the Hilbert series of the homology of a tensored complex, which gives
Tor lengths.  That series is a sum of cokernel series, so no length
computes syzygies or presents homology: the only syzygies are those a
resolution step reads off the builder its selection left open.

Everything is computed over the ambient polynomial ring S; a kernel over
R = S/(f) is the module of syzygies over S of the generators modulo the
untagged relations f * e_j.  A Polynomial's terms are packed ints in
component 0, so a matrix of Polynomials enters as packed columns by moving
each entry's terms to the component of its row, in its normal form modulo
f (reduced_columns), and a matrix factorization's alpha and beta are read
back by moving them to component 0.  Every vector in between is packed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import AlgebraError, InfiniteLength, InhomogeneousError, NotStabilized
from .groebner import (
    GroebnerBasis,
    GroebnerBuilder,
    NakayamaSelection,
    _monic,
    _series_at_one,
    _tpoly_axpy,
    finite_colength,
    groebner_basis,
    hilbert_numerator,
    normal_form_vec,
    series_length,
)
from .matrices import divide_exactly, graded_inverse, mat_vec
from .ring import (
    INFINITE,
    HypersurfaceRing,
    Polynomial,
    PolynomialRing,
    RingLike,
    _term_degrees,
)

# ---------------------------------------------------------------------------
# packed vectors over R


def reduce_packed_mod_f(v: dict, ring: RingLike) -> dict:
    """The packed vector v with every component reduced modulo f, in one
    normal form against the monic f * e_j of the components v uses."""
    S = ring.ambient
    return normal_form_vec(v, ring._f_reducers({t >> S._comp_shift for t in v}), S)


def reduced_columns(rows: Sequence[Sequence[Polynomial]], ring: RingLike) -> List[dict]:
    """The columns of the rectangular matrix with the given rows of
    Polynomials, reduced modulo f: the one point where a matrix enters the
    kernel, each entry's terms moved to the component of its row.  A
    polynomial over another ring raises."""
    S = ring.ambient
    if any(p.ring is not S for row in rows for p in row):
        raise ValueError("polynomial not over this ring")
    cs = S._comp_shift
    return [reduce_packed_mod_f({t + (r << cs): c for r, row in enumerate(rows)
                                 for t, c in row[k].coeffs.items()}, ring)
            for k in range(len(rows[0]) if rows else 0)]


def _kept_syzygies(ring: RingLike, basis: GroebnerBasis) -> List[dict]:
    """The elements of a syzygy basis over S, with the f * e_j as relations,
    whose lead is not lead(f) * eps_c, the lead of a reducer modulo f (over
    a plain ring, every element), packed, in the basis's order: an element
    is dropped when its lead less the component is f's packed lead.

    Every f * eps_c lies in Z, so every lead(f) * eps_c lies in lead(Z).  So
    no term of a kept element is divisible by one: the kept elements are
    reduced modulo f, and being distinct basis elements they are distinct.
    A dropped element g has that lead, and g - f * eps_c lies in Z with a
    smaller lead, so by induction down the components g lies in f * S^k
    plus the span of the kept ones: over R they generate all of Z."""
    low, f_lead = (1 << ring.ambient._comp_shift) - 1, ring._f_lead
    return [g for lead, g in basis.packed if lead & low != f_lead]


def lifted_basis(ring: RingLike, vectors: Sequence[dict], rank: int) -> GroebnerBasis:
    """Groebner basis of the S-submodule generated by the packed vectors plus
    the monic f * e_j."""
    return groebner_basis(list(vectors) + ring._f_relations(rank), ring.ambient, rank)


# ---------------------------------------------------------------------------
# module presentations


def infer_degrees(
    ranks: Sequence[int], diff_cols: Sequence[Sequence[dict]], S: PolynomialRing
) -> List[Tuple[int, ...]]:
    """Generator degrees of F_0, ..., F_L (ranks r_0, ..., r_L) that make
    each map F_k -> F_{k-1}, given by the packed columns diff_cols[k-1],
    homogeneous of degree 0, off the degree of each term.  Each connected
    block of basis elements is anchored at degree 0 on its first element,
    F_0 first."""
    edges: Dict[Tuple[int, int], list] = {
        (k, j): [] for k, r in enumerate(ranks) for j in range(r)
    }
    for k, cols in enumerate(diff_cols):
        for c, v in enumerate(cols):
            for r, e in _term_degrees(v, S):
                edges[(k, r)].append(((k + 1, c), e, c))
                edges[(k + 1, c)].append(((k, r), -e, c))
    degs: Dict[Tuple[int, int], int] = {}
    for anchor in edges:
        if anchor in degs:
            continue
        degs[anchor] = 0
        frontier = [anchor]
        while frontier:
            a = frontier.pop()
            for b, e, c in edges[a]:
                if b not in degs:
                    degs[b] = degs[a] + e
                    frontier.append(b)
                elif degs[b] != degs[a] + e:
                    raise InhomogeneousError(
                        f"column {c} is not homogeneous under any generator degrees"
                    )
    return [tuple(degs[(k, j)] for j in range(r)) for k, r in enumerate(ranks)]


class ModulePresentation:
    """Finitely generated module coker(Q : R^t -> R^s) with graded bookkeeping.

    The matrix, rows of Polynomials or their texts, is kept only as columns:
    its nonzero columns, packed once and reduced modulo f.  The module owns
    what is computed from it, each filled on first use: the presentation GB,
    its Hilbert series (module_series), the minimal resolution (grown in
    place as longer ones are asked for), its matrix factorization, theta
    values against other modules, keyed by the other module's presentation
    GB and generator degrees, so two presentations of one module share an
    entry, and the leads of the cokernels _cokernel_series reads.  It keeps
    no minimal presentation: F_0 and d_1 of the resolution are one.  No
    cache holds a module object, so a module is freed by reference
    counting, with no cycle for the garbage collector.

    Generator degrees are inferred when not given; given ones must be one
    per generator and make every relation column homogeneous."""

    def __init__(self, ring: RingLike, rows, gen_degrees=None):
        self.ring = ring
        S = ring.ambient
        rows = [[S.parse(e) if isinstance(e, str) else e for e in row] for row in rows]
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged presentation matrix")
        self.columns: List[dict] = [v for v in reduced_columns(rows, ring) if v]
        self.nrows, self.ncols = len(rows), len(self.columns)
        if gen_degrees is None:
            self.gen_degrees = infer_degrees([self.nrows, self.ncols], [self.columns], S)[0]
        else:
            self.gen_degrees = tuple(gen_degrees)
            if len(self.gen_degrees) != self.nrows:
                raise ValueError(f"{len(self.gen_degrees)} generator degrees for "
                                 f"{self.nrows} generators")
            for c, v in enumerate(self.columns):
                if len({self.gen_degrees[r] + e for r, e in _term_degrees(v, S)}) > 1:
                    raise InhomogeneousError(
                        f"column {c} is not homogeneous in the given generator degrees")
        self._gb: Optional[GroebnerBasis] = None
        self._series: Optional[dict] = None
        # resolution: packed columns of d_1, d_2, ...; degrees of F_0, F_1, ...
        self._res_diffs: List[List[dict]] = []
        self._res_degs: List[List[int]] = []
        self._open: Optional[NakayamaSelection] = None  # the step that chose d_L
        self._mf: Optional[MatrixFactorization] = None
        self._thetas: Dict[tuple, int] = {}
        self._cokernels: Dict[tuple, List[int]] = {}

    # -- constructors ------------------------------------------------------

    @classmethod
    def cyclic(cls, ring: RingLike, generators) -> "ModulePresentation":
        """A/(g_1..g_k): one generator, the given relations."""
        return cls(ring, [list(generators)])

    @classmethod
    def zero(cls, ring: RingLike) -> "ModulePresentation":
        return cls(ring, [], gen_degrees=())

    # -- bookkeeping -------------------------------------------------------

    def presentation_gb(self) -> GroebnerBasis:
        """GB of the lifted column submodule of S^s (adds f * e_j)."""
        if self._gb is None:
            self._gb = lifted_basis(self.ring, self.columns, self.nrows)
        return self._gb

    def is_zero(self) -> bool:
        return not module_series(self)

    def __repr__(self):
        return f"<module {self.nrows} gens, {self.ncols} relations over {self.ring!r}>"

    # -- minimal resolution ------------------------------------------------

    def _unit_pruned(self) -> Tuple[List[dict], List[int]]:
        """Packed relation columns and generator degrees left once every unit
        entry has been used to eliminate its generator and its column.  The
        columns are homogeneous, so an entry with a constant term is that
        constant; the first, by row then column, makes its column monic there
        to clear its row, and the components above the row move down."""
        S, field = self.ring.ambient, self.ring.field
        comp_shift, cols, degs = S._comp_shift, list(self.columns), list(self.gen_degrees)
        while True:
            unit = next(((r, c) for r in range(len(degs)) for c, v in enumerate(cols)
                         if (r << comp_shift) + S._one in v), None)
            if unit is None:
                return [v for v in cols if v], degs
            r, c = unit
            one = (r << comp_shift) + S._one  # the packed term 1 * e_r
            pivot = _monic(cols.pop(c), one, field)
            for k, v in enumerate(cols):
                # t - one is the packed quotient x^m of a term x^m e_r
                row = [(t, x) for t, x in v.items() if t >> comp_shift == r]
                if row:
                    v = dict(v)
                    for t, x in row:
                        field.axpy(v, -x, t - one, pivot)
                    cols[k] = reduce_packed_mod_f(v, self.ring)
            del degs[r]
            cols = [{t - (1 << comp_shift) if t >> comp_shift > r else t: x
                     for t, x in v.items()} for v in cols]

    def _degree_bound(self, m: int) -> Optional[float]:
        """D_m, for m >= 2: no generator of F_m lies above it.  None when no
        bound is known, -inf when F_m = 0.

        Over A = S/(f) the change-of-rings sequence ... -> Tor^S_m(M, k) ->
        Tor^A_m(M, k) -> Tor^A_(m-2)(M, k)(-deg f) -> ... (Shamash 1969,
        Eisenbud 1980) puts every degree of F_m in a degree of Tor^S_m(M, k)
        or of F_(m-2) plus deg f; over S only the first part is there.
        Tor^S_m(M, k) is 0 for m > n (Hilbert's syzygy theorem); for M of
        finite length it is a subquotient of the Koszul term K_m (x) M, so
        its degrees are at most top(M) plus the m largest weights, where
        top(M), the top degree of M, is the degree of M's numerator less the
        sum of the weights.  For m <= n and M of infinite length it has no
        bound here, and the presentation basis's leads tell that with no
        Hilbert series."""
        S, f = self.ring.ambient, self.ring.f
        terms = []
        if f is not None and self._res_degs[m - 2]:
            terms.append(max(self._res_degs[m - 2]) + f.weighted_degree())
        if m <= S.nvars:
            if not finite_colength(self.presentation_gb(), S):
                return None
            num = module_series(self)
            if num:
                terms.append(max(num) - sum(S.weights) + sum(sorted(S.weights)[-m:]))
        return max(terms, default=-math.inf)

    def _extend_resolution(self, length: int) -> None:
        """Grow the minimal resolution to at least `length` differentials.

        Each d_m is the Nakayama selection from its packed candidates: for
        d_1 the unit-pruned relation columns, in their order; for later ones
        the syzygies of d_(m-1) of degree at most D_m (_degree_bound), sorted
        by (degree, sorted unpacked terms), read off the builder left open
        by the selection of d_(m-1).  A syzygy above D_m is never a minimal
        generator, and it would sort after every other candidate, so leaving
        it out keeps every d_m as the unbounded step chooses it."""
        diffs, degs = self._res_diffs, self._res_degs
        S = self.ring.ambient
        while len(diffs) < length:
            if diffs:
                target = degs[-1]
                bound = self._degree_bound(len(diffs) + 1)
                vectors = _kept_syzygies(self.ring, self._open.syzygies(bound))
            else:
                vectors, target = self._unit_pruned()
            candidates = [(v, _vector_degree(v, target, S)) for v in vectors]
            if diffs:
                unpack = S._unpack
                candidates.sort(key=lambda c: (c[1], sorted(zip(map(unpack, c[0]),
                                                                c[0].values()))))
            self._open = NakayamaSelection(S, target, candidates,
                                           self.ring._f_relations(len(target)))
            kept = [candidates[n] for n in self._open.kept]
            # the degrees of F_(m-1) (new only for m = 1) and of F_m
            degs[len(diffs):] = [target, [d for _v, d in kept]]
            diffs.append([v for v, _d in kept])


def present_cyclic(ring: RingLike, generators) -> ModulePresentation:
    return ModulePresentation.cyclic(ring, generators)


def module_series(M: ModulePresentation) -> dict:
    """Hilbert series numerator of M over the ambient denominator
    prod_i (1 - t^(w_i)), generators in their degrees; remembered on M, where
    every invariant of M reads it.  Callers must not change the dict."""
    if M._series is None:
        G = M.presentation_gb()
        M._series = hilbert_numerator(G.leads, G.rank, M.ring.ambient, M.gen_degrees)
    return M._series


def module_length(M: ModulePresentation):
    """Length of the module: its Hilbert series at t = 1, or INFINITE."""
    return series_length(module_series(M), M.ring.weights)


def module_dimension(M: ModulePresentation) -> int:
    """Krull dimension of the support; -1 for the zero module.

    It is n less the order of the root t = 1 of M's numerator.  A shift of
    generator degrees multiplies the numerator by a power of t, which moves
    neither that order nor the value module_multiplicity reads."""
    order, _value = _series_at_one(module_series(M))
    if order is None:
        return -1
    return M.ring.ambient.nvars - order


def module_multiplicity(M: ModulePresentation) -> int:
    """Normalized leading coefficient of the Hilbert polynomial (weights 1):
    the numerator over (1 - t)^(dimension) at t = 1."""
    S = M.ring.ambient
    if any(w != 1 for w in S.weights):
        raise ValueError("multiplicity requires all weights equal to 1")
    order, e = _series_at_one(module_series(M))
    if order is None:
        raise ValueError("multiplicity of the zero module is undefined")
    if order == S.nvars:
        raise ValueError("zero-dimensional quotient: use series_length instead")
    if e <= 0:
        raise AlgebraError(f"multiplicity {e} is not positive")
    return e


# ---------------------------------------------------------------------------
# minimal free resolutions


class Resolution:
    """Minimal graded free resolution of M over R, to homological degree L.

    A view of the first L differentials of the resolution M owns."""

    def __init__(self, module: ModulePresentation, length: int):
        self.module = module
        self.ring = module.ring
        self.length = length
        module._extend_resolution(max(length, 1))

    @property
    def betti(self) -> List[int]:
        return [len(g) for g in self.module._res_degs[: self.length + 1]]

    def packed_columns(self, i: int) -> List[dict]:
        """Columns of d_i (1-based), as packed vectors in R^(b_{i-1})."""
        if not 1 <= i <= self.length:
            raise IndexError(f"differential index {i} out of range 1..{self.length}")
        return self.module._res_diffs[i - 1]

    def gen_degrees(self, i: int) -> List[int]:
        return list(self.module._res_degs[i])

    @property
    def stable_start(self) -> Optional[int]:
        """One more than the first index of the constant Betti tail: the
        index of the first square differential in it, for the resolve report.

        Requires length >= d + 3 and start <= d + 2 (Omega^{d+1} M is maximal
        Cohen-Macaulay with no free summand, so the tail is periodic from
        F_{d+1}); None when not yet stabilized.  Only Betti numbers are
        compared; the matrix factorization, which does not read this, is
        found at an index >= it (extract_matrix_factorization)."""
        b = self.betti
        d = self.ring.dimension
        L = self.length
        if L < d + 3:
            return None
        j = L
        while j >= 1 and b[j - 1] == b[L]:
            j -= 1
        start = j + 1
        if start > d + 2:
            return None
        return max(start, 1)

    @property
    def stable(self) -> bool:
        return self.stable_start is not None


def _vector_degree(v: dict, target_degs: Sequence[int], S: PolynomialRing) -> int:
    """The degree of the homogeneous packed vector v into generators of the
    given degrees, off its terms' degree fields."""
    degs = {target_degs[r] + e for r, e in _term_degrees(v, S)}
    if len(degs) != 1:
        raise InhomogeneousError("syzygy vector is not homogeneous")
    return degs.pop()


def minimal_resolution(M: ModulePresentation, length: int) -> Resolution:
    if length < 1:
        raise ValueError("resolution length must be >= 1")
    return Resolution(M, length)


# ---------------------------------------------------------------------------
# matrix factorizations


class MatrixFactorization:
    """Pair (alpha, beta) of square matrices over S with alpha*beta = f*I,
    given by their packed columns (alpha_cols, beta_cols)."""

    def __init__(self, ring: HypersurfaceRing, alpha_cols: Sequence[dict],
                 beta_cols: Sequence[dict], source_index: int):
        self.ring = ring
        self.alpha_cols, self.beta_cols = alpha_cols, beta_cols
        self.size = len(alpha_cols)
        self.source_index = source_index  # alpha lifts d_{source_index}
        self._verify()

    def __getattr__(self, name):
        """alpha and beta, the rows of Polynomials, made from the packed
        columns on first read, each term moved to component 0: a report
        prints the columns themselves."""
        if name not in ("alpha", "beta"):
            raise AttributeError(name)
        S, cols = self.ring.ambient, vars(self)[name + "_cols"]
        rows = [[{} for _v in cols] for _r in range(self.size)]
        for k, v in enumerate(cols):
            for t, c in v.items():
                comp = t >> S._comp_shift
                rows[comp][k][t - (comp << S._comp_shift)] = c
        setattr(self, name, tuple(tuple([Polynomial(S, e) for e in row]) for row in rows))
        return getattr(self, name)

    def _verify(self):
        """alpha*beta = f*I on square matrices of one size, column by column
        of beta.  Over the domain S, det(alpha) is then nonzero, so
        beta = f*alpha^-1 and beta*alpha = f*I follows."""
        n, comp_shift = self.size, self.ring.ambient._comp_shift
        if len(self.beta_cols) != n or any(t >> comp_shift >= n for cols in (
                self.alpha_cols, self.beta_cols) for v in cols for t in v):
            raise NotStabilized("matrix factorization needs square matrices of one size")
        f = self.ring.f.coeffs
        for k, col in enumerate(self.beta_cols):
            shift = k << comp_shift
            if mat_vec(self.alpha_cols, col, self.ring.ambient) != {
                    t + shift: c for t, c in f.items()}:
                raise NotStabilized("matrix factorization identity alpha*beta = f*I failed")


def extract_matrix_factorization(res: Resolution) -> MatrixFactorization:
    """The first square differential d_j (b_(j-1) = b_j = b_(j+1)), j <= d + 3,
    with W = d_j d_(j+1) / f invertible, as alpha of a matrix factorization
    with its beta; remembered on the module, whose resolution grows to j + 1.

    d_j d_(j+1) vanishes modulo f, so W is a matrix over S, homogeneous of
    degree 0.  When W is invertible, beta = d_(j+1) W^-1 gives alpha * beta =
    f * I, which makes det(alpha) nonzero, so beta is the unique such matrix,
    and its entries, like alpha's, lie in the maximal ideal.  coker d_j is
    then coker alpha over R, with the periodic minimal resolution (alpha,
    beta) of constant rank (Eisenbud 1980); by the uniqueness of minimal
    resolutions it is the tail of M's from F_(j-1), so the Betti numbers are
    constant from b_(j-1) on and Tor_i(M, -) is 2-periodic for i >= j.  So
    every such j is at least Resolution.stable_start (at most d + 2), and the
    first one is the first j >= stable_start with W invertible."""
    ring = res.ring
    if ring.f is None:
        raise ValueError("matrix factorizations require a hypersurface ring")
    M = res.module
    if M._mf is not None:
        return M._mf
    S = ring.ambient
    for j in range(1, ring.dimension + 4):
        M._extend_resolution(j + 1)
        r = len(M._res_degs[j - 1])
        if not r == len(M._res_degs[j]) == len(M._res_degs[j + 1]):
            continue
        alpha, d_next = M._res_diffs[j - 1], M._res_diffs[j]
        W = [divide_exactly(mat_vec(alpha, v, S), ring.f.coeffs, S) for v in d_next]
        W_inv = graded_inverse(W, r, S)
        if W_inv is not None:
            beta = [mat_vec(d_next, v, S) for v in W_inv]
            M._mf = MatrixFactorization(ring, alpha, beta, j)
            return M._mf
    raise NotStabilized(f"d_{j} is not alpha of a matrix factorization, nor is any "
                        f"earlier square d_i: each d_i d_(i+1) / f is singular")


# ---------------------------------------------------------------------------
# homology of tensored complexes, Tor


def _tensor_map_columns(d_cols: List[dict], s: int, S: PolynomialRing) -> List[dict]:
    """Packed columns of d (x) I_s, source coordinate (c, k) -> index c*s + k:
    a term of component c moves up by c * (s - 1) + k components."""
    cs = S._comp_shift
    return [{t + (((t >> cs) * (s - 1) + k) << cs): c for t, c in v.items()}
            for v in d_cols for k in range(s)]


def _cokernel_series(d_cols: List[dict], target_degs: Sequence[int],
                     N: ModulePresentation) -> dict:
    """Hilbert numerator of coker(d (x) N), a quotient of F (x) N, for the
    map d into F with the given packed columns and generator degrees, read
    off the minimal leads of a builder whose every block F_j (x) N is seeded
    with N's presentation basis (its relations and f*e_j): a series reads
    only the lead module, so no tail is reduced.  N remembers the leads by
    d's columns and F's rank, never by degrees, which the periodic C_j do
    not share: the degree shifts apply on each call."""
    s, S = N.nrows, N.ring.ambient
    key = (tuple(tuple(sorted(v.items())) for v in d_cols), len(target_degs))
    leads = N._cokernels.get(key)
    if leads is None:
        builder = GroebnerBuilder(S, len(target_degs) * s)
        for block in range(len(target_degs)):
            start, shift = len(builder.codes), (block * s) << S._comp_shift
            for _lead, g in N.presentation_gb().packed:
                builder.add({t + shift: c for t, c in g.items()}, known=start)
        for v in filter(None, _tensor_map_columns(d_cols, s, S)):
            builder.add(v)
        builder.complete()
        leads = N._cokernels[key] = [t for own in builder.minimal().values() for t, _g in own]
    shifts = [a + b for a in target_degs for b in N.gen_degrees]
    return hilbert_numerator(leads, len(shifts), S, shifts)


def homology_series(
    diff_cols: List[List[dict]], degs: Sequence[Sequence[int]],
    N: ModulePresentation, lo: int, hi: int,
) -> List[dict]:
    """Hilbert numerators of H_i(F (x) N) for lo <= i <= hi, within 0..L, for
    the complex F with packed columns diff_cols[k] of d_{k+1} and generator
    degrees degs[k] of F_k.

    With C_j = coker(d_j (x) N), C_0 = 0 and C_{L+1} = F_L (x) N, the graded
    sequence 0 -> H_i -> C_{i+1} -> F_{i-1} (x) N -> C_i -> 0 is exact, so
    HS(H_i) = HS(C_i) + HS(C_{i+1}) - HS(N) * sum_j t^(deg F_{i-1,j}).  Each
    series is read once: H_i and H_{i+1} share C_{i+1}."""
    L = len(diff_cols)
    if not 0 <= lo <= hi <= L:
        raise IndexError(f"homology indices {lo}..{hi} out of computed range 0..{L}")
    cokernels = {0: {}}
    for j in range(max(lo, 1), hi + 2):
        cokernels[j] = _cokernel_series(diff_cols[j - 1] if j <= L else [], degs[j - 1], N)
    series_N = module_series(N) if hi else {}
    out = []
    for i in range(lo, hi + 1):
        num = _tpoly_axpy(dict(cokernels[i + 1]), 1, 0, cokernels[i])
        for deg in degs[i - 1] if i else ():
            _tpoly_axpy(num, -1, deg, series_N)
        out.append(num)
    return out


def tor_length(M: ModulePresentation, N: ModulePresentation, i: int):
    """Length of Tor_i^A(M, N) = H_i(F (x) N) for i >= 0, F the minimal
    resolution of M, not remembered (N remembers the cokernel leads it
    reads); INFINITE lengths raise.  It is read off the one series of
    homology_series, since a difference of two Tor series can hide a pole."""
    if i < 0:
        raise IndexError("tor_length requires i >= 0")
    res = minimal_resolution(M, i + 1)
    diff_cols = [res.packed_columns(k) for k in range(1, i + 2)]
    degs = [res.gen_degrees(k) for k in range(i + 2)]
    num = homology_series(diff_cols, degs, N, i, i)[0]
    length = series_length(num, M.ring.weights)
    if length is INFINITE:
        raise InfiniteLength(f"Tor_{i} has infinite length")
    return length
