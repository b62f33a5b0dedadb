"""Independent routes, kept as test oracles, and builders only tests use.
The kernel takes packed vectors only; the oracles keep the unpacked
(component, exponent tuple) vectors as independent witnesses: a matrix's
columns, the f * e_j, the columns of d (x) I_s and of a resolution's d_i,
and basis_of_vectors, which packs vectors for groebner_basis.  A
Polynomial holds packed terms; monomials(p) reads its
coefficients keyed by exponent tuples and pack_vector packs a vector, and
the tuple arithmetic it is checked against (mono_mul, mono_key, vec_axpy)
is the oracles' own.  Also vectors from polynomials, free modules and
direct sums of presentations;
the monomial divisibility, lcm and coprimality the packed pair layer is
checked against, and a basis's leads unpacked;
the unpacked vector arithmetic (vec_axpy) and reduction modulo f of a
polynomial or a vector that the packed kernel is checked against, and
conversions between packed columns, unpacked columns and rows of
Polynomials, among them the rows of a presentation or of a complex's
differentials (rows_of, complex_rows), which the kernel keeps only as
packed columns; the unit pruning by column operations on rows of
Polynomials, the reference for the packed pruning; matrix products
over S, for the two-sided matrix factorization identity and d^2 = 0; for the
Hilbert-series route to lengths, a staircase count of standard monomials and
the top degree of a finite-length module they give, homology of a tensored
complex presented as a subquotient (for Tor and chi of a complex, with one
copy of N's relations per block), and local lengths from presented graded
pieces p^i M / p^(i+1) M; syzygies over R = S/(f) off a cold syzygy basis,
with the f * e_j as untagged relations (the reference for the basis a
resolution step reads off its open builder) or taken as tagged generators,
and the syzygies read off the full augmented basis, not only its tag-lead
part; the modules and complexes the pairing identities take as witnesses:
syzygy modules, duals and Ext against the ring, presented subquotients,
minimal presentations, Koszul complexes and shifted complexes; a minimal
resolution whose every step reads the full syzygy basis, the reference for
the degree-bounded steps of the kernel; the local length at one prime,
outside c1; division with a representation, the reference for a matrix
factorization's beta, and the normal form against a reduced basis it reads;
the dimension and multiplicity read off a basis's unshifted Hilbert
numerator, the reference for the module's remembered series; the order and
value of a numerator at t = 1 by repeated exact division by (1 - t), the
reference for the Taylor reading; theta read off the cokernel C_s with no
finite-length shortcut, the witness that theta vanishes when either module
has finite length; and Knörrer's lift of a matrix
factorization to two more variables, a cross-dimension reference for theta,
which can be applied again to the lifted ring; chi(N0, M) as the
alternating sum of Tor lengths, the witness for the graded Euler
characteristic chi_modules reads; chi over the ambient ring off the two
modules' Hilbert series, the witness theta equals when M (x) N has finite
length, and that finiteness read off C_0; the lead module of a cokernel
off a reduced basis with no seeding, the reference for the minimal leads
_cokernel_series remembers, and the Hilbert function off Macaulay
matrices, a Buchberger-free witness for the series it reads; the inertia by the hyperbolic 2x2
block pivot, the witness for the congruence numeq.signature makes; and the
two-pass printer of packed columns (itertools.groupby and a per-entry text
helper), the reference for PolynomialRing.format_columns."""

import itertools
import operator
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from thetacas import (
    INFINITE,
    FreeComplex,
    HypersurfaceRing,
    PolynomialRing,
    extract_matrix_factorization,
    minimal_resolution,
    tor_length,
)
from thetacas.errors import AlgebraError
from thetacas.groebner import (
    GroebnerBuilder,
    NakayamaSelection,
    _series_at_one,
    _tpoly_axpy,
    groebner_basis,
    hilbert_numerator,
    normal_form_vec,
    series_value,
)
from thetacas.homology import (
    ModulePresentation,
    _cokernel_series,
    _kept_syzygies,
    _vector_degree,
    module_series,
    reduce_packed_mod_f,
)
from thetacas.pairings import _checked_prime, _local_length, _power_products, finite_pd
from thetacas.ring import Polynomial

# An unpacked vector maps (component, exponent tuple) to coefficients.
Vector = Dict[Tuple[int, tuple], object]


def freeze_vec(v: Vector) -> tuple:
    return tuple(sorted(v.items()))


def unpacked_vectors(G, S):
    """The frozen unpacked vectors of the basis G over S, in its order."""
    return tuple(freeze_vec(unpack_vector(S, g)) for g in G.vectors)


def monomials(p):
    """The coefficients of the polynomial p, keyed by exponent tuples."""
    unpack = p.ring._unpack
    return {unpack(t)[1]: c for t, c in p.coeffs.items()}


def format_columns_reference(S, columns, rank):
    """The rank rows of entry texts of the matrix with the given packed
    columns over S, grouped by component with itertools.groupby and each
    entry printed by _text_reference: the two-pass printer that
    PolynomialRing.format_columns replaced, its reference.  Ascending packed
    terms list a column's terms by component, each entry's largest term
    first."""
    comp_shift = S._comp_shift
    rows = [["0"] * len(columns) for _r in range(rank)]
    for k, v in enumerate(columns):
        for comp, terms in itertools.groupby(sorted(v), key=lambda t: t >> comp_shift):
            rows[comp][k] = _text_reference(S, [(t - (comp << comp_shift), v[t]) for t in terms])
    return rows


def _text_reference(S, terms):
    """The text of the sum of the (packed term in component 0, c) pairs, in
    their order; each monomial's text is made afresh, not read from the
    ring's memo."""
    parts = []
    for t, c in terms:
        body = "*".join([name if e == 1 else f"{name}^{e}" for name, e
                         in zip(S.variables, S._unpack(t)[1]) if e])
        neg = c < 0
        mag = -c if neg else c
        if not body:
            coeff_txt = str(mag)
        elif mag == 1:
            coeff_txt = body
        else:
            coeff_txt = f"{mag}*{body}"
        if not parts:
            parts.append(f"-{coeff_txt}" if neg else coeff_txt)
        else:
            parts.append(f"- {coeff_txt}" if neg else f"+ {coeff_txt}")
    return " ".join(parts) if parts else "0"


def pack_vector(S, v):
    """The vector v, keyed by (component, exponent tuple), packed over S."""
    return {S._pack(comp, m): c for (comp, m), c in v.items()}


def unpack_vector(S, v):
    """The packed vector v over S, keyed by (component, exponent tuple)."""
    return {S._unpack(t): c for t, c in v.items()}


def mono_mul(a, b):
    return tuple(map(operator.add, a, b))


def mono_key(ring, m):
    """Sort key of a monomial; larger key = larger monomial under weighted
    grevlex: the reference for the order of packed terms."""
    return (ring.mono_degree(m), tuple(map(operator.neg, m[::-1])))


def mono_div(b, a):
    """b / a, assuming divisibility."""
    return tuple(map(operator.sub, b, a))


def mono_divides(a, b):
    """Whether a divides b: the reference for the guard-bit divisibility of
    packed terms."""
    return all(map(operator.le, a, b))


def mono_lcm(a, b):
    """The lcm of two monomials: the reference for the guard-bit lcm of a
    GroebnerBuilder's pairs."""
    return tuple(map(max, a, b))


def mono_coprime(a, b):
    """Whether two monomials share no variable: the reference for the
    builder's product criterion."""
    return not any(map(min, a, b))


def vec_axpy(v: Vector, coeff, mono: tuple, w: Vector, field) -> Vector:
    """v + coeff * x^mono * w, in place; returns v: the unpacked reference
    for FieldSpec.axpy."""
    for (comp, m), c in w.items():
        t = (comp, mono_mul(mono, m))
        s = field.coerce(v.get(t, 0) + field.mul(coeff, c))
        if s == 0:
            v.pop(t, None)
        else:
            v[t] = s
    return v


def columns_as_vectors(rows):
    if not rows:
        return []
    ncols = len(rows[0])
    cols = []
    for c in range(ncols):
        v: Vector = {}
        for r, row in enumerate(rows):
            for m, coeff in monomials(row[c]).items():
                v[(r, m)] = coeff
        cols.append(v)
    return cols


def f_times_unit_vectors(ring, rank):
    f = ring.f
    if f is None:
        return []
    return [{(j, m): c for m, c in monomials(f).items()} for j in range(rank)]


def tensor_map_columns(d_cols, s):
    """Columns of d (x) I_s, source coordinate (c, k) -> index c*s + k."""
    out = []
    for v in d_cols:
        for k in range(s):
            out.append({(comp * s + k, m): c for (comp, m), c in v.items()})
    return out


def unpacked_columns(res, i):
    """Columns of d_i (1-based) of the resolution, as vectors in R^(b_{i-1})."""
    S = res.ring.ambient
    return [unpack_vector(S, v) for v in res.packed_columns(i)]


def basis_of_vectors(vectors, ring, rank):
    """groebner_basis of the given vectors, packed."""
    return groebner_basis([pack_vector(ring, v) for v in vectors], ring, rank)


def seeded_basis(vectors, ring, rank, known):
    """The reduced basis of the given vectors and the known entries
    (offset, basis), each basis moved up by offset components and added
    first to one builder with add(known=start), as _cokernel_series seeds
    each block with N's presentation basis."""
    builder = GroebnerBuilder(ring, rank)
    for offset, G in known:
        start, shift = len(builder.codes), offset << ring._comp_shift
        for g in G.vectors:
            builder.add({t + shift: c for t, c in g.items()}, known=start)
    for v in vectors:
        if v:
            builder.add(pack_vector(ring, v))
    builder.complete()
    return builder.reduced()


def reduce_mod_f(p, ring):
    """The polynomial p reduced modulo f, through the packed kernel."""
    if p.ring is not ring.ambient:
        raise ValueError("polynomial not over this ring")
    return Polynomial(p.ring, reduce_packed_mod_f(p.coeffs, ring))


def reduce_vec_mod_f(v, ring):
    """v with every component reduced modulo f, through the packed kernel."""
    S = ring.ambient
    return unpack_vector(S, reduce_packed_mod_f(pack_vector(S, v), ring))


def vectors_to_rows(vectors: Sequence[Vector], rank: int, ring) -> tuple:
    S = ring.ambient
    rows = [[{} for _v in vectors] for _r in range(rank)]
    for k, v in enumerate(vectors):
        for (comp, m), c in v.items():
            rows[comp][k][m] = c
    return tuple(tuple([S.from_dict(entry) for entry in row]) for row in rows)


def rows_of(M):
    """The rows of Polynomials of the presentation matrix of M."""
    S = M.ring.ambient
    return vectors_to_rows([unpack_vector(S, v) for v in M.columns], M.nrows, M.ring)


def complex_rows(F):
    """The rows of Polynomials of each differential of the FreeComplex F."""
    S = F.ring.ambient
    return [vectors_to_rows([unpack_vector(S, v) for v in cols], len(F.degrees[k]), F.ring)
            for k, cols in enumerate(F.diff_cols)]


def packed_columns(rows, ring):
    """The packed columns of the matrix with the given rows of Polynomials."""
    S = ring.ambient
    return [pack_vector(S, v) for v in columns_as_vectors(rows)]


def vector_degree(v, target_degs, S):
    """The degree of the homogeneous vector v into generators of the given
    degrees, read by the kernel off its packed terms."""
    return _vector_degree(pack_vector(S, v), target_degs, S)


def resolution_matrix(res, i):
    """The rows of Polynomials of d_i (1-based) of the resolution."""
    return vectors_to_rows(unpacked_columns(res, i), res.betti[i - 1], res.ring)


def vec_shift_components(v, offset):
    return {(comp + offset, m): c for (comp, m), c in v.items()}


def term_key(ring, term):
    """Sort key of a (component, monomial) term, larger for a larger term:
    the lower component index wins, then mono_key."""
    comp, mono = term
    return (-comp, mono_key(ring, mono))


def vec_lead(v, ring):
    """Lead term of a vector, by term_key."""
    return max(v, key=lambda t: term_key(ring, t))


def vec_from_polys(polys):
    out = {}
    for comp, p in enumerate(polys):
        for m, c in monomials(p).items():
            out[(comp, m)] = c
    return out


def direct_sum(M, N):
    if M.ring is not N.ring:
        raise ValueError("direct sum requires one ring")
    S = M.ring.ambient
    zero = S.zero()
    rows = []
    for row in rows_of(M):
        rows.append(row + (zero,) * N.ncols)
    for row in rows_of(N):
        rows.append((zero,) * M.ncols + row)
    return ModulePresentation(
        M.ring, rows, gen_degrees=M.gen_degrees + N.gen_degrees
    )


def vec_restrict(v, lo, hi):
    """Entries with lo <= component < hi, components rebased to start at 0."""
    return {(comp - lo, m): c for (comp, m), c in v.items() if lo <= comp < hi}


def _tagged(generators, ring, rank):
    """The generators g_i as (g_i, eps_i) in S^(rank + k)."""
    one = (0,) * ring.nvars
    aug = []
    for i, g in enumerate(generators):
        h = dict(g)
        h[(rank + i, one)] = 1
        aug.append(h)
    return aug


def syzygy_basis(generators, ring, rank, relations=()):
    """Reduced Groebner basis, in S^k, of {c : sum_i c_i g_i in the span of
    the relations} for the given k vectors, computed cold each call.

    It is the tag part of the augmented basis of (g_i, eps_i) and (r, 0):
    the elements whose lead lies in the tag block, so only they are
    minimalized and interreduced."""
    builder = GroebnerBuilder(ring, rank + len(generators))
    for g in _tagged(generators, ring, rank) + list(relations):
        if g:
            builder.add(pack_vector(ring, g))
    builder.complete()
    return builder.reduced(rank)


def syzygies_over(ring, vectors, rank):
    """Generators of the syzygy module Z of the given vectors over R (or S):
    the elements of Z's reduced basis over S, with the f * e_j as relations,
    whose lead is not lead(f) * eps_c, in the basis's order, kept by the
    kernel's own filter."""
    S = ring.ambient
    kept = _kept_syzygies(ring, syzygy_basis(vectors, S, rank, f_times_unit_vectors(ring, rank)))
    return [unpack_vector(S, v) for v in kept]


def subquotient_presentation(ring, rank, numerator, denominator):
    """Presentation of N/D for submodules D <= N <= R^rank.

    numerator None means N = R^rank."""
    if numerator is None:
        rows = vectors_to_rows(denominator, rank, ring)
        return ModulePresentation(ring, rows)
    numerator = [v for v in numerator if v]
    if not numerator:
        return ModulePresentation.zero(ring)
    combined = numerator + denominator
    syz = syzygies_over(ring, combined, rank)
    relations = []
    seen = set()
    for s in syz:
        rel = vec_restrict(s, 0, len(numerator))
        if rel:
            key = freeze_vec(rel)
            if key not in seen:
                seen.add(key)
                relations.append(rel)
    rows = vectors_to_rows(relations, len(numerator), ring)
    return ModulePresentation(ring, rows)


def free_module(ring, rank=1):
    """R^rank, generated in degree 0."""
    return ModulePresentation(ring, [() for _ in range(rank)], gen_degrees=(0,) * rank)


def minimal_presentation(M):
    """F_0 and d_1 of M's minimal resolution, as a presentation."""
    res = minimal_resolution(M, 1)
    return ModulePresentation(M.ring, resolution_matrix(res, 1),
                              gen_degrees=tuple(res.gen_degrees(0)))


def syzygy_of(M, l):
    """Omega^l(M): the l-th syzygy, presented by d_{l+1}."""
    if l < 0:
        raise ValueError("syzygy index must be >= 0")
    if l == 0:
        return M
    res = minimal_resolution(M, l + 1)
    b = res.betti
    if b[l] == 0:
        return ModulePresentation.zero(M.ring)
    rows = vectors_to_rows(unpacked_columns(res, l + 1), b[l], M.ring)
    return ModulePresentation(M.ring, rows, gen_degrees=tuple(res.gen_degrees(l)))


def unit_pruned(M):
    """Packed relation columns and generator degrees left once every unit
    entry has been used to eliminate its generator and its column, by
    column operations on the rows of Polynomials: the reference for the
    packed pruning of the kernel."""
    rows = [list(r) for r in rows_of(M)]
    degs = list(M.gen_degrees)
    while True:
        unit = next(((r, c) for r, row in enumerate(rows) for c, p in enumerate(row)
                     if p.coeffs and p.is_constant()), None)
        if unit is None:
            return [v for v in packed_columns(rows, M.ring) if v], degs
        r, c = unit
        a_inv = M.ring.field.inv(rows[r][c].constant_coeff())
        # clear row r with column operations; row r and column c then go
        for c2 in range(len(rows[r])):
            if c2 == c or rows[r][c2].is_zero():
                continue
            lam = rows[r][c2].scale(a_inv)
            for row in rows:
                row[c2] = reduce_mod_f(row[c2] - lam * row[c], M.ring)
        del degs[r]
        rows = [row[:c] + row[c + 1:] for i, row in enumerate(rows) if i != r]


def unbounded_resolution(M, length):
    """(columns of d_1..d_length, generator degrees of F_0..F_length) of M's
    minimal resolution, each step reading the full syzygy basis of the one
    before it, with no degree bound: the reference for the bounded steps of
    the kernel.  M's own resolution is neither read nor grown."""
    S = M.ring.ambient
    diffs, degs, selection = [], [], None
    while len(diffs) < length:
        if diffs:
            target = degs[-1]
            vectors = [unpack_vector(S, v)
                       for v in _kept_syzygies(M.ring, selection.syzygies())]
        else:
            packed, target = M._unit_pruned()
            vectors = [unpack_vector(S, v) for v in packed]
        candidates = [(v, vector_degree(v, target, S)) for v in vectors]
        if diffs:
            candidates.sort(key=lambda c: (c[1], freeze_vec(c[0])))
        relations = [pack_vector(S, r) for r in f_times_unit_vectors(M.ring, len(target))]
        selection = NakayamaSelection(S, target, [(pack_vector(S, v), d) for v, d in candidates],
                                      relations)
        kept = [candidates[n] for n in selection.kept]
        degs[len(diffs):] = [list(target), [d for _v, d in kept]]
        diffs.append([v for v, _d in kept])
    return diffs, degs


def transpose(cols, nrows):
    """The columns of the transpose of the nrows-row matrix with the given
    columns: its rows, as vectors indexed by column position."""
    out = [{} for _r in range(nrows)]
    for c, v in enumerate(cols):
        for (r, m), coeff in v.items():
            out[r][(c, m)] = coeff
    return out


def ext_module(M, i):
    """Ext^i_A(M, A): homology of the dualized minimal resolution, which
    reads F_0..F_(i+1) and d_i, d_(i+1) only."""
    if i < 0:
        raise ValueError("ext index must be >= 0")
    res = minimal_resolution(M, i + 1)
    b = res.betti
    if b[i] == 0:
        return ModulePresentation.zero(M.ring)
    # kernel of transpose(d_{i+1}) : R^{b_i} -> R^{b_{i+1}}
    if b[i + 1] == 0:
        kernel = None
    else:
        kernel = syzygies_over(M.ring, transpose(unpacked_columns(res, i + 1), b[i]),
                               b[i + 1])
    # image of transpose(d_i) : R^{b_{i-1}} -> R^{b_i}
    image = transpose(unpacked_columns(res, i), b[i - 1]) if i else []
    return subquotient_presentation(M.ring, b[i], kernel, [v for v in image if v])


def dual_module(M):
    """Hom_A(M, A), computed as Ext^0 of the minimal resolution."""
    return ext_module(M, 0)


def koszul_complex(ring, elements):
    """Koszul complex on the given elements, a FreeComplex."""
    S = ring.ambient
    elems = [S.parse(e) if isinstance(e, str) else e for e in elements]
    n = len(elems)
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    matrices = []
    for k in range(1, n + 1):
        rows = []
        for target in subsets[k - 1]:
            row = []
            for source in subsets[k]:
                entry = S.zero()
                for pos, idx in enumerate(source):
                    rest = tuple(x for x in source if x != idx)
                    if rest == target:
                        sign = -1 if pos % 2 else 1
                        entry = elems[idx].scale(sign)
                row.append(entry)
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return FreeComplex(ring, matrices)


def shifted(F):
    """Homological shift of the FreeComplex F by one: H_i of the result is
    H_{i-1} of F.  The new bottom differential is the zero map F_0 -> 0,
    encoded as a matrix with no rows."""
    out = FreeComplex.__new__(FreeComplex)
    out.ring = F.ring
    out.degrees = [()] + list(F.degrees)
    out.diff_cols = [[]] + list(F.diff_cols)
    out.length = F.length + 1
    return out


def local_length_at_prime(M, prime):
    """Length of M localized at a height-one graded prime, via the ranks of
    the graded pieces p^i M / p^(i+1) M over A/p: c1's own loop, with the
    prime checked as c1 checks it."""
    return _local_length(M, *_checked_prime(M.ring, prime))


def mat_mul(a, b, S):
    if not a:
        return ()
    inner = len(a[0])
    bcols = len(b[0]) if b else 0
    out = []
    for row in a:
        new_row = []
        for c in range(bcols):
            acc = S.zero()
            for k in range(inner):
                acc = acc + row[k] * b[k][c]
            new_row.append(acc)
        out.append(tuple(new_row))
    return tuple(out)


def basis_leads(G, S):
    """The (component, exponent tuple) leads of a basis over S, unpacked."""
    return tuple(S._unpack(lead) for lead, _g in G.packed)


def lead_module(G, S):
    """Minimal monomial generators of the lead-term module, per component:
    the sorted leads, since no lead of a reduced basis divides another."""
    by_comp = {c: [] for c in range(G.rank)}
    for comp, mono in basis_leads(G, S):
        by_comp[comp].append(mono)
    return {c: sorted(ms) for c, ms in by_comp.items()}


def minimal_monomial_gens(monos):
    """The monomials no other one of them divides, sorted."""
    uniq = sorted(set(monos))
    return [m for m in uniq if not any(mono_divides(g, m) for g in uniq if g != m)]


def tuple_ideal_numerator(gens, weights, memo):
    """Hilbert numerator of S/(monomial ideal) by the colon recursion
    HN(g_1..g_m) = HN(g_1..g_(m-1)) - t^(deg g_m) HN((g_1..g_(m-1)) : g_m)
    on exponent tuples: the reference for the packed recursion."""
    if not gens:
        return {0: 1}
    if (0,) * len(weights) in gens:
        return {}
    if gens not in memo:
        g = gens[-1]
        colon = tuple(minimal_monomial_gens(
            [tuple(max(a - b, 0) for a, b in zip(h, g)) for h in gens[:-1]]))
        memo[gens] = _tpoly_axpy(dict(tuple_ideal_numerator(gens[:-1], weights, memo)), -1,
                                 sum(w * e for w, e in zip(weights, g)),
                                 tuple_ideal_numerator(colon, weights, memo))
    return memo[gens]


def tuple_hilbert_numerator(G, S, shifts=None):
    """Hilbert numerator of S^rank/(lead module) off unpacked leads."""
    weights, memo, total = S.weights, {}, {}
    for comp, gens in lead_module(G, S).items():
        _tpoly_axpy(total, 1, shifts[comp] if shifts else 0,
                    tuple_ideal_numerator(tuple(gens), weights, memo))
    return total


def _standard_symbols(G, S):
    """The standard monomial symbols (component, monomial) outside the lead
    module, or INFINITE."""
    n = S.nvars
    symbols = []
    for comp, gens in lead_module(G, S).items():
        if any(g == (0,) * n for g in gens):
            continue  # component entirely in the lead module
        bounds = []
        for i in range(n):
            pure = [g[i] for g in gens if all(e == 0 for j, e in enumerate(g) if j != i)]
            if not pure:
                return INFINITE
            bounds.append(min(pure))
        for point in itertools.product(*(range(b) for b in bounds)):
            if not any(mono_divides(g, point) for g in gens):
                symbols.append((comp, point))
    return symbols


def staircase_count(G, S):
    """Number of standard monomial symbols outside the lead module, or INFINITE."""
    symbols = _standard_symbols(G, S)
    return symbols if symbols is INFINITE else len(symbols)


def top_degree(M):
    """The largest degree of a nonzero graded piece of M, of finite length
    and nonzero: that of a standard monomial symbol of its presentation
    basis, in its generator's degree."""
    S = M.ring.ambient
    symbols = _standard_symbols(M.presentation_gb(), S)
    if symbols is INFINITE or not symbols:
        raise ValueError("top_degree needs a nonzero module of finite length")
    return max(S.mono_degree(m) + M.gen_degrees[comp] for comp, m in symbols)


def normal_form(v, G, ring):
    """Fully reduced remainder of the vector v against the reduced basis G
    over the ring; of the basis elements whose lead divides a term, the
    first is used."""
    reducers = {}
    for lead, g in G.packed:
        reducers.setdefault(lead >> ring._comp_shift, []).append((lead, g))
    return unpack_vector(ring, normal_form_vec(pack_vector(ring, v), reducers, ring))


def tpoly_sub(a, b):
    """a - b for numerators, dicts degree -> int with no zero coefficient."""
    out = dict(a)
    for d, c in b.items():
        s = out.get(d, 0) - c
        if s:
            out[d] = s
        else:
            out.pop(d, None)
    return out


def tpoly_div_1mt(a):
    """Exact division by (1 - t) of a numerator of lowest degree >= 0;
    AlgebraError unless a(1) == 0."""
    if not a:
        return {}
    top = max(a)
    q, carry = [], 0
    for d in range(top + 1):  # (1 - t)(q_0 + q_1 t + ...): q_d = a_d + q_(d-1)
        carry += a.get(d, 0)
        q.append(carry)
    if top > 0 and q[-1] != 0:
        raise AlgebraError("numerator does not vanish at t = 1")
    return {d: c for d, c in enumerate(q[:-1] if top > 0 else q) if c}


def series_at_one_by_division(num):
    """(order of the root t = 1, value at t = 1 of num / (1 - t)^order), by
    dividing by (1 - t) while the value is 0; (None, 0) for num = 0."""
    if not num:
        return None, 0
    low = min(num)
    num = {d - low: c for d, c in num.items()}
    order = 0
    while sum(num.values()) == 0:
        num = tpoly_div_1mt(num)
        order += 1
    return order, sum(num.values())


def quotient_dimension(G, S):
    """Krull dimension of S^rank/(lead module) off the unshifted numerator;
    -1 for the zero module."""
    order, _value = _series_at_one(hilbert_numerator(G.leads, G.rank, S))
    if order is None:
        return -1
    return S.nvars - order


def multiplicity(G, S):
    """Normalized leading coefficient of the Hilbert polynomial of
    S^rank/(lead module), off the unshifted numerator (weights 1)."""
    order, e = _series_at_one(hilbert_numerator(G.leads, G.rank, S))
    if order is None or order == S.nvars:
        raise ValueError("multiplicity needs a module of positive dimension")
    return e


def theta_by_cokernel(M, N):
    """theta(M, N) read off the cokernel C_s of M's matrix factorization
    tensored with N, as pairings.theta reads it, but with no finite-length
    shortcut and nothing remembered."""
    s = extract_matrix_factorization(minimal_resolution(M, 1)).source_index
    res = minimal_resolution(M, s + 1)
    deg_f = M.ring.f.weighted_degree()
    below, middle = res.gen_degrees(s - 1), res.gen_degrees(s)
    c_s = _cokernel_series(res.packed_columns(s), below, N)
    num = _tpoly_axpy(dict(c_s), -1, deg_f, c_s)
    for degs, coeff in ((below, -1), (middle, 1)):
        for deg in degs:
            _tpoly_axpy(num, coeff, deg, module_series(N))
    return (-1) ** s * series_value(num, M.ring.weights)


def tagged_syzygies(ring, vectors, rank):
    """Syzygies of the vectors over R with each f * e_j a tagged generator
    too: the syzygies over S of the longer list, cut back to the vectors'
    own coefficients, reduced modulo f, without zeros and repeats."""
    base = len(vectors)
    gens = list(vectors) + f_times_unit_vectors(ring, rank)
    out = []
    seen = set()
    S = ring.ambient
    for s in map(dict, unpacked_vectors(syzygy_basis(gens, S, rank), S)):
        v = reduce_vec_mod_f(vec_restrict(s, 0, base), ring)
        if v and freeze_vec(v) not in seen:
            seen.add(freeze_vec(v))
            out.append(v)
    return out


def tag_lead_part(S, generators, rank, relations=()):
    """The frozen vectors of the full reduced basis of (g_i, eps_i) and the
    untagged relations (r, 0) in S^(rank + k) that have every term in the
    tag block, moved down by rank components, in the basis's order."""
    tagged = [dict(g) for g in generators]
    for i, h in enumerate(tagged):
        h[(rank + i, (0,) * S.nvars)] = 1
    full = basis_of_vectors(tagged + list(relations), S, rank + len(tagged))
    return tuple(tuple(((comp - rank, m), c) for (comp, m), c in fv)
                 for fv in unpacked_vectors(full, S) if all(comp >= rank for (comp, _m), _c in fv))


def full_basis_syzygies(ring, vectors, rank):
    """Syzygies of the vectors over R read off the full augmented basis of
    the vectors and the f * e_j: its tag-lead part without the elements whose
    lead is lead(f) * eps_c, in the basis's order."""
    S, f = ring.ambient, ring.f
    f_lead = None if f is None else vec_lead(vec_from_polys([f]), S)[1]
    return [dict(fv) for fv in tag_lead_part(S, vectors, rank, f_times_unit_vectors(ring, rank))
            if vec_lead(dict(fv), S)[1] != f_lead]


def reduce_with_representation(v, generators, ring, rank):
    """(r, [q_i]) with v = sum q_i g_i + r and r fully reduced: the normal form
    of (v, 0) against the full reduced basis of the (g_i, eps_i), whose tag
    block holds -q."""
    k = len(generators)
    nf = normal_form(dict(v), basis_of_vectors(_tagged(generators, ring, rank), ring, rank + k),
                     ring)
    reps = [ring.from_dict({m: ring.field.coerce(-c) for (comp, m), c in nf.items()
                            if comp == rank + i})
            for i in range(k)]
    return vec_restrict(nf, 0, rank), reps


def _block_relations(Q_cols, s, blocks):
    out = []
    for block in range(blocks):
        for v in Q_cols:
            out.append(vec_shift_components(v, block * s))
    return out


def cokernel_leads(d_cols, rank, N):
    """The sorted packed leads of the reduced basis of the image of d (x) N,
    for the packed columns of d into F of the given rank, off d (x) I_s and
    one copy of N's relation columns and f * e_j per block, all added as
    plain generators: the lead module _cokernel_series remembers, read off
    a reduced basis with no seeding."""
    S, s = N.ring.ambient, N.nrows
    relations = columns_as_vectors(rows_of(N)) + f_times_unit_vectors(N.ring, s)
    cols = tensor_map_columns([unpack_vector(S, v) for v in d_cols], s)
    G = basis_of_vectors(cols + _block_relations(relations, s, rank), S, rank * s)
    return sorted(G.leads)


def monomials_of_degree(S, d):
    """The exponent tuples of weighted degree d over S, for any integer d."""
    out = []

    def extend(prefix, rest):
        i = len(prefix)
        if i == S.nvars:
            if rest == 0:
                out.append(tuple(prefix))
            return
        for e in range(rest // S.weights[i] + 1):
            extend(prefix + [e], rest - e * S.weights[i])

    if d >= 0:
        extend([], d)
    return out


def macaulay_hilbert_function(gens, shifts, S, degrees):
    """{d: HF(d)} of S^rank / (gens), e_j in degree shifts[j], for each d in
    degrees, with no Groebner basis (Macaulay, Proc. London Math. Soc.
    1902; Lazard, EUROCAL 1983): dim F_d less the rank of the degree-d
    Macaulay matrix, each homogeneous unpacked generator times every
    monomial of complementary degree, by Gaussian elimination over the
    field, in Fractions over Q."""
    p = S.field.characteristic
    out = {}
    for d in degrees:
        pivots = {}
        for g in gens:
            if not g:
                continue
            (comp, mono), _c = next(iter(g.items()))
            for m in monomials_of_degree(S, d - shifts[comp] - S.mono_degree(mono)):
                row = {(k, mono_mul(m, e)): Fraction(c) if not p else c
                       for (k, e), c in g.items()}
                while row:
                    col = min(row)
                    pivot = pivots.get(col)
                    if pivot is None:
                        inv = 1 / row[col] if not p else pow(row[col], -1, p)
                        pivots[col] = {k: c * inv % p if p else c * inv for k, c in row.items()}
                        break
                    lead = row[col]
                    for k, c in pivot.items():
                        x = row.get(k, 0) - lead * c
                        x = x % p if p else x
                        if x:
                            row[k] = x
                        else:
                            row.pop(k, None)
        out[d] = sum(len(monomials_of_degree(S, d - shift)) for shift in shifts) - len(pivots)
    return out


def series_coefficients(num, weights, lo, hi):
    """{d: coefficient of t^d} of num(t) / prod_i (1 - t^(w_i)) for
    lo <= d <= hi, where num has no term below lo."""
    coeffs = [0] * (hi - lo + 1)
    for d, c in num.items():
        if d <= hi:
            coeffs[d - lo] += c
    for w in weights:
        for i in range(w, len(coeffs)):
            coeffs[i] += coeffs[i - w]
    return {lo + i: c for i, c in enumerate(coeffs)}


def complex_homology(ring, diff_cols, ranks, N, i):
    """H_i of (complex with the given differentials) tensored with N.

    diff_cols[k] holds the columns of d_{k+1}; ranks has length L+1."""
    L = len(diff_cols)
    if not 0 <= i <= L:
        raise IndexError(f"homology index {i} out of computed range 0..{L}")
    s = N.nrows
    if s == 0 or ranks[i] == 0:
        return ModulePresentation.zero(ring)
    Q_cols = columns_as_vectors(rows_of(N))
    denominator = []
    if i < L:
        denominator += tensor_map_columns(diff_cols[i], s)
    denominator += _block_relations(Q_cols, s, ranks[i])
    if i == 0 or ranks[i - 1] == 0:
        # no incoming map (or a zero target): the kernel is everything
        numerator = None
    else:
        map_cols = tensor_map_columns(diff_cols[i - 1], s)
        modulo = _block_relations(Q_cols, s, ranks[i - 1])
        syz = syzygies_over(ring, map_cols + modulo, ranks[i - 1] * s)
        numerator = []
        seen = set()
        for sy in syz:
            v = vec_restrict(sy, 0, len(map_cols))
            if v:
                key = freeze_vec(v)
                if key not in seen:
                    seen.add(key)
                    numerator.append(v)
    return subquotient_presentation(ring, ranks[i] * s, numerator, denominator)


def tensored_homology(res, N, i):
    """H_i(F (x) N) for a resolution F, 0 <= i < res.length, presented as a
    subquotient."""
    diff_cols = [unpacked_columns(res, k) for k in range(1, i + 2)]
    return complex_homology(res.ring, diff_cols, res.betti[: i + 2], N, i)


def homology_tor_length(M, N, i):
    """Length of Tor_i(M, N) = H_i(F (x) N) for the minimal resolution F of
    M, counted on the staircase of the homology's presentation."""
    H = tensored_homology(minimal_resolution(M, i + 1), N, i)
    return staircase_count(H.presentation_gb(), M.ring.ambient)


def homology_chi(F, N):
    """Alternating sum of the staircase counts of H_i(F (x) N), each presented
    as a subquotient, for a FreeComplex F."""
    diff_cols = [columns_as_vectors(m) for m in complex_rows(F)]
    ranks = [len(degs) for degs in F.degrees]
    return sum(
        (-1) ** i * staircase_count(
            complex_homology(F.ring, diff_cols, ranks, N, i).presentation_gb(), F.ring.ambient)
        for i in range(F.length + 1)
    )


def subquotient_local_length(M, prime):
    """Length of M at the height-one prime p (a list of polynomials), from the
    multiplicities of the presented graded pieces p^i M / p^(i+1) M."""
    ring = M.ring
    S, d = ring.ambient, ring.dimension
    prime = [S.parse(p) if isinstance(p, str) else p for p in prime]
    e_p = multiplicity(ModulePresentation.cyclic(ring, prime).presentation_gb(), S)
    total = 0
    for power in range(256):
        num, den = [], columns_as_vectors(rows_of(M))
        for target, p in ((num, power), (den, power + 1)):
            for prod in _power_products(S, prime, p):
                prod = reduce_mod_f(prod, ring)
                for j in range(M.nrows):
                    target.append({(j, m): c for m, c in monomials(prod).items()})
        piece = subquotient_presentation(ring, M.nrows, num, den)
        if quotient_dimension(piece.presentation_gb(), S) < d - 1:
            return total
        rank, remainder = divmod(multiplicity(piece.presentation_gb(), S), e_p)
        if remainder:
            raise AlgebraError(f"graded piece {power} has a multiplicity not divisible by e(A/p)")
        total += rank
    raise AlgebraError("local length did not terminate")


def knorrer_ring(A, w_u=1, names=("u_k", "v_k")):
    """A' = S[u, v]/(f - uv) for the two new variable names (u, v), with
    deg u = w_u and deg v = deg f - w_u, so that f - uv is homogeneous:
    dimension d + 2.  A' may itself be lifted again, under two other names."""
    S = A.ambient
    deg_f = A.f.weighted_degree()
    T = PolynomialRing(S.field, S.variables + tuple(names), S.weights + (w_u, deg_f - w_u))
    u, v = (T.parse(name) for name in names)
    return HypersurfaceRing(T, _over(A.f, T) - u * v)


def _over(p, T):
    """The polynomial p over S as one over T = S[u, v]."""
    return T.from_dict({m + (0, 0): c for m, c in monomials(p).items()})


def knorrer_lift(M, A2):
    """Knörrer's lift of M to A2 = knorrer_ring(M.ring, ...), whose last two
    variables are u and v: coker [[a, -u I], [-v I, b]] for the matrix
    factorization (a, b) whose cokernel is M's stable class.  M's
    factorization (alpha, beta) has coker alpha = Omega^(s-1) M, s its source
    index, and coker beta is the syzygy of coker alpha, so (a, b) is
    (alpha, beta) for odd s and (beta, alpha) for even s.  [[a, -u I], [-v I,
    b]] [[b, u I], [v I, a]] = (f - uv) I, and the lift is an equivalence of
    stable categories of maximal Cohen-Macaulay modules (Knörrer, Invent.
    Math. 88, 1987)."""
    mf = extract_matrix_factorization(minimal_resolution(M, 1))
    a, b = (mf.alpha, mf.beta) if mf.source_index % 2 else (mf.beta, mf.alpha)
    T, r = A2.ambient, mf.size
    minus_u, minus_v = (T.parse(name).scale(-1) for name in T.variables[-2:])

    def diagonal(c, i):
        return [c if j == i else T.zero() for j in range(r)]

    rows = [tuple([_over(p, T) for p in a[i]] + diagonal(minus_u, i)) for i in range(r)]
    rows += [tuple(diagonal(minus_v, i) + [_over(p, T) for p in b[i]]) for i in range(r)]
    return ModulePresentation(A2, rows)


def tor_chi(N0, M):
    """chi(N0, M) as the alternating sum of the Tor lengths up to the
    projective dimension of N0, each read off its own homology series: the
    witness for the graded Euler characteristic chi_modules reads."""
    pd = finite_pd(N0)
    return sum((-1) ** i * tor_length(N0, M, i) for i in range(pd + 1))


def chi_S(M, N):
    """chi^S(M, N) = sum_i (-1)^i l(Tor^S_i(M, N)) over the ambient ring S:
    sum_i (-1)^i HS(Tor^S_i) = HS(M) HS(N) / HS(S), so it is the value at
    t = 1 of num(M) num(N) over prod_i (1 - t^(w_i)).  When M (x) N has
    finite length it equals theta(M, N) (Hochster 1981), a witness that
    needs no resolution and no matrix factorization."""
    num = {}
    for d, c in module_series(M).items():
        _tpoly_axpy(num, c, d, module_series(N))
    return series_value(num, M.ring.weights)


def tensor_has_finite_length(M, N):
    """Whether M (x) N has finite length, read off C_0 = coker(d_1 (x) N),
    d_1 M's presentation matrix."""
    C_0 = _cokernel_series(M.columns, M.gen_degrees, N)
    return series_value(C_0, M.ring.weights) is not INFINITE


def hyperbolic_signature(matrix):
    """Inertia (n_plus, n_minus, n_zero) by exact symmetric elimination, a
    zero diagonal with a nonzero off-diagonal entry handled by the hyperbolic
    2x2 block pivot, which contributes (1, 1): the reference for the
    congruence numeq.signature makes there."""
    n = len(matrix)
    S = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if S[i][j] != S[j][i]:
                raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = zero = 0
    while active:
        pivot = next((i for i in active if S[i][i] != 0), None)
        if pivot is not None:
            a = S[pivot][pivot]
            if a > 0:
                pos += 1
            else:
                neg += 1
            active.remove(pivot)
            for r in active:
                factor = S[r][pivot] / a
                if factor:
                    for c in active:
                        S[r][c] -= factor * S[pivot][c]
            for r in active:
                S[r][pivot] = Fraction(0)
                S[pivot][r] = Fraction(0)
            continue
        hyp = None
        for ii, i in enumerate(active):
            for j in active[ii + 1:]:
                if S[i][j] != 0:
                    hyp = (i, j)
                    break
            if hyp:
                break
        if hyp is None:
            zero += len(active)
            break
        i, j = hyp
        b = S[i][j]
        pos += 1
        neg += 1
        active.remove(i)
        active.remove(j)
        for r in active:
            ri, rj = S[r][i], S[r][j]
            if ri or rj:
                for c in active:
                    S[r][c] -= (ri * S[j][c] + rj * S[i][c]) / b
        for r in active:
            S[r][i] = S[r][j] = Fraction(0)
            S[i][r] = S[j][r] = Fraction(0)
    return pos, neg, zero
