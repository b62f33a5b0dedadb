"""Independent routes, kept as test oracles, and builders only tests use:
vectors from polynomials, free modules and direct sums of presentations;
the monomial lcm and coprimality the packed pair layer is checked against;
the unpacked vector arithmetic (vec_axpy) and reduction modulo f that the
packed kernel is checked against, and conversions between packed columns,
unpacked columns and rows of Polynomials; matrix products
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
reference for the Taylor reading; and Knörrer's lift of a matrix
factorization to two more variables, a cross-dimension reference for theta,
which can be applied again to the lifted ring."""

import itertools
import operator
from typing import Sequence

from thetacas import (
    INFINITE,
    FreeComplex,
    HypersurfaceRing,
    PolynomialRing,
    extract_matrix_factorization,
    minimal_resolution,
)
from thetacas.errors import AlgebraError
from thetacas.groebner import (
    NakayamaSelection,
    Vector,
    _completed,
    _series_at_one,
    freeze_vec,
    groebner_basis,
    hilbert_numerator,
    lead_module,
    normal_form_vec,
)
from thetacas.homology import (
    ModulePresentation,
    _kept_syzygies,
    _tensor_map_columns,
    _vector_degree,
    columns_as_vectors,
    f_times_unit_vectors,
    reduce_mod_f,
    reduce_packed_mod_f,
)
from thetacas.pairings import _checked_prime, _local_length, _power_products
from thetacas.ring import (
    Polynomial,
    ambient_of,
    modulus_of,
    mono_divides,
    mono_mul,
    ring_dimension,
)


def mono_div(b, a):
    """b / a, assuming divisibility."""
    return tuple(map(operator.sub, b, a))


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
    zero = field.zero
    for (comp, m), c in w.items():
        t = (comp, mono_mul(mono, m))
        s = field.add(v.get(t, zero), field.mul(coeff, c))
        if s == 0:
            v.pop(t, None)
        else:
            v[t] = s
    return v


def reduce_vec_mod_f(v, ring):
    """v with every component reduced modulo f, through the packed kernel."""
    if modulus_of(ring) is None:
        return dict(v)
    S = ring.ambient
    return S._unpack_vector(reduce_packed_mod_f(S._pack_vector(v), ring))


def vectors_to_rows(vectors: Sequence[Vector], rank: int, ring) -> tuple:
    S = ambient_of(ring)
    rows = [[{} for _v in vectors] for _r in range(rank)]
    for k, v in enumerate(vectors):
        for (comp, m), c in v.items():
            rows[comp][k][m] = c
    return tuple(tuple([Polynomial(S, entry) for entry in row]) for row in rows)


def packed_columns(rows, ring):
    """The packed columns of the matrix with the given rows of Polynomials."""
    S = ambient_of(ring)
    return [S._pack_vector(v) for v in columns_as_vectors(rows)]


def vector_degree(v, target_degs, S):
    """The degree of the homogeneous vector v into generators of the given
    degrees, read by the kernel off its packed terms."""
    return _vector_degree(S._pack_vector(v), target_degs, S)


def resolution_matrix(res, i):
    """The rows of Polynomials of d_i (1-based) of the resolution."""
    return vectors_to_rows(res.differential_columns(i), res.betti[i - 1], res.ring)


def vec_shift_components(v, offset):
    return {(comp + offset, m): c for (comp, m), c in v.items()}


def term_key(ring, term):
    """Sort key of a (component, monomial) term, larger for a larger term:
    the lower component index wins, then PolynomialRing.mono_key."""
    comp, mono = term
    return (-comp, ring.mono_key(mono))


def vec_lead(v, ring):
    """Lead term of a vector, by term_key."""
    return max(v, key=lambda t: term_key(ring, t))


def vec_from_polys(polys):
    out = {}
    for comp, p in enumerate(polys):
        for m, c in p.coeffs.items():
            out[(comp, m)] = c
    return out


def direct_sum(M, N):
    if M.ring is not N.ring:
        raise ValueError("direct sum requires one ring")
    S = ambient_of(M.ring)
    zero = S.zero()
    rows = []
    for r in range(M.nrows):
        rows.append(tuple(M.rows[r]) + (zero,) * N.ncols)
    for r in range(N.nrows):
        rows.append((zero,) * M.ncols + tuple(N.rows[r]))
    return ModulePresentation(
        M.ring, rows, gen_degrees=M.gen_degrees + N.gen_degrees
    )


def vec_restrict(v, lo, hi):
    """Entries with lo <= component < hi, components rebased to start at 0."""
    return {(comp - lo, m): c for (comp, m), c in v.items() if lo <= comp < hi}


def _tagged(generators, ring, rank):
    """The generators g_i as (g_i, eps_i) in S^(rank + k)."""
    one = ring._one_mono
    aug = []
    for i, g in enumerate(generators):
        h = dict(g)
        h[(rank + i, one)] = ring.field.one
        aug.append(h)
    return aug


def _syzygy_key(generators: Sequence[Vector], rank: int, relations: Sequence[Vector]) -> tuple:
    """The ring memo's key of the reduced basis, in S^k, of the syzygies of
    the k generators modulo the relations.  It is tagged apart: that basis is
    only the tag-lead part of the augmented one, so it must not answer for
    the full basis of the same vectors."""
    return ("syzygies", rank, tuple(freeze_vec(g) for g in generators),
            tuple(freeze_vec(r) for r in relations))


def syzygy_basis(generators, ring, rank, relations=()):
    """Reduced Groebner basis, in S^k, of {c : sum_i c_i g_i in the span of
    the relations} for the given k vectors, memoised on the ring under a
    key of its own.

    It is the tag part of the augmented basis of (g_i, eps_i) and (r, 0):
    the elements whose lead lies in the tag block, so only they are
    minimalized and interreduced."""
    key = _syzygy_key(generators, rank, relations)
    cached = ring._groebner_memo.get(key)
    if cached is None:
        builder = _completed(_tagged(generators, ring, rank) + list(relations), ring,
                             rank + len(generators))
        cached = ring._groebner_memo[key] = builder.reduced(rank)
    return cached


def syzygies_over(ring, vectors, rank):
    """Generators of the syzygy module Z of the given vectors over R (or S):
    the elements of Z's reduced basis over S, with the f * e_j as relations,
    whose lead is not lead(f) * eps_c, in the basis's order, kept by the
    kernel's own filter."""
    S = ambient_of(ring)
    kept = _kept_syzygies(ring, syzygy_basis(vectors, S, rank, f_times_unit_vectors(ring, rank)))
    return [S._unpack_vector(v) for v in kept]


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
    rows = vectors_to_rows(res.differential_columns(l + 1), b[l], M.ring)
    return ModulePresentation(M.ring, rows, gen_degrees=tuple(res.gen_degrees(l)))


def unbounded_resolution(M, length):
    """(columns of d_1..d_length, generator degrees of F_0..F_length) of M's
    minimal resolution, each step reading the full syzygy basis of the one
    before it, with no degree bound: the reference for the bounded steps of
    the kernel.  M's own resolution is neither read nor grown."""
    S = ambient_of(M.ring)
    diffs, degs, selection = [], [], None
    while len(diffs) < length:
        if diffs:
            target = degs[-1]
            vectors = [S._unpack_vector(v)
                       for v in _kept_syzygies(M.ring, selection.syzygies())]
        else:
            vectors, target = M._unit_pruned()
        candidates = [(v, vector_degree(v, target, S)) for v in vectors]
        if diffs:
            candidates.sort(key=lambda c: (c[1], freeze_vec(c[0])))
        relations = [S._pack_vector(r) for r in f_times_unit_vectors(M.ring, len(target))]
        selection = NakayamaSelection(S, target, [(S._pack_vector(v), d) for v, d in candidates],
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
        kernel = syzygies_over(M.ring, transpose(res.differential_columns(i + 1), b[i]),
                               b[i + 1])
    # image of transpose(d_i) : R^{b_{i-1}} -> R^{b_i}
    image = transpose(res.differential_columns(i), b[i - 1]) if i else []
    return subquotient_presentation(M.ring, b[i], kernel, [v for v in image if v])


def dual_module(M):
    """Hom_A(M, A), computed as Ext^0 of the minimal resolution."""
    return ext_module(M, 0)


def koszul_complex(ring, elements):
    """Koszul complex on the given elements, a FreeComplex."""
    S = ambient_of(ring)
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
    out.matrices = [()] + list(F.matrices)
    out.degrees = [()] + list(F.degrees)
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


def _standard_symbols(G):
    """The standard monomial symbols (component, monomial) outside the lead
    module, or INFINITE."""
    n = G.ring.nvars
    symbols = []
    for comp, gens in lead_module(G).items():
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


def staircase_count(G):
    """Number of standard monomial symbols outside the lead module, or INFINITE."""
    symbols = _standard_symbols(G)
    return symbols if symbols is INFINITE else len(symbols)


def top_degree(M):
    """The largest degree of a nonzero graded piece of M, of finite length
    and nonzero: that of a standard monomial symbol of its presentation
    basis, in its generator's degree."""
    G = M.presentation_gb()
    symbols = _standard_symbols(G)
    if symbols is INFINITE or not symbols:
        raise ValueError("top_degree needs a nonzero module of finite length")
    return max(G.ring.mono_degree(m) + M.gen_degrees[comp] for comp, m in symbols)


def normal_form(v, G):
    """Fully reduced remainder of the vector v against the reduced basis G;
    of the basis elements whose lead divides a term, the first is used."""
    ring = G.ring
    reducers = {}
    for lead, g in G.packed:
        reducers.setdefault(lead >> ring._comp_shift, []).append((lead, g))
    return ring._unpack_vector(normal_form_vec(ring._pack_vector(v), reducers, ring))


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


def quotient_dimension(G):
    """Krull dimension of S^rank/(lead module) off the unshifted numerator;
    -1 for the zero module."""
    order, _value = _series_at_one(hilbert_numerator(G))
    if order is None:
        return -1
    return G.ring.nvars - order


def multiplicity(G):
    """Normalized leading coefficient of the Hilbert polynomial of
    S^rank/(lead module), off the unshifted numerator (weights 1)."""
    order, e = _series_at_one(hilbert_numerator(G))
    if order is None or order == G.ring.nvars:
        raise ValueError("multiplicity needs a module of positive dimension")
    return e


def tagged_syzygies(ring, vectors, rank):
    """Syzygies of the vectors over R with each f * e_j a tagged generator
    too: the syzygies over S of the longer list, cut back to the vectors'
    own coefficients, reduced modulo f, without zeros and repeats."""
    base = len(vectors)
    gens = list(vectors) + f_times_unit_vectors(ring, rank)
    out = []
    seen = set()
    for s in map(dict, syzygy_basis(gens, ambient_of(ring), rank).vectors):
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
        h[(rank + i, (0,) * S.nvars)] = S.field.one
    full = groebner_basis(tagged + list(relations), S, rank + len(tagged))
    return tuple(tuple(((comp - rank, m), c) for (comp, m), c in fv)
                 for fv in full.vectors if all(comp >= rank for (comp, _m), _c in fv))


def full_basis_syzygies(ring, vectors, rank):
    """Syzygies of the vectors over R read off the full augmented basis of
    the vectors and the f * e_j: its tag-lead part without the elements whose
    lead is lead(f) * eps_c, in the basis's order."""
    S, f = ambient_of(ring), modulus_of(ring)
    f_lead = None if f is None else vec_lead(vec_from_polys([f]), S)[1]
    return [dict(fv) for fv in tag_lead_part(S, vectors, rank, f_times_unit_vectors(ring, rank))
            if vec_lead(dict(fv), S)[1] != f_lead]


def reduce_with_representation(v, generators, ring, rank):
    """(r, [q_i]) with v = sum q_i g_i + r and r fully reduced: the normal form
    of (v, 0) against the full reduced basis of the (g_i, eps_i), whose tag
    block holds -q."""
    k = len(generators)
    nf = normal_form(dict(v), groebner_basis(_tagged(generators, ring, rank), ring, rank + k))
    reps = [Polynomial(ring, {m: ring.field.neg(c) for (comp, m), c in nf.items()
                              if comp == rank + i})
            for i in range(k)]
    return vec_restrict(nf, 0, rank), reps


def _block_relations(Q_cols, s, blocks):
    out = []
    for block in range(blocks):
        for v in Q_cols:
            out.append(vec_shift_components(v, block * s))
    return out


def complex_homology(ring, diff_cols, ranks, N, i):
    """H_i of (complex with the given differentials) tensored with N.

    diff_cols[k] holds the columns of d_{k+1}; ranks has length L+1."""
    L = len(diff_cols)
    if not 0 <= i <= L:
        raise IndexError(f"homology index {i} out of computed range 0..{L}")
    s = N.nrows
    if s == 0 or ranks[i] == 0:
        return ModulePresentation.zero(ring)
    Q_cols = N.columns()
    denominator = []
    if i < L:
        denominator += _tensor_map_columns(diff_cols[i], s)
    denominator += _block_relations(Q_cols, s, ranks[i])
    if i == 0 or ranks[i - 1] == 0:
        # no incoming map (or a zero target): the kernel is everything
        numerator = None
    else:
        map_cols = _tensor_map_columns(diff_cols[i - 1], s)
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
    diff_cols = [res.differential_columns(k) for k in range(1, i + 2)]
    return complex_homology(res.ring, diff_cols, res.betti[: i + 2], N, i)


def homology_tor_length(M, N, i):
    """Length of Tor_i(M, N) = H_i(F (x) N) for the minimal resolution F of
    M, counted on the staircase of the homology's presentation."""
    H = tensored_homology(minimal_resolution(M, i + 1), N, i)
    return staircase_count(H.presentation_gb())


def homology_chi(F, N):
    """Alternating sum of the staircase counts of H_i(F (x) N), each presented
    as a subquotient, for a FreeComplex F."""
    diff_cols = [columns_as_vectors(m) for m in F.matrices]
    ranks = [len(degs) for degs in F.degrees]
    return sum(
        (-1) ** i * staircase_count(
            complex_homology(F.ring, diff_cols, ranks, N, i).presentation_gb())
        for i in range(F.length + 1)
    )


def subquotient_local_length(M, prime):
    """Length of M at the height-one prime p (a list of polynomials), from the
    multiplicities of the presented graded pieces p^i M / p^(i+1) M."""
    ring = M.ring
    S = ambient_of(ring)
    prime = [S.parse(p) if isinstance(p, str) else p for p in prime]
    d = ring_dimension(ring)
    e_p = multiplicity(ModulePresentation.cyclic(ring, prime).presentation_gb())
    total = 0
    for power in range(256):
        num, den = [], list(M.columns())
        for target, p in ((num, power), (den, power + 1)):
            for prod in _power_products(S, prime, p):
                prod = reduce_mod_f(prod, ring)
                for j in range(M.nrows):
                    target.append({(j, m): c for m, c in prod.coeffs.items()})
        piece = subquotient_presentation(ring, M.nrows, num, den)
        if quotient_dimension(piece.presentation_gb()) < d - 1:
            return total
        rank, remainder = divmod(multiplicity(piece.presentation_gb()), e_p)
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
    return T.from_dict({m + (0, 0): c for m, c in p.coeffs.items()})


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
