"""Independent routes, kept as test oracles, and builders only tests use:
vectors from polynomials and direct sums of presentations; matrix products
over S, for the two-sided matrix factorization identity and d^2 = 0; for the
Hilbert-series route to lengths, a staircase count of standard monomials,
homology of a tensored complex presented as a subquotient (for Tor and chi
of a complex, with one copy of N's relations per block), and local lengths
from presented graded pieces p^i M / p^(i+1) M; for syzygies over
R = S/(f), the f * e_j taken as tagged generators, and the syzygies read
off the full augmented basis, not only its tag-lead part; and division with
a representation, the reference for a matrix factorization's beta."""

import itertools
import operator

from thetacas import INFINITE, minimal_resolution
from thetacas.errors import AlgebraError
from thetacas.groebner import (
    _tagged,
    freeze_vec,
    groebner_basis,
    lead_module,
    multiplicity,
    normal_form,
    syzygy_basis,
    vec_restrict,
)
from thetacas.homology import (
    ModulePresentation,
    _tensor_map_columns,
    columns_as_vectors,
    f_times_unit_vectors,
    module_dimension,
    reduce_mod_f,
    reduce_vec_mod_f,
    subquotient_presentation,
    syzygies_over,
)
from thetacas.pairings import _power_products
from thetacas.ring import Polynomial, ambient_of, modulus_of, mono_divides, ring_dimension


def mono_div(b, a):
    """b / a, assuming divisibility."""
    return tuple(map(operator.sub, b, a))


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


def staircase_count(G):
    """Number of standard monomial symbols outside the lead module, or INFINITE."""
    n = G.ring.nvars
    total = 0
    for _comp, gens in lead_module(G).items():
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
                total += 1
    return total


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
        if module_dimension(piece) < d - 1:
            return total
        rank, remainder = divmod(multiplicity(piece.presentation_gb()), e_p)
        if remainder:
            raise AlgebraError(f"graded piece {power} has a multiplicity not divisible by e(A/p)")
        total += rank
    raise AlgebraError("local length did not terminate")
