"""Square matrices over the ambient ring S, held as lists of column vectors
(see groebner): exact division by a polynomial, and the inverse of a matrix
that is homogeneous of degree 0.  A matrix factorization's beta is read off
them, with no Groebner basis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import AlgebraError
from .groebner import Vector, vec_axpy
from .ring import PolynomialRing


def divide_exactly(v: Vector, f: dict, ring: PolynomialRing) -> Vector:
    """The vector q with f * q = v, for f a nonzero polynomial given as
    {monomial: coefficient}; AlgebraError when f does not divide v.  Each
    step removes the lead term of v - f * q, which f's lead term divides
    whenever f divides v."""
    field, guards = ring.field, ring._exp_guards
    g = ring._pack_vector({(0, m): c for m, c in f.items()})
    lead = min(g)
    lc, one = g[lead], ring._pack(0, ring._one_mono)
    lc_inv = field.one if lc == field.one else field.inv(lc)
    work, q = ring._pack_vector(v), {}
    while work:
        t = min(work)
        if (t - lead) & guards:
            raise AlgebraError(f"the divisor does not divide the term {ring._unpack(t)}")
        c = q[t - lead + one] = field.mul(work[t], lc_inv)
        field.axpy(work, field.neg(c), t - lead, g)
    return ring._unpack_vector(q)


def graded_inverse(columns: Sequence[Vector], rank: int,
                   ring: PolynomialRing) -> Optional[List[Vector]]:
    """The columns of W^-1 for the rank x rank matrix W with the given
    columns, or None.  W is meant homogeneous of degree 0, so an entry with
    a constant term is a constant, and W is invertible exactly when its
    constant part is.  Column operations with constant pivots turn W into
    the identity, row by row, and the identity into W^-1; when no column
    left has a nonzero constant in the row, the constant part is singular."""
    field, one_m = ring.field, ring._one_mono
    if len(columns) != rank:
        return None
    cols = [dict(v) for v in columns]
    inv = [{(k, one_m): field.one} for k in range(rank)]
    for a in range(rank):
        p = next((c for c in range(a, rank)
                  if [t for t in cols[c] if t[0] == a] == [(a, one_m)]), None)
        if p is None:
            return None
        cols[a], cols[p], inv[a], inv[p] = cols[p], cols[a], inv[p], inv[a]
        pivot = cols[a][(a, one_m)]
        if pivot != field.one:
            scale = field.inv(pivot)
            cols[a], inv[a] = (vec_axpy({}, scale, one_m, v, field) for v in (cols[a], inv[a]))
        for c in range(rank):
            if c == a:
                continue
            for m, coeff in [(m, x) for (comp, m), x in cols[c].items() if comp == a]:
                vec_axpy(cols[c], field.neg(coeff), m, cols[a], field)
                vec_axpy(inv[c], field.neg(coeff), m, inv[a], field)
    return inv
