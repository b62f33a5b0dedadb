"""Matrices over the ambient ring S, held as lists of packed column vectors
(see groebner), with FieldSpec.axpy as their one vector arithmetic: a
matrix applied to a vector, exact division by a polynomial, and the inverse
of a square matrix that is homogeneous of degree 0.  A matrix
factorization's beta is read off them, with no Groebner basis.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .errors import AlgebraError
from .ring import MAX_PACKED_DEGREE, PolynomialRing


def mat_vec(cols: Sequence[dict], v: dict, S: PolynomialRing) -> dict:
    """The matrix with the given packed columns applied to the packed vector
    v: the sum of c * x^m * cols[i] over the terms c * x^m * e_i of v.  A
    product of degree above MAX_PACKED_DEGREE raises AlgebraError: it wraps
    its degree field past the guard bit, as in normal_form_vec."""
    comp_shift, one, axpy = S._comp_shift, S._one, S.field.axpy
    out: dict = {}
    for t, c in v.items():
        i = t >> comp_shift
        axpy(out, c, t - (i << comp_shift) - one, cols[i])  # the quotient x^m
    if any(t & S._deg_guard for t in out):
        raise AlgebraError(f"a product of degree above {MAX_PACKED_DEGREE} arose")
    return out


def divide_exactly(v: dict, f: dict, ring: PolynomialRing) -> dict:
    """The packed vector q with f * q = v, for f a nonzero packed polynomial
    in component 0; AlgebraError when f does not divide v.  Each step
    removes the lead term of v - f * q, which f's lead term divides whenever
    f divides v."""
    field, guards, one = ring.field, ring._exp_guards, ring._one
    lead = min(f)
    lc = f[lead]
    lc_inv = 1 if lc == 1 else field.inv(lc)
    work, q = dict(v), {}
    while work:
        t = min(work)
        if (t - lead) & guards:
            raise AlgebraError(f"the divisor does not divide the term {ring._unpack(t)}")
        c = q[t - lead + one] = field.mul(work[t], lc_inv)
        field.axpy(work, -c, t - lead, f)
        if t in work:
            raise AlgebraError(f"a division step left the term {ring._unpack(t)} in place")
    return q


def graded_inverse(columns: Sequence[dict], rank: int,
                   ring: PolynomialRing) -> Optional[List[dict]]:
    """The packed columns of W^-1 for the rank x rank matrix W with the
    given packed columns, or None.  W is meant homogeneous of degree 0, so
    an entry with a constant term is a constant, and W is invertible exactly
    when its constant part is.  Column operations with constant pivots turn
    W into the identity, row by row, and the identity into W^-1; when no
    column left has a nonzero constant in the row, the constant part is
    singular."""
    field, comp_shift, axpy = ring.field, ring._comp_shift, ring.field.axpy
    if len(columns) != rank:
        return None
    cols = [dict(v) for v in columns]
    units = [(k << comp_shift) + ring._one for k in range(rank)]  # 1 * e_k
    inv = [{unit: 1} for unit in units]
    for a, unit in enumerate(units):
        p = next((c for c in range(a, rank)
                  if [t for t in cols[c] if t >> comp_shift == a] == [unit]), None)
        if p is None:
            return None
        cols[a], cols[p], inv[a], inv[p] = cols[p], cols[a], inv[p], inv[a]
        pivot = cols[a][unit]
        if pivot != 1:
            scale = field.inv(pivot)
            for vectors in (cols, inv):
                scaled: dict = {}
                axpy(scaled, scale, 0, vectors[a])
                vectors[a] = scaled
        for c in range(rank):
            if c == a:
                continue
            # t - unit is the packed quotient x^m of a term x^m e_a
            for t, coeff in [(t, x) for t, x in cols[c].items() if t >> comp_shift == a]:
                axpy(cols[c], -coeff, t - unit, cols[a])
                axpy(inv[c], -coeff, t - unit, inv[a])
    return inv
