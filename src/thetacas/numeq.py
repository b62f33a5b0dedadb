"""Gram matrices of the theta pairing, exact inertia, kernel bases, and the
even-vanishing / semidefiniteness report harness."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple

from .errors import AsymmetricGram
from .homology import ModulePresentation
from .pairings import ClassExpression, theta_class
from .ring import RingLike


def gram_matrix(
    classes: Sequence[ClassExpression],
    registry: Dict[str, ModulePresentation],
    audit: bool = False,
) -> List[List[int]]:
    """Exact symmetric matrix of theta pairings on the given classes.

    theta is symmetric on an isolated hypersurface singularity, so only the
    entries (i, j) with j >= i are computed, row by row, and each is copied
    to (j, i).  With audit=True every entry below the diagonal is computed
    as well and AsymmetricGram is raised where it differs from its mirror."""
    n = len(classes)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = theta_class(classes[i], classes[j], registry)
    if audit:
        for i in range(n):
            for j in range(i):
                value = theta_class(classes[i], classes[j], registry)
                if value != matrix[j][i]:
                    raise AsymmetricGram(
                        f"theta pairing matrix is not symmetric at ({i}, {j}): "
                        f"{value} != {matrix[j][i]}"
                    )
    return matrix


def signature(matrix: Sequence[Sequence]) -> Tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) by exact symmetric elimination.

    When every active diagonal entry is 0 and S[i][j] is not, adding row and
    column j to row and column i, a congruence, makes S[i][i] = 2 S[i][j] a
    pivot; Sylvester's law of inertia keeps the inertia."""
    n = len(matrix)
    S = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
    if any(S[i][j] != S[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix is not symmetric")
    active = list(range(n))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if S[i][i]), None)
        if pivot is None:
            pivot, j = next(((i, j) for i in active for j in active if S[i][j]), (None, None))
            if pivot is None:
                break
            for k in active:
                S[pivot][k] += S[j][k]
            for k in active:
                S[k][pivot] += S[k][j]
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
    return pos, neg, len(active)


def kernel_basis(matrix: Sequence[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Basis of the rational null space, cleared to coprime integer vectors
    with positive leading entry, in echelon order."""
    n = len(matrix)
    if n == 0:
        return []
    rows = [[Fraction(v) for v in row] for row in matrix]
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    free_cols = [c for c in range(n) if c not in pivots]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][free]
        denom = 1
        for v in vec:
            denom = denom * v.denominator // gcd(denom, v.denominator)
        ints = [int(v * denom) for v in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g:
            ints = [v // g for v in ints]
        lead = next((v for v in ints if v), 0)
        if lead < 0:
            ints = [-v for v in ints]
        basis.append(tuple(ints))
    return basis


@dataclass
class GramReport:
    """Gram matrix of theta on named classes with verdict data."""

    names: Tuple[str, ...]
    matrix: List[List[int]]
    signature: Tuple[int, int, int]
    adjusted_sign: int
    adjusted_signature: Tuple[int, int, int]
    kernel: List[Tuple[int, ...]]
    dimension: int
    verdict: str
    detail: str


def conjecture_report(
    ring: RingLike,
    modules: Sequence[Tuple[str, ModulePresentation]],
    audit: bool = False,
) -> GramReport:
    """Even dimension: theta must vanish identically.  Odd dimension: the
    sign-adjusted Gram matrix must be positive semidefinite.  audit is
    passed to gram_matrix."""
    names = tuple(name for name, _m in modules)
    registry = {name: m for name, m in modules}
    classes = [ClassExpression.of(name) for name in names]
    matrix = gram_matrix(classes, registry, audit)
    sig = signature(matrix)
    d = ring.dimension
    if d % 2 == 0:
        sign = 1
        adjusted = sig
        ok = all(v == 0 for row in matrix for v in row)
        detail = "even dimension: all pairings must vanish"
    else:
        sign = (-1) ** ((d + 1) // 2)
        # the inertia of -Gram is the inertia of Gram with n_plus, n_minus swapped
        adjusted = sig if sign == 1 else (sig[1], sig[0], sig[2])
        ok = adjusted[1] == 0
        detail = (
            f"odd dimension: {'-' if sign < 0 else ''}Gram must be "
            "positive semidefinite"
        )
    return GramReport(
        names=names,
        matrix=matrix,
        signature=sig,
        adjusted_sign=sign,
        adjusted_signature=adjusted,
        kernel=kernel_basis(matrix),
        dimension=d,
        verdict="PASS" if ok else "FAIL",
        detail=detail,
    )
