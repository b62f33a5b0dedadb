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
from .ring import RingLike, ring_dimension


def gram_matrix(
    classes: Sequence[ClassExpression],
    registry: Dict[str, ModulePresentation],
) -> List[List[int]]:
    """Exact symmetric matrix of theta pairings on the given classes.

    Every entry is computed, both (i, j) and (j, i), so that the symmetry of
    theta is checked on each pair."""
    matrix = [[theta_class(a, b, registry) for b in classes] for a in classes]
    for i in range(len(matrix)):
        for j in range(i):
            if matrix[i][j] != matrix[j][i]:
                raise AsymmetricGram(
                    f"theta pairing matrix is not symmetric at ({i}, {j}): "
                    f"{matrix[i][j]} != {matrix[j][i]}"
                )
    return matrix


def signature(matrix: Sequence[Sequence]) -> Tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) by exact symmetric elimination.

    Zero diagonals with a nonzero off-diagonal entry are handled by the
    hyperbolic 2x2 block pivot, which contributes (1, 1) to the inertia."""
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
) -> GramReport:
    """Even dimension: theta must vanish identically.  Odd dimension: the
    sign-adjusted Gram matrix must be positive semidefinite."""
    names = tuple(name for name, _m in modules)
    registry = {name: m for name, m in modules}
    classes = [ClassExpression.of(name) for name in names]
    matrix = gram_matrix(classes, registry)
    sig = signature(matrix)
    d = ring_dimension(ring)
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
