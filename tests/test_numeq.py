"""Gram matrices, exact inertia, kernel bases, and the verdict harness."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacas import (
    ClassExpression,
    FieldSpec,
    HypersurfaceRing,
    ModulePresentation,
    PolynomialRing,
    conjecture_report,
    gram_matrix,
    kernel_basis,
    signature,
    theta_class,
)


def classes_of(names):
    return [ClassExpression.of(n) for n in names]


# ---------------------------------------------------------------------------
# gram matrices


def test_gram_node(node_modules):
    G = gram_matrix(classes_of(["Ax", "Ay"]), node_modules)
    assert G == [[-1, 1], [1, -1]]


def test_gram_quadric(quadric_modules):
    G = gram_matrix(classes_of(["Ap", "Aq"]), quadric_modules)
    assert G == [[1, -1], [-1, 1]]


def test_gram_free_class(node):
    registry = {"A": ModulePresentation.free(node)}
    assert gram_matrix(classes_of(["A"]), registry) == [[0]]


def test_gram_cold_cache_deterministic(quadric_modules):
    """Fresh rings and modules (cold caches) give the Gram matrix of the
    shared, warm fixture modules."""
    cls = classes_of(["Ap", "Aq", "Ax"])
    warm = gram_matrix(cls, quadric_modules)
    for _ in range(2):
        S = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
        ring = HypersurfaceRing(S, S.parse("x*y - u*v"))
        cold = {
            "Ap": ModulePresentation.cyclic(ring, ["x", "u"]),
            "Aq": ModulePresentation.cyclic(ring, ["x", "v"]),
            "Ax": ModulePresentation.cyclic(ring, ["x"]),
        }
        assert gram_matrix(cls, cold) == warm


# ---------------------------------------------------------------------------
# signatures


def test_signature_examples():
    assert signature([[-1, 1], [1, -1]]) == (0, 1, 1)
    assert signature([[1, 0], [0, 1]]) == (2, 0, 0)
    assert signature([[0] * 4 for _ in range(4)]) == (0, 0, 4)
    assert signature([[0, 1], [1, 0]]) == (1, 1, 0)
    assert signature([]) == (0, 0, 0)


def test_signature_rejects_asymmetric():
    with pytest.raises(ValueError):
        signature([[0, 1], [2, 0]])


symm_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def symmetric_matrices(draw, n):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = draw(symm_entries)
    return m


def random_unimodular(n, rng):
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            P[i][k] += c * P[j][k]
    return P


@given(data=st.data(), seed=st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_signature_congruence_invariance(data, seed):
    n = data.draw(st.integers(1, 4))
    S = data.draw(symmetric_matrices(n))
    P = random_unimodular(n, random.Random(seed))
    PtSP = [
        [
            sum(P[a][i] * S[a][b] * P[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert signature(PtSP) == signature(S)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_signature_of_the_negated_matrix_is_swapped(data):
    """conjecture_report reads the inertia of -Gram off the Gram's."""
    n = data.draw(st.integers(0, 4))
    S = data.draw(symmetric_matrices(n))
    n_plus, n_minus, n_zero = signature(S)
    assert signature([[-v for v in row] for row in S]) == (n_minus, n_plus, n_zero)


# ---------------------------------------------------------------------------
# kernels


def test_kernel_basis_examples():
    assert kernel_basis([[-1, 1], [1, -1]]) == [(1, 1)]
    assert kernel_basis([[1, -1], [-1, 1]]) == [(1, 1)]
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert kernel_basis([[0, 0], [0, 0]]) == [(1, 0), (0, 1)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(data):
    n = data.draw(st.integers(1, 4))
    S = data.draw(symmetric_matrices(n))
    for v in kernel_basis(S):
        assert all(sum(S[i][j] * v[j] for j in range(n)) == 0 for i in range(n))
        g = 0
        for entry in v:
            g = gcd(g, abs(entry))
        assert g == 1
        lead = next(entry for entry in v if entry)
        assert lead > 0


# ---------------------------------------------------------------------------
# verdict harness


def test_report_node(node, node_modules):
    rep = conjecture_report(node, [("Ax", node_modules["Ax"]), ("Ay", node_modules["Ay"])])
    assert rep.verdict == "PASS"
    assert rep.adjusted_sign == -1
    assert rep.adjusted_signature[1] == 0
    assert rep.kernel == [(1, 1)]


def test_report_a1_single_module(a1, a1_modules):
    rep = conjecture_report(a1, [("Axz", a1_modules["Axz"])])
    assert rep.verdict == "PASS"
    assert rep.matrix == [[0]]


def test_report_quadric(quadric, quadric_modules):
    rep = conjecture_report(
        quadric, [("Ap", quadric_modules["Ap"]), ("Aq", quadric_modules["Aq"])]
    )
    assert rep.verdict == "PASS"
    assert rep.adjusted_sign == 1
    assert rep.signature == (1, 0, 1)
    assert rep.kernel == [(1, 1)]


def test_report_order_independence(quadric, quadric_modules):
    mods = [("Ap", quadric_modules["Ap"]), ("Aq", quadric_modules["Aq"])]
    a = conjecture_report(quadric, mods)
    b = conjecture_report(quadric, list(reversed(mods)))
    assert a.verdict == b.verdict
    assert a.signature == b.signature
    n = len(mods)
    perm = [1, 0]
    assert all(
        a.matrix[i][j] == b.matrix[perm[i]][perm[j]] for i in range(n) for j in range(n)
    )


def test_kernel_classes_are_theta_orthogonal(quadric_modules, node_modules):
    for registry, names in (
        (node_modules, ["Ax", "Ay"]),
        (quadric_modules, ["Ap", "Aq"]),
    ):
        cls = classes_of(names)
        G = gram_matrix(cls, registry)
        for v in kernel_basis(G):
            combo = ClassExpression.of(*[(n, c) for n, c in zip(names, v)])
            for probe in names:
                assert theta_class(combo, ClassExpression.of(probe), registry) == 0


def test_quadric_kernel_is_the_expected_lattice(quadric_modules):
    """The null directions are exactly the multiples of [Ap] + [Aq]."""
    G = gram_matrix(classes_of(["Ap", "Aq"]), quadric_modules)
    assert kernel_basis(G) == [(1, 1)]
