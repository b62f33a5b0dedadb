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
    present_cyclic,
    signature,
    theta,
    theta_class,
)
from thetacas.groebner import _tpoly_div_1mt, multiplicity
from thetacas.homology import module_dimension, module_series


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


# ---------------------------------------------------------------------------
# theta as an intersection form on a smooth surface (dimension 3)
#
# For A = k[x,y,z,w]/(f), f of degree e with X = Proj A a smooth surface in
# P^3, and curves C, D on X: theta(A/I_C, A/I_D) = deg C deg D - e (C.D)_X
# (Moore, Piepmeyer, Spiroff and Walker, Adv. Math. 2011).  The source
# paper's positive semidefiniteness in dimension 3 is then the Hodge index
# theorem on primitive classes.  The intersection numbers below use no theta.


def fermat_cubic(characteristic=0):
    S = PolynomialRing(FieldSpec(characteristic), ["x", "y", "z", "w"])
    return HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3"))


def degree_and_genus(A, ideal):
    """(deg C, p_a(C)) off the Hilbert polynomial deg C * t + 1 - p_a of
    A/I_C: its numerator over (1 - t)^4 is h(t) (1 - t)^2, and then
    deg C = h(1) and 1 - p_a = h(1) - h'(1)."""
    h = module_series(present_cyclic(A, ideal))
    for _ in range(2):
        h = _tpoly_div_1mt(h)
    deg = sum(h.values())
    return deg, 1 - deg + sum(d * c for d, c in h.items())


def intersection_number(A, first, second):
    """(C.D)_X: by adjunction, C^2 = 2 p_a - 2 - (e - 4) deg C; for curves
    with no common component, the multiplicity of A/(I_C + I_D) when it has
    dimension 1, and 0 when they do not meet."""
    if first == second:
        deg, genus = degree_and_genus(A, first)
        return 2 * genus - 2 - (A.f.weighted_degree() - 4) * deg
    meet = present_cyclic(A, first + second)
    return multiplicity(meet.presentation_gb()) if module_dimension(meet) == 1 else 0


def intersection_theta(A, first, second):
    """deg C deg D - e (C.D)_X."""
    (deg_c, _), (deg_d, _) = degree_and_genus(A, first), degree_and_genus(A, second)
    return deg_c * deg_d - A.f.weighted_degree() * intersection_number(A, first, second)


def test_theta_is_the_intersection_form_on_a_smooth_surface(quadric):
    """On the quadric (P^1 x P^1) the lines x = u = 0, x = v = 0, y = v = 0,
    and on the Fermat cubic surface the lines L1 = (x+y, z+w), L2 =
    (x+z, y+w) and the conic Q = (x+y, z^2 - zw + w^2): theta equals
    deg C deg D - e (C.D)_X on every pair."""
    cubic = fermat_cubic()
    line, other, disjoint = ["x", "u"], ["x", "v"], ["y", "v"]
    L1, L2, Q = ["x + y", "z + w"], ["x + z", "y + w"], ["x + y", "z^2 - z*w + w^2"]
    cases = [(quadric, line, other, -1), (quadric, line, disjoint, 1), (quadric, line, line, 1),
             (cubic, L1, L1, 4), (cubic, L1, L2, -2), (cubic, Q, Q, 4), (cubic, Q, L1, -4),
             (cubic, Q, L2, 2)]
    for A, first, second, value in cases:
        assert intersection_theta(A, first, second) == value
        assert theta(present_cyclic(A, first), present_cyclic(A, second)) == value


def test_the_27_lines_of_the_fermat_cubic_surface():
    """Over F_7 every line x_a + r x_b = x_c + r' x_d = 0 (r^3 = r'^3 = 1) of
    the Fermat cubic surface is defined.  Each line meets 10 others, L^2 = -1,
    and the theta Gram of the 27 is 1 - 3 L_i.L_j, of signature (6, 0, 21):
    the E6 lattice of primitive classes, positive semidefinite."""
    A = fermat_cubic(7)
    roots = [r for r in range(1, 7) if pow(r, 3, 7) == 1]
    lines = [[f"{a} + {r}*{b}", f"{c} + {s}*{d}"]
             for (a, b), (c, d) in ((("x", "y"), ("z", "w")), (("x", "z"), ("y", "w")),
                                    (("x", "w"), ("y", "z")))
             for r in roots for s in roots]
    assert len(lines) == 27
    incidence = [[intersection_number(A, first, second) for second in lines] for first in lines]
    assert all(row[i] == -1 and row.count(1) == 10 and row.count(0) == 16
               for i, row in enumerate(incidence))
    registry = {str(i): present_cyclic(A, line) for i, line in enumerate(lines)}
    G = gram_matrix(classes_of(list(registry)), registry)
    assert G == [[1 - 3 * n for n in row] for row in incidence]
    assert signature(G) == (6, 0, 21)
