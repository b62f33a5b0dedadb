"""Acceptance gate: the headline exact results, each timed and reported.

Every test prints one `criterion N ... PASS/FAIL` line (visible under
`pytest -s`); all values are exact integers, so the stated tolerances are
equalities plus a wall-clock budget."""

import time

import pytest

from thetacas import (
    FieldSpec,
    HypersurfaceRing,
    ModulePresentation,
    PolynomialRing,
    c1_torsion,
    chi_complex,
    conjecture_report,
    extract_matrix_factorization,
    gram_matrix,
    kernel_basis,
    koszul_complex,
    length,
    minimal_resolution,
    present_cyclic,
    signature,
    syzygy_of,
    theta,
    theta_class,
    ClassExpression,
)
from thetacas.groebner import (
    groebner_basis,
    hilbert_numerator,
    multiplicity,
)
from thetacas.homology import dual_module, ext_module, tor_length
from oracles import direct_sum, mat_mul, vec_from_polys


def report(number, description, budget, fn):
    start = time.monotonic()
    try:
        fn()
    except Exception:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {number} ({description}): PASS [{elapsed:.2f}s < {budget}s]")
    assert elapsed < budget


def fresh_node():
    S = PolynomialRing(FieldSpec(0), ["x", "y"])
    return HypersurfaceRing(S, S.parse("x*y"))


def fresh_a1():
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
    return HypersurfaceRing(S, S.parse("x*y - z^2"))


def fresh_quadric():
    S = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
    return HypersurfaceRing(S, S.parse("x*y - u*v"))


def test_criterion_1_node_table(node, node_modules):
    def check():
        Ax, Ay = node_modules["Ax"], node_modules["Ay"]
        assert theta(Ax, Ay) == 1 == length(node_modules["k"])
        assert theta(Ax, Ax) == -1
        G = gram_matrix([ClassExpression.of("Ax"), ClassExpression.of("Ay")], node_modules)
        assert G == [[-1, 1], [1, -1]]
        neg = [[-v for v in row] for row in G]
        n_pos, n_neg, _ = signature(neg)
        assert n_neg == 0  # -Gram positive semidefinite
        assert kernel_basis(G) == [(1, 1)]

    report(1, "node theta table and Gram kernel", 1.0, check)


def test_criterion_2_a1_even_vanishing(a1, a1_modules):
    def check():
        mods = dict(a1_modules)
        mods["W1"] = syzygy_of(a1_modules["Axz"], 1)
        for M in mods.values():
            for N in mods.values():
                assert theta(M, N) == 0

    report(2, "A1 surface even-dimension vanishing", 5.0, check)


def test_criterion_3_quadric_table(quadric, quadric_modules):
    def check():
        Ap, Aq = quadric_modules["Ap"], quadric_modules["Aq"]
        assert theta(Ap, Ap) == 1
        assert theta(Ap, Aq) == -1
        G = gram_matrix(
            [ClassExpression.of("Ap"), ClassExpression.of("Aq")], quadric_modules
        )
        n_pos, n_neg, _ = signature(G)
        assert n_neg == 0  # Gram positive semidefinite
        assert kernel_basis(G) == [(1, 1)]
        primes = [("p", ["x", "u"]), ("q", ["x", "v"])]
        assert c1_torsion(Ap, primes).items() == [("p", 1)]
        kernel_class = direct_sum(Ap, Aq)
        assert (
            c1_torsion(kernel_class, primes).items()
            == c1_torsion(quadric_modules["Ax"], primes).items()
            == [("p", 1), ("q", 1)]
        )

    report(3, "quadric theta table, PSD Gram, divisor classes", 30.0, check)


def test_criterion_4_matrix_factorizations(node, a1, quadric, node_modules, a1_modules, quadric_modules):
    golden = (
        [(f"node {n}", node, M) for n, M in node_modules.items()]
        + [(f"A1 {n}", a1, M) for n, M in a1_modules.items()]
        + [(f"quadric {n}", quadric, quadric_modules[n]) for n in ("Ap", "Aq")]
    )

    for label, ring, M in golden:
        def check(ring=ring, M=M):
            d = ring.dimension
            res = minimal_resolution(M, d + 3)
            b = res.betti
            assert all(b[i] == b[d + 1] for i in range(d + 1, len(b)))
            mf = extract_matrix_factorization(res)
            S = ring.ambient
            f = ring.f
            for prod in (mat_mul(mf.alpha, mf.beta, S), mat_mul(mf.beta, mf.alpha, S)):
                for r in range(mf.size):
                    for c in range(mf.size):
                        assert prod[r][c] == (f if r == c else S.zero())

        report(4, f"matrix factorization certificate, {label}", 10.0, check)


def test_criterion_5_property_suite(node, quadric, node_modules, quadric_modules):
    def check():
        node_corpus = list(node_modules.values())
        quad_corpus = [quadric_modules["Ap"], quadric_modules["Aq"]]
        # symmetry
        for corpus in (node_corpus, quad_corpus):
            for M in corpus:
                for N in corpus:
                    assert theta(M, N) == theta(N, M)
        # shift antisymmetry and direct sums
        for ring, corpus in ((node, node_corpus), (quadric, quad_corpus)):
            probe = corpus[-1]
            for M in corpus:
                assert theta(syzygy_of(M, 1), probe) == -theta(M, probe)
            assert theta(direct_sum(corpus[0], corpus[-1]), probe) == (
                theta(corpus[0], probe) + theta(corpus[-1], probe)
            )
            # freeness degeneracy
            free = ModulePresentation.free(ring)
            for M in corpus:
                assert theta(M, free) == 0
        # window periodicity
        for ring, M, N in (
            (node, node_modules["Ax"], node_modules["Ay"]),
            (quadric, quadric_modules["Ap"], quadric_modules["Aq"]),
        ):
            d = ring.dimension
            for i in range(d + 1, d + 6):
                assert tor_length(M, N, i) == tor_length(M, N, i + 2)
        # dimension vanishing on the quadric
        assert theta(
            present_cyclic(quadric, ["x", "u"]),
            present_cyclic(quadric, ["x", "u", "v"]),
        ) == 0
        # syzygy-dual probe identity, l <= 2
        corpora = [
            (node_corpus[:2], node_modules["Ay"]),
            ([quadric_modules["Ap"]], quadric_modules["Aq"]),
        ]
        for corpus, T in corpora:
            for N in corpus:
                for l in range(3):
                    lhs = (-1) ** l * theta(dual_module(syzygy_of(N, l)), T)
                    rhs = sum(
                        (-1) ** i * theta(ext_module(N, i), T) for i in range(l + 1)
                    )
                    assert lhs == rhs

    report(5, "exact pairing property suite", 60.0, check)


def test_criterion_6_kernel_and_chi(S2, node_modules, quadric_modules):
    def check():
        for registry, names in (
            (node_modules, ["Ax", "Ay"]),
            (quadric_modules, ["Ap", "Aq"]),
        ):
            G = gram_matrix([ClassExpression.of(n) for n in names], registry)
            for v in kernel_basis(G):
                combo = ClassExpression.of(*zip(names, v))
                for probe in names:
                    assert theta_class(combo, ClassExpression.of(probe), registry) == 0
        K = koszul_complex(S2, ["x", "y"])
        registry = {"Sx": ModulePresentation.cyclic(S2, ["x"])}
        assert chi_complex(K, ClassExpression.of("Sx"), registry) == 0

    report(6, "Gram-kernel orthogonality and chi vanishing", 10.0, check)


def test_criterion_7_length_hilbert_units(S2):
    def check():
        assert length(ModulePresentation.cyclic(S2, ["x^2", "x*y", "y^3"])) == 4

    report(7, "unit length l(S/(x^2,xy,y^3)) = 4", 1.0, check)

    def check_mult():
        S4 = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
        G = groebner_basis([vec_from_polys([S4.parse("x*y - u*v")])], S4, 1)
        assert multiplicity(G) == 2

    report(7, "unit multiplicity e(quadric) = 2", 1.0, check_mult)

    def check_hilbert():
        G = groebner_basis([vec_from_polys([S2.parse("x*y")])], S2, 1)
        assert hilbert_numerator(G) == {0: 1, 2: -1}

    report(7, "unit Hilbert numerator of (xy) = 1 - t^2", 1.0, check_hilbert)
