"""Presentations, minimal resolutions, matrix factorizations, Tor and Ext."""

import gc
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thetacas import (
    INFINITE,
    FieldSpec,
    HypersurfaceRing,
    ModulePresentation,
    PolynomialRing,
    Resolution,
    dual_module,
    ext_module,
    extract_matrix_factorization,
    minimal_resolution,
    present_cyclic,
    syzygy_of,
    theta,
    tor_length,
)
from thetacas import homology
from thetacas.cli import build_environment, run_session
from thetacas.errors import InfiniteLength, NotStabilized
from thetacas.groebner import NakayamaSelection, freeze_vec, normal_form, syzygy_basis
from thetacas.homology import (
    _transpose,
    _vector_degree,
    columns_as_vectors,
    f_times_unit_vectors,
    lifted_basis,
    module_length,
    reduce_mod_f,
    reduce_vec_mod_f,
    syzygies_over,
)
from oracles import (
    complex_homology,
    direct_sum,
    full_basis_syzygies,
    homology_tor_length,
    mat_mul,
    reduce_with_representation,
    tag_lead_part,
    tagged_syzygies,
    tensored_homology,
    vec_from_polys,
)
from test_golden_reports import NAMES, WEIGHTED_NAMES, _rescaled, seeded_sessions, session_path


def same_span(ring, cols_a, cols_b, rank):
    """Equality of submodules of R^rank given by two sets of column vectors."""
    ga = lifted_basis(ring, cols_a, rank)
    gb = lifted_basis(ring, cols_b, rank)
    return all(not normal_form(v, gb) for v in cols_a) and all(
        not normal_form(v, ga) for v in cols_b
    )


def cusp_line():
    """A = k[x]/(x^2), dimension zero."""
    S = PolynomialRing(FieldSpec(0), ["x"])
    return HypersurfaceRing(S, S.parse("x^2"))


# ---------------------------------------------------------------------------
# presentations


def test_present_cyclic_shapes(quadric):
    M = present_cyclic(quadric, ["x", "u"])
    assert M.nrows == 1
    assert len(M.rows[0]) == 2

    free = present_cyclic(quadric, [])
    assert free.nrows == 1 and not free.columns()

    zero = present_cyclic(quadric, ["1"])
    assert zero.is_zero()


def test_presentation_rejects_inhomogeneous_columns(node):
    from thetacas.errors import InhomogeneousError

    with pytest.raises(InhomogeneousError):
        ModulePresentation(node, [["x + y^2"]])


def test_degree_inference_consistency(quadric):
    M = ModulePresentation(quadric, [["u", "y"], ["-x", "-v"]])
    d0, d1 = M.gen_degrees
    assert d1 - d0 == 0  # both columns homogeneous of the same internal shift


# ---------------------------------------------------------------------------
# minimal resolutions


def test_resolution_of_residue_field_over_cusp_line():
    A = cusp_line()
    k = present_cyclic(A, ["x"])
    res = minimal_resolution(k, 5)
    assert res.betti == [1, 1, 1, 1, 1, 1]
    x = A.ambient.parse("x")
    for i in range(1, 6):
        assert res.matrix(i) == ((x,),)


def test_resolution_of_quadric_plane(quadric, quadric_modules):
    res = minimal_resolution(quadric_modules["Ap"], 6)
    assert res.betti == [1, 2, 2, 2, 2, 2, 2]
    S = quadric.ambient
    expected = [["u", "y"], ["-x", "-v"]]
    expected_cols = columns_as_vectors(
        tuple(tuple(S.parse(e) for e in row) for row in expected)
    )
    assert same_span(quadric, res.differential_columns(2), expected_cols, 2)


def test_resolution_of_free_module(quadric):
    res = minimal_resolution(ModulePresentation.free(quadric, 3), 3)
    assert res.betti == [3, 0, 0, 0]
    assert Resolution(ModulePresentation.free(quadric, 3), 0).betti == [3]


def test_resolution_minimality_and_complex_property(node, quadric, node_modules, quadric_modules):
    for ring, M in [
        (node, node_modules["Ax"]),
        (node, node_modules["k"]),
        (quadric, quadric_modules["Ap"]),
    ]:
        S = ring.ambient
        res = minimal_resolution(M, 5)
        for i in range(1, 6):
            for row in res.matrix(i):
                for entry in row:
                    assert entry.constant_coeff() == S.field.zero
        for i in range(1, 5):
            prod = mat_mul(res.matrix(i), res.matrix(i + 1), S)
            for row in prod:
                for entry in row:
                    assert reduce_mod_f(entry, ring).is_zero()


def test_exactness_audit_against_free_module(node, node_modules):
    """Tensoring a resolution with the ring itself has no higher homology."""
    res = minimal_resolution(node_modules["Ax"], 4)
    R_free = ModulePresentation.free(node)
    for i in range(1, 4):
        assert tensored_homology(res, R_free, i).is_zero()
        assert tor_length(node_modules["Ax"], R_free, i) == 0


def test_stable_start(node_modules, quadric_modules):
    res = minimal_resolution(node_modules["Ax"], 4)
    assert res.stable and res.stable_start == 1
    res_q = minimal_resolution(quadric_modules["Ap"], 6)
    assert res_q.stable and res_q.stable_start == 2


# ---------------------------------------------------------------------------
# matrix factorizations


def assert_mf_identity(ring, mf):
    S = ring.ambient
    f = ring.f
    for prod in (mat_mul(mf.alpha, mf.beta, S), mat_mul(mf.beta, mf.alpha, S)):
        for r in range(mf.size):
            for c in range(mf.size):
                assert prod[r][c] == (f if r == c else S.zero())


def test_mf_of_quadric_plane(quadric, quadric_modules):
    res = minimal_resolution(quadric_modules["Ap"], 6)
    mf = extract_matrix_factorization(res)
    as_strings = [[str(e) for e in row] for row in mf.alpha]
    assert as_strings == [["u", "y"], ["-x", "-v"]]
    beta_strings = [[str(e) for e in row] for row in mf.beta]
    assert beta_strings == [["-v", "-y"], ["x", "u"]]
    assert_mf_identity(quadric, mf)


def test_mf_of_residue_field_over_cusp_line():
    A = cusp_line()
    res = minimal_resolution(present_cyclic(A, ["x"]), 3)
    mf = extract_matrix_factorization(res)
    assert [[str(e) for e in row] for row in mf.alpha] == [["x"]]
    assert [[str(e) for e in row] for row in mf.beta] == [["x"]]


def test_mf_over_node(node, node_modules):
    res = minimal_resolution(node_modules["Ax"], 4)
    mf = extract_matrix_factorization(res)
    pair = {str(mf.alpha[0][0]), str(mf.beta[0][0])}
    assert pair == {"x", "y"}
    assert_mf_identity(node, mf)


def test_mf_of_free_module_is_empty(quadric):
    free = ModulePresentation.free(quadric)
    res = minimal_resolution(free, quadric.dimension + 3)
    mf = extract_matrix_factorization(res)
    assert mf.size == 0


def test_projective_dimension_d_is_stable(node):
    """A/(x+y) over the node has pd 1 = d: the zero tail starts at F_2, so
    stable_start is d + 2 and the factorization is empty."""
    M = present_cyclic(node, ["x + y"])
    res = minimal_resolution(M, node.dimension + 3)
    assert res.betti == [1, 1, 0, 0, 0]
    assert res.stable_start == 3
    mf = extract_matrix_factorization(res)
    assert mf.size == 0 and mf.source_index == 3
    assert theta(M, present_cyclic(node, ["x"])) == 0


@pytest.mark.parametrize(
    "variables, f, characteristic, weights, generators, size",
    [
        (["x", "y", "u", "v"], "x*u + y*v", 0, None, ["x", "y"], 2),
        (["x", "y", "z"], "x^2 + y^3 + y*z^3", 32003, [9, 6, 4], ["x", "y"], 2),
        (["x", "y", "z", "w"], "x^3 + y^3 + z^3 + w^3", 0, None,
         ["x", "y", "z", "w"], 8),
    ],
    ids=["quadric_xy", "e7_xy", "cubic_threefold_k"],
)
def test_constant_betti_tail_yields_verified_mf(
    variables, f, characteristic, weights, generators, size
):
    """Stability is read off the Betti numbers alone; the MF identity, checked
    when the factorization is built, certifies the periodic tail."""
    S = PolynomialRing(FieldSpec(characteristic), variables, weights)
    A = HypersurfaceRing(S, S.parse(f))
    res = minimal_resolution(present_cyclic(A, generators), A.dimension + 3)
    assert res.stable
    assert all(b == size for b in res.betti[res.stable_start:])
    mf = extract_matrix_factorization(res)
    assert mf.size == size
    assert_mf_identity(A, mf)


def test_mf_identity_is_verified_on_construction(node):
    from thetacas.homology import MatrixFactorization

    S = node.ambient
    with pytest.raises(NotStabilized):
        MatrixFactorization(node, ((S.parse("x"),),), ((S.parse("x"),),), 2)


def test_mf_of_non_square_matrices_is_rejected(quadric):
    """alpha = (x u) and beta = (y -v)^T give alpha*beta = xy - uv = f, yet
    beta*alpha is not f*I: a one-product check must also ask for square
    matrices of one size."""
    from thetacas.homology import MatrixFactorization

    x, y, u, v = (quadric.ambient.parse(s) for s in ("x", "y", "u", "v"))
    with pytest.raises(NotStabilized):
        MatrixFactorization(quadric, ((x, u),), ((y,), (-v,)), 1)
    with pytest.raises(NotStabilized):
        MatrixFactorization(quadric, ((y,), (-v,)), ((x, u),), 1)


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_mf_with_one_beta_entry_changed_is_rejected(data, node_modules, a1_modules,
                                                    quadric_modules):
    """Adding a nonzero delta to beta[r][c] adds delta * (column r of alpha)
    to column c of alpha*beta; that column of a minimal alpha is nonzero."""
    from thetacas.homology import MatrixFactorization

    M = data.draw(st.sampled_from([node_modules["Ax"], node_modules["k"],
                                   a1_modules["Axz"], quadric_modules["Ap"]]))
    mf = extract_matrix_factorization(minimal_resolution(M, M.ring.dimension + 3))
    r = data.draw(st.integers(0, mf.size - 1))
    c = data.draw(st.integers(0, mf.size - 1))
    S = M.ring.ambient
    entry = mf.beta[r][c]
    # "zero" clears the entry; on a zero entry it adds 1 instead
    change = data.draw(st.sampled_from(["zero", "1", "x", "-y", "x*y"]))
    if change == "zero":
        changed = S.zero() if not entry.is_zero() else S.parse("1")
    else:
        changed = entry + S.parse(change)
    beta = tuple(
        tuple(changed if (i, j) == (r, c) else e for j, e in enumerate(row))
        for i, row in enumerate(mf.beta)
    )
    with pytest.raises(NotStabilized):
        MatrixFactorization(M.ring, mf.alpha, beta, mf.source_index)


def test_mf_moves_past_a_singular_w():
    """A/(x^2) over the node xy resolves as x^2, y, x, y, ...: its Betti
    numbers are constant from F_0, but d_1 d_2 / f = x is singular, so the
    factorization is read at j = 2, alpha = y and beta = x, with no
    Groebner or syzygy basis built."""
    S = PolynomialRing(FieldSpec(0), ["x", "y"])
    A = HypersurfaceRing(S, S.parse("x*y"))
    res = minimal_resolution(present_cyclic(A, ["x^2"]), A.dimension + 3)
    assert res.stable_start == 1
    with pytest.MonkeyPatch.context() as patch:
        for name in ("syzygy_basis", "groebner_basis"):
            patch.setattr(homology, name, None)
        mf = extract_matrix_factorization(res)
    assert mf.source_index == 2
    assert (str(mf.alpha[0][0]), str(mf.beta[0][0])) == ("y", "x")


def test_mf_names_the_last_differential_when_every_w_is_singular(monkeypatch, node):
    """When every W is singular, the resolution is extended one step past
    its length, to read W at j = L, and NotStabilized names d_L."""
    M = present_cyclic(node, ["x"])
    res = minimal_resolution(M, node.dimension + 3)
    monkeypatch.setattr(homology, "graded_inverse", lambda *args: None)
    with pytest.raises(NotStabilized, match=f"d_{res.length} "):
        extract_matrix_factorization(res)
    assert len(M._res_diffs) == res.length + 1


@pytest.mark.parametrize("seed", [0, 3])
def test_mf_source_index_lies_in_the_constant_betti_tail(seed):
    """The first square d_j with W = d_j d_(j+1) / f invertible is read off a
    resolution grown to j + 1 only; on every module of the seven golden
    sessions, as written and under the graded coordinate change of seed 3,
    the Betti numbers of the length-(d + 3) resolution are constant from
    b_(j-1) on and stable_start <= j <= d + 2."""
    modules = 0
    for name, doc in seeded_sessions(seed).items():
        env, errors = build_environment(doc)
        assert not errors, name
        d = env.ring.dimension
        for M in env.modules.values():
            s = extract_matrix_factorization(minimal_resolution(M, 1)).source_index
            assert len(M._res_diffs) == s + 1, name
            res = minimal_resolution(M, d + 3)
            assert res.stable_start <= s <= d + 2, name
            assert len(set(res.betti[s - 1:])) == 1, name
            modules += 1
    assert modules == 16


def test_mf_coker_matches_high_syzygy(quadric, quadric_modules):
    """coker(alpha mod f) pairs like the recorded syzygy of the source module."""
    M = quadric_modules["Ap"]
    N = quadric_modules["Aq"]
    mf = extract_matrix_factorization(minimal_resolution(M, 6))
    rows = tuple(tuple(str(e) for e in row) for row in mf.alpha)
    C = ModulePresentation(quadric, rows)
    shift = mf.source_index - 1
    d = quadric.dimension
    for i in (d + 1, d + 2):
        assert tor_length(C, N, i) == tor_length(M, N, i + shift)


# ---------------------------------------------------------------------------
# syzygies, duals, Ext


def _syzygy_inputs(node, quadric, S2):
    """(ring, vectors, rank) for the differentials d_1, d_2, d_3 of
    resolutions over the node, the quadric, the weighted E7 surface over
    F_32003 and k[x, y], and for the rows of d_2 as Ext uses them."""
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z"], [9, 6, 4])
    e7 = HypersurfaceRing(S, S.parse("x^2 + y^3 + y*z^3"))
    mods = [present_cyclic(node, ["x", "y"]), present_cyclic(quadric, ["x", "u"]),
            present_cyclic(quadric, ["x", "u", "x + u"]), present_cyclic(e7, ["x", "y", "z"]),
            present_cyclic(S2, ["x^2", "x*y", "y^2"])]
    for M in mods:
        res = minimal_resolution(M, 3)
        for i in (1, 2, 3):
            yield M.ring, res.differential_columns(i), res.betti[i - 1]
        yield M.ring, _transpose(res.differential_columns(2), res.betti[1]), res.betti[2]


def test_syzygies_match_the_tagged_route(node, quadric, S2):
    """syzygies_over takes f * e_j as untagged relations; the tagged route
    (reduced modulo f, deduplicated) spans the same submodule over R: for
    the differentials of resolutions over the node, the quadric, the
    weighted E7 surface over F_32003 and k[x, y], and for the rows of d_2 as
    Ext uses them."""
    for ring, vectors, rank in _syzygy_inputs(node, quadric, S2):
        assert same_span(ring, syzygies_over(ring, vectors, rank),
                         tagged_syzygies(ring, vectors, rank), len(vectors))


def fp_cubic_fourfold():
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z", "w", "u"])
    return HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3 + u^3"))


def fp_e8_threefold():
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z", "w"], [15, 10, 6, 15])
    return HypersurfaceRing(S, S.parse("x^2 + y^3 + z^5 + w^2"))


def test_syzygies_match_the_full_basis_route(node, quadric, S2):
    """syzygies_over minimalizes and interreduces only the tag-lead part of
    the augmented basis; the full reduced basis, filtered to its tag-lead
    vectors without those whose lead is lead(f) * eps_c, gives the same list
    in the same order: on the inputs of the tagged-route test (k[x, y] has no f)
    and on the first 5 differentials of k over the cubic fourfold and the
    weighted E8 threefold over F_32003."""
    inputs = list(_syzygy_inputs(node, quadric, S2))
    for A in (fp_cubic_fourfold(), fp_e8_threefold()):
        res = minimal_resolution(present_cyclic(A, A.variables), 5)
        inputs += [(A, res.differential_columns(i), res.betti[i - 1]) for i in range(1, 6)]
    for ring, vectors, rank in inputs:
        assert syzygies_over(ring, vectors, rank) == full_basis_syzygies(ring, vectors, rank)


def _session_calls(monkeypatch, doc, resolve=False):
    """Over one run of the session: every syzygy list read over R off a
    syzygy basis, as (ring, basis, syzygies); every syzygy basis a
    resolution step read off the builder its selection left open, as
    (selection, basis); and every matrix factorization made.  With resolve,
    every module of a fresh environment of the session is then also
    resolved to length d + 3 under the same recording."""
    calls, opened, made = [], [], []
    real_kept, real_open = homology._kept_syzygies, NakayamaSelection.syzygies

    def recording(ring, basis):
        out = real_kept(ring, basis)
        calls.append((ring, basis, out))
        return out

    def reading(selection):
        basis = real_open(selection)
        opened.append((selection, basis))
        return basis

    class Recording(homology.MatrixFactorization):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_kept_syzygies", recording)
        patch.setattr(NakayamaSelection, "syzygies", reading)
        patch.setattr(homology, "MatrixFactorization", Recording)
        _report, code = run_session(doc)
        if resolve:
            env, _errors = build_environment(doc)
            for M in env.modules.values():
                minimal_resolution(M, env.ring.dimension + 3)
    assert code == 0
    return calls, opened, made


def test_session_syzygies_are_reduced_and_span_what_the_basis_spans(monkeypatch):
    """Over every resolution of the seven golden sessions, each syzygy
    kept off a syzygy basis is reduced modulo f, none repeats, and each
    basis element dropped (lead lead(f) * eps_c) lies in the lift of the
    kept ones: the kept list generates the syzygy module over R with no
    normal form modulo f."""
    dropped = 0
    for name in NAMES + WEIGHTED_NAMES:
        calls, _opened, _made = _session_calls(monkeypatch,
                                               json.loads(session_path(name).read_text()))
        assert calls
        for ring, basis, kept in calls:
            assert all(reduce_vec_mod_f(v, ring) == v for v in kept)
            assert len({freeze_vec(v) for v in kept}) == len(kept)
            lift = lifted_basis(ring, kept, basis.rank)
            for v in map(dict, basis.vectors):
                if v not in kept:
                    dropped += 1
                    assert not normal_form(v, lift)
    assert dropped


@pytest.mark.parametrize("seed", [0, 3])
def test_open_builder_syzygies_match_a_cold_basis(seed, monkeypatch):
    """For every resolution step of the seven golden sessions, as written
    and under the graded coordinate change of seed 3, and of their modules
    resolved to length d + 3, the syzygy basis of d_i read off the builder
    its selection left open (or its memo entry) equals
    syzygy_basis(d_i, S, b_(i-1), f * e_j) computed cold on a fresh ring."""
    steps = 0
    for name, doc in seeded_sessions(seed).items():
        _calls, opened, _made = _session_calls(monkeypatch, doc, resolve=True)
        assert opened, name
        for selection, basis in opened:
            S = selection.ring
            fresh = PolynomialRing(S.field, S.variables, S.weights)
            cold = syzygy_basis(selection.generators, fresh, selection.rank,
                                selection.relations)
            assert (basis.rank, basis.vectors) == (cold.rank, cold.vectors), name
            steps += 1
    assert steps > 50


@pytest.mark.parametrize("name", NAMES + WEIGHTED_NAMES)
@pytest.mark.parametrize("rescale", [False, True])
def test_session_betas_match_the_representation_route(name, rescale, monkeypatch):
    """Each beta read off the syzygy basis of f * I beside alpha is the beta
    of the division-with-representation oracle, f * e_k = sum_i beta_ik
    alpha_i, on the session as written and after x -> 2x (a lead coefficient
    of f that is not a unit)."""
    doc = json.loads(session_path(name).read_text())
    _calls, _opened, made = _session_calls(monkeypatch, _rescaled(doc, "x") if rescale else doc)
    assert made
    for mf in made:
        S, cols = mf.ring.ambient, columns_as_vectors(mf.alpha)
        for k, target in enumerate(f_times_unit_vectors(mf.ring, mf.size)):
            remainder, reps = reduce_with_representation(target, cols, S, mf.size)
            assert not remainder
            assert [row[k] for row in mf.beta] == reps


# lead coefficients of f: 1, 2 and 3 over Q, and 1 over F_32003 with weights
REDUCTION_RINGS = [
    (0, ["x", "y"], "x*y", None),
    (0, ["x", "y", "z"], "2*x*y - z^2", None),
    (0, ["x", "y", "z"], "3*z^2 - x*y", None),
    (32003, ["x", "y", "z"], "x^2 + y^3 + y*z^3", [9, 6, 4]),
]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_reduce_vec_mod_f_reduces_each_component(data):
    """One normal form of the whole vector equals reduce_mod_f of each
    component."""
    characteristic, variables, f, weights = data.draw(st.sampled_from(REDUCTION_RINGS))
    S = PolynomialRing(FieldSpec(characteristic), variables, weights)
    ring = HypersurfaceRing(S, S.parse(f))
    term = st.tuples(st.integers(-3, 3), st.lists(st.integers(0, 3), min_size=S.nvars,
                                                   max_size=S.nvars))
    polys = data.draw(st.lists(st.lists(term, max_size=4), min_size=1, max_size=3))
    entries = [S.parse(" + ".join(
        f"({c})*" + "*".join(f"{x}^{e}" for x, e in zip(S.variables, m)) for c, m in terms
    ) or "0") for terms in polys]
    expected = vec_from_polys([reduce_mod_f(p, ring) for p in entries])
    assert reduce_vec_mod_f(vec_from_polys(entries), ring) == expected


def test_syzygy_of_examples(node, node_modules):
    M = node_modules["Ax"]
    assert syzygy_of(M, 0) is M
    W = syzygy_of(M, 1)
    # Omega^1(A/(x)) is cyclic with relation column spanned by y
    P = W.minimal_presentation()
    assert P.nrows == 1
    y_col = columns_as_vectors(((node.ambient.parse("y"),),))
    assert same_span(node, P.columns(), y_col, 1)
    assert syzygy_of(ModulePresentation.free(node), 2).is_zero()


def test_dual_module_examples(node, quadric, node_modules, quadric_modules):
    A_dual = dual_module(ModulePresentation.free(node))
    P = A_dual.minimal_presentation()
    assert P.nrows == 1 and not P.columns()

    D = dual_module(node_modules["Ax"]).minimal_presentation()
    assert D.nrows == 1
    x_col = columns_as_vectors(((node.ambient.parse("x"),),))
    assert same_span(node, D.columns(), x_col, 1)

    assert dual_module(quadric_modules["Ap"]).is_zero()


def test_ext_module_examples(node, node_modules):
    E0 = ext_module(ModulePresentation.free(node), 0).minimal_presentation()
    assert E0.nrows == 1 and not E0.columns()

    assert ext_module(node_modules["Ax"], 1).is_zero()

    Ek = ext_module(node_modules["k"], 1)
    assert module_length(Ek) == 1


# ---------------------------------------------------------------------------
# homology of tensored complexes, Tor


def test_h0_of_selftensor_is_the_module(node, node_modules):
    M = node_modules["Ax"]
    res = minimal_resolution(M, 3)
    diff_cols = [res.differential_columns(i) for i in range(1, 4)]
    H0 = complex_homology(node, diff_cols, res.betti[:4], M, 0)
    P = H0.minimal_presentation()
    assert P.nrows == 1
    assert same_span(node, P.columns(), M.columns(), 1)


def test_koszul_resolution_is_exact_over_regular_ring(S2):
    k = ModulePresentation.cyclic(S2, ["x", "y"])
    res = minimal_resolution(k, 3)
    assert res.betti == [1, 2, 1, 0]
    assert tensored_homology(res, ModulePresentation.free(S2), 1).is_zero()
    assert [tor_length(k, k, i) for i in range(4)] == [1, 2, 1, 0]


def test_h2_selfdual_example(node, node_modules):
    res = minimal_resolution(node_modules["Ax"], 4)
    H2 = tensored_homology(res, node_modules["Ay"], 2)
    assert module_length(H2) == 1
    assert tor_length(node_modules["Ax"], node_modules["Ay"], 2) == 1


def test_tor_length_examples(node, quadric, node_modules, quadric_modules):
    assert tor_length(node_modules["Ax"], node_modules["Ay"], 2) == 1
    assert tor_length(quadric_modules["Ap"], quadric_modules["Aq"], 5) == 1
    free = ModulePresentation.free(node)
    for i in (1, 2, 3):
        assert tor_length(free, node_modules["Ax"], i) == 0


def test_tor_infinite_length_raises():
    # f = x^2 is singular along the whole line V(x): Tor stays infinite
    S = PolynomialRing(FieldSpec(0), ["x", "y"])
    A = HypersurfaceRing(S, S.parse("x^2"))
    M = present_cyclic(A, ["x"])
    with pytest.raises(InfiniteLength):
        tor_length(M, M, 2)


def test_tor_window_periodicity(node, quadric, node_modules, quadric_modules):
    pairs = [
        (node, node_modules["Ax"], node_modules["Ay"]),
        (node, node_modules["k"], node_modules["k"]),
        (quadric, quadric_modules["Ap"], quadric_modules["Aq"]),
        (quadric, quadric_modules["Ap"], quadric_modules["Ap"]),
    ]
    for ring, M, N in pairs:
        d = ring.dimension
        for i in range(d + 1, d + 6):
            assert tor_length(M, N, i) == tor_length(M, N, i + 2)


def test_direct_sum_presentation(node, node_modules):
    D = direct_sum(node_modules["Ax"], node_modules["Ay"])
    assert D.nrows == 2
    assert tor_length(D, node_modules["k"], 2) == (
        tor_length(node_modules["Ax"], node_modules["k"], 2)
        + tor_length(node_modules["Ay"], node_modules["k"], 2)
    )


def test_module_length_via_presentation(node):
    assert module_length(present_cyclic(node, ["x", "y"])) == 1
    assert module_length(present_cyclic(node, ["x"])) is INFINITE


@pytest.mark.parametrize("relations", [["x", "x"], ["x", "2*x"], ["x", "x^2"]])
def test_redundant_relations_resolve_minimally(node, relations):
    """A/(x, x), A/(x, 2x) and A/(x, x^2) are A/(x) over the node.  d_1 goes
    through the Nakayama selection like every later differential, so the
    redundant relation is dropped: Betti numbers 1, 1, 1, ..., a one-column
    minimal presentation, and theta against A/(y) equal to theta(A/(x), A/(y))."""
    M = present_cyclic(node, relations)
    assert minimal_resolution(M, 5).betti == [1] * 6
    assert M.minimal_presentation().ncols == 1
    assert theta(M, present_cyclic(node, ["y"])) == 1


def test_redundant_relation_over_the_quadric(quadric):
    """Over xy - uv, (x, u, x + u) is the ideal (x, u): the same Betti numbers,
    and theta against (x, v) is -1."""
    M = present_cyclic(quadric, ["x", "u", "x + u"])
    Ap = present_cyclic(quadric, ["x", "u"])
    assert minimal_resolution(M, 6).betti == minimal_resolution(Ap, 6).betti
    assert theta(M, present_cyclic(quadric, ["x", "v"])) == -1


def _sorted_syzygies(ring, diff_cols, rank, target_degs):
    """The syzygies of the columns with their degrees, sorted by (degree,
    frozen vector): the candidates the resolution hands the Nakayama
    selection, in its order."""
    return sorted(((v, _vector_degree(v, target_degs, ring.ambient))
                   for v in syzygies_over(ring, diff_cols, rank)),
                  key=lambda c: (c[1], freeze_vec(c[0])))


def _prefix_rebuild_selection(ring, vectors, rank, target_degs):
    """The Nakayama selection as first written: a fresh lifted basis of the
    kept prefix for every candidate."""
    S = ring.ambient
    decorated = sorted(
        ((_vector_degree(v, target_degs, S), freeze_vec(v), v) for v in vectors),
        key=lambda t: (t[0], t[1]),
    )
    kept = []
    for deg, _key, v in decorated:
        if kept:
            gb = lifted_basis(ring, [k for k, _d in kept], rank)
            if not normal_form(v, gb):
                continue
        elif not v:
            continue
        kept.append((v, deg))
    return kept


def test_nakayama_selection_matches_prefix_rebuild():
    """One open basis, completed up to each candidate's degree, keeps the
    same vectors as rebuilding the lift of each kept prefix, at each step of
    four resolutions: the residue field k over the Fermat cubic threefold;
    k over the weighted E8 threefold over F_32003 (unequal target degrees);
    coker [[y, 0], [x^2, y]] over the node (degrees (0, -1)); and k twisted
    to degree -3 over the cubic, where every target degree is negative and a
    builder that leaves the shifts out of the pair degree under-completes."""
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z", "w"])
    cubic = HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3"))
    k_cubic_twisted = ModulePresentation(
        cubic, [tuple(S.parse(v) for v in "xyzw")], gen_degrees=(-3,))
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z", "w"], [15, 10, 6, 15])
    e8 = HypersurfaceRing(S, S.parse("x^2 + y^3 + z^5 + w^2"))
    S = PolynomialRing(FieldSpec(0), ["x", "y"])
    node = HypersurfaceRing(S, S.parse("x*y"))
    P = S.parse
    cases = [
        (present_cyclic(cubic, ["x", "y", "z", "w"]), [1, 4, 7, 8, 8]),
        (present_cyclic(e8, ["x", "y", "z", "w"]), [1, 4, 7, 8, 8, 8, 8]),
        (ModulePresentation(node, [[P("y"), S.zero()], [P("x^2"), P("y")]]),
         [2, 2, 1, 1, 1, 1]),
        (k_cubic_twisted, [1, 4, 7, 8, 8]),
    ]
    for M, betti in cases:
        res = minimal_resolution(M, len(betti) - 1)
        assert res.betti == betti
        for i in range(1, len(betti) - 1):
            A, rank, degs = M.ring, res.betti[i - 1], res.gen_degrees(i)
            syz = _sorted_syzygies(A, res.differential_columns(i), rank, degs)
            kept, _selection = _select(A, syz, degs)
            vectors = [v for v, _d in syz]
            assert kept == _prefix_rebuild_selection(A, vectors, res.betti[i], degs)
            assert [v for v, _d in kept] == res.differential_columns(i + 1)


def _select(A, candidates, target_degs):
    """The candidates a NakayamaSelection keeps, in the given order, and the
    selection."""
    selection = NakayamaSelection(A.ambient, target_degs, candidates,
                                  f_times_unit_vectors(A, len(target_degs)))
    return [candidates[n] for n in selection.kept], selection


def test_nakayama_selection_memoises_no_basis():
    """A selection memoises no basis, and reads its syzygies off the memo
    before it completes its builder: resolving k to length 7 over the cubic
    fourfold over F_32003 leaves one syzygy basis for each of d_1, ..., d_6,
    and none for d_7, whose builder stays open.  A new selection from the
    same candidates keeps the same vectors, adds no memo entry, and its
    syzygies are the resolution's entry, found with its pairs untreated."""
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z", "w", "u"])
    A = HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3 + u^3"))
    res = minimal_resolution(present_cyclic(A, ["x", "y", "z", "w", "u"]), 7)
    assert len(S._groebner_memo) == 6
    for i in (1, 4):
        syz = _sorted_syzygies(A, res.differential_columns(i), res.betti[i - 1],
                               res.gen_degrees(i))
        before = dict(S._groebner_memo)
        kept, selection = _select(A, syz, res.gen_degrees(i))
        assert S._groebner_memo == before
        assert [v for v, _d in kept] == res.differential_columns(i + 1)
        pending = list(selection._builder.queue)
        assert pending
        basis = selection.syzygies()
        assert any(basis is G for G in before.values())
        assert selection._builder.queue == pending and S._groebner_memo == before


def test_first_differential_keeps_the_presentation_order():
    """d_1's candidates are treated in degree order but tagged by position:
    for relations u^2, x, x*u over the quadric xy - uv, x*u is dropped and
    d_1 is (u^2, x) in the presentation's order, and the syzygy basis read
    off its open builder is that of those columns in that order, computed
    cold on another ring."""
    def quadric():
        S = PolynomialRing(FieldSpec(0), ["x", "y", "u", "v"])
        return HypersurfaceRing(S, S.parse("x*y - u*v"))

    A = quadric()
    M = present_cyclic(A, ["u^2", "x", "x*u"])
    res = minimal_resolution(M, 1)
    P = A.ambient.parse
    assert res.matrix(1) == ((P("u^2"), P("x")),)
    assert M._open.kept == [0, 1]
    opened = M._open.syzygies()
    B = quadric()
    cold = syzygy_basis(res.differential_columns(1), B.ambient, 1, f_times_unit_vectors(B, 1))
    assert (opened.rank, opened.vectors) == (cold.rank, cold.vectors) and cold.rank == 2


def test_open_selection_holds_no_reference_to_its_module(quadric):
    """The builder a resolution leaves open refers to the ring and the
    vectors only: with the cyclic collector off, the module is freed by
    reference counting while its selection lives on, and the selection
    still reads the syzygies of the last differential."""
    gc.disable()
    try:
        M = present_cyclic(quadric, ["x", "u"])
        minimal_resolution(M, 4)
        selection, last = M._open, M._res_diffs[-1]
        module = weakref.ref(M)
        del M
        assert module() is None
        assert selection.generators == last
        assert selection.syzygies().rank == len(last)
    finally:
        gc.enable()


def test_syzygy_bases_have_a_memo_entry_of_their_own():
    """Over a polynomial ring, syzygy_basis and reduce_with_representation
    tag the same generators alike, yet each keeps its own memo entry: made
    first or second on one ring, each gives what it gives alone on a fresh
    ring.  Resolving k to length 7 over the cubic fourfold over F_32003
    memoises syzygy bases that hold no main-block vector (each lives in S^k
    and is the tag-lead part of the full augmented basis), and the ring is
    still freed by reference counting with the cyclic collector off."""
    def fresh():
        R = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
        gens = [vec_from_polys([R.parse(g)]) for g in ("x^2 - y*z", "x*y", "y^2 + x*z")]
        return R, gens, vec_from_polys([R.parse("x^3*y + y^3 - 2*z^2*x")])

    def syzygies(R, gens, v):
        return syzygy_basis(gens, R, 1).vectors

    def representation(R, gens, v):
        r, reps = reduce_with_representation(v, gens, R, 1)
        return r, [q.coeffs for q in reps]

    alone = {call: call(*fresh()) for call in (syzygies, representation)}
    assert alone[syzygies]
    for first, second in ((syzygies, representation), (representation, syzygies)):
        R, gens, v = fresh()
        assert first(R, gens, v) == alone[first]
        assert second(R, gens, v) == alone[second]

    gc.disable()
    try:
        A = fp_cubic_fourfold()
        S = A.ambient
        res = minimal_resolution(present_cyclic(A, A.variables), 7)
        entries = [(key, G) for key, G in S._groebner_memo.items() if key[0] == "syzygies"]
        assert len(entries) == 6
        for (_tag, rank, gens, relations), G in entries:
            assert G.rank == len(gens)
            assert G.vectors == tag_lead_part(S, map(dict, gens), rank, map(dict, relations))
        ring = weakref.ref(S)
        del A, S, res, entries, G
        assert ring() is None
    finally:
        gc.enable()


def test_tor_and_theta_with_negative_generator_degrees(node):
    """Over k[x,y]/(xy), coker [[y], [x^2]] and coker [[y, 0], [x^2, y]] infer
    generator degrees (0, -1), so their Hilbert numerators have t^-1 terms.
    Lengths, Tor and theta must still agree with the homology route."""
    S = node.ambient
    P = S.parse
    M = ModulePresentation(node, [[P("y")], [P("x^2")]])
    M2 = ModulePresentation(node, [[P("y"), S.zero()], [P("x^2"), P("y")]])
    assert M.gen_degrees == M2.gen_degrees == (0, -1)
    assert module_length(M) is INFINITE
    Ax = present_cyclic(node, ["x"])
    mods = [M, M2, Ax, present_cyclic(node, ["x", "y"])]
    for L in mods:
        for R in mods:
            for i in range(node.dimension + 3):
                try:
                    value = tor_length(L, R, i)
                except InfiniteLength:
                    value = INFINITE
                assert value == homology_tor_length(L, R, i), (L, R, i)
    for L, R in ((M2, Ax), (Ax, M2), (M, M2)):
        s = extract_matrix_factorization(minimal_resolution(L, node.dimension + 3)).source_index
        lengths = [homology_tor_length(L, R, i) for i in (s, s + 1)]
        assert theta(L, R) == (-1) ** s * (lengths[0] - lengths[1])
    assert theta(M2, Ax) == theta(Ax, M2) == 1


@pytest.mark.parametrize(
    "variables, f, characteristic, weights, generators",
    [
        (["x", "y"], "x*y", 0, None, [["x"], ["x", "y"]]),
        (["x", "y", "z"], "x*y - z^2", 0, None, [["x", "z"], ["x", "y", "z"]]),
        (["x", "y", "u", "v"], "x*y - u*v", 0, None, [["x", "u"], ["x", "v"]]),
        (["x", "y", "z"], "x^2 + y^3 + z^5", 0, [15, 10, 6], [["x", "y", "z"], ["y"]]),
        (["x", "y", "z"], "x^2 + y^3 + y*z^3", 32003, [9, 6, 4], [["x", "y", "z"], ["x", "y"]]),
        (["x", "y", "z"], "x*y", 0, None, [["x"], ["y"]]),
    ],
    ids=["node", "a1_surface", "quadric", "e8_surface", "e7_surface_f32003", "xy_nonisolated"],
)
def test_tor_length_matches_the_homology_route(variables, f, characteristic, weights, generators):
    """Tor lengths read off Hilbert series equal the staircase count of the
    homology of the tensored resolution, INFINITE included, for i = 0..d+2.
    Left modules: two cyclic ones, the free module and the first syzygy of
    the first; right modules: the direct sum of the cyclic ones and the
    syzygy (generators in nonzero, and on e8_surface unequal, degrees), and
    the free module against the syzygy."""
    S = PolynomialRing(FieldSpec(characteristic), variables, weights)
    A = HypersurfaceRing(S, S.parse(f))
    mods = [present_cyclic(A, g) for g in generators]
    mods += [direct_sum(mods[0], mods[1]), ModulePresentation.free(A), syzygy_of(mods[0], 1)]
    left = [mods[0], mods[1], mods[3], mods[4]]
    pairs = [(M, N) for M in left for N in (mods[2], mods[4])] + [(mods[4], mods[3])]
    for M, N in pairs:
        for i in range(A.dimension + 3):
            try:
                value = tor_length(M, N, i)
            except InfiniteLength:
                value = INFINITE
            assert value == homology_tor_length(M, N, i), (M, N, i)
