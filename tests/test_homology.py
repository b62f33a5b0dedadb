"""Presentations, minimal resolutions, matrix factorizations, Tor and Ext."""

import gc
import itertools
import json
import math
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
    extract_matrix_factorization,
    minimal_resolution,
    present_cyclic,
    theta,
    tor_length,
)
from thetacas import homology
from thetacas.cli import build_environment, run_session
from thetacas.errors import InfiniteLength, NotStabilized
from thetacas.groebner import GroebnerBasis, NakayamaSelection
from thetacas.homology import (
    _vector_degree,
    lifted_basis,
    module_dimension,
    module_length,
    module_multiplicity,
    module_series,
)
from oracles import (
    cokernel_leads,
    columns_as_vectors,
    complex_homology,
    direct_sum,
    dual_module,
    ext_module,
    f_times_unit_vectors,
    free_module,
    freeze_vec,
    full_basis_syzygies,
    homology_tor_length,
    mat_mul,
    minimal_presentation,
    multiplicity,
    normal_form,
    quotient_dimension,
    pack_vector,
    packed_columns,
    reduce_mod_f,
    reduce_vec_mod_f,
    reduce_with_representation,
    resolution_matrix,
    rows_of,
    syzygies_over,
    syzygy_basis,
    syzygy_of,
    tagged_syzygies,
    tensored_homology,
    top_degree,
    vector_degree,
    transpose,
    unbounded_resolution,
    unit_pruned,
    unpacked_columns,
    unpack_vector,
    unpacked_vectors,
    vec_from_polys,
)
from test_golden_reports import NAMES, WEIGHTED_NAMES, _rescaled, seeded_sessions, session_path


def same_span(ring, cols_a, cols_b, rank):
    """Equality of submodules of R^rank given by two sets of column vectors."""
    S = ring.ambient
    ga = lifted_basis(ring, [pack_vector(S, v) for v in cols_a], rank)
    gb = lifted_basis(ring, [pack_vector(S, v) for v in cols_b], rank)
    return all(not normal_form(v, gb, S) for v in cols_a) and all(
        not normal_form(v, ga, S) for v in cols_b
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
    assert M.ncols == len(M.columns) == 2

    free = present_cyclic(quadric, [])
    assert free.nrows == 1 and not free.columns

    zero = present_cyclic(quadric, ["1"])
    assert zero.is_zero()


def test_presentation_rejects_inhomogeneous_columns(node):
    """An inhomogeneous entry is read off the degrees of its packed terms,
    so the error names its column, whether degrees are inferred or given."""
    from thetacas.errors import InhomogeneousError

    with pytest.raises(InhomogeneousError,
                       match="^column 0 is not homogeneous under any generator degrees$"):
        ModulePresentation(node, [["x + y^2"]])
    with pytest.raises(InhomogeneousError,
                       match="^column 1 is not homogeneous in the given generator degrees$"):
        ModulePresentation(node, [["x", "x + y^2"]], gen_degrees=(0,))


def test_presentation_checks_given_generator_degrees(a1):
    """Given generator degrees must be one per generator and make each
    relation column homogeneous: coker [[x], [z]] over xy - z^2 is graded
    with degrees (0, 0) or (3, 3), not with (0, 5)."""
    from thetacas.errors import InhomogeneousError

    rows = [["x"], ["z"]]
    for degrees in ((0,), (0, 0, 0), ()):
        with pytest.raises(ValueError, match="generator degrees for 2 generators"):
            ModulePresentation(a1, rows, gen_degrees=degrees)
    with pytest.raises(InhomogeneousError, match="column 0"):
        ModulePresentation(a1, rows, gen_degrees=(0, 5))
    for degrees in ((0, 0), (3, 3)):
        assert ModulePresentation(a1, rows, gen_degrees=degrees).gen_degrees == degrees
    assert module_length(ModulePresentation(a1, rows, gen_degrees=(0, 0))) is INFINITE
    # a zero column is dropped before the check; a free module takes any degrees
    assert ModulePresentation(a1, [["0"], ["0"]], gen_degrees=(0, 7)).ncols == 0


def test_degree_inference_consistency(quadric):
    M = ModulePresentation(quadric, [["u", "y"], ["-x", "-v"]])
    d0, d1 = M.gen_degrees
    assert d1 - d0 == 0  # both columns homogeneous of the same internal shift


# the pruning's constant entries, over Q and over F_32003 with weights
PRUNING_RINGS = [
    (0, ["x", "y", "z"], "x*y - z^2", None),
    (32003, ["x", "y", "z"], "x^6 + y^3 + z^2", [1, 2, 3]),
]
PIVOTS = (1, 2, -3)


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_unit_pruning_matches_the_polynomial_row_reference(data):
    """The packed pruning leaves the columns and generator degrees that the
    column operations on rows of Polynomials leave (the oracle unit_pruned),
    on drawn homogeneous presentations whose constant entries are 1, 2 or
    -3: a pivot that is not made monic, or components above a removed row
    left in place, give other columns."""
    characteristic, variables, f, weights = data.draw(st.sampled_from(PRUNING_RINGS))
    S = PolynomialRing(FieldSpec(characteristic), variables, weights)
    ring = HypersurfaceRing(S, S.parse(f))
    gen_degrees = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
    column_degrees = data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    rows = [[] for _d in gen_degrees]
    for degree in column_degrees:
        for row, d in zip(rows, gen_degrees):
            e = degree - d
            if e == 0:
                row.append(S.constant(data.draw(st.sampled_from((0,) + PIVOTS))))
                continue
            monos = [m for m in itertools.product(range(e + 1), repeat=S.nvars)
                     if S.mono_degree(m) == e] if e > 0 else []
            terms = data.draw(st.lists(st.tuples(st.sampled_from(monos), st.integers(-3, 3)),
                                       max_size=2)) if monos else []
            entry = S.zero()
            for m, c in terms:
                entry = entry + S.from_dict({m: c})
            row.append(entry)
    M = ModulePresentation(ring, rows, gen_degrees=tuple(gen_degrees))
    assert M._unit_pruned() == unit_pruned(M)


# ---------------------------------------------------------------------------
# minimal resolutions


def test_resolution_of_residue_field_over_cusp_line():
    A = cusp_line()
    k = present_cyclic(A, ["x"])
    res = minimal_resolution(k, 5)
    assert res.betti == [1, 1, 1, 1, 1, 1]
    x = A.ambient.parse("x")
    for i in range(1, 6):
        assert resolution_matrix(res, i) == ((x,),)


def test_resolution_of_quadric_plane(quadric, quadric_modules):
    res = minimal_resolution(quadric_modules["Ap"], 6)
    assert res.betti == [1, 2, 2, 2, 2, 2, 2]
    S = quadric.ambient
    expected = [["u", "y"], ["-x", "-v"]]
    expected_cols = columns_as_vectors(
        tuple(tuple(S.parse(e) for e in row) for row in expected)
    )
    assert same_span(quadric, unpacked_columns(res, 2), expected_cols, 2)


def test_resolution_of_free_module(quadric):
    res = minimal_resolution(free_module(quadric, 3), 3)
    assert res.betti == [3, 0, 0, 0]
    assert Resolution(free_module(quadric, 3), 0).betti == [3]


def test_resolution_minimality_and_complex_property(node, quadric, node_modules, quadric_modules):
    for ring, M in [
        (node, node_modules["Ax"]),
        (node, node_modules["k"]),
        (quadric, quadric_modules["Ap"]),
    ]:
        S = ring.ambient
        res = minimal_resolution(M, 5)
        for i in range(1, 6):
            for row in resolution_matrix(res, i):
                for entry in row:
                    assert entry.constant_coeff() == 0
        for i in range(1, 5):
            prod = mat_mul(resolution_matrix(res, i), resolution_matrix(res, i + 1), S)
            for row in prod:
                for entry in row:
                    assert reduce_mod_f(entry, ring).is_zero()


def test_exactness_audit_against_free_module(node, node_modules):
    """Tensoring a resolution with the ring itself has no higher homology."""
    res = minimal_resolution(node_modules["Ax"], 4)
    R_free = free_module(node)
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
    free = free_module(quadric)
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
        x = packed_columns(((S.parse("x"),),), node)
        MatrixFactorization(node, x, x, 2)


def test_mf_of_non_square_matrices_is_rejected(quadric):
    """alpha = (x u) and beta = (y -v)^T give alpha*beta = xy - uv = f, yet
    beta*alpha is not f*I: a one-product check must also ask for square
    matrices of one size."""
    from thetacas.homology import MatrixFactorization

    x, y, u, v = (quadric.ambient.parse(s) for s in ("x", "y", "u", "v"))
    row, column = packed_columns(((x, u),), quadric), packed_columns(((y,), (-v,)), quadric)
    with pytest.raises(NotStabilized):
        MatrixFactorization(quadric, row, column, 1)
    with pytest.raises(NotStabilized):
        MatrixFactorization(quadric, column, row, 1)


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
        MatrixFactorization(M.ring, mf.alpha_cols, packed_columns(beta, M.ring),
                            mf.source_index)


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
        patch.setattr(NakayamaSelection, "syzygies", None)
        patch.setattr(homology, "groebner_basis", None)
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
            yield M.ring, unpacked_columns(res, i), res.betti[i - 1]
        yield M.ring, transpose(unpacked_columns(res, 2), res.betti[1]), res.betti[2]


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
        inputs += [(A, unpacked_columns(res, i), res.betti[i - 1]) for i in range(1, 6)]
    for ring, vectors, rank in inputs:
        assert syzygies_over(ring, vectors, rank) == full_basis_syzygies(ring, vectors, rank)


def _session_calls(monkeypatch, doc, resolve=False):
    """Over one run of the session: every syzygy list read over R off a
    syzygy basis, as (ring, basis, syzygies); every syzygy basis a
    resolution step read off the builder its selection left open, as
    (selection, degree bound or None, basis); and every matrix
    factorization made.  With resolve, every module of a fresh environment
    of the session is then also resolved to length d + 3 under the same
    recording."""
    calls, opened, made = [], [], []
    real_kept, real_open = homology._kept_syzygies, NakayamaSelection.syzygies

    def recording(ring, basis):
        out = real_kept(ring, basis)
        calls.append((ring, basis, out))
        return out

    def reading(selection, upto=None):
        basis = real_open(selection, upto)
        opened.append((selection, upto, basis))
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
        for ring, basis, packed in calls:
            kept = [unpack_vector(ring.ambient, v) for v in packed]
            assert all(reduce_vec_mod_f(v, ring) == v for v in kept)
            assert len({freeze_vec(v) for v in kept}) == len(kept)
            lift = lifted_basis(ring, packed, basis.rank)
            for v in map(dict, unpacked_vectors(basis, ring.ambient)):
                if v not in kept:
                    dropped += 1
                    assert not normal_form(v, lift, ring.ambient)
    assert dropped


@pytest.mark.parametrize("seed", [0, 3])
def test_open_builder_syzygies_match_a_cold_basis(seed, monkeypatch):
    """For every resolution step of the seven golden sessions, as written
    and under the graded coordinate change of seed 3, and of their modules
    resolved to length d + 3, the syzygy basis of d_i read off the builder
    its selection left open is, under a degree bound D, exactly the
    elements of degree <= D of syzygy_basis(d_i, S, b_(i-1), f * e_j)
    computed cold on a fresh ring, and with no bound all of it."""
    steps = bounded = truncated = 0
    for name, doc in seeded_sessions(seed).items():
        _calls, opened, _made = _session_calls(monkeypatch, doc, resolve=True)
        assert opened, name
        for selection, upto, basis in opened:
            S = selection.ring
            fresh = PolynomialRing(S.field, S.variables, S.weights)
            cold = syzygy_basis([unpack_vector(S, g) for g in selection.generators], fresh,
                                selection.rank,
                                [unpack_vector(S, r) for r in selection.relations])
            expected = unpacked_vectors(cold, fresh)
            if upto is not None:
                target = selection._builder.shifts[:selection.rank]
                gen_degs = [_vector_degree(g, target, S) for g in selection.generators]
                expected = tuple(v for v in unpacked_vectors(cold, fresh)
                                 if vector_degree(dict(v), gen_degs, fresh) <= upto)
                bounded += 1
                truncated += len(expected) < len(cold.vectors)
            assert (basis.rank, unpacked_vectors(basis, S)) == (cold.rank, expected), name
            steps += 1
    assert steps > 100 and bounded > 50 and truncated > 25


def fp_e7_surface():
    S = PolynomialRing(FieldSpec(32003), ["x", "y", "z"], [9, 6, 4])
    return HypersurfaceRing(S, S.parse("x^2 + y^3 + y*z^3"))


def cubic_threefold():
    S = PolynomialRing(FieldSpec(0), ["x", "y", "z", "w"])
    return HypersurfaceRing(S, S.parse("x^3 + y^3 + z^3 + w^3"))


# finite-length modules with top degree above 0 and, over E7, unequal weights
FINITE_LENGTH = {
    "e7 A/m^2": (fp_e7_surface, ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"]),
    "e7 A/(x, y, z^3)": (fp_e7_surface, ["x", "y", "z^3"]),
    "cubic A/(x, y, z^2, w^2)": (cubic_threefold, ["x", "y", "z^2", "w^2"]),
}


def _twin_modules(case):
    """(label, M, twin) for every module of the ten sessions of
    scripts/report_digest.py (seven distinct ones) at the seed named by
    case, or for the FINITE_LENGTH modules: M and its twin are one module
    built on two rings, so neither resolution reads what the other
    memoises."""
    if case == "finite":
        for label, (ring, gens) in FINITE_LENGTH.items():
            yield label, present_cyclic(ring(), gens), present_cyclic(ring(), gens)
        return
    for session, doc in seeded_sessions(case).items():
        (env, _errors), (twin, _errors) = build_environment(doc), build_environment(doc)
        for name, M in env.modules.items():
            yield f"{session}:{name}", M, twin.modules[name]


@pytest.mark.parametrize("case", [0, 3, "finite"])
def test_bounded_resolution_matches_the_unbounded_oracle(case):
    """Every resolution step stops its syzygy basis at the change-of-rings
    bound D_m, yet to length n + 3 each module's d_i and generator degrees
    are those of the oracle that reads every full basis, and no generator
    of F_m lies above D_m.  The modules are those of the ten sessions at
    seeds 0 and 3, and three of finite length with top(M) > 0, where D_m
    must be max(max deg F_(m-2) + deg f, top(M) + the m largest weights) for
    m <= n, with top(M) counted off the staircase, and the first term alone
    above n."""
    bounded = 0
    for label, M, twin in _twin_modules(case):
        S = M.ring.ambient
        n, length, deg_f = S.nvars, S.nvars + 3, M.ring.f.weighted_degree()
        res = minimal_resolution(M, length)
        diffs, degs = unbounded_resolution(twin, length)
        assert [unpacked_columns(res, i) for i in range(1, length + 1)] == diffs, label
        assert [res.gen_degrees(i) for i in range(length + 1)] == degs, label
        for m in range(2, length + 1):
            bound = M._degree_bound(m)
            if bound is None:
                assert m <= n and module_length(M) is INFINITE, label
                continue
            bounded += 1
            assert max(degs[m], default=-math.inf) <= bound, (label, m)
            if case == "finite":
                koszul = top_degree(M) + sum(sorted(S.weights)[-m:]) if m <= n else -math.inf
                assert bound == max(max(degs[m - 2]) + deg_f, koszul), (label, m)
        if case == "finite":
            assert top_degree(M) > 0, label
    assert bounded > (10 if case == "finite" else 50)


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


def test_fp_sessions_keep_the_resolve_and_mf_path_packed(monkeypatch):
    """A timing-free guard on conversions between exponent tuples and packed
    terms.  Over one pass of the three fp sessions as written, building
    their environments packs 30 terms, each ring's 1 and each variable as
    the parser meets it, and unpacks no vector.  Their resolve and mf tasks
    pack nothing more: every polynomial is packed as it is parsed and every
    differential stays packed from the presentation through the selection
    that chose it and the matrix factorization to the report.  Over the
    golden sessions and cubic_threefold, whose tasks also read theta, Tor,
    chi and c1 off cokernel bases, terms are packed too.  No vector is
    unpacked anywhere: the kernel has no vector unpacker (test_tooling's
    test_only_the_polynomial_boundary_unpacks_vectors)."""
    counts = {"_pack": 0}

    def counting(ring, *args, _real=PolynomialRing._pack):
        counts["_pack"] += 1
        return _real(ring, *args)

    monkeypatch.setattr(PolynomialRing, "_pack", counting)
    docs = [json.loads(session_path(name).read_text())
            for name in ("fp_cubic_fourfold", "fp_e8_threefold", "fp_e7_surface")]
    for doc in docs:
        build_environment(doc)
    assert counts == {"_pack": 30}
    counts["_pack"] = 0
    assert [run_session(doc)[1] for doc in docs] == [0, 0, 0]
    assert counts == {"_pack": 30}
    for name in NAMES + ("cubic_threefold",):
        counts["_pack"] = 0
        assert run_session(json.loads(session_path(name).read_text()))[1] == 0
        assert counts["_pack"] > 0, (name, counts)


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
    P = minimal_presentation(W)
    assert P.nrows == 1
    y_col = columns_as_vectors(((node.ambient.parse("y"),),))
    assert same_span(node, columns_as_vectors(rows_of(P)), y_col, 1)
    assert syzygy_of(free_module(node), 2).is_zero()


def test_dual_module_examples(node, quadric, node_modules, quadric_modules):
    A_dual = dual_module(free_module(node))
    P = minimal_presentation(A_dual)
    assert P.nrows == 1 and not P.columns

    D = minimal_presentation(dual_module(node_modules["Ax"]))
    assert D.nrows == 1
    x_col = columns_as_vectors(((node.ambient.parse("x"),),))
    assert same_span(node, columns_as_vectors(rows_of(D)), x_col, 1)

    assert dual_module(quadric_modules["Ap"]).is_zero()


def test_ext_module_examples(node, node_modules):
    E0 = minimal_presentation(ext_module(free_module(node), 0))
    assert E0.nrows == 1 and not E0.columns

    assert ext_module(node_modules["Ax"], 1).is_zero()

    Ek = ext_module(node_modules["k"], 1)
    assert module_length(Ek) == 1


# ---------------------------------------------------------------------------
# homology of tensored complexes, Tor


def test_h0_of_selftensor_is_the_module(node, node_modules):
    M = node_modules["Ax"]
    res = minimal_resolution(M, 3)
    diff_cols = [unpacked_columns(res, i) for i in range(1, 4)]
    H0 = complex_homology(node, diff_cols, res.betti[:4], M, 0)
    P = minimal_presentation(H0)
    assert P.nrows == 1
    assert same_span(node, columns_as_vectors(rows_of(P)), columns_as_vectors(rows_of(M)), 1)


def test_koszul_resolution_is_exact_over_regular_ring(S2):
    k = ModulePresentation.cyclic(S2, ["x", "y"])
    res = minimal_resolution(k, 3)
    assert res.betti == [1, 2, 1, 0]
    assert tensored_homology(res, free_module(S2), 1).is_zero()
    assert [tor_length(k, k, i) for i in range(4)] == [1, 2, 1, 0]


def test_h2_selfdual_example(node, node_modules):
    res = minimal_resolution(node_modules["Ax"], 4)
    H2 = tensored_homology(res, node_modules["Ay"], 2)
    assert module_length(H2) == 1
    assert tor_length(node_modules["Ax"], node_modules["Ay"], 2) == 1


def test_tor_length_examples(node, quadric, node_modules, quadric_modules):
    assert tor_length(node_modules["Ax"], node_modules["Ay"], 2) == 1
    assert tor_length(quadric_modules["Ap"], quadric_modules["Aq"], 5) == 1
    free = free_module(node)
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


def _multiplicities(M):
    """(module_multiplicity(M), the oracle's multiplicity), each a ValueError's
    type where it is undefined: for the zero module and in dimension zero."""
    out = []
    for read in (module_multiplicity,
                 lambda M: multiplicity(M.presentation_gb(), M.ring.ambient)):
        try:
            out.append(read(M))
        except ValueError:
            out.append(ValueError)
    return tuple(out)


def test_module_invariants_read_the_remembered_series(node):
    """module_dimension and module_multiplicity read M's series, generators
    in their degrees, once; a power of t moves neither the order of its root
    t = 1 nor the value there, so both equal the readings off the
    presentation basis's unshifted numerator.  The modules have negative,
    mixed and shifted generator degrees; is_zero reads the same series."""
    S = node.ambient
    P = S.parse
    rows = [[P("y")], [P("x^2")]]
    mods = [
        ModulePresentation(node, rows),  # degrees (0, -1)
        ModulePresentation(node, rows, gen_degrees=(5, 4)),
        ModulePresentation(node, [[P("y"), S.zero()], [P("x^2"), P("y")]]),
        ModulePresentation(node, [(), ()], gen_degrees=(-3, 2)),
        present_cyclic(node, ["x"]),
        present_cyclic(node, ["x", "y"]),
        ModulePresentation.zero(node),
        ModulePresentation(node, [["1", "x"], ["0", "1"]]),
    ]
    assert mods[0].gen_degrees == (0, -1)
    for M in mods:
        assert module_dimension(M) == quotient_dimension(M.presentation_gb(), S)
        kernel, oracle = _multiplicities(M)
        assert kernel == oracle
        assert M.is_zero() == (module_dimension(M) == -1)
        assert module_series(M) is M._series
    assert [module_dimension(M) for M in mods] == [1, 1, 1, 1, 1, 0, -1, -1]
    assert [_multiplicities(M)[0] for M in mods[:5]] == [2, 2, 1, 4, 1]


def test_session_module_invariants_match_the_unshifted_reading():
    """On every module of the seven golden sessions, the dimension off the
    remembered series is the oracle's; so is the multiplicity where every
    weight is one (it is undefined otherwise)."""
    modules = 0
    for name in NAMES + WEIGHTED_NAMES:
        env, errors = build_environment(json.loads(session_path(name).read_text()))
        assert not errors, name
        ones = set(env.ring.weights) == {1}
        for M in env.modules.values():
            assert module_dimension(M) == quotient_dimension(M.presentation_gb(),
                                                             env.ring.ambient), name
            if ones:
                kernel, oracle = _multiplicities(M)
                assert kernel == oracle, name
            modules += 1
    assert modules == 16


@pytest.mark.parametrize("relations", [["x", "x"], ["x", "2*x"], ["x", "x^2"]])
def test_redundant_relations_resolve_minimally(node, relations):
    """A/(x, x), A/(x, 2x) and A/(x, x^2) are A/(x) over the node.  d_1 goes
    through the Nakayama selection like every later differential, so the
    redundant relation is dropped: Betti numbers 1, 1, 1, ..., a one-column
    minimal presentation, and theta against A/(y) equal to theta(A/(x), A/(y))."""
    M = present_cyclic(node, relations)
    assert minimal_resolution(M, 5).betti == [1] * 6
    assert minimal_presentation(M).ncols == 1
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
    return sorted(((v, vector_degree(v, target_degs, ring.ambient))
                   for v in syzygies_over(ring, diff_cols, rank)),
                  key=lambda c: (c[1], freeze_vec(c[0])))


def _prefix_rebuild_selection(ring, vectors, rank, target_degs):
    """The Nakayama selection as first written: a fresh lifted basis of the
    kept prefix for every candidate."""
    S = ring.ambient
    decorated = sorted(
        ((vector_degree(v, target_degs, S), freeze_vec(v), v) for v in vectors),
        key=lambda t: (t[0], t[1]),
    )
    kept = []
    for deg, _key, v in decorated:
        if kept:
            gb = lifted_basis(ring, [pack_vector(S, k) for k, _d in kept], rank)
            if not normal_form(v, gb, S):
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
            syz = _sorted_syzygies(A, unpacked_columns(res, i), rank, degs)
            kept, _selection = _select(A, syz, degs)
            vectors = [v for v, _d in syz]
            assert kept == _prefix_rebuild_selection(A, vectors, res.betti[i], degs)
            assert [v for v, _d in kept] == unpacked_columns(res, i + 1)


def _select(A, candidates, target_degs):
    """The candidates a NakayamaSelection keeps, in the given order, and the
    selection, which reads them and the f * e_j packed."""
    S = A.ambient
    selection = NakayamaSelection(
        S, target_degs, [(pack_vector(S, v), d) for v, d in candidates],
        [pack_vector(S, r) for r in f_times_unit_vectors(A, len(target_degs))])
    return [candidates[n] for n in selection.kept], selection


def test_nakayama_selection_memoises_no_basis():
    """A selection memoises no syzygy basis, read under a degree bound or in
    full: resolving k to length 7 over the cubic fourfold over F_32003
    leaves the ring's attributes as they were and no cokernel on k.  A new
    selection from the same candidates (computed cold on another ring)
    keeps the same vectors; its bounded read treats pairs and its full read
    the rest, and neither adds an attribute to the ring.  The bounded read
    is exactly the full read's elements of degree <= the bound, and not all
    of them."""
    A, B = fp_cubic_fourfold(), fp_cubic_fourfold()
    S = A.ambient
    before = set(vars(S))
    M = present_cyclic(A, ["x", "y", "z", "w", "u"])
    res = minimal_resolution(M, 7)
    assert set(vars(S)) == before and M._cokernels == {}
    for i in (1, 4):
        degs, bound = res.gen_degrees(i), M._degree_bound(i + 2)
        syz = _sorted_syzygies(B, unpacked_columns(res, i), res.betti[i - 1], degs)
        kept, selection = _select(A, syz, degs)
        assert [v for v, _d in kept] == unpacked_columns(res, i + 1)
        pending = list(selection._builder.queue)
        bounded = selection.syzygies(bound)
        assert selection._builder.queue != pending and set(vars(S)) == before
        full = selection.syzygies()
        assert not selection._builder.queue and set(vars(S)) == before
        assert unpacked_vectors(bounded, S) == tuple(
            v for v in unpacked_vectors(full, S)
            if vector_degree(dict(v), selection.degrees, S) <= bound)
        assert set(unpacked_vectors(bounded, S)) < set(unpacked_vectors(full, S))


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
    assert resolution_matrix(res, 1) == ((P("u^2"), P("x")),)
    assert M._open.kept == [0, 1]
    opened = M._open.syzygies()
    B = quadric()
    cold = syzygy_basis(unpacked_columns(res, 1), B.ambient, 1, f_times_unit_vectors(B, 1))
    assert ((opened.rank, unpacked_vectors(opened, A.ambient))
            == (cold.rank, unpacked_vectors(cold, B.ambient)) and cold.rank == 2)


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


def test_a_module_over_a_polynomial_ring_is_freed_by_reference_counting():
    """A plain ring answers for itself as a ring with no f: it is its own
    ambient ring and has no relations f * e_j.  So a module over it resolves
    through the one code path, and with the cyclic collector off the module
    and the ring, with the bases the module holds, are freed by reference
    counting."""
    gc.disable()
    try:
        S = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
        M = present_cyclic(S, ["x", "y", "z"])
        assert minimal_resolution(M, 4).betti == [1, 3, 3, 1, 0]
        assert M._gb is not None
        ring, module = weakref.ref(S), weakref.ref(M)
        del S, M
        assert ring() is None and module() is None
    finally:
        gc.enable()


def test_oracle_syzygy_bases_leave_the_ring_as_it_was():
    """Over a polynomial ring, syzygy_basis and reduce_with_representation
    tag the same generators alike and compute cold: made first or second on
    one ring, each gives what it gives alone on a fresh ring, and the ring
    gains no attribute.  Resolving A/(x, y, z), of infinite length, to
    length 7 over the cubic fourfold over F_32003 reads the syzygy bases of
    d_1, ..., d_4 with no degree bound, off the open builders, and leaves
    the ring's attributes as they were; the ring is still freed by
    reference counting with the cyclic collector off."""
    def fresh():
        R = PolynomialRing(FieldSpec(0), ["x", "y", "z"])
        gens = [vec_from_polys([R.parse(g)]) for g in ("x^2 - y*z", "x*y", "y^2 + x*z")]
        return R, gens, vec_from_polys([R.parse("x^3*y + y^3 - 2*z^2*x")])

    def syzygies(R, gens, v):
        return unpacked_vectors(syzygy_basis(gens, R, 1), R)

    def representation(R, gens, v):
        r, reps = reduce_with_representation(v, gens, R, 1)
        return r, [q.coeffs for q in reps]

    alone = {call: call(*fresh()) for call in (syzygies, representation)}
    assert alone[syzygies]
    for first, second in ((syzygies, representation), (representation, syzygies)):
        R, gens, v = fresh()
        before = set(vars(R))
        assert first(R, gens, v) == alone[first]
        assert second(R, gens, v) == alone[second]
        assert set(vars(R)) == before

    gc.disable()
    try:
        A = fp_cubic_fourfold()
        S = A.ambient
        before = set(vars(S))
        res = minimal_resolution(present_cyclic(A, ["x", "y", "z"]), 7)
        assert set(vars(S)) == before
        ring = weakref.ref(S)
        del A, S, res
        assert ring() is None
    finally:
        gc.enable()


def _sessions_run(monkeypatch, names, audit=True):
    """The environments of the named sessions, each run once."""
    import thetacas.cli as cli

    envs, build = [], cli.build_environment

    def recording_build(doc):
        env, errors = build(doc)
        envs.append(env)
        return env, errors

    monkeypatch.setattr(cli, "build_environment", recording_build)
    for name in names:
        _report, code = run_session(json.loads(session_path(name).read_text()), audit=audit)
        assert code == 0, name
    return envs


def test_a_session_remembers_cokernel_leads_only_on_modules(monkeypatch):
    """After each of the seven golden sessions the ring holds no basis, and
    every cokernel a module remembers is the lead module, minimal
    generators only, of the reduced basis of d (x) I_s and the module's
    relations per block, computed cold with no seeding (cokernel_leads)."""
    envs = _sessions_run(monkeypatch, NAMES + WEIGHTED_NAMES)
    read = 0
    for name, env in zip(NAMES + WEIGHTED_NAMES, envs):
        S = env.ring.ambient
        assert not hasattr(S, "_groebner_memo"), name
        assert not any(isinstance(v, GroebnerBasis) for d in vars(S).values()
                       if isinstance(d, dict) for v in d.values()), name
        for N in env.modules.values():
            for (cols, rank), leads in N._cokernels.items():
                assert sorted(leads) == cokernel_leads([dict(c) for c in cols], rank, N), name
                read += 1
    assert read


def test_a_golden_pass_builds_the_cokernel_bases_it_always_built(monkeypatch):
    """One pass over node, a1_surface and quadric reads 22 cokernel series
    and builds 16 cokernel bases, as many as the ring memo once missed: the
    reuses are a1_surface's W1 and Axz pairs and quadric's periodic Tor
    cokernels, remembered on N by d's columns and F's rank."""
    import thetacas.pairings as pairings

    counts = {"reads": 0, "builds": 0}
    series, builder = homology._cokernel_series, homology.GroebnerBuilder

    def counting_series(*args):
        counts["reads"] += 1
        return series(*args)

    def counting_builder(*args):
        counts["builds"] += 1
        return builder(*args)

    monkeypatch.setattr(homology, "_cokernel_series", counting_series)
    monkeypatch.setattr(pairings, "_cokernel_series", counting_series)
    monkeypatch.setattr(homology, "GroebnerBuilder", counting_builder)
    _sessions_run(monkeypatch, NAMES, audit=False)
    assert counts == {"reads": 22, "builds": 16}


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
    mods += [direct_sum(mods[0], mods[1]), free_module(A), syzygy_of(mods[0], 1)]
    left = [mods[0], mods[1], mods[3], mods[4]]
    pairs = [(M, N) for M in left for N in (mods[2], mods[4])] + [(mods[4], mods[3])]
    for M, N in pairs:
        for i in range(A.dimension + 3):
            try:
                value = tor_length(M, N, i)
            except InfiniteLength:
                value = INFINITE
            assert value == homology_tor_length(M, N, i), (M, N, i)
