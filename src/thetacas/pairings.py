"""Lengths, the stable Tor pairing theta, Euler characteristics of bounded
free complexes, local lengths at height-one primes, and the divisor-class
map on torsion modules.

Every length here is read off a Hilbert series of cokernels: chi of a
complex off homology_series, theta on an isolated singularity off the series
of C_s alone (HS(C_{s+1}) cancels from HS(Tor_s) - HS(Tor_{s+1}), as C_{s+2}
is C_s shifted by deg f), and a local length off the series of M/p^i M,
whose differences are the graded pieces p^i M / p^(i+1) M."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    AlgebraError,
    DimensionMismatch,
    InfiniteLength,
    NonIsolatedSingularity,
    NotFiniteLength,
    NotFinitePd,
    NotStabilized,
)
from .groebner import (
    _series_at_one,
    _tpoly_shift,
    _tpoly_sub,
    groebner_basis,
    hilbert_numerator,
    multiplicity as gb_multiplicity,
    series_length,
    series_value,
)
from .homology import (
    MatrixRows,
    ModulePresentation,
    _cokernel_series,
    _tor_lengths,
    columns_as_vectors,
    extract_matrix_factorization,
    homology_series,
    infer_degrees,
    mat_vec,
    minimal_resolution,
    module_dimension,
    module_length,
    module_series,
    reduce_mod_f,
    reduce_vec_mod_f,
)
from .ring import (
    INFINITE,
    HypersurfaceRing,
    Polynomial,
    RingLike,
    ambient_of,
    ring_dimension,
)


class MultiplicityAuditWarning(UserWarning):
    """The additivity audit sum(l_p * e(A/p)) = e(M) failed: a component of
    the support is probably missing from the supplied prime list."""


# ---------------------------------------------------------------------------
# formal classes


@dataclass(frozen=True)
class ClassExpression:
    """Formal integer combination of named modules (an element of G_0)."""

    terms: tuple  # sorted tuple of (name, nonzero coeff)

    @classmethod
    def of(cls, *named_coeffs) -> "ClassExpression":
        """Build from (name, coeff) pairs or a dict; merges and drops zeros."""
        acc: Dict[str, int] = {}
        for item in named_coeffs:
            if isinstance(item, dict):
                pairs = item.items()
            elif isinstance(item, str):
                pairs = [(item, 1)]
            else:
                pairs = [item]
            for name, coeff in pairs:
                acc[name] = acc.get(name, 0) + int(coeff)
        return cls(tuple(sorted((n, c) for n, c in acc.items() if c)))

    def items(self):
        return list(self.terms)

    def __add__(self, other):
        return ClassExpression.of(dict(self.terms), dict(other.terms))

    def __neg__(self):
        return ClassExpression(tuple((n, -c) for n, c in self.terms))


@dataclass(frozen=True)
class DivisorClass:
    """Formal integer combination of named height-one primes."""

    terms: tuple

    @classmethod
    def of(cls, coeffs: Dict[str, int]) -> "DivisorClass":
        return cls(tuple(sorted((n, c) for n, c in coeffs.items() if c)))

    def items(self):
        return list(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


class FreeComplex:
    """Bounded complex of free modules ... -> R^{r_1} -> R^{r_0} given by the
    matrices of d_1, ..., d_L; consecutive composites must vanish over R.
    Entries are stored modulo f, and the generator degrees of F_0, ..., F_L
    are inferred so that every differential is homogeneous."""

    def __init__(self, ring: RingLike, matrices: Sequence[MatrixRows]):
        self.ring = ring
        S = ambient_of(ring)
        mats = []
        for rows in matrices:
            mats.append(tuple(
                tuple(reduce_mod_f(S.parse(e) if isinstance(e, str) else e, ring)
                      for e in row)
                for row in rows
            ))
        self.matrices: List[MatrixRows] = mats
        ranks = []
        for k, rows in enumerate(mats):
            if not rows:
                raise ValueError(f"differential {k + 1} has no rows")
            if any(len(row) != len(rows[0]) for row in rows):
                raise ValueError(f"differential {k + 1} has rows of different lengths")
            if k == 0:
                ranks.append(len(rows))
            elif len(rows) != ranks[-1]:
                raise ValueError(
                    f"differential {k + 1} has {len(rows)} rows, expected {ranks[-1]}"
                )
            ranks.append(len(rows[0]))
        if not mats:
            raise ValueError("a complex needs at least one differential")
        self.length = len(mats)
        diff_cols = [columns_as_vectors(m) for m in mats]
        for k in range(self.length - 1):
            if any(reduce_vec_mod_f(mat_vec(diff_cols[k], v, S.field), ring)
                   for v in diff_cols[k + 1]):
                raise ValueError(f"composite d_{k + 1} d_{k + 2} does not vanish")
        self.degrees = infer_degrees(ranks, mats)  # of F_0 .. F_L

    def shifted(self) -> "FreeComplex":
        """Homological shift by one: H_i of the result is H_{i-1} of self.

        The new bottom differential is the zero map F_0 -> 0, encoded as a
        matrix with no rows."""
        shifted = FreeComplex.__new__(FreeComplex)
        shifted.ring = self.ring
        shifted.matrices = [()] + list(self.matrices)
        shifted.degrees = [()] + list(self.degrees)
        shifted.length = self.length + 1
        return shifted


def koszul_complex(ring: RingLike, elements: Sequence[Polynomial]) -> FreeComplex:
    """Koszul complex on the given elements (used as a chi test complex)."""
    S = ambient_of(ring)
    elems = [S.parse(e) if isinstance(e, str) else e for e in elements]
    n = len(elems)
    subsets = [list(itertools.combinations(range(n), k)) for k in range(n + 1)]
    matrices = []
    for k in range(1, n + 1):
        rows = []
        for target in subsets[k - 1]:
            row = []
            for source in subsets[k]:
                entry = S.zero()
                for pos, idx in enumerate(source):
                    rest = tuple(x for x in source if x != idx)
                    if rest == target:
                        sign = -1 if pos % 2 else 1
                        entry = elems[idx].scale(sign)
                row.append(entry)
            rows.append(tuple(row))
        matrices.append(tuple(rows))
    return FreeComplex(ring, matrices)


# ---------------------------------------------------------------------------
# lengths and theta


def length(M: ModulePresentation):
    """Length of M (k-dimension), or INFINITE."""
    return module_length(M)


def _tjurina_number(ring: HypersurfaceRing):
    """tau = l(S/(f, df/dx_i)), kept on the ring: finite exactly when Spec A is
    regular off the maximal ideal (the Jacobian criterion).  Not l(S/(df/dx_i)):
    in characteristic 2, xy - z^2 has df/dz = 0 and an infinite one."""
    if ring._tjurina is None:
        S = ring.ambient
        partials = [S.from_dict({m[:i] + (m[i] - 1,) + m[i + 1:]: m[i] * c
                                 for m, c in ring.f.coeffs.items() if m[i]})
                    for i in range(S.nvars)]
        ring._tjurina = module_length(ModulePresentation.cyclic(ring, partials))
    return ring._tjurina


def theta(M: ModulePresentation, N: ModulePresentation) -> int:
    """l(Tor_even(M, N)) - l(Tor_odd(M, N)) where Tor is 2-periodic: from the
    source index s of M's verified matrix factorization on, where these Tors
    have finite length as the ring is an isolated singularity (finite tau).
    M is resolved to length s + 1 only: theta reads d_s and F_(s-1..s+1).

    With C_j = coker(d_j (x) N) and alpha = d_s, ker d_s = im beta is
    coker d_s shifted by deg f (Eisenbud 1980), and exactness gives
    coker d_{s+2} = ker d_s.  So HS(C_{s+2}) = t^(deg f) HS(C_s), and with
    P_i = sum_j t^(deg F_i,j), HS(Tor_s) - HS(Tor_{s+1}) is
    (1 - t^(deg f)) HS(C_s) - HS(N) (P_{s-1} - P_s): one cokernel basis.
    The value is remembered on M, keyed by N's rows and generator degrees."""
    if M.ring is not N.ring:
        raise ValueError("modules must share a ring")
    if not isinstance(M.ring, HypersurfaceRing):
        raise ValueError("theta requires a hypersurface ring")
    if _tjurina_number(M.ring) is INFINITE:
        raise NonIsolatedSingularity(
            "the Tjurina number is infinite; the singularity is not isolated")
    key = (N.rows, N.gen_degrees)
    if key in M._thetas:
        return M._thetas[key]
    s = extract_matrix_factorization(minimal_resolution(M, 1)).source_index
    res = minimal_resolution(M, s + 1)
    deg_f = M.ring.f.weighted_degree()
    below, middle, above = (res.gen_degrees(i) for i in (s - 1, s, s + 1))
    if sorted(above) != sorted(deg + deg_f for deg in below):
        raise NotStabilized(
            f"generator degrees of F_{s + 1} are not those of F_{s - 1} shifted by deg f")
    c_s = _cokernel_series(res.differential_columns(s), below, N)
    num = _tpoly_sub(c_s, _tpoly_shift(c_s, deg_f))
    series_N = module_series(N)
    for degs, sign in ((below, 1), (middle, -1)):
        for deg in degs:
            num = _tpoly_sub(num, {e + deg: sign * c for e, c in series_N.items()})
    value = series_value(num, ambient_of(M.ring).weights)
    if value is INFINITE:
        raise AlgebraError("HS(Tor_s) - HS(Tor_{s+1}) has a pole on an isolated singularity")
    M._thetas[key] = (-1) ** s * value
    return M._thetas[key]


def theta_class(
    alpha: ClassExpression, beta: ClassExpression,
    registry: Dict[str, ModulePresentation],
) -> int:
    """Bilinear extension of theta to formal combinations."""
    total = 0
    for name_a, ca in alpha.items():
        for name_b, cb in beta.items():
            total += ca * cb * theta(registry[name_a], registry[name_b])
    return total


# ---------------------------------------------------------------------------
# Euler characteristics


def chi_complex(
    F: FreeComplex, alpha: ClassExpression,
    registry: Dict[str, ModulePresentation],
) -> int:
    """Alternating sum of homology lengths of F tensored with alpha."""
    diff_cols = [columns_as_vectors(m) for m in F.matrices]
    weights = ambient_of(F.ring).weights
    total = 0
    for name, coeff in alpha.items():
        M = registry[name]
        acc = 0
        for i, num in enumerate(homology_series(diff_cols, F.degrees, M, 0, F.length)):
            ell = series_length(num, weights)
            if ell is INFINITE:
                raise InfiniteLength(
                    f"H_{i} of the complex tensored with {name} has infinite length"
                )
            acc += (-1) ** i * ell
        total += coeff * acc
    return total


def finite_pd(M: ModulePresentation) -> Optional[int]:
    """Projective dimension if finite, else None: the resolution is probed to
    d + 1, as pd M <= depth A = d when finite (Auslander-Buchsbaum)."""
    d = ring_dimension(M.ring)
    res = minimal_resolution(M, d + 1)
    b = res.betti
    for i, bi in enumerate(b):
        if bi == 0:
            return max(i - 1, 0)
    return None


def chi_modules(N0: ModulePresentation, M: ModulePresentation) -> int:
    """chi(N0, M) = sum_i (-1)^i l(Tor_i(N0, M)) up to the projective
    dimension of N0."""
    if module_length(N0) is INFINITE:
        raise NotFiniteLength("first argument must have finite length")
    pd = finite_pd(N0)
    if pd is None:
        raise NotFinitePd("first argument must have finite projective dimension")
    return sum((-1) ** i * ell for i, ell in enumerate(_tor_lengths(N0, M, 0, pd)))


# ---------------------------------------------------------------------------
# local lengths and divisor classes


def _power_products(S, gens: Sequence[Polynomial], power: int) -> List[Polynomial]:
    if power == 0:
        return [S.one()]
    out = []
    for combo in itertools.combinations_with_replacement(range(len(gens)), power):
        p = S.one()
        for idx in combo:
            p = p * gens[idx]
        out.append(p)
    return out


def local_length_at_prime(M: ModulePresentation, prime: Sequence[Polynomial]) -> int:
    """Length of M localized at a height-one graded prime, via the ranks of
    the graded pieces p^i M / p^(i+1) M over A/p.  With M = F/Q, the series
    of a piece is HS(F/(p^(i+1) F + Q)) - HS(F/(p^i F + Q)); each basis is
    seeded with M's presentation basis, which holds Q and f*e_j."""
    ring = M.ring
    S = ambient_of(ring)
    if any(w != 1 for w in S.weights):
        raise ValueError("local lengths require all weights equal to 1")
    prime = [S.parse(p) if isinstance(p, str) else p for p in prime]
    d = ring_dimension(ring)
    Ap = ModulePresentation.cyclic(ring, prime)
    if module_dimension(Ap) != d - 1:
        raise DimensionMismatch(
            f"V(p) has dimension {module_dimension(Ap)}, expected {d - 1}"
        )
    e_p = gb_multiplicity(Ap.presentation_gb())
    if M.nrows == 0:
        return 0
    total = 0
    known = [(0, M.presentation_gb().vectors)]
    below: dict = {}  # HS(F/(p^0 F + Q)) = HS(0)
    for power in range(256):
        gens = []
        for prod in _power_products(S, prime, power + 1):
            prod = reduce_mod_f(prod, ring)
            for j in range(M.nrows):
                gens.append({(j, m): c for m, c in prod.coeffs.items()})
        above = hilbert_numerator(groebner_basis(gens, S, M.nrows, known=known),
                                  M.gen_degrees)
        order, e_piece = _series_at_one(_tpoly_sub(above, below))
        if order is None or S.nvars - order < d - 1:
            return total
        rank, remainder = divmod(e_piece, e_p)
        if remainder:
            raise AlgebraError(
                "graded-piece multiplicity is not a multiple of e(A/p); "
                "the supplied ideal is probably not prime"
            )
        if rank == 0:
            return total
        total += rank
        below = above
    raise AlgebraError("local length did not terminate; M_p may have infinite length")


def c1_torsion(
    M: ModulePresentation,
    candidate_primes: Sequence[Tuple[str, Sequence[Polynomial]]],
) -> DivisorClass:
    """Divisor class sum_p l_p(M) [p] over the supplied height-one primes.

    The caller guarantees the list covers every top-dimensional component of
    the support; an additivity audit warns when one is missing."""
    ring = M.ring
    d = ring_dimension(ring)
    dim_m = module_dimension(M)
    if dim_m >= d:
        raise AlgebraError("module is not torsion: support has full dimension")
    coeffs = {}
    for name, gens in candidate_primes:
        coeffs[name] = local_length_at_prime(M, gens)
    if dim_m == d - 1 and d - 1 >= 1:
        S = ambient_of(ring)
        e_m = gb_multiplicity(M.presentation_gb())
        audit = 0
        for name, gens in candidate_primes:
            if coeffs[name]:
                prime = [S.parse(p) if isinstance(p, str) else p for p in gens]
                Ap = ModulePresentation.cyclic(ring, prime)
                audit += coeffs[name] * gb_multiplicity(Ap.presentation_gb())
        if audit != e_m:
            warnings.warn(
                f"multiplicity audit failed: sum l_p e(A/p) = {audit} "
                f"but e(M) = {e_m}; a support component may be missing",
                MultiplicityAuditWarning,
            )
    return DivisorClass.of(coeffs)
