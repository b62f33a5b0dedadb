"""Lengths, the stable Tor pairing theta, Euler characteristics of bounded
free complexes, and the divisor-class map on torsion modules, through its
local lengths at height-one primes.

Every length here is read at t = 1 off a Hilbert series of cokernels: chi
of a complex off homology_series, chi of two modules off their own two
series (the graded Euler characteristic), theta on an isolated singularity
off the series of C_s alone (HS(C_{s+1}) cancels from HS(Tor_s) -
HS(Tor_{s+1}), as C_{s+2} is C_s shifted by deg f), and a local length off
the series of M/p^i M, whose differences are the graded pieces
p^i M / p^(i+1) M; M/p^i M is the cokernel of the row of degree-i products
of p tensored with M, read by _cokernel_series like C_s."""

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
from .groebner import _series_at_one, _tpoly_axpy, finite_colength, series_length, series_value
from .homology import (
    ModulePresentation,
    _cokernel_series,
    extract_matrix_factorization,
    homology_series,
    infer_degrees,
    minimal_resolution,
    module_dimension,
    module_length,
    module_multiplicity,
    module_series,
    reduce_packed_mod_f,
    reduced_columns,
)
from .matrices import mat_vec
from .ring import INFINITE, HypersurfaceRing, Polynomial, RingLike


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
        """Build from (name, coeff) pairs or a dict; merges and drops zeros.
        A coefficient that is not an int (a bool included) raises TypeError."""
        acc: Dict[str, int] = {}
        for item in named_coeffs:
            if isinstance(item, dict):
                pairs = item.items()
            elif isinstance(item, str):
                pairs = [(item, 1)]
            else:
                pairs = [item]
            for name, coeff in pairs:
                if isinstance(coeff, bool) or not isinstance(coeff, int):
                    raise TypeError(f"coefficient {coeff!r} of {name!r} is not an int")
                acc[name] = acc.get(name, 0) + coeff
        return cls(tuple(sorted((n, c) for n, c in acc.items() if c)))

    def items(self):
        return list(self.terms)


class FreeComplex:
    """Bounded complex of free modules ... -> R^{r_1} -> R^{r_0} given by the
    matrices of d_1, ..., d_L (rows of Polynomials or their texts), whose
    consecutive composites must vanish over R.  diff_cols keeps each d_k's
    columns, packed once and reduced modulo f, and the generator degrees of
    F_0, ..., F_L are inferred from them so that each d_k is homogeneous."""

    def __init__(self, ring: RingLike, matrices: Sequence):
        self.ring = ring
        S = ring.ambient
        mats = [[[S.parse(e) if isinstance(e, str) else e for e in row] for row in rows]
                for rows in matrices]
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
        cols = self.diff_cols = [reduced_columns(rows, ring) for rows in mats]
        for k in range(self.length - 1):
            if any(reduce_packed_mod_f(mat_vec(cols[k], v, S), ring) for v in cols[k + 1]):
                raise ValueError(f"composite d_{k + 1} d_{k + 2} does not vanish")
        self.degrees = infer_degrees(ranks, cols, S)  # of F_0 .. F_L


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
        f = [(S._unpack(t)[1], c) for t, c in ring.f.coeffs.items()]
        partials = [S.from_dict({m[:i] + (m[i] - 1,) + m[i + 1:]: m[i] * c for m, c in f if m[i]})
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
    The value is remembered on M, keyed by N's presentation GB and degrees.

    theta is 0 when N or M has finite length, as its presentation basis's
    leads tell: theta is additive, and Tor_i(M, k) = k^(b_i(M)) with b_i(M)
    eventually constant on a hypersurface (Hochster 1981)."""
    if M.ring is not N.ring:
        raise ValueError("modules must share a ring")
    if M.ring.f is None:
        raise ValueError("theta requires a hypersurface ring")
    if _tjurina_number(M.ring) is INFINITE:
        raise NonIsolatedSingularity(
            "the Tjurina number is infinite; the singularity is not isolated")
    S, N_gb = M.ring.ambient, N.presentation_gb()
    key = (N_gb, N.gen_degrees)
    if key in M._thetas:
        return M._thetas[key]
    if finite_colength(N_gb, S) or finite_colength(M.presentation_gb(), S):
        M._thetas[key] = 0
        return 0
    s = extract_matrix_factorization(minimal_resolution(M, 1)).source_index
    res = minimal_resolution(M, s + 1)
    deg_f = M.ring.f.weighted_degree()
    below, middle, above = (res.gen_degrees(i) for i in (s - 1, s, s + 1))
    if sorted(above) != sorted(deg + deg_f for deg in below):
        raise NotStabilized(
            f"generator degrees of F_{s + 1} are not those of F_{s - 1} shifted by deg f")
    c_s = _cokernel_series(res.packed_columns(s), below, N)
    num = _tpoly_axpy(dict(c_s), -1, deg_f, c_s)
    series_N = module_series(N)
    for degs, coeff in ((below, -1), (middle, 1)):
        for deg in degs:
            _tpoly_axpy(num, coeff, deg, series_N)
    value = series_value(num, S.weights)
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
    weights = F.ring.weights
    total = 0
    for name, coeff in alpha.items():
        M = registry[name]
        acc = 0
        for i, num in enumerate(homology_series(F.diff_cols, F.degrees, M, 0, F.length)):
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
    d = M.ring.dimension
    res = minimal_resolution(M, d + 1)
    b = res.betti
    for i, bi in enumerate(b):
        if bi == 0:
            return max(i - 1, 0)
    return None


def chi_modules(N0: ModulePresentation, M: ModulePresentation) -> int:
    """chi(N0, M) = sum_i (-1)^i l(Tor_i(N0, M)) up to the projective
    dimension of N0, read off the graded Euler characteristic with no Tor.

    With F the finite minimal resolution of N0 and P_i = sum_j t^(deg F_i,j),
    sum_i (-1)^i HS(Tor_i) = HS(M) sum_i (-1)^i P_i, and HS(N0) = HS(A)
    sum_i (-1)^i P_i.  So the sum is num(N0) num(M) / ((1 - t^(deg f))
    prod_i (1 - t^(w_i))), with no (1 - t^(deg f)) over a polynomial ring,
    and chi is its value at t = 1."""
    if module_length(N0) is INFINITE:
        raise NotFiniteLength("first argument must have finite length")
    if finite_pd(N0) is None:
        raise NotFinitePd("first argument must have finite projective dimension")
    num: dict = {}
    for d, c in module_series(N0).items():
        _tpoly_axpy(num, c, d, module_series(M))
    weights, f = N0.ring.weights, N0.ring.f
    value = series_value(num, weights if f is None else weights + (f.weighted_degree(),))
    if value is INFINITE:
        raise AlgebraError("the Euler characteristic of Tor(N0, M) has a pole")
    return value


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


def _checked_prime(ring: RingLike, prime: Sequence[Polynomial]):
    """(the prime's polynomials, e(A/p)), off one presentation of A/p, once
    the weights are one and V(p) has dimension d - 1."""
    S = ring.ambient
    if any(w != 1 for w in S.weights):
        raise ValueError("local lengths require all weights equal to 1")
    prime = [S.parse(p) if isinstance(p, str) else p for p in prime]
    d = ring.dimension
    Ap = ModulePresentation.cyclic(ring, prime)
    if module_dimension(Ap) != d - 1:
        raise DimensionMismatch(
            f"V(p) has dimension {module_dimension(Ap)}, expected {d - 1}"
        )
    return prime, module_multiplicity(Ap)


def _local_length(M: ModulePresentation, prime: List[Polynomial], e_p: int) -> int:
    """The length of M at the prime p, for e_p = e(A/p).  With M = F/Q, the
    series of a piece is HS(F/(p^(i+1) F + Q)) - HS(F/(p^i F + Q)), and
    F/(p^i F + Q) is the cokernel of the row of degree-i products of p
    tensored with M, read by _cokernel_series."""
    if M.nrows == 0:
        return 0
    ring = M.ring
    S, d = ring.ambient, ring.dimension
    total = 0
    below: dict = {}  # HS(F/(p^0 F + Q)) = HS(0)
    for power in range(256):
        products = reduced_columns([_power_products(S, prime, power + 1)], ring)
        above = _cokernel_series(products, [0], M)
        order, e_piece = _series_at_one(_tpoly_axpy(dict(above), -1, 0, below))
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
) -> ClassExpression:
    """Divisor class sum_p l_p(M) [p] over the supplied height-one primes,
    each A/p built once; a name listed twice raises ValueError.

    The caller guarantees the list covers every top-dimensional component of
    the support; an additivity audit, sum_p l_p(M) e(A/p) = e(M) when M has
    dimension d - 1 >= 1, warns when one is missing."""
    ring = M.ring
    d = ring.dimension
    dim_m = module_dimension(M)
    if dim_m >= d:
        raise AlgebraError("module is not torsion: support has full dimension")
    coeffs = {}
    audit = 0
    for name, gens in candidate_primes:
        if name in coeffs:
            raise ValueError(f"prime {name!r} listed twice")
        prime, e_p = _checked_prime(ring, gens)
        coeffs[name] = _local_length(M, prime, e_p)
        audit += coeffs[name] * e_p
    if dim_m == d - 1 and d - 1 >= 1:
        e_m = module_multiplicity(M)
        if audit != e_m:
            warnings.warn(
                f"multiplicity audit failed: sum l_p e(A/p) = {audit} "
                f"but e(M) = {e_m}; a support component may be missing",
                MultiplicityAuditWarning,
            )
    return ClassExpression.of(coeffs)
