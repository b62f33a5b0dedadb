"""Independent routes to lengths, kept as test oracles for the Hilbert-series
route of the kernel: a staircase count of standard monomials, and Tor as
the homology of the tensored resolution, counted on that staircase."""

import itertools

from thetacas import INFINITE, minimal_resolution
from thetacas.groebner import lead_module
from thetacas.homology import complex_homology
from thetacas.ring import mono_divides


def staircase_count(G):
    """Number of standard monomial symbols outside the lead module, or INFINITE."""
    n = G.ring.nvars
    total = 0
    for _comp, gens in lead_module(G).items():
        if any(g == (0,) * n for g in gens):
            continue  # component entirely in the lead module
        bounds = []
        for i in range(n):
            pure = [g[i] for g in gens if all(e == 0 for j, e in enumerate(g) if j != i)]
            if not pure:
                return INFINITE
            bounds.append(min(pure))
        for point in itertools.product(*(range(b) for b in bounds)):
            if not any(mono_divides(g, point) for g in gens):
                total += 1
    return total


def tensored_homology(res, N, i):
    """H_i(F (x) N) for a resolution F, 0 <= i < res.length, presented as a
    subquotient."""
    diff_cols = [res.differential_columns(k) for k in range(1, i + 2)]
    return complex_homology(res.ring, diff_cols, res.betti[: i + 2], N, i)


def homology_tor_length(M, N, i):
    """Length of Tor_i(M, N) = H_i(F (x) N) for the minimal resolution F of
    M, counted on the staircase of the homology's presentation."""
    H = tensored_homology(minimal_resolution(M, i + 1), N, i)
    return staircase_count(H.presentation_gb())
