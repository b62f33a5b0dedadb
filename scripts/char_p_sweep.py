#!/usr/bin/env python3
"""Sweep small coefficient characteristics and tabulate the theta values of
the golden pairs, to see whether any of them are characteristic-dependent
(the A1 surface f = xy - z^2 is the interesting case in characteristic 2,
where f degenerates to a non-reduced-looking form xy + z^2 but is still a
valid hypersurface).

Usage: python3 scripts/char_p_sweep.py [p ...]   (default: 0 2 3 5)
"""

import sys

from thetacas import (
    FieldSpec,
    HypersurfaceRing,
    PolynomialRing,
    present_cyclic,
    theta,
)

CASES = [
    ("node", ["x", "y"], "x*y", [(["x"], ["y"]), (["x"], ["x"])]),
    (
        "A1 surface",
        ["x", "y", "z"],
        "x*y - z^2",
        [(["x", "z"], ["z", "y"]), (["x", "z"], ["x", "z"])],
    ),
    (
        "quadric",
        ["x", "y", "u", "v"],
        "x*y - u*v",
        [(["x", "u"], ["x", "v"]), (["x", "u"], ["x", "u"])],
    ),
]


def main(argv) -> int:
    chars = [int(a) for a in argv] or [0, 2, 3, 5]
    for label, variables, f, pairs in CASES:
        print(f"-- {label}: f = {f}")
        for p in chars:
            S = PolynomialRing(FieldSpec(p), variables)
            A = HypersurfaceRing(S, S.parse(f))
            values = []
            for left, right in pairs:
                M = present_cyclic(A, left)
                N = present_cyclic(A, right)
                try:
                    values.append(str(theta(M, N)))
                except Exception as exc:
                    values.append(type(exc).__name__)
            print(f"   char {p}: " + ", ".join(
                f"theta(A/({','.join(l)}), A/({','.join(r)})) = {v}"
                for (l, r), v in zip(pairs, values)
            ))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
