"""Exact commutative-algebra kernel for stable Tor pairings over graded
hypersurface rings: Groebner bases, minimal resolutions, matrix
factorizations, theta/chi pairings, divisor classes, and Gram analysis."""

__version__ = "0.1.0"

from .ring import (
    INFINITE,
    FieldSpec,
    HypersurfaceRing,
    Polynomial,
    PolynomialRing,
)
from .homology import (
    MatrixFactorization,
    ModulePresentation,
    Resolution,
    extract_matrix_factorization,
    minimal_resolution,
    present_cyclic,
    tor_length,
)
from .pairings import (
    ClassExpression,
    FreeComplex,
    c1_torsion,
    chi_complex,
    chi_modules,
    finite_pd,
    length,
    theta,
    theta_class,
)
from .numeq import GramReport, conjecture_report, gram_matrix, kernel_basis, signature

__all__ = [
    "INFINITE",
    "FieldSpec",
    "HypersurfaceRing",
    "Polynomial",
    "PolynomialRing",
    "MatrixFactorization",
    "ModulePresentation",
    "Resolution",
    "extract_matrix_factorization",
    "minimal_resolution",
    "present_cyclic",
    "tor_length",
    "ClassExpression",
    "FreeComplex",
    "c1_torsion",
    "chi_complex",
    "chi_modules",
    "finite_pd",
    "length",
    "theta",
    "theta_class",
    "GramReport",
    "conjecture_report",
    "gram_matrix",
    "kernel_basis",
    "signature",
]
