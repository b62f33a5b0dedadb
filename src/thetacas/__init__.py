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
    parse_polynomial,
    ring_dimension,
    weighted_degree,
)
from .homology import (
    MatrixFactorization,
    ModulePresentation,
    Resolution,
    dual_module,
    ext_module,
    extract_matrix_factorization,
    minimal_resolution,
    present_cyclic,
    syzygy_of,
    tor_length,
)
from .pairings import (
    ClassExpression,
    DivisorClass,
    FreeComplex,
    c1_torsion,
    chi_complex,
    chi_modules,
    finite_pd,
    koszul_complex,
    length,
    local_length_at_prime,
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
    "parse_polynomial",
    "ring_dimension",
    "weighted_degree",
    "MatrixFactorization",
    "ModulePresentation",
    "Resolution",
    "dual_module",
    "ext_module",
    "extract_matrix_factorization",
    "minimal_resolution",
    "present_cyclic",
    "syzygy_of",
    "tor_length",
    "ClassExpression",
    "DivisorClass",
    "FreeComplex",
    "c1_torsion",
    "chi_complex",
    "chi_modules",
    "finite_pd",
    "koszul_complex",
    "length",
    "local_length_at_prime",
    "theta",
    "theta_class",
    "GramReport",
    "conjecture_report",
    "gram_matrix",
    "kernel_basis",
    "signature",
]
