"""Exact coefficient fields, weighted-graded polynomials, and ring contexts.

Coefficients live in Q or in a prime field F_p.  A rational is stored as a
Python ``int`` when it is integral and as a reduced ``fractions.Fraction``
only when it is not, so integral coefficients never become Fractions; an
F_p element is stored as its least non-negative residue.  A term x^m e_comp
of a module vector is one int whose integer order is the term order,
position over weighted graded reverse lexicographic, reversed
(PolynomialRing._pack).  A Polynomial is a vector in component 0, so its
arithmetic is FieldSpec.axpy, the one packed vector arithmetic; exponent
tuples enter only through from_dict and leave only through printing.  A
hypersurface ring is an ambient polynomial ring together with a nonzero
weighted-homogeneous defining polynomial f with f in m^2.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import AlgebraError, CoefficientError, InhomogeneousError, ParseError


class _Infinite:
    """Sentinel for infinite lengths/counts."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


# Miller-Rabin to the bases 2, 3, ..., 41 (the first 13 primes) is exact
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; exact for p < PRIMALITY_BOUND."""
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: characteristic 0 means Q, p means F_p.  Its zero
    and one are the ints 0 and 1, and a caller subtracts by passing -c to
    axpy, which reduces modulo p (over Q, -c of a canonical value is
    canonical)."""

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= PRIMALITY_BOUND:
            raise ValueError(f"characteristic {p} is not below {PRIMALITY_BOUND}")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or prime, got {p}")

    def coerce(self, value: Union[int, Fraction]):
        p = self.characteristic
        if p == 0:
            return value if type(value) is int else _canonical(Fraction(value))
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise CoefficientError(
                    f"denominator {value.denominator} not invertible modulo {p}"
                )
            return value.numerator * pow(den, -1, p) % p
        return value % p

    def mul(self, a, b):
        return (a * b) % self.characteristic if self.characteristic else _canonical(a * b)

    def inv(self, a):
        p = self.characteristic
        if p:
            if a % p == 0:
                raise CoefficientError(f"0 is not invertible modulo {p}")
            return pow(a, -1, p)
        if a == 0:
            raise CoefficientError("division by zero")
        return _canonical(Fraction(1) / a)

    def axpy(self, v: dict, coeff, q: int, w: dict) -> None:
        """v + coeff * x^q * w on packed vectors, in place, dropping the
        terms that cancel; q is a packed quotient, so each product is t + q.
        The Groebner hot path: field arithmetic is inlined, not called."""
        p = self.characteristic
        if p:
            for t, c in w.items():
                u = t + q
                s = (v.get(u, 0) + coeff * c) % p
                if s:
                    v[u] = s
                else:
                    v.pop(u, None)
        else:
            for t, c in w.items():
                u = t + q
                s = v.get(u, 0) + coeff * c
                if not s:
                    v.pop(u, None)
                elif type(s) is int or s.denominator != 1:
                    v[u] = s
                else:
                    v[u] = s.numerator


def _canonical(q):
    """A rational as an int when it is integral, else as a reduced Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


Monomial = tuple  # exponent tuple, one entry per variable

# A packed term holds, from the top, the component, then
# MAX_PACKED_DEGREE - deg(m), then w_n * m_n, ..., w_1 * m_1, each field below
# the component _FIELD_BITS wide with its top bit a guard that a valid term
# keeps clear (w_i * m_i <= deg(m) <= MAX_PACKED_DEGREE).  A smaller int is
# then a larger term under position-over-term weighted grevlex, a product is
# a sum, and the exponent guards of t - u are clear exactly when u divides t
# (Monagan and Pearce, CASC 2007).  Since 2^_FIELD_BITS is 1 modulo
# _DEGREE_MODULUS, the degree of exponent bits e is e % _DEGREE_MODULUS,
# exact while it stays below _DEGREE_MODULUS, as for the lcm of two valid
# terms (at most 2 * MAX_PACKED_DEGREE).  With unit weights the fields are
# the exponents themselves.
_FIELD_BITS = 16
MAX_PACKED_DEGREE = (1 << (_FIELD_BITS - 1)) - 1
_DEGREE_MODULUS = (1 << _FIELD_BITS) - 1


def _term_degrees(v: dict, S: PolynomialRing):
    """The (component, weighted degree) of each term of the packed vector v,
    off its degree field."""
    comp_shift, deg_shift = S._comp_shift, S._deg_shift
    mask = (1 << (comp_shift - deg_shift)) - 1
    return [(t >> comp_shift, MAX_PACKED_DEGREE - ((t >> deg_shift) & mask)) for t in v]


class PolynomialRing:
    """Ambient weighted-graded polynomial ring k[x_1..x_n].  It answers as a
    ring with no modulus: it is its own ambient ring, f and its lead are
    None, its dimension is n, and it has no relations f * e_j to reduce by."""

    f = _f_lead = None

    def __init__(self, field: FieldSpec, variables: Iterable[str], weights=None):
        """The ring keeps only data it derives from itself (unpacked terms,
        monomial texts); a module keeps what is computed from it, bases too."""
        self.field = field
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        if not self.variables:
            raise ValueError("need at least one variable")
        if weights is None:
            weights = (1,) * len(self.variables)
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != len(self.variables):
            raise ValueError("one weight per variable required")
        if any(w <= 0 for w in self.weights):
            raise ValueError("weights must be positive")
        self.nvars = self.dimension = len(self.variables)
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        # packed terms, w_1 * m_1 in the lowest field
        self._exp_shifts = tuple(range(0, _FIELD_BITS * self.nvars, _FIELD_BITS))
        self._deg_shift = _FIELD_BITS * self.nvars
        self._exp_bits = (1 << self._deg_shift) - 1
        self._comp_shift = self._deg_shift + _FIELD_BITS
        self._exp_guards = sum(1 << (s + _FIELD_BITS - 1) for s in self._exp_shifts)
        self._deg_guard = 1 << (self._comp_shift - 1)
        self._terms = {}  # packed term -> (component, monomial), unpacked once
        self._one = self._pack(0, (0,) * self.nvars)  # the packed term 1 * e_0
        self._mono_texts = {}  # packed term in component 0 -> its text

    @property
    def ambient(self) -> "PolynomialRing":
        # a property, as an attribute holding self would be a reference cycle
        return self

    def _f_relations(self, rank: int) -> list:
        return []

    def _f_reducers(self, components) -> dict:
        return {}

    def mono_degree(self, m: Monomial) -> int:
        return sum(map(operator.mul, self.weights, m))

    # -- packed terms -------------------------------------------------------

    def _pack(self, comp: int, m: Monomial) -> int:
        """The term x^m e_comp as one int; AlgebraError above MAX_PACKED_DEGREE."""
        deg = self.mono_degree(m)
        if deg > MAX_PACKED_DEGREE:
            raise AlgebraError(f"a term of degree {deg} is above {MAX_PACKED_DEGREE}")
        return ((comp << self._comp_shift) + ((MAX_PACKED_DEGREE - deg) << self._deg_shift)
                + sum(map(operator.lshift, map(operator.mul, self.weights, m),
                          self._exp_shifts)))

    def _unpack(self, t: int):
        """The (component, exponent tuple) of a packed term."""
        term = self._terms.get(t)
        if term is None:
            mask = (1 << _FIELD_BITS) - 1
            term = self._terms[t] = (t >> self._comp_shift, tuple([
                ((t >> s) & mask) // w for s, w in zip(self._exp_shifts, self.weights)]))
        return term

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.coerce(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {self._one: c})

    def variable(self, name: str) -> "Polynomial":
        if name not in self._var_index:
            raise ParseError(f"unknown variable {name!r}")
        expo = [0] * self.nvars
        expo[self._var_index[name]] = 1
        return Polynomial(self, {self._pack(0, expo): 1})

    def from_dict(self, coeffs) -> "Polynomial":
        """The polynomial with the given coefficients of exponent tuples."""
        clean = {}
        for m, c in coeffs.items():
            if len(m) != self.nvars or min(m) < 0:
                raise ValueError(f"exponents {m} are not {self.nvars} non-negative integers")
            c = self.field.coerce(c)
            if c != 0:
                clean[self._pack(0, m)] = c
        return Polynomial(self, clean)

    # -- parsing / printing ------------------------------------------------

    def parse(self, text: str) -> "Polynomial":
        return _Parser(self, text).parse()

    def format(self, p: "Polynomial") -> str:
        return self.format_columns([p.coeffs], 1)[0][0]

    def format_columns(self, columns, rank: int) -> list:
        """The rank rows of entry texts of the matrix with the given packed
        columns, in one pass over each column's ascending packed terms, which
        list its entries by component, each entry's largest term first.  The
        text of each monomial is made once per ring."""
        comp_shift, texts = self._comp_shift, self._mono_texts
        low = (1 << comp_shift) - 1
        rows = [[[] for _v in columns] for _r in range(rank)]
        for k, v in enumerate(columns):
            for t in sorted(v):
                parts, c = rows[t >> comp_shift][k], v[t]
                body = texts.get(t & low)
                if body is None:
                    body = texts[t & low] = "*".join([
                        name if e == 1 else f"{name}^{e}"
                        for name, e in zip(self.variables, self._unpack(t & low)[1]) if e])
                if c < 0:
                    c, sign = -c, "- " if parts else "-"
                else:
                    sign = "+ " if parts else ""
                parts.append(sign + (f"{c}*{body}" if body and c != 1 else body or str(c)))
        return [[" ".join(parts) or "0" for parts in row] for row in rows]

    def __repr__(self):
        p = self.field.characteristic
        base = "QQ" if p == 0 else f"GF({p})"
        return f"{base}[{', '.join(self.variables)}]"


class Polynomial:
    """Canonical-form sparse polynomial: packed term in component 0 (see
    PolynomialRing._pack) -> nonzero coefficient.  The lead term is the
    smallest int, a product of terms is a sum less the packed 1, and the
    arithmetic is FieldSpec.axpy's; from_dict builds one from exponent
    tuples."""

    __slots__ = ("ring", "coeffs", "_hash")

    def __init__(self, ring: PolynomialRing, coeffs: dict):
        self.ring = ring
        self.coeffs = coeffs
        self._hash = None

    def is_zero(self) -> bool:
        return not self.coeffs

    def lead_coeff(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no lead term")
        return self.coeffs[min(self.coeffs)]

    def constant_coeff(self):
        return self.coeffs.get(self.ring._one, 0)

    def is_constant(self) -> bool:
        return not self.coeffs or list(self.coeffs) == [self.ring._one]

    def weighted_degree(self) -> int:
        """Common weighted degree of all terms; error if inhomogeneous."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        degs = {d for _comp, d in _term_degrees(self.coeffs, self.ring)}
        if len(degs) != 1:
            raise InhomogeneousError(
                f"terms have weighted degrees {sorted(degs)}"
            )
        return degs.pop()

    # -- arithmetic --------------------------------------------------------

    def _plus(self, coeff, other) -> "Polynomial":
        out = dict(self.coeffs)
        self.ring.field.axpy(out, coeff, 0, other.coeffs)
        return Polynomial(self.ring, out)

    def __add__(self, other):
        return self._plus(1, other)

    def __sub__(self, other):
        return self._plus(-1, other)

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        S, out = self.ring, {}
        if self.coeffs and other.coeffs:
            top = min(self.coeffs) + min(other.coeffs) - S._one  # the largest product
            if top & S._deg_guard:
                raise AlgebraError(f"a term of degree {(top & S._exp_bits) % _DEGREE_MODULUS}"
                                   f" is above {MAX_PACKED_DEGREE}")
        for t, c in self.coeffs.items():
            S.field.axpy(out, c, t - S._one, other.coeffs)
        return Polynomial(S, out)

    __rmul__ = __mul__

    def scale(self, c):
        c = self.ring.field.coerce(c)
        out: dict = {}
        if c != 0:
            self.ring.field.axpy(out, c, 0, self.coeffs)
        return Polynomial(self.ring, out)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring is other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), frozenset(self.coeffs.items())))
        return self._hash

    def __str__(self):
        return self.ring.format(self)

    def __repr__(self):
        return f"<{self}>"


# Schema cap: the parser expands powers, and (x+y)^40000 ran past 15 s.
MAX_EXPONENT = 64
# Schema cap: the parser recurses per parenthesis or unary minus, and 300
# nested parentheses overflowed Python's recursion limit.
MAX_NESTING = 64


class _Parser:
    """Recursive-descent parser for the polynomial text grammar.

    Grammar: integers, variable names, ``+ - * / ^ ( )`` with usual
    precedence; ``/`` only by a nonzero integer.
    """

    def __init__(self, ring: PolynomialRing, text: str):
        self.ring = ring
        self.text = text
        self.pos = 0
        self.depth = 0

    def parse(self) -> Polynomial:
        result = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected input at position {self.pos}: {self.text[self.pos:]!r}")
        return result

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expr(self) -> Polynomial:
        sign = 1
        ch = self._peek()
        if ch in "+-":
            self.pos += 1
            sign = -1 if ch == "-" else 1
        result = self._term()
        if sign < 0:
            result = -result
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                result = result + self._term()
            elif ch == "-":
                self.pos += 1
                result = result - self._term()
            else:
                return result

    def _term(self) -> Polynomial:
        result = self._power()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                result = result * self._power()
            elif ch == "/":
                self.pos += 1
                divisor = self._power()
                if not divisor.is_constant() or divisor.is_zero():
                    raise ParseError("division only by a nonzero integer")
                result = result.scale(self.ring.field.inv(divisor.constant_coeff()))
            else:
                return result

    def _power(self) -> Polynomial:
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exp = self._integer()
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent {exp} is above {MAX_EXPONENT}")
            result = self.ring.one()
            for _ in range(exp):
                result = result * base
            return result
        return base

    def _atom(self) -> Polynomial:
        ch = self._peek()
        if ch in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nesting depth is above {MAX_NESTING}")
            self.pos += 1
            if ch == "(":
                inner = self._expr()
                if self._peek() != ")":
                    raise ParseError("missing closing parenthesis")
                self.pos += 1
            else:
                inner = -self._atom()
            self.depth -= 1
            return inner
        if ch.isdigit():
            return self.ring.constant(self._integer())
        if ch.isalpha() or ch == "_":
            return self.ring.variable(self._name())
        raise ParseError(f"unexpected character {ch!r} at position {self.pos}")

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise ParseError(f"expected integer at position {start}")
        return int(self.text[start:self.pos])

    def _name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


class HypersurfaceRing:
    """Graded hypersurface ring A = S/(f) of dimension n - 1.

    f must be nonzero, weighted-homogeneous, lie in m^2 (every term of
    weighted degree >= 2 * min weight), and be of degree at most
    MAX_PACKED_DEGREE.
    """

    def __init__(self, ambient: PolynomialRing, f: Polynomial):
        if f.ring is not ambient:
            raise ValueError("f must live in the ambient ring")
        if f.is_zero():
            raise ValueError("f must be nonzero")
        deg = f.weighted_degree()  # raises InhomogeneousError if not graded
        if deg < 2 * min(ambient.weights):
            raise ValueError(
                f"f has weighted degree {deg} < 2*min(weights); not in m^2"
            )
        self.ambient = ambient
        self.f = f
        self.dimension = ambient.nvars - 1
        # f made monic, the one reducer modulo f, and its packed lead term
        self._f_packed = f.scale(ambient.field.inv(f.lead_coeff())).coeffs
        self._f_lead = min(self._f_packed)
        self._tjurina = None  # l(S/(f, df/dx_i)), filled by pairings._tjurina_number

    def _f_relation(self, j: int) -> dict:
        """The monic f * e_j, packed."""
        shift = j << self.ambient._comp_shift
        return {t + shift: c for t, c in self._f_packed.items()}

    def _f_relations(self, rank: int) -> list:
        """The monic f * e_j, j < rank, packed."""
        return [self._f_relation(j) for j in range(rank)]

    def _f_reducers(self, components) -> dict:
        """The reducers of the monic f * e_j, j in the given components, for
        a normal form modulo f of packed vectors."""
        comp_shift = self.ambient._comp_shift
        return {j: [(self._f_lead + (j << comp_shift), self._f_relation(j))] for j in components}

    @property
    def field(self):
        return self.ambient.field

    @property
    def variables(self):
        return self.ambient.variables

    @property
    def weights(self):
        return self.ambient.weights

    def __repr__(self):
        return f"{self.ambient!r}/({self.f})"


RingLike = Union[PolynomialRing, HypersurfaceRing]
