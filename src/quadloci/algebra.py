"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything downstream (degeneracy-locus classes, pushforward identities,
slope computations) reduces to exact arithmetic over the rationals, so this
module is deliberately floating-point free.

Representations
---------------
Variable   = (kind, index) tuple.  Kinds give the fixed global ordering used
             by the graded-lex term order; indices are ints for the root
             alphabets and strings for named parameters / formal symbols.
Monomial   = tuple of ((kind, index), exponent) pairs, sorted by variable,
             with no zero exponents.  The empty tuple is the unit monomial.
Polynomial = wrapper around {Monomial: coefficient}; zero coefficients are
             never stored, so structural equality is semantic equality.

Coefficients are `gmpy2.mpq` when available (exact, much faster) and
`fractions.Fraction` otherwise; both expose the same arithmetic surface.

Integer kernel
--------------
A rational operation costs a gcd, so the hot product avoids them:
`Polynomial.__mul__` scales each factor to integers by the lcm of its
coefficient denominators (`integer_scaled`), accumulates the products in
Python ints and divides once per output term.  A constant factor only
scales the other factor's coefficients.

Rational functions keep the invariant that a denominator is primitive (an
integer polynomial of content 1) with a positive graded-lex leading
coefficient, so a constant denominator is `1`, held as one shared
polynomial.  Only a denominator that comes from outside is normalized: the
public constructor, `/` and negative powers.  A sum, product, positive power
or negation forms its denominator as a product of stored ones, and that
product is already normal: by Gauss's lemma a product of primitive
polynomials is primitive, and the leading coefficient of a product is the
product of the leading coefficients (Knuth, TAOCP vol. 2, sec. 4.6.1).  Those
results skip the constructor.  `+`, `*` and `==` of two functions over `1`
act on the numerators alone, so polynomial-valued coefficients pay little
for being rational functions.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import factorial, gcd, lcm
from typing import Callable, Collection, Mapping, Sequence

try:  # gmpy2's mpq is a drop-in exact rational, ~5x faster than Fraction
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

_QQ_TYPE = type(QQ(0))


class AlgebraError(Exception):
    """Base class for algebra failures."""


class DivisionNotExact(AlgebraError):
    """Raised when polynomial division leaves a remainder."""


class DenominatorSurvives(AlgebraError):
    """Raised when a fraction sum expected to be polynomial is not."""


class NotSymmetric(AlgebraError):
    """Raised with a witnessing transposition when a symmetry check fails."""

    def __init__(self, message: str, transposition=None):
        super().__init__(message)
        self.transposition = transposition


# Variable kinds, in the fixed global order used by the term order.
ALPHA, BETA, GAMMA, XI, ZVAR, UVAR, TVAR, PARAM, SYM = range(9)

_KIND_NAMES = {
    ALPHA: "a", BETA: "b", GAMMA: "g", XI: "xi", ZVAR: "z",
    UVAR: "u", TVAR: "t", PARAM: "", SYM: "",
}

Variable = tuple  # (kind, index)


def alpha(i: int) -> Variable:
    return (ALPHA, i)


def beta(j: int) -> Variable:
    return (BETA, j)


def gamma_var(i: int) -> Variable:
    return (GAMMA, i)


def xi() -> Variable:
    return (XI, 0)


def zvar() -> Variable:
    return (ZVAR, 0)


def param(name: str) -> Variable:
    return (PARAM, name)


def sym(name: str) -> Variable:
    return (SYM, name)


def var_name(v: Variable) -> str:
    kind, idx = v
    if kind in (PARAM, SYM):
        return str(idx)
    if kind in (XI, ZVAR, TVAR):
        return _KIND_NAMES[kind]
    return "%s%s" % (_KIND_NAMES[kind], idx)


def _merge_exponents(m1, m2):
    """Merge two sorted monomials, adding exponents."""
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def monomial_degree(m) -> int:
    return sum(e for _, e in m)


def _grlex_key(m):
    """Sort key putting the graded-lex largest monomial first when sorted().

    Larger total degree wins; ties broken lexicographically with earlier
    variables and higher exponents first.
    """
    deg = monomial_degree(m)
    # negate exponents so that, variable by variable, a higher power sorts
    # as "smaller" key; missing variables are implicitly exponent 0.
    return (-deg, tuple((v, -e) for v, e in m))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                c = _exact(c)
                if c:
                    clean[m] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def const(c) -> "Polynomial":
        if type(c) is not _QQ_TYPE:
            c = _exact(c)
        return Polynomial._raw({(): c} if c else {})

    @staticmethod
    def variable(v: Variable) -> "Polynomial":
        return Polynomial({((v, 1),): QQ(1)})

    @staticmethod
    def _raw(terms: dict) -> "Polynomial":
        """Wrap an already-normalized dict without copying."""
        p = Polynomial.__new__(Polynomial)
        object.__setattr__(p, "terms", terms)
        return p

    # -- basic queries ------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(m == () for m in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get((), QQ(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(monomial_degree(m) for m in self.terms)

    def is_homogeneous(self, deg: int | None = None) -> bool:
        if not self.terms:
            return True
        degs = {monomial_degree(m) for m in self.terms}
        if len(degs) > 1:
            return False
        return deg is None or degs == {deg}

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading(self):
        """(monomial, coefficient) largest in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=_grlex_key)
        return m, self.terms[m]

    def coefficient_of(self, v: Variable, power: int) -> "Polynomial":
        """Coefficient of v**power, as a polynomial in the other variables."""
        out = {}
        for m, c in self.terms.items():
            e = dict(m).get(v, 0)
            if e == power:
                rest = tuple((w, k) for w, k in m if w != v)
                out[rest] = out.get(rest, QQ(0)) + c
        return Polynomial._raw({m: c for m, c in out.items() if c})

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        out = dict(big)
        for m, c in small.items():
            s = out.get(m)
            if s is None:
                out[m] = c
            else:
                s = s + c
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, _QQ_TYPE)):
            return self.scale(other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self, other
        if len(x.terms) > len(y.terms):
            x, y = y, x
        a, b = x.terms, y.terms
        if not a:
            return Polynomial._raw({})
        if len(a) == 1 and () in a:
            return y.scale(a[()])
        if len(b) == 1 and () in b:
            return x.scale(b[()])
        da, ia = integer_scaled(a.values())
        db, ib = integer_scaled(b.values())
        ib = list(zip(b, ib))
        out: dict = {}
        get = out.get
        for m1, c1 in zip(a, ia):
            for m2, c2 in ib:
                m = _merge_exponents(m1, m2)
                out[m] = get(m, 0) + c1 * c2
        d = da * db
        return Polynomial._raw({m: QQ(n, d) for m, n in out.items() if n})

    def scale(self, c):
        """c * self for a scalar c, without merging any monomials."""
        if not c:
            return Polynomial._raw({})
        if c == 1:
            return self
        q = c if type(c) is _QQ_TYPE else QQ(c)
        return Polynomial._raw({m: x * q for m, x in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, _QQ_TYPE)):
            return self.terms == Polynomial.const(other).terms
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, so that equal ints and QQ agree
        t = self.terms
        if not t:
            return 0
        if len(t) == 1 and () in t:
            return hash(t[()])
        return hash(frozenset(t.items()))

    def __reduce__(self):
        return (_poly_unpickle, (tuple(self.terms.items()),))

    def __bool__(self):
        return bool(self.terms)

    # -- substitution and evaluation -----------------------------------
    def substitute_poly(self, mapping: Mapping) -> "Polynomial":
        """Simultaneous substitution v -> Polynomial for v in mapping."""
        cache: dict = {}

        def power(v, e):
            key = (v, e)
            got = cache.get(key)
            if got is None:
                got = mapping[v] ** e
                cache[key] = got
            return got

        out = Polynomial.zero()
        for m, c in self.terms.items():
            piece = Polynomial.const(c)
            for v, e in m:
                if v in mapping:
                    piece = piece * power(v, e)
                else:
                    piece = piece * Polynomial._raw({((v, e),): QQ(1)})
            out = out + piece
        return out

    def evaluate(self, point: Mapping):
        """Evaluate at a rational point; every variable must be assigned."""
        total = QQ(0)
        for m, c in self.terms.items():
            val = c
            for v, e in m:
                val = val * point[v] ** e
            total += val
        return total

    def rename(self, mapping: Mapping) -> "Polynomial":
        """Substitute variables by variables (bijective on its support)."""
        out = {}
        for m, c in self.terms.items():
            m2 = tuple(sorted(((mapping.get(v, v), e) for v, e in m)))
            out[m2] = out.get(m2, QQ(0)) + c
        return Polynomial({m: c for m, c in out.items()})

    # -- exact division -------------------------------------------------
    def divide_exact(self, q: "Polynomial") -> "Polynomial":
        """Return p/q when q divides exactly; raise DivisionNotExact otherwise."""
        if q.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if q.is_constant():
            inv = QQ(1) / q.constant_value()
            return self * inv
        if self.is_zero():
            return Polynomial.zero()
        qm, qc = q.leading()
        quot: dict = {}
        rem = dict(self.terms)
        while rem:
            m = min(rem, key=_grlex_key)
            c = rem[m]
            mm = _monomial_div(m, qm)
            if mm is None:
                raise DivisionNotExact("leading term %s not divisible" % (m,))
            cc = c / qc
            quot[mm] = quot.get(mm, QQ(0)) + cc
            # rem -= cc * mm * q
            for m2, c2 in q.terms.items():
                key = _merge_exponents(mm, m2)
                s = rem.get(key, QQ(0)) - cc * c2
                if s:
                    rem[key] = s
                else:
                    rem.pop(key, None)
        return Polynomial({m: c for m, c in quot.items()})

    def content_normalized(self):
        """Return (primitive polynomial with positive leading coeff, scale).

        self == scale * primitive.
        """
        if self.is_zero():
            return self, QQ(1)
        _, lead = self.leading()
        coeffs = self.terms.values()
        g = gcd(*(int(c.numerator) for c in coeffs))
        l = lcm(*(int(c.denominator) for c in coeffs))
        scale = QQ(g, l) if lead > 0 else -QQ(g, l)
        inv = QQ(1) / scale
        return Polynomial._raw({m: c * inv for m, c in self.terms.items()}), scale

    # -- display --------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=_grlex_key):
            c = self.terms[m]
            mono = "*".join(
                var_name(v) + ("^%d" % e if e > 1 else "") for v, e in m
            )
            if mono:
                if c == 1:
                    bits.append(mono)
                elif c == -1:
                    bits.append("-" + mono)
                else:
                    bits.append("%s*%s" % (c, mono))
            else:
                bits.append(str(c))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    __repr__ = __str__


# the denominator of every RationalFunction whose value is a polynomial
_ONE = Polynomial._raw({(): QQ(1)})


def _poly_unpickle(items):
    return Polynomial._raw(dict(items))


def _exact(c):
    """QQ(c), refusing floats: a binary float is not the decimal it prints,
    so it has no place in exact arithmetic."""
    if type(c) is _QQ_TYPE:
        return c
    if isinstance(c, float):
        raise TypeError("float %r is not exact; pass an int, QQ or fraction" % c)
    return QQ(c)


def integer_scaled(coeffs: Collection):
    """(L, [L*c for c in coeffs]) with L the lcm of the denominators of the
    rationals in coeffs, so that every L*c is an int."""
    L = lcm(*(int(c.denominator) for c in coeffs))
    if L == 1:
        return 1, [int(c.numerator) for c in coeffs]
    return L, [int(c.numerator) * (L // int(c.denominator)) for c in coeffs]


def _coerce(x):
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, _QQ_TYPE)):
        return Polynomial.const(x)
    return NotImplemented


def _monomial_div(m, d):
    """m / d or None when some exponent would go negative."""
    dd = dict(m)
    for v, e in d:
        have = dd.get(v, 0) - e
        if have < 0:
            return None
        if have:
            dd[v] = have
        else:
            del dd[v]
    return tuple(sorted(dd.items()))


class RationalFunction:
    """Quotient of polynomials, normalized so den is primitive with
    positive graded-lex leading coefficient.  A constant den is therefore
    1, and it is always stored as the shared `_ONE`, so `den is _ONE`
    tells a polynomial value apart without comparing coefficients.

    Reduction is lazy: `reduce()` tries exact division of the numerator by
    the denominator.  Equality testing cross-multiplies, so unreduced
    representatives still compare correctly.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        if num is NotImplemented:
            raise TypeError("numerator must be a Polynomial, int or QQ")
        if den is None:
            den = _ONE
        elif not isinstance(den, Polynomial):
            den = Polynomial.const(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = _ONE
        elif den is not _ONE:
            prim, scale = den.content_normalized()
            if scale != 1:
                num = num * (QQ(1) / scale)
                den = prim
            if den.is_constant():
                den = _ONE
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    @staticmethod
    def _raw(num: Polynomial, den: Polynomial = _ONE) -> "RationalFunction":
        """Wrap a pair already in normal form, without normalizing: den is
        `_ONE` or a product of stored denominators, and `_ONE` when num is
        zero."""
        r = RationalFunction.__new__(RationalFunction)
        object.__setattr__(r, "num", num)
        object.__setattr__(r, "den", den if num.terms else _ONE)
        return r

    @staticmethod
    def const(c) -> "RationalFunction":
        return RationalFunction._raw(Polynomial.const(c))

    def constant_value(self):
        """The value of a constant, as `Polynomial.constant_value`;
        ValueError when the numerator or the denominator is not constant
        (`reduce` first to cancel a quotient such as 2x/x)."""
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den is _ONE

    def as_polynomial(self) -> Polynomial:
        reduced = self.reduce()
        if reduced.den is _ONE:
            return reduced.num
        raise DenominatorSurvives(
            "denominator %s does not cancel" % reduced.den
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return RationalFunction._raw(self.num + other.num)
        num = self.num * other.den + other.num * self.den
        return RationalFunction._raw(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return RationalFunction._raw(self.num * other.num)
        return RationalFunction._raw(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        if self.den is _ONE or n == 0:
            return RationalFunction._raw(self.num ** n)
        return RationalFunction._raw(self.num ** n, self.den ** n)

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # a polynomial value hashes as its numerator, like the Polynomial
        r = self.reduce()
        if r.den is _ONE:
            return hash(r.num)
        return hash((r.num, r.den))

    # -- reduction -----------------------------------------------------
    def reduce(self) -> "RationalFunction":
        if self.den is _ONE:
            return self
        try:
            return RationalFunction._raw(self.num.divide_exact(self.den))
        except DivisionNotExact:
            return self

    def substitute(self, mapping: Mapping) -> "RationalFunction":
        num = substitute(self.num, mapping)
        den = substitute(self.den, mapping)
        return num / den

    def __str__(self):
        if self.den is _ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction._raw(x)
    if isinstance(x, (int, _QQ_TYPE)):
        return RationalFunction._raw(Polynomial.const(x))
    return NotImplemented


# ---------------------------------------------------------------------------
# the four module operations
# ---------------------------------------------------------------------------

def exact_divide(p: Polynomial, q: Polynomial) -> Polynomial:
    """p/q with the guarantee r*q == p; DivisionNotExact otherwise."""
    return p.divide_exact(q)


def substitute(p: Polynomial, mapping: Mapping) -> RationalFunction:
    """Simultaneous substitution of variables by rational functions.

    Variables absent from the mapping are left alone.  When every image is
    polynomial this stays in the polynomial fast path.
    """
    if not mapping:
        return RationalFunction(p)
    poly_map = {}
    all_poly = True
    for v, val in mapping.items():
        if isinstance(val, Polynomial):
            poly_map[v] = val
        elif isinstance(val, RationalFunction):
            if val.is_polynomial():
                poly_map[v] = val.as_polynomial()
            else:
                all_poly = False
                break
        else:
            poly_map[v] = Polynomial.const(val)
    if all_poly:
        return RationalFunction(p.substitute_poly(poly_map))
    rf_map = {
        v: (val if isinstance(val, RationalFunction) else _coerce_rf(val))
        for v, val in mapping.items()
    }
    cache: dict = {}

    def power(v, e):
        key = (v, e)
        if key not in cache:
            cache[key] = rf_map[v] ** e
        return cache[key]

    total = RationalFunction.const(0)
    for m, c in p.terms.items():
        piece = RationalFunction.const(c)
        for v, e in m:
            if v in rf_map:
                piece = piece * power(v, e)
            else:
                piece = piece * RationalFunction(Polynomial._raw({((v, e),): QQ(1)}))
        total = total + piece
    return total.reduce()


def sum_fractions(terms: Sequence[RationalFunction]) -> Polynomial:
    """Exact sum of rational functions, asserted to be a polynomial.

    Raises DenominatorSurvives when the final denominator does not divide
    the numerator.
    """
    if not terms:
        raise ValueError("sum_fractions needs at least one term")
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    result = total.reduce()
    if not result.is_polynomial():
        raise DenominatorSurvives(
            "fraction sum is not polynomial; residual denominator %s"
            % result.den
        )
    return result.as_polynomial()


def symmetric_reduce(
    p: Polynomial,
    kind: int,
    n: int | None = None,
    symbol: Callable[[int], Variable] | None = None,
) -> Polynomial:
    """Rewrite p in the elementary symmetric symbols of one root alphabet.

    `kind` selects the alphabet (ALPHA, BETA, ...); `n` is the number of
    roots (default: largest index present).  Other variables pass through
    untouched.  The output uses symbol(i) for the i-th elementary symmetric
    polynomial; by default SYM variables named like "e1(a)".

    Raises NotSymmetric with a witnessing transposition if p is not
    invariant under the alphabet's adjacent transpositions.
    """
    alphabet = sorted(v for v in p.variables() if v[0] == kind)
    if n is None:
        n = max((v[1] for v in alphabet), default=0)
    roots = [(kind, i) for i in range(1, n + 1)]
    if symbol is None:
        tag = _KIND_NAMES.get(kind, "x")
        symbol = lambda i: sym("e%d(%s)" % (i, tag))  # noqa: E731

    if not is_symmetric(p, kind, n):
        # the adjacent transpositions generate S_n, so one of them moves p
        for i in range(len(roots) - 1):
            swap = {roots[i]: roots[i + 1], roots[i + 1]: roots[i]}
            if p.rename(swap) != p:
                raise NotSymmetric(
                    "not symmetric under swap of %s and %s"
                    % (var_name(roots[i]), var_name(roots[i + 1])),
                    transposition=(roots[i], roots[i + 1]),
                )

    # split monomials into alphabet part and passenger part
    groups: dict = {}
    for m, c in p.terms.items():
        inside = tuple((v, e) for v, e in m if v[0] == kind)
        outside = tuple((v, e) for v, e in m if v[0] != kind)
        groups.setdefault(outside, {})[inside] = c

    # the leading-exponent descent only uses e_k for k up to the largest
    # degree in the alphabet of any monomial
    top = max((monomial_degree(inside) for g in groups.values() for inside in g),
              default=0)
    elem = [None] + [_elementary(roots, i) for i in range(1, min(n, top) + 1)]
    out = Polynomial.zero()
    for outside, inner_terms in groups.items():
        reduced = _reduce_symmetric_part(
            Polynomial(inner_terms), roots, elem, symbol
        )
        out = out + reduced * Polynomial._raw({outside: QQ(1)})
    return out


def is_symmetric(p: Polynomial, kind: int, n: int) -> bool:
    """Whether p is invariant under every permutation of the roots
    (kind, 1)..(kind, n), decided in one pass over its terms.

    The terms are grouped by their passenger part (every other variable)
    and their sorted root exponents.  p is symmetric exactly when each
    group holds one coefficient and the whole orbit of n!/prod(mult!)
    exponent vectors, the multiplicities counting the zero exponents."""
    roots = {(kind, i) for i in range(1, n + 1)}
    groups: dict = {}
    for m, c in p.terms.items():
        inside = tuple(sorted((e for v, e in m if v in roots), reverse=True))
        outside = tuple((v, e) for v, e in m if v not in roots)
        seen = groups.get((outside, inside))
        if seen is None:
            groups[(outside, inside)] = [c, 1]
        elif seen[0] != c:
            return False
        else:
            seen[1] += 1
    for (_, inside), (_, count) in groups.items():
        orbit = factorial(n) // factorial(n - len(inside))
        for mult in Counter(inside).values():
            orbit //= factorial(mult)
        if count != orbit:
            return False
    return True


def _elementary(roots: Sequence[Variable], k: int) -> Polynomial:
    terms = {}
    for combo in itertools.combinations(roots, k):
        terms[tuple((v, 1) for v in combo)] = QQ(1)
    return Polynomial._raw(terms)


def _reduce_symmetric_part(p, roots, elem, symbol):
    """Classic elementary-symmetric rewriting by leading-exponent descent."""
    n = len(roots)
    out = Polynomial.zero()
    while not p.is_zero():
        m, c = p.leading()
        exps = dict(m)
        lam = [exps.get(v, 0) for v in roots]
        if any(lam[i] < lam[i + 1] for i in range(n - 1)):
            raise NotSymmetric("leading exponent vector not dominant: %s" % (m,))
        sym_mono = Polynomial.const(c)
        correction = Polynomial.const(c)
        for i in range(n):
            e = lam[i] - (lam[i + 1] if i + 1 < n else 0)
            if e:
                sym_mono = sym_mono * Polynomial.variable(symbol(i + 1)) ** e
                correction = correction * elem[i + 1] ** e
        out = out + sym_mono
        p = p - correction
    return out


def expand_symmetric(p: Polynomial, kind: int, n: int,
                     symbol: Callable[[int], Variable] | None = None) -> Polynomial:
    """Inverse of symmetric_reduce: substitute e_i symbols by root expansions.

    Only the symbols that occur in p are expanded."""
    if symbol is None:
        tag = _KIND_NAMES.get(kind, "x")
        symbol = lambda i: sym("e%d(%s)" % (i, tag))  # noqa: E731
    roots = [(kind, i) for i in range(1, n + 1)]
    present = p.variables()
    mapping = {
        symbol(i): _elementary(roots, i)
        for i in range(1, n + 1)
        if symbol(i) in present
    }
    return p.substitute_poly(mapping)
