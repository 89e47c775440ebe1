"""Exact sparse multivariate polynomial and rational-function arithmetic.

Everything downstream (degeneracy-locus classes, pushforward identities,
slope computations) reduces to exact arithmetic over the rationals, so this
module is deliberately floating-point free.

Representations
---------------
Variable   = (kind, index) tuple.  Kinds give the fixed global ordering used
             by the graded-lex term order; indices are ints for the root
             alphabets and strings for named parameters / formal symbols.
Monomial   = one packed int, its key (see "Packed monomials"); 0 is 1.
Polynomial = {key: nonzero int} numerators over one positive int
             denominator, in lowest terms, so structural equality is
             semantic equality.

Rationals at the boundary are `fractions.Fraction` values, named `QQ`.

Packed monomials
----------------
A registry gives each variable, on its first use, a 16-bit slot of the key
holding its exponent, so a product of monomials is the sum of their keys:
`*`, `**`, `divide_exact` and the graded arrays of `loci` all run in one
loop, `_mul_into`.  A slot's top bit is a guard: `_nonzero` ANDs each
product term with the guard bits, so an exponent of 2^15 raises
ExponentOverflow before a slot can carry into the next.  Slots differ
between processes: `terms`, `str`, `leading`, `content_normalized`'s sign,
`evaluate` and pickling decode a key to its sorted (variable, exponent)
pairs, in their graded-lex order; `divide_exact` leads with the largest key,
and the screen of a trial division sums a key's slots.

Integer kernel
--------------
A rational operation costs a gcd per coefficient, so a polynomial keeps
none: it is the content/primitive-part form of Knuth, TAOCP vol. 2,
sec. 4.6.1, with gcd(denominator, all numerators) = 1.  `+`, `-`, `*`,
`scale`, `coefficient_of`, `rename`, `substitute_poly` and
`content_normalized` work on Python ints and normalize once per result, with
one `math.gcd` over the denominator and the numerators; `**` needs none, as a
power of numerators prime to the denominator stays prime to its power.  QQ
values appear only at the boundary: the `terms` view, `constant_value`,
`leading`, `evaluate` and `str` over a denominator other than 1.

`substitute_poly` is the one substitution: it puts polynomials in for
variables at once.  Nothing substitutes rational functions; `evaluate` puts
numbers in, and a rational function's value is its numerator's over its
denominator's.  So `moduli` derives a class that takes no request input
once, at a symbolic parameter (the series slopes by Horner in
`RationalFunction` arithmetic), and evaluates it at each integer request.

`divide_exact` divides the integer numerator by the primitive part of the
divisor, over Z.  By Gauss's lemma a primitive q divides p over Q exactly
when it divides p's integer numerator over Z, so every quotient coefficient
is an int, and the first leading coefficient that does not divide ends a
failed division.

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

A rational function reduces where it is formed, by one rule, `_divided`:
a result whose denominator divides its numerator is stored as the quotient
over `1`.  The constructor, `*` and a sum of two functions not over `1` try
the division; a sum (a*d + b)/d with one side over `1`, a product with a
constant (a unit over Q), and a power d^n | a^n divide only when d | a, so
they skip it.  No stored denominator divides its numerator, and
`den is _ONE`, `constant_value`, `as_polynomial` and `hash` read the
stored pair.

A trial division is screened first.  Evaluation at every variable = 64 is
a ring map to Z, so if the primitive den divides num's integer numerator
over Z (Gauss's lemma, as for `divide_exact`), den's value divides the
numerator's; a nonzero value of den that does not divide rules the
division out, and it is not tried.  The screen is sound because each
value is exact: a key's total degree is the sum of its slots, read one slot
at a time, never the key modulo 2^16 - 1, which wraps at degree 65535.

Keys compared as ints are a lex monomial order, as the guard bits stop any
carry, and under a monomial order the leading term of a product is the
product of the leading terms.  So n*d' == n'*d gives the one ratio
lead(n)/lead(d) for every pair (n, d) of a value: `hash` needs no gcd.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction as QQ
from functools import reduce
from math import factorial, gcd, lcm
from operator import or_
from typing import Callable, Mapping, Sequence

class AlgebraError(Exception):
    """Base class for algebra failures."""


class DivisionNotExact(AlgebraError):
    """Raised when polynomial division leaves a remainder."""


class DenominatorSurvives(AlgebraError):
    """Raised when a fraction sum expected to be polynomial is not."""


class ExponentOverflow(AlgebraError):
    """Raised when an exponent would pass 2^15 - 1 (see "Packed monomials")."""


class NotSymmetric(AlgebraError):
    """Raised with a witnessing transposition when a symmetry check fails."""

    def __init__(self, message: str, transposition=None):
        super().__init__(message)
        self.transposition = transposition


class FrozenDict(dict):
    """A dict that refuses every write with TypeError: the one mapping type
    a library value exposes.  `.copy()` gives a plain dict at dict speed."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("%s is read-only" % type(self).__name__)

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return FrozenDict, (dict(self),)


# Variable kinds, in the fixed global order used by the term order.
ALPHA, BETA, GAMMA, XI, ZVAR, PARAM, SYM = range(7)

_KIND_NAMES = {
    ALPHA: "a", BETA: "b", GAMMA: "g", XI: "xi", ZVAR: "z", PARAM: "", SYM: "",
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
    if kind in (XI, ZVAR):
        return _KIND_NAMES[kind]
    return "%s%s" % (_KIND_NAMES[kind], idx)


def monomial_str(m) -> str:
    """A monomial as `str` prints it: its variables joined by *, each with
    ^e when e > 1; "" for the monomial 1."""
    return "*".join(var_name(v) + ("^%d" % e if e > 1 else "") for v, e in m)


_WIDTH = 16
_SLOT = (1 << _WIDTH) - 1
_SHIFTS: dict = {}  # Variable -> the offset of its slot
_VARS: list = []  # slot number -> Variable
_GUARD = 0  # the guard bit of every assigned slot


def _key(v: Variable, e: int = 1) -> int:
    """The packed monomial v^e, giving v a slot on its first use."""
    global _GUARD
    s = _SHIFTS.get(v)
    if s is None:
        s = _SHIFTS[v] = _WIDTH * len(_VARS)
        _VARS.append(v)
        _GUARD |= 1 << (s + _WIDTH - 1)
    if e >> (_WIDTH - 1):
        raise ExponentOverflow("exponent %d of %s is not in 0..32767" % (e, var_name(v)))
    return e << s


def _decode(k: int) -> tuple:
    """The packed monomial k as sorted (variable, exponent) pairs, jumping
    from its top set bit to the next."""
    out = []
    while k:
        s = k.bit_length() - 1 & -_WIDTH
        e = k >> s
        out.append((_VARS[s // _WIDTH], e))
        k ^= e << s
    out.sort()
    return tuple(out)


def _slot_mask(variables) -> int:
    """The slots of the distinct `variables`; one with no slot is in no key."""
    return sum(_SLOT << _SHIFTS[v] for v in variables if v in _SHIFTS)


def _split(num: dict, mask: int) -> dict:
    """{k & mask: {k & ~mask: c}} for the terms k: c of num (pass ~mask to
    group by the part outside the slots of mask)."""
    groups: dict = {}
    for k, c in num.items():
        groups.setdefault(k & mask, {})[k & ~mask] = c
    return groups


def _mul_into(acc: dict, x: dict, y: dict, scale: int = 1) -> dict:
    """acc += scale * x * y, for dicts from packed monomials to ints: the
    library's one product loop.  `_nonzero` checks its terms."""
    if len(x) > len(y):  # the shorter outer loop
        x, y = y, x
    get = acc.get
    for kx, vx in x.items():
        vx *= scale
        for ky, vy in y.items():
            k = kx + ky
            acc[k] = get(k, 0) + vx * vy
    return acc


def _nonzero(acc: dict) -> dict:
    """acc without its zero terms; ExponentOverflow when a term has set a
    guard bit, that is when an exponent reached 2^15."""
    out = {k: v for k, v in acc.items() if v}
    guard = _GUARD
    for k in out:
        if k & guard:
            raise ExponentOverflow("a product has an exponent past 32767")
    return out


def _graded(num: dict) -> list:
    """A (sort key, decoded monomial, numerator) row per term of num, the
    graded-lex largest row least: larger total degree first, ties broken on
    the sorted pairs with earlier variables and higher exponents first."""
    out = []
    for k, c in num.items():
        neg, t = [], 0
        while k:  # the loop of `_decode`, with the exponents negated and summed
            s = k.bit_length() - 1 & -_WIDTH
            e = k >> s
            neg.append((_VARS[s // _WIDTH], -e))
            t -= e
            k ^= e << s
        neg.sort()
        out.append(((t, neg), tuple([(v, -e) for v, e in neg]), c))
    return out


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, stored
    as nonzero int numerators over one positive int denominator, in lowest
    terms (see "Integer kernel" above)."""

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping | None = None):
        exact = ((m, _exact(c)) for m, c in (terms or {}).items())
        coeffs = {sum(_key(v, e) for v, e in m): c for m, c in exact if c}
        # the lcm of reduced denominators shares no prime with every numerator
        den = lcm(*(c.denominator for c in coeffs.values()))
        _set_num(self, {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()})
        _set_den(self, den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")
    __delattr__ = __setattr__

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial._make({})

    @staticmethod
    def const(c) -> "Polynomial":
        if type(c) is int:
            return Polynomial._make({0: c} if c else {})
        c = _exact(c)
        return Polynomial._make({0: int(c.numerator)} if c else {}, int(c.denominator))

    @staticmethod
    def variable(v: Variable) -> "Polynomial":
        return Polynomial._make({_key(v): 1})

    @staticmethod
    def _make(num: dict, den: int = 1) -> "Polynomial":
        """Wrap nonzero int numerators over den > 0, already in lowest
        terms, without copying."""
        p = _new(Polynomial)
        _set_num(p, num)
        _set_den(p, den)
        return p

    @staticmethod
    def _normal(num: dict, den: int) -> "Polynomial":
        """num/den in lowest terms, for nonzero int numerators and den > 0:
        the one gcd of a result."""
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        return Polynomial._make(num, den)

    # -- basic queries ------------------------------------------------
    @property
    def terms(self) -> dict:
        """A fresh {decoded monomial: QQ coefficient} dict."""
        d = self._den
        return {_decode(k): QQ(n, d) for k, n in self._num.items()}

    def is_zero(self) -> bool:
        return not self._num

    def is_constant(self) -> bool:
        n = self._num
        return not n or (len(n) == 1 and 0 in n)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return QQ(self._num.get(0, 0), self._den)

    def variables(self) -> set:
        # a slot of the union of the keys is nonzero when a term uses it
        return {v for v, _ in _decode(reduce(or_, self._num, 0))}

    def leading(self):
        """(monomial, coefficient) largest in graded-lex order."""
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        _, m, c = min(_graded(self._num))
        return m, QQ(c, self._den)

    def coefficient_of(self, v: Variable, power: int) -> "Polynomial":
        """Coefficient of v**power, as a polynomial in the other variables."""
        s = _key(v).bit_length() - 1
        out = {k - (power << s): c for k, c in self._num.items() if k >> s & _SLOT == power}
        return Polynomial._normal(out, self._den)

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (a, da), (b, db) = (self._num, self._den), (other._num, other._den)
        if len(a) < len(b):
            a, da, b, db = b, db, a, da
        den = da if da == db else lcm(da, db)
        out = dict(a) if den == da else {m: c * (den // da) for m, c in a.items()}
        k = den // db
        for m, c in b.items():
            s = out.get(m, 0) + c * k
            if s:
                out[m] = s
            else:
                del out[m]
        return Polynomial._normal(out, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._make({m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if _is_scalar(other):
                return self.scale(other)
            return NotImplemented
        x, y = self, other
        if len(x._num) > len(y._num):
            x, y = y, x
        a, b = x._num, y._num
        if not a:
            return x
        if len(a) == 1 and 0 in a:
            return y._scaled(a[0], x._den)
        if len(b) == 1 and 0 in b:
            return x._scaled(b[0], y._den)
        return Polynomial._normal(_nonzero(_mul_into({}, a, b)), x._den * y._den)

    def scale(self, c):
        """c * self for a scalar c, without merging any monomials."""
        if type(c) is not int:
            c = _exact(c)
        if not c:
            return Polynomial._make({})
        if c == 1:
            return self
        if type(c) is int:
            return self._scaled(c, 1)
        return self._scaled(c.numerator, c.denominator)

    def _scaled(self, n: int, d: int) -> "Polynomial":
        """self * n/d for ints n != 0 and d > 0."""
        return Polynomial._normal({m: c * n for m, c in self._num.items()}, self._den * d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n >> (_WIDTH - 1) and not self.is_constant():
            raise ExponentOverflow("power %d of a nonconstant polynomial passes 32767" % n)
        # a power of a numerator prime to den is prime to den**n (Gauss's
        # lemma), so the result needs no gcd
        num, base, k = {0: 1}, self._num, n
        while k:
            if k & 1:
                num = _nonzero(_mul_into({}, num, base))
            k >>= 1
            if k:
                base = _nonzero(_mul_into({}, base, base))
        return Polynomial._make(num, self._den ** n)

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self._den == other._den and self._num == other._num
        if _is_scalar(other):
            return self == Polynomial.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, so that equal ints and QQ agree
        n = self._num
        if not n:
            return 0
        if len(n) == 1 and 0 in n:
            return hash(QQ(n[0], self._den))
        return hash((frozenset(n.items()), self._den))

    def __reduce__(self):
        # slots differ between processes; the decoded terms do not
        return (Polynomial, (self.terms,))

    def __bool__(self):
        return bool(self._num)

    # -- substitution and evaluation -----------------------------------
    def substitute_poly(self, mapping: Mapping) -> "Polynomial":
        """Simultaneous substitution v -> Polynomial for v in mapping."""
        powers: dict = {}
        out = Polynomial._make({})
        for sub, rest in _split(self._num, _slot_mask(mapping)).items():
            piece = Polynomial._make(rest)
            for v, e in _decode(sub):
                if (v, e) not in powers:
                    powers[v, e] = mapping[v] ** e
                piece = piece * powers[v, e]
            out = out + piece
        return out._scaled(1, self._den)

    def evaluate(self, point: Mapping):
        """Evaluate at a rational point; every variable must be assigned."""
        x = {_SHIFTS[v]: point[v] for v, _ in _decode(reduce(or_, self._num, 0))}
        total = 0
        for k, c in self._num.items():
            while k:  # the loop of `_decode`, with no pairs to sort
                s = k.bit_length() - 1 & -_WIDTH
                e = k >> s
                c *= x[s] ** e
                k ^= e << s
            total += c
        return QQ(total) / self._den

    def rename(self, mapping: Mapping) -> "Polynomial":
        """Substitute variables by variables (bijective on its support)."""
        out = {}
        for k, c in self._num.items():
            k2 = sum(_key(mapping.get(v, v), e) for v, e in _decode(k))
            out[k2] = out.get(k2, 0) + c
        return Polynomial._normal({k: c for k, c in out.items() if c}, self._den)

    # -- exact division -------------------------------------------------
    def divide_exact(self, q: "Polynomial") -> "Polynomial":
        """Return p/q when q divides exactly; raise DivisionNotExact otherwise.

        The division runs on ints: p's numerator is divided by the
        primitive part of q's, and a leading coefficient that does not
        divide ends it (Gauss's lemma, see "Integer kernel" above).  The
        largest key leads (see "Packed monomials")."""
        qnum = q._num
        if not qnum:
            raise ZeroDivisionError("division by zero polynomial")
        if q.is_constant():
            n = qnum[0]
            return self._scaled(q._den, n) if n > 0 else self._scaled(-q._den, -n)
        if not self._num:
            return self
        content = gcd(*qnum.values())
        if content != 1:
            qnum = {m: c // content for m, c in qnum.items()}
        qm = max(qnum)
        tail = dict(qnum)
        qc = tail.pop(qm)
        quot: dict = {}
        rem = dict(self._num)
        while rem:
            m = max(rem)
            c = rem.pop(m)
            if not c:  # a cancelled term, left by _mul_into
                continue
            # a slot that would go negative clears its guard bit instead of
            # borrowing; an exact division leaves no exponent of 2^15
            mm = (m | _GUARD) - qm
            cc, r = divmod(c, qc)
            if r or m & _GUARD or mm & _GUARD != _GUARD:
                raise DivisionNotExact("leading term %s not divisible" % (_decode(m),))
            mm ^= _GUARD
            quot[mm] = cc
            _mul_into(rem, {mm: -cc}, tail)  # rem -= cc * mm * (q - its leading term)
        # p / q = (quot / p._den) / (content / q._den)
        return Polynomial._normal({m: c * q._den for m, c in quot.items()},
                                  self._den * content)

    def content_normalized(self):
        """Return (primitive polynomial with positive leading coeff, scale).

        self == scale * primitive.
        """
        if not self._num:
            return self, QQ(1)
        g = gcd(*self._num.values())
        if min(_graded(self._num))[2] < 0:
            g = -g
        prim = Polynomial._make({m: c // g for m, c in self._num.items()})
        return prim, QQ(g, self._den)

    # -- display --------------------------------------------------------
    def __str__(self):
        if not self._num:
            return "0"
        d = self._den
        bits = []
        for _, m, n in sorted(_graded(self._num)):
            c = n if d == 1 else QQ(n, d)  # an int prints as QQ(n, 1) does
            mono = monomial_str(m)
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


# results are built through the slots' own setters, past the immutability
# guard of __setattr__ and without its name lookup
_new = object.__new__
_set_num, _set_den = Polynomial._num.__set__, Polynomial._den.__set__

# the denominator of every RationalFunction whose value is a polynomial
_ONE = Polynomial._make({0: 1})


def _exact(c):
    """QQ(c), refusing floats and bools: a binary float is not the decimal
    it prints, so it has no place in exact arithmetic, and a bool is a truth
    value, not the number 0 or 1."""
    if type(c) is QQ:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError("%s %r is no exact number; pass an int, QQ or fraction"
                        % (type(c).__name__, c))
    return QQ(c)


def _is_scalar(x) -> bool:
    """An int or QQ that operators take as a number; a bool is neither."""
    return isinstance(x, (int, QQ)) and type(x) is not bool


def _coerce(x):
    if isinstance(x, Polynomial):
        return x
    if _is_scalar(x):
        return Polynomial.const(x)
    return NotImplemented


class RationalFunction:
    """Quotient of polynomials, normalized so den is primitive with
    positive graded-lex leading coefficient.  A constant den is therefore
    1, and it is always stored as the shared `_ONE`, so `den is _ONE`
    tells a polynomial value apart without comparing coefficients.

    A value whose denominator divides its numerator is stored over `_ONE`
    (`_divided`); others are not in lowest terms in general.  Equality
    testing cross-multiplies, so they still compare correctly, and one
    hashes as the ratio of its leading terms, which every pair of the value
    shares (module docstring).
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
            num, den = _divided(num, _ONE if den.is_constant() else den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("RationalFunction is immutable")
    __delattr__ = __setattr__

    def __reduce__(self):
        return (RationalFunction, (self.num, self.den))

    @staticmethod
    def _raw(num: Polynomial, den: Polynomial = _ONE) -> "RationalFunction":
        """Wrap a pair already in normal form, without normalizing: den is
        `_ONE` or a product of stored denominators that does not divide num
        (`_divided`), and `_ONE` when num is zero."""
        r = _new(RationalFunction)
        _set_rf_num(r, num)
        _set_rf_den(r, den if num._num else _ONE)
        return r

    def constant_value(self):
        """The value of a constant, as `Polynomial.constant_value`;
        ValueError for any other value.  A constant such as 2x/x is stored
        over `_ONE`."""
        return self.num.constant_value() / self.den.constant_value()

    def as_polynomial(self) -> Polynomial:
        if self.den is _ONE:
            return self.num
        raise DenominatorSurvives("denominator %s does not cancel" % self.den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def evaluate(self, point: Mapping):
        """The value at a rational point, the numerator's over the
        denominator's (`Polynomial.evaluate`); ZeroDivisionError at a pole."""
        return self.num.evaluate(point) / self.den.evaluate(point)

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return RationalFunction._raw(self.num + other.num)
        num = self.num * other.den + other.num * self.den
        if self.den is _ONE or other.den is _ONE:  # no trial (module docstring)
            return RationalFunction._raw(num, self.den * other.den)
        return RationalFunction._raw(*_divided(num, self.den * other.den))

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return RationalFunction._raw(self.num * other.num)
        if other.den is _ONE and other.num.is_constant():  # no trial (module docstring)
            return RationalFunction._raw(self.num * other.num, self.den)
        return RationalFunction._raw(*_divided(self.num * other.num, self.den * other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction(self.den ** (-n), self.num ** (-n))
        if self.den is _ONE or n == 0:
            return RationalFunction._raw(self.num ** n)
        return RationalFunction._raw(self.num ** n, self.den ** n)  # no trial

    def __eq__(self, other):
        other = _coerce_rf(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE and other.den is _ONE:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        # a polynomial value hashes as its numerator, like the Polynomial;
        # any other value as the ratio of its leading terms
        num, den = self.num, self.den
        if den is _ONE:
            return hash(num)
        kn, kd = max(num._num), max(den._num)
        return hash((kn - kd, QQ(num._num[kn] * den._den, den._num[kd] * num._den)))

    def reduce(self) -> "RationalFunction":
        return self  # every value is formed reduced (module docstring)

    def __str__(self):
        if self.den is _ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _divided(num: Polynomial, den: Polynomial) -> tuple:
    """(num/den, _ONE) when den divides num, else (num, den): the one
    reduction rule (module docstring), for a normal den.  A division that
    the values at every variable = 64 rule out is not tried."""
    if den is not _ONE:
        d = _at_64(den._num)
        if d and _at_64(num._num) % d:
            return num, den
        try:
            return num.divide_exact(den), _ONE
        except DivisionNotExact:
            pass
    return num, den


def _at_64(num: dict) -> int:
    """The integer polynomial num at every variable = 64 = 2^6: a key adds
    its numerator shifted left by 6 times its total degree, the sum of its
    slots."""
    total = 0
    for k, c in num.items():
        t = 0
        while k:  # the loop of `_decode`, summing the exponents
            s = k.bit_length() - 1 & -_WIDTH
            e = k >> s
            t += e
            k ^= e << s
        total += c << 6 * t
    return total


_set_rf_num, _set_rf_den = RationalFunction.num.__set__, RationalFunction.den.__set__


def _coerce_rf(x):
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, Polynomial):
        return RationalFunction._raw(x)
    if _is_scalar(x):
        return RationalFunction._raw(Polynomial.const(x))
    return NotImplemented


def polynomial_in(coeffs: Sequence[int], x: Polynomial) -> Polynomial:
    """sum_t coeffs[t] x^t for ints coeffs, low degree first.  When x is one
    variable the keys are its powers, so the terms are put down at once;
    any other x goes by Horner."""
    ((k, c),) = x._num.items() if len(x._num) == 1 else ((0, 0),)
    m = _decode(k)
    if c == 1 == x._den and len(m) == 1 and m[0][1] == 1:  # x is one variable
        v = m[0][0]
        return Polynomial._make(_nonzero({_key(v, t): n for t, n in enumerate(coeffs)}))
    out = Polynomial.zero()
    for n in reversed(coeffs):
        out = out * x + n
    return out


# ---------------------------------------------------------------------------
# fraction sums and symmetric functions
# ---------------------------------------------------------------------------

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
    if total.den is not _ONE:
        raise DenominatorSurvives(
            "fraction sum is not polynomial; residual denominator %s" % total.den
        )
    return total.num


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

    # split monomials into passenger part and alphabet part
    groups = _split(p._num, ~_slot_mask(alphabet))

    # the leading-exponent descent only uses e_k for k up to the largest
    # degree in the alphabet of any monomial
    top = max((sum(e for _, e in _decode(i)) for g in groups.values() for i in g), default=0)
    elem = [None] + [_elementary(roots, i) for i in range(1, min(n, top) + 1)]
    out = Polynomial.zero()
    for outside, inner_terms in groups.items():
        reduced = _reduce_symmetric_part(
            Polynomial._normal(inner_terms, p._den), roots, elem, symbol
        )
        out = out + reduced * Polynomial._make({outside: 1})
    return out


def is_symmetric(p: Polynomial, kind: int, n: int) -> bool:
    """Whether p is invariant under every permutation of the roots
    (kind, 1)..(kind, n), decided in one pass over its terms.

    The terms are grouped by their passenger part (every other variable)
    and their sorted root exponents.  p is symmetric exactly when each
    group holds one coefficient and the whole orbit of n!/prod(mult!)
    exponent vectors, the multiplicities counting the zero exponents."""
    mask = _slot_mask([(kind, i) for i in range(1, n + 1)])
    groups: dict = {}
    for k, c in p._num.items():
        inside = tuple(sorted((e for _, e in _decode(k & mask)), reverse=True))
        outside = k & ~mask
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
    keys = [_key(v) for v in roots]
    return Polynomial._make({sum(combo): 1 for combo in itertools.combinations(keys, k)})


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
    """Inverse of symmetric_reduce: replace e_i symbols by root expansions.

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
