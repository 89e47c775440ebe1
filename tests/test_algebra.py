import contextlib
import itertools
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quadloci import algebra, moduli
from quadloci.algebra import (
    ALPHA,
    AlgebraError,
    DenominatorSurvives,
    DivisionNotExact,
    ExponentOverflow,
    NotSymmetric,
    Polynomial,
    QQ,
    RationalFunction,
    _ONE,
    alpha,
    beta,
    expand_symmetric,
    is_symmetric,
    monomial_str,
    param,
    polynomial_in,
    sum_fractions,
    symmetric_reduce,
    var_name,
    xi,
)
from quadloci.grr import TautClass

X = Polynomial.variable


# -- tuple-monomial oracles: a monomial as sorted (variable, exponent) pairs --

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


def _grlex_key(m):
    """Sort key putting the graded-lex largest monomial first when sorted().

    Larger total degree wins; ties broken lexicographically with earlier
    variables and higher exponents first.
    """
    return (-sum(e for _, e in m), tuple((v, -e) for v, e in m))


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


def rand_poly(rng, nvars=3, nterms=4, maxdeg=3):
    p = Polynomial.zero()
    for _ in range(nterms):
        mono = Polynomial.const(QQ(rng.randint(-5, 5), rng.randint(1, 4)))
        for i in range(1, nvars + 1):
            mono = mono * X(alpha(i)) ** rng.randint(0, maxdeg)
        p = p + mono
    return p


def test_ring_laws_randomized():
    rng = random.Random(12345)
    for _ in range(25):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_canonical_form_zero():
    a = X(alpha(1)) ** 2 + 3 * X(beta(1))
    assert (a - a).terms == {}
    assert a - a == Polynomial.zero()


def test_exact_divide_examples():
    # difference of squares
    p = X(alpha(1)) ** 2 - X(alpha(2)) ** 2
    assert p.divide_exact(X(alpha(1)) - X(alpha(2))) == X(alpha(1)) + X(alpha(2))
    # identity divisor
    assert p.divide_exact(Polynomial.const(1)) == p
    # constructed product
    q = (X(alpha(2)) - X(alpha(1))) * (X(beta(1)) - 2 * X(alpha(1)))
    assert q.divide_exact(X(alpha(2)) - X(alpha(1))) == X(beta(1)) - 2 * X(alpha(1))


def test_exact_divide_roundtrip_randomized():
    rng = random.Random(77)
    for _ in range(20):
        p = rand_poly(rng)
        q = rand_poly(rng, nterms=2)
        if q.is_zero():
            continue
        assert (p * q).divide_exact(q) == p


def test_exact_divide_raises():
    with pytest.raises(DivisionNotExact):
        (X(alpha(1)) ** 2 + 1).divide_exact(X(alpha(1)) - X(alpha(2)))
    with pytest.raises(ZeroDivisionError):
        X(alpha(1)).divide_exact(Polynomial.zero())


def test_substitute_projective_shift():
    cls = X(alpha(1)) + 2 * X(alpha(2)) + 2 * X(alpha(3))
    shift = {
        alpha(1): X(alpha(1)) - QQ(1, 3) * X(xi()),
        alpha(2): X(alpha(2)) - QQ(1, 6) * X(xi()),
        alpha(3): X(alpha(3)) - QQ(1, 6) * X(xi()),
    }
    assert cls.substitute_poly(shift) == cls - X(xi())
    # the restriction to the second fixed point kills the class
    w2 = cls
    full = {
        alpha(i): X(alpha(i)) - QQ(r, 6) * w2
        for i, r in ((1, 2), (2, 1), (3, 1))
    }
    assert cls.substitute_poly(full) == Polynomial.zero()


def test_substitute_identity_and_composition():
    rng = random.Random(9)
    p = rand_poly(rng)
    assert p.substitute_poly({}) == p
    m1 = {alpha(1): X(alpha(2)) + 1}
    m2 = {alpha(2): X(alpha(3)) ** 2}
    once = p.substitute_poly(m1).substitute_poly(m2)
    composed = {
        alpha(1): m1[alpha(1)].substitute_poly(m2),
        alpha(2): m2[alpha(2)],
    }
    assert p.substitute_poly(composed) == once


def test_sum_fractions_corank_one_pair():
    num1 = (X(beta(1)) - 2 * X(alpha(1))) * (X(beta(2)) - 2 * X(alpha(1)))
    num2 = (X(beta(1)) - 2 * X(alpha(2))) * (X(beta(2)) - 2 * X(alpha(2)))
    t1 = RationalFunction(num1, X(alpha(2)) - X(alpha(1)))
    t2 = RationalFunction(num2, X(alpha(1)) - X(alpha(2)))
    want = -4 * (X(alpha(1)) + X(alpha(2))) + 2 * (X(beta(1)) + X(beta(2)))
    assert sum_fractions([t1, t2]) == want


def test_sum_fractions_trivial_and_cancel():
    assert sum_fractions([RationalFunction(X(alpha(1)))]) == X(alpha(1))
    d = X(alpha(1)) - X(alpha(2))
    plus = RationalFunction(Polynomial.const(1), d)
    minus = RationalFunction(Polynomial.const(-1), d)
    assert sum_fractions([plus, minus]) == Polynomial.zero()


def test_sum_fractions_survivor_raises():
    t = RationalFunction(Polynomial.const(1), X(alpha(1)) - X(alpha(2)))
    with pytest.raises(DenominatorSurvives):
        sum_fractions([t])
    with pytest.raises(DenominatorSurvives):
        sum_fractions([t, t * X(alpha(1))])


def test_symmetric_reduce_newton():
    p = X(alpha(1)) ** 2 + X(alpha(2)) ** 2
    from quadloci.algebra import sym

    e1, e2 = X(sym("e1(a)")), X(sym("e2(a)"))
    assert symmetric_reduce(p, ALPHA) == e1 ** 2 - 2 * e2


def test_symmetric_reduce_passengers():
    p = X(alpha(1)) + X(alpha(2)) + X(beta(1))
    from quadloci.algebra import sym

    assert symmetric_reduce(p, ALPHA) == X(sym("e1(a)")) + X(beta(1))


def test_symmetric_reduce_roundtrip_randomized():
    rng = random.Random(4242)
    for _ in range(10):
        raw = rand_poly(rng, nvars=3, nterms=3, maxdeg=2)
        # symmetrize over the three alpha roots
        perms = [
            {alpha(1): alpha(a), alpha(2): alpha(b), alpha(3): alpha(c)}
            for a, b, c in [
                (1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1),
            ]
        ]
        symmed = Polynomial.zero()
        for pm in perms:
            symmed = symmed + raw.rename(pm)
        reduced = symmetric_reduce(symmed, ALPHA, 3)
        assert expand_symmetric(reduced, ALPHA, 3) == symmed


def test_symmetric_reduce_roundtrip_many_roots():
    # low degree in 21 roots: only e_1 and e_2 may be built, never all 2^21
    # monomials of e_1..e_21
    from quadloci.algebra import sym

    n = 21
    roots = [X(alpha(i)) for i in range(1, n + 1)]
    e1 = expand_symmetric(X(sym("e1(a)")), ALPHA, n)
    power_sum_2 = sum((a ** 2 for a in roots), Polynomial.zero())
    cases = (
        (3 * e1 + X(beta(1)), 3 * X(sym("e1(a)")) + X(beta(1))),
        (power_sum_2 - 5 * e1 * X(beta(1)),
         X(sym("e1(a)")) ** 2 - 2 * X(sym("e2(a)"))
         - 5 * X(sym("e1(a)")) * X(beta(1))),
    )
    for p, want in cases:
        reduced = symmetric_reduce(p, ALPHA, n)
        assert reduced == want
        assert expand_symmetric(reduced, ALPHA, n) == p


def test_symmetric_reduce_witness():
    p = X(alpha(1)) + 2 * X(alpha(2))
    with pytest.raises(NotSymmetric) as exc:
        symmetric_reduce(p, ALPHA)
    assert exc.value.transposition == (alpha(1), alpha(2))


def _swap_invariant(p, kind, n):
    """The transposition loop `symmetric_reduce` ran before the orbit count."""
    return all(
        p.rename({(kind, i): (kind, i + 1), (kind, i + 1): (kind, i)}) == p
        for i in range(1, n)
    )


_ROOTS = [alpha(1), alpha(2), alpha(3)]
_sym_monomials = st.lists(
    st.tuples(st.sampled_from(_ROOTS + [beta(1)]), st.integers(1, 3)),
    max_size=4, unique_by=lambda vx: vx[0],
).map(lambda vxs: tuple(sorted(vxs)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(_sym_monomials, st.integers(-3, 3).filter(bool), max_size=5),
       st.booleans(), st.integers(0, 4), st.integers(0, 3))
def test_orbit_count_matches_transposition_loop(terms, symmetrize, n, perturb):
    p = Polynomial({m: QQ(c) for m, c in terms.items()})
    if symmetrize:
        # sum over S_3, so the symmetric case is reached as often as not
        perms = itertools.permutations(_ROOTS)
        p = sum((p.rename(dict(zip(_ROOTS, img))) for img in perms), Polynomial.zero())
        if perturb:
            p = p + X(alpha(perturb)) ** 2
    assert is_symmetric(p, ALPHA, n) == _swap_invariant(p, ALPHA, n)
    if symmetrize:
        assert is_symmetric(p, ALPHA, 3) == (not perturb)


def test_rational_function_normalization_and_equality():
    # denominator normalized to primitive, positive leading coefficient
    r = RationalFunction(X(alpha(1)), -2 * X(alpha(1)) + 2 * X(alpha(2)))
    lead_mono, lead_coeff = r.den.leading()
    assert lead_coeff > 0
    r2 = RationalFunction(X(alpha(1)) * 3, (-2 * X(alpha(1)) + 2 * X(alpha(2))) * 3)
    assert r == r2
    assert (r - r2).is_zero()
    # a pickle round trip keeps numerator, denominator and the shared 1
    back = pickle.loads(pickle.dumps(r))
    assert (back.num, back.den) == (r.num, r.den)
    assert pickle.loads(pickle.dumps(RationalFunction(X(alpha(1))))).den is _ONE


def test_elementary_symmetric():
    from quadloci.algebra import sym

    e2 = expand_symmetric(X(sym("e2(a)")), ALPHA, 3)
    want = (
        X(alpha(1)) * X(alpha(2))
        + X(alpha(1)) * X(alpha(3))
        + X(alpha(2)) * X(alpha(3))
    )
    assert e2 == want


def test_floats_are_refused():
    # a float is not the decimal it prints, and a bool is a truth value
    values = (X(alpha(1)), Polynomial.const(2), Polynomial.const(1),
              RationalFunction(X(alpha(1))), RationalFunction(1))
    for bad in (0.1, 0.5, True, False):
        with pytest.raises(TypeError):
            Polynomial.const(bad)
        with pytest.raises(TypeError):
            Polynomial({((alpha(1), 1),): bad})
        with pytest.raises(TypeError):
            RationalFunction(bad)
        with pytest.raises(TypeError):
            RationalFunction(X(alpha(1)), bad)
        for value in values:
            with pytest.raises(TypeError):
                value * bad
            with pytest.raises(TypeError):
                bad * value
            with pytest.raises(TypeError):
                value + bad
            with pytest.raises(TypeError):
                bad - value
    for value, bad in itertools.product(values[3:], (0.5, True)):
        with pytest.raises(TypeError):
            value / bad
        with pytest.raises(TypeError):
            bad / value  # a reflected operator refuses too, with no recursion
    # a bool equals no value: rf(1) == True is False, not a refusal
    for value in (Polynomial.const(1), RationalFunction(1), Polynomial.zero(),
                  RationalFunction(0)):
        assert value != True and value != False  # noqa: E712
    # an int request evaluates a class at the int; a bool is no int there
    for fn, args in ((moduli.k3_rank4_class, (True,)), (moduli.pelda_slope, (1, True)),
                     (moduli.kosz_class, (True,))):
        with pytest.raises(TypeError, match="^bool True is no exact number"):
            fn(*args)
    # exact values still enter
    assert Polynomial.const(QQ(1, 10)).constant_value() == QQ(1, 10)
    assert RationalFunction(X(alpha(1)), 2) == RationalFunction(QQ(1, 2) * X(alpha(1)))


def test_rational_function_constant_value():
    # a constant is stored over 1 however it is formed, so 2x/x reads 2
    x = X(alpha(1))
    assert RationalFunction(3, 4).constant_value() == QQ(3, 4)
    assert RationalFunction(0, x).constant_value() == 0
    assert RationalFunction(2 * x, x).constant_value() == 2
    assert (RationalFunction(1, x) * (3 * x)).constant_value() == 3
    for value in (RationalFunction(x), RationalFunction(1, x), RationalFunction(x + 1, x)):
        with pytest.raises(ValueError):
            value.constant_value()


def test_constants_hash_as_their_value():
    three = Polynomial.const(3)
    assert three == 3 and hash(three) == hash(3)
    assert RationalFunction(3) == three and hash(RationalFunction(3)) == hash(three)
    assert hash(Polynomial.const(QQ(2, 7))) == hash(QQ(2, 7))
    assert hash(Polynomial.zero()) == hash(RationalFunction(0)) == hash(0) == 0
    # a denominator that is a constant normalizes to 1 and hashes the same way
    half = RationalFunction(X(alpha(1)), 2)
    assert half == QQ(1, 2) * X(alpha(1))
    assert hash(half) == hash(QQ(1, 2) * X(alpha(1)))
    assert half.den == 1
    assert {three: "x"}[3] == "x"


# -- the integer kernel against the Fraction arithmetic it replaces ------------

_VARS = [alpha(1), alpha(2), beta(1)]
_KERNEL = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.fractions(max_denominator=30, min_value=-50, max_value=50).map(QQ)
monomials = st.lists(
    st.tuples(st.sampled_from(_VARS), st.integers(1, 3)),
    max_size=3, unique_by=lambda vx: vx[0],
).map(lambda vxs: tuple(sorted(vxs)))
polynomials = st.one_of(
    st.dictionaries(monomials, rationals, max_size=6).map(Polynomial),
    rationals.map(Polynomial.const),
    st.sampled_from([Polynomial.zero(), Polynomial.const(1), Polynomial.const(-1)]),
)


def _fraction_product(p, q):
    """The term-by-term Fraction loop that Polynomial.__mul__ used to run."""
    return _ref_mul(p.terms, q.terms)


def _same_terms(p, want):
    assert p.terms == want
    assert all(type(c) is type(QQ(0)) and c for c in p.terms.values())


@_KERNEL
@given(polynomials, polynomials)
def test_product_matches_fraction_loop(p, q):
    _same_terms(p * q, _fraction_product(p, q))
    _same_terms(q * p, _fraction_product(p, q))
    # (p + q)(p - q): the cross terms cancel inside the accumulation
    _same_terms((p + q) * (p - q), _fraction_product(p + q, p - q))


@_KERNEL
@given(polynomials, st.one_of(rationals, st.integers(-20, 20)))
def test_scalar_product_matches_fraction_loop(p, c):
    want = _fraction_product(p, Polynomial.const(c))
    _same_terms(p * c, want)
    _same_terms(c * p, want)


def _cross_sum(a, b):
    return RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)


def _cross_product(a, b):
    return RationalFunction(a.num * b.num, a.den * b.den)


def _same_function(got, want):
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


rational_functions = st.one_of(
    polynomials.map(RationalFunction),
    st.tuples(polynomials, rationals.filter(bool)).map(lambda pc: RationalFunction(*pc)),
    st.tuples(polynomials, polynomials.filter(lambda d: not d.is_zero())).map(
        lambda pd: RationalFunction(*pd)),
)


@_KERNEL
@given(rational_functions, rational_functions)
def test_unit_denominator_arithmetic_matches_cross_multiplication(a, b):
    _same_function(a + b, _cross_sum(a, b))
    _same_function(a * b, _cross_product(a, b))
    assert (a == b) == (a.num * b.den == b.num * a.den)
    assert (a == b) == (b == a)
    if a.den is _ONE:
        assert a.den == 1
        scaled = RationalFunction(a.num * 3, 3)
        assert scaled == a and hash(scaled) == hash(a) == hash(a.num)
    if a == b:
        assert hash(a) == hash(b)


_T = param("t")
univariate = st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
    lambda cs: sum((c * X(_T) ** k for k, c in enumerate(cs)), Polynomial.zero()))
divisors = univariate.filter(lambda d: not d.is_constant())


def _stored_over_one(r, value):
    assert r.den is _ONE and r.num == value
    assert r == value and hash(r) == hash(value)


@_KERNEL
@given(univariate, univariate, divisors, st.integers(1, 3))
def test_a_value_whose_denominator_divides_is_stored_over_one(p, s, d, n):
    R = RationalFunction
    _stored_over_one(R(p * d, d), p)
    _stored_over_one(R(p, d) * d, p)
    _stored_over_one(d * R(p, d), p)
    q = s * d - p  # d divides p + q
    _stored_over_one(R(p, d) + R(q, d), s)
    _stored_over_one(R(p * d, d) ** n, p ** n)
    _stored_over_one(R(p, d) ** n * d ** n, p ** n)
    # d^n divides p^n only when d divides p, so a power tries no division
    r = R(p, d)
    assert ((r ** n).den is _ONE) == (r.den is _ONE) == (R(p ** n, d ** n).den is _ONE)
    if r.den is not _ONE:
        with pytest.raises(DivisionNotExact):
            r.num.divide_exact(r.den)
    # the same value formed in other terms compares and hashes equal
    e = d + 1
    for other in (R(p * e, d * e), r * R(e, e), r * e / e, r + R(q, d) - R(q, d)):
        assert other == r and hash(other) == hash(r)


def _cross_power(a, n):
    out = RationalFunction(1)
    for _ in range(abs(n)):
        out = _cross_product(out, a)
    return out if n >= 0 else RationalFunction(out.den, out.num)


def _in_normal_form(r):
    """r's pair is what the public constructor makes of it, and a constant
    denominator is the shared `_ONE`."""
    want = RationalFunction(r.num, r.den)
    assert (r.num.terms, r.den.terms) == (want.num.terms, want.den.terms)
    if r.den.is_constant():
        assert r.den is _ONE


@_KERNEL
@given(rational_functions, rational_functions, rational_functions, st.integers(-3, 3))
def test_results_keep_the_constructor_normal_form(a, b, c, n):
    # sums, products and positive powers skip the constructor, as a product
    # of stored denominators is already primitive with a positive leading
    # coefficient; the denominators here are multivariate
    results = [-a, a + b, a - b, a * b, (a + b) * c, a * b - c, (a - b) * (a + c)]
    if not b.is_zero():
        results.append(a / b)
        assert (a / b) * b == a
    if n >= 0 or not a.is_zero():
        results.append(a ** n)
        assert a ** n == _cross_power(a, n)
    for r in results:
        _in_normal_form(r)
    _same_function(-a, RationalFunction(-a.num, a.den))
    _same_function(a - b, _cross_sum(a, -b))
    _same_function((a + b) * c, _cross_product(_cross_sum(a, b), c))
    assert (a - b) + b == a and -a + a == 0


# -- the integer kernel against a test-local {monomial: Fraction} reference ---

fractions_ = st.fractions(max_denominator=30, min_value=-50, max_value=50)
reference_polys = st.dictionaries(monomials, fractions_.filter(bool), max_size=5)
scalars = st.one_of(st.integers(-20, 20), fractions_)


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _ref_scale(a, c):
    return {m: x * c for m, x in a.items() if x * c}


def _ref_mul(a, b):
    """The product of two {monomial: Fraction} dicts, term by term."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _merge_exponents(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _ref_power(a, n):
    out = {(): Fraction(1)}
    for _ in range(n):
        out = _ref_mul(out, a)
    return out


def _ref_divide(p, q):
    """The Fraction loop `divide_exact` ran before the integer kernel."""
    qm = min(q, key=_grlex_key)
    quot, rem = {}, dict(p)
    while rem:
        m = min(rem, key=_grlex_key)
        mm = _monomial_div(m, qm)
        if mm is None:
            raise DivisionNotExact(m)
        quot[mm] = cc = rem[m] / q[qm]
        for m2, c2 in q.items():
            key = _merge_exponents(mm, m2)
            s = rem.get(key, 0) - cc * c2
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    return quot


def _ref_str(a):
    """The rendering of {monomial: Fraction} that `str` keeps."""
    if not a:
        return "0"
    bits = []
    for m in sorted(a, key=_grlex_key):
        c = a[m]
        mono = "*".join(var_name(v) + ("^%d" % e if e > 1 else "") for v, e in m)
        if not mono:
            bits.append(str(c))
        elif c in (1, -1):
            bits.append(mono if c == 1 else "-" + mono)
        else:
            bits.append("%s*%s" % (c, mono))
    return bits[0] + "".join(
        " - " + b[1:] if b.startswith("-") else " + " + b for b in bits[1:])


def _agrees(p, want):
    """p has the value of the reference dict `want`, stored as nonzero int
    numerators over a positive int denominator in lowest terms."""
    assert p.terms == want
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c for c in p._num.values())
    assert gcd(p._den, *p._num.values()) == 1


@_KERNEL
@given(reference_polys, reference_polys, scalars, st.integers(0, 4))
def test_kernel_matches_fraction_reference(a, b, c, n):
    p, q = Polynomial(a), Polynomial(b)
    _agrees(p, a)
    _agrees(p + q, _ref_add(a, b))
    _agrees(p - q, _ref_add(a, _ref_scale(b, -1)))
    _agrees(-p, _ref_scale(a, -1))
    _agrees(p * q, _ref_mul(a, b))
    for scaled in (p.scale(c), p * c, c * p, p.scale(QQ(c))):
        _agrees(scaled, _ref_scale(a, Fraction(c)))
    _agrees(p ** n, _ref_power(a, n))
    assert str(p) == _ref_str(a)
    # equal values hash equal, however they were formed
    again = (p + q) - q
    assert again == p and hash(again) == hash(p)
    back = pickle.loads(pickle.dumps(p))
    _agrees(back, a)
    assert back == p and hash(back) == hash(p)
    # a constant equals, and hashes as, its int or QQ value
    k = Polynomial.const(c)
    assert k == c and k == QQ(c) and hash(k) == hash(c) == hash(QQ(c))
    assert Polynomial({(): c}) == k and (k == p) == (a == ({(): c} if c else {}))


@_KERNEL
@given(reference_polys, reference_polys.filter(bool), st.booleans())
def test_divide_exact_matches_fraction_reference(a, b, exact):
    p, q = Polynomial(a), Polynomial(b)
    if exact:
        p, a = p * q, _ref_mul(a, b)
    try:
        want = _ref_divide(a, b)
    except DivisionNotExact:
        assert not exact
        with pytest.raises(DivisionNotExact):
            p.divide_exact(q)
    else:
        _agrees(p.divide_exact(q), want)


@_KERNEL
@given(reference_polys)
def test_content_normalized_matches_fraction_reference(a):
    p = Polynomial(a)
    prim, scale = p.content_normalized()
    if not a:
        assert prim == 0 and scale == 1
        return
    g = gcd(*(c.numerator for c in a.values()))
    s = Fraction(g, lcm(*(c.denominator for c in a.values())))
    if a[min(a, key=_grlex_key)] < 0:
        s = -s
    assert scale == s
    _agrees(prim, _ref_scale(a, 1 / s))
    assert prim._den == 1 and prim.leading()[1] > 0


def test_kernel_floats_are_refused():
    p = X(alpha(1)) + QQ(1, 3)
    for x in (0.5, 1.5, 0.25, 0.0, 1.0, True, False):
        for bad in (lambda: Polynomial({(): x}), lambda: Polynomial.const(x),
                    lambda: p.scale(x), lambda: p + x, lambda: p - x,
                    lambda: p * x, lambda: x * p, lambda: p == Polynomial.const(x)):
            with pytest.raises(TypeError):
                bad()


def test_kernel_arithmetic_builds_no_qq(monkeypatch):
    x, y = X(alpha(1)), X(alpha(2))
    p = QQ(1, 2) * x ** 2 + QQ(2, 3) * x * y - 5
    q = 2 * x + 4  # content 2
    half = QQ(1, 2)
    a, b = RationalFunction(QQ(3, 4)), RationalFunction(QQ(-2, 5))
    r = RationalFunction(x * y + 1, x + 1)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("QQ%r built by the integer kernel" % (args,))

    # every Fraction is built through __new__, also inside Fraction arithmetic
    monkeypatch.setattr(Fraction, "__new__", staticmethod(refuse))
    got = [p + q, p - q, p * q, p.scale(3), p.scale(half), p * half, p ** 3,
           (p * q).divide_exact(q), (x * x + 2 * x).divide_exact(q), a * b, a + b]
    for num, den in ((p, q), (3 * x + 3, 2 * x + 1), (x * x + x, 2 * x + 1)):
        with pytest.raises(DivisionNotExact):
            num.divide_exact(den)
    # the trial division of a product runs on ints too
    assert (r * (x + 1)).den is _ONE and (r * x).den is not _ONE
    monkeypatch.undo()
    want = [_ref_add(p.terms, q.terms), _ref_add(p.terms, _ref_scale(q.terms, -1)),
            _ref_mul(p.terms, q.terms), _ref_scale(p.terms, 3),
            _ref_scale(p.terms, half), _ref_scale(p.terms, half),
            _ref_mul(p.terms, _ref_mul(p.terms, p.terms)), p.terms,
            {((alpha(1), 1),): Fraction(1, 2)}, {(): Fraction(-3, 10)},
            {(): Fraction(7, 20)}]
    for value, terms in zip(got, want):
        assert value.terms == terms if isinstance(value, Polynomial) else value.num.terms == terms


# -- packed monomials against the tuple references, in any slot order ---------

@contextlib.contextmanager
def _registry(order):
    """A fresh variable registry for the block, the variables of `order`
    given their slots first and in that order; the process's own after."""
    saved = algebra._SHIFTS, algebra._VARS, algebra._GUARD
    algebra._SHIFTS, algebra._VARS, algebra._GUARD = {}, [], 0
    try:
        for v in order:
            X(v)
        yield
    finally:
        algebra._SHIFTS, algebra._VARS, algebra._GUARD = saved


def _ref_substitute(a, images):
    """a with every variable v of images replaced by the dict images[v]."""
    out = {}
    for m, c in a.items():
        piece = {(): c}
        for v, e in m:
            piece = _ref_mul(piece, _ref_power(images[v], e) if v in images
                             else {((v, e),): Fraction(1)})
        out = _ref_add(out, piece)
    return out


@_KERNEL
@given(st.permutations(_VARS), reference_polys, reference_polys.filter(bool),
       reference_polys, st.integers(0, 3))
def test_packed_monomials_match_tuple_references_in_any_slot_order(order, a, b, c, n):
    with _registry(order):
        p, q, s = Polynomial(a), Polynomial(b), Polynomial(c)
        _agrees(p + q, _ref_add(a, b))
        _agrees(p * q, _ref_mul(a, b))
        _agrees(p ** n, _ref_power(a, n))
        _agrees((p * q).divide_exact(q), _ref_divide(_ref_mul(a, b), b))
        _agrees(p.substitute_poly({order[0]: s, order[2]: q}),
                _ref_substitute(a, {order[0]: c, order[2]: b}))
        assert str(p * q) == _ref_str(_ref_mul(a, b))
        if a:
            m = min(a, key=_grlex_key)
            assert p.leading() == (m, a[m])
        assert (p == q) == (a == b) and (p == Polynomial(dict(a)))
        again = (p + q) - q
        assert again == p and hash(again) == hash(p)


def test_a_pickle_from_another_slot_order_loads_equal():
    # the child process gives q the first slot and a1 the last; a pickle
    # carries the decoded terms, so it loads into this process's slots
    src = str(Path(algebra.__file__).resolve().parents[1])
    code = ("import pickle, sys; sys.path.insert(0, %r)\n"
            "from quadloci.algebra import Polynomial as P, QQ, alpha, beta, param\n"
            "q, b1, a2, a1 = (P.variable(v) for v in (param('q'), beta(1), alpha(2), alpha(1)))\n"
            "p = a1 ** 3 * b1 - QQ(2, 7) * a2 * q + 5\n"
            "sys.stdout.write(pickle.dumps([p, (a1 - q) ** 2, p.terms]).hex())" % src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    back, square, terms = pickle.loads(bytes.fromhex(out))
    a1, a2, b1, q = (X(v) for v in (alpha(1), alpha(2), beta(1), param("q")))
    p = a1 ** 3 * b1 - QQ(2, 7) * a2 * q + 5
    assert back == p and hash(back) == hash(p) and back.terms == p.terms == terms
    assert square == (a1 - q) ** 2 and str(square) == "a1^2 - 2*a1*q + q^2"


def test_an_exponent_past_its_slot_raises_and_never_wraps():
    with _registry([alpha(1), alpha(2)]):
        x, y = X(alpha(1)), X(alpha(2))
        top = x ** 32767  # the largest exponent a 16-bit slot holds
        assert top.terms == {((alpha(1), 32767),): 1}
        # 2^15 sets x's guard bit: raised, not carried into y's slot
        for overflow in (lambda: top * x, lambda: top * top * top, lambda: x ** 32768,
                         lambda: (x + y) ** 40000, lambda: top.substitute_poly({y: x}) * x,
                         lambda: Polynomial({((alpha(2), 1 << 15),): 1})):
            with pytest.raises(ExponentOverflow):
                overflow()
        assert issubclass(ExponentOverflow, AlgebraError)
        assert (top * y).divide_exact(y) == top
        assert (top * y).terms == {((alpha(1), 32767), (alpha(2), 1)): 1}
        assert Polynomial.const(3) ** 40000 == Polynomial.const(3 ** 40000)


def test_a_function_reduces_where_it_is_formed():
    # 2g/g is the constant 2, and g/(g+1) + 1/(g+1) is the polynomial 1
    g = X(param("g"))
    a = RationalFunction(2 * g, g)
    b = RationalFunction(g, g + 1) + RationalFunction(1, g + 1)
    assert a.den is _ONE and a.constant_value() == 2
    assert b == 1 and b.den is _ONE


# -- hash and eq agree on rational functions -----------------------------------

def test_equal_rational_functions_hash_equal():
    g = X(param("g"))
    a = RationalFunction(g ** 2 - 1, g ** 2 + g)
    b = RationalFunction(g - 1, g)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    # hashing leaves the stored pair, and so the printed bytes, as they were
    assert str(a) == "(g^2 - 1)/(g^2 + g)" and str(b) == "(g - 1)/(g)"
    s, t = TautClass({"lambda": a, "delta": 2}), TautClass({"lambda": b, "delta": 2})
    assert s == t and hash(s) == hash(t) and len({s, t}) == 1
    # a denominator in two variables hashes too
    a1, a2 = X(alpha(1)), X(alpha(2))
    c, d = RationalFunction(1, a1 + a2), RationalFunction(a1, a1 ** 2 + a1 * a2)
    assert c == d and hash(c) == hash(d) and len({c, d}) == 1
    assert str(d) == "(a1)/(a1^2 + a1*a2)"


@_KERNEL
@given(polynomials, polynomials.filter(bool), polynomials.filter(bool))
def test_a_function_hashes_alike_in_any_terms(p, q, h):
    # p, q and h are in alpha(1), alpha(2) and beta(1): every pair of one
    # value has the same ratio of leading terms
    a, b = RationalFunction(p * h, q * h), RationalFunction(p, q)
    assert a == b and hash(a) == hash(b)
    c = RationalFunction(p * h) / (q * h)
    assert c == a and hash(c) == hash(a)
    back = pickle.loads(pickle.dumps(a))
    assert (back.num, back.den) == (a.num, a.den) and hash(back) == hash(a)


# -- the kernels of the symbolic `k3 kosz` request against the code they replaced

def _str_by_fractions(p):
    """The rendering `Polynomial.__str__` made before it printed int
    numerators directly: a Fraction per term, in the order of the decoded
    sort key."""
    if not p._num:
        return "0"
    rows = []
    for k, n in p._num.items():
        m = algebra._decode(k)
        rows.append(((-sum(e for _, e in m), [(v, -e) for v, e in m]), m, n))
    bits = []
    for _, m, n in sorted(rows):
        c = QQ(n, p._den)
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


integer_polynomials = st.dictionaries(monomials, st.integers(-50, 50), max_size=6).map(
    Polynomial)


@_KERNEL
@given(st.one_of(polynomials, integer_polynomials), st.permutations(_VARS))
def test_str_matches_the_fraction_rendering(p, order):
    text, terms = str(p), p.terms
    assert text == _str_by_fractions(p)
    # the same terms under another slot order print the same
    with _registry(order):
        q = Polynomial(terms)
        assert str(q) == _str_by_fractions(q) == text


def _trial_division(num, den):
    """`_divided` without its screen: the division tried on every pair."""
    if den is not _ONE:
        try:
            return num.divide_exact(den), _ONE
        except DivisionNotExact:
            pass
    return num, den


def _past_65535():
    """Two polynomials whose keys straddle a total degree of 65535, where
    a key's slots summed modulo 2^16 - 1 would wrap: m has total degree
    65536, m2 65534, and the product m*m2 131070."""
    m = X(alpha(7)) ** 32767 * X(beta(7)) ** 32767 * X(param("z7")) ** 2
    m2 = X(alpha(8)) ** 32767 * X(beta(8)) ** 32767
    return m + 1, m2 + 1


@_KERNEL
@given(polynomials, polynomials.filter(bool), st.booleans(),
       st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 2), (2, 1)]))
def test_screened_reduction_matches_the_trial_division(p, d, exact, big):
    """`_divided` gives the pair a trial division gives: on random pairs,
    on products q*r, which must divide, and with factors whose keys pass
    total degree 65535 in the numerator, the denominator or both."""
    factors = (Polynomial.const(1),) + _past_65535()
    den = RationalFunction(1, d * factors[big[1]]).den  # in normal form
    num = p * factors[big[0]] * (den if exact else 1)
    got, want = algebra._divided(num, den), _trial_division(num, den)
    assert got == want and (got[1] is _ONE) == (want[1] is _ONE)
    if exact:
        assert got == (p * factors[big[0]], _ONE)


def test_screened_reduction_reads_each_total_degree_exactly():
    # (m + 1)(m2 + 1) over m + 1: the values at every variable = 64 have
    # the total degrees 131070, 65536, 65534 and 0; read modulo 65535 they
    # would be 0, 1, 65534 and 0, and 65 would not divide the numerator's
    m, m2 = _past_65535()
    got = algebra._divided(m * m2, m)
    assert got == (m2, _ONE) and got[1] is _ONE
    assert algebra._divided(m * m2 + 1, m) == (m * m2 + 1, m)


_POINTS = [X(param("t")), X(alpha(1)), X(alpha(1)) ** 2, 2 * X(alpha(1)),
           QQ(1, 2) * X(alpha(1)), X(alpha(1)) + 1, X(alpha(1)) * X(beta(1)),
           Polynomial.const(3), Polynomial.const(QQ(-2, 3)), Polynomial.zero()]


@_KERNEL
@given(st.lists(st.integers(-9, 9), max_size=8), st.sampled_from(_POINTS))
def test_polynomial_in_is_the_sum_of_powers(coeffs, x):
    want = sum((c * x ** t for t, c in enumerate(coeffs)), Polynomial.zero())
    got = polynomial_in(coeffs, x)
    assert (got._num, got._den) == (want._num, want._den)


def test_polynomial_in_refuses_a_degree_past_its_slot():
    t = X(param("t"))
    assert polynomial_in([0] * 32767 + [1], t) == t ** 32767
    # 2^15 sets the slot's guard bit, and 2^16 would carry past it
    for degree in (32768, 65536):
        with pytest.raises(ExponentOverflow):
            polynomial_in([0] * degree + [1], t)
