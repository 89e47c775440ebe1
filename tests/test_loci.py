import itertools
import json
import os
import random
from math import comb, lcm, prod

import pytest

from quadloci.algebra import (
    Polynomial,
    QQ,
    alpha,
    beta,
    gamma_var,
    sym,
    xi,
)
from quadloci.loci import (
    NotDivisorial,
    PreconditionViolated,
    ScalarConditionViolated,
    ScalarData,
    c1E,
    c1F,
    closed_divisor_class,
    discriminant_monomial_weight,
    divisorial_combination,
    divisorial_f,
    fixed_point_restriction,
    localization_class,
    pencil_class_quot,
    pencil_class_sub,
    pencil_sub_from_quot,
    projectivize,
    residue_class,
    residue_divisor_class,
    resolution_value,
    shifted_corank_class,
    target_degree,
    to_chern_symbols,
    to_roots,
)
from quadloci.symfunc import _elem_values, a_const, sym_degeneracy_class

X = Polynomial.variable


def sym2_weights(e: int) -> tuple:
    """Weights a_i + a_j (i <= j, lexicographic) of Sym^2 of a rank-e space."""
    a = [X(alpha(i)) for i in range(1, e + 1)]
    return tuple(a[i] + a[j] for i, j in itertools.combinations_with_replacement(range(e), 2))


def homogeneous(p: Polynomial, deg: int) -> bool:
    return all(sum(e for _, e in m) == deg for m in p.terms)


GOLDEN = {
    (2, 2, 1): (-4, 2),
    (3, 5, 1): (-10, 3),
    (4, 9, 1): (-18, 4),
    (3, 3, 2): (-8, 4),
    (4, 7, 2): (-35, 10),
    (5, 12, 2): (-96, 20),
}


def test_sym2_weights():
    W = sym2_weights(2)
    assert list(W) == [2 * X(alpha(1)), X(alpha(1)) + X(alpha(2)), 2 * X(alpha(2))]
    assert len(sym2_weights(1)) == 1
    assert len(sym2_weights(3)) == 6


@pytest.mark.parametrize("efr", sorted(GOLDEN))
def test_golden_classes_three_methods(efr):
    e, f, r = efr
    ce, cf = GOLDEN[efr]
    want = cf * c1F() + ce * c1E()
    assert localization_class(e, f, r) == want
    assert closed_divisor_class(e, r) == want
    assert residue_divisor_class(e, r) == want


def test_localization_order_independence():
    # reversing or rotating the roots a permutes the Grassmannian fixed
    # points J of the certificate's sum; the value stays the class there
    a, b, point = _chern_point(3, 3, random.Random(7))
    want = localization_class(3, 3, 2).evaluate(point)
    for roots in (a, a[::-1], a[1:] + a[:1]):
        assert resolution_value(3, 3, 2, roots, b) == want


def test_localization_codim2_properties():
    p = to_roots(localization_class(3, 4, 2), 3, 4)
    assert homogeneous(p, 2)
    assert p.rename({alpha(1): alpha(3), alpha(3): alpha(1)}) == p
    assert p.rename({beta(2): beta(4), beta(4): beta(2)}) == p
    # machine-derived regression anchor (no closed form is published for
    # this codimension; the value is pinned by the raw-sum point checks)
    from quadloci.algebra import sym

    c1e, c2e = X(sym("e1(a)")), X(sym("e2(a)"))
    c1f, c2f = X(sym("e1(b)")), X(sym("e2(b)"))
    from quadloci.algebra import symmetric_reduce
    from quadloci.algebra import ALPHA, BETA

    reduced = symmetric_reduce(symmetric_reduce(p, ALPHA, 3), BETA, 4)
    assert reduced == 16 * c1e ** 2 - 8 * c1e * c1f - 16 * c2e + 4 * c2f


def test_localization_matches_raw_term_sum_at_points():
    # end-to-end numeric check against the literal (H, gamma) term sum
    rng = random.Random(31415)
    for e, f, r in [(3, 4, 2), (4, 7, 2), (5, 12, 2), (4, 4, 3), (4, 8, 3),
                    (3, 4, 3), (3, 5, 3)]:
        result = to_roots(localization_class(e, f, r), e, f)
        W = sym2_weights(e)
        d = comb(e + 1, 2) - f
        h = sym_degeneracy_class(r, e)
        avars = [alpha(i) for i in range(1, e + 1)]
        bvars = [beta(j) for j in range(1, f + 1)]
        for _ in range(2):
            point = {v: QQ(rng.randint(100, 9999)) for v in avars + bvars}
            wvals = [w.evaluate(point) for w in W]
            if len(set(wvals)) != len(wvals):
                continue
            total = QQ(0)
            import itertools

            for combo in itertools.combinations(range(len(W)), d):
                for g in combo:
                    shifted = {v: point[v] - wvals[g] / 2 for v in avars}
                    num = h.evaluate(shifted)
                    for j in range(1, f + 1):
                        for i in combo:
                            num *= point[beta(j)] - wvals[i]
                    den = QQ(1)
                    for i in range(len(W)):
                        if i != g:
                            den *= wvals[i] - wvals[g]
                    for i in combo:
                        if i == g:
                            continue
                        for k in range(len(W)):
                            if k not in combo:
                                den *= wvals[k] - wvals[i]
                    total += num / den
            assert result.evaluate(point) == total, (e, f, r)


def test_localization_preconditions():
    with pytest.raises(PreconditionViolated):
        localization_class(3, 6, 1)  # d = 0
    with pytest.raises(PreconditionViolated):
        localization_class(3, 2, 1)  # d = 4 > C(2,2) = 1
    with pytest.raises(PreconditionViolated):
        localization_class(3, 3, 0)


def test_closed_divisor_guards():
    with pytest.raises(NotDivisorial):
        closed_divisor_class(2, 2)  # f = 0
    with pytest.raises(NotDivisorial):
        residue_divisor_class(2, 2)


def test_sym2_complete_matches_weight_expansion():
    # h_m of the Sym^2 weights, built one weight at a time as the
    # coefficients of prod_w 1/(1 - w t)
    from quadloci.algebra import ALPHA, expand_symmetric, sym
    from quadloci.loci import _sym2_complete

    top = 6
    for e in range(1, 7):
        want = [Polynomial.const(1)] + [Polynomial.zero()] * top
        for w in sym2_weights(e):
            for m in range(1, top + 1):
                want[m] = want[m] + w * want[m - 1]
        got = _sym2_complete(e, top)
        for m in range(top + 1):
            chern = Polynomial._make(got[m])
            roots = expand_symmetric(chern, ALPHA, e, symbol=lambda i: sym("c%dE" % i))
            assert roots == want[m], (e, m)


def _axis_example():
    w1 = 3 * X(alpha(1)) - X(alpha(2)) + X(alpha(3))
    w2 = X(alpha(1)) + 2 * X(alpha(2)) + 2 * X(alpha(3))
    return (w1, w2), ScalarData((2, 1, 1), 6), w2


def test_projectivize_axis_example():
    weights, scal, cls = _axis_example()
    assert projectivize(cls, scal, weights) == cls - X(xi())
    assert projectivize(Polynomial.const(1), scal, weights) == Polynomial.const(1)
    const = Polynomial.const(QQ(5, 7))
    assert projectivize(const, scal, weights) == const


def test_fixed_point_restrictions():
    weights, scal, cls = _axis_example()
    at0 = fixed_point_restriction(cls, weights, 0, scal)
    assert at0 == -2 * X(alpha(1)) + 3 * X(alpha(2)) + X(alpha(3))
    assert fixed_point_restriction(cls, weights, 1, scal) == Polynomial.zero()
    assert fixed_point_restriction(Polynomial.const(1), weights, 1, scal) == Polynomial.const(1)
    # restriction = projectivization with xi specialized to the weight
    pr = projectivize(cls, scal, weights)
    for j, w in enumerate(weights):
        assert pr.substitute_poly({xi(): w}) == fixed_point_restriction(
            cls, weights, j, scal
        )


def test_projectivize_at_zero_recovers_class():
    weights, scal, cls = _axis_example()
    pr = projectivize(cls, scal, weights)
    assert pr.substitute_poly({xi(): Polynomial.zero()}) == cls
    quad = cls * cls - 3 * cls
    pr2 = projectivize(quad, scal, weights)
    assert pr2.substitute_poly({xi(): Polynomial.zero()}) == quad


def test_scalar_condition_violated():
    weights, _, cls = _axis_example()
    with pytest.raises(ScalarConditionViolated):
        projectivize(cls, ScalarData((1, 1, 1), 6), weights)


@pytest.mark.parametrize("weights, r, message", [
    # a rational pairing prints as the Fraction the weight's coefficients sum to
    ([QQ(1, 2) * X(alpha(1)) + X(alpha(2))], (1, 1),
     "weight 1/2*a1 + a2 pairs to 3/2, expected 6"),
    ([-5 * X(alpha(1)) - QQ(2, 3) * X(alpha(3))], (1, 0, 2),
     "weight -5*a1 - 2/3*a3 pairs to -19/3, expected 6"),
    # an r_i past every weight's variables, and a weight with no a_i
    ([X(alpha(1)) + 1], (1,) * 128,
     "weight a1 + 1 pairs to 1, expected 6"),
    ([Polynomial.zero()], (), "weight 0 pairs to 0, expected 6"),
])
def test_scalar_condition_message(weights, r, message):
    # the pairing is read from the weights' packed numerators; the message
    # keeps the bytes of the decoded-coefficient sum it replaced
    with pytest.raises(ScalarConditionViolated) as err:
        projectivize(X(alpha(1)), ScalarData(r, 6), weights)
    assert str(err.value) == message


def test_pencil_sub_small():
    suma = X(alpha(1)) + X(alpha(2))
    sumg = X(gamma_var(1)) + X(gamma_var(2))
    assert pencil_class_sub(2) == 4 * suma - 2 * sumg
    suma3 = suma + X(alpha(3))
    assert pencil_class_sub(3) == 2 * (4 * suma3 - 3 * sumg)
    with pytest.raises(PreconditionViolated):
        pencil_class_sub(1)


def test_pencil_quot_small_and_e6():
    suma = X(alpha(1)) + X(alpha(2))
    sumb = X(beta(1))  # N = C(3,2) - 2 = 1 quotient root at e = 2
    assert pencil_class_quot(2) == 2 * sumb - 2 * suma
    n6 = comb(7, 2) - 2
    sumb6 = sum((X(beta(j)) for j in range(1, n6 + 1)), Polynomial.zero())
    suma6 = sum((X(alpha(i)) for i in range(1, 7)), Polynomial.zero())
    assert pencil_class_quot(6) == 5 * (6 * sumb6 - 38 * suma6)


def test_pencil_presentations_consistent():
    for e in range(2, 9):
        assert pencil_sub_from_quot(e) == pencil_class_quot(e)


def test_pencil_monomial_weight():
    for e in range(2, 9):
        assert discriminant_monomial_weight(e) == pencil_class_sub(e)


def test_pencil_homogeneous_symmetric():
    for e in (3, 4, 6):
        sub = pencil_class_sub(e)
        quot = pencil_class_quot(e)
        assert homogeneous(sub, 1) and homogeneous(quot, 1)
        assert sub.rename({alpha(1): alpha(e), alpha(e): alpha(1)}) == sub
        assert sub.rename({gamma_var(1): gamma_var(2), gamma_var(2): gamma_var(1)}) == sub
        assert quot.rename({beta(1): beta(2), beta(2): beta(1)}) == quot


def _root_sum(var, n):
    return Polynomial({((var(i), 1),): 1 for i in range(1, n + 1)})


def _pencil_sub_formula(e):
    """The sub-bundle class as a closed form in the roots:
    (e-1)(4 sum a_i - e (g_1 + g_2))."""
    return (e - 1) * (4 * _root_sum(alpha, e) - e * _root_sum(gamma_var, 2))


def _pencil_quot_formula(e):
    """The quotient-bundle class as a closed form in the roots, with
    N = C(e+1,2) - 2 quotient roots: (e-1)(e sum b_j - (e^2+e-4) sum a_i)."""
    sumb = _root_sum(beta, comb(e + 1, 2) - 2)
    return (e - 1) * (e * sumb - (e * e + e - 4) * _root_sum(alpha, e))


def test_pencil_push_forward_matches_closed_forms():
    # the push-forward is formed in c1E and c1S and only then expanded in
    # the roots, so the closed forms check each presentation's substitution
    for e in range(2, 31):
        assert pencil_class_sub(e) == _pencil_sub_formula(e)
        assert pencil_class_quot(e) == _pencil_quot_formula(e)


@pytest.mark.parametrize("pencil_class", [pencil_class_sub, pencil_class_quot])
@pytest.mark.parametrize("e", [1, 0, -3])
def test_pencil_class_needs_e_at_least_two(pencil_class, e):
    with pytest.raises(PreconditionViolated):
        pencil_class(e)


def test_triple_agreement_divisorial_small():
    # the closed form is the independent reference for the sign of every
    # divisorial block
    for e in range(2, 7):
        for r in range(1, e):
            f = divisorial_f(e, r)
            if f < 1:
                continue
            want = closed_divisor_class(e, r)
            assert residue_divisor_class(e, r) == want
            assert localization_class(e, f, r) == want, (e, r)


@pytest.mark.parametrize("r,e", [(r, e) for e in range(1, 5) for r in range(e + 1)])
def test_shift_coefficient_matches_full_substitution(r, e):
    from quadloci.algebra import ALPHA, expand_symmetric, sym, zvar

    z = X(zvar())
    shift = {alpha(i): X(alpha(i)) - QQ(1, 2) * z for i in range(1, e + 1)}
    full = sym_degeneracy_class(r, e).substitute_poly(shift)
    # every term has degree C(r+1,2), so that bound keeps the whole class
    twisted = shifted_corank_class(r, e, comb(r + 1, 2))
    roots = expand_symmetric(twisted, ALPHA, e, symbol=lambda i: sym("c%dE" % i))
    assert roots == full


def _c_degree(mono):
    """Degree of a monomial in the c_jE, c_jE having degree j."""
    from quadloci.algebra import zvar

    return sum(int(v[1][1:-1]) * k for v, k in mono if v != zvar())


@pytest.mark.parametrize("e", range(1, 9))
def test_shifted_corank_class_truncation(e):
    # the bound max_c forms exactly the terms of c-degree <= max_c
    from quadloci.algebra import zvar

    for r in range(e + 1):
        D = comb(r + 1, 2)
        full = shifted_corank_class(r, e, D)
        degree = {m: _c_degree(m) for m in full.terms}
        assert all(degree[m] + dict(m).get(zvar(), 0) == D for m in full.terms)
        for max_c in range(D + 1):
            want = {m: c for m, c in full.terms.items() if degree[m] <= max_c}
            assert shifted_corank_class(r, e, max_c).terms == want, (r, max_c)


def test_residue_matches_closed_form_through_e6():
    from quadloci.algebra import ALPHA, BETA, expand_symmetric, sym

    for e in range(1, 7):
        for r in range(1, e + 1):
            f = divisorial_f(e, r)
            if f < 1:
                continue
            want = closed_divisor_class(e, r)
            assert residue_divisor_class(e, r) == want
            want_roots = expand_symmetric(
                expand_symmetric(want, ALPHA, e, symbol=lambda i: sym("c%dE" % i)),
                BETA, f, symbol=lambda j: sym("c%dF" % j),
            )
            assert to_roots(residue_divisor_class(e, r), e, f) == want_roots


def test_residue_corank_zero_matches_closed_form():
    # d = 0: the divided difference over all C(e+1,2) weights is exact
    for e in range(1, 7):
        f = divisorial_f(e, 0)
        want = closed_divisor_class(e, 0)
        assert want == c1F() - (e + 1) * c1E()
        assert residue_divisor_class(e, 0) == want
        assert to_roots(residue_divisor_class(e, 0), e, f) == to_roots(want, e, f)


def test_divisorial_f_at_symbolic_and_integer_arguments():
    from quadloci.grr import rf

    g, k = rf("g"), rf("k")
    assert divisorial_f(g + 1, g - 3) == rf(4) * g - rf(2)   # K3 rank 4
    assert divisorial_f(k, k - 4) == rf(4) * k - rf(6)       # covers
    assert divisorial_f(g, g - 3) == rf(3) * g - rf(3)       # Petri
    for e in range(1, 10):
        for r in range(e + 1):
            got = divisorial_f(e, r)
            assert type(got) is int and got == comb(e + 1, 2) - comb(r + 1, 2)


def test_divisorial_combination_matches_residue_class():
    # the residue producer is independent of the closed form
    for e in range(1, 9):
        for r in range(e + 1):
            f = divisorial_f(e, r)
            if f < 1:
                continue
            got = divisorial_combination(e, f, c1E(), c1F()).scale(a_const(e, r))
            assert got == residue_class(e, f, r), (e, r)
    # a rank below 1 has no divisorial class (2f/e would divide by e <= 0)
    for e in (0, -1):
        with pytest.raises(PreconditionViolated, match="need e >= 1"):
            divisorial_combination(e, 1, c1E(), c1F())


@pytest.mark.parametrize("pairs", [
    [(e, r) for e in range(1, 13) for r in range(e)],
    [(27, 24)],             # Petri, g = 27: e = g, r = g - 3
    [(22, 18)],             # K3 rank 4, g = 21: e = g + 1, r = g - 3
    [(13, 9), (14, 10)],    # covers, k = 13, 14: e = k, r = k - 4
    [(k, k - 4) for k in range(15, 21)],  # covers, k = 15..20
], ids=["divisorial-e<=12", "petri-g27", "k3-g21", "covers-k13-14", "covers-k15-20"])
def test_degree_constant_certified_by_resolution(pairs):
    # A divisorial class is alpha c1E + beta c1F.  At a = (1..e) it takes
    # alpha * sum(a) at b = 0 and alpha * sum(a) + beta at b = (1, 0, ..., 0),
    # so two resolution values fix both; the resolution forms neither the
    # product nor the determinant of `a_const`.
    for e, r in pairs:
        f = divisorial_f(e, r)
        a = list(range(1, e + 1))
        v0 = resolution_value(e, f, r, a, [0] * f)
        v1 = resolution_value(e, f, r, a, [1] + [0] * (f - 1))
        beta_ = v1 - v0
        assert beta_ == a_const(e, r), (e, r)
        assert v0 / sum(a) == -QQ(2 * f, e) * beta_, (e, r)


def _veronese_class(e, f):
    """The corank-(e-1) class, the |J| = 1 case of `loci.resolution_value`
    written in the Chern symbols: a quadric of rank <= 1 is a square l^2,
    so the locus is the zero set on P(E) of O(-2) -> Sym^2 E -> F pushed
    down,
        sum_{j >= e-1} 2^j c_(f-j)F (-1)^(j-e+1) h_(j-e+1)(a),
    with h_k(a) = sum_i (-1)^(i-1) c_iE h_(k-i)(a)."""
    def c(i, side, rank):
        if i == 0:
            return Polynomial.const(1)
        return X(sym("c%d%s" % (i, side))) if i <= rank else Polynomial.zero()

    h = [Polynomial.const(1)]
    for k in range(1, f - e + 2):
        h.append(sum(((-1) ** (i - 1) * c(i, "E", e) * h[k - i]
                      for i in range(1, k + 1)), Polynomial.zero()))
    return sum((2 ** j * (-1) ** (j - e + 1) * c(f - j, "F", f) * h[j - e + 1]
                for j in range(e - 1, f + 1)), Polynomial.zero())


def _chern_point(e, f, rng):
    """Distinct integer roots a, integer roots b, and the point
    c_iE = e_i(a), c_jF = e_j(b)."""
    a = rng.sample(range(-10**6, 10**6), e)
    b = [rng.randint(-10**6, 10**6) for _ in range(f)]
    ea, eb = _elem_values(a, e), _elem_values(b, f)
    point = {sym("c%dE" % i): ea[i] for i in range(1, e + 1)}
    point.update((sym("c%dF" % j), eb[j]) for j in range(1, f + 1))
    return a, b, point


def test_veronese_reference_at_corank_e_minus_1():
    # every triple with r = e - 1 in the producer's domain, e <= 7, and
    # e = 8 up to f = 30; the Veronese class is resolution_value at r = e - 1
    rng = random.Random(1)
    n_checked = 0
    for e in range(2, 9):
        n = comb(e + 1, 2)
        for f in range(n - comb(e, 2), min(n - 1, 30) + 1):
            veronese = _veronese_class(e, f)
            assert residue_class(e, f, e - 1) == veronese, (e, f)
            a, b, point = _chern_point(e, f, rng)
            assert resolution_value(e, f, e - 1, a, b) == veronese.evaluate(point)
            n_checked += 1
    assert n_checked == 56 + 23


def test_corank_e_class_is_zero():
    # a quadric of corank e is the zero form, not a point of P(Sym^2 E)
    for e in (7, 9):
        assert residue_class(e, 1, e).is_zero()
        assert localization_class(e, 1, e).is_zero()
        a, b, _ = _chern_point(e, 1, random.Random(e))
        assert resolution_value(e, 1, e, a, b) == 0


def test_resolution_value_preconditions():
    with pytest.raises(PreconditionViolated):
        resolution_value(3, 4, 2, [1, 1, 2], [1, 2, 3, 4])  # a repeated root
    with pytest.raises(PreconditionViolated):
        resolution_value(3, 4, 2, [1, 2, 3], [1, 2, 3])  # f roots b wanted


def _residue_matches_resolution(e, f, r, points=3):
    """Whether `loci.residue_class(e, f, r)` equals `loci.resolution_value`
    at `points` seeded points."""
    import quadloci.loci as loci

    cls = loci.residue_class(e, f, r)
    rng = random.Random("%d,%d,%d" % (e, f, r))
    for _ in range(points):
        a, b, point = _chern_point(e, f, rng)
        if cls.evaluate(point) != loci.resolution_value(e, f, r, a, b):
            return False
    return True


def test_resolution_value_matches_general_classes():
    path = os.path.join(os.path.dirname(__file__), "data", "general_classes.json")
    with open(path) as fh:
        entries = json.load(fh)
    for ent in entries:
        e, f, r = ent["e"], ent["f"], ent["r"]
        assert _residue_matches_resolution(e, f, r, points=1), (e, f, r)


@pytest.mark.parametrize("e", [8, 9])
def test_resolution_value_matches_residue_at_e8_and_e9(e):
    # every r, including r = 0 at d = 0 and r = e - 1; three seeded values
    # of d (class degree t <= 14) per r
    rng = random.Random(e)
    n = comb(e + 1, 2)
    for r in range(e + 1):
        ds = [d for d in range(min(comb(r + 1, 2), n - 1) + 1)
              if (d >= 1 or r == 0) and comb(r + 1, 2) - d + 1 <= 14]
        for d in rng.sample(ds, min(3, len(ds))):
            assert _residue_matches_resolution(e, n - d, r), (e, n - d, r)


def _drop_one_term(p):
    terms = dict(p.terms)
    del terms[max(terms)]
    return Polynomial(terms)


def _flip_c2F(p):
    c2F = sym("c2F")
    return Polynomial({m: -c if any(v == c2F for v, _ in m) else c
                       for m, c in p.terms.items()})


# f is not divisorial at any of these, and each class has c_2F terms
MUTANT_TRIPLES = [(4, 8, 3), (5, 14, 4), (6, 18, 5)]


@pytest.mark.parametrize("mutate", [_drop_one_term, _flip_c2F])
@pytest.mark.parametrize("efr", MUTANT_TRIPLES)
def test_resolution_value_rejects_residue_mutants(monkeypatch, efr, mutate):
    import quadloci.loci as loci

    e, f, r = efr
    assert f != divisorial_f(e, r)
    assert _residue_matches_resolution(e, f, r)
    full = loci.residue_class
    monkeypatch.setattr(loci, "residue_class", lambda *t: mutate(full(*t)))
    assert loci.residue_class(e, f, r) != full(e, f, r)
    assert not _residue_matches_resolution(e, f, r)


@pytest.mark.parametrize("mutate", [_drop_one_term, _flip_c2F])
@pytest.mark.parametrize("efr", [(4, 8, 3), (5, 14, 4)])
def test_localization_rejects_residue_mutants(monkeypatch, efr, mutate):
    # the fixed-point sum at the seeded points catches a wrong residue class
    import quadloci.loci as loci
    from quadloci.algebra import DenominatorSurvives

    full = loci.residue_class
    monkeypatch.setattr(loci, "residue_class", lambda *t: mutate(full(*t)))
    with pytest.raises(DenominatorSurvives, match="differs from the residue class"):
        localization_class(*efr)


def test_localization_certificate_is_independent_of_the_corank_class(monkeypatch):
    # double the corank class h_r wherever the module builds it: in the
    # residue producer's `_twisted_corank`, and in a Jacobi-Trudi point
    # value of h_r if the module has one.  A certificate that forms h_r
    # would double with the class; `resolution_value` forms no h_r.
    import quadloci.loci as loci
    from quadloci.algebra import DenominatorSurvives

    triples = [(4, 8, 3), (5, 14, 4), (4, 7, 2)]
    true = {efr: residue_class(*efr) for efr in triples}
    twisted = loci._twisted_corank
    monkeypatch.setattr(loci, "_twisted_corank", lambda *t: [
        {k: 2 * v for k, v in part.items()} for part in twisted(*t)])
    value = getattr(loci, "sym_degeneracy_value", None)
    monkeypatch.setattr(loci, "sym_degeneracy_value",
                        lambda *t: 2 * value(*t), raising=False)
    for efr in triples:
        assert loci.residue_class(*efr) == 2 * true[efr]
        with pytest.raises(DenominatorSurvives, match="differs from the residue class"):
            localization_class(*efr)


# general triples across localization's domain, d = 1 to d = |W| - 1
GENERAL = [(2, 1, 2), (3, 1, 3), (3, 3, 3), (3, 5, 2), (4, 4, 4), (4, 7, 3),
           (4, 8, 2), (4, 1, 4), (5, 1, 5), (5, 7, 4), (5, 13, 2),
           (5, 14, 4), (6, 15, 4), (6, 20, 4), (5, 14, 5)]


@pytest.mark.parametrize("efr", GENERAL)
def test_residue_class_matches_localization(efr):
    e, f, r = efr
    chern = localization_class(e, f, r)
    assert residue_class(e, f, r) == chern
    if f <= 13:
        # the roots form of the f >= 14 classes has 10^4 terms or more
        loc = to_roots(chern, e, f)
        assert to_chern_symbols(loc, e, f) == chern
        assert to_roots(residue_class(e, f, r), e, f) == loc


def test_general_classes_golden_file():
    # tests/data/make_general_classes.py wrote the Chern-form class of every
    # triple with e <= 7 and largest block <= 150; localization_class returns
    # the residue class only after the fixed-point sum has certified it
    from quadloci.cli import poly_document

    path = os.path.join(os.path.dirname(__file__), "data", "general_classes.json")
    with open(path) as fh:
        entries = json.load(fh)
    assert len(entries) == 179
    for ent in entries:
        e, f, r = ent["e"], ent["f"], ent["r"]
        want = ent["class"]
        got = poly_document(residue_class(e, f, r), "class sigma", {})
        assert got["coefficients"] == want, (e, f, r)
        got = poly_document(localization_class(e, f, r), "class sigma", {})
        assert got["coefficients"] == want, (e, f, r)


def test_residue_class_domain():
    # localization's domain, plus r = d = 0
    assert residue_class(3, 6, 0) == c1F() - 4 * c1E()
    for e, f, r in ((3, 5, 0), (3, 6, 1), (3, 6, 4), (2, 2, 3), (3, 0, 3)):
        with pytest.raises(PreconditionViolated):
            residue_class(e, f, r)


def test_divisorial_f_refuses_a_float():
    # 4.0 once gave 7.0; a rational-function rank still passes
    from quadloci.grr import rf

    with pytest.raises(TypeError, match="^e must be int or RationalFunction, not float$"):
        divisorial_f(4.0, 2)
    with pytest.raises(TypeError, match="^r must be int or RationalFunction, not bool$"):
        divisorial_f(4, True)
    assert divisorial_f(rf("g"), 2) == (rf("g") * rf("g") + rf("g") - 6) * QQ(1, 2)


def test_localization_class_refuses_a_float_rank():
    # 8.0 once reached the residue kernel and failed there on bit_length
    with pytest.raises(TypeError, match="^f must be int, not float$"):
        localization_class(4, 8.0, 3)


def test_residue_class_refuses_a_bool_rank():
    # True once read as e = 1, in the r = d = 0 branch too
    for e, f, r in ((True, 1, 1), (True, 1, 0), (3, 6, False)):
        with pytest.raises(TypeError, match="must be int, not bool$"):
            residue_class(e, f, r)


def test_target_degree():
    assert target_degree(2, 2, 1) == 1
    assert target_degree(3, 4, 2) == 2
    assert target_degree(5, 12, 2) == 1


def _pair_terms(wvals, bvals, fvals, scale):
    """The literal (H, gamma) terms of the fixed-point sum at a point, with
    fvals[i] = scale * h(a - w_i/2)."""
    n = len(wvals)
    d = n - len(bvals)
    for H in itertools.combinations(range(n), d):
        num = prod(bv - wvals[i] for i in H for bv in bvals)
        for g in H:
            den = scale * prod(wvals[k] - wvals[g] for k in range(n) if k != g)
            den *= prod(wvals[k] - wvals[i] for i in H if i != g
                        for k in range(n) if k not in H)
            yield (H, g), QQ(fvals[g] * num, den)


def _sample_point(e, f, r, rng):
    """Distinct small random roots a, roots b, the Sym^2 weight values (also
    distinct), and the scaled values of h(a - w/2) at the weights."""
    h = sym_degeneracy_class(r, e)
    avars = [alpha(i) for i in range(1, e + 1)]
    while True:
        a = rng.sample(range(-30, 31), e)
        wvals = [int(w.evaluate(dict(zip(avars, a)))) for w in sym2_weights(e)]
        if len(set(wvals)) == len(wvals):
            break
    bvals = [rng.randint(-30, 30) for _ in range(f)]
    fvals = [h.evaluate({v: av - QQ(w, 2) for v, av in zip(avars, a)})
             for w in wvals]
    scale = lcm(*(q.denominator for q in fvals))
    return a, bvals, wvals, [int(q * scale) for q in fvals], scale


@pytest.mark.parametrize("efr", [(2, 2, 1), (3, 5, 1), (4, 1, 4), (5, 1, 5),
                                 (4, 4, 3), (5, 7, 4), (6, 18, 3)])
def test_fixed_point_sum_matches_pair_enumeration(efr):
    # the certificate's sum over the Grassmannian fixed points J against
    # the paper's sum over the pairs (H, gamma), summed literally: d = 1,
    # d = |W| - 1 at (4,1,4) and (5,1,5), and the mid-range d
    e, f, r = efr
    a, bvals, wvals, fvals, scale = _sample_point(e, f, r, random.Random(sum(efr)))
    want = sum((v for _, v in _pair_terms(wvals, bvals, fvals, scale)), QQ(0))
    assert resolution_value(e, f, r, a, bvals) == want
