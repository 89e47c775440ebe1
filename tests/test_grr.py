import pytest

from quadloci.algebra import QQ
from quadloci.grr import (
    BundleCharacter,
    MissingRule,
    TagExpr,
    TautClass,
    _mono,
    chern_of_power_pushforward,
    curve_rules,
    gamma_hurwitz,
    gamma_k3,
    grr_c1,
    grr_rank,
    hurwitz_sheaf_chern,
    hurwitz_twist,
    in_gamma_basis,
    jet_porteous_d3,
    k3_rules,
    k3_twist,
    lm_lambda_relation,
    rf,
)

G = rf("g")
K = rf("k")
N = rf("n")
I = rf("i")


def test_curve_table_entries():
    rules = curve_rules(genus=G, degL=rf("d"))
    assert rules.top_rules[_mono(("c1omega", 2))] == TautClass(
        {"lambda": 12, "delta": -1}
    )
    assert rules.scalar_rules[_mono(("c1L", 1))] == rf("d")
    assert rules.scalar_rules[_mono(("c1omega", 1))] == rf(2) * G - rf(2)
    assert rules.push_top(TagExpr.const(1)) == TautClass.zero()
    assert rules.push_scalar(TagExpr.const(1)) == rf(0)


def test_curve_todd_factor():
    rules = curve_rules(genus=G, degL=rf(1))
    assert rules.todd.terms[()] == rf(1)
    assert rules.todd.terms[_mono(("c1omega", 1))] == rf(QQ(-1, 2))
    assert rules.todd.terms[_mono(("T2", 1))] == rf(1)


def test_k3_todd_factor_displayed_coefficients():
    rules = k3_rules(G)
    todd = rules.todd.terms
    assert todd[()] == rf(1)
    assert todd[_mono(("c1omega", 1))] == rf(QQ(-1, 2))
    assert todd[_mono(("c1omega", 2))] == rf(QQ(1, 12))
    assert todd[_mono(("c2T", 1))] == rf(QQ(1, 12))
    assert todd[_mono(("c1omega", 1), ("c2T", 1))] == rf(QQ(1, 24))


def test_k3_table_entries():
    rules = k3_rules(G)
    assert rules.push_scalar(TagExpr.tag("c2T")) == rf(24)
    assert rules.push_scalar(TagExpr({_mono(("c1L", 2)): rf(1)})) == rf(2) * G - rf(2)
    assert rules.push_top(
        TagExpr({_mono(("c1L", 1), ("c1omega", 2)): rf(1)})
    ) == TautClass.zero()
    assert rules.push_top(TagExpr({_mono(("c1omega", 1), ("c2T", 1)): rf(1)})) == TautClass.symbol("lambda", 24)


def test_missing_rule():
    rules = k3_rules(G)
    with pytest.raises(MissingRule):
        rules.push_top(TagExpr({_mono(("T2", 1), ("c1L", 1)): rf(1)}))


def test_structure_sheaf_pushforward_is_lambda():
    rules = curve_rules(genus=G, degL=rf(0))
    assert grr_c1(BundleCharacter.line_bundle(0, 0), rules) == TautClass.symbol("lambda")


def test_quadratic_differentials():
    rules = curve_rules(genus=G, degL=rf(2) * (rf(2) * G - rf(2)))
    got = grr_c1(BundleCharacter.line_bundle(0, 2), rules)
    assert got == TautClass({"lambda": 13, "delta": -1})


def test_squared_bundle_pushforward():
    rules = curve_rules(genus=G, degL=rf("d"))
    got = grr_c1(BundleCharacter.line_bundle(2, 0), rules)
    assert got == TautClass({"lambda": 1, "frak_a": 2, "frak_b": -1})


def test_power_pushforward_symbolic():
    got = chern_of_power_pushforward(N, G)
    want = TautClass(
        {
            "kappa11": N * rf(QQ(1, 12)),
            "kappa30": N ** 3 * rf(QQ(1, 6)),
            "lambda": rf(1) - N ** 2 * rf(QQ(1, 2)) * (G - rf(1)),
        }
    )
    assert got == want
    # numeric instances
    got2 = chern_of_power_pushforward(2, 11)
    assert got2 == TautClass(
        {"kappa11": QQ(1, 6), "kappa30": QQ(4, 3), "lambda": -19}
    )


def _direct_sum(a, b):
    """The Chern character of a direct sum: ranks and ch_k add."""
    ch = {k: a.ch.get(k, TagExpr()) + b.ch.get(k, TagExpr())
          for k in set(a.ch) | set(b.ch)}
    return BundleCharacter(a.rank + b.rank, ch)


def test_grr_additivity_in_character():
    rules = k3_rules(G)
    a = BundleCharacter.line_bundle(1, 0)
    b = BundleCharacter.line_bundle(3, 1)
    s = _direct_sum(a, b)
    assert grr_c1(s, rules) == grr_c1(a, rules) + grr_c1(b, rules)
    assert grr_rank(s, rules) == grr_rank(a, rules) + grr_rank(b, rules)


def test_power_pushforward_rank():
    # rank of the pushforward of the n-th power is 2 + n^2 (g-1)
    rules = k3_rules(G)
    got = grr_rank(BundleCharacter.line_bundle(N, 0), rules)
    assert got == rf(2) + N ** 2 * (G - rf(1))


def test_hurwitz_sheaf_chern():
    c1E, c1F = hurwitz_sheaf_chern()
    assert c1F == TautClass({"lambda": 13, "frak_a": 2, "frak_b": -3, "D0": -1})
    assert c1E == TautClass(
        {"lambda": 1, "frak_b": QQ(-1, 2), "frak_a": (K - rf(2)) / (rf(2) * K)}
    )
    # lambda-coefficient of c1F with the other classes switched off is 13
    assert c1F.coefficient("lambda") == rf(13)


def test_jet_porteous():
    d3, inter = jet_porteous_d3()
    gam = gamma_hurwitz(K)
    assert d3 == gam.scale(6) + TautClass({"lambda": 24, "D0": -3})
    kappa1 = TautClass({"lambda": 12, "D0": -1})
    assert inter["push_c2_jet_quotient"] == gam.scale(6) + kappa1.scale(2)
    in_basis = in_gamma_basis(d3, gam, pivot="frak_b")
    assert in_basis == TautClass({"gamma": 6, "lambda": 24, "D0": -3})


def test_gamma_twist_invariance():
    gam_h = gamma_hurwitz(K)
    assert hurwitz_twist(gam_h, K) == gam_h
    gam_k = gamma_k3(G)
    assert k3_twist(gam_k, G) == gam_k
    # the raw kappa classes are not invariant
    assert k3_twist(TautClass.symbol("kappa30"), G) != TautClass.symbol("kappa30")
    assert hurwitz_twist(TautClass.symbol("frak_a"), K) != TautClass.symbol("frak_a")


def test_lambda_torsion_relation():
    rep = lm_lambda_relation()
    assert rep.c2_pushforward == I - rf(1)
    assert rep.c2_pushforward_direct == I + rf(1)
    assert rep.rhs_lambda_multiple == rf(3)
    assert rep.residual_multiple == rf(2)
    assert not rep.ch3_endomorphisms.terms


def test_tautclass_arithmetic():
    a = TautClass({"lambda": 2, "D0": -1})
    b = TautClass({"lambda": 1, "gamma": QQ(1, 3)})
    assert (a + b).coefficient("lambda") == rf(3)
    assert (a - b).coefficient("gamma") == rf(QQ(-1, 3))
    assert a.scale(3) == TautClass({"lambda": 6, "D0": -3})
    assert a.substitute_symbol("D0", b) == TautClass(
        {"lambda": 1, "gamma": QQ(-1, 3)}
    )


def _products_then_graded_c1(chr, rules):
    """grr_c1 as it was once written: the whole product, then its part."""
    d = rules.relative_dim
    return rules.push_top((chr.full(d) * rules.todd).graded_part(d + 1))


def _products_then_graded_rank(chr, rules):
    d = rules.relative_dim
    return rules.push_scalar((chr.full(d) * rules.todd).graded_part(d))


def _same_rf(got, want):
    assert (got.num.terms, got.den.terms) == (want.num.terms, want.den.terms)


_TABLES = {
    **{"curve %s %s" % (boundary, kind): curve_rules(genus, degL, boundary)
       for boundary in ("delta", "delta0", "D0")
       for kind, genus, degL in (("symbolic", G, K), ("numeric", 5, 3))},
    "k3 symbolic": k3_rules(G),
    "k3 numeric": k3_rules(11),
}


@pytest.mark.parametrize("table", sorted(_TABLES))
def test_top_degree_products_match_the_whole_product(table):
    rules = _TABLES[table]
    chars = [BundleCharacter.line_bundle(a, b)
             for a in range(-2, 3) for b in range(-2, 3)]
    chars.append(_direct_sum(
        BundleCharacter.line_bundle(-1, 1), BundleCharacter.line_bundle(2, 0)))
    for chr in chars:
        got, want = grr_c1(chr, rules), _products_then_graded_c1(chr, rules)
        assert list(got.coeffs) == list(want.coeffs)
        for s in want.coeffs:
            _same_rf(got.coeffs[s], want.coeffs[s])
        _same_rf(grr_rank(chr, rules), _products_then_graded_rank(chr, rules))
